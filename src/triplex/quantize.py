"""Quantization of (x, xi) symbols on a Fourier-truncated torus.

Functions live in the span of e^(i k w0 x), |k| <= K, w0 = 2 pi / period,
represented by their coefficient vectors.  Operators are complex matrices
in that basis, dense except for the Taylor stacks of a Layout: the Weyl
quantization of a trig polynomial of degree bw w0 in x is banded,
M[k, k'] = 0 for |k - k'| > bw, and a Layout whose symbols all are such
stores its stack by those diagonals once the grid has N >= 8 (2 bw + 1)
modes (see Layout).

op_weyl uses midpoint frequencies: M[k, k'] = qhat(k - k'; w0 (k + k')/2)
where qhat(m; xi) is the m-th x-Fourier coefficient of q(., xi).  With
the half-integer midpoint, M[k', k] reads qhat(k' - k) at the xi of M[k,
k'], and those coefficients are conjugate symmetric by construction
(_x_coefficients), so a real symbol's M is exactly Hermitian, bit for bit.
Coefficients are computed by trapezoid quadrature on 2N nodes so that every
needed difference frequency |k - k'| <= 2K is resolved without aliasing.  A
symbol constant in xi is transformed as one column, and M is the Toeplitz
qhat(k - k') read from it as a strided view, with the same bits as every
midpoint column; friedrichs_part keeps one column too.

TaylorOps quantizes a model's symbols once, as Taylor stacks in t with
Op(t) = sum_i t^i C_i, and decides which symbols have one.  It keeps each
C_i in compact form (_weyl_compact): the one x-Fourier column of a symbol
constant in xi (every gallery symbol), not its N x N matrix.  A Layout is
an operator affine in them (Op(S), J, the generator's first block row),
applied from its Taylor stack in t or, when a symbol has none, from a
stack about the requested t.  Either is built straight into the band from
the compact C_i, by running the layout's fn on _Band blocks, so no N x N
block is formed; a dense stack is the band at full width.
c_star is the Fefferman-Phong constant C* = -t lambda_min(G), or a
Cholesky certificate that it lies below a floor; fp_search and the energy
shift both use it.

friedrichs_part builds the symmetrized positive part

    p_F(eta, y, xi) = int F(eta, zeta) p(y, zeta) F(xi, zeta) dzeta,
    F(xi, zeta) = q((zeta - xi) jp(xi)^(-1/2)) jp(xi)^(-1/4),

quantized as M[k, k'] = (1/N) sum_j e^(-i x_j (k - k') w0) p_F(k, x_j, k').
Because the zeta quadrature has positive weights, the result is positive
semidefinite whenever the symbol matrix is PSD at the sample points, at
every rule size.  So the positivity defect max(0, -min eig) gives no
signal for refining the rule, and one fixed rule of FRIEDRICHS_PPU points
per unit is used; a test pins it against a rule twice as fine.

The contraction is banded.  F(xi, .) vanishes outside |zeta - xi| <
support jp(xi)^(1/2), and the rule's nodes are sorted, so row k needs only
the contiguous slice of nodes under its own window and the columns k'
whose windows meet that slice; every other (k, k', zeta) term carries a
zero window factor.  Each row is therefore summed over its own slice and
columns alone, which gives the full sum up to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .symbols import differentiate, is_zero, x_degree
from .symmetrizer import J_entries, S_entries

__all__ = [
    "FourierGrid",
    "BlockOp",
    "op_weyl",
    "block_weyl",
    "TaylorOps",
    "Layout",
    "herm_S_layout",
    "Bump",
    "default_bump",
    "friedrichs_part",
    "sgarding_residual",
    "fp_check",
    "fp_search",
    "c_star",
    "operator_norm",
    "top_eigenvalue",
]


@dataclass(frozen=True)
class FourierGrid:
    """Mode truncation |k| <= K on a torus of the given period."""

    K: int
    period: float = 2.0 * math.pi

    def __post_init__(self):
        if self.K < 1 or self.K > 128:
            raise ValueError("K must be between 1 and 128")

    @property
    def N(self):
        return 2 * self.K + 1

    @property
    def base_freq(self):
        return 2.0 * math.pi / self.period

    @property
    def modes(self):
        return np.arange(-self.K, self.K + 1)

    @property
    def freqs(self):
        return self.modes * self.base_freq

    @property
    def nodes(self):
        return self.period * np.arange(self.N) / self.N

    @property
    def jp_values(self):
        return np.sqrt(1.0 + self.freqs**2)


@dataclass
class BlockOp:
    """Dense operator on b stacked coefficient vectors."""

    matrix: np.ndarray
    blocks: int = 3

    @staticmethod
    def from_blocks(rows, grid):
        """Lay out a nested list of N x N blocks, rows of equal length.

        A block may be an N x N matrix, a length-N vector (its diagonal
        matrix) or a scalar c (c times the identity); None and the scalar 0
        leave the block empty.
        """
        N = grid.N
        b, stride = len(rows), len(rows[0]) * N
        out = np.zeros((b * N, stride), dtype=complex)
        flat = out.reshape(-1)
        for i, row in enumerate(rows):
            for j, blk in enumerate(row):
                if isinstance(blk, np.ndarray) and blk.ndim == 2:
                    out[i * N : (i + 1) * N, j * N : (j + 1) * N] = blk
                elif _is_diagonal(blk):
                    # the block's diagonal: every (stride + 1)-th entry from its corner
                    corner = i * N * stride + j * N
                    flat[corner : corner + N * (stride + 1) : stride + 1] = blk
        return BlockOp(out, blocks=b)

    def min_eig(self):
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])


def _is_diagonal(blk):
    """True for a block given by its diagonal: a length-N vector or a nonzero scalar."""
    return blk is not None and (isinstance(blk, np.ndarray) or blk != 0)


def _x_coefficients(vals, n):
    """x-Fourier coefficients [m mod n, column] of real values sampled at n nodes along axis
    0; one column when they are constant along axis 1 (a symbol constant in its frequency).
    Those of m < 0 are the conjugates of rfft's, so qhat(-m) = conj(qhat(m)) exactly."""
    vals = np.broadcast_to(vals, np.broadcast_shapes(np.shape(vals), (n, 1)))
    half = np.fft.rfft(vals, axis=0) / n
    return np.concatenate([half, half[n - len(half) : 0 : -1].conj()])


def _weyl_compact(expr, t, grid):
    """Weyl quantization of a symbol at time t in compact form: for a symbol constant in
    xi its one x-Fourier column [m mod 2N], from which M[k, k'] = qhat(k - k') is read, else
    the N x N matrix itself, a quarter the size of its 2N x (4K + 1) midpoint coefficients."""
    N = grid.N
    nq = 2 * N
    xq = grid.period * np.arange(nq) / nq
    mid_freqs = (np.arange(4 * grid.K + 1) - 2 * grid.K) * grid.base_freq / 2.0
    vals = np.asarray(expr.evaluate(t, xq[:, None], mid_freqs[None, :]), dtype=float)
    coef = _x_coefficients(vals, nq)
    if coef.shape[1] == 1:
        return coef
    i = np.arange(N)
    return coef[(i[:, None] - i[None, :]) % nq, i[:, None] + i[None, :]]


def _weyl_matrix(q, N):
    """The N x N matrix of _weyl_compact's q: q itself, or from a column the Toeplitz
    q[(k - k') mod 2N], a copy of a strided view."""
    if q.shape[1] > 1:
        return q
    # r[j] = q[(N - 1 - j) mod 2N], and entry (k, k') of the view is r[N - 1 - k + k'].
    # The view is made directly: numpy's as_strided keeps a ~1 MB Python block alive
    # after some 10^4 calls.
    r = np.concatenate([q[N - 1 :: -1, 0], q[: N : -1, 0]])
    return np.ndarray((N, N), r.dtype, r, (N - 1) * r.itemsize, (-r.itemsize, r.itemsize)).copy()


def op_weyl(expr, t, grid):
    """Midpoint (Weyl) quantization of a symbol expression at time t, as an N x N matrix;
    a symbol constant in xi takes one x-FFT column and the Toeplitz qhat(k - k') from it."""
    return _weyl_matrix(_weyl_compact(expr, t, grid), grid.N)


def block_weyl(entries, t, grid):
    """Blockwise op_weyl of a matrix of symbol expressions."""
    cache = {}

    def one(expr):
        if expr not in cache:
            cache[expr] = op_weyl(expr, t, grid)
        return cache[expr]

    rows = [[one(e) for e in row] for row in entries]
    return BlockOp.from_blocks(rows, grid)


# ---------------------------------------------------------------------------
# Taylor stacks in t

def _t_taylor(expr):
    """Taylor coefficient expressions in t, or None when not a polynomial of degree <= 6."""
    terms = [expr]
    while not is_zero(terms[-1]):
        if len(terms) > 7:
            return None
        terms.append(differentiate(terms[-1], "t", 1))
    return terms[:-1] or terms


def _horner(t, Y, n):
    """sum_i t^i Y_i for Y = [Y_0; ...; Y_p] stacked in blocks of n rows."""
    acc = Y[-n:]
    for i in range(Y.shape[0] // n - 2, -1, -1):
        acc = acc * t + Y[i * n : (i + 1) * n]
    return acc


def _horner_with_rate(t, Y, n):
    """(sum_i t^i Y_i, its t-derivative), the pair Horner sum over the same stack."""
    acc, rate = Y[-n:], 0.0
    for i in range(Y.shape[0] // n - 2, -1, -1):
        rate = rate * t + acc
        acc = acc * t + Y[i * n : (i + 1) * n]
    return acc, rate


class TaylorOps:
    """Taylor coefficients in t of a model's symbols, in _weyl_compact's form.

    The symbols are a, b and a2 = a^2 of the model, plus b10, b11 and b12
    of lot when given.  A symbol polynomial in t (the whole gallery)
    quantizes once, on first use, into its stack: C_0, ..., C_p with Op(t)
    = sum_i t^i C_i, each in _weyl_compact's form, one x-Fourier column for
    a symbol constant in xi.  A symbol that is not polynomial in t, or whose
    degree exceeds 6, has no stack.  local gives Op(t) and Op'(t) in the same
    form.  Each C_i of a real symbol is exactly Hermitian (_x_coefficients),
    and so is every sum of them with real t.
    """

    def __init__(self, model, grid, lot=None):
        self.grid = grid
        a = model.a_expr
        self.symbols = {"a": a, "b": model.b, "a2": a * a}
        if lot is not None:
            self.symbols.update(b10=lot.b10, b11=lot.b11, b12=lot.b12)
        self._stacks = {}
        self._rates = {}  # t-derivatives of the symbols without a stack

    def stack(self, name):
        """C_0, ..., C_p of Op(symbol) in compact form, quantized on first use; None when the
        symbol is not polynomial in t."""
        if name not in self._stacks:
            terms = _t_taylor(self.symbols[name])
            self._stacks[name] = None if terms is None else _read_only(
                *(_weyl_compact(d, 0.0, self.grid) / math.factorial(i)
                  for i, d in enumerate(terms)))
        return self._stacks[name]

    def local(self, name, t, rate=False):
        """The Taylor stack about t in compact form: (Op(t),), or (Op(t), Op'(t)) for rate
        when Op' is not 0.  A symbol with a stack takes its Horner sum, and only a symbol
        without one is quantized at t."""
        coefs = self.stack(name)
        if coefs is None:
            if name not in self._rates:
                self._rates[name] = differentiate(self.symbols[name], "t", 1)
            terms = (self.symbols[name], self._rates[name]) if rate else (self.symbols[name],)
            return tuple(_weyl_compact(e, t, self.grid) for e in terms)
        if len({c.shape for c in coefs}) > 1:  # columns and matrices: sum them as matrices
            coefs = [_weyl_matrix(c, self.grid.N) for c in coefs]
        Y, n = np.concatenate(coefs), len(coefs[0])
        if not rate:
            return (_horner(t, Y, n),)
        return _horner_with_rate(t, Y, n) if len(coefs) > 1 else (Y,)


class _Band:
    """An N x N block held by its band, as a Layout's fn sees it.

    data[k, j] is the entry in column cols[k, j], where cols[k] is the 2 bw + 1
    consecutive columns around k, shifted to stay inside the block; it is 0
    beyond bw of the diagonal.  At full width (2 bw + 1 = N) data is the
    block itself.  The operations fn applies to blocks are defined: a sum
    with a block or 0, a product with a scalar or with a diagonal from the
    right (a * jp) and negation.
    """

    __array_ufunc__ = None  # numpy scalars and arrays defer to the reflected operators

    def __init__(self, data, cols):
        self.data, self.cols = data, cols

    @classmethod
    def of(cls, q, cols):
        """The band of _weyl_matrix(q, N), read from the compact form q."""
        N, width = cols.shape
        if width == N:  # the whole block: the strided Toeplitz, with nothing to mask
            return cls(_weyl_matrix(q, N), cols)
        k = np.arange(N)[:, None]
        data = q[k, cols] if q.shape[1] > 1 else q[(k - cols) % len(q), 0]
        return cls(np.where(np.abs(cols - k) <= width // 2, data, 0), cols)

    def __add__(self, other):
        return _Band(self.data + (other.data if isinstance(other, _Band) else other), self.cols)

    __radd__ = __add__

    def __mul__(self, other):
        return _Band(self.data * (other[self.cols] if np.ndim(other) else other), self.cols)

    __rmul__ = __mul__

    def __neg__(self):
        return _Band(-self.data, self.cols)


def _band_rows(cols, rows, out):
    """Lay out fn's block rows into out, the ELL rows of F, zero on entry: per row of F and
    block column, the 2 bw + 1 entries in cols of a _Band, or a diagonal block's entry at
    the diagonal."""
    N = len(cols)
    diagonal = (np.arange(N), np.arange(N) - cols[:, 0])
    blocks = out.reshape(len(rows), N, len(rows[0]), cols.shape[1])  # a view: out is contiguous
    for i, row in enumerate(rows):
        for j, blk in enumerate(row):
            if isinstance(blk, _Band):
                blocks[i, :, j] = blk.data
            elif _is_diagonal(blk):
                blocks[i, :, j][diagonal] = blk


# A block's band is stored once it spans at most 1/_BAND_PAYOFF of the block's columns.
# Measured on g_E: R's 5-wide band beats its dense stack from K = 16 (N = 33), Herm Op(S)'s
# 9-wide band from K = 36 (N = 73).
_BAND_PAYOFF = 8


class Layout:
    """F(t) = fn(Op(s_1)(t), ..., Op(s_n)(t)) for fn affine in the named symbols of ops.

    fn returns F's block rows, a nested list of blocks as BlockOp.from_blocks
    lays out.  F is applied from a Taylor stack F_0, F_1, ... with F_0 =
    fn(C_0) and F_i = fn(C_i) - fn(0) from the symbols' Taylor coefficients
    C_i: about t = 0, built on first use, when every symbol has a stack
    (ops.stack decides), else about the requested t, [F(t)] or [F(t),
    F'(t)] from ops.local, kept for the last two (t, rate) keys (an RK4 step
    asks for t + h/2 twice).  Callers own their layouts, ops holds none: no
    stack outlives its user.  Every C_i is exactly Hermitian, so F is too
    when fn places the blocks symmetrically (Op(S), J): no Hermitian part is
    taken.

    fn only lays out blocks and scales them by scalars and diagonals, so
    each block of F is banded in k - k' with the symbols' band: bw = max
    x_degree * period / 2 pi modes when every symbol is a trig polynomial in
    x.  A stack row keeps 2 bw + 1 entries per block (an ELL layout: column
    indices _cols, zero where the band runs off a block's edge), built
    straight from the compact C_i by running fn on _Band blocks, so no N x N
    block is formed.  F(t) @ V is a Horner sum over those entries, one
    gather of V's rows and one batched product, and F(t) alone is scattered
    into a dense matrix.  When the band does not pay off (_BAND_PAYOFF (2 bw
    + 1) > N, or bw is no integer) it is the full width, bw = K: the stack
    is the dense [F_0; F_1; ...] and F(t) @ V one matmul and a Horner sum.
    """

    def __init__(self, ops, names, fn):
        self.ops = ops
        self.names = names
        self.fn = fn
        self._recent = {}

    @functools.cached_property
    def stack(self):
        """F's Taylor stack about t = 0, built on first use; None when a symbol is not
        polynomial in t."""
        coefs = [self.ops.stack(name) for name in self.names]
        return None if any(c is None for c in coefs) else self._build(coefs)

    def _build(self, coefs):
        """F's stack in the band's storage from each symbol's compact Taylor coefficients."""
        cols, (m, n) = self._band, self._shape
        _, at, const = self._constant
        block, zero = functools.partial(_Band.of, cols=cols), _Band(np.zeros(cols.shape), cols)
        W = np.zeros((max(map(len, coefs)) * m, n // len(cols) * cols.shape[1]), dtype=complex)
        for i in range(len(W) // m):
            term = W[i * m : (i + 1) * m]  # filled in place: no copy of the stack's size
            _band_rows(cols, self.fn(*(block(c[i]) if i < len(c) else zero for c in coefs)),
                       term)
            if i:
                term.reshape(-1)[at] -= const  # F_i = fn(C_i) - fn(0)
        W.flags.writeable = False
        return W

    @functools.cached_property
    def _band(self):
        """Each block row's band columns: 2 bw + 1 consecutive ones around its mode, shifted
        to stay inside the block; all N of them when the band does not pay off."""
        grid = self.ops.grid
        degrees = [x_degree(self.ops.symbols[name]) for name in self.names]
        bw = None if None in degrees else max(degrees) * grid.period / (2.0 * math.pi)
        if bw is None or bw != int(bw) or _BAND_PAYOFF * (2 * bw + 1) > grid.N:
            bw = grid.K
        bw, N = int(bw), grid.N
        return np.clip(np.arange(N) - bw, 0, N - 2 * bw - 1)[:, None] + np.arange(2 * bw + 1)

    @functools.cached_property
    def _constant(self):
        """F's shape, and fn(0) in the stack's storage as the places and values of its few
        nonzero entries (S's 3 I)."""
        cols = self._band
        rows = self.fn(*(_Band(np.zeros(cols.shape), cols) for _ in self.names))
        const = np.zeros((len(rows) * len(cols), len(rows[0]) * cols.shape[1]), dtype=complex)
        _band_rows(cols, rows, const)
        at = np.flatnonzero(const)
        return (len(rows) * len(cols), len(rows[0]) * len(cols)), at, const.reshape(-1)[at]

    _shape = functools.cached_property(lambda self: self._constant[0])

    @functools.cached_property
    def _cols(self):
        """Each row of F's ELL column indices; None at full width, where a row holds F's."""
        cols, (m, n) = self._band, self._shape
        if cols.shape[1] == len(cols):
            return None
        return (np.arange(0, n, len(cols))[None, :, None]
                + cols[np.arange(m) % len(cols), None, :]).reshape(m, -1)

    def _about(self, t, rate):
        """F's Taylor stack about t, [F(t)] or [F(t), F'(t)], for a layout without a stack."""
        key = (float(t), rate)
        if key not in self._recent:
            if len(self._recent) == 2:
                self._recent.pop(next(iter(self._recent)))
            self._recent[key] = self._build([self.ops.local(name, t, rate)
                                             for name in self.names])
        return self._recent[key]

    def _apply(self, C, V):
        """C @ V for C one coefficient of F, or several stacked, in the stack's storage."""
        if self._cols is None:
            return C @ V
        G = np.take(V.reshape(len(V), -1), self._cols, axis=0)  # rows x band x columns of V
        out = np.matmul(C.reshape((-1, self._shape[0], 1, C.shape[-1])), G)
        return out.reshape(C.shape[:-1] + V.shape[1:])

    def __call__(self, t, V=None):
        """F(t), or F(t) @ V without forming the matrix."""
        W = self.stack
        if W is None:  # the stack about t, summed at 0
            W, t = self._about(t, False), 0.0
        rows = self._shape[0]
        if self._cols is None:
            return _horner(t, W if V is None else W @ V, rows)
        C = _horner(t, W, rows)
        if V is not None:
            return self._apply(C, V)
        F = np.zeros(self._shape, dtype=C.dtype)
        np.put_along_axis(F, self._cols, C, axis=1)
        return F

    def term(self, i, V):
        """F_i @ V, the t^i Taylor coefficient of F applied to V; needs a stack reaching i."""
        rows = self._shape[0]
        return self._apply(self.stack[i * rows : (i + 1) * rows], V)

    def rate(self, t, V):
        """(F(t) @ V, F'(t) @ V): the Horner sum and its t-derivative."""
        W = self.stack
        if W is None:
            W, t = self._about(t, True), 0.0
        if self._cols is None:
            return _horner_with_rate(t, W @ V, self._shape[0])
        # F and F' share one gather of V
        return tuple(self._apply(np.stack(np.broadcast_arrays(
            *_horner_with_rate(t, W, self._shape[0]))), V))


def herm_S_layout(ops):
    """Op(S)(t) as a Layout over the a, b and a2 of ops; it is exactly Hermitian, so it is
    its own Hermitian part."""
    return Layout(ops, ("a", "b", "a2"), S_entries)


# ---------------------------------------------------------------------------
# Friedrichs part

def _bump_raw(sigma):
    sigma = np.asarray(sigma, dtype=float)
    out = np.zeros_like(sigma)
    inside = np.abs(sigma) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - sigma[inside] ** 2))
    return out


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class Bump:
    """Even C^infinity window on (-support, support) with unit L^2 norm."""

    fn: object
    support: float = 1.0


@functools.lru_cache(maxsize=None)
def default_bump():
    """c exp(-1/(1 - sigma^2)) on |sigma| < 1, normalized to unit L^2 norm."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    c = 1.0 / math.sqrt(float(np.sum(weights * _bump_raw(nodes) ** 2)))
    return Bump(fn=lambda s: c * _bump_raw(s))


@functools.lru_cache(maxsize=64)
def _zeta_rule(grid, support, points_per_unit):
    """Composite Gauss-Legendre rule over the union of windows xi +- support jp(xi)^(1/2)."""
    freqs = grid.freqs
    lo = float(np.min(freqs - support * np.sqrt(grid.jp_values)))
    hi = float(np.max(freqs + support * np.sqrt(grid.jp_values)))
    ncells = max(1, int(math.ceil(hi - lo)))
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(points_per_unit)
    edges = np.linspace(lo, hi, ncells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + halfw[:, None] * gl_nodes[None, :]).ravel()
    weights = (halfw[:, None] * gl_weights[None, :]).ravel()
    return _read_only(nodes, weights)


def _window(bump, zeta, xi, jp):
    """F(xi, zeta) = q((zeta - xi) jp^(-1/2)) jp^(-1/4)."""
    return bump.fn((zeta - xi) / np.sqrt(jp)) * jp**-0.25


@functools.lru_cache(maxsize=8)
def _window_bands(grid, bump, points_per_unit):
    """The zeta rule and, per output row r, the part of it that row needs.

    Each band is (r, nodes, cols, m, weights): the slice of zeta nodes under
    the window of xi_r, the columns whose windows meet that slice, their
    x-frequencies m = (r - cols) mod N, and weights[c, q] = w_q F(xi_r,
    zeta_q) F(xi_c, zeta_q).
    """
    zeta, w = _zeta_rule(grid, bump.support, points_per_unit)
    freqs, jp = grid.freqs, grid.jp_values
    half = bump.support * np.sqrt(jp)
    # one node of slack on each side absorbs rounding at the edge of a support
    lo = np.maximum(np.searchsorted(zeta, freqs - half) - 1, 0)
    hi = np.minimum(np.searchsorted(zeta, freqs + half, side="right") + 1, zeta.size)
    bands = []
    for r in range(grid.N):
        nodes = slice(lo[r], hi[r])
        cols = np.flatnonzero((lo < hi[r]) & (hi > lo[r]))
        wf_r = w[nodes] * _window(bump, zeta[nodes], freqs[r], jp[r])
        weights = _window(bump, zeta[None, nodes], freqs[cols, None], jp[cols, None]) * wf_r
        bands.append((r, nodes) + _read_only(cols, (r - cols) % grid.N, weights))
    return zeta, tuple(bands)


def _friedrichs_matrix(entries, t, grid, bump, points_per_unit):
    N = grid.N
    zeta, bands = _window_bands(grid, bump, points_per_unit)
    uses = {}  # distinct nonzero entries -> their (block row, block column) places
    for bi, row in enumerate(entries):
        for bj, expr in enumerate(row):
            if not is_zero(expr):
                uses.setdefault(expr, []).append((bi, bj))

    b = len(entries)
    out = np.zeros((b * N, b * N), dtype=complex)
    for expr, places in uses.items():
        vals = np.asarray(expr.evaluate(t, grid.nodes[:, None], zeta[None, :]), dtype=float)
        # a symbol constant in xi keeps one zeta column: its coefficients are shared
        qhat = np.broadcast_to(_x_coefficients(vals, N), (N, zeta.size))  # [m mod N, q]
        block = np.zeros((N, N), dtype=complex)
        for r, nodes, cols, m, weights in bands:
            block[r, cols] = np.einsum("cq,cq->c", qhat[m, nodes], weights)
        for bi, bj in places:
            out[bi * N : (bi + 1) * N, bj * N : (bj + 1) * N] = block
    return out


FRIEDRICHS_PPU = 66


def friedrichs_part(entries, t, grid):
    """Quantized Friedrichs part of a matrix symbol.

    entries is a square nested list of symbol expressions.  The zeta
    integral uses one composite Gauss-Legendre rule with FRIEDRICHS_PPU
    points per unit interval over the union of window supports.  No
    refinement loop is needed: the rule's weights are positive, so a
    symbol that is PSD at the sample points gives a positivity defect
    max(0, -min eig) of 0 at every rule size, and a defect-driven loop
    would never refine.  Tests pin the rule against one twice as fine.
    """
    mat = _friedrichs_matrix(entries, t, grid, default_bump(), FRIEDRICHS_PPU)
    return BlockOp(mat, blocks=len(entries))


# ---------------------------------------------------------------------------
# residuals and lower-bound checks

def top_eigenvalue(op, n):
    """Largest eigenvalue of a Hermitian positive semidefinite operator v -> op(v) on C^n.

    Lanczos with full reorthogonalization from a fixed start vector (Golub &
    Van Loan §10.1).  It stops when the top Ritz value moves by less than
    1e-12 relative, on breakdown (the Krylov space is invariant, so its Ritz
    values are eigenvalues), and after n steps at the latest.  Like any
    single-vector Krylov method it cannot split a close top pair in a few
    steps: when the upper eigenvector is nearly orthogonal to the start
    vector, it can stop near the lower eigenvalue.
    """
    v = np.ones(n, dtype=complex) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    Q = np.empty((min(n, 8), n), dtype=complex)  # Lanczos vectors as rows, doubled when full
    alpha, beta = np.zeros(n), np.zeros(n)
    top = 0.0
    for k in range(n):
        if k == len(Q):
            Q = np.concatenate([Q, np.empty((min(k, n - k), n), dtype=complex)])
        Q[k] = v
        w = op(v)
        alpha[k] = np.vdot(v, w).real
        for _ in range(2):  # Gram-Schmidt twice against every earlier vector
            w = w - Q[: k + 1].T @ (Q[: k + 1].conj() @ w)
        beta[k] = np.linalg.norm(w)
        T = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        prev, top = top, float(np.linalg.eigvalsh(T)[-1])
        if beta[k] <= 1e-12 * abs(top) or (k and top - prev <= 1e-12 * top):
            break
        v = w / beta[k]
    return top


def operator_norm(m):
    """Largest singular value of an array: sqrt of the top eigenvalue of M^H M, by Lanczos."""
    gram = lambda v: ((m @ v).conj() @ m).conj()  # M^H M v without forming M^H
    return math.sqrt(max(top_eigenvalue(gram, m.shape[1]), 0.0))


def sgarding_residual(entries, t, K_list, period=2.0 * math.pi):
    """Norms of (Q_F - Op^w(Q)) jp across truncation sizes.

    The residual is order -1, so composing with the weight jp should stay
    bounded as K grows.  Returns {K: norm}.
    """
    out = {}
    for K in K_list:
        grid = FourierGrid(K, period)
        qf = friedrichs_part(entries, t, grid)
        qw = block_weyl(entries, t, grid)
        resid = (qf.matrix - qw.matrix) * np.tile(grid.jp_values, qf.blocks)
        out[K] = operator_norm(resid)
    return out


@dataclass(frozen=True)
class FpCheckResult:
    min_eig: float
    scale: float
    feasible: bool


# feasibility slack of fp_check and fp_search alike: min eig >= -FP_TOL scale
FP_TOL = 1e-8


def _fp_layouts(model, grid):
    """The Op(S) and J = blockdiag(1, 1, Op(a)) layouts of fp_check and fp_search, over one
    TaylorOps: both are exactly Hermitian."""
    ops = TaylorOps(model, grid)
    return herm_S_layout(ops), Layout(ops, ("a",), J_entries)


def fp_check(model, t, grid, delta, C):
    """Sharp lower bound test: Herm(Op(S)) - delta t J_op + C t^-1 jp^-2 >= -FP_TOL scale."""
    return _fp_check(*_fp_layouts(model, grid), t, delta, C)


def _fp_check(S, J, t, delta, C):
    """fp_check on the layouts of _fp_layouts, which a caller checking a t grid builds once."""
    if not t > 0:
        raise ValueError("fp_check needs t > 0")
    for name, value in (("delta", delta), ("C", C)):
        if not math.isfinite(value):
            raise ValueError(f"fp_check needs a finite {name}, got {value}")
    return _fp_eval(S(t), J(t), np.tile(S.ops.grid.jp_values**-2.0, 3), t, delta, C)


def _fp_eval(H_S, M_J, p, t, delta, C):
    """fp_check's test of H = H_S - delta t M_J + (C/t) diag(p), H_S and M_J Hermitian."""
    H = H_S - delta * t * M_J
    H[np.diag_indices(len(H))] += (C / t) * p
    eigs = np.linalg.eigvalsh(H)
    scale = 1.0 + float(np.max(np.abs(eigs)))
    min_eig = float(eigs[0])
    return FpCheckResult(min_eig=min_eig, scale=scale, feasible=bool(min_eig >= -FP_TOL * scale))


def c_star(G, t, floor):
    """C* = -t lambda_min(G) of a Hermitian G, or None when Cholesky proves C* < floor.

    G + (floor/t) I > 0 exactly when C* < floor, and a Cholesky factorization
    that succeeds certifies it without an eigensolve (Golub & Van Loan §4.2).
    For G = <D>(Herm Op(S) - delta t M_J)<D>, C* is the least C with
    Herm Op(S) - delta t M_J + (C/t) <D>^-2 >= 0.
    """
    shifted = G.copy()
    shifted[np.diag_indices(len(G))] += floor / t
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return -t * float(np.linalg.eigvalsh(G)[0])
    return None


@dataclass(frozen=True)
class FpSearchResult:
    feasible_pairs: tuple
    best: tuple | None
    deltas: tuple
    Cs: tuple


def fp_search(model, t_values, grid, deltas=None, Cs=None):
    """Search the (delta, C) log-grids for pairs feasible at every t.

    deltas default to 2^-7..2^0, Cs to 2^0..2^14.  best is the feasible
    pair with the largest delta, then the smallest C.

    Closed form: P = diag(jp^-2) is positive, so by congruence H(C) = H_S -
    delta t M_J + (C/t) P >= 0 exactly when C >= C* = -t lambda_min(G),
    G = P^(-1/2) (H_S - delta t M_J) P^(-1/2).  Feasibility is monotone in C
    (P >= 0), so a delta's row stays feasible from its smallest grid value
    C_min on, and a (t, delta) can only change the row when C* >= C_min.
    c_star certifies C* < C_min by Cholesky or else gives C*, which settles
    every grid C >= C*; a row with nothing feasible left needs neither.
    Smaller grid values can still pass within the -FP_TOL scale slack; they
    get fp_check's exact test, largest first, and the scan stops at the
    first infeasible one.  H_S and M_J come from the Op(S) and J layouts,
    quantized once per call, and P and its scaling are formed once.
    """
    if deltas is None:
        deltas = [2.0**p for p in range(-7, 1)]
    if Cs is None:
        Cs = [2.0**p for p in range(0, 15)]
    if len(t_values) == 0:
        raise ValueError("fp_search needs at least one t value")
    ok = np.ones((len(deltas), len(Cs)), dtype=bool)
    c_grid = np.asarray(Cs, dtype=float)
    descending = np.argsort(-c_grid, kind="stable")
    S, J = _fp_layouts(model, grid)
    p = np.tile(grid.jp_values**-2.0, 3)  # P's diagonal
    rr = np.outer(p**-0.5, p**-0.5)
    for t in t_values:
        H_S, M_J = S(t), J(t)
        for i, d in enumerate(deltas):
            if not ok[i].any():
                continue
            cs = c_star(rr * (H_S - d * t * M_J), t, np.min(c_grid[ok[i]]))
            if cs is None:
                continue  # C* < C_min: no grid value of this row changes at t
            for j in descending[(c_grid[descending] < cs) & ok[i, descending]]:
                if not _fp_eval(H_S, M_J, p, t, d, Cs[j]).feasible:
                    ok[i, c_grid <= c_grid[j]] = False
                    break
    pairs = [(deltas[i], Cs[j]) for i in range(len(deltas)) for j in range(len(Cs)) if ok[i, j]]
    best = None
    if pairs:
        best = max(pairs, key=lambda dc: (dc[0], -dc[1]))
    return FpSearchResult(
        feasible_pairs=tuple(pairs),
        best=best,
        deltas=tuple(deltas),
        Cs=tuple(Cs),
    )
