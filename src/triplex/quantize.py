"""Quantization of (x, xi) symbols on a Fourier-truncated torus.

Functions live in the span of e^(i k w0 x), |k| <= K, w0 = 2 pi / period,
represented by their coefficient vectors.  Operators are dense complex
matrices in that basis.

op_weyl uses midpoint frequencies: M[k, k'] = qhat(k - k'; w0 (k + k')/2)
where qhat(m; xi) is the m-th x-Fourier coefficient of q(., xi).  The
half-integer midpoint makes real symbols exactly Hermitian.  Coefficients
are computed by trapezoid quadrature on 2N nodes so that every needed
difference frequency |k - k'| <= 2K is resolved without aliasing.

TaylorOps quantizes a model's symbols once, as Taylor stacks in t with
Op(t) = sum_i t^i C_i.  A Layout is an operator affine in them (a symbol,
Herm Op(S), the generator's first block row) and alone chooses between a
Taylor stack and quantizing at each t.  c_star is the Fefferman-Phong
constant C* = -t lambda_min(G), or a Cholesky certificate that it lies
below a floor; fp_search and the energy shift both use it.

friedrichs_part builds the symmetrized positive part

    p_F(eta, y, xi) = int F(eta, zeta) p(y, zeta) F(xi, zeta) dzeta,
    F(xi, zeta) = q((zeta - xi) jp(xi)^(-1/2)) jp(xi)^(-1/4),

quantized as M[k, k'] = (1/N) sum_j e^(-i x_j (k - k') w0) p_F(k, x_j, k').
Because the zeta quadrature has positive weights, the result is positive
semidefinite whenever the symbol matrix is PSD at the sample points.

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

from .symbols import Expr, Const, differentiate
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

    def coefficients(self, expr_or_values, t=0.0):
        """Fourier coefficients (modes -K..K) of a function of x."""
        if isinstance(expr_or_values, Expr):
            vals = np.broadcast_to(
                np.asarray(expr_or_values.evaluate(t, self.nodes, 0.0), dtype=float), (self.N,)
            )
        else:
            vals = np.asarray(expr_or_values)
        coef = np.fft.fft(vals) / self.N
        return np.roll(coef, self.K)  # index 0 -> mode -K


@dataclass
class BlockOp:
    """Dense operator on b stacked coefficient vectors."""

    matrix: np.ndarray
    grid: FourierGrid
    blocks: int = 3

    @staticmethod
    def from_blocks(rows, grid):
        """Lay out a square nested list of N x N blocks.

        A block may be an N x N matrix, a length-N vector (its diagonal
        matrix) or a scalar c (c times the identity); None and the scalar 0
        leave the block empty.
        """
        b = len(rows)
        N = grid.N
        out = np.zeros((b * N, b * N), dtype=complex)
        flat = out.reshape(-1)
        for i, row in enumerate(rows):
            for j, blk in enumerate(row):
                if isinstance(blk, np.ndarray) and blk.ndim == 2:
                    out[i * N : (i + 1) * N, j * N : (j + 1) * N] = blk
                elif blk is not None and (isinstance(blk, np.ndarray) or blk != 0):
                    # the block's diagonal: every (b N + 1)-th entry from its corner
                    corner = (i * b * N + j) * N
                    flat[corner : corner + N * (b * N + 1) : b * N + 1] = blk
        return BlockOp(out, grid, blocks=b)

    def min_eig(self):
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])


def op_weyl(expr, t, grid):
    """Midpoint (Weyl) quantization of a symbol expression at time t, as an N x N matrix."""
    N = grid.N
    nq = 2 * N
    xq = grid.period * np.arange(nq) / nq
    mid_freqs = (np.arange(4 * grid.K + 1) - 2 * grid.K) * grid.base_freq / 2.0
    vals = np.asarray(expr.evaluate(t, xq[:, None], mid_freqs[None, :]), dtype=float)
    coef = np.fft.fft(np.broadcast_to(vals, (nq, mid_freqs.size)), axis=0) / nq
    i = np.arange(N)
    return coef[(i[:, None] - i[None, :]) % nq, i[:, None] + i[None, :]]


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

def is_zero(expr):
    """True for a symbol that is literally the constant 0 (its block is skipped)."""
    return isinstance(expr, Const) and expr.value == 0.0


def _t_taylor(expr, cap=6):
    """Taylor coefficient expressions in t, or None when not a polynomial of degree <= cap."""
    terms = [expr]
    while not is_zero(terms[-1]):
        if len(terms) > cap + 1:
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


def _taylor_stack(coeffs):
    """Read-only [C_0; ...; C_p] of equal-shape Taylor coefficients."""
    out = np.concatenate(coeffs)
    out.flags.writeable = False
    return out


class TaylorOps:
    """Taylor stacks in t of a model's symbols, and Op(symbol)(t) from them.

    The symbols are a, b and a2 = a^2 of the model, plus b10, b11 and b12
    of lot when given.  A symbol polynomial in t (the whole gallery)
    quantizes once, on first use, into the stack [C_0; ...; C_p] with
    Op(t) = sum_i t^i C_i.  A symbol that is not polynomial in t, or whose
    degree exceeds 6, has no stack.
    """

    def __init__(self, model, grid, lot=None):
        self.grid = grid
        a = model.a_expr
        self.symbols = {"a": a, "b": model.b, "a2": a * a}
        if lot is not None:
            self.symbols.update(b10=lot.b10, b11=lot.b11, b12=lot.b12)
        self._stacks = {}

    def stack(self, name):
        """Taylor stack of Op(symbol), quantized on first use; None when not polynomial in t."""
        if name not in self._stacks:
            terms = _t_taylor(self.symbols[name])
            self._stacks[name] = None if terms is None else _taylor_stack(
                [op_weyl(d, 0.0, self.grid) / math.factorial(i) for i, d in enumerate(terms)])
        return self._stacks[name]

    def op(self, name, t, V=None):
        """Op(symbol)(t), or Op(symbol)(t) @ V without forming the matrix."""
        return Layout(self, (name,), None)(t, V)


class Layout:
    """F(t) = fn(Op(s_1)(t), ..., Op(s_n)(t)) for fn affine in the named symbols of ops.

    fn None stands for the one symbol itself.  When every symbol has a
    stack, F(t) = sum_i t^i F_i with F_0 = fn(C_0) and F_i = fn(C_i) - fn(0)
    from the symbols' t^i coefficients C_i; [F_0; ...; F_p] is built on
    first use, and F(t) @ V is one matmul and a Horner sum.  Otherwise F is
    built from the symbols quantized at t, kept for the last two times (an
    RK4 step asks for t + h/2 twice).  No other code makes this choice.
    Callers own their layouts, ops holds none: no stack outlives its user.
    """

    def __init__(self, ops, names, fn):
        self.ops = ops
        self.names = names
        self.fn = fn
        self._rows = ops.grid.N  # F's row count: N for one symbol; stack sets it for fn's F
        self._recent = {}

    @functools.cached_property
    def stack(self):
        """[F_0; ...; F_p], built on first use; None when a symbol is not polynomial in t."""
        stacks = [self.ops.stack(name) for name in self.names]
        if self.fn is None:
            return stacks[0]
        if any(stack is None for stack in stacks):
            return None
        N = self.ops.grid.N
        zero = np.zeros((N, N))
        terms = [self.fn(*(stack[i * N : (i + 1) * N] if (i + 1) * N <= len(stack) else zero
                           for stack in stacks))
                 for i in range(max(len(stack) for stack in stacks) // N)]
        const = self.fn(*(zero for _ in self.names))  # fn(0), not kept: it is as large as F
        for term in terms[1:]:
            term -= const  # in place: no copy of the stack's size
        self._rows = len(terms[0])
        return _taylor_stack(terms)

    def _at(self, t):
        key = float(t)
        if key not in self._recent:
            if len(self._recent) == 2:
                self._recent.pop(next(iter(self._recent)))
            self._recent[key] = (
                op_weyl(self.ops.symbols[self.names[0]], t, self.ops.grid) if self.fn is None
                else self.fn(*(self.ops.op(name, t) for name in self.names)))
        return self._recent[key]

    def __call__(self, t, V=None):
        """F(t), or F(t) @ V without forming the matrix when there is a stack."""
        W = self.stack
        if W is None:
            return self._at(t) if V is None else self._at(t) @ V
        return _horner(t, W if V is None else W @ V, self._rows)

    def rate(self, t, V):
        """(F(t) @ V, F'(t) @ V): the Horner sum's t-derivative, or without a stack
        fn(Op(s_1')(t), ...) - fn(0) from the symbols' t-derivatives quantized at t."""
        W = self.stack
        if W is None:
            derivatives, fn_at_zero = self._rate_parts
            rates = (op_weyl(d, t, self.ops.grid) for d in derivatives)
            return self._at(t) @ V, (self.fn(*rates) - fn_at_zero) @ V
        return _horner_with_rate(t, W @ V, self._rows)

    @functools.cached_property
    def _rate_parts(self):
        """The symbols' t-derivatives and fn(0), for rates without a stack."""
        zero = np.zeros((self.ops.grid.N,) * 2)
        return ([differentiate(self.ops.symbols[name], "t", 1) for name in self.names],
                self.fn(*(zero for _ in self.names)))


def herm_S_layout(ops):
    """Herm Op(S)(t) as a Layout over the a, b and a2 of ops."""
    def herm_S(a, b, a2):
        S = BlockOp.from_blocks(S_entries(a, b, a2), ops.grid).matrix
        return 0.5 * (S + S.conj().T)
    return Layout(ops, ("a", "b", "a2"), herm_S)


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


@functools.lru_cache(maxsize=None)
def _gauss_legendre_unit():
    """400-point rule on [-1, 1] for normalization integrals, computed once."""
    return _read_only(*np.polynomial.legendre.leggauss(400))


@dataclass(frozen=True)
class Bump:
    """Even C^infinity window on (-support, support) with unit L^2 norm."""

    fn: object
    support: float = 1.0

    def l2_norm_sq(self):
        nodes, weights = _gauss_legendre_unit()
        v = self.fn(nodes * self.support) ** 2
        return float(np.sum(weights * v) * self.support)


_DEFAULT_BUMP = None


def default_bump():
    """c exp(-1/(1 - sigma^2)) on |sigma| < 1, normalized to unit L^2 norm."""
    global _DEFAULT_BUMP
    if _DEFAULT_BUMP is None:
        nodes, weights = _gauss_legendre_unit()
        norm_sq = float(np.sum(weights * _bump_raw(nodes) ** 2))
        c = 1.0 / math.sqrt(norm_sq)
        _DEFAULT_BUMP = Bump(fn=lambda s, c=c: c * _bump_raw(s))
    return _DEFAULT_BUMP


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
        vals = np.broadcast_to(vals, np.broadcast_shapes(vals.shape, (N, 1)))
        qhat = np.broadcast_to(np.fft.fft(vals, axis=0) / N, (N, zeta.size))  # [m mod N, q]
        block = np.zeros((N, N), dtype=complex)
        for r, nodes, cols, m, weights in bands:
            block[r, cols] = np.einsum("cq,cq->c", qhat[m, nodes], weights)
        for bi, bj in places:
            out[bi * N : (bi + 1) * N, bj * N : (bj + 1) * N] = block
    return out


FRIEDRICHS_PPU = 33
FRIEDRICHS_DEFECT_TOL = 1e-9
FRIEDRICHS_DOUBLINGS = 3


def friedrichs_part(entries, t, grid, bump=None):
    """Quantized Friedrichs part of a (possibly matrix) symbol.

    entries is a nested list of symbol expressions, square.  The zeta
    integral uses a composite Gauss-Legendre rule with FRIEDRICHS_PPU points
    per unit interval over the union of window supports.  The rule is
    doubled until the positivity defect max(0, -min eig) changes by less
    than FRIEDRICHS_DEFECT_TOL (absolute, on the Hermitian part), at most
    FRIEDRICHS_DOUBLINGS times.
    """
    if bump is None:
        bump = default_bump()
    norm_sq = bump.l2_norm_sq()
    if abs(norm_sq - 1.0) > 1e-8:
        raise ValueError(f"bump is not L^2-normalized: int q^2 = {norm_sq:.12f}")
    if isinstance(entries, Expr):
        entries = [[entries]]
    b = len(entries)

    ppu = FRIEDRICHS_PPU
    mat = _friedrichs_matrix(entries, t, grid, bump, ppu)
    defect = max(0.0, -float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0]))
    for _ in range(FRIEDRICHS_DOUBLINGS):
        ppu *= 2
        mat2 = _friedrichs_matrix(entries, t, grid, bump, ppu)
        defect2 = max(0.0, -float(np.linalg.eigvalsh(0.5 * (mat2 + mat2.conj().T))[0]))
        converged = abs(defect2 - defect) < FRIEDRICHS_DEFECT_TOL
        mat, defect = mat2, defect2
        if converged:
            break
    return BlockOp(mat, grid, blocks=b)


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
    Q = np.empty((n, n), dtype=complex)  # Lanczos vectors as rows; only the rows used are touched
    alpha, beta = np.zeros(n), np.zeros(n)
    top = 0.0
    for k in range(n):
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


def operator_norm(matrix):
    """Largest singular value: sqrt of the top eigenvalue of M^H M, by Lanczos."""
    m = matrix.matrix if isinstance(matrix, BlockOp) else np.asarray(matrix)
    gram = lambda v: ((m @ v).conj() @ m).conj()  # M^H M v without forming M^H
    return math.sqrt(max(top_eigenvalue(gram, m.shape[1]), 0.0))


def sgarding_residual(entries, t, K_list, period=2.0 * math.pi, bump=None):
    """Norms of (Q_F - Op^w(Q)) jp across truncation sizes.

    The residual is order -1, so composing with the weight jp should stay
    bounded as K grows.  Returns {K: norm}.
    """
    out = {}
    for K in K_list:
        grid = FourierGrid(K, period)
        qf = friedrichs_part(entries, t, grid, bump=bump)
        qw = block_weyl(entries, t, grid)
        resid = (qf.matrix - qw.matrix) * np.tile(grid.jp_values, qf.blocks)
        out[K] = operator_norm(resid)
    return out


@dataclass(frozen=True)
class FpCheckResult:
    delta: float
    C: float
    min_eig: float
    scale: float
    feasible: bool


def _fp_pieces(S, t):
    """Herm(Op(S)) from its layout S, J's block matrix with Herm(Op(a)), P = blockdiag(jp^-2)."""
    op_a = S.ops.op("a", t)
    M_J = BlockOp.from_blocks(J_entries(0.5 * (op_a + op_a.conj().T)), S.ops.grid).matrix
    P = np.diag(np.tile(S.ops.grid.jp_values**-2.0, 3))
    return S(t), M_J, P


def fp_check(model, t, grid, delta, C, tol=1e-8):
    """Sharp lower bound test: Herm(Op(S)) - delta t J_op + C t^-1 jp^-2 >= -tol scale."""
    if not t > 0:
        raise ValueError("fp_check needs t > 0")
    return _fp_eval(*_fp_pieces(herm_S_layout(TaylorOps(model, grid)), t), t, delta, C, tol)


def _fp_eval(H_S, M_J, P, t, delta, C, tol):
    H = H_S - delta * t * M_J + (C / t) * P
    eigs = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    scale = 1.0 + float(np.max(np.abs(eigs)))
    min_eig = float(eigs[0])
    return FpCheckResult(delta=float(delta), C=float(C), min_eig=min_eig, scale=scale,
                         feasible=bool(min_eig >= -tol * scale))


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
    t_values: tuple
    deltas: tuple
    Cs: tuple


def fp_search(model, t_values, grid, deltas=None, Cs=None, tol=1e-8):
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
    Smaller grid values can still pass within the -tol scale slack; they
    get fp_check's exact test, largest first, and the scan stops at the
    first infeasible one.  H_S and Op(a) come from Taylor stacks in t
    quantized once per call.
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
    S = herm_S_layout(TaylorOps(model, grid))
    for t in t_values:
        H_S, M_J, P = _fp_pieces(S, t)
        r = np.diag(P).real ** -0.5
        rr = np.outer(r, r)
        for i, d in enumerate(deltas):
            if not ok[i].any():
                continue
            cs = c_star(rr * (H_S - d * t * M_J), t, np.min(c_grid[ok[i]]))
            if cs is None:
                continue  # C* < C_min: no grid value of this row changes at t
            for j in descending[(c_grid[descending] < cs) & ok[i, descending]]:
                if not _fp_eval(H_S, M_J, P, t, d, Cs[j], tol).feasible:
                    ok[i, c_grid <= c_grid[j]] = False
                    break
    pairs = [(deltas[i], Cs[j]) for i in range(len(deltas)) for j in range(len(Cs)) if ok[i, j]]
    best = None
    if pairs:
        best = max(pairs, key=lambda dc: (dc[0], -dc[1]))
    return FpSearchResult(
        feasible_pairs=tuple(pairs),
        best=best,
        t_values=tuple(float(t) for t in t_values),
        deltas=tuple(deltas),
        Cs=tuple(Cs),
    )
