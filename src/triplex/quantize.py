"""Quantization of (x, xi) symbols on a Fourier-truncated torus.

Functions live in the span of e^(i k w0 x), |k| <= K, w0 = 2 pi / period,
represented by their coefficient vectors.  Operators are dense complex
matrices in that basis.

op_weyl uses midpoint frequencies: M[k, k'] = qhat(k - k'; w0 (k + k')/2)
where qhat(m; xi) is the m-th x-Fourier coefficient of q(., xi).  The
half-integer midpoint makes real symbols exactly Hermitian.  Coefficients
are computed by trapezoid quadrature on 2N nodes so that every needed
difference frequency |k - k'| <= 2K is resolved without aliasing.

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
from dataclasses import dataclass, field

import numpy as np

from .symbols import Expr, Const

__all__ = [
    "FourierGrid",
    "LinOp",
    "BlockOp",
    "op_weyl",
    "op_multiplier",
    "op_jp",
    "op_jp_inv2",
    "block_weyl",
    "block_diag",
    "Bump",
    "default_bump",
    "friedrichs_part",
    "sgarding_residual",
    "fp_check",
    "fp_search",
    "operator_norm",
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

    def values(self, coeffs):
        """Node values of a coefficient vector (inverse of coefficients)."""
        return np.fft.ifft(np.roll(np.asarray(coeffs), -self.K)) * self.N


@dataclass
class LinOp:
    matrix: np.ndarray
    grid: FourierGrid
    hermitian: bool = False

    def __matmul__(self, other):
        if isinstance(other, LinOp):
            return LinOp(self.matrix @ other.matrix, self.grid)
        return self.matrix @ other

    def hermitian_part(self):
        return LinOp(0.5 * (self.matrix + self.matrix.conj().T), self.grid, hermitian=True)

    def min_eig(self):
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])


@dataclass
class BlockOp:
    """Dense operator on b stacked coefficient vectors."""

    matrix: np.ndarray
    grid: FourierGrid
    blocks: int = 3

    @staticmethod
    def from_blocks(rows, grid):
        b = len(rows)
        N = grid.N
        out = np.zeros((b * N, b * N), dtype=complex)
        for i, row in enumerate(rows):
            for j, blk in enumerate(row):
                if blk is None:
                    continue
                m = blk.matrix if isinstance(blk, LinOp) else blk
                out[i * N : (i + 1) * N, j * N : (j + 1) * N] = m
        return BlockOp(out, grid, blocks=b)

    def hermitian_part(self):
        return BlockOp(0.5 * (self.matrix + self.matrix.conj().T), self.grid, self.blocks)

    def min_eig(self):
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])


def _eval_field(expr, t, x_col, xi_row, shape):
    vals = expr.evaluate(t, x_col, xi_row)
    return np.broadcast_to(np.asarray(vals, dtype=float), shape)


def _weyl_index_arrays(grid):
    N = grid.N
    nq = 2 * N
    i = np.arange(N)
    midx = (i[:, None] - i[None, :]) % nq
    sidx = i[:, None] + i[None, :]
    return midx, sidx


def op_weyl(expr, t, grid):
    """Midpoint (Weyl) quantization of a symbol expression at time t."""
    N = grid.N
    nq = 2 * N
    xq = grid.period * np.arange(nq) / nq
    mid_freqs = (np.arange(4 * grid.K + 1) - 2 * grid.K) * grid.base_freq / 2.0
    vals = _eval_field(expr, t, xq[:, None], mid_freqs[None, :], (nq, mid_freqs.size))
    coef = np.fft.fft(vals, axis=0) / nq
    midx, sidx = _weyl_index_arrays(grid)
    return LinOp(coef[midx, sidx], grid, hermitian=True)


def op_multiplier(diag_values, grid):
    return LinOp(np.diag(np.asarray(diag_values, dtype=complex)), grid, hermitian=True)


def op_jp(grid):
    return op_multiplier(grid.jp_values, grid)


def op_jp_inv2(grid):
    return op_multiplier(grid.jp_values**-2.0, grid)


def block_weyl(entries, t, grid):
    """Blockwise op_weyl of a matrix of symbol expressions."""
    cache = {}

    def one(expr):
        if expr not in cache:
            cache[expr] = op_weyl(expr, t, grid)
        return cache[expr]

    rows = [[one(e) for e in row] for row in entries]
    return BlockOp.from_blocks(rows, grid)


def block_diag(mats, grid):
    return BlockOp.from_blocks(
        [[mats[i] if i == j else None for j in range(len(mats))] for i in range(len(mats))], grid
    )


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
def _zeta_rule(grid, points_per_unit):
    """Composite Gauss-Legendre rule covering the union of window supports."""
    freqs = grid.freqs
    lo = float(np.min(freqs - np.sqrt(grid.jp_values)))
    hi = float(np.max(freqs + np.sqrt(grid.jp_values)))
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
    zeta, w = _zeta_rule(grid, points_per_unit)
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
            if not (isinstance(expr, Const) and expr.value == 0.0):
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


def friedrichs_part(entries, t, grid, bump=None, points_per_unit=33, adaptive=True,
                    defect_tol=1e-9, max_doublings=3):
    """Quantized Friedrichs part of a (possibly matrix) symbol.

    entries is a nested list of symbol expressions, square.  The zeta
    integral uses a composite Gauss-Legendre rule with points_per_unit
    points per unit interval over the union of window supports; with
    adaptive=True the rule is doubled until the positivity defect
    max(0, -min eig) changes by less than defect_tol (absolute, on the
    Hermitian part).
    """
    if bump is None:
        bump = default_bump()
    norm_sq = bump.l2_norm_sq()
    if abs(norm_sq - 1.0) > 1e-8:
        raise ValueError(f"bump is not L^2-normalized: int q^2 = {norm_sq:.12f}")
    if isinstance(entries, Expr):
        entries = [[entries]]
    b = len(entries)

    mat = _friedrichs_matrix(entries, t, grid, bump, points_per_unit)
    if adaptive:
        herm = 0.5 * (mat + mat.conj().T)
        defect = max(0.0, -float(np.linalg.eigvalsh(herm)[0]))
        ppu = points_per_unit
        for _ in range(max_doublings):
            ppu *= 2
            mat2 = _friedrichs_matrix(entries, t, grid, bump, ppu)
            herm2 = 0.5 * (mat2 + mat2.conj().T)
            defect2 = max(0.0, -float(np.linalg.eigvalsh(herm2)[0]))
            converged = abs(defect2 - defect) < defect_tol
            mat, defect = mat2, defect2
            if converged:
                break
    return BlockOp(mat, grid, blocks=b)


# ---------------------------------------------------------------------------
# residuals and lower-bound checks

def operator_norm(matrix, tol=1e-8, max_iter=10000):
    """Largest singular value by power iteration on M^H M.

    Deterministic start vector; tol is relative on the Rayleigh estimate.
    """
    m = matrix.matrix if isinstance(matrix, (LinOp, BlockOp)) else np.asarray(matrix)
    n = m.shape[1]
    v = np.ones(n, dtype=complex) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = m @ v
        new_sigma = np.linalg.norm(w)
        if new_sigma == 0.0:
            return 0.0
        v = m.conj().T @ w
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return float(new_sigma)
        v /= nv
        if abs(new_sigma - sigma) <= tol * new_sigma:
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)


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
        jp_block = block_diag([op_jp(grid)] * qf.blocks, grid)
        resid = (qf.matrix - qw.matrix) @ jp_block.matrix
        out[K] = operator_norm(resid)
    return out


@dataclass(frozen=True)
class FpCheckResult:
    delta: float
    C: float
    min_eig: float
    scale: float
    feasible: bool


def _fp_pieces(model, t, grid):
    from .models import HyperbolicModel  # noqa: F401  (documents the expected type)

    a = model.a_expr
    b = model.b
    s_entries = [
        [Const(3.0), Const(0.0), -a],
        [Const(0.0), Const(2.0) * a, Const(3.0) * b],
        [-a, Const(3.0) * b, a * a],
    ]
    H_S = block_weyl(s_entries, t, grid).hermitian_part().matrix
    op_a = op_weyl(a, t, grid)
    H_a = 0.5 * (op_a.matrix + op_a.matrix.conj().T)
    eye = np.eye(grid.N)
    M_J = block_diag([LinOp(eye, grid), LinOp(eye, grid), LinOp(H_a, grid)], grid).matrix
    P = block_diag([op_jp_inv2(grid)] * 3, grid).matrix
    return H_S, M_J, P


def fp_check(model, t, grid, delta, C, tol=1e-8):
    """Sharp lower bound test: Herm(Op(S)) - delta t J_op + C t^-1 jp^-2 >= -tol scale."""
    if not t > 0:
        raise ValueError("fp_check needs t > 0")
    H_S, M_J, P = _fp_pieces(model, t, grid)
    return _fp_eval(H_S, M_J, P, t, delta, C, tol)


def _fp_eval(H_S, M_J, P, t, delta, C, tol):
    H = H_S - delta * t * M_J + (C / t) * P
    eigs = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    scale = 1.0 + float(np.max(np.abs(eigs)))
    min_eig = float(eigs[0])
    return FpCheckResult(delta=float(delta), C=float(C), min_eig=min_eig, scale=scale,
                         feasible=bool(min_eig >= -tol * scale))


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
    """
    if deltas is None:
        deltas = [2.0**p for p in range(-7, 1)]
    if Cs is None:
        Cs = [2.0**p for p in range(0, 15)]
    if len(t_values) == 0:
        raise ValueError("fp_search needs at least one t value")
    ok = np.ones((len(deltas), len(Cs)), dtype=bool)
    for t in t_values:
        H_S, M_J, P = _fp_pieces(model, t, grid)
        for i, d in enumerate(deltas):
            for j, c in enumerate(Cs):
                if ok[i, j]:
                    ok[i, j] = _fp_eval(H_S, M_J, P, t, d, c, tol).feasible
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
