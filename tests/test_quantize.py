"""Weyl quantization, averaged-part positivity, sharp lower bounds."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex.acceptance import GALLERY
from triplex.evolution import Assembler, window_expr
from triplex.models import LowerOrderTerms, gallery
from triplex import quantize
from triplex.quantize import (
    BlockOp,
    Bump,
    FourierGrid,
    TaylorOps,
    default_bump,
    block_weyl,
    c_star,
    fp_check,
    fp_search,
    friedrichs_part,
    op_weyl,
    operator_norm,
    sgarding_residual,
)
from triplex.symbols import Const, Expr, T, X, XI, call, differentiate, parse_symbol
from triplex.symmetrizer import J_entries, S_symbols


def test_grid_mode_layout():
    grid = FourierGrid(4)
    assert grid.N == 9
    assert grid.modes.tolist() == list(range(-4, 5))
    assert grid.jp_values[4] == 1.0  # mode 0
    with pytest.raises(ValueError):
        FourierGrid(0)
    with pytest.raises(ValueError):
        FourierGrid(129)


def _coefficients(grid, expr_or_values):
    """Reference Fourier coefficients (modes -K..K, index 0 is mode -K) of a function of x,
    given as a symbol (at t = 0) or as its values at grid.nodes."""
    if isinstance(expr_or_values, Expr):
        vals = np.broadcast_to(
            np.asarray(expr_or_values.evaluate(0.0, grid.nodes, 0.0), dtype=float), (grid.N,))
    else:
        vals = np.asarray(expr_or_values)
    return np.roll(np.fft.fft(vals) / grid.N, grid.K)


def test_coefficients_invert_values():
    grid = FourierGrid(8)
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    values = np.fft.ifft(np.roll(coef, -grid.K)) * grid.N  # node values, mode -K first
    back = _coefficients(grid, values)
    assert np.allclose(back, coef, atol=1e-12)


def test_weyl_of_x_independent_symbol_is_diagonal():
    grid = FourierGrid(6)
    op = op_weyl(call("jp", XI), 0.3, grid)
    assert np.allclose(op, np.diag(grid.jp_values), atol=1e-12)
    inv2 = op_weyl(Const(1.0) / (Const(1.0) + XI * XI), 0.3, grid)
    assert np.allclose(inv2, np.diag(grid.jp_values**-2.0), atol=1e-12)


def test_weyl_of_pure_multiplication_matches_convolution():
    grid = FourierGrid(8)
    expr = Const(1.0) + Const(0.5) * call("cos", X)
    op = op_weyl(expr, 0.0, grid)
    # multiplication by cos x shifts modes by +-1 with weight 1/4
    u = np.zeros(grid.N)
    u[8] = 1.0  # mode 0
    out = op @ u
    assert out[8] == pytest.approx(1.0, abs=1e-12)
    assert out[7] == pytest.approx(0.25, abs=1e-12)
    assert out[9] == pytest.approx(0.25, abs=1e-12)
    # the finite section of the convolution by the Fourier coefficients agrees
    coef = _coefficients(grid, expr)
    conv = np.zeros((grid.N, grid.N), dtype=complex)
    for row in range(grid.N):
        for col in range(grid.N):
            shift = grid.modes[row] - grid.modes[col]
            if abs(shift) <= grid.K:
                conv[row, col] = coef[shift + grid.K]
    assert np.allclose(op, conv, atol=1e-10)


def test_weyl_of_real_symbol_is_hermitian():
    grid = FourierGrid(8)
    expr = parse_symbol("(1 - cos(x))^2") * call("jp", XI)
    mat = op_weyl(expr, 0.5, grid)
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12 * (1 + np.max(np.abs(mat)))


def test_weyl_midpoint_rule_for_mixed_symbol():
    # symbol cos(x) xi quantizes to matrix entries built at the mode midpoint
    grid = FourierGrid(6)
    mat = op_weyl(call("cos", X) * XI, 0.0, grid)
    w0 = grid.base_freq
    for row in range(grid.N):
        for col in range(grid.N):
            k_row, k_col = grid.modes[row], grid.modes[col]
            if abs(k_row - k_col) == 1:
                want = 0.5 * 0.5 * (k_row + k_col) * w0
                assert mat[row, col] == pytest.approx(want, abs=1e-12)
            else:
                assert abs(mat[row, col]) <= 1e-12


def _op_weyl_every_column(expr, t, grid):
    """Weyl quantization from all 4K + 1 midpoint columns: the symbol broadcast to full
    width, one real FFT over x with the negative frequencies its conjugate mirror, then the
    midpoint gather."""
    nq = 2 * grid.N
    xq = grid.period * np.arange(nq) / nq
    mid_freqs = (np.arange(4 * grid.K + 1) - 2 * grid.K) * grid.base_freq / 2.0
    vals = np.asarray(expr.evaluate(t, xq[:, None], mid_freqs[None, :]), dtype=float)
    half = np.fft.rfft(np.broadcast_to(vals, (nq, mid_freqs.size)), axis=0) / nq
    coef = np.concatenate([half, half[-2:0:-1].conj()])  # nq is even: half has nq/2 + 1 rows
    i = np.arange(grid.N)
    return coef[(i[:, None] - i[None, :]) % nq, i[:, None] + i[None, :]]


def _fft_widths(monkeypatch):
    """Record the number of columns each np.fft.rfft call transforms."""
    widths, rfft = [], np.fft.rfft

    def recording(a, *args, **kwargs):
        widths.append(1 if np.ndim(a) < 2 else np.shape(a)[1])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording)
    return widths


_XI_FREE = tuple(e for name in GALLERY for m in [gallery(name)]
                 for e in (m.a_expr, m.b, m.a_expr * m.a_expr)) + tuple(
    e for seed in (0, 707) for lot in [LowerOrderTerms.random_trig(seed)]
    for e in (lot.b10, lot.b11, lot.b12)) + (Const(2.5),)


@pytest.mark.parametrize("K", (8, 64, 128))
@pytest.mark.parametrize("t", (0.0, 0.37))
def test_op_weyl_is_bit_identical_to_every_midpoint_column(K, t, monkeypatch):
    # a symbol constant in xi takes one FFT column and its Toeplitz gather; the bits are
    # those of the full-width transform.  Const evaluates to a scalar.  The x-Fourier
    # coefficients are conjugate symmetric, so every matrix is exactly Hermitian.
    grid = FourierGrid(K)
    xi_dependent = (call("jp", XI), call("cos", X) * XI)  # these keep every midpoint column
    for expr, width in [(e, 1) for e in _XI_FREE] + [(e, 4 * K + 1) for e in xi_dependent]:
        want = _op_weyl_every_column(expr, t, grid)
        widths = _fft_widths(monkeypatch)
        got = op_weyl(expr, t, grid)
        monkeypatch.undo()
        assert np.array_equal(got, want), str(expr)
        assert np.array_equal(got, got.conj().T), str(expr)
        assert widths == [width], str(expr)


def test_taylor_stacks_take_no_full_width_fft(monkeypatch):
    # every symbol R's K = 128 Taylor stack quantizes is free of xi: one FFT column each
    asm = Assembler(gallery("g_E"), LowerOrderTerms.random_trig(707), FourierGrid(128))
    widths = _fft_widths(monkeypatch)
    assert asm.R.stack is not None
    assert widths and max(widths) == 1


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(1)
    for n in (5, 17):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-10)


def _sample_matrix(kind, n, seed):
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "square":
        return draw(n, n)
    if kind == "wide":  # the N x 3N shape of a generator's first block row
        return draw(n, 3 * n)
    if kind == "rank1":
        return np.outer(draw(n), draw(2 * n).conj())
    if kind == "scalar":
        return draw(1, 1)
    return np.zeros((n, 3 * n))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["square", "wide", "rank1", "scalar", "zero"]),
       n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-8, 1.0, 1e8]))
def test_operator_norm_is_the_largest_singular_value(kind, n, seed, scale):
    m = scale * _sample_matrix(kind, n, seed)
    want = np.linalg.norm(m, 2)
    got = operator_norm(m)
    if want == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-10)
    assert operator_norm(m.real) == pytest.approx(np.linalg.norm(m.real, 2), rel=1e-10, abs=0.0)


def test_block_weyl_layout():
    grid = FourierGrid(4)
    entries = [[Const(1.0), Const(0.0)], [Const(0.0), Const(2.0)]]
    blk = block_weyl(entries, 0.0, grid)
    N = grid.N
    assert blk.matrix.shape == (2 * N, 2 * N)
    assert np.allclose(blk.matrix[:N, :N], np.eye(N))
    assert np.allclose(blk.matrix[N:, N:], 2 * np.eye(N))


def _l2_norm_sq(bump):
    """int q^2 over the bump's support, by a 400-point Gauss-Legendre rule."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    return float(np.sum(weights * bump.fn(nodes * bump.support) ** 2) * bump.support)


def test_bump_is_normalized_and_supported():
    bump = default_bump()
    assert default_bump() is bump
    assert _l2_norm_sq(bump) == pytest.approx(1.0, abs=1e-10)
    sig = np.array([-1.5, 0.0, 1.5])
    vals = bump.fn(sig)
    assert vals[0] == 0.0 and vals[2] == 0.0
    assert vals[1] > 0.0


def test_friedrichs_part_of_nonnegative_scalar_is_psd():
    grid = FourierGrid(8)
    sym = parse_symbol("(1 - cos(x))^2")  # vanishes to second order at 0
    q = friedrichs_part([[sym]], 0.5, grid)
    herm = 0.5 * (q.matrix + q.matrix.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    assert eigs[0] >= -1e-10 * (1.0 + eigs[-1])


def test_friedrichs_part_of_positive_constant_stays_near_it():
    grid = FourierGrid(6)
    q = friedrichs_part([[Const(2.0)]], 0.5, grid)
    eigs = np.linalg.eigvalsh(0.5 * (q.matrix + q.matrix.conj().T))
    assert eigs[0] >= 1.0  # averaging a constant keeps a positive floor


def test_sgarding_residual_stays_bounded_as_K_grows():
    model = gallery("g_zero_b")
    entries = [[model.a_expr]]
    res = sgarding_residual(entries, 0.5, K_list=(8, 16, 32))
    vals = [res[k] for k in (8, 16, 32)]
    assert all(np.isfinite(v) for v in vals)
    assert max(vals) <= 4.0 * max(vals[0], 1e-12) + 10.0


@pytest.mark.parametrize("name, params, has_stack", [("g_E", {}, True), ("g_ex22", {"m": 8}, False)])
def test_taylor_ops_op_matches_weyl_quantization_at_t(name, params, has_stack):
    # g_E's b is linear in t: a Taylor stack; g_ex22's b at m = 8 exceeds the cap of 6.
    # b11 = xi sin(x) + t has a stack of an N x N C_0 (it depends on xi) and a column C_1.
    model = gallery(name, **params)
    grid = FourierGrid(8)
    ops = TaylorOps(model, grid, LowerOrderTerms(Const(0.0), XI * call("sin", X) + T, Const(0.0)))
    assert (ops.stack("b") is not None) == has_stack
    assert [c.shape for c in ops.stack("b11")] == [(grid.N, grid.N), (2 * grid.N, 1)]
    for sym in ("b", "b11"):
        expr = ops.symbols[sym]
        for t in (0.05, 0.6):
            (got,) = ops.local(sym, t)
            pair = ops.local(sym, t, rate=True)
            for C, e in zip(pair, (expr, differentiate(expr, "t", 1)), strict=True):
                ref = op_weyl(e, t, grid)
                assert np.max(np.abs(quantize._weyl_matrix(C, grid.N) - ref)) <= 1e-13 * np.max(
                    np.abs(ref))
            assert np.array_equal(got, pair[0])


def test_fp_check_monotone_in_C():
    model = gallery("g_E")
    grid = FourierGrid(12)
    r1 = fp_check(model, 0.1, grid, delta=1.0, C=8.0)
    r2 = fp_check(model, 0.1, grid, delta=1.0, C=256.0)
    assert r2.min_eig >= r1.min_eig - 1e-10
    with pytest.raises(ValueError):
        fp_check(model, 0.0, grid, delta=1.0, C=8.0)


def test_fp_search_finds_feasible_pair_for_good_model():
    model = gallery("g_zero_b")
    grid = FourierGrid(16)
    t_values = np.geomspace(1e-2, 1.0, 4)
    res = fp_search(model, t_values, grid, deltas=(0.5, 1.0),
                    Cs=(64.0, 256.0, 1024.0))
    assert res.best is not None
    delta_best, c_best = res.best
    assert delta_best == 1.0  # prefers the largest feasible delta
    assert all(d <= 1.0 for d, _ in res.feasible_pairs)


def _per_t_pieces(model, t, grid):
    """fp_search's H_S, M_J and P's diagonal, quantized afresh at t (independent of the
    Taylor stacks)."""
    S = block_weyl(S_symbols(model), t, grid).matrix
    op_a = op_weyl(model.a_expr, t, grid)
    M_J = BlockOp.from_blocks(J_entries(0.5 * (op_a + op_a.conj().T)), grid).matrix
    return 0.5 * (S + S.conj().T), M_J, np.tile(grid.jp_values**-2.0, 3)


def _fp_search_by_grid(model, t_values, grid, deltas, Cs):
    """feasible_pairs and best with one exact fp_check per (t, delta, C) triple."""
    ok = np.ones((len(deltas), len(Cs)), dtype=bool)
    for t in t_values:
        pieces = _per_t_pieces(model, t, grid)
        for i, d in enumerate(deltas):
            for j, c in enumerate(Cs):
                if ok[i, j]:
                    ok[i, j] = quantize._fp_eval(*pieces, t, d, c).feasible
    pairs = [(deltas[i], Cs[j]) for i in range(len(deltas)) for j in range(len(Cs)) if ok[i, j]]
    return tuple(pairs), max(pairs, key=lambda dc: (dc[0], -dc[1])) if pairs else None


DEFAULT_DELTAS = tuple(2.0**p for p in range(-7, 1))
DEFAULT_CS = tuple(2.0**p for p in range(0, 15))


def _assert_fp_search_matches_grid(model, t_values, grid, deltas=None, Cs=None):
    kwargs = {} if deltas is None else {"deltas": deltas, "Cs": Cs}
    res = fp_search(model, t_values, grid, **kwargs)
    pairs, best = _fp_search_by_grid(model, t_values, grid, deltas or DEFAULT_DELTAS,
                                     Cs or DEFAULT_CS)
    assert res.feasible_pairs == pairs
    assert res.best == best


@pytest.mark.parametrize("name", GALLERY)
@pytest.mark.parametrize("K", (8, 16))
@pytest.mark.parametrize("nt", (3, 10))
def test_closed_form_fp_search_matches_grid_search(name, K, nt):
    model = gallery(name)
    _assert_fp_search_matches_grid(model, np.geomspace(1e-2, model.T, nt), FourierGrid(K))


@pytest.mark.parametrize("deltas, Cs", [
    ((0.5, 1.0), (128.0, 256.0, 512.0, 1024.0)),  # the quick gate's c05 grid
    ((1.0, 0.25, 0.5, 1.0 / 128), (64.0, 2.0, 1024.0, 16.0, 256.0, 4.0, 1.0)),
])
def test_closed_form_fp_search_matches_grid_search_on_given_grids(deltas, Cs):
    for name in ("g_E", "g_zero_b", "g_ex21p"):
        _assert_fp_search_matches_grid(gallery(name), np.geomspace(1e-2, 1.0, 10),
                                       FourierGrid(16), deltas, Cs)


_SMALL_MODELS = st.one_of(
    st.builds(lambda M: gallery("g_strict", M=M), st.floats(0.1, 4.0)),
    st.builds(lambda eps: gallery("g_E", eps=eps), st.floats(0.01, 0.99)),
    st.builds(lambda m: gallery("g_ex22", m=m), st.integers(3, 8)),  # m >= 7: per-t fallback
    st.builds(lambda eps, base: gallery("g_eps", eps=eps, base=base), st.floats(1e-3, 0.5),
              st.sampled_from(["g_zero_b", "g_E", "g_ex21p", "g_ex21m"])),
)


@settings(max_examples=40, deadline=None)
@given(model=_SMALL_MODELS, K=st.integers(2, 6),
       deltas=st.lists(st.sampled_from([2.0**p for p in range(-7, 3)]),
                       min_size=1, max_size=4, unique=True),
       Cs=st.lists(st.sampled_from([2.0**p for p in range(-2, 15)]),
                   min_size=1, max_size=6, unique=True),
       t_values=st.lists(st.floats(1e-2, 1.0), min_size=1, max_size=4))
def test_fp_search_matches_the_triple_loop_on_random_models(model, K, deltas, Cs, t_values):
    _assert_fp_search_matches_grid(model, t_values, FourierGrid(K), tuple(deltas), tuple(Cs))


def test_fp_search_certifies_most_t_and_delta_without_an_eigensolve(monkeypatch):
    # one eigensolve per (t, delta) would be 80 per model; the Cholesky
    # certificate settles most of them (all of them on g_strict)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or real(*a, **k))
    total = 0
    for name in GALLERY:
        calls.clear()
        fp_search(gallery(name), np.geomspace(1e-2, 1.0, 10), FourierGrid(8))
        assert len(calls) <= 16
        total += len(calls)
    assert total > 0


@settings(max_examples=200, deadline=None)
@given(diag=st.lists(st.integers(-8, 8), min_size=1, max_size=6),
       floor=st.integers(-8, 8), t=st.sampled_from((0.25, 0.5, 1.0, 2.0)))
def test_c_star_is_exact_or_certified_below_the_floor(diag, floor, t):
    # dyadic entries: C* = -t min(diag) and every shifted pivot are exact
    G = np.diag(np.asarray(diag, dtype=float)).astype(complex)
    exact = -t * min(diag)
    got = c_star(G, t, float(floor))
    if exact < floor:
        assert got is None
    else:
        assert got == exact


def test_fp_search_reports_infeasible_grid():
    model = gallery("g_E")
    grid = FourierGrid(8)
    res = fp_search(model, np.geomspace(1e-2, 1.0, 3), grid,
                    deltas=(64.0,), Cs=(1e-4,))
    assert res.best is None
    assert res.feasible_pairs == ()


def test_from_blocks_places_matrix_scalar_vector_and_none_blocks():
    grid = FourierGrid(3)
    N = grid.N
    rng = np.random.default_rng(4)
    m = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    jp = grid.jp_values
    blk = BlockOp.from_blocks([[m, 0, None], [2.5, jp, 0], [None, 0, -1]], grid)
    assert blk.blocks == 3 and blk.matrix.shape == (3 * N, 3 * N)
    want = np.zeros((3 * N, 3 * N), dtype=complex)
    want[:N, :N] = m
    want[N : 2 * N, :N] = 2.5 * np.eye(N)
    want[N : 2 * N, N : 2 * N] = np.diag(jp)
    want[2 * N :, 2 * N :] = -np.eye(N)
    assert np.array_equal(blk.matrix, want)


# ---------------------------------------------------------------------------
# banded Friedrichs assembly against the full (k, k', zeta) contraction

def _dense_friedrichs(entries, t, grid, bump, points_per_unit):
    """M[k, k'] = (1/N) sum_j e^(-i x_j (k - k') w0) p_F(k, x_j, k') over every zeta node."""
    zeta, w = quantize._zeta_rule(grid, bump.support, points_per_unit)
    jp = grid.jp_values
    F = bump.fn((zeta[:, None] - grid.freqs[None, :]) / np.sqrt(jp)[None, :]) * jp[None, :] ** -0.25
    phase = np.exp(-1j * np.outer(grid.nodes, grid.freqs))  # [j, k]
    blocks = []
    for row in entries:
        blocks.append([])
        for expr in row:
            p = np.broadcast_to(np.asarray(expr.evaluate(t, grid.nodes[:, None], zeta[None, :]),
                                           dtype=float), (grid.N, zeta.size))
            p_F = (w * F.T * p[:, None, :]) @ F  # [j, k, k']
            blocks[-1].append(np.einsum("jk,jkl,jl->kl", phase, p_F, phase.conj()) / grid.N)
    return np.block(blocks)


def _assert_matches_dense(entries, t, grid, points_per_unit, bump=None):
    bump = bump or default_bump()
    got = quantize._friedrichs_matrix(entries, t, grid, bump, points_per_unit)
    want = _dense_friedrichs(entries, t, grid, bump, points_per_unit)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", GALLERY)
@pytest.mark.parametrize("K", (8, 16))
def test_banded_friedrichs_matches_dense_on_gallery(name, K):
    entries = S_symbols(gallery(name))
    for t in (0.1, 1.0):
        for ppu in (33, 66):
            _assert_matches_dense(entries, t, FourierGrid(K), ppu)


def test_banded_friedrichs_matches_dense_for_xi_dependent_symbol():
    sym = parse_symbol("(1 - cos(x))^2 * jp(xi) + 0.5 * sin(x) * xi / jp(xi)")
    for ppu in (33, 66):
        _assert_matches_dense([[sym]], 0.5, FourierGrid(16), ppu)


def test_banded_friedrichs_matches_dense_for_narrow_bump():
    wide = default_bump()
    narrow = Bump(fn=lambda s: math.sqrt(2.0) * wide.fn(2.0 * np.asarray(s)), support=0.5)
    assert _l2_norm_sq(narrow) == pytest.approx(1.0, abs=1e-10)
    entries = S_symbols(gallery("g_E"))
    _assert_matches_dense(entries, 0.5, FourierGrid(16), 33, bump=narrow)


def test_zeta_rule_covers_every_window_of_a_wide_bump():
    # the windows are L^2-normalized in zeta: sum_q w_q F(xi_k, zeta_q)^2 = 1 on every row
    base = default_bump()
    wide = Bump(fn=lambda s: base.fn(0.5 * np.asarray(s)) / math.sqrt(2.0), support=2.0)
    assert _l2_norm_sq(wide) == pytest.approx(1.0, abs=1e-10)
    grid = FourierGrid(16)
    zeta, w = quantize._zeta_rule(grid, wide.support, 66)
    F = quantize._window(wide, zeta[None, :], grid.freqs[:, None], grid.jp_values[:, None])
    assert np.max(np.abs(F**2 @ w - 1.0)) <= 1e-10
    _assert_matches_dense(S_symbols(gallery("g_E")), 0.5, grid, 33, bump=wide)


def test_friedrichs_part_stays_psd_at_K64():
    qf = friedrichs_part(S_symbols(gallery("g_E")), 0.5, FourierGrid(64))
    assert qf.min_eig() / operator_norm(qf.matrix) >= -1e-8


def test_gauss_legendre_rules_are_computed_once_and_read_only():
    grid = FourierGrid(8)
    nodes, weights = quantize._zeta_rule(grid, 1.0, 33)
    assert quantize._zeta_rule(grid, 1.0, 33)[0] is nodes
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_friedrichs_part_is_one_fixed_rule_without_eigensolves(monkeypatch):
    entries, t, grid = S_symbols(gallery("g_E")), 0.5, FourierGrid(8)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    qf = friedrichs_part(entries, t, grid)
    assert calls == []
    want = quantize._friedrichs_matrix(entries, t, grid, default_bump(), 66)
    assert np.array_equal(qf.matrix, want)


@pytest.mark.parametrize("name", GALLERY)
@pytest.mark.parametrize("K", (8, 16, 32))
def test_friedrichs_rule_is_converged_against_a_twice_finer_rule(name, K):
    # the 33-point rule is 3.9e-7 off by the same measure, so this pins the rule size
    entries = S_symbols(gallery(name))
    for t in (0.1, 1.0):
        got = friedrichs_part(entries, t, FourierGrid(K))
        fine = quantize._friedrichs_matrix(entries, t, FourierGrid(K), default_bump(), 132)
        assert np.linalg.norm(got.matrix - fine, 2) <= 1e-8 * np.linalg.norm(fine, 2)
        fine_min = float(np.linalg.eigvalsh(0.5 * (fine + fine.conj().T))[0])
        assert abs(got.min_eig() - fine_min) <= 1e-9


def test_fp_search_rejects_empty_t_grid():
    with pytest.raises(ValueError):
        fp_search(gallery("g_E"), [], FourierGrid(8))


# ---------------------------------------------------------------------------
# banded Taylor stacks

def _dense_twin(layout, monkeypatch):
    """A layout over the same symbols whose stack is forced dense."""
    with monkeypatch.context() as m:
        m.setattr(quantize, "_BAND_PAYOFF", math.inf)
        twin = quantize.Layout(layout.ops, layout.names, layout.fn)
        twin.stack  # built while the patch holds
    return twin


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _gathered(layout, dense):
    """The dense-then-gather reference of a banded stack: each term of the dense twin's
    stack read at the layout's ELL columns, zero beyond the band."""
    N, (m, n) = layout.ops.grid.N, layout._shape
    cols = layout._cols
    bw = (cols.shape[1] // (n // N) - 1) // 2
    inband = np.abs(cols % N - (np.arange(m) % N)[:, None]) <= bw
    return np.concatenate([np.take_along_axis(dense.stack[i * m : (i + 1) * m], cols, axis=1)
                           * inband for i in range(len(dense.stack) // m)])


def _assert_band_of_the_dense_stack(layout, dense, V):
    """A banded layout's stack, and its rates, bit for bit those of its dense twin's band."""
    if layout._cols is None:
        assert np.array_equal(layout.stack, dense.stack)
        return
    want = _gathered(layout, dense)
    assert np.array_equal(layout.stack, want)
    # the same layout holding the reference stack: rates read nothing but the stack
    ref = quantize.Layout(layout.ops, layout.names, layout.fn)
    ref.__dict__["stack"] = want
    ref._cols, ref._shape = layout._cols, layout._shape
    for t in (0.05, 0.7):
        for got, exp in zip(layout.rate(t, V), ref.rate(t, V), strict=True):
            assert np.array_equal(got, exp)


@pytest.mark.parametrize("source", GALLERY + ("g_strict:M=4",))
@pytest.mark.parametrize("K", (20, 32, 36, 64, 128))
def test_banded_stack_agrees_with_the_dense_stack(source, K, monkeypatch):
    # the band is built from the compact C_i without an N x N block: its bits are those of
    # the dense stack's band.  R goes banded at K = 20, S (bw = 4 off g_strict) at K = 36.
    name, _, param = source.partition(":M=")
    model = gallery(name, **({"M": float(param)} if param else {}))
    grid = FourierGrid(K)
    for seed in (0, 1, 2):
        asm = Assembler(model, LowerOrderTerms.random_trig(seed), grid)
        assert asm.R.stack.shape[1] == 3 * 5  # the lower-order terms have degree 2
        assert (asm.S.stack is not None and asm.S._cols is not None) == (
            K >= 36 or name == "g_strict")
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((3 * grid.N, 5)) + 1j * rng.standard_normal((3 * grid.N, 5))
        for layout in (asm.R, asm.S):
            dense = _dense_twin(layout, monkeypatch)
            _assert_band_of_the_dense_stack(layout, dense, V)
            for t in (0.05, 0.7):
                if layout is asm.S:  # Op(S) is its own Hermitian part, banded and dense
                    for F in (layout(t), dense(t)):
                        assert np.array_equal(F, 0.5 * (F + F.conj().T))
                assert _rel(layout(t), dense(t)) <= 1e-13
                for W in (V[:, 0], V):
                    assert _rel(layout(t, W), dense(t, W)) <= 1e-13
                    for got, want in zip(layout.rate(t, W), dense.rate(t, W), strict=True):
                        assert got.shape == want.shape and _rel(got, want) <= 1e-13


def test_layout_storage_follows_the_band_and_the_grid():
    # g_E: R has bw = 2 (a and the lower-order terms), Herm Op(S) bw = 4 (a^2); a stack
    # row holds 2 bw + 1 entries per block once 8 (2 bw + 1) <= N, else N
    lot = LowerOrderTerms.random_trig(0)
    widths = {}
    for K in (16, 32, 64):
        asm = Assembler(gallery("g_E"), lot, FourierGrid(K))
        widths[K] = (asm.R.stack.shape[1], asm.S.stack.shape[1])
    assert widths == {16: (3 * 33, 3 * 33), 32: (3 * 5, 3 * 65), 64: (3 * 5, 3 * 9)}
    # a logistic window is no trig polynomial: R over it stays dense, S beside it is banded
    window = LowerOrderTerms(window_expr(0.0, 1.0, 2.0), Const(0.0), Const(0.0))
    asm = Assembler(gallery("g_E"), window, FourierGrid(64))
    assert (asm.R.stack.shape[1], asm.S.stack.shape[1]) == (3 * 129, 3 * 9)


def test_banded_stack_over_a_symbol_depending_on_xi(monkeypatch):
    # such a symbol keeps its N x N matrix, not its 4x larger midpoint coefficients, and
    # the band is read from that matrix
    grid = FourierGrid(64)
    lot = LowerOrderTerms(Const(0.0), call("cos", X) * XI, call("sin", 2.0 * X))
    asm = Assembler(gallery("g_E"), lot, grid)
    assert asm.ops.stack("b11")[0].shape == (grid.N, grid.N)
    assert asm.ops.stack("b12")[0].shape == (2 * grid.N, 1)
    assert asm.R.stack is not None and asm.R._cols is not None
    V = np.random.default_rng(4).standard_normal((3 * grid.N, 3)) + 0j
    _assert_band_of_the_dense_stack(asm.R, _dense_twin(asm.R, monkeypatch), V)


def _traced_peak(fn):
    """The most bytes fn holds at once, above what was held when it started (tracemalloc)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ("R", "S"))
def test_banded_stacks_are_built_without_dense_blocks(name):
    # at K = 128 one N x N block is 1.06 MB and one dense 3N x 3N term 9.5 MB; the stacks are
    # 0.12 MB (R) and 1.0 MB (S), and their builds traced 17 and 65 MB through dense terms
    model, lot = gallery("g_E"), LowerOrderTerms.random_trig(0)
    assert getattr(Assembler(model, lot, FourierGrid(8)), name).stack is not None  # warm-up
    build = lambda: getattr(Assembler(model, lot, FourierGrid(128)), name).stack
    assert _traced_peak(build) < 2e6


def test_layouts_are_freed_by_reference_counting():
    # a layout holds no reference cycle, so it and its stacks go as soon as their user drops
    # them, with no wait for the cyclic collector (a cycle kept every fp_check layout alive
    # until a collection and raised the search benchmark's peak RSS by 17 MB)
    grid, t = FourierGrid(16), 0.3
    V = np.ones(3 * grid.N, dtype=complex)
    gc.collect()
    gc.disable()
    try:
        for model in (gallery("g_E"), gallery("g_ex22", m=8)):  # a global stack, stacks about t
            asm = Assembler(model, LowerOrderTerms.random_trig(0), grid)
            asm.apply(t, V), asm.energy_rate(t, V, V), asm.S(t), asm.a(t, V[: grid.N])
            S, J = quantize._fp_layouts(model, grid)
            quantize._fp_check(S, J, t, 0.5, 64.0)
            refs = [weakref.ref(obj) for obj in (asm, asm.R, asm.S, asm.a, asm.ops, S, J, S.ops)]
            del asm, S, J
            assert [ref() for ref in refs] == [None] * len(refs), model.name
    finally:
        gc.enable()
