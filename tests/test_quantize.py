"""Weyl quantization, averaged-part positivity, sharp lower bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex.acceptance import GALLERY
from triplex.models import gallery
from triplex import quantize
from triplex.quantize import (
    BlockOp,
    Bump,
    FourierGrid,
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
from triplex.symbols import Const, X, XI, call, parse_symbol
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


def test_coefficients_invert_values():
    grid = FourierGrid(8)
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    values = np.fft.ifft(np.roll(coef, -grid.K)) * grid.N  # node values, mode -K first
    back = grid.coefficients(values)
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
    coef = grid.coefficients(expr)
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


def test_bump_is_normalized_and_supported():
    bump = default_bump()
    assert bump.l2_norm_sq() == pytest.approx(1.0, abs=1e-10)
    sig = np.array([-1.5, 0.0, 1.5])
    vals = bump.fn(sig)
    assert vals[0] == 0.0 and vals[2] == 0.0
    assert vals[1] > 0.0
    unnormalized = Bump(fn=lambda s: np.ones_like(np.asarray(s, dtype=float)))
    with pytest.raises(ValueError):
        friedrichs_part(Const(1.0), 0.5, FourierGrid(4), bump=unnormalized)


def test_friedrichs_part_of_nonnegative_scalar_is_psd():
    grid = FourierGrid(8)
    sym = parse_symbol("(1 - cos(x))^2")  # vanishes to second order at 0
    q = friedrichs_part(sym, 0.5, grid)
    herm = 0.5 * (q.matrix + q.matrix.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    assert eigs[0] >= -1e-10 * (1.0 + eigs[-1])


def test_friedrichs_part_of_positive_constant_stays_near_it():
    grid = FourierGrid(6)
    q = friedrichs_part(Const(2.0), 0.5, grid)
    eigs = np.linalg.eigvalsh(0.5 * (q.matrix + q.matrix.conj().T))
    assert eigs[0] >= 1.0  # averaging a constant keeps a positive floor


def test_sgarding_residual_stays_bounded_as_K_grows():
    model = gallery("g_zero_b")
    entries = [[model.a_expr]]
    res = sgarding_residual(entries, 0.5, K_list=(8, 16, 32))
    vals = [res[k] for k in (8, 16, 32)]
    assert all(np.isfinite(v) for v in vals)
    assert max(vals) <= 4.0 * max(vals[0], 1e-12) + 10.0


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
    """fp_search's H_S, M_J and P, quantized afresh at t (independent of the Taylor stacks)."""
    S = block_weyl(S_symbols(model), t, grid).matrix
    op_a = op_weyl(model.a_expr, t, grid)
    M_J = BlockOp.from_blocks(J_entries(0.5 * (op_a + op_a.conj().T)), grid).matrix
    return 0.5 * (S + S.conj().T), M_J, np.diag(np.tile(grid.jp_values**-2.0, 3))


def _fp_search_by_grid(model, t_values, grid, deltas, Cs, tol=1e-8):
    """feasible_pairs and best with one exact fp_check per (t, delta, C) triple."""
    ok = np.ones((len(deltas), len(Cs)), dtype=bool)
    for t in t_values:
        pieces = _per_t_pieces(model, t, grid)
        for i, d in enumerate(deltas):
            for j, c in enumerate(Cs):
                if ok[i, j]:
                    ok[i, j] = quantize._fp_eval(*pieces, t, d, c, tol).feasible
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
    assert narrow.l2_norm_sq() == pytest.approx(1.0, abs=1e-10)
    entries = S_symbols(gallery("g_E"))
    _assert_matches_dense(entries, 0.5, FourierGrid(16), 33, bump=narrow)


def test_zeta_rule_covers_every_window_of_a_wide_bump():
    # the windows are L^2-normalized in zeta: sum_q w_q F(xi_k, zeta_q)^2 = 1 on every row
    base = default_bump()
    wide = Bump(fn=lambda s: base.fn(0.5 * np.asarray(s)) / math.sqrt(2.0), support=2.0)
    assert wide.l2_norm_sq() == pytest.approx(1.0, abs=1e-10)
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
    for rule in (quantize._gauss_legendre_unit, lambda: quantize._zeta_rule(grid, 1.0, 33)):
        nodes, weights = rule()
        assert rule()[0] is nodes
        with pytest.raises(ValueError):
            weights[0] = 0.0


def test_fp_search_rejects_empty_t_grid():
    with pytest.raises(ValueError):
        fp_search(gallery("g_E"), [], FourierGrid(8))
