"""Weyl quantization, averaged-part positivity, sharp lower bounds."""

import math

import numpy as np
import pytest

from triplex.acceptance import GALLERY, _s_entries
from triplex.models import gallery
from triplex import quantize
from triplex.quantize import (
    Bump,
    FourierGrid,
    default_bump,
    block_diag,
    block_weyl,
    fp_check,
    fp_search,
    friedrichs_part,
    op_jp,
    op_jp_inv2,
    op_multiplier,
    op_weyl,
    operator_norm,
    sgarding_residual,
)
from triplex.symbols import Const, X, XI, call, jp_of, parse_symbol


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
    back = grid.coefficients(grid.values(coef))
    assert np.allclose(back, coef, atol=1e-12)


def test_weyl_of_x_independent_symbol_is_diagonal():
    grid = FourierGrid(6)
    op = op_weyl(jp_of(XI), 0.3, grid)
    assert np.allclose(op.matrix, np.diag(grid.jp_values), atol=1e-12)
    assert np.allclose(op_jp(grid).matrix, np.diag(grid.jp_values), atol=1e-12)
    inv2 = op_jp_inv2(grid)
    assert np.allclose(inv2.matrix, np.diag(grid.jp_values**-2.0), atol=1e-12)


def test_weyl_of_pure_multiplication_matches_convolution():
    grid = FourierGrid(8)
    expr = Const(1.0) + Const(0.5) * call("cos", X)
    op = op_weyl(expr, 0.0, grid)
    # multiplication by cos x shifts modes by +-1 with weight 1/4
    u = np.zeros(grid.N)
    u[8] = 1.0  # mode 0
    out = op.matrix @ u
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
    assert np.allclose(op.matrix, conv, atol=1e-10)


def test_weyl_of_real_symbol_is_hermitian():
    grid = FourierGrid(8)
    expr = parse_symbol("(1 - cos(x))^2") * jp_of(XI)
    mat = op_weyl(expr, 0.5, grid).matrix
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12 * (1 + np.max(np.abs(mat)))


def test_weyl_midpoint_rule_for_mixed_symbol():
    # symbol cos(x) xi quantizes to matrix entries built at the mode midpoint
    grid = FourierGrid(6)
    mat = op_weyl(call("cos", X) * XI, 0.0, grid).matrix
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
        assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-6)


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


def test_fp_search_reports_infeasible_grid():
    model = gallery("g_E")
    grid = FourierGrid(8)
    res = fp_search(model, np.geomspace(1e-2, 1.0, 3), grid,
                    deltas=(64.0,), Cs=(1e-4,))
    assert res.best is None
    assert res.feasible_pairs == ()


def test_block_diag_assembles_squares():
    grid = FourierGrid(3)
    eye = np.eye(grid.N)
    blk = block_diag([op_multiplier(np.ones(grid.N), grid)] * 3, grid)
    assert blk.matrix.shape == (3 * grid.N, 3 * grid.N)
    assert np.allclose(blk.matrix[: grid.N, : grid.N], eye)


# ---------------------------------------------------------------------------
# banded Friedrichs assembly against the full (k, k', zeta) contraction

def _dense_friedrichs(entries, t, grid, bump, points_per_unit):
    """M[k, k'] = (1/N) sum_j e^(-i x_j (k - k') w0) p_F(k, x_j, k') over every zeta node."""
    zeta, w = quantize._zeta_rule(grid, points_per_unit)
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
    got = friedrichs_part(entries, t, grid, bump=bump, points_per_unit=points_per_unit,
                          adaptive=False).matrix
    want = _dense_friedrichs(entries, t, grid, bump or default_bump(), points_per_unit)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", GALLERY)
@pytest.mark.parametrize("K", (8, 16))
def test_banded_friedrichs_matches_dense_on_gallery(name, K):
    entries = _s_entries(gallery(name))
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
    entries = _s_entries(gallery("g_E"))
    _assert_matches_dense(entries, 0.5, FourierGrid(16), 33, bump=narrow)


def test_friedrichs_part_stays_psd_at_K64():
    qf = friedrichs_part(_s_entries(gallery("g_E")), 0.5, FourierGrid(64))
    assert qf.min_eig() / operator_norm(qf.matrix) >= -1e-8


def test_gauss_legendre_rules_are_computed_once_and_read_only():
    grid = FourierGrid(8)
    for rule in (quantize._gauss_legendre_unit, lambda: quantize._zeta_rule(grid, 33)):
        nodes, weights = rule()
        assert rule()[0] is nodes
        with pytest.raises(ValueError):
            weights[0] = 0.0


def test_fp_search_rejects_empty_t_grid():
    with pytest.raises(ValueError):
        fp_search(gallery("g_E"), [], FourierGrid(8))
