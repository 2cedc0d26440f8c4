"""Time integration, energy margins, cutoff checks, lifts, sweeps."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex import evolution, quantize
from triplex.evolution import (
    Assembler,
    EvolveConfig,
    _rk4,
    _taper,
    energy_margins,
    evolve,
    extend_model,
    frequency_cutoff_check,
    loss_probe,
    margin_deviation,
    regularize_sweep,
    search_energy_constants,
    seeded_state,
    taylor_lift,
    window_expr,
)
from triplex.models import LowerOrderTerms, ModelError, gallery
from triplex.quantize import (BlockOp, FourierGrid, Layout, TaylorOps, block_weyl, op_weyl,
                              operator_norm)
from triplex.symbols import Const, differentiate
from triplex.symmetrizer import A_entries, S_symbols


# ---------------------------------------------------------------------------
# generator and stepping

def test_generator_blocks_express_the_first_order_system():
    # rows: dU1 = a jp U2 + b jp U3 + lower order, dU2 = jp U1, dU3 = jp U2
    model = gallery("g_strict")  # a independent of x: all blocks diagonal
    grid = FourierGrid(4)
    t = 0.4
    N = grid.N
    gen = Assembler(model, LowerOrderTerms.zero(), grid).apply(t, np.eye(3 * N))
    a_val = t + 1.0
    jp = np.diag(grid.jp_values)
    assert np.allclose(gen[:N, N : 2 * N], a_val * jp, atol=1e-12)
    assert np.allclose(gen[N : 2 * N, :N], jp, atol=1e-12)
    assert np.allclose(gen[2 * N :, N : 2 * N], jp, atol=1e-12)
    assert np.allclose(gen[:N, :N], 0.0, atol=1e-12)


def test_step_converges_at_fourth_order():
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(2, amplitude=0.3)
    grid = FourierGrid(4)
    U0 = seeded_state(grid, 0)
    t0, H = 0.2, 0.1
    asm = Assembler(model, lot, grid)

    def march(n):
        U = U0.copy()
        h = H / n
        t = t0
        for _ in range(n):
            U = _rk4(U, t, h, asm.apply, 1j * asm.apply(t, U))
            t += h
        return U

    ref = march(64)
    e1 = np.linalg.norm(march(4) - ref)
    e2 = np.linalg.norm(march(8) - ref)
    order = math.log2(e1 / e2)
    assert 3.5 <= order <= 4.5


def test_evolve_records_monotone_time_grid():
    model = gallery("g_E")
    grid = FourierGrid(6)
    cfg = EvolveConfig(eps_start=1e-2, T=0.5)
    trace, U = evolve(model, LowerOrderTerms.zero(), seeded_state(grid, 1), cfg, grid)
    assert trace.t[0] == pytest.approx(1e-2)
    assert trace.t[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(trace.t) > 0)
    assert not trace.aborted
    assert U.shape == (3 * grid.N,)
    assert np.all(np.isfinite(trace.E))


def test_evolve_flags_runaway_growth(monkeypatch):
    monkeypatch.setattr(evolution, "GROWTH_ABORT", 1.0 + 1e-9)
    model = gallery("g_E")
    grid = FourierGrid(4)
    cfg = EvolveConfig(eps_start=1e-2, T=1.0)
    trace, _ = evolve(model, LowerOrderTerms.zero(), seeded_state(grid, 2), cfg, grid)
    assert trace.aborted
    assert len(trace.t) >= 1


# ---------------------------------------------------------------------------
# energy margins

def test_energy_margins_pass_with_searched_constants():
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(4, amplitude=0.5)
    grid = FourierGrid(8)
    U0 = seeded_state(grid, 5)
    consts = search_energy_constants(model, lot, grid, U0=U0)
    cfg = EvolveConfig(n_weight=consts.n_weight, n_star=consts.n_star,
                       gamma=consts.gamma, lam=consts.lam)
    trace, _ = evolve(model, lot, U0, cfg, grid)
    rep = energy_margins(trace)
    assert rep.passed
    assert rep.min_margin >= -0.05
    assert len(rep.margins) == len(trace.t) - 1
    assert math.pow(2.0, round(math.log2(consts.lam))) == consts.lam
    assert consts.n_star >= 0.0


def test_margin_deviation_contracts_with_dt():
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(4, amplitude=0.5)
    grid = FourierGrid(8)
    U0 = seeded_state(grid, 5)
    consts = search_energy_constants(model, lot, grid, U0=U0)

    def run(scale):
        cfg = EvolveConfig(dt_scale=scale, n_weight=consts.n_weight,
                           n_star=consts.n_star, gamma=consts.gamma,
                           lam=consts.lam)
        trace, _ = evolve(model, lot, U0, cfg, grid)
        return energy_margins(trace)

    ref = run(0.125)
    dev_coarse = margin_deviation(run(1.0), ref)
    dev_fine = margin_deviation(run(0.5), ref)
    assert dev_fine <= dev_coarse / 2.0


# ---------------------------------------------------------------------------
# the energy identity and the constants measured with it

@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(("g_E", "g_zero_b", "g_ex21p", "g_strict", "g_ex22:m=8")),
       lot_seed=st.integers(0, 1000), t=st.floats(0.05, 0.95), lam=st.sampled_from((0.0, 2.0)))
def test_exact_energy_rate_matches_centred_differences(name, lot_seed, t, lam):
    # g_ex22 with m = 8 is past the Taylor cap, so it takes the fallback path
    model = gallery("g_ex22", m=8) if name == "g_ex22:m=8" else gallery(name)
    grid = FourierGrid(4)
    asm = Assembler(model, LowerOrderTerms.random_trig(lot_seed), grid)

    def energy(tt, V):
        return asm.energy_rate(tt, V, 1j * asm.apply(tt, V), lam)

    U = seeded_state(grid, lot_seed)
    Q, dQ = energy(t, U)
    h = 1e-5
    Q_plus = energy(t + h, _rk4(U, t, h, asm.apply, 1j * asm.apply(t, U)))[0]
    Q_minus = energy(t - h, _rk4(U, t, -h, asm.apply, 1j * asm.apply(t, U)))[0]
    centred = (Q_plus - Q_minus) / (2.0 * h)
    assert abs(dQ - centred) <= 1e-6 * (abs(Q) + abs(dQ))


def _finite_difference_n_star(model, lot, grid, U0, lam, gamma=1.0):
    """N* as the constants search took it before the energy identity: the sup
    of the midpoint t (dQ/dt / Q - gamma) from finite differences of a run at dt/8."""
    trace, _ = evolve(model, lot, U0, EvolveConfig(dt_scale=0.125, lam=lam, gamma=gamma), grid)
    dt = np.diff(trace.t)
    qbar = 0.5 * (trace.Q[:-1] + trace.Q[1:])
    tbar = 0.5 * (trace.t[:-1] + trace.t[1:])
    growth = (trace.Q[1:] - trace.Q[:-1]) / (dt * qbar)
    return max(0.0, float(np.max(tbar * (growth - gamma))))


_RK4_ERROR = pytest.mark.xfail(strict=True, reason=(
    "N* = 0.012131 against 0.012170: the CFL-step run's own RK4 error moves t Q'/Q "
    "at its argmax by 4e-5 (0.012178, 0.012180 at dt/2, dt/4), 3.2e-3 relative"))


@pytest.mark.parametrize("name, K, seed", [
    (name, K, seed)
    for name, K in (("g_E", 8), ("g_E", 16), ("g_zero_b", 16), ("g_ex21p", 16))
    for seed in (1, 2, 3) if (name, seed) != ("g_zero_b", 2)
] + [pytest.param("g_zero_b", 16, 2, marks=_RK4_ERROR)])
def test_exact_n_star_agrees_with_the_fine_step_finite_difference(name, K, seed):
    model, grid = gallery(name), FourierGrid(K)
    lot = LowerOrderTerms.random_trig(seed)
    U0 = seeded_state(grid, seed + 100)
    consts = search_energy_constants(model, lot, grid, U0=U0)
    assert energy_margins(consts).min_margin >= 0.0
    ref = _finite_difference_n_star(model, lot, grid, U0, consts.lam)
    assert abs(consts.n_star - ref) <= 1e-3 * ref


def test_constants_come_with_their_own_run():
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(4, amplitude=0.5)
    grid = FourierGrid(8)
    U0 = seeded_state(grid, 5)
    consts = search_energy_constants(model, lot, grid, U0=U0)
    cfg = EvolveConfig(n_weight=consts.n_weight, n_star=consts.n_star, gamma=consts.gamma,
                       lam=consts.lam)
    trace, _ = evolve(model, lot, U0, cfg, grid)
    for key in ("t", "Q", "dQ", "norm"):
        assert np.array_equal(getattr(consts, key), getattr(trace, key))
    assert np.allclose(consts.E, trace.E, rtol=1e-15, atol=0.0)
    assert consts.n_star == pytest.approx(
        max(0.0, float(np.max(consts.t * (consts.dQ / consts.Q - consts.gamma)))), abs=1e-3)


def test_a_sweep_row_integrates_its_state_once(monkeypatch):
    starts = []
    real = evolution._rk4

    def counting(U, t, *args):
        starts.append(t)
        return real(U, t, *args)

    monkeypatch.setattr(evolution, "_rk4", counting)
    lot = LowerOrderTerms.random_trig(7, amplitude=0.5)
    rep = regularize_sweep(gallery("g_E"), lot, (1e-1,), grid_k=8, factor=2.0, seed=0)
    assert rep.rows[0].min_margin >= -0.05
    # a second integration would start over at eps_start
    assert starts[0] == pytest.approx(1e-2) and np.all(np.diff(starts) > 0)


def test_a_nan_energy_gives_no_constants():
    # nan fails every comparison, so it passes a test for Q <= 0; N* came out 0
    grid = FourierGrid(4)
    U0 = np.full(3 * grid.N, np.nan, dtype=complex)
    with pytest.raises(ValueError, match="not positive"):
        search_energy_constants(gallery("g_E"), None, grid, U0=U0)


def test_a_run_that_blows_up_gives_unbounded_constants(monkeypatch):
    # any step aborts: the norm always exceeds half the last one
    monkeypatch.setattr(evolution, "GROWTH_ABORT", 0.5)
    grid = FourierGrid(6)
    consts = search_energy_constants(gallery("g_E"), None, grid, U0=seeded_state(grid, 2))
    assert consts.aborted and len(consts.t) == 1
    assert consts.n_star == consts.n_weight == math.inf
    rep = regularize_sweep(gallery("g_E"), None, (1e-1,), grid_k=6, seed=0)
    assert rep.rows[0].min_margin == -math.inf and rep.rows[0].n_star == math.inf
    assert not rep.passed


def test_symbols_are_quantized_on_first_use():
    grid = FourierGrid(4)
    asm = Assembler(gallery("g_E"), LowerOrderTerms.random_trig(1), grid)
    U = seeded_state(grid, 1)
    assert asm.ops._stacks == {}
    asm.apply(0.5, U)
    assert "a" in asm.ops._stacks and "a2" not in asm.ops._stacks
    asm.energy_rate(0.5, U, U)
    assert "a2" in asm.ops._stacks


def test_margin_report_integral_form():
    model = gallery("g_strict")
    grid = FourierGrid(6)
    trace, _ = evolve(model, None, seeded_state(grid, 6),
                      EvolveConfig(eps_start=0.05, T=0.8), grid)
    rep = energy_margins(trace)
    assert rep.int_defect >= 0.0
    assert rep.argmin_t in rep.midpoints


# ---------------------------------------------------------------------------
# loss probe

def test_loss_probe_strictly_hyperbolic_has_no_loss():
    model = gallery("g_strict")
    grid = FourierGrid(32)
    rep = loss_probe(model, LowerOrderTerms.random_trig(8, amplitude=0.5),
                     grid, EvolveConfig(), (4, 8, 16))
    assert not rep.aborted
    assert rep.exponent <= 0.3


def test_loss_probe_needs_two_modes():
    for k_list in ((), (4,)):
        with pytest.raises(ValueError):
            loss_probe(gallery("g_E"), LowerOrderTerms.zero(), FourierGrid(16), EvolveConfig(), k_list)


def test_loss_probe_growth_is_mode_monotone_for_degenerate_model():
    model = gallery("g_E")
    grid = FourierGrid(32)
    rep = loss_probe(model, LowerOrderTerms.random_trig(8, amplitude=0.5),
                     grid, EvolveConfig(), (4, 8, 16))
    assert not rep.aborted
    assert np.isfinite(rep.exponent)
    assert rep.growth[-1] >= rep.growth[0] * 0.5


# ---------------------------------------------------------------------------
# frequency cutoffs and partitions

def test_cutoff_commutator_vanishes_for_x_independent_model():
    model = gallery("g_strict")  # generator is a pure Fourier multiplier
    grid = FourierGrid(32)
    rep = frequency_cutoff_check(model, None, grid, nus=(0.5, 0.25))
    assert max(rep.scaled_comm) <= 1e-12
    assert all(v > 0 for v in rep.scaled_low)


def test_cutoff_lowpass_scaling_is_flat():
    model = gallery("g_E")
    grid = FourierGrid(64)
    rep = frequency_cutoff_check(model, LowerOrderTerms.zero(), grid,
                                 nus=(0.5, 0.25, 0.125))
    low = np.array(rep.scaled_low)
    med = np.median(low)
    assert np.max(low / med) <= 3.0 and np.max(med / low) <= 3.0
    with pytest.raises(ValueError):
        frequency_cutoff_check(model, None, grid, nus=(2.0,))


@pytest.mark.parametrize("source, K, flagged", [
    (("g_E", {}), 16, (False, False, False, True)),
    (("g_E", {}), 32, (False, False, False, False)),  # 2/nu = 32 still fits the grid
    (("g_E", {}), 128, (False, False, False, False)),
    (("g_ex22", {"m": 8}), 16, (False, False, False, True)),
], ids=["source0", "source0-K32", "source0-K128", "source1"])
def test_cutoff_norms_match_the_dense_generator(source, K, flagged):
    # g_ex22 with m = 8 is not polynomial in t and takes the quantized-row path; g_E's R is
    # dense at K = 16 and stored by its diagonals at K = 32 and 128.  The reference is the
    # SVD of the dense 3N x 3N generator and commutator.
    model = gallery(source[0], **source[1])
    lot = LowerOrderTerms.random_trig(20, amplitude=0.4)
    grid = FourierGrid(K)
    nus = (0.5, 0.25, 0.125, 0.0625)
    rep = frequency_cutoff_check(model, lot, grid, nus)  # at t = 0.5
    gen = _direct_generator(model, lot, 0.5, grid)
    freqs_abs = np.abs(np.concatenate([grid.freqs] * 3))
    for nu, low, comm in zip(nus, rep.scaled_low, rep.scaled_comm):
        chi_half, chi = _taper(0.5 * nu * freqs_abs), _taper(nu * freqs_abs)
        want_low = nu * np.linalg.norm(gen * chi_half[None, :], 2)
        want_comm = np.linalg.norm(chi[:, None] * gen - gen * chi[None, :], 2) / nu
        assert low == pytest.approx(want_low, rel=1e-10)
        assert comm == pytest.approx(want_comm, rel=1e-10)
    assert rep.flagged == flagged


def test_window_expr_is_a_plateau():
    # flatness e^-35: 1 to rounding on the plateau, 9.3e-35 beyond r_out
    chi = window_expr(math.pi, 1.0, 2.0)
    xs = np.array([math.pi, math.pi - 0.5, math.pi + 0.5])
    vals = np.asarray(chi.evaluate(0.0, xs, 0.0))
    assert np.all(vals >= 1.0 - 1e-15)
    far = np.asarray(chi.evaluate(0.0, np.array([0.0, 2 * math.pi]), 0.0))
    assert np.all(np.abs(far) < 1e-30)


# ---------------------------------------------------------------------------
# Taylor lift

def test_taylor_lift_matches_short_evolution():
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(9, amplitude=0.3)
    grid = FourierGrid(6)
    rng = np.random.default_rng(10)
    data = [rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
            for _ in range(3)]
    asm = Assembler(model, lot, grid)
    lift = taylor_lift(asm, data, order=5)

    # residual of the generator equation at small t has the lift's order
    def residual(t):
        # D_t = -i d/dt maps U_j (i t)^j / j! to U_j (i t)^(j-1) / (j-1)!
        dt_lift = sum(Uj * (1j * t) ** (j - 1) / math.factorial(j - 1)
                      for j, Uj in enumerate(lift.coefficients) if j)
        return np.linalg.norm(dt_lift - asm.apply(t, lift.eval(t)))

    r1, r2 = residual(2e-3), residual(1e-3)
    ratio = r1 / r2
    assert 2.0 ** 4.5 <= ratio <= 2.0 ** 5.5


def test_taylor_lift_coefficients_match_the_dense_recursion():
    # U_{j+1} = sum_i C(j, i) D_t^i M(0) U_{j-i}, D_t^i M(0) = (-i)^i M^(i)(0)
    # with M^(i)(0) laid out densely from the t-derivatives of the symbols.
    # g_E's stack has 2 blocks, so rows i >= 2 lie past its end; g_ex22's
    # b = (t^m/2 - t)(1 - cos x) has a nonzero row i = 3 at m = 3 and a
    # 7-block stack at m = 6
    lot = LowerOrderTerms.random_trig(21, amplitude=0.4)
    grid = FourierGrid(5)
    N = grid.N
    rng = np.random.default_rng(22)
    data = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(3)]
    order = 6
    for model in (gallery("g_E"), gallery("g_ex22", m=3), gallery("g_ex22", m=6)):
        lift = taylor_lift(Assembler(model, lot, grid), data, order=order)
        exprs = [model.a_expr, model.b, lot.b10, lot.b11, lot.b12]
        derivs = []
        for i in range(order):
            if i:
                exprs = [differentiate(e, "t", 1) for e in exprs]
            a, b, b10, b11, b12 = (op_weyl(e, 0.0, grid) for e in exprs)
            rows = A_entries(a * grid.jp_values, b * grid.jp_values,
                             grid.jp_values if i == 0 else 0)
            rows[0] = [b10, rows[0][1] + b11, rows[0][2] + b12]
            derivs.append((-1j) ** i * BlockOp.from_blocks(rows, grid).matrix)
        want = [np.concatenate(data)]
        for j in range(order):
            want.append(sum(math.comb(j, i) * derivs[i] @ want[j - i] for i in range(j + 1)))
        for got, ref in zip(lift.coefficients, want, strict=True):
            assert _rel(got, ref) <= 1e-13


def test_cutoff_check_forms_no_dense_commutator_or_adjoint():
    # at K = 128, R(t) is the one dense matrix (N x 3N, 3.2 MB); R^H, the commutators and an
    # n x n Lanczos basis (9.5 MB) took the traced peak to 19 MB
    model, lot = gallery("g_E"), LowerOrderTerms.random_trig(0)
    nus = (0.5, 0.25, 0.125, 0.0625)
    frequency_cutoff_check(model, lot, FourierGrid(8), nus)  # warm-up
    tracemalloc.start()
    try:
        frequency_cutoff_check(model, lot, FourierGrid(128), nus)
        assert tracemalloc.get_traced_memory()[1] < 6e6
    finally:
        tracemalloc.stop()


def test_window_lot_stays_dense_and_the_per_t_path_is_banded():
    # a logistic window is no trig polynomial, so R over it is full width; g_ex22 at m = 8
    # has no Taylor stack, and its stacks about each t take the band like a global stack
    grid, t = FourierGrid(64), 0.3
    window = LowerOrderTerms(window_expr(0.0, 1.0, 2.0), Const(0.0), Const(0.0))
    model = gallery("g_E")
    asm = Assembler(model, window, grid)
    assert asm.S.stack is not None and asm.S._cols is not None  # S alone is banded
    assert asm.R.stack.shape[1] == 3 * grid.N and asm.R._cols is None
    assert _rel(asm.R(t), _direct_generator(model, window, t, grid)[: grid.N]) <= 1e-13
    model, lot = gallery("g_ex22", m=8), LowerOrderTerms.random_trig(1)
    per_t = Assembler(model, lot, grid)
    assert per_t.R.stack is None and per_t.S.stack is None
    assert per_t.R._cols is not None and per_t.S._cols is not None
    rng = np.random.default_rng(5)
    V = rng.standard_normal((3 * grid.N, 2)) + 1j * rng.standard_normal((3 * grid.N, 2))
    direct = _direct_generator(model, lot, t, grid)
    assert _rel(per_t.R(t), direct[: grid.N]) <= 1e-13
    assert _rel(per_t.apply(t, V), direct @ V) <= 1e-13
    H_S = _direct_herm_S(model, t, grid)
    rate = block_weyl([[differentiate(e, "t", 1) for e in row] for row in S_symbols(model)],
                      t, grid).matrix
    assert _rel(per_t.S(t), H_S) <= 1e-13
    for got, want in zip(per_t.S.rate(t, V), (H_S @ V, rate @ V), strict=True):
        assert _rel(got, want) <= 1e-13
    assert sorted(per_t.S._recent) == [(t, False), (t, True)]


def test_taylor_lift_on_a_banded_stack_matches_the_dense_stack(monkeypatch):
    # at K = 32 R's stack is banded (bw = 2); forcing it dense must not move the lift
    model, lot, grid = gallery("g_E"), LowerOrderTerms.random_trig(1), FourierGrid(32)
    rng = np.random.default_rng(5)
    data = [rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N) for _ in range(3)]
    banded = Assembler(model, lot, grid)
    assert banded.R.stack.shape[1] == 3 * 5
    lift = taylor_lift(banded, data, order=6)
    monkeypatch.setattr(quantize, "_BAND_PAYOFF", math.inf)
    dense = Assembler(model, lot, grid)
    assert dense.R.stack.shape[1] == 3 * grid.N
    for got, want in zip(lift.coefficients, taylor_lift(dense, data, order=6).coefficients,
                         strict=True):
        assert _rel(got, want) <= 1e-14


def test_taylor_lift_zeroth_coefficient_is_the_data():
    model = gallery("g_zero_b")
    grid = FourierGrid(4)
    data = [np.ones(grid.N), np.zeros(grid.N), np.zeros(grid.N)]
    asm = Assembler(model, None, grid)
    lift = taylor_lift(asm, data, order=2)
    assert np.allclose(lift.coefficients[0][: grid.N], 1.0)
    assert np.allclose(lift.eval(0.0), lift.coefficients[0])
    with pytest.raises(ValueError):
        taylor_lift(asm, data, order=7)


def test_taylor_lift_needs_a_generator_polynomial_in_t():
    # b = (t^7/2 - t)(1 - cos x) has degree 7, beyond the Taylor cap of 6: R has no stack
    grid = FourierGrid(4)
    data = [np.ones(grid.N), np.zeros(grid.N), np.zeros(grid.N)]
    with pytest.raises(ValueError, match="polynomial in t"):
        taylor_lift(Assembler(gallery("g_ex22", m=7), None, grid), data, order=2)


# ---------------------------------------------------------------------------
# extension and regularization

def test_extend_model_certifies_global_condition():
    rep = extend_model(gallery("g_E"), (-1.0, 1.0))
    assert rep.delta_local > 0
    assert rep.delta_global > 0
    assert math.pow(2.0, round(math.log2(rep.M))) == rep.M


def test_extend_model_rejects_bad_local_model():
    # the window's corner (t, x) = (T, pi/4) lies on g_ex21p's double-root curve
    # t = 2 sin^2 x, so the measured ratio falls under the floor 1e-8
    with pytest.raises(ModelError):
        extend_model(gallery("g_ex21p"), (math.pi / 4, math.pi / 2))
    with pytest.raises(ValueError):
        extend_model(gallery("g_E"), (1.0, -1.0))


def test_regularize_sweep_is_stable():
    base = gallery("g_E")
    lot = LowerOrderTerms.random_trig(7, amplitude=0.5)
    eps_list = (1e-1, 1e-2, 1e-3)
    rep = regularize_sweep(base, lot, eps_list, grid_k=8, factor=2.0, seed=0)
    assert rep.passed
    assert rep.stable_within <= 2.0
    assert [r.eps for r in rep.rows] == list(eps_list)
    assert all(r.fp_delta is not None for r in rep.rows)


def test_regularize_sweep_rows_are_the_g_eps_models(monkeypatch):
    models = []
    real = evolution.check_condition

    def recording(model, *args, **kwargs):
        models.append(model)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(evolution, "check_condition", recording)
    base = gallery("g_E", eps=0.4)
    eps_list = (1e-1, 2.5e-3)
    regularize_sweep(base, None, eps_list, grid_k=6, seed=0)
    assert len(models) == len(eps_list)
    for model, eps in zip(models, eps_list):
        want = gallery("g_eps", base=base, eps=eps)
        assert model == want and model.name == want.name == f"g_eps(g_E(eps=0.4),{eps:g})"


# ---------------------------------------------------------------------------
# assembler internals

def _direct_generator(model, lot, t, grid):
    """Dense M(t) = A <D> + B from A_entries and Weyl quantization at t itself."""
    op = lambda expr: op_weyl(expr, t, grid)
    jp = grid.jp_values
    rows = A_entries(op(model.a_expr) * jp, op(model.b) * jp, jp)
    rows[0] = [op(lot.b10), rows[0][1] + op(lot.b11), rows[0][2] + op(lot.b12)]
    return BlockOp.from_blocks(rows, grid).matrix


def _direct_herm_S(model, t, grid):
    """Herm Op(S)(t) from S's symbols quantized at t itself."""
    S = block_weyl(S_symbols(model), t, grid).matrix
    return 0.5 * (S + S.conj().T)


def test_assembler_matches_direct_quantization():
    # the Assembler combines Taylor-in-t bases quantized once at t = 0; the
    # reference quantizes every symbol afresh at each t
    model = gallery("g_ex22", m=3)
    lot = LowerOrderTerms.random_trig(12, amplitude=0.4)
    grid = FourierGrid(5)
    asm = Assembler(model, lot, grid)
    for t in (0.07, 0.4, 0.9):
        direct = _direct_generator(model, lot, t, grid)
        cached = asm.apply(t, np.eye(3 * grid.N))
        assert np.allclose(cached, direct, atol=1e-11 * operator_norm(direct))
        # the energy matrix against S quantized afresh at t
        H_S = _direct_herm_S(model, t, grid)
        assert np.allclose(asm.S(t), H_S, atol=1e-13 * operator_norm(H_S))


GALLERY = ("g_strict", "g_zero_b", "g_E", "g_ex21p", "g_ex21m", "g_ex22")
LOTS = {"zero": LowerOrderTerms.zero(), "trig": LowerOrderTerms.random_trig(13, amplitude=0.4)}


def _rel(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("lot_name", sorted(LOTS))
@pytest.mark.parametrize("name", GALLERY)
def test_apply_matches_the_dense_generator(name, lot_name):
    model = gallery(name)
    rng = np.random.default_rng(14)
    for K in (8, 16):
        grid = FourierGrid(K, model.period)
        asm = Assembler(model, LOTS[lot_name], grid)
        for t in (0.1, 0.7):
            gen = _direct_generator(model, LOTS[lot_name], t, grid)
            for shape in ((3 * grid.N,), (3 * grid.N, 4)):
                V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                assert _rel(asm.apply(t, V), gen @ V) <= 1e-13


@pytest.mark.parametrize("name", GALLERY)
def test_energy_form_matches_the_dense_energy(name):
    model = gallery(name)
    grid = FourierGrid(8, model.period)
    asm = Assembler(model, LOTS["trig"], grid)
    rng = np.random.default_rng(15)
    V = rng.standard_normal((3 * grid.N, 3)) + 1j * rng.standard_normal((3 * grid.N, 3))
    jp_inv2 = np.concatenate([grid.jp_values**-2.0] * 3)
    for t in (0.1, 0.7):
        for lam in (0.0, 2.0):
            Stilde = asm.S(t) + np.diag((lam / t) * jp_inv2)
            for col in range(V.shape[1]):
                u = V[:, col]
                dense = float(np.real(np.vdot(u, Stilde @ u)))
                assert asm.energy_rate(t, u, u, lam)[0] == pytest.approx(dense, rel=1e-13)


def _lam_by_eigensolves(model, grid, eps_start, T):
    """The energy shift as the constants search took it before c_star: 7 dense
    eigensolves of <D> Herm Op(S) <D>, lam = 2^ceil(log2(2 lam_need))."""
    S = Assembler(model, None, grid).S
    jp = np.concatenate([grid.jp_values] * 3)
    lam_need = 0.0
    for t in np.geomspace(eps_start, T, 7):
        sym = jp[:, None] * S(t) * jp[None, :]
        lam_need = max(lam_need, 2.0 * t * max(0.0, -float(np.linalg.eigvalsh(sym)[0])))
    return 2.0 ** math.ceil(math.log2(2.0 * lam_need)) if lam_need > 0 else 1.0


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(GALLERY),
       m=st.integers(3, 8), K=st.integers(2, 8), eps_start=st.floats(1e-3, 0.2),
       T=st.floats(0.3, 1.0))
def test_energy_shift_matches_the_eigensolve_loop(name, m, K, eps_start, T):
    # m = 7 and 8 put g_ex22 past the Taylor cap, on the per-t path
    model = gallery(name, m=m) if name == "g_ex22" else gallery(name)
    grid = FourierGrid(K)
    consts = search_energy_constants(model, None, grid, U0=seeded_state(grid, 0),
                                     eps_start=eps_start, T=T)
    assert consts.lam == _lam_by_eigensolves(model, grid, eps_start, T)


@pytest.mark.parametrize("K", (8, 16))
def test_energy_shift_needs_no_eigensolve_on_the_gallery(monkeypatch, K):
    # Herm Op(S) + (C/t) <D>^-2 is positive at C = 0 on every gallery model, so a
    # Cholesky factorization settles each of the 7 times
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or real(*a, **k))
    for name in GALLERY:
        grid = FourierGrid(K, gallery(name).period)
        consts = search_energy_constants(gallery(name), LOTS["trig"], grid,
                                         U0=seeded_state(grid, 0))
        assert consts.lam == 1.0
    assert calls == []


def test_non_polynomial_symbols_fall_back_to_the_dense_path():
    # b = (t^8/2 - t)(1 - cos x) has degree 8, beyond the Taylor cap of 6
    model = gallery("g_ex22", m=8)
    lot = LOTS["trig"]
    grid = FourierGrid(6)
    asm = Assembler(model, lot, grid)
    assert asm.R.stack is None and asm.S.stack is None
    rng = np.random.default_rng(16)
    V = rng.standard_normal((3 * grid.N, 2)) + 1j * rng.standard_normal((3 * grid.N, 2))
    for t in (0.1, 0.7):
        direct = _direct_generator(model, lot, t, grid)
        assert _rel(asm.apply(t, V), direct @ V) <= 1e-13
        H_S = _direct_herm_S(model, t, grid)
        assert _rel(asm.S(t), H_S) <= 1e-13
        u = V[:, 0]
        assert asm.energy_rate(t, u, u)[0] == pytest.approx(float(np.real(np.vdot(u, H_S @ u))), rel=1e-12)
        assert _rel(asm.R(t), direct[: grid.N]) <= 1e-13
    # S keeps its stacks about the last two (t, rate) keys: F(0.7), and F(0.7) with F'(0.7)
    assert sorted(asm.S._recent) == [(0.7, False), (0.7, True)] and asm.S._cols is None
    # an RK4 step asks for three times; the layout keeps R of the last two
    _rk4(V, 0.2, 0.1, asm.apply, 1j * asm.apply(0.2, V))
    assert sorted(asm.R._recent) == [(0.2 + 0.05, False), (0.2 + 0.1, False)]


def test_taylor_stacks_cover_polynomials_up_to_the_cap():
    grid = FourierGrid(4)
    asm = Assembler(gallery("g_ex22", m=6), None, grid)
    assert asm.R.stack is not None and asm.S.stack is not None
    asm = Assembler(gallery("g_ex22", m=7), None, grid)
    assert asm.R.stack is None and asm.S.stack is None


def test_polynomial_models_evolve_without_dense_matrices(monkeypatch):
    def dense(*args):
        raise AssertionError("dense matrix built on the RK4 path")

    def product_only(self, t, V=None):
        return dense() if V is None else real_call(self, t, V)

    real_call = Layout.__call__
    monkeypatch.setattr(TaylorOps, "local", dense)  # no symbol is quantized at t
    monkeypatch.setattr(Layout, "__call__", product_only)
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(17, amplitude=0.4)
    grid = FourierGrid(8)
    trace, _ = evolve(model, lot, seeded_state(grid, 18), EvolveConfig(T=0.5, lam=2.0), grid)
    assert np.all(np.isfinite(trace.E)) and np.all(trace.Q > 0)
    assert np.isfinite(loss_probe(model, lot, grid, EvolveConfig(T=0.5), (2, 4)).exponent)


def test_tiny_steps_are_counted_without_being_built(monkeypatch):
    # 9.9e8 and 9.9e299 steps exceed MAX_STEPS: the march refuses before its first step
    def no_step(*args):
        raise AssertionError("RK4 step taken")

    monkeypatch.setattr(evolution, "_rk4", no_step)
    grid = FourierGrid(4)
    for dt, n in ((1e-9, "9.9e+08"), (1e-300, "9.9e+299")):
        with pytest.raises(ValueError, match=f"h = {dt:.3g} needs n = {re.escape(n)} RK4 steps"):
            evolve(gallery("g_E"), None, seeded_state(grid, 0), EvolveConfig(dt=dt), grid)
    assert evolution.MAX_STEPS >= 822  # c06's dt/8 run at K=16, the largest count taken


def test_step_points_are_those_of_the_step_list():
    # t_i = min(eps + i h, T) as Python floats: the one time of the sample after step i - 1
    # and of step i's start, so the reused first stage is the slope at the step's start
    grid = FourierGrid(6)
    asm = Assembler(gallery("g_E"), None, grid)
    for cfg in (EvolveConfig(), EvolveConfig(dt=0.07, T=0.9), EvolveConfig(dt_scale=0.125)):
        h = (cfg.dt if cfg.dt is not None else asm.cfl_dt(cfg.cfl)) * cfg.dt_scale
        n = max(1, math.ceil((cfg.T - cfg.eps_start) / h - 1e-12))
        want = [cfg.eps_start] + [min(cfg.eps_start + h * i, cfg.T) for i in range(1, n + 1)]
        trace, _ = evolve(gallery("g_E"), None, seeded_state(grid, 0), cfg, grid, assembler=asm)
        assert trace.t.tolist() == want


def test_loss_probe_and_evolve_share_one_march():
    # loss_probe's growth of mode k is the largest evolve norm of the same single-mode state
    model, grid = gallery("g_E"), FourierGrid(8)
    lot = LowerOrderTerms.random_trig(20)
    cfg = EvolveConfig()
    rep = loss_probe(model, lot, grid, cfg, (2, 4))
    for k, growth in zip(rep.modes, rep.growth):
        U0 = np.zeros(3 * grid.N, dtype=complex)
        U0[[i * grid.N + k + grid.K for i in range(3)]] = 1.0 / math.sqrt(3.0)
        trace, _ = evolve(model, lot, U0, cfg, grid)
        assert not trace.aborted
        assert growth == pytest.approx(float(np.max(trace.norm)), rel=1e-12)


def test_integration_past_the_model_horizon_is_rejected():
    model = gallery("g_ex22", m=3)  # validated on [0, 1]; its discriminant is negative later
    grid = FourierGrid(4)
    cfg = EvolveConfig(T=3.0)
    with pytest.raises(ValueError, match="horizon"):
        evolve(model, None, seeded_state(grid, 19), cfg, grid)
    with pytest.raises(ValueError, match="horizon"):
        loss_probe(model, None, grid, cfg, (1, 2))
    with pytest.raises(ValueError, match="horizon"):
        search_energy_constants(model, None, grid, U0=seeded_state(grid, 19), T=3.0)
    with pytest.raises(ValueError, match="eps_start < T"):
        evolve(model, None, seeded_state(grid, 19), EvolveConfig(T=math.nan), grid)
    with pytest.raises(ValueError, match="finite"):
        search_energy_constants(model, None, grid, U0=seeded_state(grid, 19), T=math.inf)
    for bad in (dict(eps_start=math.nan), dict(dt=math.nan), dict(dt=math.inf)):
        with pytest.raises(ValueError, match="eps_start|dt"):
            search_energy_constants(model, None, grid, U0=seeded_state(grid, 19), **bad)
    longer = gallery("g_E", T=2.0)
    trace, _ = evolve(longer, None, seeded_state(grid, 19), EvolveConfig(T=1.5), grid)
    assert trace.t[-1] == pytest.approx(1.5)
