"""Time integration, energy margins, cutoff/partition checks, lifts, sweeps."""

import math

import numpy as np
import pytest

from triplex.evolution import (
    Assembler,
    EvolveConfig,
    assemble_generator,
    energy_margins,
    evolve,
    extend_model,
    frequency_cutoff_check,
    loss_probe,
    margin_deviation,
    mode_state,
    partition_sos,
    regularize_sweep,
    search_energy_constants,
    step,
    taylor_lift,
    window_expr,
)
from triplex.models import LowerOrderTerms, ModelError, gallery
from triplex.quantize import FourierGrid, operator_norm


def _unit_state(grid, seed):
    rng = np.random.default_rng(seed)
    U0 = rng.standard_normal(3 * grid.N) + 1j * rng.standard_normal(3 * grid.N)
    return U0 / np.linalg.norm(U0)


# ---------------------------------------------------------------------------
# generator and stepping

def test_generator_blocks_express_the_first_order_system():
    # rows: dU1 = a jp U2 + b jp U3 + lower order, dU2 = jp U1, dU3 = jp U2
    model = gallery("g_strict")  # a independent of x: all blocks diagonal
    grid = FourierGrid(4)
    t = 0.4
    gen = assemble_generator(model, LowerOrderTerms.zero(), t, grid).matrix
    N = grid.N
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
    U0 = _unit_state(grid, 0)
    t0, H = 0.2, 0.1

    def march(n):
        U = U0.copy()
        h = H / n
        t = t0
        for _ in range(n):
            U = step(U, t, h, model, lot, grid)
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
    trace, U = evolve(model, LowerOrderTerms.zero(), _unit_state(grid, 1), cfg, grid)
    assert trace.t[0] == pytest.approx(1e-2)
    assert trace.t[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(trace.t) > 0)
    assert not trace.aborted
    assert U.shape == (3 * grid.N,)
    assert np.all(np.isfinite(trace.E))


def test_evolve_flags_runaway_growth():
    model = gallery("g_E")
    grid = FourierGrid(4)
    cfg = EvolveConfig(eps_start=1e-2, T=1.0, growth_abort=1.0 + 1e-9)
    trace, _ = evolve(model, LowerOrderTerms.zero(), _unit_state(grid, 2), cfg, grid)
    assert trace.aborted
    assert len(trace.t) >= 1


def test_forced_evolution_adds_energy():
    model = gallery("g_strict")
    grid = FourierGrid(4)
    cfg = EvolveConfig(eps_start=0.1, T=0.6)
    U0 = _unit_state(grid, 3)
    F = np.zeros(3 * grid.N, dtype=complex)
    F[grid.K] = 1.0

    trace_free, _ = evolve(model, None, U0, cfg, grid)
    trace_forced, _ = evolve(model, None, U0, cfg, grid, F=lambda t: F)
    assert trace_forced.norm[-1] != pytest.approx(trace_free.norm[-1], rel=1e-6)
    assert np.any(trace_forced.Fterm > 0)


# ---------------------------------------------------------------------------
# energy margins

def test_energy_margins_pass_with_searched_constants():
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(4, amplitude=0.5)
    grid = FourierGrid(8)
    U0 = _unit_state(grid, 5)
    consts = search_energy_constants(model, lot, grid, U0=U0)
    cfg = EvolveConfig(n_weight=consts.n_weight, n_star=consts.n_star,
                       gamma=consts.gamma, lam=consts.lam)
    trace, _ = evolve(model, lot, U0, cfg, grid)
    rep = energy_margins(trace)
    assert rep.passed
    assert rep.min_margin >= -rep.tol
    assert len(rep.margins) == len(trace.t) - 1
    assert math.pow(2.0, round(math.log2(consts.lam))) == consts.lam
    assert consts.n_star >= 0.0


def test_margin_deviation_contracts_with_dt():
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(4, amplitude=0.5)
    grid = FourierGrid(8)
    U0 = _unit_state(grid, 5)
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


def test_margin_report_integral_form():
    model = gallery("g_strict")
    grid = FourierGrid(6)
    trace, _ = evolve(model, None, _unit_state(grid, 6),
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


def test_partition_squares_sum_to_one():
    windows = [(0.0, 2.5), (2.0, 4.5), (4.0, 2 * math.pi + 0.5)]
    rep = partition_sos(windows)
    assert rep.sos_max_dev <= 1e-12
    # plateau overlap keeps the weight sums pinned near one everywhere
    assert rep.covering_min >= 0.9
    sharper = partition_sos(windows, beta_scale=6.0)
    assert sharper.covering_min >= rep.covering_min


def test_partition_commutators_resolved_band_is_bounded():
    windows = [(0.0, 2.5), (2.0, 4.5), (4.0, 2 * math.pi + 0.5)]
    model = gallery("g_E")
    rep = partition_sos(windows, model=model, lot=LowerOrderTerms.zero(),
                        K_list=(16, 32, 64))
    resolved = [max(rep.commutator_norms[k]) for k in (16, 32, 64)]
    plain = [max(rep.commutator_norms_plain[k]) for k in (16, 32, 64)]
    assert max(resolved) / min(resolved) <= 3.0
    # the unrestricted norms pick up the truncation edge and keep growing
    assert plain[2] > plain[0]


def test_window_expr_is_a_plateau():
    chi = window_expr(math.pi, 1.0, 2.0, beta_scale=8.0)
    xs = np.array([math.pi, math.pi - 0.5, math.pi + 0.5])
    vals = np.asarray(chi.evaluate(0.0, xs, 0.0))
    assert np.all(vals > 0.99)
    far = np.asarray(chi.evaluate(0.0, np.array([0.0, 2 * math.pi]), 0.0))
    assert np.all(np.abs(far) < 1e-6)


# ---------------------------------------------------------------------------
# Taylor lift

def test_taylor_lift_matches_short_evolution():
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(9, amplitude=0.3)
    grid = FourierGrid(6)
    rng = np.random.default_rng(10)
    data = [rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
            for _ in range(3)]
    lift = taylor_lift(model, lot, data, order=5, grid=grid)

    # residual of the generator equation at small t has the lift's order
    def residual(t):
        gen = assemble_generator(model, lot, t, grid).matrix
        return np.linalg.norm(lift.deriv(t, 1) - gen @ lift.eval(t))

    r1, r2 = residual(2e-3), residual(1e-3)
    ratio = r1 / r2
    assert 2.0 ** 4.5 <= ratio <= 2.0 ** 5.5


def test_taylor_lift_zeroth_coefficient_is_the_data():
    model = gallery("g_zero_b")
    grid = FourierGrid(4)
    data = [np.ones(grid.N), np.zeros(grid.N), np.zeros(grid.N)]
    lift = taylor_lift(model, None, data, order=2, grid=grid)
    assert np.allclose(lift.coefficients[0][: grid.N], 1.0)
    assert np.allclose(lift.eval(0.0), lift.coefficients[0])
    with pytest.raises(ValueError):
        taylor_lift(model, None, data, order=7, grid=grid)


# ---------------------------------------------------------------------------
# extension and regularization

def test_extend_model_certifies_global_condition():
    rep = extend_model(gallery("g_E"), (-1.0, 1.0))
    assert rep.delta_local > 0
    assert rep.delta_global > 0
    assert math.pow(2.0, round(math.log2(rep.M))) == rep.M


def test_extend_model_rejects_bad_local_model():
    # the contact degeneracy inside the window caps the measured ratio well
    # under the requested floor
    with pytest.raises(ModelError):
        extend_model(gallery("g_ex21p"), (0.5, 2.5), delta_floor=1e-3)
    with pytest.raises(ValueError):
        extend_model(gallery("g_E"), (1.0, -1.0))


def test_regularize_sweep_is_stable_and_thread_invariant():
    base = gallery("g_E")
    lot = LowerOrderTerms.random_trig(7, amplitude=0.5)
    eps_list = (1e-1, 1e-2, 1e-3)
    serial = regularize_sweep(base, lot, eps_list, grid_k=8, factor=2.0, seed=0)
    threaded = regularize_sweep(base, lot, eps_list, grid_k=8, factor=2.0,
                                seed=0, workers=2)
    assert serial.rows == threaded.rows
    assert serial.passed
    assert serial.stable_within <= 2.0
    assert [r.eps for r in serial.rows] == list(eps_list)
    assert all(r.fp_delta is not None for r in serial.rows)


# ---------------------------------------------------------------------------
# assembler internals

def test_assembler_matches_direct_quantization():
    model = gallery("g_ex22", m=3)
    lot = LowerOrderTerms.random_trig(12, amplitude=0.4)
    grid = FourierGrid(5)
    asm = Assembler(model, lot, grid)
    for t in (0.07, 0.4, 0.9):
        direct = assemble_generator(model, lot, t, grid).matrix
        cached = asm.generator(t)
        assert np.allclose(cached, direct, atol=1e-11 * operator_norm(direct))


def test_mode_state_layout():
    grid = FourierGrid(4)
    sv = mode_state(grid, 2)
    assert sv.norm() == pytest.approx(1.0)
    assert sv.component(0)[2 + grid.K] != 0
    with pytest.raises(ValueError):
        mode_state(grid, 9)
