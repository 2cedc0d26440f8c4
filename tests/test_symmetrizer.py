"""Symmetrizer identities: SA symmetry, determinant = discriminant, J bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex.acceptance import GALLERY
from triplex.cubic import default_condition_grid
from triplex.models import LowerOrderTerms, gallery
from triplex.symbols import Const
from triplex.symmetrizer import (
    PointEval,
    S_symbols,
    build_Stilde,
    det_identities,
    det3,
    grid_fields,
    identity_defects,
    lower_bound_delta,
    matrix_A,
    matrix_B,
    matrix_J,
    matrix_S,
    point_eval,
    pointwise_delta,
    stilde_floor,
)


def _pe(a, b, t=0.5, alpha=0.3, xi=2.0):
    return PointEval(t=t, x=0.0, xi=xi, alpha=alpha, atilde=1.0, a=a, b=b,
                     jp=math.sqrt(1.0 + xi**2))


def matrix_SA_closed(a, b):
    """The closed form of S A: [[0, 2a, 3b], [2a, 3b, 0], [3b, 0, -ab]]."""
    return np.array([[0.0, 2.0 * a, 3.0 * b], [2.0 * a, 3.0 * b, 0.0], [3.0 * b, 0.0, -a * b]])


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=50.0),
    st.floats(min_value=-0.999, max_value=0.999),
)
def test_sa_product_is_symmetric_and_closed_form(a, frac):
    b = frac * math.sqrt(4.0 * a**3 / 27.0)
    pe = _pe(a, b)
    asym, det = identity_defects(pe.t, pe.alpha, pe.a, pe.b)
    assert asym <= 1e-13
    assert det <= 1e-12
    sa = matrix_S(a, b) @ matrix_A(a, b)
    assert np.max(np.abs(sa - matrix_SA_closed(a, b))) <= 1e-13 * pe.scale


def test_identity_defects_are_the_worst_point():
    # the stacked helper reports the worst of its pointwise values
    rng = np.random.default_rng(11)
    t, alpha = rng.uniform(0.0, 1.0, (2, 4, 5))
    a = (t + alpha) * rng.uniform(1.0, 2.0, (4, 5))
    b = rng.uniform(-0.9, 0.9, (4, 5)) * np.sqrt(4.0 * a**3 / 27.0)
    per_point = [identity_defects(*v) for v in zip(t.ravel(), alpha.ravel(), a.ravel(), b.ravel())]
    asym, det = identity_defects(t, alpha, a, b)
    assert asym == max(p[0] for p in per_point)
    # batched and single LU factorizations round differently
    assert det == pytest.approx(max(p[1] for p in per_point), abs=1e-14)
    assert asym <= 1e-13 and det <= 1e-12


def test_symbolic_S_matches_the_written_out_layout():
    for name in GALLERY:
        model = gallery(name)
        a, b = model.a_expr, model.b
        assert S_symbols(model) == [
            [Const(3.0), Const(0.0), -a],
            [Const(0.0), Const(2.0) * a, Const(3.0) * b],
            [-a, Const(3.0) * b, a * a],
        ]


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=50.0),
    st.floats(min_value=-0.999, max_value=0.999),
)
def test_det_S_equals_discriminant(a, frac):
    b = frac * math.sqrt(4.0 * a**3 / 27.0)
    pe = _pe(a, b)
    rep = det_identities(pe)
    scale = 1.0 + abs(a) ** 3 + b**2
    assert abs(rep.det_S - rep.delta) <= 1e-12 * scale
    assert np.isfinite(rep.remainder_ratio)


def test_shifted_determinant_remainder_is_order_one():
    # det(S - 2 delta t J) - Delta stays O(delta t (t+alpha)^2) with a
    # modest constant once a = (t + alpha) atilde is consistent (atilde = 1)
    worst = 0.0
    for t, alpha in ((0.5, 0.3), (0.1, 0.01), (1.0, 2.0), (0.01, 0.0)):
        a = t + alpha
        for frac in (-0.9, 0.0, 0.9):
            b = frac * math.sqrt(4.0 * a**3 / 27.0)
            rep = det_identities(_pe(a, b, t=t, alpha=alpha), delta=0.25)
            worst = max(worst, rep.remainder_ratio)
    assert worst <= 30.0


def test_point_eval_splits_a():
    model = gallery("g_E")
    pe = point_eval(model, 0.4, 1.2, 3.0)
    assert pe.a == pytest.approx((0.4 + pe.alpha) * pe.atilde, rel=1e-14)
    assert pe.scale >= 1.0
    assert pe.jp == pytest.approx(math.sqrt(10.0), rel=1e-15)


def test_lower_order_matrix_occupies_first_row():
    lot = LowerOrderTerms.random_trig(3, amplitude=0.5)
    B = matrix_B(point_eval(gallery("g_E"), 0.5, 1.0, 2.0), lot)
    assert np.all(B[1:] == 0)
    assert np.any(B[0] != 0)


def test_det3_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        assert det3(m) == pytest.approx(np.linalg.det(m), rel=1e-10, abs=1e-12)


def test_stilde_shift_makes_min_eig_nonnegative():
    model = gallery("g_E")
    grid = default_condition_grid(model, nt=12, nx=12, nxi=5)
    lam = stilde_floor(model, grid)
    assert lam >= 0.0
    for t in (0.05, 0.5, 1.0):
        pe = point_eval(model, t, 2.0, 4.0)
        st_mat = build_Stilde(pe, lam)
        floor = lam / (2.0 * pe.t * pe.jp**2)
        assert np.linalg.eigvalsh(st_mat)[0] >= floor - 1e-10 * pe.scale


def test_stilde_requires_positive_time():
    pe = _pe(1.0, 0.0, t=0.0)
    with pytest.raises(ValueError):
        build_Stilde(pe, 1.0)


def test_delta_sym_bound_certifies_positivity():
    model = gallery("g_zero_b")
    grid = default_condition_grid(model, nt=16, nx=16, nxi=5)
    rep = lower_bound_delta(model, grid)
    assert rep.delta_sym > 0
    # certificate check: S - 2 delta t J stays PSD at fresh sample points
    for t in (0.1, 0.6):
        for x in (0.3, 2.0, 4.5):
            pe = point_eval(model, t, x, 3.0)
            shifted = matrix_S(pe.a, pe.b) - 2.0 * rep.delta_sym * t * matrix_J(pe.a)
            assert np.linalg.eigvalsh(shifted)[0] >= -1e-8 * pe.scale


def test_delta_sym_decreases_with_degeneracy():
    grid_kw = dict(nt=12, nx=12, nxi=5)
    strict = gallery("g_strict")
    degen = gallery("g_zero_b")
    rep_strict = lower_bound_delta(strict, default_condition_grid(strict, **grid_kw))
    rep_degen = lower_bound_delta(degen, default_condition_grid(degen, **grid_kw))
    assert rep_strict.delta_sym >= rep_degen.delta_sym


def _delta_feasible(model, grid, tol=1e-10):
    t, alpha, a, b, _ = grid_fields(model, grid)
    S = matrix_S(a, b)
    scale = 1.0 + a**2 + b**2 + (t + alpha) ** 2
    tJ = 2.0 * t[..., None, None] * matrix_J(a)
    return lambda delta: bool(np.all(np.linalg.eigvalsh(S - delta * tJ)[..., 0] >= -tol * scale))


def _delta_by_bisection(feasible, rel=1e-4):
    """Largest feasible delta to rel, bracketed as [1e-8, 1] or [1, 2^31]."""
    if not feasible(1e-8):
        return 0.0
    lo, hi = 1e-8, 1.0
    if feasible(1.0):
        lo = 1.0
        while feasible(2.0 * lo):
            lo *= 2.0
            if lo > 2.0**30:
                return lo
        hi = 2.0 * lo
    while hi - lo > rel * lo:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo


DELTA_MODELS = [(name, {}) for name in GALLERY] + [("g_E", {"eps": 0.15}), ("g_E", {"eps": 0.85})]


@pytest.mark.parametrize("name, params", DELTA_MODELS)
def test_delta_sym_is_the_largest_feasible_delta(name, params):
    model = gallery(name, **params)
    grid = default_condition_grid(model, nt=16, nx=16, nxi=5)
    feasible = _delta_feasible(model, grid)
    rep = lower_bound_delta(model, grid)
    if name == "g_ex21p":
        assert rep.delta_sym == 0.0
    if rep.delta_sym == 0.0:
        assert not feasible(1e-8)
    else:
        assert feasible(rep.delta_sym)
        assert not feasible(rep.delta_sym * (1.0 + 1.01e-4))
    assert rep.feasible_at_one == feasible(1.0)
    assert rep.delta_sym == pytest.approx(_delta_by_bisection(feasible), rel=1e-4)


def test_lower_bound_delta_needs_at_most_three_eigensolves(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or real(*a, **k))
    for name in GALLERY:
        model = gallery(name)
        calls.clear()
        lower_bound_delta(model, default_condition_grid(model, nt=16, nx=16, nxi=5))
        assert len(calls) <= 3


def test_pointwise_delta_is_the_generalized_eigenvalue():
    pe = _pe(2.0, 0.5, t=0.25)
    S, J = matrix_S(pe.a, pe.b), matrix_J(pe.a)
    d = float(pointwise_delta(S, np.float64(pe.a), np.float64(pe.t)))
    assert np.linalg.eigvalsh(S - 2.0 * d * pe.t * J)[0] == pytest.approx(0.0, abs=1e-12)
    assert d > 0
    # where 2tJ vanishes in every direction delta is unbounded; where a = 0 it is 0
    stack = np.stack([S, S, matrix_S(0.0, 0.0)])
    got = pointwise_delta(stack, np.array([pe.a, pe.a, 0.0]), np.array([pe.t, 0.0, 0.5]))
    assert got[0] == pytest.approx(d, rel=1e-14) and got[1] == np.inf and got[2] == 0.0


def test_matrix_shapes_and_J():
    a, b = 2.0, 0.5
    assert np.array_equal(matrix_A(a, b), [[0.0, a, b], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(matrix_S(a, b), [[3.0, 0.0, -a], [0.0, 2 * a, 3 * b], [-a, 3 * b, a * a]])
    assert np.array_equal(matrix_J(a), np.diag([1.0, 1.0, 2.0]))
    stacked = matrix_S(np.full((2, 3), a), np.full((2, 3), b))
    assert stacked.shape == (2, 3, 3, 3) and np.all(stacked == matrix_S(a, b))
