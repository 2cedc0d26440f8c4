"""Symmetrizer identities: SA symmetry, determinant = discriminant, J bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex.acceptance import GALLERY
from triplex.cubic import default_condition_grid
from triplex.models import gallery
from triplex.symbols import Const
from triplex.symmetrizer import (
    S_symbols,
    grid_fields,
    identity_defects,
    lower_bound_delta,
    matrix_A,
    matrix_J,
    matrix_S,
    pointwise_delta,
)


def _scale(t, alpha, a, b):
    """Matrix tolerance scale 1 + a^2 + b^2 + (t + alpha)^2."""
    return 1.0 + a**2 + b**2 + (t + alpha) ** 2


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
    asym, det = identity_defects(0.5, 0.3, a, b)
    assert asym <= 1e-13
    assert det <= 1e-12
    sa = matrix_S(a, b) @ matrix_A(a, b)
    assert np.max(np.abs(sa - matrix_SA_closed(a, b))) <= 1e-13 * _scale(0.5, 0.3, a, b)


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
    scale = 1.0 + abs(a) ** 3 + b**2
    assert abs(np.linalg.det(matrix_S(a, b)) - (4.0 * a**3 - 27.0 * b**2)) <= 1e-12 * scale


def test_shifted_determinant_remainder_is_order_one():
    # det(S - 2 delta t J) - Delta stays O(delta t (t+alpha)^2) with a
    # modest constant once a = (t + alpha) atilde is consistent (atilde = 1)
    delta = 0.25
    t = np.array([0.5, 0.1, 1.0, 0.01])[:, None]
    alpha = np.array([0.3, 0.01, 2.0, 0.0])[:, None]
    a = np.broadcast_to(t + alpha, (4, 3))
    b = np.array([-0.9, 0.0, 0.9]) * np.sqrt(4.0 * a**3 / 27.0)
    shifted = np.linalg.det(matrix_S(a, b) - 2.0 * delta * t[..., None, None] * matrix_J(a))
    ratio = np.abs(shifted - (4.0 * a**3 - 27.0 * b**2)) / (delta * t * (t + alpha) ** 2)
    assert np.max(ratio) <= 30.0


def test_stilde_shift_makes_min_eig_nonnegative():
    # Stilde = S + lam t^-1 jp^-2 I has min eig >= lam / (2 t jp^2) at every
    # point once lam >= sup 2 t jp^2 max(0, -min eig S); the sample includes
    # non-hyperbolic (a, b), where S has a negative eigenvalue
    rng = np.random.default_rng(7)
    t, alpha = rng.uniform(0.01, 1.0, (2, 200))
    jp2 = 1.0 + rng.uniform(0.0, 64.0, 200) ** 2
    a = (t + alpha) * rng.uniform(1.0, 2.0, 200)
    b = rng.uniform(-2.0, 2.0, 200) * np.sqrt(4.0 * a**3 / 27.0)
    S = matrix_S(a, b)
    lam = float(np.max(2.0 * t * jp2 * np.maximum(0.0, -np.linalg.eigvalsh(S)[..., 0])))
    assert lam > 0.0
    shift = lam / (t * jp2)
    margin = np.linalg.eigvalsh(S + shift[:, None, None] * np.eye(3))[..., 0] - 0.5 * shift
    assert np.min(margin / _scale(t, alpha, a, b)) >= -1e-12


def test_delta_sym_bound_certifies_positivity():
    model = gallery("g_zero_b")
    grid = default_condition_grid(model, nt=16, nx=16, nxi=5)
    rep = lower_bound_delta(model, grid)
    assert rep.delta_sym > 0
    # certificate check: S - 2 delta t J stays PSD at fresh sample points
    for t in (0.1, 0.6):
        for x in (0.3, 2.0, 4.5):
            alpha = model.alpha.evaluate(0.0, x, 3.0)
            a, b = model.a_expr.evaluate(t, x, 3.0), model.b.evaluate(t, x, 3.0)
            shifted = matrix_S(a, b) - 2.0 * rep.delta_sym * t * matrix_J(a)
            assert np.linalg.eigvalsh(shifted)[0] >= -1e-8 * _scale(t, alpha, a, b)


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
    a, b, t = 2.0, 0.5, 0.25
    S, J = matrix_S(a, b), matrix_J(a)
    d = float(pointwise_delta(S, np.float64(a), np.float64(t)))
    assert np.linalg.eigvalsh(S - 2.0 * d * t * J)[0] == pytest.approx(0.0, abs=1e-12)
    assert d > 0
    # where 2tJ vanishes in every direction delta is unbounded; where a = 0 it is 0
    stack = np.stack([S, S, matrix_S(0.0, 0.0)])
    got = pointwise_delta(stack, np.array([a, a, 0.0]), np.array([t, 0.0, 0.5]))
    assert got[0] == pytest.approx(d, rel=1e-14) and got[1] == np.inf and got[2] == 0.0


def test_matrix_shapes_and_J():
    a, b = 2.0, 0.5
    assert np.array_equal(matrix_A(a, b), [[0.0, a, b], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(matrix_S(a, b), [[3.0, 0.0, -a], [0.0, 2 * a, 3 * b], [-a, 3 * b, a * a]])
    assert np.array_equal(matrix_J(a), np.diag([1.0, 1.0, 2.0]))
    stacked = matrix_S(np.full((2, 3), a), np.full((2, 3), b))
    assert stacked.shape == (2, 3, 3, 3) and np.all(stacked == matrix_S(a, b))
