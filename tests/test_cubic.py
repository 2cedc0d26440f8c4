"""Cubic roots, discriminants, degeneracy condition checkers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex.cubic import (
    Grid3,
    NonHyperbolicError,
    check_beta1_bound,
    check_condition,
    default_condition_grid,
    discriminants,
    glaeser_bounds,
    root_oracle_array,
    roots_trig_array,
)
from triplex.models import gallery


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=-0.999, max_value=0.999),
    st.floats(min_value=1.0, max_value=100.0),
)
def test_roots_match_companion_oracle(a, frac, jp):
    b = frac * math.sqrt(4.0 * a**3 / 27.0)
    got = roots_trig_array(a, b, jp)
    want = root_oracle_array(a, b, jp)
    tol = 1e-9 * (1.0 + math.sqrt(a) * jp)
    assert np.max(np.abs(got - want)) <= tol


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=-0.999, max_value=0.999),
    st.floats(min_value=1.0, max_value=100.0),
)
def test_roots_satisfy_the_cubic(a, frac, jp):
    b = frac * math.sqrt(4.0 * a**3 / 27.0)
    lam = roots_trig_array(a, b, jp)
    residual = lam**3 - a * lam * jp**2 - b * jp**3
    assert np.max(np.abs(residual)) <= 1e-9 * (1.0 + (math.sqrt(a) * jp) ** 3)


def test_double_root_family_is_exact():
    # tau^3 - 3 tau jp^2 - 2 jp^3 = (tau - 2 jp)(tau + jp)^2
    for sgn in (1.0, -1.0):
        for jp in (1.0, 5.0, 64.0):
            lam = roots_trig_array(3.0, 2.0 * sgn, jp)
            want = np.sort([2.0 * sgn * jp, -sgn * jp, -sgn * jp])[::-1]
            assert np.allclose(lam, want, rtol=0, atol=1e-12 * jp)


def test_triple_root_at_origin():
    assert roots_trig_array(0.0, 0.0, 2.0).tolist() == [0.0, 0.0, 0.0]


def test_non_hyperbolic_raises():
    with pytest.raises(NonHyperbolicError):
        roots_trig_array(1.0, 1.0, 1.0)  # 4 - 27 < 0
    with pytest.raises(NonHyperbolicError):
        roots_trig_array(-1.0, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=1.0, max_value=50.0),
)
def test_discriminant_is_shift_invariant(s, a, b, jp):
    # substituting tau -> tau + s leaves the normalized discriminant fixed
    q1 = 3.0 * s
    q2 = 3.0 * s**2 - a * jp**2
    q3 = s**3 - a * jp**2 * s - b * jp**3
    _, _, delta = discriminants(q1, q2, q3, jp)
    reference = 4.0 * a**3 - 27.0 * b**2
    scale = 1.0 + abs(reference) + (abs(s) + math.sqrt(abs(a)) + abs(b)) ** 6
    assert abs(delta - reference) <= 1e-10 * scale


def test_reduced_discriminant_closed_form():
    a, b, jp = 2.0, 0.5, 3.0
    _, _, delta = discriminants(0.0, -a * jp**2, -b * jp**3, jp)
    assert delta == pytest.approx(4.0 * a**3 - 27.0 * b**2, rel=1e-14)


def test_condition_E_value_for_vanishing_b():
    # with b = 0 the ratio delta / (t (t+alpha)^2) has infimum 4 c0^3
    rep = check_condition(gallery("g_zero_b"), "E")
    assert rep.holds
    assert rep.delta_best >= 4.0 * (1.0 - 1e-6)
    assert rep.delta_best == pytest.approx(4.0, rel=1e-3)


def test_condition_E_rejects_contact_degeneracy():
    rep = check_condition(gallery("g_ex21p"), "E")
    assert not rep.holds
    assert rep.delta_best <= 1e-6
    t, x, xi = rep.witness
    # the discriminant vanishes along sin^2 x = t / 2
    assert math.sin(x) ** 2 == pytest.approx(t / 2.0, abs=0.05)


def test_condition_H_weaker_than_E():
    model = gallery("g_E")
    rep_h = check_condition(model, "H")
    rep_e = check_condition(model, "E")
    assert rep_h.holds and rep_e.holds
    # delta_H >= delta_E on t <= T since t^2 (t+alpha) <= t (t+alpha)^2
    assert rep_h.delta_best >= rep_e.delta_best - 1e-12


def test_condition_checker_validates_input():
    with pytest.raises(ValueError):
        check_condition(gallery("g_E"), "Q")


def test_degenerate_family_matches_closed_form():
    # at t = 2 alpha the (E) ratio equals 192 alpha^5 (1 - 8 alpha^5) for m = 6
    model = gallery("g_ex22", m=6)
    for alpha in (0.05, 0.1):
        t = 2.0 * alpha
        x = math.acos(1.0 - math.sqrt(alpha))
        grid = Grid3(t_vals=np.array([t]), x_vals=np.array([x]),
                     xi_vals=np.array([1.0, 8.0]))
        rep = check_condition(model, "E", grid, delta=0.0)
        want = 192.0 * alpha**5 * (1.0 - 8.0 * alpha**5)
        assert rep.delta_best == pytest.approx(want, rel=1e-10)


def test_beta1_bound_recovers_margin_constant():
    # b = t ((1-eps)/sqrt3)(1 - cos x) gives sup |b_t| / sqrt(alpha) exactly
    # (1-eps)/sqrt3, so the largest admissible margin is eps itself
    rep = check_beta1_bound(gallery("g_E", eps=0.25), eps=0.2)
    assert rep.holds
    assert rep.delta_best == pytest.approx(0.25, abs=1e-12)
    assert rep.extras["cross_check_E_holds"]


def test_beta1_bound_fails_for_contact_degeneracy():
    rep = check_beta1_bound(gallery("g_ex21m"), eps=0.5)
    assert not rep.holds


def test_glaeser_ratios_are_finite():
    rep = glaeser_bounds(gallery("g_E"))
    assert np.isfinite(rep.sup_bt_over_sqrt_a)
    assert np.isfinite(rep.sup_first_over_a)
    assert np.isfinite(rep.sup_second_over_sqrt_a)
    assert rep.points_used > 0


def test_root_separation_reports_positive_gaps():
    # a strictly hyperbolic model has simple roots: dp/dtau = 3 lam^2 - a jp^2 != 0
    model, t, x, xi = gallery("g_strict"), 0.5, 1.0, 4.0
    jp = math.sqrt(1.0 + xi**2)
    a, b = model.a_expr.evaluate(t, x, xi), model.b.evaluate(t, x, xi)
    lam = roots_trig_array(a, b, jp)
    assert lam[0] > lam[1] > lam[2]
    assert np.min(np.abs(3.0 * lam**2 - a * jp**2)) > 0


def test_condition_report_serializes():
    rep = check_condition(gallery("g_zero_b"), "E", default_condition_grid(
        gallery("g_zero_b"), nt=8, nx=8, nxi=3))
    d = rep.to_json_dict()
    assert d["condition"] == "E"
    assert isinstance(d["holds"], bool)
    assert "witness" in d and "delta_best" in d
