"""Pointwise fields at their broadcast shape give the full-grid answers, bit for bit.

Each reference below broadcasts every field to all (t, x, xi) grid points
before any arithmetic, the way the checks were once computed, and every
comparison is exact.  XI_MODELS depend on xi, so their fields keep the full
xi axis; no gallery model does.
"""

import math

import numpy as np
import pytest

from triplex.cubic import (
    ConditionReport,
    DerivativeBoundReport,
    Grid3,
    check_beta1_bound,
    check_condition,
    default_condition_grid,
    glaeser_bounds,
)
from triplex.models import (
    GALLERY_NAMES,
    ModelError,
    ValidationReport,
    _coerce,
    _grid_values,
    build_model,
    default_validation_grid,
    gallery,
)
from triplex.symbols import differentiate
from triplex.symmetrizer import (
    DeltaSymReport,
    grid_fields,
    identity_defects,
    lower_bound_delta,
    matrix_J,
    matrix_S,
    pointwise_delta,
)

B_XI = "t * 0.3 * (1 - cos(x)) * xi / jp(xi)"  # hyperbolic: |xi / jp(xi)| < 1
XI_MODELS = {
    "xi_b": dict(alpha="(1 - cos(x))^2", b=B_XI),
    "xi_all": dict(alpha="(1 - cos(x))^2 * (2 - xi / jp(xi))", atilde="1 + t * xi / jp(xi)",
                   b=B_XI),
}
MODELS = [(name, None) for name in GALLERY_NAMES] + list(XI_MODELS.items())

REJECTED = [
    dict(alpha="(1 - cos(x))^2", b="t * 2 * (1 - cos(x))"),
    dict(alpha="(1 - cos(x))^2 + 0.01", b="t * 2 * (1 - cos(x)) * xi / jp(xi)"),
    dict(alpha="cos(x) * xi / jp(xi)"),
    dict(alpha="1", atilde="1 - 0.5 * t * xi / jp(xi)"),
    dict(alpha="1", atilde="1 + (x * 1e200) * (x * 1e200)"),
    dict(alpha="1", b="(t * 1e200) * (xi * 1e200) - (t * 1e200) * (xi * 1e200)"),
]


def _model(name, kwargs):
    return gallery(name) if kwargs is None else build_model(name=name, **kwargs)


def _full_build(alpha, atilde="1", b="0", c0=1.0):
    """build_model's report, or its error message, with every field on the full grid."""
    t, x, xi = default_validation_grid()
    shape = (len(t), len(x), len(xi))

    def values(name, expr, tt):
        vals = np.broadcast_to(_coerce(expr).evaluate(tt[:, None, None], x[None, :, None],
                                                      xi[None, None, :]), shape)
        if not np.all(np.isfinite(vals)):
            i, j, k = np.unravel_index(int(np.argmax(~np.isfinite(vals))), shape)
            raise ModelError(f"{name} = {vals[i, j, k]} is not finite at "
                             f"t = {tt[i]:.6g}, x = {x[j]:.6g}, xi = {xi[k]:.6g}")
        return vals

    try:
        alpha_vals = values("alpha", alpha, np.zeros(len(t)))
        if np.min(alpha_vals) < -1e-12 * (1.0 + float(np.max(np.abs(alpha_vals)))):
            idx = np.unravel_index(np.argmin(alpha_vals), shape)
            return (f"alpha = {float(np.min(alpha_vals)):.3e} < 0 at x = {x[idx[1]]:.6g}, "
                    f"xi = {xi[idx[2]]:.6g}")
        atilde_vals = values("atilde", atilde, t)
        if np.min(atilde_vals) < c0 - 1e-12 * (1.0 + c0):
            idx = np.unravel_index(np.argmin(atilde_vals), shape)
            return (f"atilde = {float(np.min(atilde_vals)):.3e} < c0 = {c0} at t = "
                    f"{t[idx[0]]:.6g}, x = {x[idx[1]]:.6g}, xi = {xi[idx[2]]:.6g}")
        a = (t[:, None, None] + alpha_vals) * atilde_vals
        delta = 4.0 * a**3 - 27.0 * values("b", b, t) ** 2
    except ModelError as exc:
        return str(exc)
    margin = delta + 1e-10 * (1.0 + np.abs(a) ** 3)
    if np.min(margin) < 0:
        idx = np.unravel_index(np.argmin(margin), shape)
        witness = (float(t[idx[0]]), float(x[idx[1]]), float(xi[idx[2]]))
        return (f"discriminant {float(delta[idx]):.6e} < 0 beyond tolerance at "
                f"(t, x, xi) = {witness}")
    return ValidationReport(min_delta_margin=float(np.min(margin)), max_a=float(np.max(a)))


def _full_fields(model, grid):
    """t, alpha, a, b and jp^2 with alpha, a and b broadcast to every grid point first."""
    tg = grid.t_vals[:, None, None]
    xg = grid.x_vals[None, :, None]
    xig = grid.xi_vals[None, None, :]
    shape = grid.shape()
    alpha = np.broadcast_to(model.alpha.evaluate(0.0, xg, xig), shape)
    a = np.broadcast_to((tg + alpha) * model.atilde.evaluate(tg, xg, xig), shape)
    b = np.broadcast_to(model.b.evaluate(tg, xg, xig), shape)
    return tg, alpha, a, b, 1.0 + xig**2


def _full_condition(model, which, grid, delta):
    tg, alpha, a, b, jp2 = _full_fields(model, grid)
    disc = 4.0 * a**3 - 27.0 * b**2
    ratio = disc / (tg**2 * (tg + alpha) if which == "H" else tg * (tg + alpha) ** 2)
    idx = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
    extras = {}
    if which == "E":
        d0 = 3.0 * a * jp2
        extras["min_delta_over_t_d0"] = float(np.min(disc / (tg * d0)))
    min_ratio = float(ratio[idx])
    return ConditionReport(which, float(delta), max(0.0, min_ratio) >= delta, max(0.0, min_ratio),
                           min_ratio, (float(grid.t_vals[idx[0]]), float(grid.x_vals[idx[1]]),
                                       float(grid.xi_vals[idx[2]])), grid.describe(), extras)


def _full_beta1(model, grid, eps=0.1):
    shape = (len(grid.x_vals), len(grid.xi_vals))
    xg, xig = grid.x_vals[:, None], grid.xi_vals[None, :]
    alpha = np.broadcast_to(model.alpha.evaluate(0.0, xg, xig), shape)
    beta1 = np.broadcast_to(differentiate(model.b, "t", 1).evaluate(0.0, xg, xig), shape)
    sqrt_alpha = np.sqrt(np.maximum(alpha, 0.0))
    ratio = np.where(sqrt_alpha > 0, np.abs(beta1) / np.where(sqrt_alpha > 0, sqrt_alpha, 1.0),
                     np.where(np.abs(beta1) <= 1e-12, 0.0, np.inf))
    eps_best = 1.0 - math.sqrt(3.0) * float(np.max(ratio))
    extras = {"sup_beta1_over_sqrt_alpha": float(np.max(ratio))}
    if eps_best >= eps:
        small = Grid3(np.linspace(1e-3 * model.T, 0.1 * model.T, 16), grid.x_vals, grid.xi_vals)
        cross = _full_condition(model, "E", small, 0.0)
        extras["cross_check_E_delta_best"] = cross.delta_best
        extras["cross_check_E_holds"] = bool(cross.delta_best > 0)
    idx = np.unravel_index(int(np.argmax(ratio)), shape)
    return ConditionReport("beta1", eps, eps_best >= eps, max(0.0, eps_best), eps_best,
                           (0.0, float(grid.x_vals[idx[0]]), float(grid.xi_vals[idx[1]])),
                           grid.describe(), extras)


def _full_glaeser(model, grid):
    tg, _, a, _, _ = _full_fields(model, grid)
    xg, xig = grid.x_vals[None, :, None], grid.xi_vals[None, None, :]

    def ev(expr):
        return np.broadcast_to(expr.evaluate(tg, xg, xig), a.shape)

    b = model.b
    bt, bx, bxi = (ev(differentiate(b, v, 1)) for v in ("t", "x", "xi"))
    bxx, bxixi = ev(differentiate(b, "x", 2)), ev(differentiate(b, "xi", 2))
    bxxi = ev(differentiate(differentiate(b, "x", 1), "xi", 1))
    mask = a > 1e-8
    sqrt_a = np.sqrt(a[mask])
    first = np.maximum(np.abs(bx[mask]), np.abs(bxi[mask]))
    second = np.maximum(np.abs(bxx[mask]), np.maximum(np.abs(bxxi[mask]), np.abs(bxixi[mask])))
    return DerivativeBoundReport(float(np.max(np.abs(bt[mask]) / sqrt_a)),
                                 float(np.max(first / a[mask])), float(np.max(second / sqrt_a)),
                                 int(mask.sum()))


def _full_lower_bound_delta(model, grid, tol=1e-10):
    t, alpha, a, b, _ = _full_fields(model, grid)
    S = matrix_S(a, b)
    scale = 1.0 + a**2 + b**2 + (t + alpha) ** 2
    tJ = 2.0 * t[..., None, None] * matrix_J(a)

    def feasible(delta):
        return bool(np.all(np.linalg.eigvalsh(S - delta * tJ)[..., 0] >= -tol * scale))

    if not feasible(1e-8):
        return DeltaSymReport(0.0, False, tol)
    feasible_one = feasible(1.0)
    lo, hi = (1.0, 2.0**31) if feasible_one else (1e-8, 1.0)
    delta = min(max(float(np.min(pointwise_delta(S, a, t))), lo), hi)
    return DeltaSymReport(delta, feasible_one, tol)


@pytest.mark.parametrize("name, kwargs", MODELS)
def test_grid_fields_keep_a_xi_axis_only_where_a_coefficient_has_one(name, kwargs):
    model = _model(name, kwargs)
    grid = default_condition_grid(model, nt=16, nx=16, nxi=5)
    t, alpha, a, b, jp2 = grid_fields(model, grid)
    want = (16, 16, 1) if kwargs is None else (16, 16, 5)
    assert alpha.shape == a.shape == b.shape == want
    assert t.shape == (16, 1, 1) and jp2.shape == (1, 1, 5)
    vx = default_validation_grid()
    assert _grid_values("b", model.b, *vx).shape[2] == (1 if kwargs is None else len(vx[2]))


@pytest.mark.parametrize("name, kwargs", MODELS)
def test_build_model_report_matches_the_full_grid(name, kwargs):
    model = _model(name, kwargs)
    assert model.report == _full_build(model.alpha, model.atilde, model.b, model.c0)


@pytest.mark.parametrize("kwargs", REJECTED)
def test_a_rejected_model_names_the_full_grid_witness(kwargs):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ModelError) as exc:
        build_model(**kwargs)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _full_build(**kwargs)
    assert isinstance(want, str) and str(exc.value) == want


@pytest.mark.parametrize("name, kwargs", MODELS)
@pytest.mark.parametrize("which", ["H", "E"])
def test_check_condition_matches_the_full_grid(name, kwargs, which):
    model = _model(name, kwargs)
    grid = default_condition_grid(model)
    assert check_condition(model, which, grid) == _full_condition(model, which, grid, 1e-6)


@pytest.mark.parametrize("name, kwargs", MODELS)
def test_beta1_glaeser_and_symmetrizer_match_the_full_grid(name, kwargs):
    model = _model(name, kwargs)
    grid = default_condition_grid(model)
    assert check_beta1_bound(model, grid) == _full_beta1(model, grid)
    assert glaeser_bounds(model, grid) == _full_glaeser(model, grid)
    small = default_condition_grid(model, nt=16, nx=16, nxi=5)
    assert lower_bound_delta(model, small) == _full_lower_bound_delta(model, small)
    assert identity_defects(*grid_fields(model, small)[:4]) == identity_defects(
        *_full_fields(model, small)[:4])
