"""Discriminant and root analysis for the characteristic cubic.

For p(tau) = tau^3 - a tau jp^2 - b jp^3 the reduced discriminant
Delta = 4 a^3 - 27 b^2 controls hyperbolicity: Delta >= 0 gives three real
roots.  Two quantitative degeneracy conditions are checked on grids:

    (H)  Delta >= delta * t^2 * (t + alpha)
    (E)  Delta >= delta * t  * (t + alpha)^2

and a sufficient criterion for (E) in terms of the t-linear coefficient
beta1 = d b/d t |_{t=0}: |beta1| <= ((1 - eps)/sqrt 3) sqrt(alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import HyperbolicModel, discriminant
from .symbols import differentiate
from .symmetrizer import grid_fields

TOL_ROOT = 1e-10


class NonHyperbolicError(Exception):
    """The cubic has a complex pair beyond tolerance."""


def discriminants(q1, q2, q3, jp):
    """Primitive discriminants of tau^3 + q1 tau^2 + q2 tau + q3.

    Returns (d1, d0, delta) with d1 = 27 q3 - 9 q1 q2 + 2 q1^3,
    d0 = q1^2 - 3 q2 and the normalized delta = -(d1^2 - 4 d0^3)/(27 jp^6).
    For the reduced cubic (q1 = 0, q2 = -a jp^2, q3 = -b jp^3) this gives
    delta = 4 a^3 - 27 b^2.
    """
    q1 = np.asarray(q1, dtype=float)
    d1 = 27.0 * q3 - 9.0 * q1 * q2 + 2.0 * q1**3
    d0 = q1**2 - 3.0 * q2
    delta = -(d1**2 - 4.0 * d0**3) / (27.0 * np.asarray(jp, dtype=float) ** 6)
    return d1, d0, delta


def roots_trig_array(a, b, jp):
    """Vectorized real roots of tau^3 - a tau jp^2 - b jp^3, descending.

    Uses the trigonometric form lambda_k = 2 rho cos(theta/3 + 2 pi k/3)
    with rho = (a/3)^(1/2) jp and theta = arccos(3 sqrt3 b / (2 a^(3/2))).
    The arccos argument is clamped when within TOL_ROOT of +-1; beyond that
    the point is non-hyperbolic.  Near-zero (a, b) falls back to the triple
    root (0, 0, 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    jp = np.asarray(jp, dtype=float)
    a, b, jp = np.broadcast_arrays(a, b, jp)
    out = np.empty(a.shape + (3,), dtype=float)

    # degenerate branch: both coefficients at rounding level
    tiny = 1e-12
    degenerate = (np.abs(a) * jp**2 <= tiny) & (np.abs(b) * jp**3 <= tiny)
    bad_a = (a <= 0) & ~degenerate
    if np.any(bad_a):
        idx = np.argwhere(bad_a)[0]
        raise NonHyperbolicError(
            f"a = {a[tuple(idx)]:.3e} <= 0 with b = {b[tuple(idx)]:.3e}"
        )

    safe_a = np.where(degenerate, 1.0, a)
    arg = 3.0 * math.sqrt(3.0) * b / (2.0 * safe_a**1.5)
    over = (np.abs(arg) > 1.0 + TOL_ROOT) & ~degenerate
    if np.any(over):
        idx = tuple(np.argwhere(over)[0])
        raise NonHyperbolicError(
            f"4 a^3 - 27 b^2 = {discriminant(a[idx], b[idx]):.3e} < 0 "
            f"at a = {a[idx]:.6g}, b = {b[idx]:.6g}"
        )
    arg = np.clip(arg, -1.0, 1.0)
    theta = np.arccos(arg)
    rho = np.sqrt(safe_a / 3.0) * jp
    for k in range(3):
        out[..., k] = 2.0 * rho * np.cos(theta / 3.0 + 2.0 * math.pi * k / 3.0)
    out[degenerate, :] = 0.0
    out = np.sort(out, axis=-1)[..., ::-1]
    return out


def root_oracle_array(a, b, jp):
    """Roots via companion-matrix eigenvalues (brute-force oracle)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    jp = np.asarray(jp, dtype=float)
    a, b, jp = np.broadcast_arrays(a, b, jp)
    comp = np.zeros(a.shape + (3, 3))
    comp[..., 1, 0] = 1.0
    comp[..., 2, 1] = 1.0
    comp[..., 0, 2] = b * jp**3   # -q3 for q3 = -b jp^3
    comp[..., 1, 2] = a * jp**2   # -q2
    eigs = np.linalg.eigvals(comp)
    scale = 1.0 + np.max(np.abs(eigs), axis=-1)
    if np.any(np.abs(eigs.imag) > TOL_ROOT * scale[..., None] * 10):
        raise NonHyperbolicError("companion matrix has a complex pair")
    return np.sort(eigs.real, axis=-1)[..., ::-1]


# ---------------------------------------------------------------------------
# grid condition checks

@dataclass(frozen=True)
class Grid3:
    t_vals: np.ndarray
    x_vals: np.ndarray
    xi_vals: np.ndarray

    def shape(self):
        return (len(self.t_vals), len(self.x_vals), len(self.xi_vals))

    def describe(self):
        return {
            "nt": len(self.t_vals),
            "nx": len(self.x_vals),
            "nxi": len(self.xi_vals),
            "t_range": [float(self.t_vals[0]), float(self.t_vals[-1])],
            "xi_range": [float(self.xi_vals[0]), float(self.xi_vals[-1])],
        }


def default_condition_grid(model: HyperbolicModel, nt=64, nx=64, nxi=17, t_min=None):
    """Product grid excluding t = 0; smallest t defaults to 1e-3 * T."""
    if t_min is None:
        t_min = 1e-3 * model.T
    return Grid3(
        t_vals=np.linspace(t_min, model.T, nt),
        x_vals=np.linspace(0.0, model.period, nx, endpoint=False),
        xi_vals=np.logspace(0.0, math.log10(64.0), nxi),
    )


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    requested_delta: float
    holds: bool
    delta_best: float
    min_ratio: float
    witness: tuple
    grid: dict
    extras: dict

    def to_json_dict(self):
        return {
            "condition": self.condition,
            "requested_delta": self.requested_delta,
            "holds": self.holds,
            "delta_best": self.delta_best,
            "min_ratio": self.min_ratio,
            "witness": {"t": self.witness[0], "x": self.witness[1], "xi": self.witness[2]},
            "grid": self.grid,
            "extras": self.extras,
        }


def condition_weight(which, t, alpha):
    """The weight that condition (H) or (E) bounds Delta by: t^2 (t + alpha) or t (t + alpha)^2."""
    return t**2 * (t + alpha) if which == "H" else t * (t + alpha) ** 2


def check_condition(model: HyperbolicModel, which, grid=None, delta=1e-6):
    """Grid check of condition (H) or (E).

    delta_best is the min over the grid of Delta / (t^2 (t + alpha)) for (H)
    or Delta / (t (t + alpha)^2) for (E), clamped at 0; holds means
    delta_best >= delta.  The witness is the minimizing grid point.
    """
    if which not in ("H", "E"):
        raise ValueError("which must be 'H' or 'E'")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be a finite number, got {delta}")
    if grid is None:
        grid = default_condition_grid(model)
    if np.any(grid.t_vals <= 0):
        raise ValueError("condition grid must have t > 0 only")
    tg, alpha, a, b, jp2 = grid_fields(model, grid)
    delta_field = discriminant(a, b)
    ratio = delta_field / condition_weight(which, tg, alpha)
    flat = int(np.argmin(ratio))
    idx = np.unravel_index(flat, ratio.shape)
    min_ratio = float(ratio[idx])
    witness = (
        float(grid.t_vals[idx[0]]),
        float(grid.x_vals[idx[1]]),
        float(grid.xi_vals[idx[2]]),
    )
    extras = {}
    if which == "E":
        # diagnostic only: ratio against t * d0 with d0 = 3 a jp^2, full width
        # since jp^2 varies along xi
        d0 = 3.0 * a * jp2
        extras["min_delta_over_t_d0"] = float(np.min(delta_field / (tg * d0)))
    delta_best = max(0.0, min_ratio)
    return ConditionReport(
        condition=which,
        requested_delta=float(delta),
        holds=bool(delta_best >= delta),
        delta_best=delta_best,
        min_ratio=min_ratio,
        witness=witness,
        grid=grid.describe(),
        extras=extras,
    )


def check_beta1_bound(model: HyperbolicModel, grid=None, eps=0.1):
    """Sufficient criterion for (E): |beta1| <= ((1 - eps)/sqrt 3) sqrt(alpha).

    beta1 = d b/d t at t = 0.  delta_best reports the largest admissible eps
    (1 - sqrt(3) * sup |beta1|/sqrt(alpha)); holds means delta_best >= eps.
    When the bound holds the report cross-checks condition (E) on t <= 0.1 T.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if grid is None:
        grid = default_condition_grid(model)
    xg = grid.x_vals[:, None]
    xig = grid.xi_vals[None, :]
    # at their broadcast shape on the (x, xi) grid, like grid_fields
    alpha, beta1 = np.broadcast_arrays(
        np.atleast_2d(model.alpha.evaluate(0.0, xg, xig)),
        differentiate(model.b, "t", 1).evaluate(0.0, xg, xig))
    sqrt_alpha = np.sqrt(np.maximum(alpha, 0.0))
    ratio = np.where(
        sqrt_alpha > 0,
        np.abs(beta1) / np.where(sqrt_alpha > 0, sqrt_alpha, 1.0),
        np.where(np.abs(beta1) <= 1e-12, 0.0, np.inf),
    )
    sup_ratio = float(np.max(ratio))
    eps_best = 1.0 - math.sqrt(3.0) * sup_ratio
    holds = eps_best >= eps
    extras = {"sup_beta1_over_sqrt_alpha": sup_ratio}
    if holds:
        small = Grid3(
            t_vals=np.linspace(1e-3 * model.T, 0.1 * model.T, 16),
            x_vals=grid.x_vals,
            xi_vals=grid.xi_vals,
        )
        cross = check_condition(model, "E", small, delta=0.0)
        extras["cross_check_E_delta_best"] = cross.delta_best
        extras["cross_check_E_holds"] = bool(cross.delta_best > 0)
    flat = int(np.argmax(ratio))
    idx = np.unravel_index(flat, ratio.shape)
    witness = (0.0, float(grid.x_vals[idx[0]]), float(grid.xi_vals[idx[1]]))
    return ConditionReport(
        condition="beta1",
        requested_delta=float(eps),
        holds=bool(holds),
        delta_best=max(0.0, eps_best),
        min_ratio=eps_best,
        witness=witness,
        grid=grid.describe(),
        extras=extras,
    )


@dataclass(frozen=True)
class DerivativeBoundReport:
    sup_bt_over_sqrt_a: float
    sup_first_over_a: float
    sup_second_over_sqrt_a: float
    points_used: int


def glaeser_bounds(model: HyperbolicModel, grid=None):
    """Measured Glaeser-type ratios for b against powers of a.

    Returns the suprema over grid points with a > 1e-8 of
    |d_t b| / sqrt(a), max(|d_x b|, |d_xi b|) / a and the second
    (x, xi)-derivative magnitudes / sqrt(a).  The fields are compared at
    their common broadcast shape; points_used counts every (t, x, xi) point.
    """
    if grid is None:
        grid = default_condition_grid(model)
    tg, _, a, _, _ = grid_fields(model, grid)
    xg = grid.x_vals[None, :, None]
    xig = grid.xi_vals[None, None, :]
    b_x = differentiate(model.b, "x", 1)
    a, bt, bx, bxi, bxx, bxxi, bxixi = np.broadcast_arrays(a, *(
        expr.evaluate(tg, xg, xig)
        for expr in (differentiate(model.b, "t", 1), b_x, differentiate(model.b, "xi", 1),
                     differentiate(model.b, "x", 2), differentiate(b_x, "xi", 1),
                     differentiate(model.b, "xi", 2))))

    mask = a > 1e-8
    sqrt_a = np.sqrt(a[mask])
    sup_bt = float(np.max(np.abs(bt[mask]) / sqrt_a)) if mask.any() else 0.0
    first = np.maximum(np.abs(bx[mask]), np.abs(bxi[mask]))
    sup_first = float(np.max(first / a[mask])) if mask.any() else 0.0
    second = np.maximum(np.abs(bxx[mask]), np.maximum(np.abs(bxxi[mask]), np.abs(bxixi[mask])))
    sup_second = float(np.max(second / sqrt_a)) if mask.any() else 0.0
    return DerivativeBoundReport(
        sup_bt_over_sqrt_a=sup_bt,
        sup_first_over_a=sup_first,
        sup_second_over_sqrt_a=sup_second,
        points_used=int(mask.sum()) * (math.prod(grid.shape()) // mask.size),
    )
