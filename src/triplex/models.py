"""Model container for the third-order operator family and its gallery.

The principal symbol studied everywhere in this package is

    p(t, x, tau, xi) = tau^3 - a(t,x,xi) tau jp(xi)^2 - b(t,x,xi) jp(xi)^3

with a = (t + alpha(x,xi)) atilde(t,x,xi), alpha >= 0, atilde >= c0 > 0 and
discriminant Delta = 4 a^3 - 27 b^2 >= 0 (hyperbolicity).  A model bundles
the three coefficient expressions with the time horizon and torus period
and is validated on a (t, x, xi) grid at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .symbols import (
    Const,
    Expr,
    T,
    X,
    ZERO,
    call,
    parse_symbol,
)

TWO_PI = 2.0 * math.pi

GALLERY_NAMES = ("g_strict", "g_zero_b", "g_E", "g_ex21p", "g_ex21m", "g_ex22", "g_eps")


class ModelError(Exception):
    """Base class for model construction errors."""


class PositivityViolation(ModelError):
    """alpha or atilde dips below its floor on the validation grid."""


class HyperbolicityViolation(ModelError):
    """The discriminant goes negative beyond tolerance on the validation grid."""


@dataclass(frozen=True)
class ValidationReport:
    grid_shape: tuple
    t_range: tuple
    xi_range: tuple
    min_alpha: float
    min_atilde: float
    min_delta_margin: float
    delta_witness: tuple
    max_a: float
    max_abs_b: float
    tol: float


@dataclass(frozen=True)
class HyperbolicModel:
    alpha: Expr
    atilde: Expr
    b: Expr
    c0: float = 1.0
    T: float = 1.0
    period: float = TWO_PI
    name: str = "custom"
    report: ValidationReport | None = field(default=None, compare=False)

    @property
    def a_expr(self):
        """Symbol a = (t + alpha) * atilde."""
        return (T + self.alpha) * self.atilde

    def eval_alpha(self, x, xi):
        return self.alpha.evaluate(0.0, x, xi)

    def eval_a(self, t, x, xi):
        return (t + self.alpha.evaluate(0.0, x, xi)) * self.atilde.evaluate(t, x, xi)

    def eval_b(self, t, x, xi):
        return self.b.evaluate(t, x, xi)

    def with_alpha(self, eps):
        """The model with alpha replaced by alpha + eps, named g_eps(name,eps)."""
        return build_model(
            self.alpha + Const(float(eps)),
            atilde=self.atilde,
            b=self.b,
            c0=self.c0,
            T=self.T,
            period=self.period,
            name=f"g_eps({self.name},{eps:g})",
        )


@dataclass(frozen=True)
class LowerOrderTerms:
    """First-row lower-order coefficients (b10, b11, b12), order-0 symbols."""

    b10: Expr
    b11: Expr
    b12: Expr

    @staticmethod
    def zero():
        return LowerOrderTerms(ZERO, ZERO, ZERO)

    @staticmethod
    def random_trig(seed, amplitude=1.0, modes=2):
        """Seeded random real trig polynomials in x with sup norm <= amplitude."""
        rng = np.random.default_rng(seed)
        exprs = []
        for _ in range(3):
            coeffs = rng.uniform(-1.0, 1.0, size=2 * modes + 1)
            total = np.sum(np.abs(coeffs)) or 1.0
            coeffs = coeffs * (amplitude / total)
            e = Const(coeffs[0])
            for m in range(1, modes + 1):
                e = e + Const(coeffs[2 * m - 1]) * call("cos", Const(float(m)) * X)
                e = e + Const(coeffs[2 * m]) * call("sin", Const(float(m)) * X)
            exprs.append(e)
        return LowerOrderTerms(*exprs)


def _coerce(expr):
    if isinstance(expr, str):
        return parse_symbol(expr)
    if isinstance(expr, (int, float)):
        return Const(float(expr))
    if isinstance(expr, Expr):
        return expr
    raise TypeError(f"expected an expression or string, got {type(expr).__name__}")


def default_validation_grid(T=1.0, period=TWO_PI, nt=64, nx=64, nxi=17):
    """Validation grid: t in [0, T], one torus period in x, xi log-spaced in [1, 64]."""
    t = np.linspace(0.0, T, nt)
    x = np.linspace(0.0, period, nx, endpoint=False)
    xi = np.logspace(0.0, math.log10(64.0), nxi)
    return t, x, xi


def _grid_values(name, expr, t, x, xi):
    """expr on the grid t x x x xi as a full array; ModelError where it is inf or nan."""
    vals = np.broadcast_to(expr.evaluate(t[:, None, None], x[None, :, None], xi[None, None, :]),
                           (len(t), len(x), len(xi)))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i, j, k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ModelError(f"{name} = {vals[i, j, k]} is not finite at "
                         f"t = {t[i]:.6g}, x = {x[j]:.6g}, xi = {xi[k]:.6g}")
    return vals


def build_model(alpha, atilde=1.0, b=0.0, c0=1.0, T=1.0, period=TWO_PI, grid=None,
                name="custom"):
    """Validate and build a model from coefficient expressions.

    alpha must not depend on t; on the validation grid alpha, atilde and b
    must be finite, atilde >= c0 and alpha >= 0, and the discriminant
    4 a^3 - 27 b^2 must stay above -tol_val * (1 + |a|^3) with tol_val =
    1e-10.  Violations raise with a witness point.
    """
    alpha = _coerce(alpha)
    atilde = _coerce(atilde)
    b = _coerce(b)
    if "t" in alpha.variables():
        raise ModelError("alpha must be a function of (x, xi) only")
    if not c0 > 0:
        raise ModelError("c0 must be positive")
    if not 0 < T < math.inf:
        raise ModelError("T must be positive and finite")
    if not 0 < period < math.inf:
        raise ModelError("period must be positive and finite")

    if grid is None:
        grid = default_validation_grid(T=T, period=period)
    t_vals, x_vals, xi_vals = (np.asarray(g, dtype=float) for g in grid)
    tg = t_vals[:, None, None]

    alpha_vals = _grid_values("alpha", alpha, np.zeros(1), x_vals, xi_vals)  # alpha has no t
    min_alpha = float(np.min(alpha_vals))
    if min_alpha < -1e-12 * (1.0 + float(np.max(np.abs(alpha_vals)))):
        idx = np.unravel_index(np.argmin(alpha_vals), alpha_vals.shape)
        raise PositivityViolation(
            f"alpha = {min_alpha:.3e} < 0 at x = {x_vals[idx[1]]:.6g}, xi = {xi_vals[idx[2]]:.6g}"
        )

    shape = (len(t_vals), len(x_vals), len(xi_vals))
    atilde_vals = _grid_values("atilde", atilde, t_vals, x_vals, xi_vals)
    min_atilde = float(np.min(atilde_vals))
    if min_atilde < c0 - 1e-12 * (1.0 + c0):
        idx = np.unravel_index(np.argmin(atilde_vals), shape)
        raise PositivityViolation(
            f"atilde = {min_atilde:.3e} < c0 = {c0} at "
            f"t = {t_vals[idx[0]]:.6g}, x = {x_vals[idx[1]]:.6g}, xi = {xi_vals[idx[2]]:.6g}"
        )

    a_vals = (tg + alpha_vals) * atilde_vals
    b_vals = _grid_values("b", b, t_vals, x_vals, xi_vals)
    delta = 4.0 * a_vals**3 - 27.0 * b_vals**2
    tol = 1e-10
    margin = delta + tol * (1.0 + np.abs(a_vals) ** 3)
    min_margin = float(np.min(margin))
    idx = np.unravel_index(np.argmin(margin), shape)
    witness = (float(t_vals[idx[0]]), float(x_vals[idx[1]]), float(xi_vals[idx[2]]))
    if min_margin < 0:
        raise HyperbolicityViolation(
            f"discriminant {float(delta[idx]):.6e} < 0 beyond tolerance at "
            f"(t, x, xi) = {witness}"
        )

    report = ValidationReport(
        grid_shape=shape,
        t_range=(float(t_vals[0]), float(t_vals[-1])),
        xi_range=(float(xi_vals[0]), float(xi_vals[-1])),
        min_alpha=min_alpha,
        min_atilde=min_atilde,
        min_delta_margin=min_margin,
        delta_witness=witness,
        max_a=float(np.max(a_vals)),
        max_abs_b=float(np.max(np.abs(b_vals))),
        tol=tol,
    )
    return HyperbolicModel(alpha=alpha, atilde=atilde, b=b, c0=float(c0), T=float(T),
                           period=float(period), name=name, report=report)


# ---------------------------------------------------------------------------
# gallery

def _one_minus_cos_sq():
    return (Const(1.0) - call("cos", X)) ** 2


def gallery(name, **params):
    """Named example models.

    g_strict        alpha = M > 0 constant, b = 0 (strictly hyperbolic)
    g_zero_b        alpha = (1 - cos x)^2, b = 0
    g_E             alpha = (1 - cos x)^2, b = t ((1-eps)/sqrt3)(1 - cos x)
    g_ex21p/g_ex21m alpha = sin^2 x, b = -+ t sin x
    g_ex22          alpha = (1 - cos x)^2, b = (t^m/2 - t)(1 - cos x), m >= 3
    g_eps           any of the above with alpha replaced by alpha + eps

    Extra keyword params: T, c0, atilde.
    """
    T_ = float(params.pop("T", 1.0))
    c0 = float(params.pop("c0", 1.0))
    atilde = params.pop("atilde", 1.0)

    if name == "g_eps":
        eps = float(params.pop("eps", 1e-2))
        if not eps > 0:
            raise ModelError("g_eps requires eps > 0")
        base = params.pop("base", "g_zero_b")
        if isinstance(base, str):
            base = gallery(base, T=T_, c0=c0, atilde=atilde, **params)
        elif params:
            raise ModelError(f"unknown gallery params {sorted(params)}")
        return base.with_alpha(eps)

    if name == "g_strict":
        M = float(params.pop("M", 1.0))
        if not M > 0:
            raise ModelError("g_strict requires M > 0")
        alpha, b = Const(M), ZERO
        label = f"g_strict(M={M:g})"
    elif name == "g_zero_b":
        alpha, b = _one_minus_cos_sq(), ZERO
        label = "g_zero_b"
    elif name == "g_E":
        eps = float(params.pop("eps", 0.25))
        if not 0 < eps < 1:
            raise ModelError("g_E requires 0 < eps < 1")
        k = (1.0 - eps) / math.sqrt(3.0)
        alpha = _one_minus_cos_sq()
        b = T * Const(k) * (Const(1.0) - call("cos", X))
        label = f"g_E(eps={eps:g})"
    elif name == "g_ex21p":
        alpha = call("sin", X) ** 2
        b = ZERO - T * call("sin", X)
        label = "g_ex21p"
    elif name == "g_ex21m":
        alpha = call("sin", X) ** 2
        b = T * call("sin", X)
        label = "g_ex21m"
    elif name == "g_ex22":
        m = params.pop("m", 6)
        if int(m) != m or m < 3:
            raise ModelError("g_ex22 requires an integer m >= 3")
        m = int(m)
        alpha = _one_minus_cos_sq()
        b = (T**m / Const(2.0) - T) * (Const(1.0) - call("cos", X))
        label = f"g_ex22(m={m})"
    else:
        raise ModelError(f"unknown gallery name {name!r}")

    if params:
        raise ModelError(f"unknown gallery params {sorted(params)}")
    return build_model(alpha, atilde=atilde, b=b, c0=c0, T=T_, name=label)


# ---------------------------------------------------------------------------
# model files: "key = value" lines, '#' comments

_EXPR_KEYS = ("alpha", "atilde", "b", "b10", "b11", "b12")
_FLOAT_KEYS = ("c0", "T", "period")


def parse_model_text(text):
    """Parse key = value model text; returns (HyperbolicModel, LowerOrderTerms)."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _EXPR_KEYS and key not in _FLOAT_KEYS:
            raise ModelError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ModelError(f"line {lineno}: duplicate key {key!r}")
        if key in _FLOAT_KEYS:
            try:
                value = float(value)
            except ValueError:
                raise ModelError(f"line {lineno}: {key} must be a number") from None
        entries[key] = value
    if "alpha" not in entries:
        raise ModelError("model text must define alpha")

    kwargs = {key: entries[key] for key in _FLOAT_KEYS if key in entries}
    model = build_model(
        entries["alpha"],
        atilde=entries.get("atilde", "1"),
        b=entries.get("b", "0"),
        name="file",
        **kwargs,
    )
    lot = LowerOrderTerms(*(_coerce(entries.get(key, "0")) for key in ("b10", "b11", "b12")))
    grid = default_validation_grid(T=model.T, period=model.period)
    for key in ("b10", "b11", "b12"):
        _grid_values(key, getattr(lot, key), *grid)  # raises on inf or nan, as build_model does
    return model, lot


def load_model_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read())
