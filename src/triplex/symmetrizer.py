"""Pointwise 3x3 symmetrizer algebra for the first-order reduction.

With U = (D_t^2 u, D_t <D> u, <D>^2 u) the model operator becomes
D_t U = (A <D> + B) U + F where

    A = [[0, a, b], [1, 0, 0], [0, 1, 0]],   B = first-row lower order.

The symmetrizer S and the weight J are

    S = [[3, 0, -a], [0, 2a, 3b], [-a, 3b, a^2]],   J = diag(1, 1, a),

with S A symmetric, det S = Delta = 4 a^3 - 27 b^2 and
det(S - 2 delta t J) = Delta + 2 delta O(t (t + alpha)^2).

S, J and A are written once, as 3x3 nested lists (S_entries, J_entries,
A_entries) whose entries may be floats, arrays, symbol expressions or N x N
operator blocks.  Every other layer derives from them: matrix_S and friends
stack pointwise values into (..., 3, 3) arrays, S_symbols feeds the
quantizers, and quantize.BlockOp.from_blocks lays out operator blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import HyperbolicModel, discriminant
from .symbols import Const, Expr


def S_entries(a, b, a2):
    """S = [[3, 0, -a], [0, 2a, 3b], [-a, 3b, a^2]] as a 3x3 nested list.

    The entries may be floats, arrays, symbol expressions or N x N operator
    blocks.  a2 stands for a^2 and is passed in because the quantized (2, 2)
    block is Op(a^2), not Op(a)^2.
    """
    return [[3, 0, -a], [0, 2 * a, 3 * b], [-a, 3 * b, a2]]


def J_entries(a):
    """J = diag(1, 1, a) as a 3x3 nested list."""
    return [[1.0, 0, 0], [0, 1.0, 0], [0, 0, a]]


def A_entries(a, b, one=1.0):
    """A = [[0, a, b], [1, 0, 0], [0, 1, 0]] as a 3x3 nested list.

    one is 1 pointwise, <D> in the generator A <D> and 0 in its t-derivatives.
    """
    return [[0, a, b], [one, 0, 0], [0, one, 0]]


def S_symbols(model: HyperbolicModel):
    """S of a model as symbol expressions (op_weyl and friedrichs_part input)."""
    a = model.a_expr
    return [[e if isinstance(e, Expr) else Const(float(e)) for e in row]
            for row in S_entries(a, model.b, a * a)]


def _stack3(entries):
    """(..., 3, 3) array of a 3x3 nested list of scalars and arrays."""
    flat = np.broadcast_arrays(*(e for row in entries for e in row))
    return np.stack(flat, axis=-1).reshape(flat[0].shape + (3, 3))


def matrix_S(a, b):
    return _stack3(S_entries(a, b, a * a))


def matrix_J(a):
    return _stack3(J_entries(a))


def matrix_A(a, b):
    return _stack3(A_entries(a, b))


def identity_defects(t, alpha, a, b):
    """Worst scale-normalized defects of S A = (S A)^T and det S = Delta.

    Over points given as equal-shape arrays (or scalars): max |SA - (SA)^T|
    over 1 + a^2 + b^2 + (t + alpha)^2, and max |det S - Delta| over
    1 + |a|^3 + b^2, with Delta = models.discriminant(a, b).
    """
    S = matrix_S(a, b)
    SA = S @ matrix_A(a, b)
    scale = 1.0 + a**2 + b**2 + (t + alpha) ** 2
    asym = np.max(np.abs(SA - np.swapaxes(SA, -1, -2)), axis=(-1, -2)) / scale
    det = np.abs(np.linalg.det(S) - discriminant(a, b)) / (1.0 + np.abs(a) ** 3 + b**2)
    return float(np.max(asym)), float(np.max(det))


def grid_fields(model, grid):
    """t, alpha, a and b on a (t, x, xi) grid at their broadcast shape, and jp^2.

    alpha, a and b share one shape, the broadcast of their own shapes with
    (nt, nx, 1): the xi axis has length nxi only when a coefficient depends
    on xi, so pointwise work is done once per distinct point.  Broadcast to
    grid.shape() to list every point.  t is (nt, 1, 1) and jp^2 is
    (1, 1, nxi), which broadcast against them.
    """
    tg = grid.t_vals[:, None, None]
    xg = grid.x_vals[None, :, None]
    xig = grid.xi_vals[None, None, :]
    alpha, atilde, b, _ = np.broadcast_arrays(
        model.alpha.evaluate(0.0, xg, xig), model.atilde.evaluate(tg, xg, xig),
        model.b.evaluate(tg, xg, xig), np.empty((len(grid.t_vals), len(grid.x_vals), 1)))
    return tg, alpha, (tg + alpha) * atilde, b, 1.0 + xig**2


@dataclass(frozen=True)
class DeltaSymReport:
    delta_sym: float
    feasible_at_one: bool
    tol: float


def pointwise_delta(S, a, t):
    """Largest delta with S - 2 delta t J >= 0 at each point of a stack.

    It is the generalized eigenvalue lambda_min(D^(-1/2) S D^(-1/2)), D = 2 t J
    (Golub & Van Loan 8.7), negative where S is not PSD.  Where D vanishes
    there is no bound: +inf at t <= 0.  At a <= 0 < t the entry
    2a - 2 delta t is negative for every delta > 0, so the value is 0.
    """
    ok = (t > 0) & (a > 0)
    diag_j = np.diagonal(matrix_J(a), axis1=-2, axis2=-1)
    d = np.where(ok[..., None], 2.0 * t[..., None] * diag_j, 1.0)
    lam = np.linalg.eigvalsh(S / np.sqrt(d[..., :, None] * d[..., None, :]))[..., 0]
    return np.where(ok, lam, np.where(t > 0, 0.0, np.inf))


def lower_bound_delta(model: HyperbolicModel, grid):
    """Largest delta with S - 2 delta t J >= -tol * scale on the whole grid, tol = 1e-10.

    Returns 0 when the exact-tolerance test fails at delta = 1e-8;
    feasible_at_one is the same test at delta = 1.  Otherwise the value is
    the grid minimum of pointwise_delta, clipped to the bracket the two
    tests give ([1e-8, 1] or [1, 2^31]; 2^31 also stands for no bound).
    That is exact: J >= 0 makes positivity monotone in delta, and by
    congruence with the positive diagonal D = 2 t J, S - delta D >= 0
    exactly when delta <= lambda_min(D^(-1/2) S D^(-1/2)).
    """
    tol = 1e-10
    t, alpha, a, b, _ = grid_fields(model, grid)
    S, J = matrix_S(a, b), matrix_J(a)
    scale = 1.0 + a**2 + b**2 + (t + alpha) ** 2
    tJ = 2.0 * t[..., None, None] * J

    def feasible(delta):
        eigs = np.linalg.eigvalsh(S - delta * tJ)
        return bool(np.all(eigs[..., 0] >= -tol * scale))

    if not feasible(1e-8):
        return DeltaSymReport(0.0, False, tol)
    feasible_one = feasible(1.0)
    lo, hi = (1.0, 2.0**31) if feasible_one else (1e-8, 1.0)
    delta = min(max(float(np.min(pointwise_delta(S, a, t))), lo), hi)
    return DeltaSymReport(delta, feasible_one, tol)
