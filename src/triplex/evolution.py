"""First-order evolution, weighted energies and the supporting constructions.

The reduced system is D_t U = (A <D> + B) U, integrated as dU/dt = i M(t) U
with classical RK4 at a fixed CFL-limited step, in one march of at most
MAX_STEPS steps.  The monitored energy is

    E(t) = t^-N e^(-gamma t) Q(t),   Q(t) = Re < Stilde_h(t) U, U >,
    Stilde_h(t) = Op(S(t)) + lam t^-1 blockdiag(jp^-2),

and the per-step margins test the homogeneous differential inequality

    dE/dt <= -(N - N*) t^-1 E.

Margins are normalized per step so pass tolerances are dimensionless; the
worst-margin convergence under dt halving is measured against a finer
reference trajectory on the same nested time grid.  The exponent N* comes
from the energy identity dQ/dt = Re <U, Stilde' U> + 2 Re <Stilde U, dU/dt>,
evaluated exactly on the run it is measured for.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cubic import Grid3, check_condition, default_condition_grid
from .models import HyperbolicModel, LowerOrderTerms, ModelError, build_model
from .symbols import Const, X, call
from .quantize import (FourierGrid, Layout, TaylorOps, c_star, fp_search, herm_S_layout,
                       top_eigenvalue)
from .symmetrizer import A_entries, lower_bound_delta


@dataclass
class EvolveConfig:
    """Fixed-step integration window and the energy-weight constants."""

    eps_start: float = 1e-2
    T: float = 1.0
    dt: float | None = None          # fixed step; None derives it from cfl
    cfl: ClassVar[float] = 0.5
    dt_scale: float = 1.0            # halve for convergence checks
    n_weight: float = 1.0
    n_star: float = 0.0
    gamma: float = 1.0
    lam: float = 1.0

    def validate(self):
        if not 0 < self.eps_start < self.T:
            raise ValueError("need 0 < eps_start < T")
        for name in ("gamma", "lam", "n_weight", "n_star"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if self.n_weight <= 0:
            raise ValueError("weight exponent must be positive")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")

    def step(self, asm):
        """The RK4 step h: dt (None: the CFL step of asm) times dt_scale."""
        return (self.dt if self.dt is not None else asm.cfl_dt(self.cfl)) * self.dt_scale


# a step that grows |U| by more than this factor aborts the run (verdict "unbounded")
GROWTH_ABORT = 1e6

_ROW_SYMBOLS = ("a", "b", "b10", "b11", "b12")


def _first_row(jp, a, b, b10, b11, b12):
    """M's first block row [B10, A<D> + B11, Bb<D> + B12] from A_entries, as a nested list
    of one row of blocks for Layout.

    The arguments are the operator blocks of _ROW_SYMBOLS, or their
    t-derivatives; <D> = diag(jp) multiplies Op(a) and Op(b) from the right.
    M's other block rows are the <D> shifts of A's second and third rows.
    """
    return [[blk + low for blk, low in zip(A_entries(a * jp, b * jp)[0], (b10, b11, b12))]]


def _shifts(shift, V):
    """M's second and third block rows applied to V: shift = [jp, jp] on its first two blocks."""
    return shift.reshape((-1,) + (1,) * (V.ndim - 1)) * V[: len(shift)]


class Assembler:
    """Applies the generator M(t) and the energy form without per-step matrices.

    M's first block row R(t), Herm Op(S)(t) = Op(S)(t) and Op(a)(t) (the
    energy's a U3 term) are Layouts over one TaylorOps: for symbols
    polynomial in t (the whole gallery) applying one is a product with a
    Taylor stack and a Horner sum in t; anything else builds a Taylor stack
    about each requested time.
    """

    def __init__(self, model: HyperbolicModel, lot: LowerOrderTerms, grid: FourierGrid):
        self.model = model
        self.ops = TaylorOps(model, grid, lot or LowerOrderTerms.zero())
        self._jp = grid.jp_values
        self._jp_inv2_block = np.concatenate([self._jp**-2.0] * 3)
        self._shift = np.concatenate([self._jp] * 2)
        self.R = Layout(self.ops, _ROW_SYMBOLS, functools.partial(_first_row, self._jp))
        self.S = herm_S_layout(self.ops)
        self.a = Layout(self.ops, ("a",), lambda a: [[a]])

    def cfl_dt(self, cfl):
        max_a = self.model.report.max_a if self.model.report else 1.0
        return cfl / ((math.sqrt(max(max_a, 0.0)) + 1.0) * float(np.max(self._jp)))

    def apply(self, t, V):
        """M(t) @ V for V of shape (3N,) or (3N, nb), from R(t) and the <D> shifts."""
        return np.concatenate([self.R(t, V), _shifts(self._shift, V)])

    def energy_rate(self, t, V, dV, lam=0.0):
        """(Q, dQ/dt) for Q = Re <V, Stilde V>, V of shape (3N,) moving at dV = dV/dt.

        Stilde = Herm Op(S)(t) + lam t^-1 blockdiag(jp^-2); Herm Op(S) and
        its t-derivative come from the layout S.  The rate is exact:
        dQ/dt = Re <V, Stilde' V> + 2 Re <Stilde V, dV>.
        """
        SV, dSV = self.S.rate(t, V)
        if lam != 0.0:
            PV = (lam / t) * self._jp_inv2_block * V
            SV = SV + PV
            dSV = dSV - PV / t
        return _re_inner(V, SV), _re_inner(V, dSV) + 2.0 * _re_inner(dV, SV)


def _re_inner(X, Y):
    """Re <X, Y> per column."""
    return np.real(np.sum(X.conj() * Y, axis=0))


def _rk4(U, t, h, apply_gen, k1):
    """One classical RK4 step of dU/dt = i M(t) U; k1 is the slope at (t, U)."""
    k2 = 1j * apply_gen(t + 0.5 * h, U + 0.5 * h * k1)
    k3 = 1j * apply_gen(t + 0.5 * h, U + 0.5 * h * k2)
    k4 = 1j * apply_gen(t + h, U + h * k3)
    return U + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class EnergyTrace:
    t: np.ndarray
    Q: np.ndarray
    dQ: np.ndarray          # exact dQ/dt samples
    n1sq: np.ndarray
    n2sq: np.ndarray
    aU3U3: np.ndarray
    norm: np.ndarray
    n_weight: float
    n_star: float
    gamma: float
    lam: float
    aborted: bool = False

    @property
    def E(self):
        """E = t^-N e^(-gamma t) Q; Q does not depend on N, so one run serves every weight."""
        return self.t ** (-self.n_weight) * np.exp(-self.gamma * self.t) * self.Q

    def csv_rows(self):
        """Per-sample rows: t, E, dE_dt, rhs_bound, margin, n1sq, n2sq, aU3U3, norm."""
        n = len(self.t)
        E = self.E
        dE = np.full(n, np.nan)
        rhs = np.full(n, np.nan)
        margin = np.full(n, np.nan)
        if n > 1 and not self.aborted:
            per = energy_margins(self)
            dE[:-1] = per.dE_dt
            rhs[:-1] = per.rhs
            margin[:-1] = per.raw_margins
        for i in range(n):
            yield (self.t[i], E[i], dE[i], rhs[i], margin[i],
                   self.n1sq[i], self.n2sq[i], self.aU3U3[i], self.norm[i])


# The most RK4 steps one march may take.  The largest count any gate, test or
# benchmark path takes is 822 (c06's dt/8 run at K=16); the K=128 loss probe
# at the CFL step takes 821.
MAX_STEPS = 2**20


def _march(asm, U, t0, T, h, sample):
    """March U by RK4 from t0 to T in steps of h; returns (U, aborted).

    h < 0 marches backwards.  The march takes n = max(1, ceil((T - t0)/h
    - 1e-12)) steps; step i starts at t0 + h i, and the last one runs for
    T - t and ends exactly at T.  More than MAX_STEPS steps is a ValueError.
    The slope dU/dt taken after a step, at the one time that also starts the
    next step, is that step's first stage.  sample(t, U, dU, norms), norms
    the column norms of U (its norm when U is one state), sees the start and
    every step's end.  A step that grows a column's norm by more than
    GROWTH_ABORT is discarded and stops the march (verdict "unbounded"); U is
    then the last state sampled.
    """
    steps = (T - t0) / h - 1e-12
    if steps > MAX_STEPS:
        raise ValueError(f"step h = {h:.3g} needs n = {steps:.3g} RK4 steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    n = max(1, math.ceil(steps))
    # one state takes numpy's whole-vector norm, cheaper per step than a column reduction
    norm = np.linalg.norm if U.ndim == 1 else functools.partial(np.linalg.norm, axis=0)
    t = t0
    dU = 1j * asm.apply(t, U)
    norms = norm(U)
    sample(t, U, dU, norms)
    for i in range(1, n + 1):
        U_new = _rk4(U, t, h if i < n else T - t, asm.apply, dU)
        norms_new = norm(U_new)
        if (norms_new > GROWTH_ABORT * np.maximum(norms, 1e-300)).any():
            return U, True
        U, norms = U_new, norms_new
        t = t0 + h * i if i < n else T
        dU = 1j * asm.apply(t, U)
        sample(t, U, dU, norms)
    return U, False


def evolve(model, lot, U0, cfg: EvolveConfig, grid, assembler=None):
    """Integrate dU/dt = i M(t) U from eps_start to T.

    U0 is a (3N,) complex vector.  Each sample records Q and its exact rate
    dQ/dt; the slope dU/dt taken for the rate is the next RK4 step's first
    stage.  Returns (EnergyTrace, U_final); on a growth abort the trace is
    truncated and flagged aborted (verdict "unbounded").  An energy Q that
    is not positive (nan included) at a sample raises: no margin is
    measured against it.
    """
    cfg.validate()
    model.check_horizon(cfg.T, "integration end")
    asm = assembler or Assembler(model, lot, grid)
    N = grid.N
    rows = []

    def record(t, U, dU, norms):
        Q, dQ = asm.energy_rate(t, U, dU, cfg.lam)
        u3 = U[2 * N :]
        rows.append((t, Q, dQ,
                     np.vdot(U[:N], U[:N]).real, np.vdot(U[N : 2 * N], U[N : 2 * N]).real,
                     np.vdot(u3, asm.a(t, u3)).real, norms))

    U, aborted = _march(asm, np.array(U0, dtype=complex), cfg.eps_start, cfg.T, cfg.step(asm),
                        record)
    t, Q, dQ, n1sq, n2sq, aU3U3, norm = np.array(rows).T.copy()
    if not np.all(Q > 0):
        bad = int(np.argmin(Q > 0))
        raise ValueError(f"energy Q = {Q[bad]:.3g} at t = {t[bad]:.3g} is not positive; "
                         "increase lam")
    trace = EnergyTrace(t=t, Q=Q, dQ=dQ, n1sq=n1sq, n2sq=n2sq, aU3U3=aU3U3, norm=norm,
                        n_weight=cfg.n_weight, n_star=cfg.n_star, gamma=cfg.gamma,
                        lam=cfg.lam, aborted=aborted)
    return trace, U


# ---------------------------------------------------------------------------
# energy inequality margins

# a normalized margin below -MARGIN_TOL fails the energy inequality
MARGIN_TOL = 0.05


@dataclass(frozen=True)
class MarginReport:
    margins: np.ndarray        # normalized, per step
    raw_margins: np.ndarray
    dE_dt: np.ndarray
    rhs: np.ndarray
    midpoints: np.ndarray
    min_margin: float
    argmin_t: float
    int_defect: float          # integrated-inequality defect
    passed: bool


def energy_margins(trace: EnergyTrace):
    """Per-step margins of the homogeneous inequality dE/dt <= -(N - N*) t^-1 E.

    The right-hand side w(t) (N* - N) Q / t, w(t) = t^-N e^(-gamma t), is
    averaged over the step endpoints and the derivative is the forward
    difference, so margins converge at rate dt^2.  Normalization divides by
    the larger of the two sides (floored by the weighted energy scale).  The
    integrated form E(t) + (N - N*) int E/tau dtau <= E(eps) is also
    accumulated; int_defect is its worst relative excess.  The margins pass
    when none lies below -MARGIN_TOL.
    """
    if trace.aborted:
        raise ValueError("trace aborted; margins undefined")
    t0, t1 = trace.t[:-1], trace.t[1:]
    dt = np.diff(trace.t)
    nw, ns, g = trace.n_weight, trace.n_star, trace.gamma

    def rhs_at(t, Q):
        return t ** (-nw) * np.exp(-g * t) * ((ns - nw) * Q / t)

    rhs = 0.5 * (rhs_at(t0, trace.Q[:-1]) + rhs_at(t1, trace.Q[1:]))
    dE_dt = (trace.E[1:] - trace.E[:-1]) / dt
    raw = rhs - dE_dt
    tbar = 0.5 * (t0 + t1)
    wbar = tbar ** (-nw) * np.exp(-g * tbar)
    qbar = 0.5 * (trace.Q[:-1] + trace.Q[1:])
    floor = wbar * (ns / tbar + g) * np.abs(qbar)
    scale = np.maximum(np.maximum(np.abs(dE_dt), np.abs(rhs)), floor) + 1e-300
    margins = raw / scale

    int_defect = math.nan
    if len(t0):
        integrand = (nw - ns) * trace.E / trace.t
        cumint = np.concatenate(
            [[0.0], np.cumsum(0.5 * dt * (integrand[:-1] + integrand[1:]))]
        )
        int_defect = float(np.max((trace.E + cumint) / trace.E[0]) - 1.0)

    i = int(np.argmin(margins)) if len(margins) else 0
    return MarginReport(
        margins=margins,
        raw_margins=raw,
        dE_dt=dE_dt,
        rhs=rhs,
        midpoints=tbar,
        min_margin=float(margins[i]) if len(margins) else math.inf,
        argmin_t=float(tbar[i]) if len(margins) else math.nan,
        int_defect=int_defect,
        passed=bool(len(margins) and float(margins[i]) >= -MARGIN_TOL),
    )


def margin_deviation(report: MarginReport, reference: MarginReport):
    """Worst distance of the normalized margins from a finer-dt reference.

    Reference margins are interpolated to the coarse step midpoints; the
    deviation contracts at rate dt^2 when the step is halved, which is the
    measurable form of margin convergence (the signed worst margin may sit
    at a continuum-positive point and not move under refinement).
    """
    ref = np.interp(report.midpoints, reference.midpoints, reference.margins)
    return float(np.max(np.abs(report.margins - ref)))


def _hermite_sup(t, Q, dQ, gamma):
    """sup of t (q'/q - gamma), q the cubic Hermite interpolant of (Q, dQ) at t.

    Each step is sampled at 17 equally spaced places, its ends (the samples
    themselves) included; on gallery runs at K 8 and 16 that is within 4e-6
    of 513 places, where the samples alone miss by up to 1e-3.
    """
    s = np.linspace(0.0, 1.0, 17)[:, None]
    h = np.diff(t)
    m0, m1 = h * dQ[:-1], h * dQ[1:]
    jump = Q[1:] - Q[:-1]
    q = Q[:-1] + s * m0 + s**2 * (3.0 * jump - 2.0 * m0 - m1) + s**3 * (m0 + m1 - 2.0 * jump)
    dq = (m0 + 2.0 * s * (3.0 * jump - 2.0 * m0 - m1) + 3.0 * s**2 * (m0 + m1 - 2.0 * jump)) / h
    tt = t[:-1] + s * h
    return float(np.max(tt * (dq / q - gamma)))


def seeded_state(grid, seed):
    """Normalized complex Gaussian state of length 3N, drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    U0 = rng.standard_normal(3 * grid.N) + 1j * rng.standard_normal(3 * grid.N)
    return U0 / np.linalg.norm(U0)


def search_energy_constants(model, lot, grid, U0, eps_start=1e-2, T=1.0, gamma=1.0,
                            dt=None, lam=None):
    """Measure workable (N*, N, gamma, lam) on the trajectory of U0 at the step dt.

    dt is the caller's evolve step (None: the CFL step), and lam the
    caller's energy shift; N* is measured at that lam.  lam=None searches
    it: the smallest power of two with Herm(Op S) + (lam/2) t^-1 jp^-2 >= 0 at 7 times in
    [eps_start, T], doubled once for headroom: 4 sup C*(t, 0) rounded up,
    by c_star with the running sup as floor, or 1 when sup C* <= 0.  N*: sup
    of t (dQ/dt / Q - gamma) over the run, clamped at 0, with the exact
    dQ/dt of the energy identity at the samples and the cubic Hermite
    interpolant of (Q, dQ/dt) between them.  The weight exponent N adds a
    display buffer; only N - N* enters verdicts.  Returns the run's
    EnergyTrace weighted with these constants, so its n_star, n_weight, gamma
    and lam are the constants, and a caller at the same step has its
    energies and margins without integrating U0 again.  When the run hits a
    growth abort, N* = N = inf and the trace comes back flagged aborted; an
    energy that is not positive (nan included) raises in evolve.
    """
    cfg = EvolveConfig(eps_start=eps_start, T=T, dt=dt, gamma=gamma,
                       lam=1.0 if lam is None else lam)
    cfg.validate()
    model.check_horizon(T, "integration end")
    asm = Assembler(model, lot, grid)
    if lam is None:
        jp_block = np.concatenate([grid.jp_values] * 3)
        c_sup = 0.0
        for t in np.geomspace(eps_start, T, 7):
            c = c_star(jp_block[:, None] * asm.S(t) * jp_block[None, :], t, c_sup)
            if c is not None:
                c_sup = max(c_sup, c)
        cfg.lam = 2.0 ** math.ceil(math.log2(4.0 * c_sup)) if c_sup > 0 else 1.0

    trace, _ = evolve(model, lot, U0, cfg, grid, assembler=asm)
    # no finite exponent bounds a run that blew up
    n_star = (math.inf if trace.aborted
              else max(0.0, _hermite_sup(trace.t, trace.Q, trace.dQ, gamma)))
    return dataclasses.replace(trace, n_weight=n_star + 0.25, n_star=n_star)


# ---------------------------------------------------------------------------
# derivative-loss probe

@dataclass(frozen=True)
class LossReport:
    modes: tuple
    growth: tuple
    exponent: float
    aborted: bool


def loss_probe(model, lot, grid, cfg: EvolveConfig, k_list):
    """Growth factors G(k) = sup_t |U(t)| / |U(eps)| for single-mode data.

    All modes evolve together as a batched state, so generator assembly is
    shared.  The exponent is the least-squares slope of log G against
    log jp(k); an instability abort reports an unbounded (infinite) loss.
    """
    cfg.validate()
    if len(k_list) < 2:
        raise ValueError(f"loss_probe needs at least two modes to fit an exponent, got {len(k_list)}")
    model.check_horizon(cfg.T, "integration end")
    asm = Assembler(model, lot, grid)
    N = grid.N
    nb = len(k_list)
    U = np.zeros((3 * N, nb), dtype=complex)
    for col, k in enumerate(k_list):
        if not 1 <= abs(k) <= grid.K:
            raise ValueError("modes must lie in [1, K]")
        for i in range(3):
            U[i * N + (k + grid.K), col] = 1.0 / math.sqrt(3.0)
    sup = np.ones(nb)

    def track(t, U, dU, norms):
        np.maximum(sup, norms, out=sup)

    _, aborted = _march(asm, U, cfg.eps_start, cfg.T, cfg.step(asm), track)
    if aborted:
        return LossReport(tuple(k_list), tuple(float(v) for v in sup), math.inf, True)
    jp = grid.jp_values[np.asarray(k_list) + grid.K]
    slope = float(np.polyfit(np.log(jp), np.log(np.maximum(sup, 1e-300)), 1)[0])
    return LossReport(tuple(k_list), tuple(float(v) for v in sup), slope, False)


# ---------------------------------------------------------------------------
# frequency cutoffs

def _taper(u):
    """C^infinity step: 1 for u <= 1, 0 for u >= 2."""
    u = np.asarray(u, dtype=float)

    def f(v):
        out = np.zeros_like(v)
        pos = v > 0
        with np.errstate(over="ignore"):
            out[pos] = np.exp(-1.0 / v[pos])
        return out

    a = f(2.0 - u)
    b = f(u - 1.0)
    return a / (a + b + 1e-300)


@dataclass(frozen=True)
class CutoffReport:
    nu: tuple
    scaled_low: tuple       # nu * |(A<D> + B) chi_{nu/2}|
    scaled_comm: tuple      # nu^-1 * |[chi_nu, A<D> + B]|
    flagged: tuple


def frequency_cutoff_check(model, lot, grid, nus, t=0.5):
    """Scaling of smooth frequency cutoffs against the generator.

    chi_nu multiplies mode k by taper(|nu k w0|): identity below 1/nu, zero
    above 2/nu.  Reports nu |A_nu| and nu^-1 |[chi_nu, M]|, which symbol
    calculus keeps comparable across nu; entries whose transition band
    2/nu escapes the grid are flagged.

    Both norms come from M's first block row R(t), the one dense N x 3N
    matrix formed, by Lanczos on products with R and R^H (applied as
    (u^H R)^H, no copy of R^H): |A_nu|^2 = |M chi_{nu/2}|^2 is the top
    eigenvalue of chi_{nu/2} M^H M chi_{nu/2}, and |[chi_nu, M]|^2 that of
    C^H C for C = chi_nu R - R chi_nu, the commutator's only nonzero block
    row.  Neither M, C nor R^H is formed.
    """
    N = grid.N
    R = Assembler(model, lot, grid).R(t)
    adjoint = lambda U: (U.conj().T @ R).conj().T  # R^H U for U of shape (N,) or (N, m)
    freqs_abs = np.abs(np.concatenate([grid.freqs] * 3))
    shift_sq = np.concatenate([grid.jp_values**2] * 2 + [np.zeros(N)])  # M^H M - R^H R
    scaled_low, scaled_comm, flagged = [], [], []
    for nu in nus:
        if not 0 < nu <= 1:
            raise ValueError("cutoff scales must lie in (0, 1]")
        chi_half = _taper(0.5 * nu * freqs_abs)
        chi_full = _taper(nu * freqs_abs)

        def lowpass_gram(v, chi=chi_half):
            """chi M^H M chi v, with M^H M = R^H R + diag(jp^2, jp^2, 0) from the shifts."""
            return chi * adjoint(R @ (chi * v)) + chi**2 * shift_sq * v

        def comm_gram(v, chi=chi_full):
            """C^H C v: C v = chi R v - R chi v, and C^H u = R^H chi u - chi R^H u."""
            Rv = R @ np.stack([v, chi * v], axis=1)
            u = chi[:N] * Rv[:, 0] - Rv[:, 1]
            RHu = adjoint(np.stack([chi[:N] * u, u], axis=1))
            return RHu[:, 0] - chi * RHu[:, 1]

        scaled_low.append(nu * math.sqrt(top_eigenvalue(lowpass_gram, 3 * N)))
        # the <D> shifts commute with chi_nu, so [chi_nu, M] vanishes below the first block row
        scaled_comm.append(math.sqrt(max(top_eigenvalue(comm_gram, 3 * N), 0.0)) / nu)
        flagged.append(bool(2.0 / nu > grid.K))
    return CutoffReport(
        nu=tuple(float(v) for v in nus),
        scaled_low=tuple(scaled_low),
        scaled_comm=tuple(scaled_comm),
        flagged=tuple(flagged),
    )


# ---------------------------------------------------------------------------
# smooth window expressions, extension

def window_expr(center, r_in, r_out, beta_scale=35.0):
    """Smooth periodic plateau: ~1 for |x - center| <= r_in, ~0 beyond r_out.

    A logistic in cos(x - center), so the expression stays inside the
    symbol grammar; plateau flatness is e^-beta_scale (~6e-16 by default).
    r_out >= pi gives the constant 1.
    """
    if not 0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    if r_out >= math.pi:
        return Const(1.0)
    halfgap = 0.5 * (math.cos(r_in) - math.cos(r_out))
    mid = 0.5 * (r_in + r_out)
    # keep the logistic exponent below 600 everywhere so exp never overflows
    beta = min(beta_scale / max(halfgap, 1e-12), 600.0 / (1.0 + math.cos(mid)))
    z = Const(beta) * (Const(math.cos(mid)) - call("cos", X - Const(center)))
    return Const(1.0) / (Const(1.0) + call("exp", z))


@dataclass(frozen=True)
class ExtensionReport:
    model: HyperbolicModel
    M: float
    delta_local: float
    delta_global: float


def extend_model(local: HyperbolicModel, window, delta_floor=1e-8):
    """Extend a model satisfying (E) on an x-window to the whole torus.

    Uses alpha_ext = chi1 alpha + M chi2 and b_ext = chi1 b with nested
    plateaus chi1 (1 inside, 0 outside the window) and chi2 (0 well inside,
    1 outside).  M is the smallest power of two with
    4 M^3 c0^3 >= 27 sup(chi1 b)^2, keeping the cut region strictly
    hyperbolic.  The result must pass condition (E) globally; both checks
    sample xi in [1, 64].
    """
    lo, hi = window
    if not hi > lo:
        raise ValueError("window must have hi > lo")
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)

    xi_vals = np.geomspace(1.0, 64.0, 9)
    local_grid = Grid3(
        t_vals=np.linspace(1e-3 * local.T, local.T, 48),
        x_vals=np.linspace(lo, hi, 48),
        xi_vals=xi_vals,
    )
    rep_local = check_condition(local, "E", local_grid, delta=delta_floor)
    if not rep_local.holds:
        raise ModelError(
            "local model does not satisfy (E) on the window "
            f"(delta_best = {rep_local.delta_best:.3e})"
        )

    chi1 = window_expr(c, 0.75 * r, r)
    chi2 = Const(1.0) - window_expr(c, 0.5 * r, 0.75 * r)

    b_cut = chi1 * local.b
    tgrid = np.linspace(0.0, local.T, 33)
    xgrid = np.linspace(0.0, local.period, 256, endpoint=False)
    # |chi1 b| at its broadcast shape: a b without xi gives 33 x 256 values, not 33 x 256 x 9
    sup_b = float(np.max(np.abs(b_cut.evaluate(tgrid[:, None, None], xgrid[None, :, None],
                                               xi_vals[None, None, :]))))
    M = 1.0
    while 4.0 * M**3 * local.c0**3 < 27.0 * sup_b**2:
        M *= 2.0
    alpha_ext = chi1 * local.alpha + Const(M) * chi2
    ext = build_model(
        alpha_ext,
        atilde=local.atilde,
        b=b_cut,
        c0=local.c0,
        T=local.T,
        period=local.period,
        name=f"extend({local.name})",
    )
    rep_global = check_condition(ext, "E", default_condition_grid(ext), delta=delta_floor)
    if not rep_global.holds:
        raise ModelError(
            f"extension fails (E) globally (delta_best = {rep_global.delta_best:.3e})"
        )
    return ExtensionReport(model=ext, M=M, delta_local=rep_local.delta_best,
                           delta_global=rep_global.delta_best)


# ---------------------------------------------------------------------------
# flat Taylor lift at t = 0

@dataclass(frozen=True)
class TaylorLift:
    coefficients: tuple      # U_j, j = 0..order

    def eval(self, t):
        out = np.zeros_like(self.coefficients[0])
        for j, Uj in enumerate(self.coefficients):
            out = out + Uj * (1j * t) ** j / math.factorial(j)
        return out


def taylor_lift(asm, data, order):
    """Polynomial lift U_M(t) = sum U_j (i t)^j / j! matching D_t^j U(0).

    asm is the Assembler of the model and lower-order terms, and data the
    triple of component coefficient vectors of U(0).  The recursion
    D_t^(j+1) U = D_t^j (M U) at t = 0 reads D_t^i M(0) off the Taylor stack
    of M's first block row, R(t) = sum_i t^i W_i: for i >= 1 it is
    (-i)^i i! W_i on the first block row and 0 below it (the <D> shifts are
    constant in t), and 0 past the stack's end.  W_i is applied in the
    stack's own storage, dense or banded (Layout.term).  order is capped at
    6.  A generator not polynomial in t has no stack and raises ValueError.
    """
    if not 0 <= order <= 6:
        raise ValueError("order must be between 0 and 6")
    N = asm.ops.grid.N
    U0 = np.concatenate([np.asarray(v, dtype=complex) for v in data])
    if U0.shape != (3 * N,):
        raise ValueError("data must be three coefficient vectors of length N")
    W = asm.R.stack
    if W is None:
        raise ValueError("taylor_lift needs a generator polynomial in t (degree <= 6)")

    def gen_deriv(i, V):
        if i == 0:
            return asm.apply(0.0, V)
        out = np.zeros(3 * N, dtype=complex)
        if (i + 1) * N <= len(W):
            out[:N] = (-1j) ** i * math.factorial(i) * asm.R.term(i, V)
        return out

    coeffs = [U0]
    for j in range(order):
        nxt = np.zeros(3 * N, dtype=complex)
        for i in range(j + 1):
            nxt += math.comb(j, i) * gen_deriv(i, coeffs[j - i])
        coeffs.append(nxt)
    return TaylorLift(coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# regularization sweep

@dataclass(frozen=True)
class SweepRow:
    eps: float
    delta_best_E: float
    delta_sym: float
    fp_delta: float
    fp_C: float
    n_star: float
    min_margin: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    stable_within: float
    passed: bool


def _sweep_row(base, lot, eps, grid, seed):
    model = base.with_alpha(eps)
    cond = check_condition(model, "E",
                           default_condition_grid(model, nt=32, nx=32, nxi=5))
    sym = lower_bound_delta(model, default_condition_grid(model, nt=16, nx=16, nxi=5))
    fp = fp_search(model, np.geomspace(1e-2, model.T, 3), grid)
    consts = search_energy_constants(model, lot, grid, U0=seeded_state(grid, seed), T=model.T)
    return SweepRow(
        eps=float(eps),
        delta_best_E=cond.delta_best,
        delta_sym=sym.delta_sym,
        fp_delta=fp.best[0] if fp.best else 0.0,
        fp_C=fp.best[1] if fp.best else math.inf,
        n_star=consts.n_star,
        min_margin=-math.inf if consts.aborted else energy_margins(consts).min_margin,
    )


def regularize_sweep(base: HyperbolicModel, lot, eps_list, grid_k=8, factor=4.0,
                     seed=0):
    """Track the main constants as alpha is shifted to alpha + eps.

    Each row records delta_best for (E), the pointwise symmetrizer delta,
    the best feasible sharp-bound pair, the measured energy exponent N*
    and the worst energy margin.  The sweep passes when every strictly
    positive constant stays within the given factor across the list and
    the margins hold at every eps.
    """
    grid = FourierGrid(grid_k, base.period)
    rows = [_sweep_row(base, lot, eps, grid, seed) for eps in eps_list]
    worst = 1.0
    for getter in (lambda r: r.delta_best_E, lambda r: r.delta_sym,
                   lambda r: r.fp_delta):
        vals = np.array([getter(r) for r in rows])
        if np.any(vals <= 0):
            return SweepReport(tuple(rows), math.inf, False)
        worst = max(worst, float(np.max(vals) / np.min(vals)))
    passed = (worst <= factor and all(math.isfinite(r.fp_C) for r in rows)
              and all(r.min_margin >= -MARGIN_TOL for r in rows))
    return SweepReport(tuple(rows), worst, passed)
