"""First-order evolution, weighted energies and the supporting constructions.

The reduced system is D_t U = (A <D> + B) U + F, integrated as
dU/dt = i (M(t) U + F(t)) with classical RK4 at a fixed CFL-limited step.
The monitored energy is

    E(t) = t^-N e^(-gamma t) Q(t),   Q(t) = Re < Stilde_h(t) U, U >,
    Stilde_h(t) = Op(S(t)) + lam t^-1 blockdiag(jp^-2),

and the per-step margins test the differential inequality

    dE/dt <= t^(-N+1) e^(-gamma t) (Stilde F, F) - (N - N*) t^-1 E.

Margins are normalized per step so pass tolerances are dimensionless; the
worst-margin convergence under dt halving is measured against a finer
reference trajectory on the same nested time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import Grid3, check_condition, default_condition_grid
from .models import HyperbolicModel, LowerOrderTerms, ModelError, build_model
from .symbols import Const, X, call, differentiate
from .quantize import BlockOp, FourierGrid, op_weyl, operator_norm

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StateVector:
    """Stacked coefficient vector (U1, U2, U3) on a Fourier grid."""

    data: np.ndarray
    grid: FourierGrid

    def component(self, i):
        N = self.grid.N
        return self.data[i * N : (i + 1) * N]

    def norm(self):
        return float(np.linalg.norm(self.data))


def mode_state(grid, k, amplitudes=(1.0, 1.0, 1.0)):
    """Unit state concentrated on Fourier mode k in all three components."""
    if abs(k) > grid.K:
        raise ValueError("mode outside truncation")
    N = grid.N
    data = np.zeros(3 * N, dtype=complex)
    for i, amp in enumerate(amplitudes):
        data[i * N + (k + grid.K)] = amp
    n = np.linalg.norm(data)
    return StateVector(data / n, grid)


@dataclass
class EvolveConfig:
    """Fixed-step integration window and the energy-weight constants."""

    eps_start: float = 1e-2
    T: float = 1.0
    dt: float | None = None          # fixed step; None derives it from cfl
    cfl: float = 0.5
    dt_scale: float = 1.0            # halve for convergence checks
    n_weight: float = 1.0
    n_star: float = 0.0
    gamma: float = 1.0
    lam: float = 1.0
    delta: float = 0.25
    growth_abort: float = 1e6

    def validate(self):
        if not 0 < self.eps_start < self.T:
            raise ValueError("need 0 < eps_start < T")
        if self.n_weight <= 0:
            raise ValueError("weight exponent must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")


def _t_taylor(expr, cap=6):
    """Taylor coefficient expressions in t, or None when not polynomial."""
    terms = []
    cur = expr
    for i in range(cap + 1):
        terms.append(cur)
        if isinstance(cur, Const) and cur.value == 0.0:
            return terms[:-1] or [cur]
        cur = differentiate(cur, "t", 1)
    return None


class Assembler:
    """Caches the generator and energy operators per time point.

    Symbols polynomial in t (the whole gallery) quantize once into Taylor
    basis matrices, so per-step assembly is a cheap linear combination;
    anything else falls back to quantizing at each requested time.
    """

    def __init__(self, model: HyperbolicModel, lot: LowerOrderTerms, grid: FourierGrid):
        self.model = model
        self.lot = lot or LowerOrderTerms.zero()
        self.grid = grid
        self.a_expr = model.a_expr
        self.a2_expr = self.a_expr * self.a_expr
        self._cache = {}
        self._max_entries = 8
        self._jp = grid.jp_values
        self._jp_inv2_block = np.concatenate([self._jp**-2.0] * 3)
        self._op_bases = {}
        for name, expr in self._symbols().items():
            terms = _t_taylor(expr)
            self._op_bases[name] = None if terms is None else [
                op_weyl(d, 0.0, grid).matrix / math.factorial(i)
                for i, d in enumerate(terms)
            ]

    def _symbols(self):
        return {
            "a": self.a_expr,
            "b": self.model.b,
            "a2": self.a2_expr,
            "b10": self.lot.b10,
            "b11": self.lot.b11,
            "b12": self.lot.b12,
        }

    def cfl_dt(self, cfl=0.5):
        max_a = self.model.report.max_a if self.model.report else 1.0
        return cfl / ((math.sqrt(max(max_a, 0.0)) + 1.0) * float(np.max(self._jp)))

    def _entry(self, t):
        key = float(t)
        if key not in self._cache:
            if len(self._cache) >= self._max_entries:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = {}
        return self._cache[key]

    def _op(self, entry, name, t):
        if name not in entry:
            basis = self._op_bases[name]
            if basis is None:
                entry[name] = op_weyl(self._symbols()[name], t, self.grid).matrix
            else:
                acc = basis[0].copy()
                for i in range(1, len(basis)):
                    acc += (t**i) * basis[i]
                entry[name] = acc
        return entry[name]

    def generator(self, t):
        """Dense M(t) with <D> as a right multiplier on the order-1 blocks."""
        entry = self._entry(t)
        if "gen" not in entry:
            N = self.grid.N
            jp = self._jp
            gen = np.zeros((3 * N, 3 * N), dtype=complex)
            gen[0:N, N : 2 * N] = self._op(entry, "a", t) * jp[None, :]
            gen[0:N, 2 * N : 3 * N] = self._op(entry, "b", t) * jp[None, :]
            gen[N : 2 * N, 0:N] = np.diag(jp)
            gen[2 * N : 3 * N, N : 2 * N] = np.diag(jp)
            for j, name in enumerate(("b10", "b11", "b12")):
                expr = self._symbols()[name]
                if not (isinstance(expr, Const) and expr.value == 0.0):
                    gen[0:N, j * N : (j + 1) * N] += self._op(entry, name, t)
            entry["gen"] = gen
        return entry["gen"]

    def energy_matrix(self, t, lam):
        """Hermitian part of Op(S)(t) + lam t^-1 blockdiag(jp^-2)."""
        entry = self._entry(t)
        if "senergy" not in entry:
            N = self.grid.N
            op_a = self._op(entry, "a", t)
            op_b = self._op(entry, "b", t)
            op_a2 = self._op(entry, "a2", t)
            S = np.zeros((3 * N, 3 * N), dtype=complex)
            S[0:N, 0:N] = 3.0 * np.eye(N)
            S[0:N, 2 * N :] = -op_a
            S[2 * N :, 0:N] = -op_a
            S[N : 2 * N, N : 2 * N] = 2.0 * op_a
            S[N : 2 * N, 2 * N :] = 3.0 * op_b
            S[2 * N :, N : 2 * N] = 3.0 * op_b
            S[2 * N :, 2 * N :] = op_a2
            entry["senergy"] = 0.5 * (S + S.conj().T)
        base = entry["senergy"]
        if lam == 0.0 or t <= 0:
            return base
        return base + np.diag((lam / t) * self._jp_inv2_block)

    def op_a_matrix(self, t):
        return self._op(self._entry(t), "a", t)


def assemble_generator(model, lot, t, grid):
    """M(t) as a BlockOp (see Assembler.generator for the layout)."""
    mat = Assembler(model, lot, grid).generator(t)
    return BlockOp(matrix=mat, grid=grid)


def _rk4(U, t, h, apply_gen, F=None):
    def rhs(tt, V):
        out = apply_gen(tt, V)
        if F is not None:
            out = out + F(tt)
        return 1j * out

    k1 = rhs(t, U)
    k2 = rhs(t + 0.5 * h, U + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, U + 0.5 * h * k2)
    k4 = rhs(t + h, U + h * k3)
    return U + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(U, t, dt, model, lot, grid, F=None, assembler=None):
    """One RK4 step of dU/dt = i (M(t) U + F(t)).

    The instability guard turns a growth factor above 1e6 into a None
    return (the evolve driver reports it as the verdict "unbounded").
    """
    asm = assembler or Assembler(model, lot, grid)
    data = U.data if isinstance(U, StateVector) else U
    out = _rk4(np.asarray(data, dtype=complex), t, dt,
               lambda tt, V: asm.generator(tt) @ V, F)
    if np.linalg.norm(out) > 1e6 * max(np.linalg.norm(data), 1e-300):
        return None
    return StateVector(out, grid) if isinstance(U, StateVector) else out


@dataclass
class EnergyTrace:
    t: np.ndarray
    dt: float
    Q: np.ndarray
    E: np.ndarray
    n1sq: np.ndarray
    n2sq: np.ndarray
    aU3U3: np.ndarray
    norm: np.ndarray
    Fterm: np.ndarray       # (Stilde F, F) samples
    n_weight: float
    n_star: float
    gamma: float
    lam: float
    aborted: bool = False

    def csv_rows(self):
        """Per-sample rows: t, E, dE_dt, rhs_bound, margin, n1sq, n2sq, aU3U3, norm."""
        n = len(self.t)
        dE = np.full(n, np.nan)
        rhs = np.full(n, np.nan)
        margin = np.full(n, np.nan)
        if n > 1 and not self.aborted:
            per = energy_margins(self)
            dE[:-1] = per.dE_dt
            rhs[:-1] = per.rhs
            margin[:-1] = per.raw_margins
        for i in range(n):
            yield (self.t[i], self.E[i], dE[i], rhs[i], margin[i],
                   self.n1sq[i], self.n2sq[i], self.aU3U3[i], self.norm[i])


def _fixed_steps(cfg: EvolveConfig, asm: Assembler):
    """Uniform step points covering [eps_start, T] (last step clipped)."""
    h = (cfg.dt if cfg.dt is not None else asm.cfl_dt(cfg.cfl)) * cfg.dt_scale
    n = max(1, math.ceil((cfg.T - cfg.eps_start) / h - 1e-12))
    ts = cfg.eps_start + h * np.arange(n)
    return [(float(t), float(min(h, cfg.T - t))) for t in ts]


def evolve(model, lot, U0, cfg: EvolveConfig, grid, F=None, record_energy=True,
           assembler=None):
    """Integrate dU/dt = i (M(t) U + F(t)) from eps_start to T.

    U0 is a (3N,) complex vector (or StateVector).  F, when given, maps t
    to a (3N,) vector.  Returns (EnergyTrace, U_final); on a growth abort
    the trace is truncated and flagged aborted (verdict "unbounded").
    """
    cfg.validate()
    if isinstance(U0, StateVector):
        U0 = U0.data
    asm = assembler or Assembler(model, lot, grid)
    steps = _fixed_steps(cfg, asm)

    ts = []
    samples = {k: [] for k in ("Q", "E", "n1", "n2", "aU3", "norm", "Ft")}
    U = np.array(U0, dtype=complex)
    N = grid.N

    def record(t, U):
        ts.append(t)
        samples["norm"].append(float(np.linalg.norm(U)))
        if not record_energy:
            return
        Sm = asm.energy_matrix(t, cfg.lam)
        Q = float(np.real(np.vdot(U, Sm @ U)))
        w = t ** (-cfg.n_weight) * math.exp(-cfg.gamma * t)
        samples["Q"].append(Q)
        samples["E"].append(w * Q)
        samples["n1"].append(float(np.real(np.vdot(U[:N], U[:N]))))
        samples["n2"].append(float(np.real(np.vdot(U[N : 2 * N], U[N : 2 * N]))))
        u3 = U[2 * N :]
        samples["aU3"].append(float(np.real(np.vdot(u3, asm.op_a_matrix(t) @ u3))))
        if F is not None:
            Fv = F(t)
            samples["Ft"].append(float(np.real(np.vdot(Fv, Sm @ Fv))))
        else:
            samples["Ft"].append(0.0)

    aborted = False
    record(steps[0][0], U)
    apply_gen = lambda tt, V: asm.generator(tt) @ V
    for t, h in steps:
        U_new = _rk4(U, t, h, apply_gen, F)
        if np.linalg.norm(U_new) > cfg.growth_abort * max(np.linalg.norm(U), 1e-300):
            aborted = True
            break
        U = U_new
        record(t + h, U)

    empty = np.zeros(0)
    trace = EnergyTrace(
        t=np.array(ts),
        dt=steps[0][1],
        Q=np.array(samples["Q"]) if record_energy else empty,
        E=np.array(samples["E"]) if record_energy else empty,
        n1sq=np.array(samples["n1"]) if record_energy else empty,
        n2sq=np.array(samples["n2"]) if record_energy else empty,
        aU3U3=np.array(samples["aU3"]) if record_energy else empty,
        norm=np.array(samples["norm"]),
        Fterm=np.array(samples["Ft"]) if record_energy else empty,
        n_weight=cfg.n_weight,
        n_star=cfg.n_star,
        gamma=cfg.gamma,
        lam=cfg.lam,
        aborted=aborted,
    )
    return trace, U


# ---------------------------------------------------------------------------
# energy inequality margins

@dataclass(frozen=True)
class MarginReport:
    margins: np.ndarray        # normalized, per step
    raw_margins: np.ndarray
    dE_dt: np.ndarray
    rhs: np.ndarray
    midpoints: np.ndarray
    min_margin: float
    argmin_t: float
    int_defect: float          # integrated-inequality defect, source-free runs
    passed: bool
    tol: float


def energy_margins(trace: EnergyTrace, tol=0.05):
    """Per-step margins of dE/dt <= w(t) [t (Stilde F, F) - (N - N*) Q / t].

    w(t) = t^-N e^(-gamma t); the right-hand side is averaged over the step
    endpoints and the derivative is the forward difference, so margins
    converge at rate dt^2.  Normalization divides by the larger of the two
    sides (floored by the weighted energy scale).  For source-free runs the
    integrated form E(t) + (N - N*) int E/tau dtau <= E(eps) is also
    accumulated; int_defect is its worst relative excess.
    """
    if trace.aborted:
        raise ValueError("trace aborted; margins undefined")
    t0, t1 = trace.t[:-1], trace.t[1:]
    dt = np.diff(trace.t)
    nw, ns, g = trace.n_weight, trace.n_star, trace.gamma

    def rhs_at(t, Q, Ft):
        w = t ** (-nw) * np.exp(-g * t)
        return w * (t * Ft - (nw - ns) * Q / t)

    rhs0 = rhs_at(t0, trace.Q[:-1], trace.Fterm[:-1])
    rhs1 = rhs_at(t1, trace.Q[1:], trace.Fterm[1:])
    rhs = 0.5 * (rhs0 + rhs1)
    dE_dt = (trace.E[1:] - trace.E[:-1]) / dt
    raw = rhs - dE_dt
    tbar = 0.5 * (t0 + t1)
    wbar = tbar ** (-nw) * np.exp(-g * tbar)
    qbar = 0.5 * (trace.Q[:-1] + trace.Q[1:])
    floor = wbar * (ns / tbar + g) * np.abs(qbar)
    scale = np.maximum(np.maximum(np.abs(dE_dt), np.abs(rhs)), floor) + 1e-300
    margins = raw / scale

    int_defect = math.nan
    if len(t0) and np.all(trace.Fterm == 0.0):
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
        passed=bool(len(margins) and float(margins[i]) >= -tol),
        tol=tol,
    )


def check_energy_inequality(trace: EnergyTrace, tol=0.05):
    return energy_margins(trace, tol=tol)


def margin_deviation(report: MarginReport, reference: MarginReport):
    """Worst distance of the normalized margins from a finer-dt reference.

    Reference margins are interpolated to the coarse step midpoints; the
    deviation contracts at rate dt^2 when the step is halved, which is the
    measurable form of margin convergence (the signed worst margin may sit
    at a continuum-positive point and not move under refinement).
    """
    ref = np.interp(report.midpoints, reference.midpoints, reference.margins)
    return float(np.max(np.abs(report.margins - ref)))


@dataclass(frozen=True)
class EnergyConstants:
    n_star: float
    n_weight: float
    gamma: float
    lam: float
    argmax_t: float


def _next_pow2(v):
    if v <= 0:
        return 1.0
    return 2.0 ** math.ceil(math.log2(v))


def search_energy_constants(model, lot, grid, eps_start=1e-2, T=1.0, gamma=1.0,
                            U0=None, seed=0, dt_scale=0.125):
    """Measure workable (N*, N, gamma, lam) on a reference trajectory.

    lam: smallest power of two with Herm(Op S) + (lam/2) t^-1 jp^-2 >= 0 on
    a coarse t grid (positivity of the shifted energy), doubled once for
    headroom.  N*: sup over the reference run of t (dQ/dt / Q - gamma),
    clamped at 0, so the reference-run margins bottom out at zero.  The
    weight exponent N adds a display buffer; only N - N* enters verdicts.
    """
    asm = Assembler(model, lot, grid)
    jp_block = np.concatenate([grid.jp_values] * 3)
    lam_need = 0.0
    for t in np.geomspace(eps_start, T, 7):
        H = asm.energy_matrix(t, 0.0)
        sym = jp_block[:, None] * H * jp_block[None, :]
        lam_need = max(lam_need, 2.0 * t * max(0.0, -float(np.linalg.eigvalsh(sym)[0])))
    lam = _next_pow2(2.0 * lam_need) if lam_need > 0 else 1.0

    if U0 is None:
        rng = np.random.default_rng(seed)
        U0 = rng.standard_normal(3 * grid.N) + 1j * rng.standard_normal(3 * grid.N)
        U0 = U0 / np.linalg.norm(U0)
    cfg = EvolveConfig(eps_start=eps_start, T=T, dt_scale=dt_scale, lam=lam,
                       gamma=gamma, n_weight=1.0)
    trace, _ = evolve(model, lot, U0, cfg, grid, assembler=asm)
    if trace.aborted:
        raise ValueError("reference trajectory unbounded; cannot calibrate constants")
    if np.any(trace.Q <= 0):
        raise ValueError("energy lost positivity; increase lam")
    dt = np.diff(trace.t)
    qbar = 0.5 * (trace.Q[:-1] + trace.Q[1:])
    growth = (trace.Q[1:] - trace.Q[:-1]) / (dt * qbar)
    tbar = 0.5 * (trace.t[:-1] + trace.t[1:])
    vals = tbar * (growth - gamma)
    i = int(np.argmax(vals))
    n_star = max(0.0, float(vals[i]))
    return EnergyConstants(
        n_star=n_star,
        n_weight=n_star + 0.25,
        gamma=gamma,
        lam=lam,
        argmax_t=float(tbar[i]),
    )


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
    asm = Assembler(model, lot, grid)
    N = grid.N
    nb = len(k_list)
    U = np.zeros((3 * N, nb), dtype=complex)
    for col, k in enumerate(k_list):
        if not 1 <= abs(k) <= grid.K:
            raise ValueError("modes must lie in [1, K]")
        for i in range(3):
            U[i * N + (k + grid.K), col] = 1.0 / math.sqrt(3.0)
    steps = _fixed_steps(cfg, asm)
    sup = np.ones(nb)
    aborted = False
    apply_gen = lambda tt, V: asm.generator(tt) @ V
    for t, h in steps:
        U_new = _rk4(U, t, h, apply_gen)
        norms_old = np.linalg.norm(U, axis=0)
        norms = np.linalg.norm(U_new, axis=0)
        if np.any(norms > cfg.growth_abort * np.maximum(norms_old, 1e-300)):
            aborted = True
            break
        U = U_new
        sup = np.maximum(sup, norms)
    if aborted:
        return LossReport(tuple(k_list), tuple(float(v) for v in sup), math.inf, True)
    jp = np.sqrt(1.0 + (np.asarray(k_list, dtype=float) * grid.base_freq) ** 2)
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
    within_factor: float


def frequency_cutoff_check(model, lot, grid, nus, t=0.5):
    """Scaling of smooth frequency cutoffs against the generator.

    chi_nu multiplies mode k by taper(|nu k w0|): identity below 1/nu, zero
    above 2/nu.  Reports nu |A_nu| and nu^-1 |[chi_nu, M]|, which symbol
    calculus keeps comparable across nu; entries whose transition band
    2/nu escapes the grid are flagged and excluded from the spread.
    """
    asm = Assembler(model, lot, grid)
    gen = asm.generator(t)
    freqs_abs = np.abs(np.concatenate([grid.freqs] * 3))
    scaled_low, scaled_comm, flagged = [], [], []
    for nu in nus:
        if not 0 < nu <= 1:
            raise ValueError("cutoff scales must lie in (0, 1]")
        chi_half = _taper(0.5 * nu * freqs_abs)
        chi_full = _taper(nu * freqs_abs)
        A_nu = gen * chi_half[None, :]
        R_nu = chi_full[:, None] * gen - gen * chi_full[None, :]
        scaled_low.append(nu * operator_norm(A_nu))
        scaled_comm.append(operator_norm(R_nu) / nu)
        flagged.append(bool(2.0 / nu > grid.K))
    ok = [i for i, fl in enumerate(flagged) if not fl]
    spread = 0.0
    for vals in (scaled_low, scaled_comm):
        arr = np.array([vals[i] for i in ok])
        if len(arr):
            med = float(np.median(arr))
            if med > 0:
                spread = max(spread, float(np.max(arr / med)), float(np.max(med / arr)))
    return CutoffReport(
        nu=tuple(float(v) for v in nus),
        scaled_low=tuple(scaled_low),
        scaled_comm=tuple(scaled_comm),
        flagged=tuple(flagged),
        within_factor=spread,
    )


# ---------------------------------------------------------------------------
# smooth window expressions, partition of unity, extension

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
class PartitionReport:
    chis: tuple
    sos_max_dev: float
    covering_min: float
    commutator_norms: dict           # K -> per-window |[Op(chi_a), M]| restricted
    commutator_norms_plain: dict     # K -> unrestricted norms (grow with K)


def partition_sos(windows, chi=None, period=TWO_PI, beta_scale=3.0,
                  model=None, lot=None, K_list=(16, 32, 64), t=0.5):
    """Square partition chi_a = chi w_a / sqrt(sum w^2) over the windows.

    windows is a list of (lo, hi) x-intervals whose union must cover the
    support of chi (default chi = 1, the whole torus).  The SOS identity
    sum chi_a^2 = chi^2 holds algebraically; its grid deviation and the
    generator commutator norms (when a model is given) are reported.

    Two commutator norms are recorded per truncation K.  The plain norm of
    [Op(chi_a), M(t)] is dominated by modes at the grid edge, where the
    truncation acts as an extra sharp frequency cutoff and contributes
    entries of size jp(K); it grows linearly in K and says nothing about
    the symbols.  Compressing to inputs and outputs in the resolved half
    band |k| <= K/2 removes the edge artifact and converges to the
    continuum commutator norm from below, so that is the bounded quantity.
    """
    if chi is None:
        chi = Const(1.0)
    if not windows:
        raise ValueError("need at least one window")
    ws = []
    for lo, hi in windows:
        if not hi > lo:
            raise ValueError("window must have hi > lo")
        c = 0.5 * (lo + hi)
        r = 0.5 * (hi - lo)
        ws.append(window_expr(c, 0.75 * r, r, beta_scale))
    s2 = ws[0] * ws[0]
    for w in ws[1:]:
        s2 = s2 + w * w
    xs = np.linspace(0.0, period, 4096, endpoint=False)
    chi_vals = np.broadcast_to(np.asarray(chi.evaluate(0.0, xs, 0.0)), xs.shape)
    s2_vals = np.broadcast_to(np.asarray(s2.evaluate(0.0, xs, 0.0)), xs.shape)
    support = np.abs(chi_vals) > 1e-12
    covering_min = float(np.min(s2_vals[support])) if support.any() else float(np.min(s2_vals))
    if covering_min < 1e-8:
        raise ValueError(
            f"windows do not cover the support of chi (min sum w^2 = {covering_min:.3e})"
        )
    root = call("sqrt", s2)
    chis = tuple(chi * w / root for w in ws)
    total = sum(
        np.broadcast_to(np.asarray(c.evaluate(0.0, xs, 0.0)), xs.shape) ** 2 for c in chis
    )
    sos_dev = float(np.max(np.abs(total - chi_vals**2)))
    comm, comm_plain = {}, {}
    if model is not None:
        for K in K_list:
            g = FourierGrid(K, period)
            gen = Assembler(model, lot, g).generator(t)
            half = np.kron(np.eye(3), np.diag((np.abs(g.freqs) <= K // 2).astype(float)))
            norms, norms_plain = [], []
            for c in chis:
                op_c = op_weyl(c, 0.0, g).matrix
                blk = np.kron(np.eye(3), op_c)
                full = blk @ gen - gen @ blk
                norms.append(operator_norm(half @ full @ half))
                norms_plain.append(operator_norm(full))
            comm[K] = norms
            comm_plain[K] = norms_plain
    return PartitionReport(chis=chis, sos_max_dev=sos_dev, covering_min=covering_min,
                           commutator_norms=comm, commutator_norms_plain=comm_plain)


@dataclass(frozen=True)
class ExtensionReport:
    model: HyperbolicModel
    M: float
    delta_local: float
    delta_global: float


def extend_model(local: HyperbolicModel, window, M=None, beta_scale=35.0,
                 xi_range=(1.0, 64.0), delta_floor=1e-8):
    """Extend a model satisfying (E) on an x-window to the whole torus.

    Uses alpha_ext = chi1 alpha + M chi2 and b_ext = chi1 b with nested
    plateaus chi1 (1 inside, 0 outside the window) and chi2 (0 well inside,
    1 outside).  M is the smallest power of two with
    4 M^3 c0^3 >= 27 sup(chi1 b)^2, keeping the cut region strictly
    hyperbolic.  The result must pass condition (E) globally.
    """
    lo, hi = window
    if not hi > lo:
        raise ValueError("window must have hi > lo")
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)

    nxi = 9
    xi_vals = np.geomspace(xi_range[0], xi_range[1], nxi)
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

    chi1 = window_expr(c, 0.75 * r, r, beta_scale)
    chi2 = Const(1.0) - window_expr(c, 0.5 * r, 0.75 * r, beta_scale)

    b_cut = chi1 * local.b
    tgrid = np.linspace(0.0, local.T, 33)
    xgrid = np.linspace(0.0, local.period, 256, endpoint=False)
    vals = np.abs(
        np.broadcast_to(
            b_cut.evaluate(tgrid[:, None, None], xgrid[None, :, None],
                           xi_vals[None, None, :]),
            (33, 256, nxi),
        )
    )
    sup_b = float(np.max(vals))
    if M is None:
        M = 1.0
        while 4.0 * M**3 * local.c0**3 < 27.0 * sup_b**2:
            M *= 2.0
    alpha_ext = chi1 * local.alpha + Const(float(M)) * chi2
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
    return ExtensionReport(model=ext, M=float(M), delta_local=rep_local.delta_best,
                           delta_global=rep_global.delta_best)


# ---------------------------------------------------------------------------
# flat Taylor lift at t = 0

@dataclass(frozen=True)
class TaylorLift:
    coefficients: tuple      # U_j, j = 0..order
    grid: FourierGrid

    def eval(self, t):
        out = np.zeros_like(self.coefficients[0])
        for j, Uj in enumerate(self.coefficients):
            out = out + Uj * (1j * t) ** j / math.factorial(j)
        return out

    def deriv(self, t, m):
        """D_t^m of the lift at time t (D_t = -i d/dt)."""
        out = np.zeros_like(self.coefficients[0])
        for j in range(m, len(self.coefficients)):
            Uj = self.coefficients[j]
            out = out + Uj * (1j**j) * ((-1j) ** m) * t ** (j - m) / math.factorial(j - m)
        return out


def taylor_lift(model, lot, data, order, grid, f=None):
    """Polynomial lift U_M(t) = sum U_j (i t)^j / j! matching D_t^j U(0).

    data is the triple of component coefficient vectors of U(0).  The
    recursion D_t^(j+1) U = D_t^j (M U + F) at t = 0 takes the generator's
    t derivatives symbolically; order is capped at 6.  f, when given, is a
    forcing expression in (t, x) entering the first component.
    """
    if not 0 <= order <= 6:
        raise ValueError("order must be between 0 and 6")
    lot = lot or LowerOrderTerms.zero()
    N = grid.N
    U0 = np.concatenate([np.asarray(v, dtype=complex) for v in data])
    if U0.shape != (3 * N,):
        raise ValueError("data must be three coefficient vectors of length N")

    jp = grid.jp_values
    gen_derivs = []
    a_i, b_i = model.a_expr, model.b
    lot_i = [lot.b10, lot.b11, lot.b12]
    for i in range(order):
        if i:
            a_i = differentiate(a_i, "t", 1)
            b_i = differentiate(b_i, "t", 1)
            lot_i = [differentiate(e, "t", 1) for e in lot_i]
        gen = np.zeros((3 * N, 3 * N), dtype=complex)
        gen[0:N, N : 2 * N] = op_weyl(a_i, 0.0, grid).matrix * jp[None, :]
        gen[0:N, 2 * N :] = op_weyl(b_i, 0.0, grid).matrix * jp[None, :]
        for j, e in enumerate(lot_i):
            if not (isinstance(e, Const) and e.value == 0.0):
                gen[0:N, j * N : (j + 1) * N] += op_weyl(e, 0.0, grid).matrix
        if i == 0:
            gen[N : 2 * N, 0:N] = np.diag(jp)
            gen[2 * N :, N : 2 * N] = np.diag(jp)
        gen_derivs.append(((-1j) ** i) * gen)

    f_derivs = []
    if f is not None:
        fi = f
        for i in range(order):
            if i:
                fi = differentiate(fi, "t", 1)
            vec = np.zeros(3 * N, dtype=complex)
            vec[0:N] = grid.coefficients(fi, t=0.0)
            f_derivs.append(((-1j) ** i) * vec)

    coeffs = [U0]
    for j in range(order):
        nxt = np.zeros(3 * N, dtype=complex)
        for i in range(j + 1):
            nxt += math.comb(j, i) * (gen_derivs[i] @ coeffs[j - i])
        if f is not None:
            nxt += f_derivs[j]
        coeffs.append(nxt)
    return TaylorLift(coefficients=tuple(coeffs), grid=grid)


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
    from .quantize import fp_search
    from .symmetrizer import lower_bound_delta

    model = build_model(
        base.alpha + Const(float(eps)),
        atilde=base.atilde,
        b=base.b,
        c0=base.c0,
        T=base.T,
        period=base.period,
        name=f"g_eps({base.name},{eps:g})",
    )
    cond = check_condition(model, "E",
                           default_condition_grid(model, nt=32, nx=32, nxi=5))
    sym = lower_bound_delta(model, default_condition_grid(model, nt=16, nx=16, nxi=5))
    fp = fp_search(model, np.geomspace(1e-2, model.T, 3), grid)
    rng = np.random.default_rng(seed)
    U0 = rng.standard_normal(3 * grid.N) + 1j * rng.standard_normal(3 * grid.N)
    U0 = U0 / np.linalg.norm(U0)
    consts = search_energy_constants(model, lot, grid, T=model.T, seed=seed,
                                     U0=U0, dt_scale=0.5)
    cfg = EvolveConfig(T=model.T, n_weight=consts.n_weight, n_star=consts.n_star,
                       gamma=consts.gamma, lam=consts.lam)
    trace, _ = evolve(model, lot, U0, cfg, grid)
    margin = energy_margins(trace).min_margin if not trace.aborted else -math.inf
    return SweepRow(
        eps=float(eps),
        delta_best_E=cond.delta_best,
        delta_sym=sym.delta_sym,
        fp_delta=fp.best[0] if fp.best else 0.0,
        fp_C=fp.best[1] if fp.best else math.inf,
        n_star=consts.n_star,
        min_margin=margin,
    )


def regularize_sweep(base: HyperbolicModel, lot, eps_list, grid_k=8, factor=4.0,
                     seed=0, workers=1):
    """Track the main constants as alpha is shifted to alpha + eps.

    Each row records delta_best for (E), the pointwise symmetrizer delta,
    the best feasible sharp-bound pair, the measured energy exponent N*
    and the worst energy margin.  The sweep passes when every strictly
    positive constant stays within the given factor across the list and
    the margins hold at every eps.  Rows are independent, so workers > 1
    computes them in a thread pool; row order follows eps_list either way.
    """
    grid = FourierGrid(grid_k, base.period)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda e: _sweep_row(base, lot, e, grid, seed),
                                 eps_list))
    else:
        rows = [_sweep_row(base, lot, eps, grid, seed) for eps in eps_list]
    worst = 1.0
    for getter in (lambda r: r.delta_best_E, lambda r: r.delta_sym,
                   lambda r: r.fp_delta):
        vals = np.array([getter(r) for r in rows])
        if np.any(vals <= 0):
            return SweepReport(tuple(rows), math.inf, False)
        worst = max(worst, float(np.max(vals) / np.min(vals)))
    passed = (worst <= factor and all(math.isfinite(r.fp_C) for r in rows)
              and all(r.min_margin >= -0.05 for r in rows))
    return SweepReport(tuple(rows), worst, passed)
