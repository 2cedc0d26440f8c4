"""Job kinds: one verdict a user would ask triplex for, built from a seeded spec.

A spec is a JSON-ready dict ``{"kind": ..., <seeded parameters>}``.
``build(spec, ctx)`` turns it into a ``Job`` whose ``call`` is the timed part
(only calls into triplex, each inside a tracer span named after the module
function it calls) and whose ``check`` compares the output with an oracle,
outside the timed part, at the acceptance gate's frozen tolerances.  The
oracles are independent of the code under test where that is cheap: closed
forms for the gallery coefficients, LAPACK eigen- and singular values, the
companion-matrix roots, and re-verification with ``fp_check``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from triplex import cli
from triplex.cubic import (
    check_beta1_bound,
    check_condition,
    default_condition_grid,
    glaeser_bounds,
    root_oracle_array,
    roots_trig_array,
)
from triplex.evolution import (
    Assembler,
    EvolveConfig,
    energy_margins,
    evolve,
    extend_model,
    frequency_cutoff_check,
    loss_probe,
    regularize_sweep,
    search_energy_constants,
)
from triplex.models import LowerOrderTerms, gallery, parse_model_text
from triplex.quantize import FourierGrid, fp_check, fp_search, friedrichs_part, operator_norm
from triplex.reporting import emit_plot, energy_csv_text
from triplex.symbols import Const
from triplex.symmetrizer import lower_bound_delta

FP_T_POINTS = 10          # the fpcheck command's default t grid length
CUTOFF_NUS = (0.5, 0.25, 0.125, 0.0625)


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Job:
    kind: str
    spec: dict
    sizes: dict                   # K, n3 (= 3N), steps, t_grid where they apply
    call: Callable[[object], object]
    check: Callable[[object], None]


def sizes_for(K=None, steps=None, t_grid=None):
    out = {}
    if K is not None:
        out["K"] = K
        out["n3"] = 3 * (2 * K + 1)
    if steps is not None:
        out["steps"] = steps
    if t_grid is not None:
        out["t_grid"] = t_grid
    return out


# ---------------------------------------------------------------------------
# model sources and their closed forms

def parse_source(source):
    """'name' or 'name:k=v,...' as the CLI accepts it."""
    name, _, params = source.partition(":")
    kwargs = {}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            kwargs[key.strip()] = float(value)
    return name, kwargs


def closed_form(source):
    """(alpha(x), b(t, x), sup |beta1| / sqrt(alpha)) of a gallery source, in numpy."""
    name, p = parse_source(source)
    u = lambda x: 1.0 - np.cos(x)
    if name == "g_strict":
        M = p.get("M", 1.0)
        return (lambda x: np.full_like(x, M)), (lambda t, x: 0.0 * t * x), 0.0
    if name == "g_zero_b":
        return (lambda x: u(x) ** 2), (lambda t, x: 0.0 * t * x), 0.0
    if name == "g_E":
        k = (1.0 - p.get("eps", 0.25)) / math.sqrt(3.0)
        return (lambda x: u(x) ** 2), (lambda t, x: t * k * u(x)), k
    if name in ("g_ex21p", "g_ex21m"):
        sgn = -1.0 if name == "g_ex21p" else 1.0
        return (lambda x: np.sin(x) ** 2), (lambda t, x: sgn * t * np.sin(x)), 1.0
    if name == "g_ex22":
        m = int(p.get("m", 6))
        return (lambda x: u(x) ** 2), (lambda t, x: (t**m / 2.0 - t) * u(x)), 1.0
    raise ValueError(f"no closed form for {source!r}")


def s_entries(model):
    """Symbol entries of the symmetrizer S (the matrix criterion 4 averages)."""
    a, b = model.a_expr, model.b
    return [
        [Const(3.0), Const(0.0), -a],
        [Const(0.0), Const(2.0) * a, Const(3.0) * b],
        [-a, Const(3.0) * b, a * a],
    ]


class Context:
    """Per-run inputs built outside the timed part, and results later jobs need."""

    def __init__(self):
        self._models = {}
        self._steps = {}
        self.found_pairs = {}       # (source, K) -> best pair of the latest fp_search

    def model(self, source):
        if source not in self._models:
            name, kwargs = parse_source(source)
            self._models[source] = gallery(name, **kwargs)
        return self._models[source]

    def rk4_steps(self, source, K, cfg):
        """RK4 steps of an evolution at the CFL step, from Assembler.cfl_dt."""
        key = (source, K, cfg.eps_start, cfg.T)
        if key not in self._steps:
            model = self.model(source)
            h = Assembler(model, None, FourierGrid(K, model.period)).cfl_dt(cfg.cfl)
            self._steps[key] = max(1, math.ceil((cfg.T - cfg.eps_start) / (h * cfg.dt_scale) - 1e-12))
        return self._steps[key]


def _run_cli(tr, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        with tr.span("cli." + argv[0]):
            rc = cli.run(argv)
    return rc, buf.getvalue()


def _cli_payload(out):
    rc, text = out
    expect(rc == 0, f"exit code {rc}")
    return json.loads(text)


# ---------------------------------------------------------------------------
# Friedrichs part of the symmetrizer (criterion 4)

def _friedrichs(spec, ctx):
    model, K, t = ctx.model(spec["model"]), spec["K"], spec["t"]
    grid = FourierGrid(K, model.period)
    entries = s_entries(model)

    def call(tr):
        with tr.span("quantize.friedrichs_part", K=K):
            qf = friedrichs_part(entries, t, grid)
        with tr.span("quantize.BlockOp.min_eig", K=K):
            min_eig = qf.min_eig()
        with tr.span("quantize.operator_norm", K=K):
            norm = operator_norm(qf.matrix)
        return qf.matrix, min_eig, norm

    def check(out):
        mat, min_eig, norm = out
        expect(min_eig / norm >= -1e-8, f"min eig / norm = {min_eig / norm:.3e} < -1e-8")
        ref_norm = float(np.linalg.norm(mat, 2))
        ref_min = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])
        # power iteration stops on a relative change of 1e-8, not on accuracy: at the
        # seed it misses the SVD value by up to 3.5e-5 relative (g_ex21p/m, K = 8)
        expect(abs(norm - ref_norm) <= 1e-4 * ref_norm, "operator_norm disagrees with the SVD")
        expect((min_eig / norm >= -1e-8) == (ref_min / ref_norm >= -1e-8),
               "verdict disagrees with the LAPACK verdict")
        expect(abs(min_eig - ref_min) <= 1e-10 * ref_norm, "min_eig disagrees with LAPACK")

    return call, check, sizes_for(K)


def _cli_quantize(spec, ctx):
    def call(tr):
        return _run_cli(tr, ["quantize", "--model", spec["model"]])

    def check(out):
        p = _cli_payload(out)
        expect(p["positivity_holds"] and p["friedrichs_min_eig_over_norm"] >= -1e-8,
               "quantize reports negative Friedrichs part")
        expect(all(math.isfinite(v) and v > 0 for v in p["weighted_residual_by_K"].values()),
               "weighted residuals not finite")

    return call, check, sizes_for(16)


# ---------------------------------------------------------------------------
# sharp lower bound: (delta, C) with Herm(Op S) >= delta t M - (C/t) P (criterion 5)

def _fp_grid(spec, ctx):
    model = ctx.model(spec["model"])
    return model, FourierGrid(spec["K"], model.period), np.geomspace(1e-2, model.T, FP_T_POINTS)


def _fp_search(spec, ctx):
    model, grid, t_values = _fp_grid(spec, ctx)
    K = spec["K"]

    def call(tr):
        with tr.span("quantize.fp_search", K=K):
            return fp_search(model, t_values, grid)

    def check(res):
        ctx.found_pairs[(spec["model"], K)] = res.best
        expect(res.best is not None, "no feasible pair")
        d, C = res.best
        expect(all(fp_check(model, t, grid, d, C).feasible for t in t_values),
               "best pair fails fp_check at some t")
        smaller = [c for c in res.Cs if c < C]
        if smaller:
            expect(not all(fp_check(model, t, grid, d, max(smaller)).feasible for t in t_values),
                   "the next smaller C is feasible too")
        if spec["model"] in ("g_E", "g_zero_b") and K == 32:
            expect(tuple(res.best) == (1.0, 512.0), f"best {res.best} != (1.0, 512.0)")

    return call, check, sizes_for(K, t_grid=FP_T_POINTS)


def _fp_check(spec, ctx):
    model, grid, t_values = _fp_grid(spec, ctx)
    K = spec["K"]
    pair = ctx.found_pairs.get((spec["model"], K))

    def call(tr):
        d, C = pair
        out = []
        for t in t_values:
            with tr.span("quantize.fp_check", K=K):
                out.append(fp_check(model, t, grid, d, C))
        return out

    def check(results):
        expect(all(r.feasible for r in results), "fp_check rejects the pair fp_search found")
        expect(all(r.feasible == (r.min_eig >= -1e-8 * r.scale) for r in results),
               "feasible flag disagrees with min_eig and scale")

    return call, check, sizes_for(K, t_grid=FP_T_POINTS)


# ---------------------------------------------------------------------------
# RK4 evolutions (criteria 6, 7, 8)

def _loss_probe(spec, ctx):
    model, K = ctx.model(spec["model"]), spec["K"]
    lot = LowerOrderTerms.random_trig(spec["lot_seed"])
    grid = FourierGrid(K, model.period)
    cfg = EvolveConfig(eps_start=1e-2, T=1.0)
    k_list = [4 * 2**i for i in range(8) if 4 * 2**i <= K // 2]
    steps = ctx.rk4_steps(spec["model"], K, cfg)

    def call(tr):
        with tr.span("evolution.loss_probe", K=K, steps=steps):
            return loss_probe(model, lot, grid, cfg, k_list)

    def check(rep):
        e = rep.exponent
        expect(not rep.aborted and math.isfinite(e), "loss probe aborted")
        if parse_source(spec["model"])[0] == "g_strict":
            expect(e <= 0.3, f"strict exponent {e:.3f} > 0.3")
        else:
            expect(0.2 <= e <= 0.8, f"exponent {e:.3f} outside [0.2, 0.8]")

    return call, check, sizes_for(K, steps=steps)


def _evolve_cmd(spec, ctx):
    """The evolve command's work at its defaults (K = 16, searched constants)."""
    source, K = spec["model"], 16
    model = ctx.model(source)
    lot = LowerOrderTerms.random_trig(spec["lot_seed"])
    grid = FourierGrid(K, model.period)
    rng = np.random.default_rng(spec["state_seed"])
    U0 = rng.standard_normal(3 * grid.N) + 1j * rng.standard_normal(3 * grid.N)
    U0 = U0 / np.linalg.norm(U0)
    steps = ctx.rk4_steps(source, K, EvolveConfig(eps_start=1e-2, T=1.0))

    def call(tr):
        with tr.span("evolution.search_energy_constants", K=K):
            c = search_energy_constants(model, lot, grid, eps_start=1e-2, T=1.0, gamma=1.0, U0=U0)
        cfg = EvolveConfig(eps_start=1e-2, T=1.0, n_weight=c.n_weight,
                           n_star=min(c.n_star, c.n_weight), gamma=c.gamma, lam=c.lam)
        with tr.span("evolution.evolve", K=K, steps=steps):
            trace, _ = evolve(model, lot, U0, cfg, grid)
        if trace.aborted:
            return trace, None, ()
        with tr.span("evolution.energy_margins", K=K):
            margins = energy_margins(trace)
        with tr.span("reporting.energy_csv_text"):
            csv = energy_csv_text(trace)
        with tr.span("reporting.emit_plot"):
            svg_e = emit_plot(trace, None)
        with tr.span("reporting.emit_plot"):
            svg_m = emit_plot(margins, None)
        return trace, margins, (csv, svg_e, svg_m)

    def check(out):
        trace, margins, texts = out
        expect(not trace.aborted, "evolution aborted")
        csv, svg_e, svg_m = texts
        expect(len(trace.t) - 1 == steps, f"{len(trace.t) - 1} steps, expected {steps}")
        expect(margins.min_margin >= -0.05, f"min margin {margins.min_margin:.3e} < -0.05")
        expect(csv.count("\n") == len(trace.t) + 1, "energy CSV row count")
        expect(all(s.rstrip().endswith("</svg>") for s in (svg_e, svg_m)), "SVG not closed")

    return call, check, sizes_for(K, steps=steps)


def _cutoff(spec, ctx):
    model, K = ctx.model("g_E"), 128
    lot = LowerOrderTerms.random_trig(spec["lot_seed"])
    grid = FourierGrid(K, model.period)

    def call(tr):
        with tr.span("evolution.frequency_cutoff_check", K=K):
            return frequency_cutoff_check(model, lot, grid, nus=CUTOFF_NUS)

    def check(rep):
        def spread(vals):
            arr = np.array([v for v, fl in zip(vals, rep.flagged) if not fl])
            med = float(np.median(arr))
            return max(float(np.max(arr / med)), float(np.max(med / arr)))

        s_low, s_comm = spread(rep.scaled_low), spread(rep.scaled_comm)
        expect(s_low <= 3.0, f"lowpass spread {s_low:.2f} > 3")
        expect(4.0 <= s_comm <= 8.0, f"commutator spread {s_comm:.2f} outside [4, 8]")
        expect(bool(np.all(np.diff(rep.scaled_comm) > 0)), "commutator norms not monotone")

    return call, check, sizes_for(K)


# ---------------------------------------------------------------------------
# pointwise checks, small operators and CLI commands

def _gallery(spec, ctx):
    source = spec["model"]
    name, kwargs = parse_source(source)

    def call(tr):
        with tr.span("models.gallery"):
            return gallery(name, **kwargs)

    def check(model):
        alpha, b, _ = closed_form(source)
        t = np.linspace(0.0, model.T, 64)[:, None]
        x = np.linspace(0.0, model.period, 64, endpoint=False)[None, :]
        a = t + alpha(x)
        margin = 4.0 * a**3 - 27.0 * b(t, x) ** 2 + 1e-10 * (1.0 + np.abs(a) ** 3)
        scale = 1.0 + float(np.max(np.abs(a))) ** 3
        expect(abs(model.report.min_delta_margin - float(np.min(margin))) <= 1e-9 * scale,
               "validation margin disagrees with the closed form")
        expect(abs(model.report.max_a - float(np.max(a))) <= 1e-12 * scale, "max a disagrees")

    return call, check, {}


def model_text(seed):
    """A seeded model file in the grammar parse_model_text accepts, and its numbers."""
    r = random.Random(seed)
    e = round(r.uniform(0.0, 0.5), 3)
    a1 = round(r.uniform(0.05, 0.4), 3)
    sign = r.choice("+-")
    c0 = round(1.0 - a1 - 0.01, 3)
    k = round(0.5 * c0**1.5, 3)          # 4 c0^3 (t + u^2)^3 >= 27 k^2 t^2 u^2 needs k <= c0^1.5
    c1, c2 = round(r.uniform(0.0, 1.0), 3), round(r.uniform(0.0, 1.0), 3)
    T = round(r.uniform(0.5, 2.0), 2)
    text = (f"# seeded model\nalpha  = (1 - cos(x)) ^ 2 + {e}\n"
            f"atilde = 1 {sign} {a1} * cos(x)\nb      = t * {k} * (1 - cos(x))\n"
            f"b10    = {c1} * sin(x)\nb11    = {c2} * cos(2 * x)\nc0     = {c0}\nT      = {T}\n")
    nums = {"e": e, "a1": a1 if sign == "+" else -a1, "c0": c0, "k": k, "c1": c1, "c2": c2, "T": T}
    return text, nums


def _parse(spec, ctx):
    text, n = model_text(spec["seed"])

    def call(tr):
        with tr.span("models.parse_model_text"):
            return parse_model_text(text)

    def check(out):
        model, lot = out
        rng = np.random.default_rng(spec["seed"])
        t, x, xi = rng.uniform(0, n["T"], 64), rng.uniform(0, 2 * np.pi, 64), rng.uniform(-64, 64, 64)
        ref = {
            "alpha": ((1 - np.cos(x)) ** 2 + n["e"], model.alpha),
            "atilde": (1 + n["a1"] * np.cos(x), model.atilde),
            "b": (t * n["k"] * (1 - np.cos(x)), model.b),
            "b10": (n["c1"] * np.sin(x), lot.b10),
            "b11": (n["c2"] * np.cos(2 * x), lot.b11),
            "b12": (0.0 * x, lot.b12),
        }
        for key, (want, expr) in ref.items():
            got = np.broadcast_to(expr.evaluate(t, x, xi), want.shape)
            expect(np.allclose(got, want, rtol=1e-12, atol=1e-12), f"{key} parsed wrong")
        expect(model.c0 == n["c0"] and model.T == n["T"], "c0 or T parsed wrong")

    return call, check, {}


def _condition_fields(source, model, grid):
    alpha, b, _ = closed_form(source)
    t = grid.t_vals[:, None]
    x = grid.x_vals[None, :]
    a = t + alpha(x)
    return t, alpha(x), a, b(t, x)


def _condition(spec, ctx):
    source, which = spec["model"], spec["which"]
    model = ctx.model(source)

    def call(tr):
        with tr.span("cubic.check_condition"):
            return check_condition(model, which)

    def check(rep):
        t, alpha, a, b = _condition_fields(source, model, default_condition_grid(model))
        w = t**2 * (t + alpha) if which == "H" else t * (t + alpha) ** 2
        ref = float(np.min((4.0 * a**3 - 27.0 * b**2) / w))
        expect(abs(rep.min_ratio - ref) <= 1e-9 * (1.0 + abs(ref)), "min ratio disagrees")
        expect(rep.holds == (max(0.0, ref) >= 1e-6), "verdict disagrees")
        if which == "E" and source == "g_zero_b":
            expect(rep.delta_best >= 4.0 * model.c0**3 * (1.0 - 1e-6), "g_zero_b bound")
        if which == "E" and source == "g_ex21p":
            expect(rep.delta_best <= 1e-6, "g_ex21p must fail (E)")

    return call, check, {}


def _beta1(spec, ctx):
    source = spec["model"]
    model = ctx.model(source)

    def call(tr):
        with tr.span("cubic.check_beta1_bound"):
            return check_beta1_bound(model)

    def check(rep):
        ref = closed_form(source)[2]
        got = rep.extras["sup_beta1_over_sqrt_alpha"]
        expect(abs(got - ref) <= 1e-9, f"sup beta1/sqrt(alpha) {got} != {ref}")
        eps_best = 1.0 - math.sqrt(3.0) * ref
        if abs(eps_best - 0.1) > 1e-9:
            expect(rep.holds == (eps_best >= 0.1), "verdict disagrees")

    return call, check, {}


def _glaeser(spec, ctx):
    source = spec["model"]
    model = ctx.model(source)

    def call(tr):
        with tr.span("cubic.glaeser_bounds"):
            return glaeser_bounds(model)

    def check(rep):
        grid = default_condition_grid(model)
        t, _, a, _ = _condition_fields(source, model, grid)
        b = closed_form(source)[1]
        h = 1e-5
        bt = (b(t + h, grid.x_vals[None, :]) - b(t - h, grid.x_vals[None, :])) / (2 * h)
        a, bt = np.broadcast_arrays(a, bt)
        mask = a > 1e-8
        ref = float(np.max(np.abs(bt[mask]) / np.sqrt(a[mask])))
        expect(rep.points_used == int(mask.sum()) * len(grid.xi_vals), "points used disagree")
        expect(abs(rep.sup_bt_over_sqrt_a - ref) <= 1e-6 * (1.0 + ref), "sup b_t/sqrt(a) disagrees")

    return call, check, {}


def _roots(spec, ctx):
    rng = np.random.default_rng(spec["seed"])
    n = spec["n"]
    a = rng.uniform(0.0, 10.0, n)
    b = 0.999 * rng.uniform(-1.0, 1.0, n) * np.sqrt(4.0 * a**3 / 27.0)
    jp = np.sqrt(1.0 + rng.uniform(0.0, 64.0, n) ** 2)

    def call(tr):
        with tr.span("cubic.roots_trig_array"):
            return roots_trig_array(a, b, jp)

    def check(lam):
        dev = np.max(np.abs(lam - root_oracle_array(a, b, jp)), axis=-1)
        worst = float(np.max(dev / (1e-9 * (1.0 + np.sqrt(a) * jp))))
        expect(worst <= 1.0, f"root deviation / tol = {worst:.2e}")

    return call, check, {}


def _lower_bound_delta(spec, ctx):
    source = spec["model"]
    model = ctx.model(source)
    grid = default_condition_grid(model, nt=16, nx=16, nxi=5)

    def call(tr):
        with tr.span("symmetrizer.lower_bound_delta"):
            return lower_bound_delta(model, grid)

    def check(rep):
        t, alpha, a, b = _condition_fields(source, model, grid)
        t, alpha, a, b = np.broadcast_arrays(t, alpha, a, b)
        S = np.zeros(a.shape + (3, 3))
        S[..., 0, 0] = 3.0
        S[..., 0, 2] = S[..., 2, 0] = -a
        S[..., 1, 1] = 2.0 * a
        S[..., 1, 2] = S[..., 2, 1] = 3.0 * b
        S[..., 2, 2] = a * a
        tJ = np.zeros_like(S)
        tJ[..., 0, 0] = tJ[..., 1, 1] = 2.0 * t
        tJ[..., 2, 2] = 2.0 * t * a
        scale = 1.0 + a**2 + b**2 + (t + alpha) ** 2

        def feasible(delta):
            return bool(np.all(np.linalg.eigvalsh(S - delta * tJ)[..., 0] >= -rep.tol * scale))

        d = rep.delta_sym
        if d == 0.0:
            expect(not feasible(1e-8), "delta_sym = 0 but 1e-8 is feasible")
        else:
            expect(feasible(d), "S - 2 delta t J not PSD at delta_sym")
            expect(not feasible(d * (1.0 + 1.01e-4)), "delta_sym is not the largest delta")

    return call, check, {}


def _extend(spec, ctx):
    model = ctx.model(spec["model"])
    w = spec["half_width"]

    def call(tr):
        with tr.span("evolution.extend_model"):
            return extend_model(model, (-w, w))

    def check(rep):
        expect(rep.delta_global > 0 and rep.delta_local > 0, "extension fails (E)")
        expect(rep.M >= 1 and math.log2(rep.M).is_integer(), f"M = {rep.M} not a power of two")
        # M is the smallest power of two with 4 M^3 c0^3 >= 27 sup |b_ext|^2
        t = np.linspace(0.0, model.T, 33)[:, None]
        x = np.linspace(0.0, model.period, 256, endpoint=False)[None, :]
        sup_b = float(np.max(np.abs(rep.model.b.evaluate(t, x, 1.0))))
        need = lambda M: 4.0 * M**3 * model.c0**3 >= 27.0 * sup_b**2
        expect(need(rep.M) and (rep.M == 1 or not need(rep.M / 2)), "M is not the smallest")

    return call, check, {}


def _regularize(spec, ctx):
    model = ctx.model("g_E")
    lot = LowerOrderTerms.random_trig(spec["lot_seed"], amplitude=0.5)

    def call(tr):
        with tr.span("evolution.regularize_sweep", K=8):
            return regularize_sweep(model, lot, eps_list=(1e-1, 1e-2, 1e-3), grid_k=8,
                                    factor=2.0, seed=spec["seed"])

    def check(rep):
        expect(rep.passed and rep.stable_within <= 2.0,
               f"sweep passed={rep.passed}, stable within x{rep.stable_within:.2f}")

    return call, check, sizes_for(8)


def _cli_symmetrizer(spec, ctx):
    def call(tr):
        return _run_cli(tr, ["symmetrizer", "--model", spec["model"]])

    def check(out):
        p = _cli_payload(out)
        expect(p["identities_hold"] and p["max_asym_over_scale"] <= 1e-13
               and p["max_det_dev_over_scale"] <= 1e-12, "symmetrizer identities fail")
        expect(p["delta_sym"] >= 0.0, "negative delta_sym")

    return call, check, {}


def _cli_analyze(spec, ctx):
    source = spec["model"]

    def call(tr):
        return _run_cli(tr, ["analyze", "--model", source])

    def check(out):
        p = _cli_payload(out)
        alpha, b, _ = closed_form(source)
        t = np.linspace(1e-3, 1.0, 33)[:, None]
        x = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)[None, :]
        a = t + alpha(x)
        ref = float(np.min(4.0 * a**3 - 27.0 * b(t, x) ** 2))
        expect(p["hyperbolic"], "analyze reports a non-hyperbolic model")
        expect(abs(p["delta_min"] - ref) <= 1e-9 * (1.0 + abs(ref)), "delta_min disagrees")

    return call, check, {}


KINDS = {
    "friedrichs": _friedrichs,
    "cli_quantize": _cli_quantize,
    "fp_search": _fp_search,
    "fp_check": _fp_check,
    "loss_probe": _loss_probe,
    "evolve_cmd": _evolve_cmd,
    "cutoff": _cutoff,
    "gallery": _gallery,
    "parse": _parse,
    "condition": _condition,
    "beta1": _beta1,
    "glaeser": _glaeser,
    "roots": _roots,
    "lower_bound_delta": _lower_bound_delta,
    "extend": _extend,
    "regularize": _regularize,
    "cli_symmetrizer": _cli_symmetrizer,
    "cli_analyze": _cli_analyze,
}


def build(spec, ctx):
    call, check, sizes = KINDS[spec["kind"]](spec, ctx)
    return Job(spec["kind"], spec, sizes, call, check)
