"""Acceptance gate: eleven numbered checks with frozen tolerances.

Each check returns a CriterionResult whose details dict carries the numeric
margins behind the verdict (the JSON report never states a verdict without
its number).  quick mode shrinks sample counts and case matrices but never
loosens a tolerance.  All randomness is seeded, and every reported value is
deterministic for a fixed seed, so repeated runs produce byte-identical
report files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import reporting
from .cubic import Grid3, check_condition, discriminants, root_oracle_array, roots_trig_array
from .evolution import (
    Assembler,
    EvolveConfig,
    _rk4,
    energy_margins,
    evolve,
    extend_model,
    frequency_cutoff_check,
    loss_probe,
    margin_deviation,
    regularize_sweep,
    search_energy_constants,
    seeded_state,
    taylor_lift,
)
from .models import LowerOrderTerms, gallery
from .quantize import FourierGrid, fp_search, friedrichs_part, operator_norm
from .symmetrizer import S_symbols, identity_defects

GALLERY = ("g_strict", "g_zero_b", "g_E", "g_ex21p", "g_ex21m", "g_ex22")


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict
    elapsed: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        summary = self.details.get("summary", "")
        return f"{status} {self.index:2d} {self.name}: {summary}"


def _timed(index, name, passed, details, t0):
    return CriterionResult(index=index, name=name, passed=bool(passed),
                           details=details, elapsed=time.perf_counter() - t0)


def _model_points(model, rng, n):
    t = rng.uniform(1e-3, model.T, n)
    x = rng.uniform(0.0, model.period, n)
    xi = rng.uniform(-64.0, 64.0, n)
    alpha = np.broadcast_to(model.eval_alpha(x, xi), (n,)).astype(float)
    a = np.broadcast_to(model.eval_a(t, x, xi), (n,)).astype(float)
    b = np.broadcast_to(model.eval_b(t, x, xi), (n,)).astype(float)
    return t, alpha, a, b, np.sqrt(1.0 + xi**2)


def criterion_algebraic_identities(quick=False, seed=0):
    """1: symmetrizer products, determinant and discriminant identities."""
    t0 = time.perf_counter()
    n = 2000 if quick else 10000
    rng = np.random.default_rng(seed + 101)
    worst = {"asym": 0.0, "det": 0.0, "shift": 0.0, "vdm": 0.0}
    for name in GALLERY:
        model = gallery(name)
        t, alpha, a, b, jp = _model_points(model, rng, n)
        asym, det = identity_defects(t, alpha, a, b)
        worst["asym"] = max(worst["asym"], asym)
        worst["det"] = max(worst["det"], det)
        delta = 4.0 * a**3 - 27.0 * b**2

        # shift invariance of the discriminant: expand p(tau + s)
        s = rng.uniform(-2.0, 2.0, n)
        _, _, d_shift = discriminants(
            3.0 * s, 3.0 * s**2 - a * jp**2, s**3 - a * jp**2 * s - b * jp**3, jp
        )
        mask = delta > 1e-6
        if mask.any():
            worst["shift"] = max(
                worst["shift"],
                float(np.max(np.abs(d_shift[mask] - delta[mask]) / delta[mask])),
            )
            lam = roots_trig_array(a[mask], b[mask], jp[mask])
            vdm = (
                (lam[:, 0] - lam[:, 1]) ** 2
                * (lam[:, 0] - lam[:, 2]) ** 2
                * (lam[:, 1] - lam[:, 2]) ** 2
            ) / jp[mask] ** 6
            worst["vdm"] = max(
                worst["vdm"], float(np.max(np.abs(vdm - delta[mask]) / delta[mask]))
            )
    passed = (
        worst["asym"] <= 1e-13
        and worst["det"] <= 1e-12
        and worst["shift"] <= 1e-8
        and worst["vdm"] <= 1e-8
    )
    details = {
        "points_per_model": n,
        "max_asym_over_scale": worst["asym"],
        "max_det_minus_delta_over_scale": worst["det"],
        "max_shift_consistency_rel": worst["shift"],
        "max_vandermonde_rel": worst["vdm"],
        "tolerances": {"asym": 1e-13, "det": 1e-12, "shift": 1e-8, "vdm": 1e-8},
        "summary": f"asym {worst['asym']:.1e}, det {worst['det']:.1e}, "
                   f"disc {max(worst['shift'], worst['vdm']):.1e}",
    }
    return _timed(1, "algebraic-identities", passed, details, t0)


def criterion_root_correctness(quick=False, seed=0):
    """2: trig roots against the companion oracle, double roots against
    the exact factorization (the companion eigensolver is the unreliable
    side exactly at a double root)."""
    t0 = time.perf_counter()
    n = 2000 if quick else 10000
    m = 500 if quick else 2000
    rng = np.random.default_rng(seed + 202)

    a = rng.uniform(0.0, 10.0, n)
    b = 0.999 * rng.uniform(-1.0, 1.0, n) * np.sqrt(4.0 * a**3 / 27.0)
    jp = np.sqrt(1.0 + rng.uniform(0.0, 64.0, n) ** 2)
    dev = np.max(np.abs(roots_trig_array(a, b, jp) - root_oracle_array(a, b, jp)), axis=-1)
    tol = 1e-9 * (1.0 + np.sqrt(a) * jp)
    worst_generic = float(np.max(dev / tol))

    # a = 3, b = +-2: p = (tau -+ 2 jp)(tau +- jp)^2 exactly
    sgn = np.where(rng.uniform(0.0, 1.0, m) < 0.5, 1.0, -1.0)
    a2 = np.full(m, 3.0)
    b2 = 2.0 * sgn
    jp2 = np.sqrt(1.0 + rng.uniform(0.0, 64.0, m) ** 2)
    exact = np.sort(
        np.stack([2.0 * sgn * jp2, -sgn * jp2, -sgn * jp2], axis=-1), axis=-1
    )[:, ::-1]
    dev2 = np.max(np.abs(roots_trig_array(a2, b2, jp2) - exact), axis=-1)
    tol2 = 1e-9 * (1.0 + math.sqrt(3.0) * jp2)
    worst_double = float(np.max(dev2 / tol2))

    zero = np.max(np.abs(roots_trig_array(np.zeros(4), np.zeros(4), np.array([1.0, 2.0, 8.0, 64.0]))))
    passed = worst_generic <= 1.0 and worst_double <= 1.0 and zero == 0.0
    details = {
        "samples_generic": n,
        "samples_double_root": m,
        "worst_generic_dev_over_tol": worst_generic,
        "worst_double_root_dev_over_tol": worst_double,
        "triple_zero_max_root": float(zero),
        "summary": f"dev/tol generic {worst_generic:.2e}, double {worst_double:.2e}",
    }
    return _timed(2, "root-correctness", passed, details, t0)


def criterion_condition_checkers(quick=False, seed=0):
    """3: pass/fail verdicts and the closed-form degenerate-family constant."""
    t0 = time.perf_counter()
    kw = {"nt": 32, "nx": 32, "nxi": 9} if quick else {}
    from .cubic import default_condition_grid

    zero_b = gallery("g_zero_b")
    rep_zero = check_condition(zero_b, "E", default_condition_grid(zero_b, **kw))
    bound_zero = 4.0 * zero_b.c0**3 * (1.0 - 1e-6)

    ex21 = gallery("g_ex21p")
    rep_ex21 = check_condition(ex21, "E", default_condition_grid(ex21, **kw))

    vals = {}
    for al in (0.1, 0.05):
        model = gallery("g_ex22", m=6)
        x_pt = math.acos(1.0 - math.sqrt(al))  # alpha(x) = (1 - cos x)^2 = al
        grid = Grid3(t_vals=np.array([2.0 * al]), x_vals=np.array([x_pt]),
                     xi_vals=np.array([1.0, 8.0]))
        vals[al] = check_condition(model, "E", grid, delta=0.0).delta_best
    pred = 192.0 * 0.1**5 * (1.0 - 8.0 * 0.1**5)
    rel_pred = abs(vals[0.1] - pred) / pred
    ratio = vals[0.05] / vals[0.1]
    rel_ratio = abs(ratio - 2.0**-5) / 2.0**-5

    passed = (
        rep_zero.delta_best >= bound_zero
        and rep_ex21.delta_best <= 1e-6
        and rel_pred <= 0.05
        and rel_ratio <= 0.20
    )
    details = {
        "zero_b_delta_best": rep_zero.delta_best,
        "zero_b_required": bound_zero,
        "ex21_delta_best": rep_ex21.delta_best,
        "degenerate_delta_alpha_0p1": vals[0.1],
        "degenerate_predicted": pred,
        "degenerate_rel_error": rel_pred,
        "degenerate_alpha_ratio": ratio,
        "degenerate_ratio_rel_error": rel_ratio,
        "summary": f"zero_b {rep_zero.delta_best:.3f}, fail-case {rep_ex21.delta_best:.1e}, "
                   f"family rel {rel_pred:.1e}",
    }
    return _timed(3, "condition-checkers", passed, details, t0)


def criterion_friedrichs_positivity(quick=False, seed=0):
    """4: the averaged quantization of the symmetrizer stays PSD."""
    t0 = time.perf_counter()
    Ks = (8, 16) if quick else (8, 16, 32)
    ts = (0.1, 1.0) if quick else (0.1, 0.5, 1.0)
    worst = math.inf
    worst_case = None
    for name in GALLERY:
        entries = S_symbols(gallery(name))
        for K in Ks:
            grid = FourierGrid(K)
            for t in ts:
                qf = friedrichs_part(entries, t, grid)
                ratio = qf.min_eig() / operator_norm(qf.matrix)
                if ratio < worst:
                    worst, worst_case = ratio, (name, K, t)
    passed = worst >= -1e-8
    details = {
        "models": list(GALLERY),
        "K_values": list(Ks),
        "t_values": list(ts),
        "worst_min_eig_over_norm": worst,
        "worst_case": {"model": worst_case[0], "K": worst_case[1], "t": worst_case[2]},
        "summary": f"worst min eig / norm = {worst:.2e}",
    }
    return _timed(4, "friedrichs-positivity", passed, details, t0)


def criterion_sharp_bound_feasibility(quick=False, seed=0):
    """5: one (delta, C) pair works at every t on the log grid."""
    t0 = time.perf_counter()
    grid = FourierGrid(32)
    t_values = np.geomspace(1e-2, 1.0, 10)
    kwargs = {"deltas": (0.5, 1.0), "Cs": (128.0, 256.0, 512.0, 1024.0)} if quick else {}
    details = {}
    passed = True
    for name in ("g_E", "g_zero_b"):
        res = fp_search(gallery(name), t_values, grid, **kwargs)
        passed = passed and res.best is not None
        details[name] = {
            "best": list(res.best) if res.best else None,
            "feasible_pairs": len(res.feasible_pairs),
        }
    details["t_grid"] = [float(v) for v in t_values]
    details["summary"] = ", ".join(
        f"{k} best {tuple(v['best']) if v['best'] else None}"
        for k, v in details.items() if isinstance(v, dict)
    )
    return _timed(5, "sharp-bound-feasibility", passed, details, t0)


def criterion_energy_inequality(quick=False, seed=0):
    """6: discrete margins stay above -tol_E and contract when dt halves.

    Contraction is measured as the worst distance of the normalized margins
    from an 8x-refined reference run, which converges at rate dt^2 whether
    or not the inequality is tight (the signed worst margin can sit at a
    strictly positive continuum value and not move under refinement).
    """
    t0 = time.perf_counter()
    tol_E = 0.05
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(seed + 606)
    grid = FourierGrid(8 if quick else 16)
    U0 = seeded_state(grid, seed + 607)

    consts = search_energy_constants(model, lot, grid, U0=U0)
    n_run = max(consts.n_star, 1e-6)  # zero buffer: reference margins bottom at 0
    # the dt run is the constants run, reweighted
    reports = {1.0: energy_margins(dataclasses.replace(consts.trace, n_weight=n_run,
                                                       n_star=n_run), tol=tol_E)}
    for ds in (0.5, 0.125):
        cfg = EvolveConfig(eps_start=1e-2, T=1.0, dt_scale=ds, lam=consts.lam,
                           gamma=consts.gamma, n_weight=n_run, n_star=n_run)
        trace, _ = evolve(model, lot, U0, cfg, grid)
        if trace.aborted:
            return _timed(6, "energy-inequality", False,
                          {"verdict": "unbounded", "summary": "run aborted"}, t0)
        reports[ds] = energy_margins(trace, tol=tol_E)

    dev1 = margin_deviation(reports[1.0], reports[0.125])
    dev2 = margin_deviation(reports[0.5], reports[0.125])
    improvement = dev1 / max(dev2, 1e-15)
    passed = reports[1.0].passed and reports[0.5].passed and improvement >= 3.0
    details = {
        "tol_E": tol_E,
        "constants": {"n_star": consts.n_star, "n_weight": consts.n_weight,
                      "gamma": consts.gamma, "lam": consts.lam},
        "min_margin_dt": reports[1.0].min_margin,
        "min_margin_half_dt": reports[0.5].min_margin,
        "worst_margin_error_dt": dev1,
        "worst_margin_error_half_dt": dev2,
        "improvement_factor": improvement,
        "int_defect": reports[1.0].int_defect,
        "summary": f"min margin {reports[1.0].min_margin:.2e}, "
                   f"error {dev1:.2e} -> {dev2:.2e} (x{improvement:.1f})",
    }
    return _timed(6, "energy-inequality", passed, details, t0)


def criterion_cutoff_scalings(quick=False, seed=0):
    """7: nu-scaled cutoff norms stay within a factor 3 of their medians.

    The low-pass half holds.  The commutator half fails: the generator has
    entries of size jp(k), and the commutator with a frequency cutoff keeps
    matrix elements of size nu |chi'| jp(1/nu) = O(1) near the transition
    band, so nu^-1 |R_nu| grows like 1/nu instead of staying bounded.  The
    check is reported as measured.
    """
    t0 = time.perf_counter()
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(seed + 707)
    grid = FourierGrid(128)
    rep = frequency_cutoff_check(model, lot, grid, nus=(0.5, 0.25, 0.125, 0.0625))

    def spread(vals):
        arr = np.array([v for v, fl in zip(vals, rep.flagged) if not fl])
        med = float(np.median(arr))
        return max(float(np.max(arr / med)), float(np.max(med / arr)))

    s_low, s_comm = spread(rep.scaled_low), spread(rep.scaled_comm)
    passed = s_low <= 3.0 and s_comm <= 3.0
    details = {
        "nu": list(rep.nu),
        "scaled_lowpass_norms": list(rep.scaled_low),
        "scaled_commutator_norms": list(rep.scaled_comm),
        "lowpass_spread": s_low,
        "commutator_spread": s_comm,
        "summary": f"lowpass spread {s_low:.2f}, commutator spread {s_comm:.2f}",
    }
    return _timed(7, "cutoff-scalings", passed, details, t0)


def criterion_loss_exponents(quick=False, seed=0):
    """8: fitted derivative-loss exponents are finite and stable."""
    t0 = time.perf_counter()
    cfg = EvolveConfig(eps_start=1e-2, T=1.0)
    k_list = (4, 8, 16, 32)  # resolved half band of the smaller grid
    model = gallery("g_E")
    lot_a = LowerOrderTerms.random_trig(seed + 808)
    lot_b = LowerOrderTerms.random_trig(seed + 809)

    e64 = loss_probe(model, lot_a, FourierGrid(64), cfg, k_list).exponent
    e64b = loss_probe(model, lot_b, FourierGrid(64), cfg, k_list).exponent
    e128 = loss_probe(model, lot_a, FourierGrid(128), cfg, k_list).exponent
    e_strict = loss_probe(gallery("g_strict"), lot_a, FourierGrid(64), cfg, k_list).exponent

    finite = all(math.isfinite(v) for v in (e64, e64b, e128, e_strict))
    passed = (
        finite
        and abs(e128 - e64) <= 0.5
        and abs(e64b - e64) <= 1.0
        and e_strict <= 0.3
    )
    details = {
        "modes": list(k_list),
        "exponent_K64": e64,
        "exponent_K128": e128,
        "exponent_second_draw": e64b,
        "exponent_strict": e_strict,
        "doubling_change": abs(e128 - e64),
        "draw_change": abs(e64b - e64),
        "summary": f"exp {e64:.3f} (K double {abs(e128 - e64):.3f}, "
                   f"draw {abs(e64b - e64):.3f}), strict {e_strict:.3f}",
    }
    return _timed(8, "loss-exponents", passed, details, t0)


def criterion_taylor_lift(quick=False, seed=0):
    """9: lifted data has vanishing time derivatives against a short evolution."""
    t0 = time.perf_counter()
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(seed + 909)
    grid = FourierGrid(8 if quick else 16)
    rng = np.random.default_rng(seed + 910)
    data = [rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
            for _ in range(3)]
    nrm = np.linalg.norm(np.concatenate(data))
    data = [v / nrm for v in data]
    lift = taylor_lift(model, lot, data, order=6, grid=grid)

    # central 7-node samples of the true solution around t = 0; the node
    # spacing shrinks with K to hold the h^4 truncation term below the
    # budget while keeping rounding noise (which grows like h^-3) under 10%
    h = 8e-3 / grid.K
    sub = 50
    asm = Assembler(model, lot, grid)

    def march(U, t_from, t_to):
        step = (t_to - t_from) / sub
        t = t_from
        for _ in range(sub):
            U = _rk4(U, t, step, asm.apply)
            t += step
        return U

    samples = {0: np.concatenate(data).astype(complex)}
    for m in range(1, 4):
        samples[m] = march(samples[m - 1], (m - 1) * h, m * h)
        samples[-m] = march(samples[-(m - 1)], -(m - 1) * h, -m * h)
    nodes = np.arange(-3, 4)
    W = np.stack([samples[m] - lift.eval(m * h) for m in nodes])
    U_samp = np.stack([samples[m] for m in nodes])

    # finite-difference weights: sum w_m m^r = r! delta_{r,j}, r = 0..6
    V = np.vander(nodes.astype(float), 7, increasing=True).T
    ratios, fd_agree = {}, {}
    for j in range(4):
        e = np.zeros(7)
        e[j] = math.factorial(j)
        w = np.linalg.solve(V, e)
        fd_w = np.linalg.norm(w @ W) / h**j
        scale = max(1.0, float(np.linalg.norm(lift.coefficients[j])))
        ratios[j] = fd_w / (1e-8 * scale)
        fd_u = (w @ U_samp) / h**j
        fd_agree[j] = float(
            np.linalg.norm(fd_u - (1j) ** j * lift.coefficients[j]) / scale
        )
    passed = all(r <= 1.0 for r in ratios.values())
    details = {
        "node_spacing": h,
        "fd_defect_over_tol": {str(j): float(r) for j, r in ratios.items()},
        "fd_vs_lift_rel": {str(j): v for j, v in fd_agree.items()},
        "coefficient_norms": [float(np.linalg.norm(c)) for c in lift.coefficients],
        "summary": "max defect/tol = {:.2e}".format(max(ratios.values())),
    }
    return _timed(9, "taylor-lift", passed, details, t0)


def criterion_extension_stability(quick=False, seed=0):
    """10: window extension passes globally; constants survive the shift sweep."""
    t0 = time.perf_counter()
    ext = extend_model(gallery("g_E"), (-1.0, 1.0))
    lot = LowerOrderTerms.random_trig(seed + 1010, amplitude=0.5)
    sweep = regularize_sweep(gallery("g_E"), lot, eps_list=(1e-1, 1e-2, 1e-3),
                             grid_k=8, factor=2.0, seed=seed)
    passed = ext.delta_global > 0 and sweep.passed and sweep.stable_within <= 2.0
    details = {
        "extension_M": ext.M,
        "extension_delta_local": ext.delta_local,
        "extension_delta_global": ext.delta_global,
        "sweep_delta_best": [r.delta_best_E for r in sweep.rows],
        "sweep_min_margins": [r.min_margin for r in sweep.rows],
        "sweep_stable_within": sweep.stable_within,
        "summary": f"delta_global {ext.delta_global:.3f}, "
                   f"sweep within x{sweep.stable_within:.2f}",
    }
    return _timed(10, "extension-stability", passed, details, t0)


def _bundle(seed):
    """Representative report bundle used for the determinism check."""
    model = gallery("g_E")
    lot = LowerOrderTerms.random_trig(seed + 1111)
    grid = FourierGrid(8)
    U0 = seeded_state(grid, seed + 1112)
    consts = search_energy_constants(model, lot, grid, U0=U0)
    trace = consts.trace
    margins = energy_margins(trace)
    loss = loss_probe(model, lot, grid, EvolveConfig(), (1, 2, 4, 8))
    cond = check_condition(model, "E")
    return {
        "conditions.json": reporting.json_text(cond.to_json_dict()),
        "manifest.json": reporting.json_text({
            "constants": {"n_star": consts.n_star, "lam": consts.lam},
            "verdicts": {"margins_passed": margins.passed,
                         "min_margin": margins.min_margin,
                         "loss_exponent": loss.exponent},
        }),
        "trace.csv": reporting.energy_csv_text(trace),
        "energy.svg": reporting.emit_plot(trace, None),
        "loss.svg": reporting.emit_plot(loss, None),
    }


def criterion_determinism(quick=False, seed=0):
    """11: identical seeds give byte-identical reports, CSV and SVG included."""
    t0 = time.perf_counter()
    first = _bundle(seed)
    second = _bundle(seed)
    same = {k: first[k] == second[k] for k in first}
    digests = {k: hashlib.sha256(first[k].encode()).hexdigest()[:16] for k in first}
    passed = all(same.values())
    details = {
        "files": sorted(first),
        "identical": same,
        "sha256_prefixes": digests,
        "summary": f"{sum(same.values())}/{len(same)} artifacts byte-identical",
    }
    return _timed(11, "determinism", passed, details, t0)


_CRITERIA = (
    criterion_algebraic_identities,
    criterion_root_correctness,
    criterion_condition_checkers,
    criterion_friedrichs_positivity,
    criterion_sharp_bound_feasibility,
    criterion_energy_inequality,
    criterion_cutoff_scalings,
    criterion_loss_exponents,
    criterion_taylor_lift,
    criterion_extension_stability,
    criterion_determinism,
)


@dataclass(frozen=True)
class AcceptanceReport:
    results: tuple
    passed: bool
    elapsed: float

    def json_dict(self):
        # wall-clock times stay out of the report to keep it byte-stable
        return {
            "passed": self.passed,
            "criteria": [
                {"index": r.index, "name": r.name, "passed": r.passed,
                 "details": r.details}
                for r in self.results
            ],
        }


def run_all(quick=False, seed=0, out_dir=None, echo=None):
    """Run the full acceptance suite in order.

    echo, when given, is called with each result line as it completes.
    out_dir receives acceptance_report.json plus the determinism bundle.
    """
    t0 = time.perf_counter()
    results = []
    for fn in _CRITERIA:
        res = fn(quick=quick, seed=seed)
        results.append(res)
        if echo is not None:
            echo(res.line())
    report = AcceptanceReport(
        results=tuple(results),
        passed=all(r.passed for r in results),
        elapsed=time.perf_counter() - t0,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        reporting.write_json(os.path.join(out_dir, "acceptance_report.json"),
                             report.json_dict())
        for fname, text in _bundle(seed).items():
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(text)
    return report
