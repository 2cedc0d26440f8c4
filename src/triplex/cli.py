"""Batch command-line front end.

Subcommands dispatch the module operations and write deterministic reports:
a JSON summary on stdout, plus CSV/SVG artifacts under --out when given.
Exit codes: 0 when the requested check passes, 2 when it ran but the verdict
is negative, 1 on usage or configuration errors.  Every verdict in the JSON
sits next to the numeric margin that produced it.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import reporting
from .acceptance import run_all
from .cubic import (
    Grid3,
    NonHyperbolicError,
    check_beta1_bound,
    check_condition,
    condition_weight,
    default_condition_grid,
    glaeser_bounds,
    roots_trig_array,
)
from .evolution import (
    EvolveConfig,
    SweepRow,
    energy_margins,
    evolve,
    extend_model,
    loss_probe,
    regularize_sweep,
    search_energy_constants,
    seeded_state,
)
from .models import (GALLERY_NAMES, LowerOrderTerms, ModelError, discriminant, gallery,
                     load_model_file)
from .quantize import (
    FourierGrid,
    _fp_check,
    _fp_layouts,
    fp_search,
    friedrichs_part,
    op_weyl,
    operator_norm,
    sgarding_residual,
)
from .symbols import SymbolError
from .symmetrizer import (
    S_symbols,
    grid_fields,
    identity_defects,
    lower_bound_delta,
    matrix_S,
    pointwise_delta,
)

__all__ = ["main", "run"]

PASS, VERDICT_FAIL, USAGE_ERROR = 0, 2, 1


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _resolve_model(source):
    """Gallery name, 'name:k=v,...' parameter form, or a model file path.

    Gallery names win, so a file named like one is reached as ./name.
    """
    name, _, params = source.partition(":")
    if name not in GALLERY_NAMES and os.path.exists(source):
        return load_model_file(source)
    kwargs = {}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            try:  # no '=' leaves value empty, which float rejects too
                kwargs[key.strip()] = float(value)
            except ValueError:
                raise ModelError(
                    f"bad model parameter {item!r} (expected k=v with v a number)") from None
    return gallery(name, **kwargs), LowerOrderTerms.zero()


def _check_nt(nt):
    if nt < 1:
        raise ValueError(f"--nt must be at least 1, got {nt}")


def _check_time(model, t, flag):
    """A start or evaluation time must be a finite number in [0, T]."""
    model.check_horizon(t, flag)
    if t < 0:
        raise ValueError(f"{flag} must be non-negative, got {t:g}")


def _lot_for(args, lot_from_file):
    if args.lot_seed is not None:
        return LowerOrderTerms.random_trig(args.lot_seed)
    return lot_from_file


def _emit(args, payload, artifacts=()):
    """Print the JSON summary; under --out write it and the artifacts.

    Each artifact is (fname, render), and render() gives the file's text,
    so nothing is rendered when there is no --out.
    """
    text = reporting.json_text(payload)
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        reporting.write_text(os.path.join(args.out, f"{args.command}.json"), text)
        for fname, render in artifacts:
            reporting.write_text(os.path.join(args.out, fname), render())


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analyze(args):
    model, _ = _resolve_model(args.model)
    _check_nt(args.nt)
    _check_time(model, args.t0, "--t0")
    _check_time(model, args.t1, "--t1")
    t_vals = np.linspace(args.t0, args.t1, args.nt)
    x_vals = np.linspace(0.0, model.period, 64, endpoint=False)
    xi_vals = np.logspace(0.0, math.log10(64.0), 9)
    grid = Grid3(t_vals, x_vals, xi_vals)
    _, _, a, b, _ = grid_fields(model, grid)
    delta = discriminant(a, b)
    idx = np.unravel_index(int(np.argmin(delta)), delta.shape)
    hyperbolic = bool(delta[idx] >= -1e-12)
    roots = None
    if hyperbolic:
        jp = np.sqrt(1.0 + xi_vals**2)
        lam = roots_trig_array(np.maximum(a, 0.0), np.clip(
            b, -np.sqrt(np.maximum(4.0 * a**3 / 27.0, 0.0)),
            np.sqrt(np.maximum(4.0 * a**3 / 27.0, 0.0))), jp[None, None, :])
        gaps = np.minimum(lam[..., 0] - lam[..., 1], lam[..., 1] - lam[..., 2])
        roots = {"min_gap": float(np.min(gaps)),
                 "max_root": float(np.max(np.abs(lam)))}
    payload = {
        "model": model.name,
        "delta_min": float(delta[idx]),
        "witness": {"t": float(t_vals[idx[0]]), "x": float(x_vals[idx[1]]),
                    "xi": float(xi_vals[idx[2]])},
        "hyperbolic": hyperbolic,
        "roots": roots,
        "grid": {"nt": len(t_vals), "nx": len(x_vals), "nxi": len(xi_vals)},
    }

    def rows():
        cols = [np.broadcast_to(f, grid.shape()) for f in (a, b, delta)]
        for i, t in enumerate(t_vals):
            for j, x in enumerate(x_vals):
                for k, xi in enumerate(xi_vals):
                    yield (t, x, xi) + tuple(f[i, j, k] for f in cols)

    _emit(args, payload,
          [("analyze_sweep.csv",
            lambda: reporting.csv_text(("t", "x", "xi", "a", "b", "delta"), rows()))])
    return PASS if hyperbolic else VERDICT_FAIL


def _cmd_conditions(args):
    model, _ = _resolve_model(args.model)
    _check_nt(args.nt)
    _check_time(model, args.t0, "--t0")
    grid = default_condition_grid(model, nt=args.nt, t_min=args.t0 or None)
    if args.delta is not None and args.which not in ("H", "E"):
        raise ValueError(f"--delta applies to --which H and E, not {args.which}")
    if args.which in ("H", "E"):
        kw = {} if args.delta is None else {"delta": args.delta}
        rep = check_condition(model, args.which, grid, **kw)
        payload = rep.to_json_dict()

        def sweep():
            t, alpha, a, b, _ = grid_fields(model, grid)
            curve = np.min(discriminant(a, b) / condition_weight(args.which, t, alpha),
                           axis=(1, 2))
            return reporting.csv_text(("t", "min_ratio"), zip(grid.t_vals, curve))

        art = [("conditions_sweep.csv", sweep)]
        ok = rep.holds
    elif args.which == "beta1":
        rep = check_beta1_bound(model, grid)
        payload = rep.to_json_dict()
        art = []
        ok = rep.holds
    else:  # glaeser
        rep = glaeser_bounds(model, grid)
        payload = {
            "condition": "glaeser",
            "sup_bt_over_sqrt_a": rep.sup_bt_over_sqrt_a,
            "sup_first_over_a": rep.sup_first_over_a,
            "sup_second_over_sqrt_a": rep.sup_second_over_sqrt_a,
            "points_used": rep.points_used,
            "holds": True,  # informational: finite suprema always exist on a grid
        }
        art = []
        ok = True
    if not ok:
        payload["witness_printed"] = True
        sys.stderr.write(f"condition {args.which} fails at witness "
                         f"{payload.get('witness')}\n")
    _emit(args, payload, art)
    return PASS if ok else VERDICT_FAIL


def _cmd_symmetrizer(args):
    model, _ = _resolve_model(args.model)
    grid = default_condition_grid(model, nt=16, nx=16, nxi=5)
    t, alpha, a, b, _ = grid_fields(model, grid)
    asym, det_dev = identity_defects(t, alpha, a, b)
    sym = lower_bound_delta(model, grid)
    ok = asym <= 1e-13 and det_dev <= 1e-12
    payload = {
        "model": model.name,
        "max_asym_over_scale": asym,
        "max_det_dev_over_scale": det_dev,
        "identities_hold": ok,
        "delta_sym": sym.delta_sym,
        "feasible_at_one": sym.feasible_at_one,
    }

    def points():
        S = matrix_S(a, b)
        mineig = np.linalg.eigvalsh(S)[..., 0]
        local = np.maximum(pointwise_delta(S, a, t), 0.0)
        cols = [np.broadcast_to(f, grid.shape()) for f in (a, b, mineig, local)]
        rows = ((grid.t_vals[i], grid.x_vals[j], grid.xi_vals[k])
                + tuple(f[i, j, k] for f in cols)
                for i in range(len(grid.t_vals))
                for j in range(len(grid.x_vals))
                for k in range(len(grid.xi_vals)))
        return reporting.csv_text(
            ("t", "x", "xi", "a", "b", "mineig_S", "delta_sym_local"), rows)

    _emit(args, payload, [("symmetrizer_points.csv", points)])
    return PASS if ok else VERDICT_FAIL


def _cmd_quantize(args):
    model, _ = _resolve_model(args.model)
    _check_time(model, args.t0, "--t0")
    grid = FourierGrid(args.grid_k, model.period)
    t = args.t0
    op_a = op_weyl(model.a_expr, t, grid)
    qf = friedrichs_part(S_symbols(model), t, grid)
    qf_norm = operator_norm(qf.matrix)
    min_eig = qf.min_eig()
    ratio = min_eig / qf_norm
    ok = ratio >= -1e-8
    resid = sgarding_residual(S_symbols(model), t,
                              K_list=tuple(sorted({8, 16, args.grid_k})),
                              period=model.period)
    payload = {
        "model": model.name,
        "t": t,
        "K": grid.K,
        "weyl_norm_a": operator_norm(op_a),
        "friedrichs_min_eig": min_eig,
        "friedrichs_norm": qf_norm,
        "friedrichs_min_eig_over_norm": ratio,
        "positivity_holds": ok,
        "weighted_residual_by_K": {str(k): v for k, v in resid.items()},
    }
    _emit(args, payload,
          [("weyl_a.csv", lambda: reporting.operator_csv_text(op_a))])
    return PASS if ok else VERDICT_FAIL


def _cmd_fpcheck(args):
    model, _ = _resolve_model(args.model)
    _check_nt(args.nt)
    _check_time(model, args.t0, "--t0")
    _check_time(model, args.t1, "--t1")
    start = args.t0 if args.t0 > 0 else 1e-2
    if args.t1 < start:
        raise ValueError(f"--t1 {args.t1:g} lies below the start {start:g} of the geometric "
                         f"t grid (--t0, or 1e-2 when --t0 is 0)")
    grid = FourierGrid(args.grid_k, model.period)
    t_values = np.geomspace(start, args.t1, args.nt)
    if args.delta is not None and args.c is not None:
        layouts = _fp_layouts(model, grid)  # quantized once for the whole t grid
        results = [_fp_check(*layouts, t, args.delta, args.c) for t in t_values]
        worst = min(r.min_eig / r.scale for r in results)
        ok = all(r.feasible for r in results)
        payload = {
            "model": model.name,
            "mode": "check",
            "delta": args.delta,
            "C": args.c,
            "worst_min_eig_over_scale": worst,
            "feasible": ok,
            "t_grid": [float(v) for v in t_values],
        }
    else:
        res = fp_search(model, t_values, grid)
        ok = res.best is not None
        payload = {
            "model": model.name,
            "mode": "search",
            "best": list(res.best) if res.best else None,
            "feasible_pairs": len(res.feasible_pairs),
            "deltas": list(res.deltas),
            "Cs": list(res.Cs),
            "feasible": ok,
            "t_grid": [float(v) for v in t_values],
        }
    _emit(args, payload)
    return PASS if ok else VERDICT_FAIL


def _cmd_evolve(args):
    model, lot_file = _resolve_model(args.model)
    model.check_horizon(args.t1, "--t1")
    lot = _lot_for(args, lot_file)
    grid = FourierGrid(args.grid_k, model.period)
    U0 = seeded_state(grid, args.seed)
    searched = None
    n_weight, lam = args.n_weight, args.lam
    if n_weight is None or lam is None:
        # N* is measured at the given lam, or at the searched one
        consts = search_energy_constants(model, lot, grid, U0=U0, eps_start=args.eps_start,
                                         T=args.t1, gamma=args.gamma, dt=args.dt, lam=lam)
        searched = {"n_star": consts.n_star, "n_weight": consts.n_weight,
                    "gamma": consts.gamma, "lam": consts.lam}
        n_weight = consts.n_weight if n_weight is None else n_weight
        lam = consts.lam
        n_star = consts.n_star
    else:
        n_star = args.n_weight
    cfg = EvolveConfig(eps_start=args.eps_start, T=args.t1, dt=args.dt,
                       n_weight=n_weight, n_star=min(n_star, n_weight),
                       gamma=args.gamma, lam=lam)
    if searched is not None:
        # the constants run is this run: same U0, step and lam; only E's weight differs.
        # A search whose run blew up gives N = N* = inf, and there is no energy to weigh.
        if not (consts.aborted and args.n_weight is None):
            cfg.validate()
        trace = dataclasses.replace(consts, n_weight=cfg.n_weight, n_star=cfg.n_star)
    else:
        trace, _ = evolve(model, lot, U0, cfg, grid)  # validates cfg
    verdicts = {"aborted": trace.aborted}
    artifacts = [("trace.csv", lambda: reporting.energy_csv_text(trace))]
    ok = not trace.aborted
    if trace.aborted:
        verdicts["verdict"] = "unbounded"
    else:
        margins = energy_margins(trace)
        verdicts.update({
            "min_margin": margins.min_margin,
            "argmin_t": margins.argmin_t,
            "int_defect": margins.int_defect,
            "margins_passed": margins.passed,
        })
        ok = margins.passed
        artifacts.append(("energy.svg", lambda: reporting.emit_plot(trace, None)))
        artifacts.append(("margins.svg", lambda: reporting.emit_plot(margins, None)))
    payload = {
        "model": model.name,
        "source": args.model,
        "lot": ("seed:" + str(args.lot_seed)) if args.lot_seed is not None else "file-or-zero",
        "seed": args.seed,
        "cfg": {"eps_start": cfg.eps_start, "T": cfg.T, "dt": cfg.dt,
                "cfl": cfg.cfl, "n_weight": cfg.n_weight, "n_star": cfg.n_star,
                "gamma": cfg.gamma, "lambda": cfg.lam},
        "searched_constants": searched,
        "steps": len(trace.t) - 1,
        "verdicts": verdicts,
    }
    _emit(args, payload, artifacts)
    return PASS if ok else VERDICT_FAIL


def _cmd_loss(args):
    model, lot_file = _resolve_model(args.model)
    model.check_horizon(args.t1, "--t1")
    lot = _lot_for(args, lot_file)
    grid = FourierGrid(args.grid_k, model.period)
    k_list, k = [], 4
    while k <= grid.K // 2:
        k_list.append(k)
        k *= 2
    cfg = EvolveConfig(eps_start=args.eps_start, T=args.t1)
    rep = loss_probe(model, lot, grid, cfg, k_list)
    ok = not rep.aborted
    payload = {
        "model": model.name,
        "K": grid.K,
        "modes": list(rep.modes),
        "growth": list(rep.growth),
        "exponent": rep.exponent,
        "bounded": ok,
    }
    jp = grid.jp_values[np.asarray(rep.modes) + grid.K]
    artifacts = [("loss.csv", lambda: reporting.csv_text(("k", "jp", "growth"),
                                                         zip(rep.modes, jp, rep.growth)))]
    if ok:
        artifacts.append(("loss.svg", lambda: reporting.emit_plot(rep, None)))
    _emit(args, payload, artifacts)
    return PASS if ok else VERDICT_FAIL


def _cmd_extend(args):
    model, _ = _resolve_model(args.model)
    lo, _, hi = args.window.partition(",")
    try:
        window = (float(lo), float(hi))
    except ValueError:
        raise ModelError(f"bad window {args.window!r} (expected lo,hi)")
    try:
        rep = extend_model(model, window)
    except ModelError as exc:
        payload = {"model": model.name, "window": list(window),
                   "extended": False, "reason": str(exc)}
        _emit(args, payload)
        return VERDICT_FAIL
    payload = {
        "model": model.name,
        "window": list(window),
        "extended": True,
        "M": rep.M,
        "delta_local": rep.delta_local,
        "delta_global": rep.delta_global,
        "extended_name": rep.model.name,
    }
    _emit(args, payload)
    return PASS


def _cmd_regularize(args):
    model, lot_file = _resolve_model(args.model)
    lot = _lot_for(args, lot_file)
    rep = regularize_sweep(model, lot, eps_list=(1e-1, 1e-2, 1e-3),
                           grid_k=args.grid_k, seed=args.seed)
    payload = {
        "model": model.name,
        "rows": [dataclasses.asdict(r) for r in rep.rows],
        "stable_within": rep.stable_within,
        "passed": rep.passed,
    }
    columns = tuple(f.name for f in dataclasses.fields(SweepRow))
    artifacts = [
        ("regularize.csv",
         lambda: reporting.csv_text(columns, (dataclasses.astuple(r) for r in rep.rows))),
        ("regularize.svg", lambda: reporting.emit_plot(rep, None)),
    ]
    _emit(args, payload, artifacts)
    return PASS if rep.passed else VERDICT_FAIL


def _cmd_selftest(args):
    rep = run_all(quick=args.quick, seed=args.seed, out_dir=args.out,
                  echo=lambda line: print(line, flush=True))
    print(f"{'PASS' if rep.passed else 'FAIL'} acceptance "
          f"({sum(r.passed for r in rep.results)}/{len(rep.results)} criteria, "
          f"{rep.elapsed:.1f}s)")
    return PASS if rep.passed else VERDICT_FAIL


# ---------------------------------------------------------------------------
# argument wiring

def _add_model(p):
    p.add_argument("--model", required=True, help="gallery name, name:k=v,... or model file path")


def _build_parser():
    parser = _Parser(prog="triplex",
                     description="desk-scale checks for a third-order weakly "
                                 "hyperbolic model operator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="discriminant and root sweep")
    _add_model(p)
    p.add_argument("--t0", type=float, default=1e-3)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--nt", type=int, default=33)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("conditions", help="degeneracy condition checks")
    _add_model(p)
    p.add_argument("--which", choices=("H", "E", "beta1", "glaeser"), default="E")
    p.add_argument("--delta", type=float, default=None,
                   help="required lower-bound constant for H and E (default 1e-6)")
    p.add_argument("--t0", type=float, default=0.0, help="smallest grid t (0: auto)")
    p.add_argument("--nt", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_conditions)

    p = sub.add_parser("symmetrizer", help="pointwise identities and delta_sym")
    _add_model(p)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_symmetrizer)

    p = sub.add_parser("quantize", help="operator dump, averaged-part positivity, "
                                        "weighted residual")
    _add_model(p)
    p.add_argument("--grid-k", type=int, default=16)
    p.add_argument("--t0", type=float, default=0.5, help="evaluation time")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_quantize)

    p = sub.add_parser("fpcheck", help="sharp lower-bound feasibility")
    _add_model(p)
    p.add_argument("--grid-k", type=int, default=32)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--t0", type=float, default=1e-2, help="smallest grid t (0: 1e-2)")
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--nt", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_fpcheck)

    p = sub.add_parser("evolve", help="time integration with energy margins")
    _add_model(p)
    p.add_argument("--grid-k", type=int, default=16)
    p.add_argument("--eps-start", type=float, default=1e-2)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--n-weight", type=float, default=None,
                   help="energy weight exponent (default: searched)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="energy shift constant (default: searched)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lot-seed", type=int, default=None,
                   help="draw random lower-order terms with this seed")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("loss", help="derivative-loss exponent probe")
    _add_model(p)
    p.add_argument("--grid-k", type=int, default=64)
    p.add_argument("--eps-start", type=float, default=1e-2)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--lot-seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_loss)

    p = sub.add_parser("extend", help="extend a windowed model to the torus")
    _add_model(p)
    p.add_argument("--window", default="-1.0,1.0", help="x-window lo,hi")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("regularize", help="constants under alpha + eps shifts")
    _add_model(p)
    p.add_argument("--grid-k", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lot-seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_regularize)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ModelError, SymbolError, NonHyperbolicError, ValueError, OSError) as exc:
        sys.stderr.write(f"triplex {args.command}: {exc}\n")
        return USAGE_ERROR


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
