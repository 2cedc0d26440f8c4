"""The two workloads: seeded decks of job specs, warm-up passes, and predictions.

Every workload is one process running a closed loop with one client: the
next job starts when the previous one ends.  A run draws decks from
``random.Random(seed)`` until its measuring time is used up; the job in
progress then finishes and the rest of its deck is dropped.  A deck's composition (job kinds, sizes and how many of each)
is fixed; the seed draws models and parameters (t, eps, M, m, lower-order-term
seeds, initial states, windows) and the order of the jobs.

``assembly`` builds operators: the Friedrichs part of the symmetrizer
(criterion 4) and the RK4 evolutions with their dense generator (criteria
6-8).  ``search`` hunts constants: sharp-bound (delta, C) searches
(criterion 5), pointwise small-grid checks, CLI commands and K = 8
regularize sweeps.  Each bypasses the other's heaviest code, so each
optimisation in the ROADMAP has a workload that runs it and one that shows it
costs nothing elsewhere (``PREDICTIONS``).

``PROBES`` is a fixed job list that every traced run adds after its deck
loop.  It calls each traced module function at the sizes the per-layer
metrics name (including ``fp_search`` at K = 32 and ``loss_probe`` at
K = 128, too slow for the decks), so every traced run reports every
per-layer metric, and the counts taken from it repeat exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

GALLERY = ("g_strict", "g_zero_b", "g_E", "g_ex21p", "g_ex21m", "g_ex22")
EQUAL_COST = ("g_E", "g_ex21p", "g_ex21m")   # b != 0 and equal Friedrichs cost at K = 32
STRICT_E = "g_strict:M=4"   # same max a as g_E, so the same CFL step and RK4 step count

# A deck takes about 19 s and holds 56 jobs, so a 50 s run measures about 140
# jobs (127-161 in the baseline runs), within the 100-199 whose tail is p90.  The counts put the median in the middle of one job class of near-equal
# cost, with as many jobs below the class as above it, and p90 inside one
# class; a quantile on the boundary of two classes, or at the low edge of one,
# jumps with the machine's speed from run to run.


def _log_uniform(rng, lo, hi):
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 6)


def _sources(rng):
    """One gallery source per model family, with seeded parameters."""
    return [
        f"g_strict:M={round(rng.uniform(0.5, 2.0), 2)}",
        "g_zero_b",
        f"g_E:eps={round(rng.uniform(0.15, 0.85), 2)}",
        f"g_ex22:m={rng.randint(3, 8)}",
        "g_ex21p",
        "g_ex21m",
    ]


def _friedrichs_case(rng, model, K):
    return {"kind": "friedrichs", "model": model, "K": K, "t": _log_uniform(rng, 0.03, 1.0)}


def assembly_deck(rng):
    # Per deck: 8 K=16 loss probes and 12 K=8 Friedrichs cases (20 below the
    # median class), 16 K=32 loss probes (median), 3 K=16 cases and 13 evolve
    # commands (p90), then one each of the K=64 probe, the quantize command,
    # the K=128 cutoff check and the K=32 case, which take 40% of the deck's
    # time (20 above).
    specs = [_friedrichs_case(rng, m, 8) for m in GALLERY * 2]
    specs += [_friedrichs_case(rng, m, 16) for m in rng.sample(GALLERY, 3)]
    specs.append(_friedrichs_case(rng, rng.choice(EQUAL_COST), 32))
    specs.append({"kind": "cli_quantize", "model": rng.choice(EQUAL_COST)})
    for K, n in ((16, 8), (32, 16), (64, 1)):
        for i in range(n):
            model = ("g_E", STRICT_E)[i % 2] if n > 1 else rng.choice(("g_E", STRICT_E))
            specs.append({"kind": "loss_probe", "model": model, "K": K,
                          "lot_seed": rng.randrange(10**6)})
    specs += [{"kind": "evolve_cmd", "model": "g_E", "lot_seed": rng.randrange(10**6),
               "state_seed": rng.randrange(10**6)} for _ in range(13)]
    specs.append({"kind": "cutoff", "lot_seed": rng.randrange(10**6)})
    rng.shuffle(specs)
    return specs


def search_deck(rng):
    # Per deck: 19 jobs under 0.25 s (pointwise checks, fp_check, three
    # lower_bound_delta calls, symmetrizer and analyze commands), 18 K=8
    # searches, 17 regularize sweeps and 2 K=16 searches.  With 19 jobs below
    # and 19 above the K=8 searches, the median falls in the middle of that
    # class, where it is steadiest; p90 falls in the upper regularize sweeps.
    # fp_search does ~1205 eigensolves for every model at a given K, so the
    # draw of models does not move the median.  g_ex21p/m fail (E) at once in
    # lower_bound_delta, so its models come from the other four families.
    src = _sources(rng)
    models = ["g_E", "g_zero_b", "g_strict", "g_ex22", "g_ex21m", src[2]]
    k8 = [[{"kind": "fp_search", "model": m, "K": 8}] for m in models * 3]
    k16 = [[{"kind": "fp_search", "model": m, "K": 16}] for m in rng.sample(models, 2)]
    for unit in rng.sample(k8, 3) + rng.sample(k16, 1):
        unit.append(dict(unit[0], kind="fp_check"))
    small = [
        {"kind": "gallery", "model": rng.choice(src)},
        {"kind": "parse", "seed": rng.randrange(10**6)},
        {"kind": "condition", "model": rng.choice(src), "which": "E"},
        {"kind": "condition", "model": rng.choice(src), "which": "H"},
        {"kind": "beta1", "model": rng.choice(src)},
        {"kind": "glaeser", "model": rng.choice(src)},
        {"kind": "roots", "seed": rng.randrange(10**6), "n": 10000},
        {"kind": "extend", "model": rng.choice(("g_E", "g_zero_b")),
         "half_width": round(rng.uniform(0.5, 1.5), 3)},
    ]
    small += [{"kind": "lower_bound_delta", "model": m} for m in rng.sample(src[:4], 3)]
    small += [{"kind": "cli_symmetrizer", "model": m} for m in rng.sample(src, 2)]
    small += [{"kind": "cli_analyze", "model": m} for m in rng.sample(src, 2)]
    small += [{"kind": "regularize", "lot_seed": rng.randrange(10**6), "seed": rng.randrange(10**6)}
              for _ in range(17)]
    units = k8 + k16 + [[spec] for spec in small]
    rng.shuffle(units)
    return [spec for unit in units for spec in unit]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    deck: Callable
    warmup: tuple          # one spec per job kind, at its smallest size


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "assembly",
            "Friedrichs positivity and RK4 energy evolution at K=8..128, criteria 4 and 6-8: "
            "gather/einsum and the dense 3N x 3N generator; no fp_search or lower_bound_delta",
            assembly_deck,
            ({"kind": "friedrichs", "model": "g_E", "K": 8, "t": 0.5},
             {"kind": "cli_quantize", "model": "g_E"},
             {"kind": "loss_probe", "model": "g_E", "K": 16, "lot_seed": 0},
             {"kind": "evolve_cmd", "model": "g_E", "lot_seed": 0, "state_seed": 0},
             {"kind": "cutoff", "lot_seed": 0}),
        ),
        Workload(
            "search",
            "sharp-bound searches (criterion 5), small-grid checks, CLI commands and K=8 "
            "regularize sweeps: small eigensolves and per-call overhead; no Friedrichs assembly",
            search_deck,
            tuple({"kind": k, **p} for k, p in (
                ("fp_search", {"model": "g_E", "K": 8}), ("fp_check", {"model": "g_E", "K": 8}),
                ("gallery", {"model": "g_E"}), ("parse", {"seed": 0}),
                ("condition", {"model": "g_E", "which": "E"}), ("beta1", {"model": "g_E"}),
                ("glaeser", {"model": "g_E"}), ("roots", {"seed": 0, "n": 10000}),
                ("extend", {"model": "g_E", "half_width": 1.0}),
                ("regularize", {"lot_seed": 0, "seed": 0}),
                ("lower_bound_delta", {"model": "g_E"}), ("cli_symmetrizer", {"model": "g_E"}),
                ("cli_analyze", {"model": "g_E"}))),
        ),
    )
}

# Fixed inputs, seed-independent; the gate's own models and lower-order seeds.
PROBES = (
    {"kind": "friedrichs", "model": "g_E", "K": 8, "t": 0.5},
    {"kind": "friedrichs", "model": "g_E", "K": 16, "t": 0.5},
    {"kind": "friedrichs", "model": "g_E", "K": 32, "t": 0.5},
    {"kind": "cli_quantize", "model": "g_E"},
    {"kind": "fp_search", "model": "g_E", "K": 16},
    {"kind": "fp_search", "model": "g_E", "K": 32},
    {"kind": "fp_check", "model": "g_E", "K": 32},
    {"kind": "loss_probe", "model": "g_E", "K": 32, "lot_seed": 808},
    {"kind": "loss_probe", "model": "g_E", "K": 64, "lot_seed": 808},
    {"kind": "loss_probe", "model": "g_E", "K": 128, "lot_seed": 808},
    {"kind": "evolve_cmd", "model": "g_E", "lot_seed": 606, "state_seed": 0},
    {"kind": "cutoff", "lot_seed": 707},
    {"kind": "gallery", "model": "g_E"},
    {"kind": "parse", "seed": 0},
    {"kind": "condition", "model": "g_E", "which": "E"},
    {"kind": "condition", "model": "g_E", "which": "H"},
    {"kind": "beta1", "model": "g_E"},
    {"kind": "glaeser", "model": "g_E"},
    {"kind": "roots", "seed": 202, "n": 10000},
    {"kind": "lower_bound_delta", "model": "g_E"},
    {"kind": "extend", "model": "g_E", "half_width": 1.0},
    {"kind": "regularize", "lot_seed": 1010, "seed": 0},
    {"kind": "cli_symmetrizer", "model": "g_E"},
    {"kind": "cli_analyze", "model": "g_E"},
)

# Which workload runs the code each ROADMAP item changes, and which bypasses it.
# On a bypassing workload the predicted change of every end-to-end metric is
# none.  The median and p90 classes named here are the ones the deck
# compositions above put there.
PREDICTIONS = {
    "2": {
        "change": "support-aware Friedrichs assembly in quantize._friedrichs_matrix",
        "runs_on": {"assembly": "jobs_per_s up and cpu_s_per_job down (the K=32 case and the "
                                "quantize command are a quarter of the deck); peak_rss_mb "
                                "down (the K=32 gather); job_s.p50 and job_s.tail unchanged "
                                "(K=32 loss probes and evolve commands hold them)"},
        "bypassed_by": ["search"],
        "per_layer": ["quantize.friedrichs_part.K32.call_s",
                      "quantize.friedrichs_part.builds_per_call"],
    },
    "3a": {
        "change": "closed-form smallest C per (t, delta) in fp_search",
        "runs_on": {"search": "job_s.p50 down (K=8 searches hold the median), jobs_per_s "
                              "up, job_s.tail down a little (every regularize row runs "
                              "fp_search at K=8)"},
        "bypassed_by": ["assembly"],
        "per_layer": ["quantize.fp_search.eigsolves_per_call", "quantize.fp_search.K32.call_s"],
    },
    "3b": {
        "change": "generalized eigenvalue for lower_bound_delta and the CLI symmetrizer bisection",
        "runs_on": {"search": "job_s.tail down (every regularize row calls "
                              "lower_bound_delta), jobs_per_s up a little"},
        "bypassed_by": ["assembly"],
        "per_layer": ["symmetrizer.lower_bound_delta.eigsolves_per_call", "cli.symmetrizer.busy_s"],
    },
    "3c": {
        "change": "operator_norm from one SVD instead of power iteration",
        "runs_on": {"assembly": "jobs_per_s up: every Friedrichs case, the quantize command "
                                "and eight 771 x 771 norms per cutoff check call it"},
        "bypassed_by": ["search"],
        "per_layer": ["quantize.operator_norm.busy_s"],
    },
    "4a": {
        "change": "matrix-free RK4 generator",
        "runs_on": {"assembly": "jobs_per_s up; job_s.p50 (K=32 loss probes), job_s.tail "
                                "(evolve commands) and peak_rss_mb down",
                    "search": "no worse: K=8 evolutions inside the regularize rows, which "
                              "hold job_s.tail"},
        "bypassed_by": [],
        "per_layer": ["evolution.loss_probe.K128.step_s", "evolution.evolve.step_s"],
    },
    "4c": {
        "change": "remove the regularize_sweep thread pool and TRIPLEX_THREADS",
        "runs_on": {"search": "none: the sweep runs with its default single worker"},
        "bypassed_by": ["assembly"],
        "per_layer": ["evolution.regularize_sweep.busy_s"],
    },
}
