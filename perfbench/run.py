"""triplex benchmark: seeded job-mix workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload assembly --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process runs a closed loop with one client.  After an untimed
warm-up pass (one job per kind at its smallest size) it runs the seeded stream
of decks of jobs until ``--seconds`` of it have passed; the job in progress
then finishes.  Each job is timed around its calls into triplex only; its
output is checked against an oracle afterwards.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop with spans around every call into a triplex module, counts
``numpy.linalg.eigvalsh`` calls per span, adds the fixed probe jobs, and
prints the per-layer metrics.  Both print a JSON line of machine and size
facts, write a full record (job list, and spans when traced) to
``perfbench/out/``, and end with one JSON result line.  The process exits
with code 2, printing no result, when triplex cannot be imported.  BLAS runs
with one thread unless ``OPENBLAS_NUM_THREADS`` (or ``OMP_``/``MKL_``) says
otherwise (see ``main``); at that default ``cpu_s_per_job`` shows only the
threads the program starts itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import triplex.cli; "
    "from triplex.quantize import default_bump; default_bump()"
)

SPAN_NAMES = (
    "models.gallery", "models.parse_model_text",
    "cubic.check_condition", "cubic.check_beta1_bound", "cubic.glaeser_bounds",
    "cubic.roots_trig_array",
    "symmetrizer.lower_bound_delta",
    "quantize.friedrichs_part", "quantize.BlockOp.min_eig", "quantize.operator_norm",
    "quantize.fp_search", "quantize.fp_check",
    "evolution.loss_probe", "evolution.search_energy_constants", "evolution.evolve",
    "evolution.energy_margins", "evolution.frequency_cutoff_check", "evolution.extend_model",
    "evolution.regularize_sweep",
    "reporting.energy_csv_text", "reporting.emit_plot",
    "cli.quantize", "cli.symmetrizer", "cli.analyze",
)
SIZE_METRICS = {
    "quantize.friedrichs_part": (8, 16, 32),
    "quantize.fp_search": (16, 32),
    "evolution.loss_probe": (32, 64, 128),
}


PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_latency(samples):
    """Latency at the highest percentile with at least ten samples beyond it.

    The percentile is the highest of 50, 75, 90, 95, 99 and 99.9 whose
    nearest-rank sample has ten or more samples above it, so it stays put
    while the sample count varies within a band (p75 for 40-99 samples, p90
    for 100-199).  Returns (value, percentile, samples beyond); with fewer
    than 20 samples it is the maximum.
    """
    s = sorted(samples)
    n = len(s)
    for p in PERCENTILES:
        rank = math.ceil(p * n / 100.0)
        if n - rank >= 10:
            return s[rank - 1], p, n - rank
    return s[-1], 100.0, 0


def run_job(job, tracer, job_id, phase):
    """Time one job, then check it.  Returns its record."""
    rec = {"id": job_id, "phase": phase, "spec": job.spec, "sizes": job.sizes, "ok": False}
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with tracer.job(job_id, job.kind, phase):
            out = job.call(tracer)
    except Exception as exc:  # a job that raises counts as failed; the loop goes on
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["wall_s"] = time.perf_counter() - t0
    rec["cpu_s"] = time.process_time() - cpu0
    try:
        job.check(out)
    except Exception as exc:  # includes CheckFailed; the output is wrong either way
        rec["error"] = f"check: {type(exc).__name__}: {exc}"
        return rec
    rec["ok"] = True
    return rec


def run_specs(specs, ctx, tracer, phase, records, between=None, until=None):
    """Build, run and check each spec; call `between()` after each job, untimed.

    With `until`, no job starts once ``time.perf_counter()`` has reached it;
    the seconds `between()` returns move `until` on, so they use up none of it.
    """
    from jobs import build

    t0 = time.perf_counter()
    for spec in specs:
        if until is not None and time.perf_counter() >= until:
            break
        job_id = len(records)
        try:
            job = build(spec, ctx)
        except Exception as exc:  # bad input construction fails the job, not the run
            records.append({"id": job_id, "phase": phase, "spec": spec, "ok": False,
                            "error": f"build: {type(exc).__name__}: {exc}"})
            continue
        records.append(run_job(job, tracer, job_id, phase))
        if between is not None:
            spent = between()
            if until is not None:
                until += spent
    return time.perf_counter() - t0


def job_stream(workload, seed):
    """The run's deck jobs: decks drawn from ``random.Random(seed)``, end to end."""
    rng = random.Random(seed)
    while True:
        yield from workload.deck(rng)


def deck_loop(workload, seed, seconds, ctx, tracer, records, between=None):
    """Stream jobs until `seconds` have passed.  Returns the wall seconds."""
    return run_specs(job_stream(workload, seed), ctx, tracer, "deck", records, between,
                     until=time.perf_counter() + seconds)


def time_setup():
    """Wall time of one fresh interpreter that imports triplex and warms it up.

    ``wait()`` without a timeout blocks in ``waitpid``; with one, ``subprocess``
    polls with sleeps of up to 50 ms and the time lands on that grid.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, SRC]
    t0 = time.perf_counter()
    code = subprocess.Popen(cmd, cwd=ROOT).wait()
    elapsed = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


class SetupSampler:
    """``setup_s`` samples spread evenly over the deck loop, between jobs.

    The shared machine's speed drifts over tens of seconds; samples taken at
    ten moments of the run see that drift as the jobs do, where samples taken
    back to back see one moment of it.  Each call returns the seconds it took.
    """

    def __init__(self, seconds, samples=SETUP_SAMPLES):
        time_setup()    # the first start fills the file cache and is not counted
        self.step = seconds / samples
        self.samples = samples
        self.times = []
        self.due = time.perf_counter()

    def __call__(self):
        if len(self.times) < self.samples and time.perf_counter() >= self.due:
            self.times.append(time_setup())
            self.due += self.step + self.times[-1]
            return self.times[-1]
        return 0.0

    def median(self):
        while len(self.times) < self.samples:
            self.times.append(time_setup())
        return statistics.median(self.times)


def blas_facts():
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def size_facts(records):
    """Distinct per-job sizes by kind, with counts."""
    out = {}
    for r in records:
        key = json.dumps(r.get("sizes", {}), sort_keys=True)
        kind = out.setdefault(r["spec"]["kind"], {})
        kind[key] = kind.get(key, 0) + 1
    return {k: [dict(json.loads(s), jobs=n) for s, n in sorted(v.items())] for k, v in out.items()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(deck_records, setup_s, peak_mb):
    done = [r for r in deck_records if "wall_s" in r]
    lat = [r["wall_s"] for r in done]
    tail, pct, beyond = tail_latency(lat)
    metrics = {
        "jobs_per_s": {"value": len(done) / sum(lat), "unit": "1/s"},
        "job_s.p50": {"value": statistics.median(lat), "unit": "s"},
        "job_s.tail": {"value": tail, "unit": "s"},
        "cpu_s_per_job": {"value": sum(r["cpu_s"] for r in done) / len(done), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return metrics, {"percentile": pct, "samples": len(lat), "beyond": beyond}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One BLAS thread unless the caller sets another count: on a shared 2-vCPU
    # machine, two OpenBLAS threads made the ~1200 small eigensolves of an
    # fp_search swing +-10% between back-to-back runs; one thread measured
    # +-1.5% at about the same speed.  The effective count is in the facts.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    try:
        import numpy as np
        import triplex.cli
        import triplex.quantize
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import triplex from {SRC}: {exc}\n")
        return 2
    if not os.path.abspath(triplex.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: triplex imported from {triplex.cli.__file__}, not {SRC}\n")
        return 2
    import jobs
    import spans
    from workloads import PROBES, WORKLOADS

    triplex.quantize.default_bump()    # the first-call warm-up that setup_s includes

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]
    facts = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_facts(),
    }

    ctx, records = jobs.Context(), []
    run_specs(workload.warmup, ctx, spans.NullTracer(), "warmup", records)
    if args.trace:
        tracer = spans.Tracer()
        untraced_s = run_specs(workload.warmup, ctx, spans.NullTracer(), "warmup", records)
        with tracer.counting_eigsolves():
            traced_s = run_specs(workload.warmup, ctx, tracer, "warmup", records)
            loop_s = deck_loop(workload, args.seed, args.seconds, ctx, tracer, records)
            probe_s = run_specs(PROBES, ctx, tracer, "probe", records)
        metrics = spans.layer_metrics(tracer.spans, traced_s + loop_s + probe_s,
                                      SPAN_NAMES, SIZE_METRICS)
        metrics["bench.trace_overhead"] = {"value": traced_s / untraced_s, "unit": "ratio"}
        setup_s = None
    else:
        tracer = spans.NullTracer()
        sampler = SetupSampler(args.seconds)
        loop_s = deck_loop(workload, args.seed, args.seconds, ctx, tracer, records, sampler)
        setup_s = sampler.median()

    deck_records = [r for r in records if r["phase"] == "deck"]
    attempted = len(deck_records) + sum(r["phase"] == "probe" for r in records)
    failed = sum(not r["ok"] for r in records if r["phase"] != "warmup")
    warm_failed = sum(not r["ok"] for r in records if r["phase"] == "warmup")
    e2e, tail = end_to_end(deck_records, setup_s, peak_rss_mb())
    if not args.trace:
        metrics = e2e
    facts.update({
        "loop_s": loop_s, "deck_jobs": len(deck_records),
        "failed_frac": failed / attempted, "warmup_failed": warm_failed,
        "job_s.tail": tail, "sizes": size_facts(records),
        "unattributed_eigsolves": getattr(tracer, "unattributed_eigsolves", None),
    })
    errors = [r for r in records if not r["ok"]]
    for r in errors[:10]:
        sys.stderr.write(f"perfbench: job {r['id']} {r['spec']} failed: {r['error']}\n")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload.name}.seed{args.seed}.trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "metrics": metrics, "end_to_end": e2e, "jobs": records,
                   "spans": getattr(tracer, "spans", [])}, fh, default=float)
    print(json.dumps({"facts": facts}, default=float))
    print(json.dumps({"correct": failed == 0 and warm_failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
