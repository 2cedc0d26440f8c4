"""Self-tests of the benchmark: seeds, the tail rule, span arithmetic, output checks.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import PROBES, WORKLOADS  # noqa: E402


def job_list(workload, seed, decks=3):
    rng = random.Random(seed)
    return [spec for _ in range(decks) for spec in WORKLOADS[workload].deck(rng)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert job_list(workload, 7) == job_list(workload, 7)
    assert job_list(workload, 7) != job_list(workload, 8)


def test_job_stream_is_the_seeded_decks_end_to_end():
    def take(seed, start, n):
        return list(itertools.islice(run.job_stream(WORKLOADS["search"], seed), start, start + n))

    assert take(5, 0, 40) + take(5, 40, 100) == take(5, 0, 140)
    assert take(5, 0, 56) == WORKLOADS["search"].deck(random.Random(5))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_deck_composition_does_not_depend_on_seed(workload):
    def composition(seed):
        deck = WORKLOADS[workload].deck(random.Random(seed))
        return sorted((s["kind"], s.get("K", 0)) for s in deck)

    assert composition(1) == composition(2)


def test_every_spec_builds():
    ctx = jobs.Context()
    specs = [s for w in WORKLOADS.values() for s in w.warmup] + list(PROBES)
    specs += [s for w in sorted(WORKLOADS) for s in job_list(w, 3, decks=1)]
    for spec in specs:
        assert jobs.build(spec, ctx).kind == spec["kind"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(100))
    random.Random(0).shuffle(samples)
    assert run.tail_latency(samples) == (89, 90.0, 10)
    assert run.tail_latency(list(range(199))) == (179, 90.0, 19)
    assert run.tail_latency(list(range(200))) == (189, 95.0, 10)
    assert run.tail_latency(list(range(40))) == (29, 75.0, 10)
    assert run.tail_latency(list(range(39))) == (19, 50.0, 19)


def test_tail_of_few_samples_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_jobs_per_s_and_cpu_s_per_job_are_plain_totals():
    def rec(wall, cpu):
        return {"spec": {"kind": "a"}, "sizes": {}, "wall_s": wall, "cpu_s": cpu}

    done = [rec(1.0, 2.0), rec(1.0, 2.0), rec(2.0, 5.0)]
    metrics, _ = run.end_to_end(done, 0.3, 50.0)
    assert metrics["jobs_per_s"]["value"] == 3 / 4.0
    assert metrics["cpu_s_per_job"]["value"] == 3.0
    slower = [rec(1.0, 2.0), rec(1.0, 2.0), rec(4.0, 5.0)]   # one job of three regresses
    assert run.end_to_end(slower, 0.3, 50.0)[0]["jobs_per_s"]["value"] == 3 / 6.0


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 4.0, 6.0, 10.0])
    tr = spans.Tracer(clock=lambda: next(ticks))
    with tr.span("job"):                 # 0 .. 10
        with tr.span("a"):               # 1 .. 4
            with tr.span("a.inner"):     # 2 .. 3
                pass
        with tr.span("b"):               # 4 .. 6
            pass
    assert [s["name"] for s in tr.spans] == ["job", "a", "a.inner", "b"]
    assert spans.self_times(tr.spans) == [5.0, 2.0, 1.0, 2.0]
    assert [s["parent"] for s in tr.spans] == [None, 0, 1, 0]


def test_eigsolves_are_counted_per_innermost_span_and_restored():
    tr = spans.Tracer()
    original = np.linalg.eigvalsh
    with tr.counting_eigsolves():
        with tr.span("outer", K=2):
            np.linalg.eigvalsh(np.eye(15))
            with tr.span("inner"):
                np.linalg.eigvalsh(np.stack([np.eye(3)] * 4))
        np.linalg.eigvalsh(np.eye(2))
    assert np.linalg.eigvalsh is original
    outer, inner = tr.spans
    assert {k: v[:2] for k, v in outer["eig"].items()} == {15: (1, 1)}
    assert {k: v[:2] for k, v in inner["eig"].items()} == {3: (1, 4)}
    assert tr.unattributed_eigsolves == 1


def _perturbed(job, perturb):
    return dataclasses.replace(job, call=lambda tr: perturb(job.call(tr)))


def test_correct_output_passes_and_perturbed_output_counts_as_failed():
    ctx = jobs.Context()
    job = jobs.build({"kind": "roots", "seed": 1, "n": 500}, ctx)
    assert run.run_job(job, spans.NullTracer(), 0, "deck")["ok"]
    bad = run.run_job(_perturbed(job, lambda lam: lam + 1e-6), spans.NullTracer(), 1, "deck")
    assert not bad["ok"] and bad["error"].startswith("check:")
    assert "wall_s" in bad                       # still timed: it ran to completion


def test_perturbed_friedrichs_verdict_counts_as_failed():
    ctx = jobs.Context()
    job = jobs.build({"kind": "friedrichs", "model": "g_E", "K": 8, "t": 0.5}, ctx)
    assert run.run_job(job, spans.NullTracer(), 0, "deck")["ok"]
    flip = _perturbed(job, lambda out: (out[0], -abs(out[1]), out[2]))
    assert not run.run_job(flip, spans.NullTracer(), 1, "deck")["ok"]


def test_a_job_that_raises_counts_as_failed():
    ctx = jobs.Context()
    job = jobs.build({"kind": "parse", "seed": 3}, ctx)

    def boom(tr):
        raise ValueError("boom")

    rec = run.run_job(dataclasses.replace(job, call=boom), spans.NullTracer(), 0, "deck")
    assert not rec["ok"] and "boom" in rec["error"] and "wall_s" not in rec


def test_seeded_model_text_parses_and_checks():
    ctx = jobs.Context()
    for seed in range(5):
        assert run.run_job(jobs.build({"kind": "parse", "seed": seed}, ctx),
                           spans.NullTracer(), seed, "deck")["ok"]

