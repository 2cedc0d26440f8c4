"""The benchmark's own output checks, run on the current code.

Each workload's warm-up specs and its first seed-0 deck go through the
benchmark's job runner in order, as a run does, and every job must pass its
oracle check.  A change that breaks a benchmarked output fails here rather
than only in a benchmark run.
"""

import os
import random
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_warmup_and_one_deck_pass_the_benchmark_checks(workload):
    ctx = jobs.Context()
    records = []
    specs = list(WORKLOADS[workload].warmup) + WORKLOADS[workload].deck(random.Random(0))
    run.run_specs(specs, ctx, spans.NullTracer(), "check", records)
    failed = [(r["spec"], r["error"]) for r in records if not r["ok"]]
    assert len(records) == len(specs) and not failed, failed
