"""Tests of the benchmark harness itself.

Run from the repository root: python -m pytest bench -q
They run the regress-grid workload three times (about a minute).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

WL = WORKLOADS["regress-grid"]
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """One untraced and two traced regress-grid calls, checked."""
    work = tmp_path_factory.mktemp("regress")
    argv = WL.write_inputs(work)
    deadline = time.monotonic() + 600
    out = [run.one_call(WL, argv, work, n, traced, deadline)
           for n, traced in enumerate((False, True, True))]
    assert [c["problems"] for c in out] == [[], [], []]
    return out


def test_counts_repeat_across_traced_runs(calls):
    a, b = (c["report"]["layers"] for c in calls[1:])
    names = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    counts = {n: a[n] for n in names if n in a}
    assert counts["localsolve.local_gradient.calls"] > 0
    assert counts == {n: b[n] for n in counts}


def test_traced_and_untraced_results_are_byte_identical(calls):
    assert len({c["digest"] for c in calls}) == 1


def test_failed_rule_flags_diverged_fedavg_trial(calls):
    est = calls[0]["est"]
    failed = {key for key, value in est.items() if run.cell_trial_failed(value)}
    # FedAvg's expansive local steps diverge on trial 0 of seed 20260815
    # for every clusterer; Stage III stops them near est_error 1e11.
    assert failed == {("KM+FA", 0), ("TKM+FA", 0), ("KGM+FA", 0)}
    assert all(est[key] > 1e10 for key in failed)
    assert [run.cell_trial_failed(v) for v in (math.nan, math.inf, 2e6, 1.9)] == [True, True, True, False]


def test_metric_names_match_benchmark_json(calls):
    run_data = {"setup": [0.5], "calls": calls}
    e2e = run.summarize(WL, run_data, trace=False)
    assert sorted(e2e) == sorted(m["name"] for m in SPEC["end_to_end"])
    layers = run.summarize(WL, run_data, trace=True)
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    assert layers["distopt.diverged_runs"] > 0
    assert 0 < layers["pipeline.pool_busy_frac"] <= 1


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".bench_work").exists()
