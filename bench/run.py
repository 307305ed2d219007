"""Benchmark harness for the byzfed CLI.

    python3 bench/run.py --workload regress-grid --seed 1 --seconds 40 --trace 0

Each measured CLI call runs in a fresh process (bench/child.py) that
imports byzfed from this checkout's src/ and calls byzfed.cli.main
in-process, with BLAS pinned to one thread so the CLI's worker pool is
the only parallelism. Calls repeat on the same inputs for about --seconds
of wall time. Every call's outputs are checked; a call that
fails a check counts as failed and makes the run incorrect.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced calls and prints the per-layer metrics,
taken from the traced calls only. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 1  # import-only processes per run; each call adds a sample too
CALIBRATION_ITERS = 3_000_000
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# A Stage-III run that diverged stops at ||w|| > 1e12 with est_error near
# 1e11; honest runs stay below 2.
EST_ERROR_LIMIT = 1e6


def log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def cell_trial_failed(est_error: float) -> bool:
    """The failed_frac rule: errored (nan), non-finite or diverged."""
    return not (math.isfinite(est_error) and est_error <= EST_ERROR_LIMIT)


def check_outputs(out_dir: Path, files: list[str], cells: list[str], trials: int):
    """Check one CLI call's result files.

    Returns (problems, est_error by (cell, trial), sha256 over the files).
    """
    problems = []
    digest = hashlib.sha256()
    tables = {}
    for name in files:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        data = path.read_bytes()
        digest.update(name.encode() + b"\0" + data)
        try:
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        except (UnicodeDecodeError, csv.Error) as exc:
            problems.append(f"{name} does not parse: {exc}")
            continue
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            problems.append(f"{name} is not a CSV table with a header")
            continue
        tables[name] = [dict(zip(rows[0], r)) for r in rows[1:]]
    est = {}
    n_rows = 0
    for row in tables.get("results.csv", []):
        if row.get("metric") == "est_error":
            n_rows += 1
            try:
                est[(row["cell"], int(row["trial"]))] = float(row["value"])
            except (KeyError, ValueError):
                problems.append(f"bad est_error row {row}")
    expected = {(c, t) for c in cells for t in range(trials)}
    if n_rows != len(expected) or set(est) != expected:
        problems.append(f"results.csv has {n_rows} est_error rows, expected {len(expected)}")
    return problems, est, digest.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("BYZFED_THREADS", None)  # the workload sets the pool size
    return env


def run_child(report: Path, deadline: float, options=(), cli=()) -> dict | None:
    """Run bench/child.py; its JSON report, or None if it failed or timed out."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    cmd = [sys.executable, str(BENCH / "child.py"), *options, str(ROOT), str(report)]
    if cli:
        cmd += ["--", *cli]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        log(f"child timed out after {timeout:.0f} s")
        return None
    if proc.returncode != 0:
        log(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return None
    return json.loads(report.read_text())


def calibrate() -> dict:
    """Time a fixed pure-Python loop, so host speed drift is visible."""
    wall, cpu = time.perf_counter(), time.process_time()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x += i
    return {"iters": CALIBRATION_ITERS, "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu}


def one_call(wl, argv: list[str], work: Path, n: int, traced: bool, deadline: float) -> dict:
    """Run the CLI once in a fresh process and check its outputs."""
    out = work / f"out{n}"
    options = ["--trace", str(WORK / f"{wl.name}.spans.jsonl")] if traced else []
    rep = run_child(work / f"call{n}.json", deadline, options, [*argv, "--out-dir", str(out)])
    call = {"traced": traced, "report": rep, "problems": [], "est": {}, "digest": None}
    if rep is None:
        call["problems"].append("process failed or timed out")
    else:
        if rep["rc"] != 0:
            call["problems"].append(f"CLI exit code {rep['rc']}")
        problems, call["est"], call["digest"] = check_outputs(
            out, rep["result_files"], wl.cells, wl.trials
        )
        call["problems"] += problems
    shutil.rmtree(out, ignore_errors=True)
    return call


def measure(wl, seconds: float, trace: bool, work: Path, deadline: float) -> dict:
    argv = wl.write_inputs(work)
    reports = [run_child(work / f"import{i}.json", deadline) for i in range(SETUP_SAMPLES)]
    env = reports[0]["env"] if reports[0] else None
    setup = [r["setup_s"] for r in reports if r]
    # A round (one call, or an untraced and a traced call) starts only if
    # at least half of it fits in `seconds` by the median round so far, so
    # a run lasts about `seconds` whatever the length of one call.
    calls = []
    rounds_s = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            call = one_call(wl, argv, work, len(calls), traced, deadline)
            calls.append(call)
            if call["report"] is not None:
                setup.append(call["report"]["setup_s"])
        rounds_s.append(time.monotonic() - round_start)
        if any(c["report"] is None for c in calls):
            break
        if time.monotonic() - start + statistics.median(rounds_s) / 2 > seconds:
            break
    reference = next((c["digest"] for c in calls if c["digest"]), None)
    for c in calls:
        if c["digest"] is not None and c["digest"] != reference:
            c["problems"].append("result files differ from the first call's")
    return {"env": env, "setup": setup, "calls": calls}


def summarize(wl, run: dict, trace: bool) -> dict[str, float]:
    """Metric values of a run whose calls all passed their checks."""
    calls = run["calls"]
    plain = [c["report"] for c in calls if not c["traced"]]
    est = list(calls[0]["est"].values())  # identical in every call
    ok = [e for e in est if not cell_trial_failed(e)]
    ok_frac = len(ok) / len(est)
    if not trace:
        return {
            "setup_s": statistics.median(run["setup"]),
            "cell_trials_per_s": statistics.median(
                len(wl.cells) * wl.trials / r["wall_s"] for r in plain
            ),
            "est_error_p50": statistics.median(ok) if ok else math.nan,
            "ok_frac": ok_frac,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    traced = [c["report"] for c in calls if c["traced"]]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    values["failed_frac"] = 1.0 - ok_frac
    values["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded; every workload runs fixed inputs (see workloads.py)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time to measure; a call starts if half of it fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "byzfed" / "cli.py").is_file():
        print(f"error: no byzfed source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{wl.name}-{os.getpid()}"
    calibration = calibrate()
    try:
        run = measure(wl, args.seconds, bool(args.trace), work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = run["calls"]
    failed = sum(1 for c in calls if c["problems"])
    for i, c in enumerate(calls):
        for p in c["problems"]:
            log(f"call {i}: {p}")
    correct = failed == 0
    values = summarize(wl, run, bool(args.trace)) if correct else {}
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            correct = False
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "call_wall_s": [c["report"] and c["report"]["wall_s"] for c in calls],
        "call_cpu_s": [c["report"] and c["report"]["cpu_s"] for c in calls],
        "setup_samples": len(run["setup"]),
        "calibration": calibration,
        "env": run["env"],
    }
    print("env " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
