"""One measured process: import byzfed, optionally run its CLI in-process.

Usage: python3 bench/child.py [--trace SPANS] ROOT REPORT [-- CLI ARGS...]

Without CLI arguments the process only times the import. The report is a
JSON file; the CLI's own stdout and stderr stay free for its progress
lines. Only the standard library is imported before the timed import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _env_record() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("report")
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_argv = argv[split + 1 :]
    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import byzfed  # noqa: F401
    import byzfed.cli

    setup_s = time.perf_counter() - start
    if not Path(byzfed.__file__).resolve().is_relative_to(src):
        print(f"byzfed imported from {byzfed.__file__}, not from {src}", file=sys.stderr)
        return 3
    report: dict = {"setup_s": setup_s}
    if not cli_argv:
        report["env"] = _env_record()
    else:
        from byzfed.reporting import RESULT_FILES

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start, cpu = time.perf_counter(), time.process_time()
        rc = byzfed.cli.main(cli_argv)
        report["wall_s"] = time.perf_counter() - start
        report["cpu_s"] = time.process_time() - cpu
        report["rc"] = rc
        report["result_files"] = list(RESULT_FILES)
        if tracer is not None:
            from tracer import layer_metrics

            tracer.dump(args.trace)
            out_dir = Path(cli_argv[cli_argv.index("--out-dir") + 1])
            threads = int(cli_argv[cli_argv.index("--threads") + 1])
            layers = layer_metrics(tracer.spans, tracer.counts, tracer.call_counts(), threads)
            layers["reporting.result_bytes"] = float(
                sum((out_dir / name).stat().st_size for name in RESULT_FILES if (out_dir / name).exists())
            )
            report["layers"] = layers
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
