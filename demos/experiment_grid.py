"""Seeded experiment grids and replayable runs, via the CLI machinery.

Shows the moving parts of a reproducible experiment:

* trial t of every grid cell shares one derived seed, so cells see the
  same fleets and the comparison is paired;
* result CSVs are byte-identical for the same seed at any thread count;
* a manifest.json written next to the results is enough to replay the
  whole run and verify the outputs match. replay reruns the manifest's
  config and grid along the same path as the original command, checks
  that they still give the manifest's run id, and writes a manifest.json
  of its own, so a replay can itself be replayed. It refuses to write
  into the directory it checks.

Grid entries name their methods in full (lloyd, trimmed_kmeans,
trimmed_mean, ...); the --clusterer and --aggregator flags also take the
short cell names (KM, TKM, TM, ...), in any case.

Run: python demos/experiment_grid.py [--out-dir /tmp/byzfed_demo]
"""

import argparse
import json
from pathlib import Path

from byzfed.cli import main as byzfed_cli
from byzfed.reporting import RESULT_FILES, file_sha256


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="/tmp/byzfed_demo")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    out = Path(args.out_dir)
    config = {
        "fleet": {"type": "synthetic", "m": 30, "n": 30, "d": 10, "K": 3,
                  "alpha": 0.2, "sigma": 1.0},
        "grid": {
            "clusterers": [
                {"name": "KM", "method": "lloyd"},
                {"name": "TKM", "method": "trimmed_kmeans", "sigma_hat": 0.4},
            ],
            "optimizers": [
                {"name": "SM", "max_rounds": 80},
                {"name": "TM", "max_rounds": 80,
                 "aggregator": {"kind": "trimmed_mean", "beta": 0.25}},
            ],
            "trials": 5,
        },
        "seed": args.seed,
    }
    cfg_path = out / "config.json"
    out.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(config, indent=2))

    print("== run the grid twice, 1 thread then 4 threads ==")
    for tag, threads in [("run_a", 1), ("run_b", 4)]:
        code = byzfed_cli([
            "grid", "--config", str(cfg_path),
            "--out-dir", str(out / tag), "--threads", str(threads),
        ])
        assert code == 0

    print()
    print("== compare result files across the two runs ==")
    for name in RESULT_FILES:
        a = file_sha256(out / "run_a" / name)
        b = file_sha256(out / "run_b" / name)
        print(f"  {name:<20} {'identical' if a == b else 'DIFFERS'}")

    print()
    print("== replay run_a from its manifest ==")
    code = byzfed_cli(["replay", "--manifest", str(out / "run_a"),
                       "--out-dir", str(out / "replayed")])
    print(f"replay exit code: {code} (0 means every file matched)")

    print()
    print("== replay the replay, from the manifest it wrote ==")
    code = byzfed_cli(["replay", "--manifest", str(out / "replayed"),
                       "--out-dir", str(out / "replayed_again")])
    print(f"replay exit code: {code}")
    code = byzfed_cli(["replay", "--manifest", str(out / "run_a"),
                       "--out-dir", str(out / "run_a")])
    print(f"replay into its own directory: exit code {code} (refused)")


if __name__ == "__main__":
    main()
