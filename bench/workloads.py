"""The benchmark's workloads: one CLI config each, plus its generated inputs.

Every workload runs the fleet of the repository's acceptance seed
(20260815). Accuracy and cost on these fleets move by several times
between fleet draws: on 12 draws of regress-grid, FedAvg diverged on half
of them and the median est_error spanned 0.095-0.34; attack-agg took
3.6-15.7 s per trial on five draws. No bound of 25% or less holds across
draws at the trial counts a run can afford, so the inputs are fixed and
only the run-to-run noise of the host is left. `write_inputs` still
generates every input file, so the program only sees what it is given.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOAD_SEED = 20260815


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # byzfed CLI subcommand
    config: dict  # JSON config written for the CLI
    threads: int
    flags: tuple[str, ...] = ()  # extra CLI flags
    points: dict | None = None  # blob layout of a generated points CSV

    @property
    def cells(self) -> list[str]:
        grid = self.config["grid"]
        return [f"{c['name']}+{o['name']}" for c in grid["clusterers"] for o in grid["optimizers"]]

    @property
    def trials(self) -> int:
        return int(self.config["grid"]["trials"])

    def write_inputs(self, work_dir: Path) -> list[str]:
        """Write the config (and points CSV) into work_dir; return the CLI
        argv without --out-dir."""
        work_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = work_dir / f"{self.name}.json"
        cfg_path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        argv = [self.command, "--config", str(cfg_path), "--threads", str(self.threads)]
        if self.points is not None:
            csv_path = work_dir / "points.csv"
            write_blobs_csv(csv_path, seed=self.config["seed"], **self.points)
            argv += ["--csv", str(csv_path)]
        return argv + list(self.flags)


def write_blobs_csv(path: Path, seed: int, sizes, d: int, scale: float) -> None:
    """Gaussian blobs with unit variance around centers scale * N(0, I_d),
    rows shuffled, written with round-trip float formatting."""
    rng = random.Random(seed)
    rows = []
    for size in sizes:
        center = [scale * rng.gauss(0.0, 1.0) for _ in range(d)]
        rows += [[c + rng.gauss(0.0, 1.0) for c in center] for _ in range(size)]
    rng.shuffle(rows)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{j}" for j in range(d)) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")


_TM = {"kind": "trimmed_mean", "beta": 0.3}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="regress-grid",
            command="grid",
            threads=2,
            config={
                "fleet": {"type": "synthetic", "m": 100, "n": 100, "d": 100, "K": 5,
                          "alpha": 0.05, "sigma": 2.0},
                "solver": {"kind": "gd", "iters": 1000},
                "grid": {
                    "clusterers": [
                        {"name": "KM", "method": "lloyd"},
                        {"name": "TKM", "method": "trimmed_kmeans", "C": 2.0, "sigma_hat": 0.55},
                        {"name": "KGM", "method": "kgeomedian"},
                    ],
                    "optimizers": [
                        {"name": "SM", "max_rounds": 300},
                        {"name": "TM", "max_rounds": 300, "aggregator": _TM},
                        {"name": "FA", "max_rounds": 300, "local_steps": 5, "aggregator": _TM},
                    ],
                    # one trial (8-15 s) fits three or four calls in a
                    # run; FedAvg diverges on trial 0 for every clusterer
                    "trials": 1,
                },
                "seed": WORKLOAD_SEED,
            },
        ),
        Workload(
            name="ingest-cli",
            command="ingest",
            threads=1,
            config={
                "grid": {
                    "clusterers": [
                        {"name": "KM", "method": "lloyd"},
                        {"name": "TKM", "method": "trimmed_kmeans", "C": 2.0, "sigma_hat": 0.3},
                    ],
                    "optimizers": [
                        {"name": "SM", "max_rounds": 100},
                        {"name": "TM", "max_rounds": 100, "aggregator": _TM},
                    ],
                    "trials": 2,
                },
                "seed": WORKLOAD_SEED,
            },
            flags=("--gamma", "4", "--shard-size", "50", "--n-adv", "12", "--min-cluster", "50"),
            # sizes are not multiples of the shard size, so the remainders
            # feed the adversarial shards
            points={"sizes": (1480, 1495, 1510, 1525), "d": 10, "scale": 8.0},
        ),
        Workload(
            name="attack-agg",
            command="grid",
            threads=1,
            config={
                "fleet": {"type": "synthetic", "m": 100, "n": 100, "d": 100, "K": 5,
                          "alpha": 0.2, "sigma": 1.0},
                "solver": {"kind": "erm"},
                "attack": {"kind": "random_gauss", "scale": 10.0},
                "grid": {
                    "clusterers": [
                        {"name": "TKM", "method": "trimmed_kmeans", "C": 2.0, "sigma_hat": 0.3},
                    ],
                    # 100 rounds (5-8 s a call) rather than 300 (9-16 s),
                    # so a run takes the median of five or six calls;
                    # aggregate still takes about 75% of run_grid
                    "optimizers": [
                        {"name": "CM", "max_rounds": 100, "aggregator": {"kind": "coord_median"}},
                        {"name": "GM", "max_rounds": 100, "aggregator": {"kind": "geo_median"}},
                        {"name": "IF", "max_rounds": 100, "aggregator": {"kind": "iter_filter"}},
                    ],
                    "trials": 1,
                },
                "seed": WORKLOAD_SEED,
            },
        ),
    )
}
