"""Ingesting a raw points CSV: threshold graph, shards, adversarial shards.

Writes a small CSV of clustered points, cuts all pairwise edges longer
than gamma to find the clusters, splits each cluster into machine
shards, and adds a few adversarial shards built from the leftover
points. Then the usual pipeline runs on the result; an ingest fleet
carries the location loss, so a shard's local solution is its mean.

Run: python demos/ingest_points.py [--seed 0] [--n-adv 4]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from byzfed.datagen import ingest_threshold_graph, percentile_gamma, read_points_csv
from byzfed.distopt import OptConfig
from byzfed.pipeline import ClusterSpec, IngestSpec, PipelineConfig, run_pipeline
from byzfed.robust_stats import AggregatorSpec


def write_points(path, rng):
    blobs = [
        rng.standard_normal((63, 3)) * 0.6,
        np.array([12.0, 0.0, 0.0]) + rng.standard_normal((47, 3)) * 0.6,
        np.array([0.0, 12.0, 0.0]) + rng.standard_normal((38, 3)) * 0.6,
    ]
    np.savetxt(path, np.vstack(blobs), delimiter=",")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-adv", type=int, default=4)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    csv_path = Path(tempfile.mkdtemp()) / "points.csv"
    write_points(csv_path, rng)

    points = read_points_csv(csv_path)
    gamma = percentile_gamma(points, q=10)
    print(f"{points.shape[0]} points, gamma from 10th distance percentile: {gamma:.3f}")

    shards, truth = ingest_threshold_graph(
        points, gamma=gamma, shard_size=5, n_adv=args.n_adv, seed=args.seed
    )
    honest = sum(1 for s in shards if not s.is_byzantine)
    print(f"ingest found {truth.K} clusters -> {honest} honest shards "
          f"+ {len(shards) - honest} adversarial shards of size 5")

    cfg = PipelineConfig(
        fleet=IngestSpec(path=str(csv_path), gamma=gamma, shard_size=5, n_adv=args.n_adv),
        seed=args.seed,
    )
    result = run_pipeline(
        cfg,
        ClusterSpec(method="trimmed_kmeans", C=2.0, sigma_hat=0.4),
        OptConfig(max_rounds=100, aggregator=AggregatorSpec("trimmed_mean", beta=0.3)),
    )
    print(f"pipeline est_error: {result.est_error:.4f} "
          f"(distance of recovered centers to component means, per coordinate)")
    for k, (i, j) in enumerate(result.matched_pairs):
        w = result.per_cluster_w_hat[i]
        print(f"  cluster {j}: center recovered at ({', '.join(f'{v:.2f}' for v in w)})")


if __name__ == "__main__":
    main()
