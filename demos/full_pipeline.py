"""The three stages end to end, then a small method comparison grid.

Stage I: every machine solves its own shard locally.
Stage II: the local solutions are clustered (robustly or not).
Stage III: each estimated cluster runs Byzantine-robust distributed
gradient descent from its cluster center.

The first part walks one run and prints what each stage produced. The
second part runs a 2x2 grid (clusterer x aggregator) over a few seeds
to show where the robustness actually comes from.

Run: python demos/full_pipeline.py [--seed 0] [--trials 5]
"""

import argparse

import numpy as np

from byzfed import FleetConfig, OptConfig
from byzfed.pipeline import ClusterSpec, PipelineConfig, SolverSpec, run_grid, run_pipeline
from byzfed.robust_stats import AggregatorSpec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=5)
    args = ap.parse_args()

    cfg = PipelineConfig(
        fleet=FleetConfig(m=60, n=50, d=20, K=3, alpha=0.2, sigma=1.0),
        solver=SolverSpec(kind="erm"),
        seed=args.seed,
    )
    # the fleet, solver and seed are the config; the clusterer and the
    # optimizer name one cell of it
    tkm = ClusterSpec(method="trimmed_kmeans", C=2.0, sigma_hat=0.3)
    tm = OptConfig(max_rounds=150, aggregator=AggregatorSpec("trimmed_mean", beta=0.25))

    # ------------------------------------------------------------------
    # one run, narrated
    result = run_pipeline(cfg, tkm, tm)
    print("single run")
    print(f"  stage II iterations: {result.cluster_state.iteration}")
    for rep in result.clustering_history:
        print(f"    iter {rep.iteration}: A_s={rep.miscluster_rate:.3f}")
    print(f"  stage III: {len(result.update_norm)} clusters optimized, "
          f"{sum(len(u) for u in result.update_norm)} total rounds")
    print(f"  est_error (max over clusters, per-coordinate scale): {result.est_error:.4f}")
    print()

    # ------------------------------------------------------------------
    # grid: which stage contributes what
    clusterers = [
        ("KM", ClusterSpec(method="lloyd")),
        ("TKM", tkm),
    ]
    optimizers = [
        ("SM", OptConfig(max_rounds=150)),
        ("TM", tm),
    ]
    _, summary = run_grid(cfg, clusterers, optimizers, n_trials=args.trials)

    print(f"grid over {args.trials} paired trials (same fleets in every cell)")
    print(f"{'cell':<10}{'est_error mean':>16}{'sd':>10}")
    for row in summary:
        print(f"{row['cell']:<10}{row['est_error_mean']:>16.4f}{row['est_error_sd']:>10.4f}")
    print()
    print("robust clustering (TKM) prevents Byzantine model vectors from")
    print("stealing or dragging cluster centers; the robust aggregator (TM)")
    print("then keeps them from biasing the within-cluster descent.")


if __name__ == "__main__":
    main()
