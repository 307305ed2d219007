"""Misclustering decay: trimmed K-means against plain Lloyd.

Builds one synthetic fleet of linear-regression machines (a fraction of
them Byzantine), computes every machine's local least-squares solution,
then clusters those model vectors starting from a 60%-correct warm
start. Prints the misclustering rate A_s after every iteration for both
center rules.

The trimmed rule recomputes each bucket center as the mean of the
points inside a ball around the bucket's geometric median, so Byzantine
model vectors stop dragging the centers and the honest mistakes get
corrected; plain Lloyd plateaus well above zero.

Run: python demos/clustering_decay.py [--seed 0] [--alpha 0.3]
"""

import argparse

import numpy as np

from byzfed import ClusterSpec, FleetConfig, generate_fleet, run_lloyd_variant, warm_start_init
from byzfed.localsolve import LossSpec
from byzfed.numerics import derive_seed
from byzfed.pipeline import SolverSpec, stage1_erms


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--alpha", type=float, default=0.3, help="Byzantine fraction")
    ap.add_argument("--sigma", type=float, default=3.0, help="label noise level")
    ap.add_argument("--iters", type=int, default=15)
    args = ap.parse_args()

    cfg = FleetConfig(m=100, n=100, d=100, K=5, alpha=args.alpha, sigma=args.sigma)
    shards, truth = generate_fleet(cfg, seed=derive_seed(args.seed, 0))
    erms = stage1_erms(shards, SolverSpec(kind="gd", iters=1000), LossSpec("squared_error"))
    init = warm_start_init(erms, truth, 0.6, seed=derive_seed(args.seed, 1))

    _, trimmed = run_lloyd_variant(
        erms, init,
        ClusterSpec(method="trimmed_kmeans", C=2.0, sigma_hat=0.55, max_iter=args.iters),
        ground_truth=truth,
    )
    _, lloyd = run_lloyd_variant(
        erms, init, ClusterSpec(method="lloyd", max_iter=args.iters), ground_truth=truth
    )

    print(f"m={cfg.m} machines, K={cfg.K} clusters, alpha={args.alpha}, sigma={args.sigma}")
    print(f"{'iter':>4}  {'trimmed A_s':>12}  {'lloyd A_s':>10}")
    by_iter_t = {r.iteration: r.miscluster_rate for r in trimmed}
    by_iter_l = {r.iteration: r.miscluster_rate for r in lloyd}
    for it in range(max(max(by_iter_t), max(by_iter_l)) + 1):
        t = by_iter_t.get(it, by_iter_t[max(k for k in by_iter_t if k <= it)])
        l = by_iter_l.get(it, by_iter_l[max(k for k in by_iter_l if k <= it)])
        print(f"{it:>4}  {t:>12.3f}  {l:>10.3f}")

    final_t = trimmed[-1]
    print()
    print(f"trimmed final: A_s={final_t.miscluster_rate:.3f}, "
          f"worst group error={final_t.group_error:.3f}, "
          f"center error={final_t.center_error:.3f} (in units of center separation)")
    print(f"lloyd final:   A_s={lloyd[-1].miscluster_rate:.3f}")


if __name__ == "__main__":
    main()
