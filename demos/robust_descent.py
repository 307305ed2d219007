"""Distributed gradient descent with Byzantine machines in the loop.

One cluster of honest regression machines plus a Byzantine contingent
running a sign-flip attack. The center aggregates per-machine gradients
with different estimators; the table shows distance to the true model
over the rounds. The sample mean stalls at a floor set by the attack,
the robust aggregators do not.

Run: python demos/robust_descent.py [--seed 1] [--attack sign_flip]
"""

import argparse

import numpy as np

from byzfed.datagen import WorkerShard
from byzfed.distopt import AttackSpec, OptConfig, robust_gd
from byzfed.robust_stats import AggregatorSpec


def build_cluster(rng, m_honest, m_byz, n, d, sigma):
    theta = rng.standard_normal(d)
    shards = []
    for i in range(m_honest):
        X = rng.standard_normal((n, d))
        shards.append(WorkerShard(i, X, X @ theta + sigma * rng.standard_normal(n), 0))
    for j in range(m_byz):
        # Byzantine shards answer to a different model entirely
        X = rng.standard_normal((n, d))
        shards.append(WorkerShard(m_honest + j, X, X @ (theta + 10.0), None))
    return shards, theta


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--attack", default="sign_flip",
                    choices=["own_corrupt_data", "sign_flip", "random_gauss"])
    ap.add_argument("--rounds", type=int, default=60)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    shards, theta = build_cluster(rng, m_honest=14, m_byz=6, n=50, d=20, sigma=0.5)
    # only sign_flip and random_gauss read a scale
    scale = 2.0 if args.attack in ("sign_flip", "random_gauss") else 1.0
    attack = AttackSpec(args.attack, scale=scale)

    aggregators = [
        ("sample mean", AggregatorSpec("sample_mean")),
        ("trimmed mean", AggregatorSpec("trimmed_mean", beta=0.3)),
        ("coord median", AggregatorSpec("coord_median")),
        ("geo median", AggregatorSpec("geo_median")),
        ("filtering", AggregatorSpec("iter_filter")),
    ]

    print(f"14 honest + 6 Byzantine machines, attack={args.attack}")
    trajs = {}
    for name, agg in aggregators:
        cfg = OptConfig(max_rounds=args.rounds, aggregator=agg, stop_tol=0.0)
        _, traj = robust_gd(shards, cfg, attack, seed=args.seed)
        trajs[name] = np.linalg.norm(traj - theta, axis=1)

    checkpoints = [0, 5, 10, 20, 40, args.rounds]
    print(f"{'aggregator':<14}" + "".join(f"r={r:<9}" for r in checkpoints))
    for name, dist in trajs.items():
        row = "".join(f"{dist[min(r, len(dist) - 1)]:<11.4f}" for r in checkpoints)
        print(f"{name:<14}{row}")


if __name__ == "__main__":
    main()
