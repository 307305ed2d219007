"""Full acceptance battery.

Each numbered check prints `ACCEPTANCE <n> PASS` or `ACCEPTANCE <n> FAIL`
directly to the terminal (pytest capture is bypassed) before asserting,
so every verdict is visible in any run log. The estimation grid behind
checks 2 and 3 is expensive and runs once per session; expect the whole
module to take a few minutes.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from byzfed.cli import main as cli_main
from byzfed.clustering import iterfilter_2cluster, run_lloyd_variant, warm_start_init
from byzfed.datagen import BYZANTINE, FleetConfig, GroundTruth, generate_fleet, generate_symmetric_mixture
from byzfed.distopt import OptConfig
from byzfed.localsolve import LossSpec
from byzfed.numerics import RngStream, derive_seed
from byzfed.pipeline import ClusterSpec, IngestSpec, PipelineConfig, SolverSpec, run_grid, stage1_erms
from byzfed.reporting import RESULT_FILES
from byzfed.robust_stats import AggregatorSpec, coord_median, geometric_median, iter_filter_mean, trimmed_mean

DATA_DIR = Path(__file__).parent / "data"
GRID_SEED = 20260815


def _verdict(capsys, n, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}", flush=True)


# ---------------------------------------------------------------------------
# 1: misclustering decay of the trimmed variant vs plain Lloyd


def test_acceptance_1_misclustering_decay(capsys):
    def trial(seed):
        fleet = FleetConfig(m=100, n=100, d=100, K=5, alpha=0.3, sigma=3.0)
        shards, truth = generate_fleet(fleet, seed=derive_seed(seed, 0))
        erms = stage1_erms(shards, SolverSpec(kind="gd", iters=1000), LossSpec("squared_error"))
        init = warm_start_init(erms, truth, 0.6, seed=derive_seed(seed, 1))
        _, rep_t = run_lloyd_variant(
            erms, init, ClusterSpec(method="trimmed_kmeans", C=2.0, sigma_hat=0.55, max_iter=15),
            ground_truth=truth,
        )
        _, rep_l = run_lloyd_variant(
            erms, init, ClusterSpec(method="lloyd", max_iter=15), ground_truth=truth
        )
        return rep_t[-1].miscluster_rate, rep_l[-1].miscluster_rate

    t0 = time.perf_counter()
    rates = [trial(s) for s in range(20)]
    wall = time.perf_counter() - t0
    med_trimmed = float(np.median([r[0] for r in rates]))
    med_lloyd = float(np.median([r[1] for r in rates]))

    ok = med_trimmed <= 0.05 and med_lloyd >= 0.25 and wall < 120.0
    _verdict(capsys, 1, ok)
    assert med_trimmed <= 0.05, f"median trimmed misclustering {med_trimmed}"
    assert med_lloyd >= 0.25, f"median Lloyd misclustering {med_lloyd}"
    assert wall < 120.0, f"took {wall:.0f}s"


# ---------------------------------------------------------------------------
# 2 and 3: estimation-error ordering on the shared grid


@pytest.fixture(scope="session")
def estimation_grid():
    base = PipelineConfig(
        fleet=FleetConfig(m=100, n=100, d=100, K=5, alpha=0.05, sigma=2.0),
        solver=SolverSpec(kind="gd", iters=1000),
        seed=GRID_SEED,
    )
    clusterers = [
        ("KM", ClusterSpec(method="lloyd", max_iter=15)),
        ("TKM", ClusterSpec(method="trimmed_kmeans", C=2.0, sigma_hat=0.55, max_iter=15)),
        ("KGM", ClusterSpec(method="kgeomedian", max_iter=15)),
    ]
    optimizers = [
        ("SM", OptConfig(aggregator=AggregatorSpec("sample_mean"), max_rounds=300)),
        ("TM", OptConfig(aggregator=AggregatorSpec("trimmed_mean", beta=0.3), max_rounds=300)),
        ("FA", OptConfig(aggregator=AggregatorSpec("trimmed_mean", beta=0.3), local_steps=5,
                         max_rounds=300)),
    ]
    _, summary = run_grid(base, clusterers, optimizers, n_trials=20, threads=4)
    cells = {row["cell"]: row for row in summary}
    assert all(row["n_failed"] == 0 for row in summary)
    return cells


def test_acceptance_2_estimation_error_ordering(estimation_grid, capsys):
    mean = lambda cell: estimation_grid[cell]["est_error_mean"]
    gain = mean("KM+SM") / mean("TKM+TM")
    # SM vs TM conditioned on a robust clusterer, pooled over TKM and KGM
    robust = (mean("TKM+SM") + mean("KGM+SM")) / (mean("TKM+TM") + mean("KGM+TM"))
    fed = mean("TKM+FA") / mean("TKM+TM")

    ok = gain >= 1.3 and robust >= 1.15 and fed >= 5.0
    _verdict(capsys, 2, ok)
    assert gain >= 1.3, f"KM+SM / TKM+TM = {gain:.3f}"
    assert robust >= 1.15, f"SM/TM under robust clustering = {robust:.3f}"
    assert fed >= 5.0, f"TKM+FA / TKM+TM = {fed:.3g}"


def test_acceptance_3_trimmed_vs_geomedian_parity(estimation_grid, capsys):
    a = estimation_grid["TKM+TM"]
    b = estimation_grid["KGM+TM"]
    gap = abs(a["est_error_mean"] - b["est_error_mean"])
    pooled_sd = math.sqrt((a["est_error_sd"] ** 2 + b["est_error_sd"] ** 2) / 2.0)

    ok = gap <= 0.5 * pooled_sd
    _verdict(capsys, 3, ok)
    assert gap <= 0.5 * pooled_sd, f"gap {gap:.4f} vs bar {0.5 * pooled_sd:.4f}"


# ---------------------------------------------------------------------------
# 4: trimmed variant reaches zero misclustering within a log(m) budget


def test_acceptance_4_decay_to_zero_within_budget(capsys):
    m, d, sigma = 400, 10, 1.0
    theta = 4.0 * math.sqrt(math.log(m)) * sigma * np.ones(d) / math.sqrt(d)
    budget = math.ceil(3 * math.log(m))

    hits = 0
    for seed in range(20):
        pts, labs = generate_symmetric_mixture(
            m, d, theta, sigma, outlier_fraction=0.04, seed=derive_seed(seed, 0)
        )
        gt_labels = np.where(labs == 1, 0, np.where(labs == -1, 1, BYZANTINE))
        truth = GroundTruth(centers=np.vstack([theta, -theta]), labels=gt_labels)
        init = warm_start_init(pts, truth, correct_fraction=0.6, seed=derive_seed(seed, 1))
        _, reports = run_lloyd_variant(
            pts, init, ClusterSpec(method="trimmed_kmeans", C=2.0, sigma_hat=1.0, max_iter=budget),
            ground_truth=truth,
        )
        hits += any(r.miscluster_rate == 0.0 for r in reports if r.iteration <= budget)

    ok = hits >= 18
    _verdict(capsys, 4, ok)
    assert hits >= 18, f"zero misclustering reached in {hits}/20 seeds"


# ---------------------------------------------------------------------------
# 5: two-cluster filtering tolerates the same outlier fraction at d=10 and d=200


def test_acceptance_5_dimension_free_label_error(capsys):
    rates = {}
    for d in (10, 200):
        errs = []
        for seed in range(20):
            theta = 6.0 * np.ones(d) / math.sqrt(d)
            pts, labs = generate_symmetric_mixture(
                2000, d, theta, 1.0, outlier_fraction=0.1, seed=derive_seed(100 + seed, 0)
            )
            # start half way out, 37 degrees off the true direction
            rng = RngStream(derive_seed(100 + seed, 1), 0).generator()
            e = theta / np.linalg.norm(theta)
            u = rng.standard_normal(d)
            u -= (u @ e) * e
            u /= np.linalg.norm(u)
            theta0 = 0.5 * np.linalg.norm(theta) * (0.8 * e + 0.6 * u)
            _, labels_hat = iterfilter_2cluster(pts, theta0, T=5)
            inl = labs != 0
            errs.append(
                min(
                    float(np.mean(labels_hat[inl] != labs[inl])),
                    float(np.mean(labels_hat[inl] != -labs[inl])),
                )
            )
        rates[d] = float(np.mean(errs))

    ok = all(r <= 0.05 for r in rates.values())
    _verdict(capsys, 5, ok)
    for d, r in rates.items():
        assert r <= 0.05, f"d={d}: inlier label-error rate {r:.4f}"


# ---------------------------------------------------------------------------
# 6: estimator oracle suite


def _sort_trim_oracle(P, beta):
    t = P.shape[0]
    k = int(math.floor(beta * t))
    cols = []
    for j in range(P.shape[1]):
        v = np.sort(P[:, j].copy())
        cols.append(v[k : t - k].mean())
    return np.array(cols)


def _sort_median_oracle(P):
    cols = []
    for j in range(P.shape[1]):
        v = np.sort(P[:, j].copy())
        t = len(v)
        cols.append(v[t // 2] if t % 2 else 0.5 * (v[t // 2 - 1] + v[t // 2]))
    return np.array(cols)


def _grid_geomedian_oracle(P, steps=200, refinements=3):
    lo = P.min(axis=0) - 1.0
    hi = P.max(axis=0) + 1.0
    best = None
    for _ in range(refinements):
        xs = np.linspace(lo[0], hi[0], steps)
        ys = np.linspace(lo[1], hi[1], steps)
        gx, gy = np.meshgrid(xs, ys)
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        obj = np.linalg.norm(grid[:, None, :] - P[None, :, :], axis=2).sum(axis=1)
        best = grid[np.argmin(obj)]
        span = (hi - lo) / steps * 4
        lo, hi = best - span, best + span
    return best


def test_acceptance_6_estimator_oracles(capsys):
    rng = np.random.default_rng(606)

    exact = 0
    for _ in range(500):
        t = int(rng.integers(3, 13))
        dim = int(rng.integers(1, 7))
        P = rng.standard_normal((t, dim)) * rng.uniform(0.5, 20)
        beta = float(rng.uniform(0, 0.45))
        ok_tm = np.array_equal(trimmed_mean(P, beta), _sort_trim_oracle(P, beta))
        ok_cm = np.array_equal(coord_median(P), _sort_median_oracle(P))
        exact += ok_tm and ok_cm

    gm_hits = 0
    for _ in range(100):
        P = rng.standard_normal((int(rng.integers(3, 10)), 2)) * 3
        if np.linalg.norm(geometric_median(P) - _grid_geomedian_oracle(P)) <= 1e-3:
            gm_hits += 1

    filter_wins = 0
    n_filter = 200
    for _ in range(n_filter):
        d = 4
        mu = rng.standard_normal(d)
        inliers = mu + rng.standard_normal((54, d))
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        outliers = mu + 20.0 * direction + 0.1 * rng.standard_normal((6, d))
        P = np.vstack([inliers, outliers])
        err_f = np.linalg.norm(iter_filter_mean(P) - mu)
        err_m = np.linalg.norm(P.mean(axis=0) - mu)
        filter_wins += err_f < err_m

    ok = exact == 500 and gm_hits == 100 and filter_wins >= 0.95 * n_filter
    _verdict(capsys, 6, ok)
    assert exact == 500, f"bit-exact sort-oracle matches: {exact}/500"
    assert gm_hits == 100, f"geometric-median grid-oracle hits: {gm_hits}/100"
    assert filter_wins >= 0.95 * n_filter, f"filter beat the mean {filter_wins}/{n_filter}"


# ---------------------------------------------------------------------------
# 7: ingested two-blob dataset, robust cells beat plain cells


def _fixture_grid():
    base = PipelineConfig(
        fleet=IngestSpec(
            path=str(DATA_DIR / "two_blobs.csv"), gamma=5.0, shard_size=5,
            n_adv=6, min_cluster=5,
        ),
        seed=0,
    )
    clusterers = [
        ("KM", ClusterSpec(method="lloyd")),
        ("TKM", ClusterSpec(method="trimmed_kmeans", C=2.0, sigma_hat=0.3)),
    ]
    optimizers = [
        ("SM", OptConfig(max_rounds=100)),
        ("TM", OptConfig(max_rounds=100, aggregator=AggregatorSpec("trimmed_mean", beta=0.45))),
    ]
    return base, clusterers, optimizers


def test_acceptance_7_ingested_dataset_ratio(capsys):
    base, clusterers, optimizers = _fixture_grid()
    outcomes, summary = run_grid(replace(base, seed=GRID_SEED), clusterers, optimizers, n_trials=5)
    cells = {row["cell"]: row["est_error_mean"] for row in summary}
    n_clusters = {
        o.result.cluster_state.K for o in outcomes if o.result is not None
    }
    ratio = cells["TKM+TM"] / cells["KM+SM"]

    ok = n_clusters == {2} and ratio <= 0.6
    _verdict(capsys, 7, ok)
    assert n_clusters == {2}, f"expected 2 detected clusters, saw {n_clusters}"
    assert ratio <= 0.6, f"TKM+TM / KM+SM = {ratio:.3f}"


# ---------------------------------------------------------------------------
# 8: byte-identical result files for the same seed at 1 and 8 threads


def test_acceptance_8_determinism_across_threads(tmp_path, capsys):
    base, clusterers, optimizers = _fixture_grid()
    cfg = {
        "seed": GRID_SEED,
        "grid": {
            "clusterers": [
                {"name": n, **{k: v for k, v in vars(s).items()}}
                for n, s in clusterers
            ],
            "optimizers": [
                {"name": "SM", "max_rounds": 100},
                {"name": "TM", "max_rounds": 100,
                 "aggregator": {"kind": "trimmed_mean", "beta": 0.45}},
            ],
            "trials": 5,
        },
    }
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(tag, threads):
        out = tmp_path / tag
        code = cli_main([
            "ingest", "--csv", str(DATA_DIR / "two_blobs.csv"), "--gamma", "5",
            "--shard-size", "5", "--n-adv", "6", "--min-cluster", "5",
            "--config", str(cfg_path), "--out-dir", str(out),
            "--threads", str(threads),
        ])
        assert code == 0
        return out

    first = run("t1a", 1)
    again = run("t1b", 1)
    wide = run("t8", 8)

    identical = all(
        (first / f).read_bytes() == (again / f).read_bytes()
        and (first / f).read_bytes() == (wide / f).read_bytes()
        for f in RESULT_FILES
    )
    _verdict(capsys, 8, identical)
    for f in RESULT_FILES:
        assert (first / f).read_bytes() == (again / f).read_bytes(), f"{f} differs on rerun"
        assert (first / f).read_bytes() == (wide / f).read_bytes(), f"{f} differs at 8 threads"
