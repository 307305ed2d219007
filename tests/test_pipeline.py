import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzfed.clustering import run_lloyd_variant, warm_start_init
from byzfed.datagen import FleetConfig, WorkerShard, generate_fleet, percentile_gamma, read_points_csv
from byzfed.distopt import AttackSpec, OptConfig, robust_gd
from byzfed.errors import ConfigError, DataError, NumericError
from byzfed.numerics import derive_seed
from byzfed import distopt, localsolve, pipeline
from byzfed.pipeline import (
    ClusterSpec,
    IngestSpec,
    PipelineConfig,
    SolverSpec,
    _match_centers,
    config_from_dict,
    config_to_dict,
    ingest_layout,
    opt_from_dict,
    materialize_fleet,
    run_grid,
    run_pipeline,
    stage1_erms,
    summarize_grid,
    TrialOutcome,
)
from byzfed.reporting import compute_run_id, emit_grid_outputs
from byzfed.robust_stats import AggregatorSpec

from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace


def _clean_config(seed=0):
    return PipelineConfig(fleet=FleetConfig(m=12, n=30, d=6, K=2, alpha=0.0, sigma=0.0), seed=seed)


_CLEAN_CLUSTER = ClusterSpec(method="trimmed_kmeans")


def _adversarial_config(seed=3):
    return PipelineConfig(fleet=FleetConfig(m=20, n=40, d=8, K=2, alpha=0.2, sigma=0.5), seed=seed)


# the cell _adversarial_config runs in
_ADV_CLUSTER = ClusterSpec(method="trimmed_kmeans", C=2.0, sigma_hat=0.55)
_ADV_OPT = OptConfig(max_rounds=100, aggregator=AggregatorSpec("trimmed_mean", beta=0.25))


# ---------------------------------------------------------------------------
# end-to-end behavior


def test_clean_problem_is_solved_exactly():
    result = run_pipeline(_clean_config(), _CLEAN_CLUSTER)
    assert result.est_error <= 1e-6
    assert result.per_cluster_w_hat.shape == (2, 6)
    assert result.n_unmatched == 0
    assert len(result.matched_pairs) == 2
    assert result.clustering_history[-1].miscluster_rate == 0.0


def test_pipeline_composes_documented_stages():
    """run_pipeline must equal the three stages chained by hand with the
    derived seeds it documents: fleet at (seed, 0), the warm start (60%
    of the honest machines labelled correctly) at (seed, 1), the
    cluster-k attack at (seed, 2, k)."""
    cfg = _adversarial_config(seed=77)
    got = run_pipeline(cfg, _ADV_CLUSTER, _ADV_OPT)

    fleet, truth = generate_fleet(cfg.fleet, seed=derive_seed(cfg.seed, 0))
    erms = stage1_erms(fleet, cfg.solver)
    init = warm_start_init(erms, truth, 0.6, seed=derive_seed(cfg.seed, 1))
    state, _ = run_lloyd_variant(erms, init, _ADV_CLUSTER, ground_truth=truth)
    w_hats = np.empty_like(state.centers)
    for k in range(state.K):
        members = [fleet[i] for i in np.flatnonzero(state.labels == k)]
        w_hats[k], _ = robust_gd(members, _ADV_OPT, cfg.attack,
                                 init=state.centers[k], seed=derive_seed(cfg.seed, 2, k))

    np.testing.assert_array_equal(got.per_cluster_w_hat, w_hats)
    np.testing.assert_array_equal(got.cluster_state.labels, state.labels)


def test_round_records_are_the_norms_of_robust_gds_own_trajectory(monkeypatch):
    cfg = _adversarial_config(seed=77)
    trajectories = []

    def recording(*args, **kwargs):
        w, traj = robust_gd(*args, **kwargs)
        trajectories.append(traj)
        return w, traj

    monkeypatch.setattr(pipeline, "robust_gd", recording)
    got = run_pipeline(cfg, _ADV_CLUSTER, _ADV_OPT)
    _, truth = materialize_fleet(cfg)
    matched = dict(got.matched_pairs)
    assert len(trajectories) == len(got.update_norm) == len(got.dist_to_truth) == 2
    for k, traj in enumerate(trajectories):
        assert len(traj) > 2
        upd = [np.linalg.norm(x) for x in np.diff(traj, axis=0)]
        dist = [np.linalg.norm(x - truth.centers[matched[k]]) for x in traj[1:]]
        np.testing.assert_array_equal(got.update_norm[k], upd)
        np.testing.assert_array_equal(got.dist_to_truth[k], dist)


def test_unmatched_cluster_records_no_distance(tmp_path):
    # three estimated clusters, two true ones: cluster 2 stays unmatched,
    # keeps its update norms and emits empty dist_to_truth cells
    truth = SimpleNamespace(centers=np.array([[0.0, 0.0], [10.0, 0.0]]))
    trajectories = [
        np.array([[0.0, 1.0], [0.0, 0.5], [0.0, 0.25]]),
        np.array([[9.0, 0.0], [10.0, 0.0]]),
        np.array([[50.0, 50.0], [51.0, 50.0]]),
    ]
    w_hats = np.array([t[-1] for t in trajectories])
    records = [pipeline._round_records(t, truth.centers) for t in trajectories]
    result = pipeline._cell_result(truth, (None, []), w_hats, records, {})
    assert result.matched_pairs == [(0, 0), (1, 1)] and result.n_unmatched == 1
    assert [u.tolist() for u in result.update_norm] == [[0.5, 0.25], [1.0], [1.0]]
    assert [t.tolist() for t in result.dist_to_truth] == [[0.5, 0.25], [0.0], []]
    outcomes = [TrialOutcome("C+O", "C", "O", 0, 0, result)]
    emit_grid_outputs(tmp_path, "rid", outcomes, summarize_grid(outcomes))
    assert (tmp_path / "optimization.csv").read_text().splitlines()[1:] == [
        "C+O,0,0,1,0.5,0.5",
        "C+O,0,0,2,0.25,0.25",
        "C+O,0,1,1,1.0,0.0",
        "C+O,0,2,1,1.0,",
    ]


def test_stage3_drops_each_trajectory_when_its_run_returns(monkeypatch):
    # every earlier trajectory is dead by the time the next optimizer call
    # starts, in the same cluster, in the next cluster and the next clusterer
    refs, alive_at_call = [], []

    def weakly_recording(*args, **kwargs):
        alive_at_call.append(sum(r() is not None for r in refs))
        w, traj = robust_gd(*args, **kwargs)
        refs.append(weakref.ref(traj))
        return w, traj

    monkeypatch.setattr(pipeline, "robust_gd", weakly_recording)
    base, clusterers, optimizers = _grid_inputs()
    outcomes, _ = run_grid(replace(base, seed=5), clusterers, optimizers, n_trials=1)
    assert all(o.error is None for o in outcomes)
    assert alive_at_call == [0] * 8  # 2 clusterers x 2 clusters x 2 optimizers


def _outcome_fields(outcome):
    """Every field of a TrialOutcome but the wall times, as plain data."""
    data = asdict(outcome)
    if data["result"] is not None:
        data["result"].pop("wall_times")
    return data


def test_one_worker_grid_runs_without_a_pool(monkeypatch):
    base, clusterers, optimizers = _grid_inputs()
    pooled, pooled_summary = run_grid(replace(base, seed=5), clusterers, optimizers,
                                      n_trials=2, threads=2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker grid made an executor")

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
    serial, serial_summary = run_grid(replace(base, seed=5), clusterers, optimizers,
                                      n_trials=2, threads=1)
    assert len(serial) == len(pooled) == 8
    for a, b in zip(serial, pooled):
        np.testing.assert_equal(_outcome_fields(a), _outcome_fields(b))
    assert serial_summary == pooled_summary


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(0, 12),
    d=st.integers(1, 160),
    exponent=st.integers(-150, 150),
    zero_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_norms_keep_ddots_bits(rows, d, exponent, zero_row, seed):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, d)) * 10.0**exponent
    if zero_row and rows:
        x[rows // 2] = 0.0
    want = np.array([math.sqrt(r.dot(r)) for r in x], dtype=float).reshape(rows)
    got = pipeline._row_norms(x)
    assert got.shape == (rows,) and got.tobytes() == want.tobytes()


def test_est_error_charges_a_true_cluster_left_without_an_estimate():
    # gamma 100 joins every ERM, so edge_cut returns one model for two true
    # clusters; the cluster the matching leaves out is charged the model's
    # distance to its center
    cfg = PipelineConfig(fleet=FleetConfig(m=12, n=30, d=4, K=2, alpha=0.0, sigma=0.5), seed=3)
    result = run_pipeline(cfg, ClusterSpec(method="edge_cut", gamma=100.0), OptConfig(max_rounds=40))
    _, truth = materialize_fleet(cfg)
    (w,) = result.per_cluster_w_hat
    assert len(result.matched_pairs) == 1 and result.n_unmatched == 0
    charges = [np.linalg.norm(w - c) / np.sqrt(4) for c in truth.centers]
    assert result.est_error == max(charges)
    assert all(result.est_error >= c for c in charges)


def test_loss_follows_the_fleet(tmp_path):
    # ingested machines hold raw points (no targets, so the location
    # loss), synthetic ones regression shards; no config names a loss, and
    # a cell's clusterer and optimizer are arguments, not config fields
    f = tmp_path / "p.csv"
    np.savetxt(f, np.vstack([np.zeros((6, 2)), np.full((6, 2), 9.0)]), delimiter=",")
    ingest = PipelineConfig(fleet=IngestSpec(path=str(f), gamma=1.0, shard_size=3, n_adv=1))
    synthetic = PipelineConfig(fleet=FleetConfig(m=4, n=5, d=2, K=2))
    shards, _ = materialize_fleet(ingest)
    assert len(shards) == 5 and all(s.y is None for s in shards)
    shards, _ = materialize_fleet(synthetic)
    assert all(s.y.shape == (5,) for s in shards)
    assert not hasattr(ingest, "loss")
    assert [f.name for f in fields(PipelineConfig)] == ["fleet", "solver", "attack", "seed"]
    assert "loss" not in [f.name for f in fields(SolverSpec)]
    with pytest.raises(ConfigError, match="'loss'"):
        config_from_dict({**config_to_dict(ingest), "solver": {"loss": "location"}})


def test_ingest_pipeline_end_to_end(tmp_path, rng):
    a = rng.standard_normal((47, 3))
    b = rng.standard_normal((31, 3)) + 30.0
    pts = np.vstack([a, b])
    f = tmp_path / "blobs.csv"
    np.savetxt(f, pts, delimiter=",")
    cfg = PipelineConfig(
        fleet=IngestSpec(path=str(f), gamma=10.0, shard_size=5, n_adv=2, min_cluster=5), seed=4
    )
    result = run_pipeline(
        cfg,
        ClusterSpec(method="edge_cut", gamma=10.0, min_cluster=2),
        OptConfig(max_rounds=50, aggregator=AggregatorSpec("trimmed_mean", beta=0.25)),
    )
    assert result.cluster_state.K == 2
    assert np.isfinite(result.est_error)
    assert result.est_error < 1.0


# ---------------------------------------------------------------------------
# stage I solvers


def test_stage1_batched_gd_matches_per_machine(rng):
    fleet, _ = generate_fleet(FleetConfig(m=6, n=20, d=5, K=2, sigma=0.4), seed=1)
    # a rank-deficient shard, n = 4 < d with a zero column: A_i is diagonal
    # with eigenvalues 4, 1, 1, 1/16 and an exact 0, and the step 1/4 puts
    # step * lambda_max at exactly 1
    X = np.zeros((4, 5))
    X[np.arange(4), np.arange(4)] = [4.0, 2.0, 2.0, 0.5]
    fleet.append(WorkerShard(machine_id=6, X=X, y=rng.standard_normal(4), true_cluster=0))
    solver = SolverSpec(kind="gd", iters=80)
    batched = stage1_erms(fleet, solver)
    for i, s in enumerate(fleet):
        # raw-row recursion from the origin at step 1/lambda_max(X'X/n)
        lam = np.linalg.eigvalsh(s.X.T @ s.X / s.n)[-1]
        w = np.zeros(5)
        for _ in range(80):
            w = w - (1.0 / lam) * (s.X.T @ (s.X @ w - s.y) / s.n)
        np.testing.assert_allclose(batched[i], w, atol=1e-9)


def test_match_centers_is_optimal_when_counts_differ():
    # greedy nearest-pair would take (0, 1) at distance 0.1 first and then
    # be left with (1, 0) at 2.1; the optimal pairing costs 1.0 + 1.0
    w_hats = np.array([[1.0], [2.1]])
    centers = np.array([[0.0], [1.1], [100.0]])
    assert _match_centers(w_hats, centers) == [(0, 0), (1, 1)]


def test_match_centers_rejects_a_non_finite_estimate():
    # a Stage-III run that ends at a non-finite iterate fails its cell
    centers = np.array([[0.0], [1.1]])
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError):
            _match_centers(np.array([[1.0], [bad]]), centers)


# ---------------------------------------------------------------------------
# grid


def _grid_inputs():
    base = PipelineConfig(fleet=FleetConfig(m=12, n=20, d=4, K=2, alpha=0.1, sigma=0.5))
    clusterers = [
        ("KM", ClusterSpec(method="lloyd")),
        ("TKM", ClusterSpec(method="trimmed_kmeans", sigma_hat=0.55)),
    ]
    optimizers = [
        ("SM", OptConfig(max_rounds=40)),
        ("TM", OptConfig(max_rounds=40, aggregator=AggregatorSpec("trimmed_mean", beta=0.25))),
    ]
    return base, clusterers, optimizers


def test_grid_shape_and_cell_names():
    base, clusterers, optimizers = _grid_inputs()
    outcomes, summary = run_grid(replace(base, seed=11), clusterers, optimizers, n_trials=3)
    assert len(outcomes) == 12
    assert [o.cell for o in outcomes[:3]] == ["KM+SM"] * 3
    assert [o.trial for o in outcomes[:3]] == [0, 1, 2]
    assert {r["cell"] for r in summary} == {"KM+SM", "KM+TM", "TKM+SM", "TKM+TM"}
    assert all(r["n_trials"] == 3 and r["n_failed"] == 0 for r in summary)
    assert all(np.isfinite(r["est_error_mean"]) for r in summary)


def test_grid_cells_must_exist_and_have_distinct_names():
    # the tables key their rows by cell name, so two cells of one name would
    # pool their trials into one summary row
    base, clusterers, optimizers = _grid_inputs()
    with pytest.raises(ConfigError, match="must name clusterers and optimizers"):
        run_grid(base, [], optimizers, n_trials=1)
    with pytest.raises(ConfigError, match="'KM\\+SM'"):
        run_grid(base, [("KM", clusterers[1][1]), *clusterers], optimizers, n_trials=1)


def test_grid_single_cell_equals_run_pipeline():
    base, clusterers, optimizers = _grid_inputs()
    outcomes, _ = run_grid(replace(base, seed=21), clusterers[:1], optimizers[:1], n_trials=1)
    direct = run_pipeline(
        replace(base, seed=derive_seed(21, 0)), clusterers[0][1], optimizers[0][1]
    )
    assert outcomes[0].result.est_error == direct.est_error
    np.testing.assert_array_equal(
        outcomes[0].result.per_cluster_w_hat, direct.per_cluster_w_hat
    )


def test_grid_is_thread_invariant():
    base, clusterers, optimizers = _grid_inputs()
    a, _ = run_grid(replace(base, seed=5), clusterers, optimizers, n_trials=2, threads=1)
    b, _ = run_grid(replace(base, seed=5), clusterers, optimizers, n_trials=2, threads=4)
    assert [o.cell for o in a] == [o.cell for o in b]
    for oa, ob in zip(a, b):
        assert oa.result.est_error == ob.result.est_error


def test_grid_trials_share_fleets_across_cells():
    base, clusterers, optimizers = _grid_inputs()
    outcomes, _ = run_grid(replace(base, seed=8), clusterers, optimizers, n_trials=2)
    by_cell = {}
    for o in outcomes:
        by_cell.setdefault(o.cell, []).append(o)
    # same trial in different cells used the same seed (paired design)
    assert [o.seed for o in by_cell["KM+SM"]] == [o.seed for o in by_cell["TKM+TM"]]


def test_grid_cell_failure_does_not_poison_others():
    base, clusterers, optimizers = _grid_inputs()
    # edge_cut keeps no component of more than m = 12 machines, so every
    # trial fails in Stage II
    bad = ("EC", ClusterSpec(method="edge_cut", gamma=1.0, min_cluster=13))
    outcomes, summary = run_grid(
        replace(base, seed=2), [clusterers[0], bad], optimizers[:1], n_trials=2
    )
    good = [o for o in outcomes if o.clusterer == "KM"]
    failed = [o for o in outcomes if o.clusterer == "EC"]
    assert all(o.result is not None for o in good)
    assert all(o.result is None and "min_cluster" in o.error for o in failed)
    row = next(r for r in summary if r["clusterer"] == "EC")
    assert row["n_failed"] == 2


def test_summary_counts_a_non_finite_est_error_as_failed():
    def outcome(trial, est_error=None):
        result = None if est_error is None else SimpleNamespace(est_error=est_error)
        return TrialOutcome("KM+SM", "KM", "SM", trial, trial, result,
                            None if result else "stage3: boom")

    outs = [outcome(0, 0.5), outcome(1, np.nan), outcome(2, np.inf), outcome(3), outcome(4, 1.5)]
    (row,) = summarize_grid(outs)
    assert row["n_trials"] == 5
    assert row["n_failed"] == 3
    assert row["est_error_mean"] == 1.0
    assert row["est_error_sd"] == pytest.approx(np.sqrt(0.5))
    (row,) = summarize_grid([outcome(0, -np.inf)])
    assert row["n_failed"] == 1 and np.isnan(row["est_error_mean"]) and np.isnan(row["est_error_sd"])
    # one finite est_error has a mean but no sample sd
    (row,) = summarize_grid([outcome(0, 0.5), outcome(1)])
    assert row["est_error_mean"] == 0.5 and np.isnan(row["est_error_sd"])


def _ingest_grid_inputs(tmp_path, rng, **spec):
    pts = np.vstack([rng.standard_normal((43, 3)), rng.standard_normal((29, 3)) + 30.0])
    f = tmp_path / "blobs.csv"
    np.savetxt(f, pts, delimiter=",")
    base = PipelineConfig(
        fleet=IngestSpec(path=str(f), **{"gamma": 10.0, "shard_size": 5, "n_adv": 2, **spec}),
    )
    _, clusterers, optimizers = _grid_inputs()
    return base, clusterers, optimizers


def _assert_same_outcomes(a, b):
    assert [(o.cell, o.trial, o.seed, o.error) for o in a] == [
        (o.cell, o.trial, o.seed, o.error) for o in b
    ]
    for oa, ob in zip(a, b):
        assert oa.result.est_error == ob.result.est_error
        assert np.array_equal(oa.result.per_cluster_w_hat, ob.result.per_cluster_w_hat)
        assert np.array_equal(oa.result.cluster_state.labels, ob.result.cluster_state.labels)


def _assert_same_result(a, b):
    assert a.est_error == b.est_error
    assert np.array_equal(a.per_cluster_w_hat, b.per_cluster_w_hat)
    for name in ("update_norm", "dist_to_truth"):
        assert len(getattr(a, name)) == len(getattr(b, name))
        for ra, rb in zip(getattr(a, name), getattr(b, name)):
            assert np.array_equal(ra, rb)
    assert len(a.clustering_history) == len(b.clustering_history)
    for ra, rb in zip(a.clustering_history, b.clustering_history):
        for f in fields(ra):
            assert np.array_equal(getattr(ra, f.name), getattr(rb, f.name)), f.name
    assert np.array_equal(a.cluster_state.labels, b.cluster_state.labels)
    assert np.array_equal(a.cluster_state.centers, b.cluster_state.centers)


def _with_fedavg(optimizers, first=False):
    """optimizers plus a FedAvg cell, last or first. Run first, FedAvg is
    the first call on each cluster's shared statistics, so a FedAvg that
    wrote into them would change the cells after it."""
    tm = AggregatorSpec("trimmed_mean", beta=0.25)
    fa = ("FA", OptConfig(max_rounds=40, local_steps=3, aggregator=tm))
    return [fa] + optimizers if first else optimizers + [fa]


def _gauss_grid_inputs():
    """Gaussian Byzantine reports against the three robust aggregators;
    one clusterer, so (attack seed, machine, round) names (trial, cluster,
    machine, round)."""
    base = PipelineConfig(
        fleet=FleetConfig(m=30, n=20, d=6, K=2, alpha=0.2, sigma=1.0),
        attack=AttackSpec("random_gauss", scale=10.0),
    )
    clusterers = [("TKM", ClusterSpec(method="trimmed_kmeans", C=2.0, sigma_hat=0.3))]
    optimizers = [
        ("CM", OptConfig(max_rounds=25, aggregator=AggregatorSpec("coord_median"))),
        ("GM", OptConfig(max_rounds=25, aggregator=AggregatorSpec("geo_median"))),
        ("IF", OptConfig(max_rounds=25, aggregator=AggregatorSpec("iter_filter"))),
    ]
    return base, clusterers, optimizers


@pytest.mark.parametrize(
    "inputs, fa_first",
    [
        pytest.param(inputs, fa_first, id=inputs + ("-fa-first" if fa_first else ""))
        for fa_first in (False, True)
        for inputs in ("synthetic", "ingest", "gauss")
    ],
)
def test_grid_cells_equal_run_pipeline(inputs, fa_first, tmp_path, rng):
    """Each trial task shares the fleet, Stage I and Stage II across cells,
    and a clusterer's cells share each cluster's statistics, pooled step
    and Byzantine reports; every cell must still equal run_pipeline on its
    own config with the trial's derived seed."""
    if inputs == "synthetic":
        base, clusterers, optimizers = _grid_inputs()
    elif inputs == "ingest":
        base, clusterers, optimizers = _ingest_grid_inputs(tmp_path, rng)
    else:
        base, clusterers, optimizers = _gauss_grid_inputs()
        clusterers = clusterers + [("KM", ClusterSpec(method="lloyd"))]
    optimizers = _with_fedavg(optimizers, first=fa_first)
    outcomes, _ = run_grid(replace(base, seed=17), clusterers, optimizers, n_trials=2, threads=2)
    specs = {f"{c}+{o}": (cs, os_) for c, cs in clusterers for o, os_ in optimizers}
    assert [o.cell for o in outcomes] == [cell for cell in specs for _ in range(2)]
    for o in outcomes:
        cspec, ospec = specs[o.cell]
        assert o.seed == derive_seed(17, o.trial)
        direct = run_pipeline(replace(base, seed=o.seed), cspec, ospec)
        _assert_same_result(o.result, direct)


def test_grid_builds_fleet_once_per_trial_and_clusters_once_per_clusterer(monkeypatch):
    """One fleet per trial, one Stage II per (trial, clusterer), and one
    set of shard statistics and one pooled step per (trial, clusterer,
    non-empty cluster), whatever the number of optimizer cells."""
    base, clusterers, optimizers = _grid_inputs()
    optimizers = _with_fedavg(optimizers)
    counted = {
        (pipeline, "materialize_fleet"): 0,
        (pipeline, "run_lloyd_variant"): 0,
        (distopt, "shard_stats"): 0,
        (distopt, "pooled_auto_step"): 0,
    }

    def counting(key):
        fn = getattr(*key)

        def wrapper(*args, **kwargs):
            counted[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key in counted:
        monkeypatch.setattr(*key, counting(key))
    outcomes, _ = run_grid(replace(base, seed=4), clusterers, optimizers, n_trials=3, threads=2)
    assert all(o.result is not None for o in outcomes)
    calls = {name: n for (_, name), n in counted.items()}
    # every cell uses the auto step; the cells of a clusterer share clusters
    clusters = sum(
        len(np.unique(o.result.cluster_state.labels)) for o in outcomes if o.optimizer == "SM"
    )
    assert calls == {"materialize_fleet": 3, "run_lloyd_variant": 2 * 3,
                     "shard_stats": clusters, "pooled_auto_step": clusters}


def test_grid_draws_each_gaussian_report_once(monkeypatch):
    """The optimizer cells of a clusterer share one table of Byzantine
    reports: the grid draws each (trial, cluster, machine, round) report
    once, and exactly the reports its cells use."""
    base, clusterers, optimizers = _gauss_grid_inputs()
    drawn = []
    draw = distopt._gauss_report

    def counted(attack, seed, machine_id, round_idx, d):
        drawn.append((seed, machine_id, round_idx))
        return draw(attack, seed, machine_id, round_idx, d)

    monkeypatch.setattr(distopt, "_gauss_report", counted)
    outcomes, _ = run_grid(replace(base, seed=9), clusterers, optimizers, n_trials=2)
    assert all(o.result is not None for o in outcomes)
    grid_draws, drawn[:] = list(drawn), []
    (_, cspec), = clusterers
    specs = dict(optimizers)
    for o in outcomes:  # each cell on its own draws privately
        run_pipeline(replace(base, seed=o.seed), cspec, specs[o.optimizer])
    needed = set(drawn)
    assert len(grid_draws) == len(set(grid_draws)) == len(needed)
    assert set(grid_draws) == needed
    assert len(drawn) > len(needed)  # the cells alone redraw shared reports


def test_grid_stage3_failure_fails_its_cell_alone():
    """m = 3 machines dealt onto K = 2 clusters leaves a one-machine
    cluster. Iterative filtering needs two reports, so the IF cell fails in
    Stage III; the SM cell after it, on the same clusters and statistics,
    equals SM on its own."""
    base = PipelineConfig(fleet=FleetConfig(m=3, n=30, d=4, K=2, alpha=0.0, sigma=0.0))
    cluster = ClusterSpec(method="lloyd")
    optimizers = [
        ("IF", OptConfig(max_rounds=20, aggregator=AggregatorSpec("iter_filter"))),
        ("SM", OptConfig(max_rounds=20)),
    ]
    outcomes, summary = run_grid(replace(base, seed=6), [("KM", cluster)], optimizers, n_trials=2)
    for o in outcomes:
        if o.optimizer == "IF":
            assert o.result is None
            assert o.error == "ConfigError('stage3: iterative filtering needs at least 2 points')"
        else:
            assert sorted(np.bincount(o.result.cluster_state.labels)) == [1, 2]
            direct = run_pipeline(replace(base, seed=o.seed), cluster, optimizers[1][1])
            _assert_same_result(o.result, direct)
    assert [r["n_failed"] for r in summary] == [2, 0]


def test_grid_statistics_failure_fails_every_cell_of_its_clusterer(monkeypatch):
    base, clusterers, optimizers = _grid_inputs()

    def failing(shards):
        raise NumericError("no statistics")

    monkeypatch.setattr(distopt, "shard_stats", failing)
    outcomes, _ = run_grid(replace(base, seed=4), clusterers, optimizers, n_trials=2)
    assert all(o.error == "NumericError('stage3: no statistics')" for o in outcomes)


def test_grid_stage1_failure_fails_every_cell_of_its_trial(monkeypatch):
    # a failed Stage-I solve fails every trial; the error keeps its stage
    base, clusterers, optimizers = _grid_inputs()

    def failing(shard):
        raise NumericError("no local solution")

    monkeypatch.setattr(localsolve, "local_erm", failing)
    outcomes, summary = run_grid(replace(base, seed=3), clusterers, optimizers, n_trials=2)
    assert all(o.result is None and o.error.startswith("NumericError('stage1: ") for o in outcomes)
    assert all(r["n_failed"] == 2 for r in summary)


def test_ingest_grid_is_thread_invariant_and_layout_injectable(tmp_path, rng):
    base, clusterers, optimizers = _ingest_grid_inputs(tmp_path, rng)
    a, _ = run_grid(replace(base, seed=5), clusterers, optimizers, n_trials=3, threads=1)
    b, _ = run_grid(replace(base, seed=5), clusterers, optimizers, n_trials=3, threads=2)
    c, _ = run_grid(replace(base, seed=5), clusterers, optimizers, n_trials=3, threads=2,
                    layout=ingest_layout(base.fleet))
    assert all(o.result is not None for o in a)
    # the trials draw different shards from the one layout
    assert a[0].result.est_error != a[1].result.est_error
    _assert_same_outcomes(a, b)
    _assert_same_outcomes(a, c)


def test_injected_layout_matches_internal_build(tmp_path, rng):
    base, _, _ = _ingest_grid_inputs(tmp_path, rng)
    cfg = replace(base, seed=13)
    shards, truth = materialize_fleet(cfg)
    got, got_truth = materialize_fleet(cfg, ingest_layout(cfg.fleet))
    assert [s.true_cluster for s in got] == [s.true_cluster for s in shards]
    for s, r in zip(got, shards):
        assert np.array_equal(s.X, r.X)
    assert np.array_equal(got_truth.centers, truth.centers)
    assert np.array_equal(got_truth.labels, truth.labels)


def test_layout_from_another_spec_is_rejected(tmp_path, rng):
    base, clusterers, optimizers = _ingest_grid_inputs(tmp_path, rng)
    other = ingest_layout(replace(base.fleet, gamma=9.0))
    with pytest.raises(ConfigError):
        materialize_fleet(base, other)
    with pytest.raises(ConfigError):
        run_grid(base, clusterers, optimizers, n_trials=1, layout=other)
    synth, _, _ = _grid_inputs()
    with pytest.raises(ConfigError):
        run_grid(synth, clusterers, optimizers, n_trials=1, layout=ingest_layout(base.fleet))


def test_ingest_grid_without_gamma_is_the_grid_at_the_points_percentile():
    # a gamma of None is the points' own; the layout records which
    path = str(Path(__file__).parent / "data" / "two_blobs.csv")
    gamma = percentile_gamma(read_points_csv(path))
    _, clusterers, optimizers = _grid_inputs()
    spec = IngestSpec(path, shard_size=5)
    assert spec.gamma is None and ingest_layout(spec).gamma == gamma
    a, _ = run_grid(PipelineConfig(fleet=spec), clusterers, optimizers, n_trials=2)
    b, _ = run_grid(PipelineConfig(fleet=replace(spec, gamma=gamma)), clusterers, optimizers,
                    n_trials=2)
    assert all(o.result is not None for o in a)
    _assert_same_outcomes(a, b)


def test_ingest_grid_raises_when_no_component_survives(tmp_path, rng):
    base, clusterers, optimizers = _ingest_grid_inputs(tmp_path, rng, gamma=1e-9)
    with pytest.raises(DataError, match="no connected component"):
        run_grid(base, clusterers, optimizers, n_trials=2)


def test_grid_validation():
    base, clusterers, optimizers = _grid_inputs()
    with pytest.raises(ConfigError):
        run_grid(base, [], optimizers, n_trials=1)
    with pytest.raises(ConfigError):
        run_grid(base, clusterers, optimizers, n_trials=0)
    with pytest.raises(ConfigError):
        run_grid(base, clusterers, optimizers, n_trials=1, threads=0)


@pytest.mark.parametrize(
    "change, field",
    [
        ({"seed": 2.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        # seeds and the Stage-III start are arguments the pipeline derives
        # from seed and Stage II, not config fields
        ({"fleet": {"seed": 4}}, "fleet.seed"),
        ({"attack": {"seed": 99}}, "attack.seed"),
        ({"opt": {"init": [0.0] * 6}}, "opt.init"),
    ],
)
def test_pipeline_config_rejects_bad_seed_and_derived_fields(change, field):
    data = config_to_dict(_clean_config())
    for section, value in change.items():
        data[section] = {**data.get(section, {}), **value} if isinstance(value, dict) else value
    if "opt" in data:  # a cell's optimizer is an argument, not part of the config
        with pytest.raises(TypeError, match="'init'"):
            opt_from_dict(data["opt"])
        return
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert field.rpartition(".")[2] in str(exc.value)


@pytest.mark.parametrize("label_column", [1.5, True, -1])
def test_ingest_spec_rejects_bad_label_column(label_column):
    with pytest.raises(ConfigError, match="label_column"):
        IngestSpec(path="p.csv", gamma=1.0, label_column=label_column)


# ---------------------------------------------------------------------------
# config round trip and identity


def _fancy_config(tmp_path):
    return PipelineConfig(
        fleet=FleetConfig(m=10, n=5, d=3, K=2, alpha=0.2, sigma=1.5),
        solver=SolverSpec(kind="gd", iters=20),
        attack=AttackSpec("constant", vector=np.array([9.0, 9.0, 9.0])),
        seed=31,
    )


def test_config_round_trip(tmp_path):
    cfg = _fancy_config(tmp_path)
    d = config_to_dict(cfg)
    import json

    blob = json.dumps(d)  # must be JSON-serializable
    back = config_from_dict(json.loads(blob))
    assert config_to_dict(back) == d


def test_config_round_trip_ingest(tmp_path):
    cfg = PipelineConfig(
        fleet=IngestSpec(path="pts.csv", gamma=2.5, shard_size=10, n_adv=1),
        seed=7,
    )
    assert config_to_dict(config_from_dict(config_to_dict(cfg))) == config_to_dict(cfg)


def test_config_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        config_from_dict({"fleet": {"type": "martian"}})
    with pytest.raises(ConfigError):
        config_from_dict({})


def test_run_id_identity(tmp_path):
    cfg = _fancy_config(tmp_path)
    run_id = lambda c: compute_run_id(config_to_dict(c))
    assert run_id(cfg) == run_id(cfg)
    assert len(run_id(cfg)) == 12
    assert run_id(cfg) != run_id(replace(cfg, seed=32))
