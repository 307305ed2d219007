from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzfed.datagen import FleetConfig, WorkerShard, generate_fleet, ingest_threshold_graph
from byzfed.distopt import (
    AttackSpec,
    ClusterTable,
    OptConfig,
    fed_avg_robust,
    pooled_auto_step,
    robust_gd,
)
from byzfed.errors import ConfigError
from byzfed.localsolve import local_erm, shard_stats
from byzfed.numerics import RngStream, derive_seed
from byzfed.robust_stats import AggregatorSpec


def _raw_gradient(shard, w):
    return shard.X.T @ (shard.X @ w - shard.y) / shard.n


def _objective(shard, w):
    r = shard.X @ w - shard.y
    return 0.5 * float(r @ r) / shard.n


def _auto_step(shards):
    return pooled_auto_step(shard_stats(shards))


def _honest_cluster(rng, m=6, n=25, d=4, sigma=0.0, theta=None):
    theta = rng.standard_normal(d) if theta is None else theta
    shards = []
    for i in range(m):
        X = rng.standard_normal((n, d))
        y = X @ theta + sigma * rng.standard_normal(n)
        shards.append(WorkerShard(machine_id=i, X=X, y=y, true_cluster=0))
    return shards, theta


def _with_byzantine(rng, shards, n_byz, offset=25.0):
    """Append machines whose shards answer to a far-away model."""
    d = shards[0].X.shape[1]
    bad = []
    for j in range(n_byz):
        X = rng.standard_normal((shards[0].n, d))
        y = X @ (offset * np.ones(d))
        bad.append(WorkerShard(machine_id=len(shards) + j, X=X, y=y, true_cluster=None))
    return shards + bad


# ---------------------------------------------------------------------------
# convergence on clean data


def test_single_machine_reaches_its_erm(rng):
    shards, _ = _honest_cluster(rng, m=1, n=40, d=5, sigma=0.7)
    w, traj = robust_gd(shards, OptConfig(max_rounds=500))
    erm = local_erm(shards[0])
    assert np.linalg.norm(w - erm) < 1e-6
    assert traj.shape[1] == 5


@pytest.mark.parametrize(
    "agg",
    [
        AggregatorSpec("sample_mean"),
        AggregatorSpec("trimmed_mean", beta=0.2),
        AggregatorSpec("coord_median"),
        AggregatorSpec("geo_median"),
        AggregatorSpec("iter_filter"),
    ],
)
def test_noiseless_cluster_recovers_truth_under_any_aggregator(rng, agg):
    shards, theta = _honest_cluster(rng, m=7, n=30, d=4, sigma=0.0)
    w, _ = robust_gd(shards, OptConfig(max_rounds=400, aggregator=agg))
    assert np.linalg.norm(w - theta) < 1e-6


def test_mean_aggregation_equals_pooled_gradient_descent(rng):
    shards, _ = _honest_cluster(rng, m=5, n=20, d=3, sigma=0.5)
    step = _auto_step(shards)
    _, traj = robust_gd(shards, OptConfig(max_rounds=40, stop_tol=0.0))
    # reference: plain descent on the average of per-machine gradients
    w = np.zeros(3)
    for t in range(40):
        g = np.mean([_raw_gradient(s, w) for s in shards], axis=0)
        w = w - step * g
        np.testing.assert_allclose(traj[t + 1], w, atol=1e-9)


def test_descent_is_monotone_at_auto_step(rng):
    shards, _ = _honest_cluster(rng, m=6, n=15, d=6, sigma=0.4)
    _, traj = robust_gd(shards, OptConfig(max_rounds=60, stop_tol=0.0))
    objs = [np.mean([_objective(s, w) for s in shards]) for w in traj]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_robust_gd_on_ingest_shards_runs_the_location_loss():
    # ingested shards hold raw points without targets, so the descent
    # minimizes the location loss: at step 1 and with the sample mean it
    # lands on the mean of the equal-size shards' means
    gen = np.random.default_rng(0)
    P = np.vstack([gen.standard_normal((20, 2)), gen.standard_normal((15, 2)) + 30.0])
    shards, _ = ingest_threshold_graph(P, gamma=10.0, shard_size=5, seed=1)
    w, _ = robust_gd(shards, OptConfig(max_rounds=5))
    want = np.mean([s.X.mean(axis=0) for s in shards], axis=0)
    assert np.linalg.norm(want) > 1.0
    np.testing.assert_allclose(w, want, rtol=1e-12)


def test_pooled_auto_step_matches_eigenvalue(rng):
    shards, _ = _honest_cluster(rng, m=3, n=30, d=4)
    H = sum(s.X.T @ s.X for s in shards) / sum(s.n for s in shards)
    lam = np.linalg.eigvalsh(H)[-1]
    assert _auto_step(shards) == pytest.approx(1.0 / lam, rel=1e-5)
    # raw points: the Hessian is the identity
    assert _auto_step([replace(s, y=None) for s in shards]) == 1.0


# ---------------------------------------------------------------------------
# robustness


def test_trimmed_mean_beats_plain_mean_under_corruption():
    wins = 0
    for seed in range(20):
        shards, truth = generate_fleet(
            FleetConfig(m=20, n=30, d=5, K=1, alpha=0.3, sigma=0.5), seed=seed
        )
        theta = truth.centers[0]
        errs = {}
        for name, agg in [("sm", AggregatorSpec("sample_mean")),
                          ("tm", AggregatorSpec("trimmed_mean", beta=0.3))]:
            w, _ = robust_gd(shards, OptConfig(max_rounds=150, aggregator=agg))
            errs[name] = np.linalg.norm(w - theta)
        wins += errs["tm"] < errs["sm"]
    assert wins >= 19


def test_filtering_aggregator_is_also_robust(rng):
    shards, theta = _honest_cluster(rng, m=14, n=30, d=5, sigma=0.3)
    shards = _with_byzantine(rng, shards, n_byz=4)
    w_f, _ = robust_gd(
        shards, OptConfig(max_rounds=150, aggregator=AggregatorSpec("iter_filter"))
    )
    w_m, _ = robust_gd(shards, OptConfig(max_rounds=150))
    assert np.linalg.norm(w_f - theta) < 0.5 * np.linalg.norm(w_m - theta)


# ---------------------------------------------------------------------------
# federated averaging


def test_fed_avg_one_local_step_matches_robust_gd(rng):
    shards, _ = _honest_cluster(rng, m=8, n=20, d=4, sigma=0.6)
    shards = _with_byzantine(rng, shards, n_byz=2)
    for agg in [AggregatorSpec("sample_mean"), AggregatorSpec("trimmed_mean", beta=0.2)]:
        cfg = OptConfig(max_rounds=30, aggregator=agg, stop_tol=0.0)
        cfg_e1 = OptConfig(max_rounds=30, aggregator=agg, local_steps=1, stop_tol=0.0)
        _, t_gd = robust_gd(shards, cfg)
        _, t_fa = fed_avg_robust(shards, cfg_e1)
        np.testing.assert_allclose(t_fa, t_gd, atol=1e-9)


def test_fed_avg_local_steps_match_per_machine_recursion(rng):
    shards, _ = _honest_cluster(rng, m=4, n=12, d=3, sigma=0.5)
    shards = _with_byzantine(rng, shards, n_byz=1)
    step = _auto_step(shards)
    _, traj = fed_avg_robust(
        shards, OptConfig(max_rounds=10, local_steps=3, stop_tol=0.0),
        attack=AttackSpec("sign_flip", scale=2.0),
    )
    w = np.zeros(3)
    for t in range(10):
        models = []
        for s in shards:
            v = w.copy()
            for _ in range(3):
                v = v - step * _raw_gradient(s, v)
            models.append(-2.0 * v if s.is_byzantine else v)
        w = np.mean(models, axis=0)
        np.testing.assert_allclose(traj[t + 1], w, atol=1e-9)


def _raw_loss_gradient(shard, w):
    if shard.y is None:
        return np.mean(w - shard.X, axis=0)
    return _raw_gradient(shard, w)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.booleans(),
    st.sampled_from(["sign_flip", "random_gauss"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_fed_avg_affine_map_matches_per_machine_recursion(L, targets, attack_kind, seed):
    # each round, every honest machine runs L raw-row GD steps from the
    # global model; Byzantine rows are replaced by the attacked report
    gen = np.random.default_rng(seed)
    shards, _ = _honest_cluster(gen, m=4, n=9, d=3, sigma=0.5)
    shards = _with_byzantine(gen, shards, n_byz=1, offset=3.0)
    if not targets:  # raw points: the location loss
        shards = [replace(s, y=None) for s in shards]
    step = _auto_step(shards)
    attack = AttackSpec(attack_kind, scale=2.0)
    rounds = 6
    cfg = OptConfig(max_rounds=rounds, local_steps=L, stop_tol=0.0)
    with np.errstate(all="raise"):
        _, traj = fed_avg_robust(shards, cfg, attack, seed=seed)
    w = np.zeros(3)
    for t in range(rounds):
        models = []
        for s in shards:
            v = w.copy()
            for _ in range(L):
                v = v - step * _raw_loss_gradient(s, v)
            if s.is_byzantine and attack_kind == "sign_flip":
                v = -2.0 * v
            elif s.is_byzantine:
                g = RngStream(derive_seed(seed, s.machine_id, t), 0).generator()
                v = 2.0 * g.standard_normal(3)
            models.append(v)
        w = np.mean(models, axis=0)
        assert np.linalg.norm(traj[t + 1] - w) <= 1e-12 * (1.0 + np.linalg.norm(w))


def test_fed_avg_leaves_caller_stats_alone(rng):
    # the affine maps overwrite the shard statistics fed_avg_robust builds
    # for itself, never anything the caller holds
    shards, _ = _honest_cluster(rng, m=3, n=10, d=3, sigma=0.5)
    before = [(s.X.copy(), s.y.copy()) for s in shards]
    cfg = OptConfig(max_rounds=5, local_steps=3)
    first = fed_avg_robust(shards, cfg)
    for s, (X, y) in zip(shards, before):
        np.testing.assert_array_equal(s.X, X)
        np.testing.assert_array_equal(s.y, y)
    second = fed_avg_robust(shards, cfg)
    np.testing.assert_array_equal(first[1], second[1])


def test_fed_avg_multiple_local_steps_still_converges_clean(rng):
    shards, theta = _honest_cluster(rng, m=5, n=40, d=3, sigma=0.0)
    cfg = OptConfig(max_rounds=200, local_steps=5, aggregator=AggregatorSpec("trimmed_mean", beta=0.2))
    w, _ = fed_avg_robust(shards, cfg)
    assert np.linalg.norm(w - theta) < 1e-6


# ---------------------------------------------------------------------------
# attack plumbing


def _one_byz_setup(rng):
    shards, _ = _honest_cluster(rng, m=2, n=15, d=3, sigma=0.2)
    shards = _with_byzantine(rng, shards, n_byz=1)
    return shards


def test_sign_flip_report_enters_the_mean(rng):
    shards = _one_byz_setup(rng)
    step = _auto_step(shards)
    w, _ = robust_gd(
        shards, OptConfig(max_rounds=1), attack=AttackSpec("sign_flip", scale=3.0)
    )
    z = np.zeros(3)
    grads = [_raw_gradient(s, z) for s in shards]
    expected = -step * np.mean([grads[0], grads[1], -3.0 * grads[2]], axis=0)
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_constant_attack_sends_fixed_vector(rng):
    shards = _one_byz_setup(rng)
    step = _auto_step(shards)
    v = np.array([5.0, -5.0, 5.0])
    w, _ = robust_gd(shards, OptConfig(max_rounds=1), attack=AttackSpec("constant", vector=v))
    z = np.zeros(3)
    grads = [_raw_gradient(s, z) for s in shards]
    expected = -step * np.mean([grads[0], grads[1], v], axis=0)
    np.testing.assert_allclose(w, expected, atol=1e-12)


@pytest.mark.parametrize("descend", [robust_gd, fed_avg_robust])
@pytest.mark.parametrize("vector", [[5.0], [5.0, -5.0], [[5.0, -5.0, 5.0]]])
def test_constant_attack_vector_must_have_the_model_dimension(rng, descend, vector):
    # a length-1 vector would broadcast over every coordinate
    shards = _one_byz_setup(rng)
    with pytest.raises(ConfigError, match="constant attack vector"):
        descend(shards, OptConfig(max_rounds=1), attack=AttackSpec("constant", vector=vector))


def test_random_gauss_attack_is_reproducible(rng):
    shards = _one_byz_setup(rng)
    atk = AttackSpec("random_gauss", scale=2.0)
    w1, t1 = robust_gd(shards, OptConfig(max_rounds=15), attack=atk, seed=13)
    w2, t2 = robust_gd(shards, OptConfig(max_rounds=15), attack=atk, seed=13)
    np.testing.assert_array_equal(t1, t2)
    w3, _ = robust_gd(shards, OptConfig(max_rounds=15), attack=atk, seed=14)
    assert not np.array_equal(w1, w3)


def test_shared_draws_table_matches_private_draws(rng):
    # a table shared by optimizers on one cluster gives each the reports
    # it would draw itself; its rows are read-only
    shards, _ = _honest_cluster(rng, m=6, n=20, d=4, sigma=0.3)
    shards = _with_byzantine(rng, shards, n_byz=2)
    atk = AttackSpec("random_gauss", scale=5.0)
    # FedAvg writes over the statistics it takes from the table, so the
    # call after it must rebuild them
    runs = [
        (robust_gd, OptConfig(max_rounds=12, aggregator=AggregatorSpec("coord_median"))),
        (fed_avg_robust,
         OptConfig(max_rounds=12, local_steps=2, aggregator=AggregatorSpec("iter_filter"))),
        (robust_gd, OptConfig(max_rounds=12, aggregator=AggregatorSpec("geo_median"))),
    ]
    table = ClusterTable()
    for optimizer, cfg in runs:
        _, private = optimizer(shards, cfg, atk, seed=21)
        _, shared = optimizer(shards, cfg, atk, seed=21, table=table)
        assert np.array_equal(shared, private)
    draws = table.reports
    assert set(draws) == {(21, 5.0, i, t) for i in (6, 7) for t in range(12)}
    assert all(not report.flags.writeable and report.shape == (4,) for report in draws.values())
    # the table's statistics and step are the ones a private call builds
    stats = shard_stats(shards)
    assert np.array_equal(table.stats.A, stats.A) and np.array_equal(table.stats.b, stats.b)
    assert table.step == pooled_auto_step(stats)


def test_attacks_do_not_touch_honest_reports(rng):
    shards, theta = _honest_cluster(rng, m=5, n=30, d=3, sigma=0.0)
    w, _ = robust_gd(
        shards, OptConfig(max_rounds=300), attack=AttackSpec("sign_flip", scale=10.0)
    )
    assert np.linalg.norm(w - theta) < 1e-6


# ---------------------------------------------------------------------------
# stopping behavior


def test_stop_tol_ends_early(rng):
    shards, _ = _honest_cluster(rng, m=3, n=30, d=3, sigma=0.0)
    _, traj = robust_gd(shards, OptConfig(max_rounds=500, stop_tol=1e-10))
    assert traj.shape[0] - 1 < 500


def test_divergent_step_halts_at_bounded_iterate(rng):
    # the Byzantine machine reports its gradient negated 20-fold, so the
    # mean of the reports climbs the objective and the iterate grows
    shards, _ = _honest_cluster(rng, m=3, n=10, d=3, sigma=0.5)
    shards = _with_byzantine(rng, shards, n_byz=1, offset=1.0)
    attack = AttackSpec("sign_flip", scale=20.0)
    w, traj = robust_gd(shards, OptConfig(max_rounds=400, stop_tol=0.0), attack)
    assert traj.shape[0] - 1 < 400
    assert not np.all(np.isfinite(w)) or np.linalg.norm(w) > 1e12


def test_fed_avg_divergence_also_halts(rng):
    # the negated models pull the mean to about -4 times the last one
    shards, _ = _honest_cluster(rng, m=3, n=10, d=3, sigma=0.5)
    shards = _with_byzantine(rng, shards, n_byz=1, offset=1.0)
    attack = AttackSpec("sign_flip", scale=20.0)
    w, traj = fed_avg_robust(
        shards, OptConfig(max_rounds=400, local_steps=3, stop_tol=0.0), attack
    )
    assert traj.shape[0] - 1 < 400


# ---------------------------------------------------------------------------
# validation


def test_opt_config_validation():
    for kwargs in [
        dict(max_rounds=0),
        dict(local_steps=0),
        dict(stop_tol=-1.0),
    ]:
        with pytest.raises(ConfigError):
            OptConfig(**kwargs)
    # every step is the pooled auto step
    with pytest.raises(TypeError, match="'step_size'"):
        OptConfig(step_size=0.5)


def test_attack_spec_validation():
    with pytest.raises(ConfigError):
        AttackSpec(kind="meteor")
    with pytest.raises(ConfigError):
        AttackSpec(kind="constant")
    with pytest.raises(ConfigError):
        AttackSpec(kind="sign_flip", scale=np.nan)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="constant attack vector must be finite"):
            AttackSpec(kind="constant", vector=[bad, 1.0, 2.0])
    # only the constant attack reads a vector
    for vector in ([1, 2], "abc"):
        with pytest.raises(ConfigError, match="takes no vector"):
            AttackSpec(kind="sign_flip", vector=vector)
    # only sign_flip and random_gauss read a scale; the rest keep 1.0
    for kind, extra in (("own_corrupt_data", {}), ("constant", {"vector": [1.0]})):
        with pytest.raises(ConfigError, match="takes no scale"):
            AttackSpec(kind, scale=5.0, **extra)
        assert AttackSpec(kind, scale=1.0, **extra).scale == 1.0
    for kind in ("sign_flip", "random_gauss"):
        assert AttackSpec(kind, scale=5.0).scale == 5.0


def test_robust_gd_validation(rng):
    with pytest.raises(ConfigError):
        robust_gd([], OptConfig())
    a = WorkerShard(0, rng.standard_normal((5, 2)), np.zeros(5), 0)
    b = WorkerShard(1, rng.standard_normal((5, 3)), np.zeros(5), 0)
    with pytest.raises(ConfigError):
        robust_gd([a, b], OptConfig())
    with pytest.raises(ConfigError):
        robust_gd([a], OptConfig(), init=np.zeros(3))
    # the data fixes the loss: raw points beside regression shards raise
    with pytest.raises(ConfigError, match="targets"):
        robust_gd([a, replace(a, machine_id=1, y=None)], OptConfig())
    # several local steps per round are federated averaging, not robust_gd
    with pytest.raises(ConfigError, match="fed_avg_robust"):
        robust_gd([a], OptConfig(local_steps=2))
