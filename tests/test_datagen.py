import logging
import tracemalloc

import numpy as np
import pytest

from byzfed.components import threshold_components
from byzfed.datagen import (
    BYZANTINE,
    FleetConfig,
    GroundTruth,
    WorkerShard,
    _bernoulli_centered,
    generate_fleet,
    generate_symmetric_mixture,
    ingest_threshold_graph,
    layout_components,
    percentile_gamma,
    read_points_csv,
    shard_components,
)
from byzfed.errors import ConfigError, DataError
from byzfed.numerics import RngStream


def test_fleet_config_counts():
    cfg = FleetConfig(m=100, n=10, d=5, K=5, alpha=0.3)
    assert cfg.n_byzantine == 30
    assert cfg.n_honest == 70
    # ceil: any positive fraction produces at least one Byzantine machine
    assert FleetConfig(m=10, n=5, d=2, K=2, alpha=0.01).n_byzantine == 1


def test_fleet_config_validation():
    with pytest.raises(ConfigError):
        FleetConfig(m=0, n=5, d=2, K=1)
    with pytest.raises(ConfigError):
        FleetConfig(m=10, n=5, d=2, K=2, alpha=0.5)
    with pytest.raises(ConfigError):
        FleetConfig(m=10, n=5, d=2, K=2, alpha=-0.1)
    with pytest.raises(ConfigError):
        # 4 honest machines cannot host K=5 clusters
        FleetConfig(m=5, n=5, d=4, K=5, alpha=0.1)


def test_ground_truth_rejects_duplicate_centers():
    with pytest.raises(ConfigError):
        GroundTruth(centers=np.zeros((2, 3)), labels=np.zeros(4, dtype=int))


def test_ground_truth_helpers():
    gt = GroundTruth(centers=np.array([[0.0, 0.0], [3.0, 4.0]]), labels=np.array([0, 1, BYZANTINE]))
    assert gt.K == 2
    assert gt.min_separation() == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# synthetic fleet


def test_generate_fleet_shapes_and_counts():
    cfg = FleetConfig(m=20, n=8, d=6, K=3, alpha=0.2, sigma=1.0)
    shards, truth = generate_fleet(cfg, seed=5)
    assert len(shards) == 20
    assert truth.labels.shape == (20,)
    assert truth.centers.shape == (3, 6)
    assert sum(s.is_byzantine for s in shards) == cfg.n_byzantine
    for i, s in enumerate(shards):
        assert s.machine_id == i
        assert s.X.shape == (8, 6)
        assert s.y.shape == (8,)
        if s.is_byzantine:
            assert truth.labels[i] == BYZANTINE
        else:
            assert truth.labels[i] == s.true_cluster


def test_generate_fleet_round_robin_balance():
    # honest machines are dealt round-robin, so cluster sizes differ by <= 1
    cfg = FleetConfig(m=50, n=4, d=8, K=4, alpha=0.1)
    _, truth = generate_fleet(cfg, seed=3)
    sizes = np.bincount(truth.labels[truth.labels != BYZANTINE], minlength=4)
    assert sizes.sum() == cfg.n_honest
    assert sizes.max() - sizes.min() <= 1


def test_generate_fleet_centers_are_binary_and_distinct():
    _, truth = generate_fleet(FleetConfig(m=12, n=4, d=10, K=4), seed=11)
    assert set(np.unique(truth.centers)) <= {0.0, 1.0}
    assert len({tuple(c) for c in truth.centers}) == 4


def test_generate_fleet_noiseless_targets_exact():
    shards, truth = generate_fleet(FleetConfig(m=6, n=5, d=3, K=2, sigma=0.0), seed=2)
    for s in shards:
        if not s.is_byzantine:
            np.testing.assert_allclose(s.y, s.X @ truth.centers[s.true_cluster], atol=1e-12)


def test_generate_fleet_deterministic():
    cfg = FleetConfig(m=10, n=6, d=4, K=2, alpha=0.2, sigma=0.5)
    a_shards, a_truth = generate_fleet(cfg, seed=9)
    b_shards, b_truth = generate_fleet(cfg, seed=9)
    np.testing.assert_array_equal(a_truth.labels, b_truth.labels)
    np.testing.assert_array_equal(a_truth.centers, b_truth.centers)
    for sa, sb in zip(a_shards, b_shards):
        np.testing.assert_array_equal(sa.X, sb.X)
        np.testing.assert_array_equal(sa.y, sb.y)


def test_generate_fleet_seed_changes_data():
    cfg = FleetConfig(m=10, n=6, d=4, K=2)
    a, _ = generate_fleet(cfg, seed=1)
    b, _ = generate_fleet(cfg, seed=2)
    assert not np.array_equal(a[0].X, b[0].X)


def test_generate_fleet_too_many_centers_for_dimension():
    with pytest.raises(ConfigError):
        generate_fleet(FleetConfig(m=40, n=4, d=2, K=5))


# ---------------------------------------------------------------------------
# symmetric two-cluster mixture


def test_symmetric_mixture_basic():
    theta = np.array([2.0, 0.0, 0.0])
    pts, labels = generate_symmetric_mixture(50, 3, theta, sigma=0.1, seed=4)
    assert pts.shape == (50, 3)
    assert set(np.unique(labels)) <= {-1, 1}
    # noiseless check on sign structure: points lie near +-theta
    for p, l in zip(pts, labels):
        assert np.linalg.norm(p - l * theta) < 1.0


def test_symmetric_mixture_outliers_at_radius():
    theta = np.array([1.0, 1.0])
    pts, labels = generate_symmetric_mixture(
        40, 2, theta, sigma=0.05, outlier_fraction=0.25, outlier_scale=20, seed=8
    )
    out = pts[labels == 0]
    assert len(out) == 10  # ceil(0.25 * 40)
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=1), 20 * np.linalg.norm(theta), rtol=1e-9
    )


def test_symmetric_mixture_validation():
    with pytest.raises(ConfigError):
        generate_symmetric_mixture(10, 3, np.ones(2), 1.0)
    with pytest.raises(ConfigError):
        generate_symmetric_mixture(10, 2, np.ones(2), 1.0, outlier_fraction=0.5)


# ---------------------------------------------------------------------------
# ingestion


def _two_blobs(n0=23, n1=17, d=3, gap=50.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n0, d))
    b = rng.standard_normal((n1, d)) + gap
    return np.vstack([a, b])


def test_ingest_two_blobs_full_shards():
    P = _two_blobs()
    shards, truth = ingest_threshold_graph(P, gamma=10.0, shard_size=5, seed=1)
    # 23 -> 4 shards, 17 -> 3 shards; remainders dropped
    assert len(shards) == 7
    assert truth.K == 2
    assert [s.true_cluster for s in shards] == [0] * 4 + [1] * 3
    for s in shards:
        assert s.X.shape == (5, 3)
        assert s.y is None  # raw points: no targets
    # cluster centers are component means
    np.testing.assert_allclose(truth.centers[0], P[:23].mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(truth.centers[1], P[23:].mean(axis=0), atol=1e-12)


def test_ingest_adversarial_shards_shifted():
    P = _two_blobs()
    shift = np.array([7.0, 7.0, 7.0])
    shards, truth = ingest_threshold_graph(
        P, gamma=10.0, shard_size=5, n_adv=2, adv_noise=lambda rng, d: shift, seed=1
    )
    adv = [s for s in shards if s.is_byzantine]
    assert len(adv) == 2
    assert np.count_nonzero(truth.labels == BYZANTINE) == 2
    # adversarial rows are pool points plus exactly the shift vector
    for s in adv:
        diffs = s.X - shift
        # each shifted row must match some original point
        for row in diffs:
            assert np.min(np.linalg.norm(P - row, axis=1)) < 1e-9


def test_ingest_component_must_fill_a_shard():
    # second blob has 4 < shard_size points: no cluster, its points feed the pool
    P = _two_blobs(n0=10, n1=4)
    shards, truth = ingest_threshold_graph(P, gamma=10.0, shard_size=5, n_adv=1, seed=2)
    assert truth.K == 1
    assert sum(not s.is_byzantine for s in shards) == 2
    assert sum(s.is_byzantine for s in shards) == 1


def test_ingest_no_surviving_component_raises():
    P = _two_blobs(n0=3, n1=3)
    with pytest.raises(DataError):
        ingest_threshold_graph(P, gamma=10.0, shard_size=5)


def test_ingest_empty_pool_falls_back_to_all_points(caplog):
    # both components divide evenly: no remainder, no dropped component
    P = _two_blobs(n0=10, n1=5)
    with caplog.at_level(logging.WARNING):
        shards, _ = ingest_threshold_graph(P, gamma=10.0, shard_size=5, n_adv=1, seed=3)
    assert any("pool is empty" in r.message for r in caplog.records)
    assert sum(s.is_byzantine for s in shards) == 1


def test_ingest_deterministic():
    P = _two_blobs()
    a, _ = ingest_threshold_graph(P, gamma=10.0, shard_size=5, n_adv=2, seed=7)
    b, _ = ingest_threshold_graph(P, gamma=10.0, shard_size=5, n_adv=2, seed=7)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.X, sb.X)


def test_ingest_validation():
    P = _two_blobs()
    with pytest.raises(ConfigError):
        ingest_threshold_graph(P, gamma=1.0, shard_size=0)
    with pytest.raises(ConfigError):
        ingest_threshold_graph(P[0], gamma=1.0)
    with pytest.raises(ConfigError):
        ingest_threshold_graph(P, gamma=10.0, n_adv=-1)


def _ingest_oracle(points, gamma, min_cluster=1, shard_size=1, n_adv=0, adv_noise=None, seed=0):
    """ingest_threshold_graph as one function, before it was split into a
    seed-free layout and a seeded sharding step (logging left out)."""
    P = np.asarray(points, dtype=float)
    if adv_noise is None:
        adv_noise = _bernoulli_centered
    comps = threshold_components(P, gamma)
    keep_size = max(min_cluster, shard_size)
    surviving = [c for c in comps if len(c) >= keep_size]
    if not surviving:
        raise DataError("no surviving component")
    dropped_comps = [c for c in comps if len(c) < keep_size]
    centers = np.stack([P[c].mean(axis=0) for c in surviving])

    rng = RngStream(seed, 0).generator()
    shards = []
    label_list = []
    unused = [c for c in dropped_comps]
    for k, comp in enumerate(surviving):
        order = rng.permutation(comp)
        n_full = len(comp) // shard_size
        for s in range(n_full):
            idx = np.sort(order[s * shard_size : (s + 1) * shard_size])
            shards.append(
                WorkerShard(machine_id=len(shards), X=P[idx].copy(), y=None, true_cluster=k)
            )
            label_list.append(k)
        rem = order[n_full * shard_size :]
        if len(rem):
            unused.append(np.asarray(rem))

    pool = np.concatenate(unused) if unused else np.empty(0, dtype=int)
    if n_adv > 0 and len(pool) == 0:
        pool = np.arange(P.shape[0])
    for _ in range(n_adv):
        replace = len(pool) < shard_size
        idx = rng.choice(pool, size=shard_size, replace=replace)
        shift = np.asarray(adv_noise(rng, P.shape[1]), dtype=float)
        shards.append(
            WorkerShard(machine_id=len(shards), X=P[idx] + shift[None, :], y=None,
                        true_cluster=None)
        )
        label_list.append(BYZANTINE)

    truth = GroundTruth(centers=centers, labels=np.asarray(label_list, dtype=int))
    return shards, truth


def _assert_same_fleet(got, want):
    (shards, truth), (ref_shards, ref_truth) = got, want
    assert len(shards) == len(ref_shards)
    for s, r in zip(shards, ref_shards):
        assert s.machine_id == r.machine_id
        assert s.true_cluster == r.true_cluster
        assert np.array_equal(s.X, r.X)
        assert s.y is None and r.y is None
    assert np.array_equal(truth.centers, ref_truth.centers)
    assert np.array_equal(truth.labels, ref_truth.labels)


_THREE_BLOBS = np.vstack([_two_blobs(23, 17), np.random.default_rng(5).standard_normal((8, 3)) - 60.0])


@pytest.mark.parametrize(
    "points, gamma, min_cluster, shard_size, n_adv",
    [
        (_two_blobs(), 10.0, 1, 5, 0),  # remainders only
        (_two_blobs(), 10.0, 1, 5, 3),  # remainders feed the pool
        (_two_blobs(n0=10, n1=4), 10.0, 1, 5, 2),  # dropped component, pool < shard
        (_two_blobs(n0=10, n1=5), 10.0, 1, 5, 2),  # empty pool: all points
        (_THREE_BLOBS, 10.0, 10, 4, 4),  # min_cluster above shard_size drops a blob
        (_THREE_BLOBS, 10.0, 1, 3, 5),
    ],
)
def test_split_ingest_matches_single_function_oracle(points, gamma, min_cluster, shard_size, n_adv):
    # one layout, sharded under several seeds, equals the oracle per seed
    layout = layout_components(points, gamma, min_cluster=min_cluster, shard_size=shard_size)
    for seed in range(5):
        want = _ingest_oracle(points, gamma, min_cluster, shard_size, n_adv, seed=seed)
        _assert_same_fleet(shard_components(layout, n_adv=n_adv, seed=seed), want)
        got = ingest_threshold_graph(
            points, gamma, min_cluster=min_cluster, shard_size=shard_size, n_adv=n_adv, seed=seed
        )
        _assert_same_fleet(got, want)


def test_layout_counts_and_drops():
    layout = layout_components(_THREE_BLOBS, 10.0, min_cluster=10, shard_size=4)
    assert layout.K == 2
    assert [len(c) for c in layout.surviving] == [23, 17]
    assert [len(c) for c in layout.dropped] == [8]
    assert layout.source is None


def test_layout_without_gamma_takes_and_records_the_points_percentile():
    layout = layout_components(_THREE_BLOBS, None, shard_size=4)
    assert layout.gamma == percentile_gamma(_THREE_BLOBS)
    given = layout_components(_THREE_BLOBS, layout.gamma, shard_size=4)
    assert [c.tolist() for c in layout.surviving] == [c.tolist() for c in given.surviving]
    assert layout_components(_THREE_BLOBS, 10.0).gamma == 10.0
    # over a tenth of the pairs coincide: no default, and no components
    with pytest.raises(DataError, match="coincident"):
        layout_components(np.zeros((6, 2)), None)


# ---------------------------------------------------------------------------
# gamma default


def test_percentile_gamma_exact_small():
    P = np.array([[0.0], [1.0], [3.0]])
    # pairwise distances 1, 3, 2 -> 50th percentile = 2
    assert percentile_gamma(P, q=50) == pytest.approx(2.0)


def test_percentile_gamma_sampled_close_to_exact(rng):
    P = rng.standard_normal((900, 3))
    exact = percentile_gamma(P, q=10)
    sampled = percentile_gamma(P, q=10, max_pairs=50_000, seed=0)
    assert abs(exact - sampled) / exact < 0.05


def _percentile_gamma_one_shot(P, q=10.0, max_pairs=200_000, seed=0):
    """Reference: every pair's difference in one array, as percentile_gamma
    computed it before it went in blocks."""
    N = len(P)
    if N * (N - 1) // 2 <= max_pairs:
        ii, jj = np.triu_indices(N, k=1)
    else:
        rng = RngStream(seed, 0).generator()
        ii = rng.integers(0, N, size=max_pairs)
        jj = rng.integers(0, N, size=max_pairs)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
    return float(np.percentile(np.linalg.norm(P[ii] - P[jj], axis=1), q))


@pytest.mark.parametrize("n, d, max_pairs", [
    (2, 1, 20_000), (200, 50, 20_000), (1000, 50, 20_000), (1000, 7, 20_000), (700, 5, 200_000),
])
def test_percentile_gamma_in_blocks_is_bit_equal_to_one_shot(rng, n, d, max_pairs):
    # (2, 1) and (200, 50) take every pair, the others sample max_pairs
    # pairs; all but the first span several blocks, the last one short
    P = rng.standard_normal((n, d)) * 3.0
    for q in (10.0, 50.0):
        got = percentile_gamma(P, q=q, max_pairs=max_pairs, seed=5)
        assert got == _percentile_gamma_one_shot(P, q=q, max_pairs=max_pairs, seed=5)


def test_percentile_gamma_memory_is_bounded(rng):
    # in one shot, the 200k sampled pairs' differences take 160 MB an array
    P = rng.standard_normal((1000, 100))
    tracemalloc.start()
    try:
        percentile_gamma(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_percentile_gamma_needs_two_points():
    with pytest.raises(DataError):
        percentile_gamma(np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# CSV reading


def test_read_points_csv_plain(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1.0,2.0\n3.0,4.0\n")
    np.testing.assert_array_equal(read_points_csv(f), [[1.0, 2.0], [3.0, 4.0]])


def test_read_points_csv_auto_header(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    np.testing.assert_array_equal(read_points_csv(f), [[1.0, 2.0], [3.0, 4.0]])


def test_read_points_csv_label_column_dropped(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1.0,9.0,2.0\n3.0,8.0,4.0\n")
    np.testing.assert_array_equal(
        read_points_csv(f, label_column=1), [[1.0, 2.0], [3.0, 4.0]]
    )


@pytest.mark.parametrize(
    "label_column, error, message",
    [(1.5, ConfigError, "must be an integer"), (-1, ConfigError, "must be an integer"),
     (3, DataError, "out of range")],
)
def test_read_points_csv_bad_label_column(tmp_path, label_column, error, message):
    f = tmp_path / "pts.csv"
    f.write_text("1.0,9.0,2.0\n3.0,8.0,4.0\n")
    with pytest.raises(error, match=message):
        read_points_csv(f, label_column=label_column)


def test_read_points_csv_custom_delimiter_and_single_row(tmp_path):
    f = tmp_path / "pts.tsv"
    f.write_text("1.5\t2.5\n")
    np.testing.assert_array_equal(read_points_csv(f, delimiter="\t"), [[1.5, 2.5]])


def test_read_points_csv_missing_and_empty(tmp_path):
    with pytest.raises(DataError):
        read_points_csv(tmp_path / "nope.csv")
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(DataError):
        read_points_csv(f)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_read_points_csv_rejects_non_finite_rows(tmp_path, token):
    f = tmp_path / "pts.csv"
    f.write_text(f"x,y\n1.0,2.0\n3.0,{token}\n5.0,6.0\n")
    with pytest.raises(DataError, match="data row 2"):
        read_points_csv(f)
