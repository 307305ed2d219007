import math

import numpy as np
import pytest

from byzfed.clustering import (
    ClusteringState,
    ClusterSpec,
    _assign,
    edge_cut_cluster,
    iterfilter_2cluster,
    mismetrics,
    run_lloyd_variant,
    warm_start_init,
)
from byzfed.datagen import BYZANTINE, GroundTruth
from byzfed.errors import ClusteringError, ConfigError
from byzfed.numerics import RngStream
from byzfed.robust_stats import geometric_median


def _truth(labels, centers):
    return GroundTruth(centers=np.asarray(centers, float), labels=np.asarray(labels, int))


def _trimmed_step(points, state, sigma_hat=None, C=2.0):
    nxt, _ = run_lloyd_variant(
        points, state, ClusterSpec(method="trimmed_kmeans", C=C, sigma_hat=sigma_hat, max_iter=1)
    )
    return nxt


def _blobs(rng, sizes, centers, spread=0.1):
    pts, labels = [], []
    for k, (n, c) in enumerate(zip(sizes, centers)):
        pts.append(np.asarray(c, float) + spread * rng.standard_normal((n, len(c))))
        labels += [k] * n
    return np.vstack(pts), np.array(labels)


# ---------------------------------------------------------------------------
# state plumbing


def test_state_validation():
    with pytest.raises(ConfigError):
        ClusteringState(labels=np.array([0, 2]), centers=np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        ClusteringState(labels=np.array([0]), centers=np.array([[np.nan]]))
    with pytest.raises(ConfigError):
        ClusteringState(labels=np.array([0, 1]), centers=np.zeros((2, 2)), trimmed=np.array([True]))
    with pytest.raises(ConfigError):
        ClusteringState(labels=np.array([0]), centers=np.zeros((1, 1)), iteration=-1)
    st = ClusteringState(labels=np.array([0, 1]), centers=np.zeros((3, 2)))
    assert st.K == 3
    assert not st.trimmed.any()


def test_variant_validation():
    with pytest.raises(ConfigError):
        ClusterSpec(method="median")
    with pytest.raises(ConfigError):
        ClusterSpec(method="trimmed_kmeans", C=0.0)
    with pytest.raises(ConfigError):
        ClusterSpec(method="trimmed_kmeans", sigma_hat=-1.0)
    # a zero radius would trim every member, and the centers never move
    with pytest.raises(ConfigError):
        ClusterSpec(method="trimmed_kmeans", sigma_hat=0.0)
    ClusterSpec(method="trimmed_kmeans", sigma_hat=float("inf"))
    ClusterSpec(method="trimmed_kmeans", sigma_hat=None)


# a non-default value of every ClusterSpec field a method may read, and the
# fields each method reads
_FIELD_VALUES = {"C": 3.0, "sigma_hat": 0.5, "max_iter": 4, "gamma": 1.0, "min_cluster": 2}
_METHOD_READS = {
    "edge_cut": ("gamma", "min_cluster"),
    "lloyd": ("max_iter",),
    "kgeomedian": ("max_iter",),
    "trimmed_kmeans": ("max_iter", "C", "sigma_hat"),
}


@pytest.mark.parametrize("field", list(_FIELD_VALUES))
@pytest.mark.parametrize("method", list(_METHOD_READS))
def test_a_field_holds_its_default_unless_its_method_reads_it(method, field):
    # an unread value would reach no run but still change the run id
    base = {"gamma": 1.0} if method == "edge_cut" else {}
    value = _FIELD_VALUES[field]
    if field in _METHOD_READS[method]:
        assert getattr(ClusterSpec(method, **{**base, field: value}), field) == value
    else:
        with pytest.raises(ConfigError, match=f"cluster method '{method}' takes no {field}; only "):
            ClusterSpec(method, **{**base, field: value})
        ClusterSpec(method, **base)


def test_assign_tie_goes_to_lowest_index():
    centers = np.array([[0.0], [1.0]])
    np.testing.assert_array_equal(_assign(np.array([[0.5]]), centers), [0])


def _broadcast_assign(points, centers):
    return np.argmin(((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)


@pytest.mark.parametrize("m, K, d", [(1, 1, 1), (7, 3, 1), (40, 5, 8), (100, 5, 100), (33, 9, 130)])
def test_assign_equals_the_broadcast_formula(m, K, d, rng):
    points = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 9)
    centers = points[rng.integers(0, m, K)] + rng.standard_normal((K, d)) * 1e-3
    np.testing.assert_array_equal(_assign(points, centers), _broadcast_assign(points, centers))


@pytest.mark.parametrize("seed", range(20))
def test_assign_equals_the_broadcast_formula_on_exact_ties(seed):
    # small-integer coordinates and repeated centers give many exact ties,
    # which both forms break toward the lowest index
    gen = np.random.default_rng(seed)
    d = int(gen.integers(1, 6))
    points = gen.integers(-2, 3, (30, d)).astype(float)
    centers = gen.integers(-1, 2, (int(gen.integers(2, 7)), d)).astype(float)
    centers[-1] = centers[0]
    np.testing.assert_array_equal(_assign(points, centers), _broadcast_assign(points, centers))


# ---------------------------------------------------------------------------
# trimmed step


def test_trimmed_step_drops_far_point_keeps_mean_of_rest():
    # 1-D location example: median of {0,1,100} is 1, ball of radius
    # C*sigma*sqrt(d) = 4 keeps {0,1}, center = 0.5
    points = np.array([[0.0], [1.0], [100.0]])
    state = ClusteringState(labels=np.zeros(3, int), centers=np.array([[50.0]]))
    nxt = _trimmed_step(points, state, sigma_hat=2.0, C=2.0)
    np.testing.assert_allclose(nxt.centers, [[0.5]])
    np.testing.assert_array_equal(nxt.trimmed, [False, False, True])
    assert nxt.iteration == 1


def test_trimmed_step_matches_recompute_oracle(rng):
    points = rng.standard_normal((40, 5))
    points[35:] += 40.0  # planted outliers
    labels = np.zeros(40, int)
    labels[20:] = 1
    state = ClusteringState(labels=labels, centers=rng.standard_normal((2, 5)))
    C, sig = 2.5, 1.0
    nxt = _trimmed_step(points, state, sigma_hat=sig, C=C)
    for g in range(2):
        pts = points[labels == g]
        gm = geometric_median(pts)
        keep = np.linalg.norm(pts - gm, axis=1) <= C * sig * math.sqrt(5)
        np.testing.assert_allclose(nxt.centers[g], pts[keep].mean(axis=0), atol=1e-12)
    np.testing.assert_array_equal(nxt.labels, _assign(points, nxt.centers))


def test_trimmed_step_all_trimmed_keeps_previous_center():
    # both points lie 1 from their geometric median, outside the radius 0.2
    points = np.array([[0.0], [2.0]])
    state = ClusteringState(labels=np.zeros(2, int), centers=np.array([[5.0]]))
    nxt = _trimmed_step(points, state, sigma_hat=0.1, C=2.0)
    np.testing.assert_array_equal(nxt.centers, [[5.0]])
    assert nxt.trimmed.all()


def test_trimmed_step_infinite_radius_is_plain_lloyd(rng):
    points = rng.standard_normal((30, 3))
    labels = rng.integers(0, 3, size=30)
    state = ClusteringState(labels=labels, centers=rng.standard_normal((3, 3)))
    trimmed = _trimmed_step(points, state, C=math.inf)
    lloyd, _ = run_lloyd_variant(points, state, ClusterSpec(method="lloyd", max_iter=1))
    np.testing.assert_array_equal(trimmed.labels, lloyd.labels)
    np.testing.assert_array_equal(trimmed.centers, lloyd.centers)
    assert not trimmed.trimmed.any()


def test_empty_bucket_reseeds_at_farthest_point():
    points = np.array([[0.0], [1.0], [10.0]])
    state = ClusteringState(labels=np.zeros(3, int), centers=np.array([[0.0], [5.0]]))
    nxt, _ = run_lloyd_variant(points, state, ClusterSpec(method="lloyd", max_iter=1))
    # bucket 1 had no members: it re-seeds at the point farthest from its
    # owner's previous center (distance 10), and captures that point
    np.testing.assert_allclose(nxt.centers, [[11.0 / 3.0], [10.0]])
    np.testing.assert_array_equal(nxt.labels, [0, 0, 1])


def test_two_empty_buckets_take_distinct_seeds():
    points = np.array([[0.0], [1.0], [10.0]])
    state = ClusteringState(labels=np.zeros(3, int), centers=np.array([[0.0], [5.0], [6.0]]))
    nxt, _ = run_lloyd_variant(points, state, ClusterSpec(method="lloyd", max_iter=1))
    np.testing.assert_allclose(nxt.centers[1], [10.0])
    np.testing.assert_allclose(nxt.centers[2], [1.0])


# ---------------------------------------------------------------------------
# Lloyd loop


def _reference_kmeans(points, labels, centers, max_iter):
    """Textbook Lloyd: bucket means then nearest-center relabel."""
    labels = labels.copy()
    centers = centers.copy()
    for _ in range(max_iter):
        for g in range(centers.shape[0]):
            members = labels == g
            if members.any():
                centers[g] = points[members].mean(axis=0)
        new_labels = _assign(points, centers)
        done = np.array_equal(new_labels, labels)
        labels = new_labels
        if done:
            break
    return labels, centers


def test_lloyd_matches_textbook_kmeans(rng):
    points, true_labels = _blobs(rng, [20, 20, 20], [[0, 0], [6, 0], [0, 6]], spread=0.5)
    init_labels = rng.integers(0, 3, size=60)
    init = ClusteringState(labels=init_labels, centers=points[rng.choice(60, 3, replace=False)])
    got, _ = run_lloyd_variant(points, init, ClusterSpec(method="lloyd", max_iter=25))
    ref_labels, ref_centers = _reference_kmeans(points, init.labels, init.centers, 25)
    np.testing.assert_array_equal(got.labels, ref_labels)
    np.testing.assert_allclose(got.centers, ref_centers, atol=1e-12)


def test_run_stops_when_labels_stabilize(rng):
    points, labels = _blobs(rng, [10, 10], [[0, 0], [9, 9]])
    init = ClusteringState(labels=labels, centers=np.array([[0.0, 0.0], [9.0, 9.0]]))
    truth = _truth(labels, [[0.0, 0.0], [9.0, 9.0]])
    final, reports = run_lloyd_variant(points, init, ClusterSpec(method="lloyd", max_iter=15), ground_truth=truth)
    # perfect init converges in one step: report for init plus one iteration
    assert final.iteration == 1
    assert [r.iteration for r in reports] == [0, 1]
    assert reports[-1].miscluster_rate == 0.0


def test_kgeomedian_resists_one_planted_outlier(rng):
    points, labels = _blobs(rng, [15, 15], [[0, 0], [8, 8]], spread=0.2)
    points[0] = [1e6, 1e6]
    init = ClusteringState(labels=labels, centers=np.array([[0.0, 0.0], [8.0, 8.0]]))
    kgm, _ = run_lloyd_variant(points, init, ClusterSpec(method="kgeomedian", max_iter=1))
    lloyd, _ = run_lloyd_variant(points, init, ClusterSpec(method="lloyd", max_iter=1))
    assert np.linalg.norm(kgm.centers[0]) < 1.0  # geomedian shrugs it off
    assert np.linalg.norm(lloyd.centers[0]) > 1e4  # the mean does not


def test_run_lloyd_validation(rng):
    points = rng.standard_normal((4, 2))
    init = ClusteringState(labels=np.zeros(4, int), centers=np.zeros((1, 2)))
    with pytest.raises(ConfigError):
        ClusterSpec(method="lloyd", max_iter=-1)
    with pytest.raises(ConfigError, match="no Lloyd step"):
        run_lloyd_variant(points, init, ClusterSpec(method="edge_cut", gamma=1.0))
    with pytest.raises(ConfigError, match="unknown cluster method"):
        ClusterSpec(method="iterfilter2")


# ---------------------------------------------------------------------------
# threshold-graph clustering


def test_edge_cut_two_blobs_with_leftover(rng):
    points, _ = _blobs(rng, [8, 8], [[0, 0], [20, 0]], spread=0.3)
    # below min_cluster: a singleton nearer blob 0 and a pair nearer blob 1
    points = np.vstack([points, [[5.0, 0.0], [13.0, 0.0], [13.5, 0.0]]])
    state = edge_cut_cluster(points, gamma=2.0, min_cluster=3)
    assert state.K == 2
    assert state.labels.tolist() == [0] * 8 + [1] * 8 + [0, 1, 1]
    # centers are the means of the surviving components only
    np.testing.assert_allclose(state.centers[0], points[:8].mean(axis=0))
    np.testing.assert_allclose(state.centers[1], points[8:16].mean(axis=0))


def test_edge_cut_no_survivor_raises(rng):
    points = rng.standard_normal((5, 2)) * 100
    with pytest.raises(ClusteringError):
        edge_cut_cluster(points, gamma=1e-6, min_cluster=3)


# ---------------------------------------------------------------------------
# warm start


def test_warm_start_exact_correct_count(rng):
    m, K = 100, 5
    labels = np.array([i % K for i in range(70)] + [BYZANTINE] * 30)
    centers = np.eye(K, 4, dtype=float) * 5
    truth = _truth(labels, np.hstack([centers, np.arange(K)[:, None]]))
    points = rng.standard_normal((m, 5))
    init = warm_start_init(points, truth, correct_fraction=0.6, seed=3)
    honest = labels != BYZANTINE
    correct = init.labels[honest] == labels[honest]
    assert correct.sum() == math.ceil(0.6 * 70)  # exactly 42
    # every non-kept honest machine got a genuinely wrong label
    assert np.all(init.labels[honest][~correct] != labels[honest][~correct])
    assert init.labels[~honest].min() >= 0 and init.labels[~honest].max() < K
    # bucket centers are the bucket means
    g = init.labels[0]
    np.testing.assert_allclose(init.centers[g], points[init.labels == g].mean(axis=0))


def test_warm_start_full_fraction_is_truth(rng):
    labels = np.array([0, 0, 1, 1])
    truth = _truth(labels, [[0.0, 0.0], [5.0, 5.0]])
    points = rng.standard_normal((4, 2))
    init = warm_start_init(points, truth, correct_fraction=1.0, seed=0)
    np.testing.assert_array_equal(init.labels, labels)


def test_warm_start_deterministic(rng):
    labels = np.array([0, 1, 0, 1, BYZANTINE, BYZANTINE])
    truth = _truth(labels, [[0.0], [9.0]])
    points = rng.standard_normal((6, 1))
    a = warm_start_init(points, truth, 0.5, seed=11)
    b = warm_start_init(points, truth, 0.5, seed=11)
    np.testing.assert_array_equal(a.labels, b.labels)


def _warm_start_oracle(points, truth, correct_fraction, seed):
    """warm_start_init with its own bucket-mean and empty-bucket rule, as
    it stood before it took its centers from the Lloyd center step."""
    m, K = points.shape[0], truth.K
    truth_labels = np.asarray(truth.labels)
    rng = RngStream(seed, 0).generator()
    labels = np.empty(m, dtype=int)
    honest = np.flatnonzero(truth_labels != BYZANTINE)
    n_keep = int(math.ceil(correct_fraction * honest.size))
    shuffled = rng.permutation(honest)
    keep, corrupt = shuffled[:n_keep], shuffled[n_keep:]
    labels[keep] = truth_labels[keep]
    if K > 1:
        draw = rng.integers(0, K - 1, size=corrupt.size)
        labels[corrupt] = np.where(draw >= truth_labels[corrupt], draw + 1, draw)
    else:
        labels[corrupt] = 0
    byz = np.flatnonzero(truth_labels == BYZANTINE)
    labels[byz] = rng.integers(0, K, size=byz.size)

    centers = np.zeros((K, points.shape[1]))
    empty = []
    for g in range(K):
        members = labels == g
        if members.any():
            centers[g] = points[members].mean(axis=0)
        else:
            empty.append(g)
    if empty:
        dists = np.linalg.norm(points - points.mean(axis=0), axis=1)
        order = np.argsort(-dists, kind="stable")
        for j, g in enumerate(empty):
            centers[g] = points[order[j]]
    return labels, centers


def test_warm_start_matches_oracle_bit_for_bit():
    n_with_empty = 0
    for draw in range(400):
        rng = np.random.default_rng(draw)
        K = int(rng.integers(1, 7))
        m, d = int(rng.integers(K, 3 * K + 3)), int(rng.integers(1, 5))
        labels = np.where(rng.random(m) < 0.2, BYZANTINE, rng.integers(0, K, size=m))
        truth = _truth(labels, np.arange(K)[:, None] * np.ones((K, d)))
        points = rng.normal(loc=3.0, size=(m, d))
        fraction = float(rng.choice([0.0, 0.5, 1.0]))
        got = warm_start_init(points, truth, fraction, seed=draw)
        labels_want, centers_want = _warm_start_oracle(points, truth, fraction, draw)
        assert np.array_equal(got.labels, labels_want)
        assert np.array_equal(got.centers, centers_want)
        n_with_empty += np.unique(got.labels).size < K
    assert n_with_empty > 40  # the empty-bucket rule is exercised


def test_warm_start_validation(rng):
    labels = np.array([0, 1])
    truth = _truth(labels, [[0.0], [9.0]])
    with pytest.raises(ConfigError):
        warm_start_init(rng.standard_normal((2, 1)), truth, 1.5)
    with pytest.raises(ConfigError):
        warm_start_init(rng.standard_normal((3, 1)), truth, 0.5)


# ---------------------------------------------------------------------------
# symmetric two-cluster method


def test_iterfilter_2cluster_noiseless_exact():
    theta = np.array([3.0, 0.0])
    signs = np.array([1, -1, 1, 1, -1, -1, 1, -1])
    points = signs[:, None] * theta
    theta_hat, labels = iterfilter_2cluster(points, theta0=np.array([1.0, 0.2]), T=2)
    np.testing.assert_allclose(theta_hat, theta, atol=1e-12)
    np.testing.assert_array_equal(labels, signs)


def test_iterfilter_2cluster_sign_antisymmetry():
    theta = np.array([2.0, 1.0])
    signs = np.array([1, 1, -1, -1, 1, -1])
    points = signs[:, None] * theta
    t_pos, l_pos = iterfilter_2cluster(points, theta0=np.array([1.0, 0.5]), T=3)
    t_neg, l_neg = iterfilter_2cluster(points, theta0=-np.array([1.0, 0.5]), T=3)
    np.testing.assert_allclose(t_neg, -t_pos, atol=1e-12)
    np.testing.assert_array_equal(l_neg, -l_pos)


def test_iterfilter_2cluster_remainder_still_labeled():
    theta = np.array([4.0])
    signs = np.array([1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1])  # 11 points, T=2
    points = signs[:, None] * theta
    _, labels = iterfilter_2cluster(points, theta0=np.array([1.0]), T=2)
    assert labels.shape == (11,)
    np.testing.assert_array_equal(labels, signs)


def test_iterfilter_2cluster_validation():
    pts = np.ones((3, 2))
    with pytest.raises(ConfigError):
        iterfilter_2cluster(pts, np.ones(2), T=0)
    with pytest.raises(ConfigError):
        iterfilter_2cluster(pts, np.ones(2), T=5)
    with pytest.raises(ConfigError):
        iterfilter_2cluster(np.ones(3), np.ones(2), T=1)


# ---------------------------------------------------------------------------
# misclustering metrics


def test_mismetrics_perfect_up_to_permutation():
    truth = _truth([0, 0, 1, 1, BYZANTINE], [[0.0, 0.0], [10.0, 0.0]])
    state = ClusteringState(
        labels=np.array([1, 1, 0, 0, 0]),
        centers=np.array([[10.0, 0.0], [0.0, 0.0]]),
    )
    rep = mismetrics(state, truth)
    assert rep.miscluster_rate == 0.0
    assert rep.group_error == 0.0
    assert rep.center_error == 0.0
    np.testing.assert_array_equal(rep.permutation, [1, 0])
    np.testing.assert_array_equal(rep.confusion, [[2, 0], [0, 2], [0, 1]])


def test_mismetrics_hand_counted_instance():
    truth = _truth([0, 0, 0, 1, 1, 1], [[0.0], [6.0]])
    state = ClusteringState(
        labels=np.array([0, 0, 1, 1, 1, 1]),
        centers=np.array([[0.0], [5.0]]),
    )
    rep = mismetrics(state, truth)
    assert rep.miscluster_rate == pytest.approx(1 / 6)
    # true cluster 0 loses one machine to bucket 1: max(1/3 sent away, 1/4 wrong inside)
    assert rep.group_error == pytest.approx(1 / 3)
    assert rep.center_error == pytest.approx(1.0 / 6.0)  # ||5-6|| / separation 6
    np.testing.assert_array_equal(rep.confusion[:2], [[2, 1], [0, 3]])


def test_mismetrics_trimmed_variant_charges_trimmed_points():
    truth = _truth([0, 0, 0, 1, 1, 1], [[0.0], [6.0]])
    state = ClusteringState(
        labels=np.array([0, 0, 1, 1, 1, 1]),
        centers=np.array([[0.0], [6.0]]),
        trimmed=np.array([False, True, False, False, False, False]),
    )
    rep = mismetrics(state, truth)
    assert rep.group_error == pytest.approx(1 / 3)
    # machine 1 (true 0, kept in bucket 0 but trimmed) is charged as lost
    assert rep.group_error_untrimmed == pytest.approx(2 / 3)


def test_mismetrics_invariant_to_bucket_relabeling(rng):
    truth_labels = rng.integers(0, 3, size=30)
    truth = _truth(truth_labels, np.eye(3) * 9)
    est = rng.integers(0, 3, size=30)
    perm = np.array([2, 0, 1])
    a = mismetrics(ClusteringState(labels=est, centers=np.eye(3) * 9), truth)
    b = mismetrics(ClusteringState(labels=perm[est], centers=np.eye(3)[np.argsort(perm)] * 9), truth)
    assert a.miscluster_rate == b.miscluster_rate
    assert a.group_error == b.group_error


def test_mismetrics_empty_bucket_ratios_are_zero():
    # bucket 1 ends up with no members at all: 0/0 ratios count as 0
    truth = _truth([0, 0], [[0.0], [8.0]])
    state = ClusteringState(labels=np.array([0, 0]), centers=np.array([[0.0], [8.0]]))
    rep = mismetrics(state, truth)
    assert rep.miscluster_rate == 0.0
    assert math.isfinite(rep.group_error)


def test_mismetrics_validation():
    truth = _truth([0, 1, 2], np.eye(3))
    state = ClusteringState(labels=np.array([0, 1, 0]), centers=np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        mismetrics(state, truth)
    with pytest.raises(ConfigError):
        mismetrics(
            ClusteringState(labels=np.array([0]), centers=np.eye(3)),
            _truth([BYZANTINE], np.eye(3)),
        )
