import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from byzfed.errors import ConfigError
from byzfed.numerics import top_eigenpair
from byzfed.robust_stats import (
    AggregatorSpec,
    aggregate,
    coord_median,
    geometric_median,
    iter_filter_mean,
    trimmed_mean,
)


def _sort_trim_oracle(P, beta):
    t = P.shape[0]
    k = int(np.floor(beta * t))
    out = np.empty(P.shape[1])
    for j in range(P.shape[1]):
        col = np.sort(P[:, j].copy())
        out[j] = col[k : t - k].mean()
    return out


def _grid_geomedian_oracle(P, lo, hi, steps=200, refinements=3):
    """2-D grid search with successive refinement around the best cell."""
    best = None
    for _ in range(refinements):
        xs = np.linspace(lo[0], hi[0], steps)
        ys = np.linspace(lo[1], hi[1], steps)
        XX, YY = np.meshgrid(xs, ys)
        grid = np.stack([XX.ravel(), YY.ravel()], axis=1)
        cost = np.linalg.norm(grid[:, None, :] - P[None, :, :], axis=2).sum(axis=1)
        best = grid[np.argmin(cost)]
        span = (hi - lo) / steps * 4
        lo, hi = best - span, best + span
    return best


def _weiszfeld_oracle(P, tol, max_iter):
    """The Weiszfeld loop as written before its per-iteration overhead
    was cut: norms through np.linalg.norm, row selections always copied."""
    y = P.mean(axis=0)
    for _ in range(max_iter):
        diff = P - y
        dist = np.linalg.norm(diff, axis=1)
        coincident = dist <= 1e-12
        if coincident.all():
            return P[0].copy()
        w = 1.0 / dist[~coincident]
        T = (P[~coincident] * w[:, None]).sum(axis=0) / w.sum()
        eta = int(coincident.sum())
        if eta == 0:
            y_new = T
        else:
            R = (diff[~coincident] * w[:, None]).sum(axis=0)
            r = np.linalg.norm(R)
            if r <= 1e-12:
                return y
            gamma = min(1.0, eta / r)
            y_new = (1.0 - gamma) * T + gamma * y
        if np.linalg.norm(y_new - y) <= tol * max(1.0, np.linalg.norm(y)):
            return y_new
        y = y_new
    return y


def _covariance_filter_oracle(P, variance_bound=None, max_rounds=20):
    """The spectral filter as written before the Gram-side rounds: every
    round decomposes the d x d covariance of the survivors."""
    t = P.shape[0]
    drop_per_round = math.ceil(0.05 * t)
    min_survivors = math.ceil(t / 2)
    alive = np.arange(t)
    for _ in range(max_rounds):
        surv = P[alive]
        mu = surv.mean(axis=0)
        centered = surv - mu
        lam, v = top_eigenpair(centered.T @ centered / len(alive))
        proj = centered @ v
        if variance_bound is None:
            med = np.median(proj)
            bound = 4.0 * (1.4826 * float(np.median(np.abs(proj - med)))) ** 2
        else:
            bound = variance_bound
        if lam <= bound:
            return mu
        n_drop = min(drop_per_round, len(alive) - min_survivors)
        if n_drop <= 0:
            return mu
        order = np.argsort(proj**2, kind="stable")
        alive = np.sort(alive[order[: len(alive) - n_drop]])
    return P[alive].mean(axis=0)


# ---------------------------------------------------------------------------
# trimmed mean


def test_trimmed_mean_pinned_example():
    pts = np.array([[1.0], [2.0], [3.0], [4.0], [100.0]])
    np.testing.assert_allclose(trimmed_mean(pts, 0.2), [3.0])


def test_trimmed_mean_beta_zero_is_mean(rng):
    P = rng.standard_normal((9, 4))
    # equality up to summation order (the trim path accumulates sorted)
    np.testing.assert_allclose(trimmed_mean(P, 0.0), P.mean(axis=0), rtol=1e-13)


def test_trimmed_mean_identical_points():
    P = np.tile([2.5, -1.0], (7, 1))
    np.testing.assert_array_equal(trimmed_mean(P, 0.4), [2.5, -1.0])


def test_trimmed_mean_matches_sort_oracle(rng):
    for _ in range(50):
        t = int(rng.integers(1, 25))
        d = int(rng.integers(1, 6))
        beta = float(rng.uniform(0.0, 0.49))
        P = rng.standard_normal((t, d)) * 10
        got = trimmed_mean(P, beta)
        np.testing.assert_array_equal(got, _sort_trim_oracle(P, beta))


def test_trimmed_mean_rejects_bad_beta():
    P = np.zeros((4, 2))
    with pytest.raises(ConfigError):
        trimmed_mean(P, 0.5)
    with pytest.raises(ConfigError):
        trimmed_mean(P, -0.1)


def test_trimmed_mean_breakdown(rng):
    # with beta at least the contamination fraction, planted 1e6 outliers
    # are removed entirely
    clean = rng.standard_normal((20, 3))
    polluted = clean.copy()
    polluted[:4] = 1e6
    got = trimmed_mean(polluted, 0.2)
    rng_width = clean.max(axis=0) - clean.min(axis=0)
    assert np.all(np.abs(got - clean.mean(axis=0)) <= rng_width)


# ---------------------------------------------------------------------------
# coordinate-wise median


def test_coord_median_pinned_examples():
    np.testing.assert_array_equal(coord_median(np.array([[1.0], [3.0], [100.0]])), [3.0])
    np.testing.assert_array_equal(
        coord_median(np.array([[0.0, 5.0], [2.0, 1.0]])), [1.0, 3.0]
    )


def test_coord_median_matches_sort_oracle(rng):
    for _ in range(50):
        t = int(rng.integers(1, 30))
        d = int(rng.integers(1, 5))
        P = rng.standard_normal((t, d)) * 5
        got = coord_median(P)
        col_sorted = np.sort(P, axis=0)
        if t % 2:
            oracle = col_sorted[t // 2]
        else:
            oracle = 0.5 * (col_sorted[t // 2 - 1] + col_sorted[t // 2])
        np.testing.assert_array_equal(got, oracle)


def test_coord_median_outlier_resistance(rng):
    P = rng.standard_normal((11, 2))
    P[0] = [1e6, -1e6]
    med = coord_median(P)
    assert np.all(np.abs(med) < 10)


# ---------------------------------------------------------------------------
# geometric median


def test_geomedian_single_point():
    np.testing.assert_array_equal(geometric_median(np.array([[3.0, -2.0]])), [3.0, -2.0])


def test_geomedian_coincident_points():
    P = np.tile([1.0, 2.0, 3.0], (5, 1))
    np.testing.assert_allclose(geometric_median(P), [1.0, 2.0, 3.0], atol=1e-12)


def test_geomedian_symmetric_cross():
    P = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    np.testing.assert_allclose(geometric_median(P), [0.0, 0.0], atol=1e-6)


def test_geomedian_matches_grid_oracle(rng):
    for _ in range(10):
        P = rng.uniform(-1, 1, size=(7, 2))
        got = geometric_median(P, tol=1e-10)
        oracle = _grid_geomedian_oracle(P, P.min(axis=0) - 0.1, P.max(axis=0) + 0.1)
        assert np.linalg.norm(got - oracle) < 1e-3


def test_geomedian_objective_not_worse_than_mean(rng):
    P = rng.standard_normal((15, 4))
    g = geometric_median(P)

    def cost(y):
        return np.linalg.norm(P - y, axis=1).sum()

    assert cost(g) <= cost(P.mean(axis=0)) + 1e-9


def test_geomedian_majority_resistance(rng):
    # up to floor((t-1)/2) wild points cannot drag the estimate outside
    # the clean hull scale
    clean = rng.standard_normal((11, 3))
    P = clean.copy()
    P[:5] = 1e6
    g = geometric_median(P)
    assert np.linalg.norm(g) <= np.abs(clean).max() * 4 + 1.0


def test_geomedian_iterate_on_data_point():
    # mean of the set coincides with a data point: the singularity-free
    # branch must still make progress toward the true median
    P = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 3.0], [0.0, -3.0]])
    assert P.mean(axis=0) in P
    g = geometric_median(P)
    np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-6)


# the point set of test_geomedian_iterate_on_data_point and small integer
# lattices: the mean is a data point, so the coincident branch runs
_ON_DATA_POINT = [
    np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 3.0], [0.0, -3.0]]),
    np.array(list(itertools.product(range(-1, 2), repeat=2)), dtype=float),
    np.array(list(itertools.product(range(3), repeat=3)), dtype=float),
    np.array(list(itertools.product(range(-2, 3), [-1.0, 0.0, 1.0])), dtype=float),
]


@pytest.mark.parametrize("tol, max_iter", [(1e-7, 500), (1e-10, 1000), (0.0, 40), (1e-3, 3), (1e-7, 1)])
def test_geomedian_matches_weiszfeld_oracle(rng, tol, max_iter):
    assert all(any((P == P.mean(axis=0)).all(axis=1)) for P in _ON_DATA_POINT)
    sets = [rng.standard_normal((t, d)) * rng.uniform(0.1, 10.0) for t, d in [(2, 1), (7, 2), (20, 100), (45, 10)]]
    heavy = rng.standard_normal((30, 5))
    heavy[:9] += 50.0
    sets.append(heavy)
    for P in sets + _ON_DATA_POINT:
        assert np.array_equal(geometric_median(P, tol=tol, max_iter=max_iter), _weiszfeld_oracle(P, tol, max_iter))


# ---------------------------------------------------------------------------
# iterative filtering


def test_iter_filter_identical_points():
    P = np.tile([4.0, 2.0], (10, 1))
    np.testing.assert_allclose(iter_filter_mean(P, variance_bound=1.0), [4.0, 2.0])


def test_iter_filter_removes_planted_cluster(rng):
    P = np.vstack([rng.standard_normal((90, 2)), np.full((10, 2), 50.0)])
    got = iter_filter_mean(P, variance_bound=4.0)
    naive = P.mean(axis=0)
    assert np.linalg.norm(got) < 0.5
    assert np.linalg.norm(got) < np.linalg.norm(naive)


def test_iter_filter_no_trigger_equals_mean(rng):
    P = rng.standard_normal((40, 3))
    mu = P.mean(axis=0)
    centered = P - mu
    lam_max = np.linalg.eigvalsh(centered.T @ centered / 40)[-1]
    got = iter_filter_mean(P, variance_bound=2.0 * lam_max)
    np.testing.assert_array_equal(got, mu)


def test_iter_filter_survivor_floor(rng):
    # a bound of zero can never be met, so filtering runs until the
    # survivor floor: at least half the points must remain in the mean
    P = rng.standard_normal((20, 2))
    got = iter_filter_mean(P, variance_bound=0.0, max_rounds=1000)
    assert np.all(np.isfinite(got))
    # the output stays within the data hull
    assert np.all(got >= P.min(axis=0)) and np.all(got <= P.max(axis=0))


def test_iter_filter_adaptive_bound(rng):
    P = np.vstack([rng.standard_normal((95, 3)), np.full((5, 3), 40.0)])
    got = iter_filter_mean(P)  # MAD-derived bound
    assert np.linalg.norm(got) < np.linalg.norm(P.mean(axis=0))


def _planted(rng, t, d):
    """Gaussian reports with a fifth of them shifted along one direction."""
    P = rng.standard_normal((t, d))
    P[: t // 5] += 6.0 * rng.standard_normal(d) / math.sqrt(d) + 3.0
    return P


@pytest.mark.parametrize("variance_bound", [None, 3.0])
@pytest.mark.parametrize("t, d", [(12, 100), (20, 100), (40, 30), (100, 100)])
def test_iter_filter_matches_covariance_oracle(rng, t, d, variance_bound):
    # the Gram-side v can differ from the covariance-side v in the last
    # bits, so equality holds on these inputs (no near-ties), not in general
    filtered = 0
    for _ in range(4):
        P = _planted(rng, t, d)
        got = iter_filter_mean(P, variance_bound=variance_bound)
        assert np.array_equal(got, _covariance_filter_oracle(P, variance_bound))
        filtered += not np.array_equal(got, P.mean(axis=0))
    assert filtered  # the filter dropped points, not just returned the mean


def _first_round_proj(P):
    C = P - P.mean(axis=0)
    _, u = top_eigenpair(C @ C.T / len(P))
    v = C.T @ u
    return C @ (v / np.sqrt(v @ v))


def _mirrored_single_support(rng, pairs, d=100):
    """Mirrored pairs +-x of reports that each move one coordinate:
    x = 10 e_0 first, then a_k e_k with quarter-integer a_k in [0.25, 2],
    rows shuffled. The mean is exactly 0 and every centered row has one
    nonzero entry, so its projection onto any v is one rounded product,
    whatever order BLAS sums in, and partners' squared projections tie."""
    X = np.zeros((pairs, d))
    X[0, 0] = 10.0
    k = np.arange(1, pairs)
    X[k, k] = rng.integers(1, 9, size=pairs - 1) / 4.0
    P = np.vstack([X, -X])
    return P[rng.permutation(len(P))]


@pytest.mark.parametrize("variance_bound", [None, 0.5, 2.0])
@pytest.mark.parametrize("copies", [1, 2])
def test_iter_filter_gram_side_ties_match_oracle(rng, variance_bound, copies):
    # copies=1: t=20 mirrored reports; copies=2: each of them sent twice
    # (t=40). The reports +-10 e_0 tie on top, and one round must drop the
    # ceil(0.05 t) of them with the largest indices, as the old filter did.
    # Only the first round is checked: later rounds have dense centered
    # rows, where equal reports can round differently by row position in
    # BLAS, so equality with the old filter there is measured, not built in.
    P = np.repeat(_mirrored_single_support(rng, 10), copies, axis=0)
    tied = np.flatnonzero(P[:, 0])
    proj = _first_round_proj(P)
    assert len(np.unique(proj[tied] ** 2)) == 1
    keep = np.setdiff1d(np.arange(len(P)), tied[-math.ceil(0.05 * len(P)) :])
    got = iter_filter_mean(P, variance_bound, max_rounds=1)
    assert np.array_equal(got, P[keep].mean(axis=0))
    assert np.array_equal(got, _covariance_filter_oracle(P, variance_bound, max_rounds=1))


@pytest.mark.parametrize("variance_bound", [None, 0.0, 1.0])
def test_iter_filter_identical_points_gram_side(variance_bound):
    # zero spread at t < d: quarter-integer rows have an exact mean, so the
    # centered rows are 0, lam = 0, there is no direction, and the mean
    # comes back without dividing 0 by 0
    P = np.tile(np.arange(-20, 20) / 4.0, (6, 1))
    with np.errstate(all="raise"):
        got = iter_filter_mean(P, variance_bound=variance_bound)
    assert np.array_equal(got, P[0])
    assert np.array_equal(got, _covariance_filter_oracle(P, variance_bound))


def test_iter_filter_returns_a_lone_point():
    # one report is its own mean with zero covariance, so the filter
    # returns it, as the other aggregators do a one-machine cluster's
    for d in (1, 2, 5):
        P = np.random.default_rng(d).standard_normal((1, d))
        for variance_bound in (None, 0.0, 3.0):
            with np.errstate(all="raise"):
                assert np.array_equal(iter_filter_mean(P, variance_bound=variance_bound), P[0])
        assert np.array_equal(aggregate(P, AggregatorSpec("iter_filter")), P[0])
    with pytest.raises(ConfigError):
        iter_filter_mean(np.zeros((3, 2)), max_rounds=0)


# ---------------------------------------------------------------------------
# aggregator dispatch


def test_aggregate_dispatch_matches_functions(rng):
    # aggregate validates once and calls the estimators' kernels: the same
    # bits and shape as the public functions, NaN never passing as equal
    P = rng.standard_normal((12, 3))
    P[:2] += 20.0  # outliers, so the adaptive filter drops points
    cases = [
        (AggregatorSpec("sample_mean"), P.mean(axis=0)),
        (AggregatorSpec("trimmed_mean", beta=0.25), trimmed_mean(P, 0.25)),
        (AggregatorSpec("coord_median"), coord_median(P)),
        (AggregatorSpec("geo_median"), geometric_median(P)),
        (AggregatorSpec("iter_filter"), iter_filter_mean(P)),
    ]
    for spec, expected in cases:
        assert np.array_equal(aggregate(P, spec), expected), spec.kind


def test_aggregator_spec_validation():
    with pytest.raises(ConfigError):
        AggregatorSpec("nonsense")
    with pytest.raises(ConfigError):
        AggregatorSpec("trimmed_mean", beta=0.7)
    # only the trimmed mean reads beta; the other kinds keep 0.0
    for kind in ("sample_mean", "coord_median", "geo_median", "iter_filter"):
        with pytest.raises(ConfigError, match="takes no beta"):
            AggregatorSpec(kind, beta=0.3)
        assert AggregatorSpec(kind, beta=0.0) == AggregatorSpec(kind)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("geo_median", "max_iter", 0),
        ("geo_median", "max_iter", -3),
        ("geo_median", "max_iter", 2.5),
        ("geo_median", "max_iter", True),
        ("geo_median", "tol", -1e-9),
        ("geo_median", "tol", float("nan")),
        ("geo_median", "tol", float("inf")),
        ("iter_filter", "max_rounds", 0),
        ("iter_filter", "max_rounds", -1),
        ("iter_filter", "max_rounds", 2.5),
        ("iter_filter", "max_rounds", 20.0),
        ("iter_filter", "variance_bound", -0.5),
        ("iter_filter", "variance_bound", float("nan")),
        ("iter_filter", "variance_bound", float("inf")),
    ],
)
def test_aggregator_spec_rejects_bad_parameter(kind, field, value):
    # aggregate runs these estimators at their defaults, so the spec has no
    # field for their parameters; the estimator that reads one checks it
    with pytest.raises(TypeError, match=f"'{field}'"):
        AggregatorSpec(kind, **{field: value})
    estimator = geometric_median if kind == "geo_median" else iter_filter_mean
    with pytest.raises(ConfigError, match=field):
        estimator(np.zeros((3, 2)), **{field: value})


def test_aggregator_spec_accepts_edge_parameters():
    AggregatorSpec("trimmed_mean", beta=0.0)
    AggregatorSpec("trimmed_mean", beta=0.49)
    P = np.arange(6.0).reshape(3, 2)
    geometric_median(P, tol=0.0, max_iter=1)
    iter_filter_mean(P, variance_bound=None, max_rounds=1)
    iter_filter_mean(P, variance_bound=0.0)
    iter_filter_mean(P, max_rounds=np.int64(3))


def test_aggregate_accepts_1d_input():
    out = aggregate(np.array([1.0, 2.0, 9.0]), AggregatorSpec("coord_median"))
    np.testing.assert_array_equal(out, [2.0])


def test_estimators_reject_nonfinite():
    bad = np.array([[1.0, 2.0], [np.nan, 0.0]])
    for spec in (
        AggregatorSpec("sample_mean"),
        AggregatorSpec("trimmed_mean", beta=0.1),
        AggregatorSpec("coord_median"),
        AggregatorSpec("geo_median"),
        AggregatorSpec("iter_filter"),
    ):
        with pytest.raises(ConfigError):
            aggregate(bad, spec)


# ---------------------------------------------------------------------------
# shared estimator properties

finite_points = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 4)),
    elements=st.floats(-100, 100, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(finite_points, st.floats(-50, 50, allow_nan=False))
def test_translation_equivariance(P, c):
    shift = np.full(P.shape[1], c)
    for est in (
        lambda Q: trimmed_mean(Q, 0.2),
        coord_median,
        lambda Q: geometric_median(Q, tol=1e-10),
    ):
        base = est(P)
        shifted = est(P + shift)
        np.testing.assert_allclose(shifted, base + shift, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(finite_points, st.randoms(use_true_random=False))
def test_permutation_invariance(P, pyrandom):
    order = list(range(P.shape[0]))
    pyrandom.shuffle(order)
    Q = P[order]
    np.testing.assert_array_equal(trimmed_mean(P, 0.3), trimmed_mean(Q, 0.3))
    np.testing.assert_array_equal(coord_median(P), coord_median(Q))
    np.testing.assert_allclose(
        geometric_median(P, tol=1e-10), geometric_median(Q, tol=1e-10), atol=1e-6
    )


@settings(max_examples=40, deadline=None)
@given(finite_points)
def test_estimates_stay_in_coordinate_hull(P):
    lo, hi = P.min(axis=0), P.max(axis=0)
    for spec in (AggregatorSpec("trimmed_mean", beta=0.2), AggregatorSpec("coord_median"),
                 AggregatorSpec("sample_mean")):
        est = aggregate(P, spec)
        assert np.all(est >= lo - 1e-9) and np.all(est <= hi + 1e-9)
