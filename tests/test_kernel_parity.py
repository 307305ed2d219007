"""Bit-equality of the robust-round kernels with their earlier forms.

eigh_evd, Stage I's eigendecomposition, is compared with the
scipy.linalg.eigh call it stands for. The references below are verbatim
copies of top_eigenpair (a call of scipy.linalg.eigh), geometric_median,
_mad_scale and iter_filter_mean as they were before top_eigenpair called
LAPACK's syevr directly and the estimators split into a validating
wrapper and a kernel, and of trimmed_mean and coord_median (np.median)
as they were before their kernels sorted or partitioned one transposed
copy. The current code must return the same bits and raise the same
errors.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from byzfed.errors import ConfigError, require_int
from byzfed.numerics import eigh_evd, top_eigenpair
from byzfed.robust_stats import (
    AggregatorSpec,
    _mad_scale,
    aggregate,
    coord_median,
    geometric_median,
    iter_filter_mean,
    trimmed_mean,
)

# ---------------------------------------------------------------------------
# references


def _ref_top_eigenpair(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"expected a square matrix, got {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > 1e-10 * scale:
        raise ConfigError("matrix is not symmetric within 1e-10")
    d = M.shape[0]
    lam, V = eigh(M, subset_by_index=[d - 1, d - 1])
    return float(lam[0]), V[:, 0]


def _ref_as_points(points):
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if P.ndim != 2 or P.shape[0] < 1:
        raise ConfigError(f"expected a nonempty (t, d) point array, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ConfigError("points contain NaN or Inf")
    return P


def _ref_geometric_median(points, tol=1e-7, max_iter=500):
    P = _ref_as_points(points)
    t = P.shape[0]
    if t == 1:
        return P[0].copy()
    y = P.mean(axis=0)
    for _ in range(max_iter):
        diff = P - y
        # np.linalg.norm(diff, axis=1) without its dispatch
        dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
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
            r = np.sqrt(R @ R)
            if r <= 1e-12:
                return y  # the current iterate is the median
            gamma = min(1.0, eta / r)
            y_new = (1.0 - gamma) * T + gamma * y
        step = y_new - y
        if np.sqrt(step @ step) <= tol * max(1.0, np.sqrt(y @ y)):
            return y_new
        y = y_new
    return y


def _ref_trimmed_mean(points, beta):
    P = _ref_as_points(points)
    if not 0.0 <= beta < 0.5:
        raise ConfigError(f"trim fraction must be in [0, 0.5), got {beta}")
    t = P.shape[0]
    k = int(math.floor(beta * t))
    # sort row-contiguous so each coordinate's mean accumulates in the same
    # order as a plain 1-D mean of that sorted coordinate (reproducible
    # against a per-coordinate reference regardless of input layout)
    S = np.sort(np.ascontiguousarray(P.T), axis=1)
    return S[:, k : t - k].mean(axis=1)


def _ref_coord_median(points):
    P = _ref_as_points(points)
    return np.median(P, axis=0)


def _ref_mad_scale(values):
    med = np.median(values)
    return 1.4826 * float(np.median(np.abs(values - med)))


def _ref_iter_filter_mean(points, variance_bound=None, max_rounds=20):
    P = _ref_as_points(points)
    t, d = P.shape
    if t < 2:
        raise ConfigError("iterative filtering needs at least 2 points")
    require_int("max_rounds", max_rounds, 1)
    drop_per_round = math.ceil(0.05 * t)
    min_survivors = math.ceil(t / 2)
    alive = np.arange(t)
    for _ in range(max_rounds):
        surv = P[alive]
        n = len(alive)
        mu = surv.mean(axis=0)
        centered = surv - mu
        if n < d:
            lam, u = _ref_top_eigenpair(centered @ centered.T / n)
            v = centered.T @ u
            norm = np.sqrt(v @ v)
            if norm > 0.0:
                v /= norm
        else:
            lam, v = _ref_top_eigenpair(centered.T @ centered / n)
        proj = centered @ v
        if variance_bound is None:
            bound = 4.0 * _ref_mad_scale(proj) ** 2
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


def _same_pair(got, want):
    return got[0] == want[0] and np.array_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# full eigendecomposition


@pytest.mark.parametrize("n, d", [(1, 100), (30, 100), (100, 100), (400, 20), (3, 7)])
def test_eigh_evd_equals_scipy_eigh(n, d):
    # Stage I's A_i = X'X/n, rank-deficient where n < d
    X = np.random.default_rng(n * d).standard_normal((n, d))
    for A in (X.T @ X / n, np.zeros((d, d)), np.eye(d)):
        lam, V = eigh(A, driver="evd")
        got_lam, got_V = eigh_evd(A)
        assert np.array_equal(got_lam, lam) and np.array_equal(got_V, V)


# ---------------------------------------------------------------------------
# top eigenpair


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 120),
    rank=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    indefinite=st.booleans(),
)
def test_top_eigenpair_equals_eigh(n, rank, seed, indefinite):
    # rank < n gives a rank-deficient second-moment matrix, like the
    # Gram matrices of the spectral filter
    rng = np.random.default_rng(seed)
    if indefinite:
        A = rng.standard_normal((n, n))
        M = (A + A.T) / 2
    else:
        X = rng.standard_normal((n, min(rank, n)))
        M = X @ X.T / n
    assert _same_pair(top_eigenpair(M), _ref_top_eigenpair(M))


@pytest.mark.parametrize("n", [1, 2, 7, 20, 100])
def test_top_eigenpair_equals_eigh_on_special_matrices(n):
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.linspace(0.0, 1.0, n)
    spectrum[-2:] = 3.0  # a repeated top eigenvalue
    repeated = (Q * spectrum) @ Q.T
    repeated = (repeated + repeated.T) / 2
    C = rng.standard_normal((n, 3))
    C -= C.mean(axis=0)
    for M in (np.zeros((n, n)), np.eye(n), repeated, C @ C.T / n, np.asfortranarray(C @ C.T)):
        assert _same_pair(top_eigenpair(M), _ref_top_eigenpair(M))


def _outcome(f, M):
    try:
        return "ok", f(M)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("action", ["ignore", "error"])
@pytest.mark.parametrize(
    "where, value",
    [((0, 0), np.nan), ((1, 2), np.nan), ((2, 2), np.inf), ((0, 1), -np.inf), ((3, 3), -np.inf)],
)
def test_top_eigenpair_non_finite_raises_as_eigh(where, value, action):
    # "error" turns a floating-point warning on the way into an exception,
    # as the tier-1 warning filter does inside byzfed
    M = np.eye(4)
    M[where] = value
    M_sym = M.copy()
    M_sym[where[::-1]] = value
    for case in (M, M_sym):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            got, want = _outcome(top_eigenpair, case), _outcome(_ref_top_eigenpair, case)
        assert got[0] != "ok" and got == want


def test_top_eigenpair_shape_errors_unchanged():
    for M in (np.zeros((2, 3)), np.zeros(3), np.zeros((0, 0)), [[0.0, 1.0], [0.0, 0.0]]):
        assert _outcome(top_eigenpair, M) == _outcome(_ref_top_eigenpair, M)


# ---------------------------------------------------------------------------
# geometric median


def _layout(P, kind):
    if kind == "fortran":
        return np.asfortranarray(P)
    if kind == "strided":
        wide = np.zeros((P.shape[0] * 2, P.shape[1]))
        wide[::2] = P
        return wide[::2]
    return P


@settings(max_examples=80, deadline=None)
@given(
    t=st.integers(1, 30),
    d=st.integers(1, 12),
    copies=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["c", "fortran", "strided"]),
    tol=st.sampled_from([1e-7, 1e-12, 0.0]),
    max_iter=st.integers(1, 60),
)
def test_geometric_median_equals_reference(t, d, copies, seed, layout, tol, max_iter):
    # copies > 1 repeats rows, so iterates can land on coincident points
    rng = np.random.default_rng(seed)
    P = np.repeat(rng.standard_normal((t, d)), copies, axis=0)
    P = _layout(P, layout)
    got = geometric_median(P, tol=tol, max_iter=max_iter)
    assert np.array_equal(got, _ref_geometric_median(P, tol=tol, max_iter=max_iter))
    # aggregate runs the function at its defaults
    assert np.array_equal(aggregate(P, AggregatorSpec("geo_median")), geometric_median(P))


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("arms", [1, 2, 4])
def test_geometric_median_coincident_iterate_equals_reference(d, arms):
    # a center point with symmetric arms: the first iterate (the mean) is a
    # data point, so the Vardi-Zhang branch runs; shifted arms move on
    rng = np.random.default_rng(10 * d + arms)
    center = rng.standard_normal(d)
    S = rng.standard_normal((arms, d))
    for shift in (0.0, 0.3):
        P = np.vstack([center, center + S, center - S + shift])
        assert np.array_equal(geometric_median(P), _ref_geometric_median(P))
    P = np.tile(center, (5, 1))  # every point coincides
    assert np.array_equal(geometric_median(P), _ref_geometric_median(P))


# ---------------------------------------------------------------------------
# trimmed mean and coordinate median


def _same_bits(got, want):
    # np.array_equal reads -0.0 == 0.0; the kernels must keep the sign too
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _tied_points(rng, t, d, kind):
    if kind == "zeros":  # signed zeros tie with each other
        return rng.choice([-0.0, 0.0, -1.0, 1.0, 2.0], size=(t, d))
    if kind == "rounded":
        return np.round(rng.standard_normal((t, d)), 1)
    return rng.standard_normal((t, d))


@settings(max_examples=150, deadline=None)
@given(
    t=st.integers(1, 60),
    d=st.integers(1, 12),
    kind=st.sampled_from(["zeros", "rounded", "normal"]),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["c", "fortran", "strided"]),
    beta=st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.49]),
)
def test_trimmed_mean_and_coord_median_equal_reference(t, d, kind, seed, layout, beta):
    P = _layout(_tied_points(np.random.default_rng(seed), t, d, kind), layout)
    before = P.copy()
    want = _ref_trimmed_mean(P, beta)
    assert _same_bits(trimmed_mean(P, beta), want)
    assert _same_bits(aggregate(P, AggregatorSpec("trimmed_mean", beta=beta)), want)
    want = _ref_coord_median(P)
    assert _same_bits(coord_median(P), want)
    assert _same_bits(aggregate(P, AggregatorSpec("coord_median")), want)
    assert _same_bits(P, before)  # the kernels sort or partition a copy


@pytest.mark.parametrize("t", [1, 2, 3, 4, 19, 20, 24, 25])
def test_trimmed_mean_and_coord_median_on_odd_and_even_counts(t):
    rng = np.random.default_rng(t)
    for kind in ("zeros", "rounded", "normal"):
        for d in (1, 100):  # d = 1: P.T of a C-ordered P is C-ordered too
            P = _tied_points(rng, t, d, kind)
            before = P.copy()
            for beta in (0.0, 0.2, 0.3):
                assert _same_bits(trimmed_mean(P, beta), _ref_trimmed_mean(P, beta))
            assert _same_bits(coord_median(P), _ref_coord_median(P))
            assert _same_bits(P, before)


# ---------------------------------------------------------------------------
# spectral filter and its MAD scale


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
    ),
    tie=st.booleans(),
)
def test_mad_scale_equals_median_form(values, tie):
    v = np.array(values + values[:3] if tie else values)  # tie repeats values
    assert _mad_scale(v) == _ref_mad_scale(v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 19, 20])
def test_mad_scale_equals_median_form_on_odd_and_even_lengths(n):
    v = np.random.default_rng(n).standard_normal(n)
    for values in (v, np.round(v, 1), np.abs(v)):  # rounding makes ties
        assert _mad_scale(values) == _ref_mad_scale(values)


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(2, 60),
    d=st.integers(1, 40),
    outliers=st.floats(0.0, 0.4),
    copies=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    variance_bound=st.sampled_from([None, 0.5, 3.0]),
    max_rounds=st.integers(1, 20),
)
def test_iter_filter_equals_reference(t, d, outliers, copies, seed, variance_bound, max_rounds):
    # t < d runs the Gram side, t >= d the covariance side; planted
    # outliers make the filter drop points, copies make projections tie
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((t, d))
    k = int(outliers * t)
    P[:k] += 8.0 * rng.standard_normal(d)
    P = np.repeat(P, copies, axis=0)
    got = iter_filter_mean(P, variance_bound=variance_bound, max_rounds=max_rounds)
    want = _ref_iter_filter_mean(P, variance_bound=variance_bound, max_rounds=max_rounds)
    assert np.array_equal(got, want)
    # aggregate runs the function at its defaults
    assert np.array_equal(aggregate(P, AggregatorSpec("iter_filter")), iter_filter_mean(P))


@pytest.mark.parametrize("t, d", [(20, 100), (100, 20), (40, 40)])
def test_iter_filter_equals_reference_when_it_filters(t, d):
    rng = np.random.default_rng(t + d)
    P = rng.standard_normal((t, d))
    P[: t // 5] = 10.0 * rng.standard_normal((t // 5, d))  # Gaussian attack reports
    got = iter_filter_mean(P)
    assert not np.array_equal(got, P.mean(axis=0))
    assert np.array_equal(got, _ref_iter_filter_mean(P))
