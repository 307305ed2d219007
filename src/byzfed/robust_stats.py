"""Robust location estimators.

These are the center estimates used by both the clustering stage and the
distributed-optimization stage: coordinate-wise trimmed mean, coordinate-wise
median, geometric median (Weiszfeld), and a spectral iterative filter that
repeatedly removes points with extreme projections onto the top covariance
eigenvector. All estimators are pure functions of their input set.

Each public estimator validates its points and calls a private kernel;
aggregate, which runs once per Stage-III round, validates once and calls
the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, real_field, require_int, require_real
from .numerics import top_eigenpair

__all__ = [
    "AggregatorSpec",
    "trimmed_mean",
    "coord_median",
    "geometric_median",
    "iter_filter_mean",
    "aggregate",
]

# the parameters aggregate runs geometric_median and iter_filter_mean at,
# and their defaults
_GEO_MEDIAN_TOL = 1e-7
_GEO_MEDIAN_MAX_ITER = 500
_FILTER_MAX_ROUNDS = 20


def _as_points(points) -> np.ndarray:
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if P.ndim != 2 or P.shape[0] < 1:
        raise ConfigError(f"expected a nonempty (t, d) point array, got shape {P.shape}")
    if not np.isfinite(P).all():
        raise ConfigError("points contain NaN or Inf")
    return P


def trimmed_mean(points, beta: float) -> np.ndarray:
    """Coordinate-wise mean after deleting floor(beta*t) smallest and largest
    values per coordinate.

    beta = 0 is the sample mean. Fixed integer trimming keeps the estimator
    deterministic for small t.
    """
    P = _as_points(points)
    if not 0.0 <= beta < 0.5:
        raise ConfigError(f"trim fraction must be in [0, 0.5), got {beta}")
    return _trimmed_mean(P, beta)


def _trimmed_mean(P, beta):
    t = P.shape[0]
    k = int(math.floor(beta * t))
    # sort row-contiguous so each coordinate's mean accumulates in the same
    # order as a plain 1-D mean of that sorted coordinate (reproducible
    # against a per-coordinate reference regardless of input layout); the
    # copy is always new, so it is sorted in place. np.mean's arithmetic:
    # np.add.reduce, then one division by the count
    S = P.T.copy()
    S.sort(axis=1)
    return np.add.reduce(S[:, k : t - k], axis=1) / (t - 2 * k)


def coord_median(points) -> np.ndarray:
    """Coordinate-wise median; an even count averages the two middle values."""
    return _coord_median(_as_points(points))


def _coord_median(P):
    """np.median(P, axis=0) from one partition of a row-contiguous copy of
    P.T, with np.median's partition indices. np.median returns np.mean of
    the middle one or two values, whose sum starts from 0.0 and so turns a
    -0.0 sum into 0.0; the 0.0 + below does the same."""
    half, odd = divmod(P.shape[0], 2)
    S = P.T.copy()
    if odd:
        S.partition((half, -1), axis=1)
        return 0.0 + S[:, half]
    S.partition((half - 1, half, -1), axis=1)
    return (0.0 + S[:, half - 1] + S[:, half]) / 2.0


def geometric_median(
    points, tol: float = _GEO_MEDIAN_TOL, max_iter: int = _GEO_MEDIAN_MAX_ITER
) -> np.ndarray:
    """Point minimizing the sum of Euclidean distances (Weiszfeld iteration).

    When the iterate coincides with a data point the singularity-free
    update of Vardi and Zhang is used instead of the raw reweighting, so
    the iteration cannot get stuck dividing by zero. Exact for t = 1 or
    when all points coincide. tol is finite and >= 0; max_iter is an
    integer >= 1.
    """
    require_real("tol", tol)
    require_int("max_iter", max_iter, 1)
    return _geometric_median(_as_points(points), tol, max_iter)


def _geometric_median(P, tol, max_iter):
    t = P.shape[0]
    if t == 1:
        return P[0].copy()
    y = P.mean(axis=0)
    # the masked rows below are C-ordered copies; without a coincident point
    # the same C-ordered rows are summed, so the sums keep their order
    C = np.ascontiguousarray(P)
    for _ in range(max_iter):
        diff = P - y
        # np.linalg.norm(diff, axis=1) without its dispatch
        dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
        coincident = dist <= 1e-12
        if not coincident.any():
            w = 1.0 / dist
            y_new = (C * w[:, None]).sum(axis=0) / w.sum()
        elif coincident.all():
            return P[0].copy()
        else:
            w = 1.0 / dist[~coincident]
            T = (P[~coincident] * w[:, None]).sum(axis=0) / w.sum()
            R = (diff[~coincident] * w[:, None]).sum(axis=0)
            r = np.sqrt(R @ R)
            if r <= 1e-12:
                return y  # the current iterate is the median
            gamma = min(1.0, int(coincident.sum()) / r)
            y_new = (1.0 - gamma) * T + gamma * y
        step = y_new - y
        if np.sqrt(step @ step) <= tol * max(1.0, np.sqrt(y @ y)):
            return y_new
        y = y_new
    return y


def _mad_scale(values: np.ndarray) -> float:
    """1.4826 times the median absolute deviation of a 1-D array."""
    med = _coord_median(values[:, None])[0]
    return 1.4826 * float(_coord_median(np.abs(values - med)[:, None])[0])


def iter_filter_mean(
    points, variance_bound: float | None = None, max_rounds: int = _FILTER_MAX_ROUNDS
) -> np.ndarray:
    """Spectral filtering mean.

    Repeat up to max_rounds: compute the survivors' mean and the exact
    top eigenpair (lam, v) of their sample covariance (one LAPACK call per
    round, numerics.top_eigenpair); if lam is within the variance bound,
    return the mean; otherwise remove the ceil(0.05*t) surviving points
    with the largest squared projection onto v, never letting survivors
    drop below t/2. If variance_bound is None it is set per round to
    4 * sigma_hat^2 with sigma_hat a median-absolute-deviation estimate of
    the projection spread along v.

    With s survivors in d dimensions and centered survivors C (s x d), a
    round with s >= d decomposes the d x d covariance C'C/s. A round with
    s < d decomposes the s x s Gram matrix CC'/s instead: it has the same
    top eigenvalue, and its unit eigenvector u gives v = C'u / ||C'u||.
    When the survivors coincide (lam = 0) v is left zero, so every
    projection is 0 and the round returns the mean. variance_bound, when
    given, is finite and >= 0; max_rounds is an integer >= 1.
    """
    require_real("variance_bound", variance_bound, optional=True)
    require_int("max_rounds", max_rounds, 1)
    return _iter_filter_mean(_as_points(points), variance_bound, max_rounds)


def _iter_filter_mean(P, variance_bound, max_rounds):
    t, d = P.shape
    drop_per_round = math.ceil(0.05 * t)
    min_survivors = math.ceil(t / 2)
    alive = np.arange(t)
    for _ in range(max_rounds):
        surv = P[alive]
        n = len(alive)
        mu = surv.mean(axis=0)
        centered = surv - mu
        if n < d:
            lam, u = top_eigenpair(centered @ centered.T / n)
            v = centered.T @ u
            norm = np.sqrt(v @ v)
            if norm > 0.0:
                v /= norm
        else:
            lam, v = top_eigenpair(centered.T @ centered / n)
        proj = centered @ v
        if variance_bound is None:
            bound = 4.0 * _mad_scale(proj) ** 2
        else:
            bound = variance_bound
        if lam <= bound:
            return mu
        n_drop = min(drop_per_round, len(alive) - min_survivors)
        if n_drop <= 0:
            return mu
        # stable order: among bit-equal proj**2 the later index is dropped
        # first; equal reports need not tie, since BLAS may round C @ v
        # differently by row position
        order = np.argsort(proj**2, kind="stable")
        alive = np.sort(alive[order[: len(alive) - n_drop]])
    return P[alive].mean(axis=0)


# ---------------------------------------------------------------------------
# aggregator menu


@dataclass(frozen=True)
class AggregatorSpec:
    """Which robust estimator to use.

    kind is one of sample_mean, trimmed_mean, coord_median, geo_median,
    iter_filter. beta is the trimmed mean's trim fraction, in [0, 0.5);
    the other kinds never read it, and it stays 0.0 for them. An unset
    beta (None) is 0.1 for the trimmed mean and 0.0 for the other kinds.
    The geometric median and the filter run at their functions' defaults.
    """

    kind: str
    beta: float | None = None

    _KINDS = ("sample_mean", "trimmed_mean", "coord_median", "geo_median", "iter_filter")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown aggregator kind {self.kind!r}; expected one of {self._KINDS}")
        if self.beta is None:
            object.__setattr__(self, "beta", 0.1 if self.kind == "trimmed_mean" else 0.0)
        real_field(self, "beta")  # every kind: manifest.json records it
        if self.kind == "trimmed_mean" and self.beta >= 0.5:
            raise ConfigError(f"trim fraction must be in [0, 0.5), got {self.beta}")
        if self.kind != "trimmed_mean" and self.beta != 0.0:
            raise ConfigError(f"aggregator kind {self.kind!r} takes no beta; only 'trimmed_mean' does")


def aggregate(points, spec: AggregatorSpec) -> np.ndarray:
    """Apply the estimator selected by spec to a (t, d) point set.

    The points are validated once here; spec was validated when built."""
    P = _as_points(points)
    kind = spec.kind
    if kind == "sample_mean":
        return P.mean(axis=0)
    if kind == "trimmed_mean":
        return _trimmed_mean(P, spec.beta)
    if kind == "coord_median":
        return _coord_median(P)
    if kind == "geo_median":
        return _geometric_median(P, _GEO_MEDIAN_TOL, _GEO_MEDIAN_MAX_ITER)
    if kind == "iter_filter":
        return _iter_filter_mean(P, None, _FILTER_MAX_ROUNDS)
    raise ConfigError(f"unknown aggregator kind {kind!r}")
