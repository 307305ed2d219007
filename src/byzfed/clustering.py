"""Clustering of local model vectors with Byzantine points present.

Methods:

* edge_cut_cluster: threshold-graph connected components, no iteration.
* run_lloyd_variant: Lloyd iterations where the per-bucket center rule is
  the sample mean (method lloyd, plain K-means), the geometric median
  (kgeomedian, K-geomedians), or the trimmed rule (trimmed_kmeans:
  geometric median, ball of radius C*sigma*sqrt(d), sample mean of the
  in-ball points).
* iterfilter_2cluster: the symmetric two-cluster method that alternates
  sign estimation with an iterative-filtering mean over sample splits. It
  assumes the centers +theta and -theta, a shape no fleet builder makes,
  so it is a library function and not a ClusterSpec method.

ClusterSpec is the one Stage-II configuration: the method and its knobs.

Misclustering diagnostics live in mismetrics / MisclusterReport; labels
are aligned to the truth with an optimal permutation before any rate is
computed, since estimated buckets carry arbitrary indices.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .components import threshold_components
from .datagen import BYZANTINE, GroundTruth
from .errors import ClusteringError, ConfigError, real_field, require_int, require_read
from .numerics import RngStream, min_cost_assignment
from .robust_stats import geometric_median, iter_filter_mean

__all__ = [
    "ClusterSpec",
    "ClusteringState",
    "MisclusterReport",
    "edge_cut_cluster",
    "run_lloyd_variant",
    "iterfilter_2cluster",
    "warm_start_init",
    "mismetrics",
]

logger = logging.getLogger(__name__)

_CLUSTER_METHODS = ("edge_cut", "lloyd", "kgeomedian", "trimmed_kmeans")

# ClusterSpec's method-dependent fields and the methods that read them
_READERS = {
    "C": ("trimmed_kmeans",),
    "sigma_hat": ("trimmed_kmeans",),
    "max_iter": ("lloyd", "kgeomedian", "trimmed_kmeans"),
    "gamma": ("edge_cut",),
    "min_cluster": ("edge_cut",),
}


@dataclass(frozen=True)
class ClusteringState:
    """Assignment snapshot after some number of iterations.

    trimmed[i] is True when machine i's point was excluded from its
    bucket's center estimate during the step that produced this state.
    States are immutable; every iteration builds a fresh one.
    """

    labels: np.ndarray
    centers: np.ndarray
    trimmed: np.ndarray | None = None
    iteration: int = 0

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        centers = np.asarray(self.centers, dtype=float)
        trimmed = (
            np.zeros(labels.shape[0], dtype=bool)
            if self.trimmed is None
            else np.asarray(self.trimmed, dtype=bool)
        )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "trimmed", trimmed)
        if centers.ndim != 2:
            raise ConfigError(f"centers must be (K, d), got {centers.shape}")
        K = centers.shape[0]
        if labels.size and (labels.min() < 0 or labels.max() >= K):
            raise ConfigError(f"labels must lie in [0, {K})")
        if not np.all(np.isfinite(centers)):
            raise ConfigError("centers must be finite")
        if trimmed.shape != labels.shape:
            raise ConfigError("trimmed mask must match labels in length")
        if self.iteration < 0:
            raise ConfigError("iteration must be >= 0")

    @property
    def K(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class MisclusterReport:
    """Misclustering diagnostics at one iteration, truth-aligned.

    miscluster_rate: fraction of honest machines whose label disagrees
        with ground truth under the best label permutation.
    group_error: worst cluster-wise misclustering fraction, the max over
        clusters h of both (wrong-cluster honest members of estimated
        bucket h) / (honest members of bucket h) and (true-h members
        assigned elsewhere) / (size of true cluster h).
    group_error_untrimmed: same, with the first ratio restricted to
        untrimmed points and true-h members trimmed inside bucket h
        charged to the second ratio.
    center_error: max over clusters of center estimate distance to the
        true center, normalized by the minimum true center separation.
    confusion: (K+1, K) counts; row g < K = true cluster g, last row =
        Byzantine machines; column h = aligned estimated bucket h.
    permutation: permutation[g] = raw estimated bucket index aligned to
        true cluster g.
    """

    iteration: int
    miscluster_rate: float
    group_error: float
    group_error_untrimmed: float
    center_error: float
    confusion: np.ndarray
    permutation: np.ndarray


@dataclass(frozen=True)
class ClusterSpec:
    """Stage-II method and its knobs.

    lloyd, kgeomedian and trimmed_kmeans are run_lloyd_variant's center
    rules, iterated at most max_iter times; trimmed_kmeans reads C (ball
    radius multiplier; infinite = no trimming) and sigma_hat (positive;
    None = per-bucket estimate 1.4826 * median ||x - geomedian|| /
    sqrt(d)). gamma/min_cluster belong to edge_cut. The counts are
    integers. A field the method does not read (_READERS) must keep its
    default, so it cannot change the run id of a run it never reaches.
    """

    method: str = "trimmed_kmeans"
    C: float = 2.0
    sigma_hat: float | None = None
    max_iter: int = 15
    gamma: float | None = None
    min_cluster: int = 1

    def __post_init__(self):
        if self.method not in _CLUSTER_METHODS:
            raise ConfigError(
                f"unknown cluster method {self.method!r}; expected one of {_CLUSTER_METHODS}"
            )
        if self.method == "edge_cut" and self.gamma is None:
            raise ConfigError("edge_cut needs gamma")
        real_field(self, "C", positive=True, finite=False)
        real_field(self, "sigma_hat", positive=True, finite=False, optional=True)
        real_field(self, "gamma", positive=True, finite=False, optional=True)
        require_int("max_iter", self.max_iter, 0)
        require_int("min_cluster", self.min_cluster, 1)
        require_read(self, self.method, "cluster method", _READERS)


# ---------------------------------------------------------------------------
# assignment and center steps


def _assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels; equidistant points go to the lowest index.
    The squared distances are filled one center at a time, each the same
    contiguous sum over d as a broadcast (m, K, d) difference would give."""
    d2 = np.empty((len(points), len(centers)))
    for g, c in enumerate(centers):
        d2[:, g] = ((points - c) ** 2).sum(axis=1)
    return np.argmin(d2, axis=1)


def _reseed_empty(points, labels, prev_centers, empty_buckets):
    """Centers for member-less buckets: the points farthest from their own
    assigned (previous) centers, one distinct point per empty bucket."""
    dists = np.linalg.norm(points - prev_centers[labels], axis=1)
    order = np.argsort(-dists, kind="stable")
    return {g: points[order[j]].copy() for j, g in enumerate(sorted(empty_buckets))}


def _center_step(points, state, spec):
    m, d = points.shape
    K = state.K
    new_centers = np.zeros_like(state.centers)
    trimmed = np.zeros(m, dtype=bool)
    empty = []
    for g in range(K):
        members = np.flatnonzero(state.labels == g)
        if members.size == 0:
            empty.append(g)
            continue
        pts = points[members]
        if spec.method == "lloyd":
            new_centers[g] = pts.mean(axis=0)
        elif spec.method == "kgeomedian":
            new_centers[g] = geometric_median(pts)
        else:
            gm = geometric_median(pts)
            dist = np.linalg.norm(pts - gm, axis=1)
            if not math.isfinite(spec.C):
                radius = math.inf
            else:
                sig = spec.sigma_hat
                if sig is None:
                    sig = 1.4826 * float(np.median(dist)) / math.sqrt(d)
                radius = spec.C * sig * math.sqrt(d)
            keep = dist <= radius
            trimmed[members[~keep]] = True
            if keep.any():
                new_centers[g] = pts[keep].mean(axis=0)
            else:
                # every member trimmed: keep the previous center
                new_centers[g] = state.centers[g]
    if empty:
        for g, c in _reseed_empty(points, state.labels, state.centers, empty).items():
            new_centers[g] = c
    return new_centers, trimmed


def _step(points, state, spec):
    """One Lloyd iteration: per-bucket centers by the spec's rule (a
    fully-trimmed bucket keeps its previous center, a member-less bucket
    re-seeds at the point farthest from its own assigned center), then
    every point relabeled to the nearest new center, ties to the lowest
    index."""
    new_centers, trimmed = _center_step(points, state, spec)
    labels = _assign(points, new_centers)
    return ClusteringState(
        labels=labels, centers=new_centers, trimmed=trimmed, iteration=state.iteration + 1
    )


def run_lloyd_variant(
    points,
    init: ClusteringState,
    spec: ClusterSpec,
    ground_truth: GroundTruth | None = None,
) -> tuple[ClusteringState, list[MisclusterReport]]:
    """Iterate the step of spec.method (lloyd, kgeomedian or
    trimmed_kmeans) until labels stop changing or spec.max_iter.

    With ground truth supplied, a MisclusterReport is emitted for the
    initial state and after every iteration.
    """
    if spec.method not in ("lloyd", "kgeomedian", "trimmed_kmeans"):
        raise ConfigError(f"{spec.method} has no Lloyd step")
    points = np.asarray(points, dtype=float)
    state = init
    reports = []
    if ground_truth is not None:
        reports.append(mismetrics(state, ground_truth))
    for _ in range(spec.max_iter):
        nxt = _step(points, state, spec)
        if ground_truth is not None:
            reports.append(mismetrics(nxt, ground_truth))
        converged = np.array_equal(nxt.labels, state.labels)
        state = nxt
        if converged:
            break
    return state, reports


# ---------------------------------------------------------------------------
# threshold-graph clustering


def edge_cut_cluster(points, gamma: float, min_cluster: int = 1) -> ClusteringState:
    """Cluster by cutting all pairwise edges of length >= gamma.

    Two points are joined iff ||p_i - p_j|| < gamma, decided exactly on
    the float inputs (components.threshold_components); a pair at exactly
    gamma is cut. Connected components with at least min_cluster points
    become clusters (center = component mean); points of smaller
    components are attached to the nearest surviving center.
    """
    points = np.asarray(points, dtype=float)
    comps = threshold_components(points, gamma)
    surviving = [c for c in comps if len(c) >= min_cluster]
    if not surviving:
        raise ClusteringError(
            f"no component reaches min_cluster={min_cluster} at gamma={gamma}"
        )
    centers = np.stack([points[c].mean(axis=0) for c in surviving])
    labels = np.empty(points.shape[0], dtype=int)
    labels.fill(-1)
    for k, comp in enumerate(surviving):
        labels[comp] = k
    leftovers = np.flatnonzero(labels < 0)
    if leftovers.size:
        labels[leftovers] = _assign(points[leftovers], centers)
    return ClusteringState(labels=labels, centers=centers, iteration=0)


# ---------------------------------------------------------------------------
# symmetric two-cluster method


def _sign_labels(points: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """argmin over nu in {-1,+1} of ||nu*y - theta||^2 = sign(<y, theta>),
    with ties (zero inner product) resolved to +1."""
    s = points @ theta
    return np.where(s >= 0, 1, -1)


def iterfilter_2cluster(
    points,
    theta0,
    T: int,
    variance_bound: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric 2-cluster estimation by sample splitting.

    The points are split into T batches of floor(m/T); batch t estimates
    signs against the running center, then refreshes the center with
    iter_filter_mean (at variance_bound; None estimates it from the
    batch) of the sign-corrected batch. Remainder points (m not divisible
    by T) take no part in estimation but are labeled in the final pass,
    which relabels every point against the last center.

    Returns (theta_hat, labels) with labels in {+1, -1}.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ConfigError(f"expected (m, d) points, got shape {points.shape}")
    m = points.shape[0]
    require_int("T", T, 1)
    if m < T:
        raise ConfigError(f"need at least T={T} points, got {m}")

    batch = m // T
    n_rem = m - batch * T
    if n_rem:
        logger.info("iterfilter_2cluster: %d remainder points excluded from estimation", n_rem)
    theta = np.asarray(theta0, dtype=float).copy()
    for t in range(T):
        chunk = points[t * batch : (t + 1) * batch]
        nu = _sign_labels(chunk, theta)
        theta = iter_filter_mean(nu[:, None] * chunk, variance_bound=variance_bound)
    labels = _sign_labels(points, theta)
    return theta, labels


# ---------------------------------------------------------------------------
# initialization


def warm_start_init(
    points,
    ground_truth: GroundTruth,
    correct_fraction: float,
    *,
    seed: int = 0,
) -> ClusteringState:
    """Partially-correct initial assignment into ground_truth.K buckets.

    A random ceil(correct_fraction * count) subset of the honest machines
    keeps its true label; every other honest machine draws a uniformly
    random wrong label, and Byzantine machines draw uniform labels.
    Initial centers are bucket sample means, by the Lloyd center step
    from the overall mean: an empty bucket re-seeds at the point farthest
    from the mean of all points.
    """
    if not 0.0 <= correct_fraction <= 1.0:
        raise ConfigError("correct_fraction must be in [0, 1]")
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    truth_labels = np.asarray(ground_truth.labels)
    if truth_labels.shape[0] != m:
        raise ConfigError("ground truth and points disagree on m")
    K = ground_truth.K
    rng = RngStream(seed, 0).generator()
    labels = np.empty(m, dtype=int)

    honest = np.flatnonzero(truth_labels != BYZANTINE)
    n_keep = int(math.ceil(correct_fraction * honest.size))
    shuffled = rng.permutation(honest)
    keep, corrupt = shuffled[:n_keep], shuffled[n_keep:]
    labels[keep] = truth_labels[keep]
    if K > 1:
        # uniform over the K-1 wrong labels
        draw = rng.integers(0, K - 1, size=corrupt.size)
        wrong = np.where(draw >= truth_labels[corrupt], draw + 1, draw)
        labels[corrupt] = wrong
    else:
        labels[corrupt] = 0
    byz = np.flatnonzero(truth_labels == BYZANTINE)
    labels[byz] = rng.integers(0, K, size=byz.size)

    start = ClusteringState(labels=labels, centers=np.tile(points.mean(axis=0), (K, 1)))
    centers, _ = _center_step(points, start, ClusterSpec(method="lloyd"))
    return ClusteringState(labels=labels, centers=centers, iteration=0)


# ---------------------------------------------------------------------------
# metrics


def _match_labels(confusion: np.ndarray) -> np.ndarray:
    """Permutation perm[g] = estimated bucket matched to true cluster g,
    maximizing the matched honest count (numerics.min_cost_assignment on
    the negated confusion matrix)."""
    rows, cols = min_cost_assignment(-confusion)
    perm = np.empty(confusion.shape[0], dtype=int)
    perm[rows] = cols
    return perm


def mismetrics(state: ClusteringState, ground_truth: GroundTruth) -> MisclusterReport:
    """Misclustering rates and center error against ground truth.

    All quantities are computed after aligning estimated bucket indices to
    true clusters with the permutation that maximizes correctly-assigned
    honest machines, so the report is invariant to relabeling buckets.
    """
    truth_labels = np.asarray(ground_truth.labels)
    centers_true = np.asarray(ground_truth.centers, dtype=float)
    K = state.K
    if centers_true.shape[0] != K:
        raise ConfigError(
            f"estimated K={K} does not match true K={centers_true.shape[0]}"
        )
    if truth_labels.shape[0] != state.labels.shape[0]:
        raise ConfigError("state and ground truth disagree on m")

    est = state.labels
    honest = truth_labels != BYZANTINE
    n_honest = int(honest.sum())
    if n_honest == 0:
        raise ConfigError("ground truth has no honest machines")

    N = np.zeros((K, K), dtype=int)
    np.add.at(N, (truth_labels[honest], est[honest]), 1)
    perm = _match_labels(N)

    matched = int(N[np.arange(K), perm].sum())
    a_s = 1.0 - matched / n_honest

    untr = ~state.trimmed
    m_star = N.sum(axis=1)
    g_s = 0.0
    g_s_u = 0.0
    for h in range(K):
        bucket = est == perm[h]
        right = int(N[h, perm[h]])
        honest_in = int((bucket & honest).sum())
        t1 = (honest_in - right) / honest_in if honest_in else 0.0
        t2 = (m_star[h] - right) / m_star[h] if m_star[h] else 0.0
        g_s = max(g_s, t1, t2)

        honest_in_u = int((bucket & honest & untr).sum())
        right_u = int((bucket & (truth_labels == h) & untr).sum())
        u1 = (honest_in_u - right_u) / honest_in_u if honest_in_u else 0.0
        trimmed_hh = int((bucket & (truth_labels == h) & state.trimmed).sum())
        u2 = (m_star[h] - right + trimmed_hh) / m_star[h] if m_star[h] else 0.0
        g_s_u = max(g_s_u, u1, u2)

    delta = ground_truth.min_separation() if K > 1 else 1.0
    lam = max(
        float(np.linalg.norm(state.centers[perm[h]] - centers_true[h])) / delta
        for h in range(K)
    )

    confusion = np.zeros((K + 1, K), dtype=int)
    confusion[:K, :] = N[:, perm]
    for h in range(K):
        confusion[K, h] = int(((est == perm[h]) & ~honest).sum())

    return MisclusterReport(
        iteration=state.iteration,
        miscluster_rate=float(a_s),
        group_error=float(g_s),
        group_error_untrimmed=float(g_s_u),
        center_error=float(lam),
        confusion=confusion,
        permutation=perm,
    )
