"""Synthetic fleet generation and external dataset ingestion.

The synthetic fleet is a mixture of linear regressions: K regression
vectors drawn elementwise from Bernoulli(1/2), honest machines dealt
uniformly onto the K clusters, and a ceil(alpha*m) fraction of Byzantine
machines whose data comes from corrupt coefficient vectors drawn from
3*Bernoulli(1/2). Ingestion turns an unlabeled feature matrix into a fleet
by threshold-graph connected components, per-component sharding, and
synthetic adversarial shards; the components draw nothing, so
layout_components computes them once and shard_components draws each
seed's shards from that layout.

Roles (true_cluster / Byzantine) are ground-truth metadata: clustering and
optimization code never reads them, except where the fleet layer injects
adversarial behavior by design.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .components import threshold_components
from .errors import ConfigError, DataError, real_field, require_int
from .numerics import RngStream

__all__ = [
    "BYZANTINE",
    "ComponentLayout",
    "FleetConfig",
    "WorkerShard",
    "GroundTruth",
    "generate_fleet",
    "generate_symmetric_mixture",
    "ingest_threshold_graph",
    "layout_components",
    "percentile_gamma",
    "read_points_csv",
    "shard_components",
]

logger = logging.getLogger(__name__)

# label sentinel for machines with no true cluster
BYZANTINE = -1

# stream ids inside one fleet seed: 0 = centers, 1 = assignment, 1000+i = machine i
_STREAM_CENTERS = 0
_STREAM_ASSIGN = 1
_STREAM_MACHINE_BASE = 1000

# entries of the pair differences percentile_gamma holds at once (0.5 MB)
_GAMMA_BLOCK = 1 << 16


@dataclass(frozen=True)
class FleetConfig:
    """The synthetic fleet; its field defaults are the fleet of a config
    that sets none of them."""

    m: int = 20
    n: int = 20
    d: int = 5
    K: int = 2
    alpha: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        for name in ("m", "n", "d", "K"):
            require_int(name, getattr(self, name), 1)
        real_field(self, "alpha")
        if self.alpha >= 0.5:
            raise ConfigError(f"alpha must be in [0, 0.5), got {self.alpha}")
        real_field(self, "sigma")
        if self.K > self.n_honest:
            raise ConfigError(
                f"K={self.K} exceeds the honest machine count {self.n_honest}"
            )
        if self.d < 64 and self.K > 2**self.d:  # the centers are distinct points of {0,1}^d
            raise ConfigError(f"cannot draw {self.K} distinct centers in {{0,1}}^{self.d}")

    @property
    def n_byzantine(self) -> int:
        return int(math.ceil(self.alpha * self.m))

    @property
    def n_honest(self) -> int:
        return self.m - self.n_byzantine


@dataclass(frozen=True)
class WorkerShard:
    """One machine's local dataset.

    y holds the regression targets, or is None for a shard of raw points;
    the data fixes the loss (see localsolve). true_cluster is None for
    Byzantine machines. It is ground-truth metadata only; no clustering
    or optimization operation may read it (the attack layer in the
    optimizer is the single sanctioned reader).
    """

    machine_id: int
    X: np.ndarray
    y: np.ndarray | None
    true_cluster: int | None = None

    @property
    def is_byzantine(self) -> bool:
        return self.true_cluster is None

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class GroundTruth:
    """True centers and per-machine labels (BYZANTINE sentinel = -1)."""

    centers: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.centers, dtype=float)
        for i in range(C.shape[0]):
            for j in range(i + 1, C.shape[0]):
                if np.array_equal(C[i], C[j]):
                    raise ConfigError(f"true centers {i} and {j} coincide")

    @property
    def K(self) -> int:
        return self.centers.shape[0]

    def min_separation(self) -> float:
        C = self.centers
        best = math.inf
        for i in range(C.shape[0]):
            for j in range(i + 1, C.shape[0]):
                best = min(best, float(np.linalg.norm(C[i] - C[j])))
        return best


def _draw_distinct_centers(K: int, d: int, rng: np.random.Generator) -> np.ndarray:
    for _ in range(200):
        C = rng.integers(0, 2, size=(K, d)).astype(float)
        if len({tuple(row) for row in C}) == K:
            return C
    raise DataError("failed to draw pairwise-distinct centers")


def generate_fleet(cfg: FleetConfig, seed: int = 0) -> tuple[list[WorkerShard], GroundTruth]:
    """Build the synthetic mixture-of-regressions fleet.

    Deterministic per seed; every machine draws from its own stream
    keyed by machine_id, so the result is independent of generation order.
    """
    centers = _draw_distinct_centers(cfg.K, cfg.d, RngStream(seed, _STREAM_CENTERS).generator())

    assign_rng = RngStream(seed, _STREAM_ASSIGN).generator()
    ids = np.arange(cfg.m)
    assign_rng.shuffle(ids)
    honest_ids = np.sort(ids[: cfg.n_honest])
    # uniform assignment: shuffle the honest ids, deal round-robin onto clusters
    dealt = honest_ids.copy()
    assign_rng.shuffle(dealt)
    labels = np.full(cfg.m, BYZANTINE, dtype=int)
    for j, mid in enumerate(dealt):
        labels[mid] = j % cfg.K

    shards = []
    for i in range(cfg.m):
        rng = RngStream(seed, _STREAM_MACHINE_BASE + i).generator()
        if labels[i] == BYZANTINE:
            w = 3.0 * rng.integers(0, 2, size=cfg.d).astype(float)
            cluster = None
        else:
            w = centers[labels[i]]
            cluster = int(labels[i])
        X = rng.standard_normal((cfg.n, cfg.d))
        y = X @ w + cfg.sigma * rng.standard_normal(cfg.n)
        shards.append(WorkerShard(machine_id=i, X=X, y=y, true_cluster=cluster))
    return shards, GroundTruth(centers=centers, labels=labels)


def generate_symmetric_mixture(
    m: int,
    d: int,
    theta,
    sigma: float,
    outlier_fraction: float = 0.0,
    outlier_scale: float = 20.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric two-cluster Gaussian point cloud with optional outliers.

    Inliers are nu*theta + N(0, sigma^2 I) with nu uniform on {+1, -1};
    outliers sit at outlier_scale*||theta|| in independent random
    directions. Returns (points, labels) with labels in {+1, -1, 0} and 0
    marking outliers.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ConfigError(f"theta must have shape ({d},), got {theta.shape}")
    if not 0.0 <= outlier_fraction < 0.5:
        raise ConfigError("outlier_fraction must be in [0, 0.5)")
    n_out = int(math.ceil(outlier_fraction * m))
    n_in = m - n_out
    rng = RngStream(seed, 0).generator()
    nu = np.where(rng.random(n_in) < 0.5, 1.0, -1.0)
    inliers = nu[:, None] * theta[None, :] + sigma * rng.standard_normal((n_in, d))
    radius = outlier_scale * np.linalg.norm(theta)
    dirs = rng.standard_normal((n_out, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    outliers = radius * dirs
    points = np.vstack([inliers, outliers]) if n_out else inliers
    labels = np.concatenate([nu.astype(int), np.zeros(n_out, dtype=int)])
    perm = rng.permutation(m)
    return points[perm], labels[perm]


def _bernoulli_centered(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.integers(0, 2, size=d).astype(float) - 0.5


@dataclass(frozen=True)
class ComponentLayout:
    """The seed-free half of an ingested fleet.

    surviving holds the point indices of each component that becomes a
    cluster (at least max(min_cluster, shard_size) points), in component
    order; dropped holds the smaller components, whose points feed the
    unused-point pool. centers are the surviving components' means.
    gamma is the threshold they were computed at, given or defaulted by
    layout_components. source records what the points came from, so a
    caller handed a layout can check it against its own spec. Trials share
    one layout and only read it.
    """

    points: np.ndarray
    shard_size: int
    surviving: tuple[np.ndarray, ...]
    dropped: tuple[np.ndarray, ...]
    centers: np.ndarray
    gamma: float
    source: object = None

    @property
    def K(self) -> int:
        return len(self.surviving)


def layout_components(
    points,
    gamma: float | None,
    min_cluster: int = 1,
    shard_size: int = 1,
    source=None,
) -> ComponentLayout:
    """Threshold-graph components of a point set, filtered to those that
    can fill a shard, with their means. A gamma of None defaults to the
    points' percentile_gamma, a DataError if 0. Draws nothing, so one
    layout serves every seed."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ConfigError(f"expected points of shape (N, d), got {P.shape}")
    if shard_size < 1 or min_cluster < 1:
        raise ConfigError("shard_size and min_cluster must be >= 1")
    if gamma is None:
        gamma = percentile_gamma(P)
        if gamma == 0:
            raise DataError("no default gamma: at least 10% of the sampled point pairs are coincident "
                            "points, so the 10th percentile of their distances is 0; set gamma")
    comps = threshold_components(P, gamma)
    # a surviving component must also fill at least one shard, else its
    # cluster would exist with zero machines
    keep_size = max(min_cluster, shard_size)
    surviving = tuple(c for c in comps if len(c) >= keep_size)
    if not surviving:
        raise DataError(
            f"no connected component reaches min_cluster={min_cluster} at gamma={gamma}"
        )
    dropped = tuple(c for c in comps if len(c) < keep_size)
    n_remainder = sum(len(c) % shard_size for c in surviving)
    if n_remainder or dropped:
        logger.info(
            "ingest: dropped %d remainder points and %d undersized components",
            n_remainder,
            len(dropped),
        )
    centers = np.stack([P[c].mean(axis=0) for c in surviving])
    return ComponentLayout(P, shard_size, surviving, dropped, centers, gamma, source)


def shard_components(
    layout: ComponentLayout,
    n_adv: int = 0,
    adv_noise=None,
    seed: int = 0,
) -> tuple[list[WorkerShard], GroundTruth]:
    """The seeded half of an ingested fleet: random shards of each
    surviving component, then n_adv adversarial shards from the unused
    points, all drawn from RngStream(seed, 0)."""
    require_int("n_adv", n_adv, 0)
    if adv_noise is None:
        adv_noise = _bernoulli_centered
    P, shard_size = layout.points, layout.shard_size
    rng = RngStream(seed, 0).generator()
    shards: list[WorkerShard] = []
    label_list: list[int] = []
    unused: list[np.ndarray] = list(layout.dropped)
    for k, comp in enumerate(layout.surviving):
        order = rng.permutation(comp)
        n_full = len(comp) // shard_size
        for s in range(n_full):
            idx = np.sort(order[s * shard_size : (s + 1) * shard_size])
            shards.append(
                WorkerShard(
                    machine_id=len(shards),
                    X=P[idx].copy(),
                    y=None,
                    true_cluster=k,
                )
            )
            label_list.append(k)
        rem = order[n_full * shard_size :]
        if len(rem):
            unused.append(rem)

    pool = np.concatenate(unused) if unused else np.empty(0, dtype=int)
    if n_adv > 0 and len(pool) == 0:
        logger.warning("ingest: unused-point pool is empty; adversarial shards sample all points")
        pool = np.arange(P.shape[0])
    for _ in range(n_adv):
        replace = len(pool) < shard_size
        idx = rng.choice(pool, size=shard_size, replace=replace)
        shift = np.asarray(adv_noise(rng, P.shape[1]), dtype=float)
        shards.append(
            WorkerShard(
                machine_id=len(shards),
                X=P[idx] + shift[None, :],
                y=None,
                true_cluster=None,
            )
        )
        label_list.append(BYZANTINE)

    truth = GroundTruth(centers=layout.centers.copy(), labels=np.asarray(label_list, dtype=int))
    return shards, truth


def ingest_threshold_graph(
    points,
    gamma: float,
    min_cluster: int = 1,
    shard_size: int = 1,
    n_adv: int = 0,
    adv_noise=None,
    seed: int = 0,
) -> tuple[list[WorkerShard], GroundTruth]:
    """Fleet from an unlabeled point set via threshold-graph components.

    Components of size >= min_cluster become clusters whose center is the
    component mean. Each component is split into random shards of
    shard_size points (remainders are dropped; the count is logged).
    n_adv adversarial shards are sampled from the unused points and shifted
    by an adv_noise vector (default: elementwise Bernoulli(1/2) - 0.5),
    which shifts each such shard's mean by exactly that vector.

    Shards produced here carry raw feature points in X and no targets
    (y is None), so they carry the location loss, under which a shard's
    local minimizer is its mean. This is layout_components followed by
    shard_components; call the two apart to shard one layout under many
    seeds.
    """
    layout = layout_components(points, gamma, min_cluster, shard_size)
    return shard_components(layout, n_adv, adv_noise, seed)


def percentile_gamma(points, q: float = 10.0, max_pairs: int = 200_000, seed: int = 0) -> float:
    """Distance threshold default: the q-th percentile of pairwise
    distances, estimated on a random sample of pairs for large N. The
    distances are computed a block of pairs at a time, each row as
    np.linalg.norm computes it, so memory stays O(max_pairs + N d)."""
    P = np.asarray(points, dtype=float)
    N = P.shape[0]
    if N < 2:
        raise DataError("need at least 2 points to pick a distance threshold")
    n_pairs = N * (N - 1) // 2
    if n_pairs <= max_pairs:
        ii, jj = np.triu_indices(N, k=1)
    else:
        rng = RngStream(seed, 0).generator()
        ii = rng.integers(0, N, size=max_pairs)
        jj = rng.integers(0, N, size=max_pairs)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
    dists = np.empty(len(ii))
    step = max(1, _GAMMA_BLOCK // max(1, P.shape[1]))
    for s in range(0, len(ii), step):
        dists[s:s + step] = np.linalg.norm(P[ii[s:s + step]] - P[jj[s:s + step]], axis=1)
    return float(np.percentile(dists, q))


def read_points_csv(path, delimiter: str = ",", label_column: int | None = None) -> np.ndarray:
    """Read a points matrix: one row per point, plain finite floats.

    The first line is skipped as a header when any of its fields fails
    float parsing. label_column (if given) is the 0-based index of a
    column to drop; the data are treated as unsupervised. Raises
    ConfigError unless label_column is an integer >= 0, and DataError if
    the file has no such column or a row that does not parse.
    """
    if label_column is not None:
        require_int("label_column", label_column, 0)
    path = Path(path)
    if not path.exists():
        raise DataError(f"points file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        first = fh.readline()
    if not first.strip():
        raise DataError(f"points file is empty: {path}")

    def _is_float_row(line: str) -> bool:
        try:
            [float(tok) for tok in line.strip().split(delimiter)]
            return True
        except ValueError:
            return False

    skip = 0 if _is_float_row(first) else 1
    try:
        data = np.loadtxt(path, delimiter=delimiter, skiprows=skip, ndmin=2)
    except ValueError as exc:  # a ragged row or a field that is not a number
        raise DataError(f"cannot parse {path}: {exc}") from exc
    if label_column is not None:
        if label_column >= data.shape[1]:
            raise DataError(
                f"label_column {label_column} is out of range: {path} has "
                f"{data.shape[1]} columns"
            )
        data = np.delete(data, label_column, axis=1)
    if data.size == 0:
        raise DataError(f"no data rows in {path}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise DataError(f"data row {bad[0] + 1} of {path} is not finite: {data[bad[0]]}")
    return data
