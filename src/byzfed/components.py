"""Connected components of a pairwise-distance threshold graph.

Shared by the ingestion protocol and the edge-cut clusterer. Distances
come from coordinate differences inside scipy's kd-tree (no Gram-matrix
cancellation far from the origin).

Edge predicate. Points i and j are joined iff d2(i, j) <= fl(r * r),
where r = nextafter(gamma, 0), d2 is the squared distance as ckdtree sums
it and fl rounds to the nearest double. Every listing below
(`query_pairs`, `sparse_distance_matrix`) applies exactly this test; the
attach query's strict bound, d2 < fl(r * r), keeps a subset of it. So
the predicate is "closer than gamma" up to the last bit of d2: the pair
[[0, 0], [nextafter(4, 0), 4e-8]] is not an edge at gamma 4, although
its float distance is 3.9999999999999996.

The components need only a spanning forest, not every pair, so the
points are seeded from a strided sample:

1. The kd-tree lists the pairs among every STRIDE-th point, and the
   sample's components are labelled.
2. Each other point is attached to its nearest sampled point within r,
   if there is one, and takes that point's seed: the smallest index of
   its sampled component. A point no sampled point reaches has no seed.
3. Only the pairs that can join two seeds are listed: every pair from a
   point without a seed, in one pass, and for each bit of the seed's
   rank the pairs between the seeded points whose rank has the bit clear
   and those whose rank has it set. Two different ranks differ in some
   bit, so every pair that crosses two seeds is listed at least once.

Attach edges and seed roots join only points of one component, and every
edge the seeds do not already cover is listed, so the components, their
order and their members are those of the full pair list.

Selection. The sample's pairs decide, before any attach query: seeding
runs when a sampled point has on average at least _SEED_MIN_DEGREE
sampled neighbours, that is when the full graph has about
STRIDE * _SEED_MIN_DEGREE / 2 = 64 pairs per point or more. Below that
(chains, sparse sets, and any set of fewer than 129 points, whose sample
of at most 16 cannot reach that degree), many points would find no
sampled neighbour, and the kd-tree lists every pair as it is: in low
dimension that costs little more than the output.

Labelling. The edges are labelled by a vectorised union-find, hook and
compress (Shiloach & Vishkin, 1982). Every point starts as its own
label; each point hooks onto its smallest neighbour; then, until no edge
crosses two labels, pointers jump to their roots and each root of a
crossing edge hooks onto the smaller root. Labels only ever fall to a
smaller index of the same component, so each ends as its component's
smallest index, the key the components are ordered by.

Cost. All pairs: O(N log N + E) time for the tree and the E pairs within
gamma (in high dimension the traversal nears N^2 / 2 distance tests
whatever E is), and 8 bytes a pair once the columns are int32. Seeded:
the sample's pairs, about E / STRIDE^2, one bounded nearest-neighbour
query per point, then one pass from the unseeded points and about
log2(seeds) passes over the seeded points; memory O(N + E / STRIDE^2 +
crossing pairs). On 6010 ten-dimensional points in four blobs at gamma
4 (1.67M pairs), the seeded side lists 26k sample pairs and about 60
crossing ones; at gamma = inf it lists 282k pairs, not 18M.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError

__all__ = ["threshold_components"]

STRIDE = 8  # every STRIDE-th point is in the sample
_SEED_MIN_DEGREE = 16  # mean sampled-neighbour count from which seeding pays


def threshold_components(points, gamma: float) -> list[np.ndarray]:
    """Components of the graph with an edge iff d2(i, j) <= fl(r * r),
    r = nextafter(gamma, 0): closer than gamma up to the last bit of d2
    (see the module docstring's edge predicate). A pair at exactly gamma
    is not connected.

    Returns a list of index arrays, each sorted ascending, ordered by the
    smallest index they contain (deterministic).
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ConfigError(f"expected points of shape (N, d), got {P.shape}")
    if not gamma > 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    bad = np.flatnonzero(~np.isfinite(P).all(axis=1))
    if bad.size:
        raise ConfigError(f"points must be finite; row {bad[0]} is not: {P[bad[0]]}")
    n = P.shape[0]
    if n == 0:
        return []
    # ckdtree keeps d2 <= fl(r*r); r just below gamma drops pairs at exactly gamma
    r = np.nextafter(gamma, 0.0)
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    seeds = _seed_labels(P, r, dtype)
    if seeds is None:
        pairs = cKDTree(P).query_pairs(r, output_type="ndarray")
        i, j = pairs[:, 0].astype(dtype), pairs[:, 1].astype(dtype)
        del pairs
    else:
        i, j = _seeded_edges(P, r, seeds)
    labels = _min_labels(i, j, n)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _seed_labels(P: np.ndarray, r: float, dtype) -> np.ndarray | None:
    """Each point's seed, the smallest index of the sampled component its
    nearest sampled point within r belongs to, or -1 where no sampled
    point is that close; None when the sample is too sparse to pay."""
    sample = cKDTree(P[::STRIDE])
    pairs = sample.query_pairs(r, output_type="ndarray")
    if 2 * len(pairs) < _SEED_MIN_DEGREE * sample.n:
        return None
    roots = STRIDE * _min_labels(pairs[:, 0].astype(dtype), pairs[:, 1].astype(dtype), sample.n)
    del pairs
    seeds = np.full(P.shape[0], -1, dtype=dtype)
    seeds[::STRIDE] = roots
    rest = np.flatnonzero(seeds < 0)
    # the bound is strict, d2 < fl(r*r): every attach is an edge
    _, near = sample.query(P[rest], distance_upper_bound=r)
    hit = near < sample.n
    seeds[rest[hit]] = roots[near[hit]]
    return seeds


def _seeded_edges(P: np.ndarray, r: float, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges (i <= j) with the components of the threshold graph: each
    seeded point to its seed, plus every pair that crosses two seeds."""
    seeded = np.flatnonzero(seeds >= 0)
    lone = np.flatnonzero(seeds < 0)
    i, j = [seeds[seeded]], [seeded]
    if lone.size:
        a, b = _close_pairs(P[lone], P, r)
        i.append(lone[a])
        j.append(b)
    _, rank = np.unique(seeds[seeded], return_inverse=True)
    for bit in range(int(rank.max()).bit_length()):
        high = (rank >> bit) & 1 == 1
        lo, hi = seeded[~high], seeded[high]
        a, b = _close_pairs(P[lo], P[hi], r)
        i.append(lo[a])
        j.append(hi[b])
    i, j = np.concatenate(i).astype(seeds.dtype), np.concatenate(j).astype(seeds.dtype)
    return np.minimum(i, j), np.maximum(i, j)


def _close_pairs(X: np.ndarray, Y: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (into X, into Y) of the pairs with d2 <= fl(r*r)."""
    found = cKDTree(X).sparse_distance_matrix(cKDTree(Y), r, output_type="ndarray")
    return found["i"], found["j"]


def _min_labels(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Each point's smallest connected index, for edges (i, j) with i <= j."""
    labels = np.arange(n, dtype=i.dtype)
    np.minimum.at(labels, j, i)  # i <= j, so each j hooks onto its smallest neighbour
    while True:
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        cross = np.flatnonzero(labels[i] != labels[j])
        if not cross.size:
            return labels
        i, j = i[cross], j[cross]
        a, b = labels[i], labels[j]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
