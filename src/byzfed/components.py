"""Connected components of a pairwise-distance threshold graph.

Shared by the ingestion protocol and the edge-cut clusterer. A kd-tree
lists every pair closer than gamma, with distances taken from coordinate
differences (no Gram-matrix cancellation far from the origin).

The pairs are labelled by a vectorised union-find, hook and compress
(Shiloach & Vishkin, 1982). Every point starts as its own label; each
point hooks onto its smallest neighbour; then, until no pair crosses two
labels, pointers jump to their roots and each root of a crossing pair
hooks onto the smaller root. Labels only ever fall to a smaller index of
the same component, so each ends as its component's smallest index, the
key the components are ordered by. Pairs whose ends share a root are
dropped after each round, so later rounds touch only the crossing pairs.

Cost: O(N log N + E) time for the tree and the pairs, where E is the
number of pairs within gamma, plus O(E) per labelling round. The rounds
repeat only while pairs cross: a chain in index or reversed order takes
one, a 50k-point chain in shuffled order ten. Memory: the pair columns
are held as int32, 8 bytes a pair, half of what the kd-tree returns; its
array is freed before labelling.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError

__all__ = ["threshold_components"]


def threshold_components(points, gamma: float) -> list[np.ndarray]:
    """Components of the graph with an edge iff ||p_i - p_j|| < gamma.

    Returns a list of index arrays, each sorted ascending, ordered by the
    smallest index they contain (deterministic). Distance is strict: a
    pair at exactly gamma is not connected.
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
    # query_pairs keeps distances <= r; the float just below gamma makes it < gamma
    pairs = cKDTree(P).query_pairs(np.nextafter(gamma, 0.0), output_type="ndarray")
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    i, j = pairs[:, 0].astype(dtype), pairs[:, 1].astype(dtype)
    del pairs
    labels = _min_labels(i, j, n)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _min_labels(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Each point's smallest connected index, for edges (i, j) with i < j."""
    labels = np.arange(n, dtype=i.dtype)
    np.minimum.at(labels, j, i)  # i < j, so each j hooks onto its smallest neighbour
    while True:
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        cross = np.flatnonzero(labels[i] != labels[j])
        if not cross.size:
            return labels
        i, j = i[cross], j[cross]
        a, b = labels[i], labels[j]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
