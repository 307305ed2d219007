"""Connected components of a pairwise-distance threshold graph.

Shared by the ingestion protocol and the edge-cut clusterer. A kd-tree
lists every pair closer than gamma, with distances taken from coordinate
differences (no Gram-matrix cancellation far from the origin), and
scipy's csgraph labels the components. Cost: O(N log N + E) time and
O(E) memory, where E is the number of pairs within gamma.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
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
    # imported on first use, before the pair arrays exist: runs without
    # ingest or edge_cut would otherwise load csgraph (about 1 MB of RSS)
    from scipy.sparse.csgraph import connected_components

    # query_pairs keeps distances <= r; the float just below gamma makes it < gamma
    pairs = cKDTree(P).query_pairs(np.nextafter(gamma, 0.0), output_type="ndarray")
    edges = np.ones(len(pairs), dtype=bool)
    graph = coo_matrix((edges, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    # key each point by its component's smallest index, whatever order csgraph numbered them in
    key = np.unique(labels, return_index=True)[1][labels]
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
