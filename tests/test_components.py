"""Threshold-graph connected components against a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from byzfed.components import threshold_components
from byzfed.errors import ConfigError


def _bfs_oracle(adj):
    """Adjacency-matrix breadth-first search; quadratic and obviously right."""
    n = len(adj)
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            i = queue.pop()
            comp.append(i)
            for j in np.flatnonzero(adj[i] & ~seen):
                seen[j] = True
                queue.append(int(j))
        comps.append(sorted(comp))
    return {frozenset(c) for c in comps}


def _as_partition(comps):
    return {frozenset(int(i) for i in c) for c in comps}


def _check_against_bfs(pts, gamma):
    """The components match the oracle and keep the documented order and dtype."""
    comps = threshold_components(pts, gamma)
    assert _as_partition(comps) == _bfs_oracle(cdist(pts, pts) < gamma)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    for c in comps:
        assert c.dtype == np.intp
        assert np.all(np.diff(c) > 0)
    return comps


def _chain(order, step=0.9, breaks=()):
    """Points on a line, 0.9 apart except at the breaks; point k sits at
    position order[k], so the index order along the chain is order's."""
    pos = np.arange(len(order)) * step
    for b in breaks:
        pos[b:] += 5.0
    return pos[np.asarray(order)][:, None]


def _zigzag(n):
    # 0, n-1, 1, n-2, ...: neighbours on the line alternate low and high indices
    out = np.empty(n, dtype=int)
    out[0::2] = np.arange((n + 1) // 2)
    out[1::2] = n - 1 - np.arange(n // 2)
    return np.argsort(out)


def test_matches_bfs_oracle_on_random_sets(rng):
    for trial in range(30):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5))
        pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
        gamma = float(rng.uniform(0.2, 2.5))
        got = threshold_components(pts, gamma)
        adj = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) < gamma
        assert _as_partition(got) == _bfs_oracle(adj), f"trial {trial}"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=d, max_size=d),
            min_size=1,
            max_size=30,
        )
    ),
    st.integers(min_value=1, max_value=5),
)
def test_matches_exact_integer_oracle_on_lattice(rows, gamma):
    # small lattices put many pairs at exactly gamma (axis steps, 3-4-5
    # triangles); integer squared distances decide those ties exactly
    ints = np.array(rows, dtype=np.int64)
    d2 = ((ints[:, None, :] - ints[None, :, :]) ** 2).sum(axis=2)
    got = threshold_components(ints.astype(float), float(gamma))
    assert _as_partition(got) == _bfs_oracle(d2 < gamma**2)
    assert [c[0] for c in got] == sorted(c[0] for c in got)


def test_threshold_is_strict():
    pts = np.array([[0.0], [1.0]])
    # exactly at the threshold: not connected
    assert len(threshold_components(pts, 1.0)) == 2
    assert len(threshold_components(pts, 1.0000001)) == 1
    # a 3-4-5 pair: 5.0 is exact, the next float up connects it
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert len(threshold_components(pts, 5.0)) == 2
    assert len(threshold_components(pts, np.nextafter(5.0, np.inf))) == 1


def test_no_cancellation_far_from_origin():
    # |a|^2 + |b|^2 - 2ab loses the 0.25 squared distance at this offset
    pts = np.array([[1e8, 1e8], [1e8 + 0.5, 1e8]])
    assert len(threshold_components(pts, 0.4)) == 2
    assert len(threshold_components(pts, 0.6)) == 1


def test_two_well_separated_blobs():
    pts = np.vstack([np.zeros((5, 2)), np.full((4, 2), 10.0)])
    comps = threshold_components(pts, 1.0)
    assert len(comps) == 2
    np.testing.assert_array_equal(comps[0], np.arange(5))
    np.testing.assert_array_equal(comps[1], np.arange(5, 9))


def test_component_ordering_and_sortedness(rng):
    pts = rng.standard_normal((25, 3))
    comps = threshold_components(pts, 0.8)
    firsts = [c[0] for c in comps]
    assert firsts == sorted(firsts)
    for c in comps:
        assert list(c) == sorted(c)
    # every index appears exactly once
    allidx = np.concatenate(comps)
    np.testing.assert_array_equal(np.sort(allidx), np.arange(25))


def test_single_point_and_identical_points():
    assert len(threshold_components(np.zeros((1, 3)), 0.5)) == 1
    comps = threshold_components(np.zeros((6, 2)), 1e-9)
    assert len(comps) == 1
    assert len(comps[0]) == 6


def test_chain_connectivity():
    # consecutive points 0.9 apart: a single chain at gamma=1 even though
    # the endpoints are far apart
    pts = (0.9 * np.arange(10))[:, None]
    comps = threshold_components(pts, 1.0)
    assert len(comps) == 1


def test_input_validation():
    with pytest.raises(ConfigError):
        threshold_components(np.zeros((3, 2)), 0.0)
    with pytest.raises(ConfigError):
        threshold_components(np.zeros((3, 2)), -1.0)
    with pytest.raises(ConfigError):
        threshold_components(np.zeros(3), 1.0)
    with pytest.raises(ConfigError):
        threshold_components(np.zeros((3, 2)), float("nan"))
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.zeros((3, 2))
        pts[1, 0] = bad
        with pytest.raises(ConfigError, match="row 1"):
            threshold_components(pts, 1.0)


def test_empty_point_set_has_no_components():
    assert threshold_components(np.zeros((0, 2)), 1.0) == []


@pytest.mark.parametrize("shape", ["sorted", "reversed", "shuffled", "zigzag"])
def test_chains_in_any_index_order(rng, shape):
    # a chain in index or reversed order settles in one hook round; in
    # shuffled order it needs several
    n = 400
    order = {
        "sorted": np.arange(n),
        "reversed": np.arange(n)[::-1],
        "shuffled": rng.permutation(n),
        "zigzag": _zigzag(n),
    }[shape]
    assert len(_check_against_bfs(_chain(order), 1.0)) == 1
    assert len(_check_against_bfs(_chain(order, breaks=(57, 200, 399)), 1.0)) == 4


@pytest.mark.parametrize("center", [0, 20, 40])
def test_star(rng, center):
    # 40 leaves 0.9 from the center and 1.27 from each other: every pair
    # runs through one point, whatever its index
    leaves = 0.9 * np.eye(40)
    pts = np.insert(leaves, center, np.zeros(40), axis=0)
    assert len(_check_against_bfs(pts, 1.0)) == 1
    assert len(_check_against_bfs(pts[rng.permutation(len(pts))], 1.0)) == 1
    # without the center every leaf is alone
    assert len(_check_against_bfs(leaves, 1.0)) == 40


def test_many_singletons(rng):
    pts = (2.0 * rng.permutation(500))[:, None]
    comps = _check_against_bfs(pts, 1.0)
    assert [c.tolist() for c in comps] == [[i] for i in range(500)]


def test_coincident_points(rng):
    # five sites, 30 copies each, in shuffled order; gamma is far below the
    # site spacing, so each site is one component of distance-0 pairs
    sites = 10.0 * rng.standard_normal((5, 3))
    pts = np.repeat(sites, 30, axis=0)[rng.permutation(150)]
    comps = _check_against_bfs(pts, 1e-9)
    assert sorted(len(c) for c in comps) == [30] * 5


def test_dense_blobs_match_csgraph(rng):
    # about 176k pairs on 3000 points (E >> N), in blobs that partly merge,
    # plus stray singletons: the csgraph labelling the union-find replaced
    # serves as the oracle at a size the BFS oracle is too slow for
    centers = 6.0 * rng.standard_normal((6, 3))
    pts = np.repeat(centers, 500, axis=0) + rng.standard_normal((3000, 3))
    pts = pts[rng.permutation(3000)]
    gamma = 1.5
    comps = threshold_components(pts, gamma)
    i, j = np.nonzero(np.triu(cdist(pts, pts) < gamma, k=1))
    assert len(i) > 50 * len(pts)
    k, labels = connected_components(coo_matrix((np.ones(len(i)), (i, j)), shape=(3000, 3000)),
                                     directed=False)
    assert len(comps) == k
    assert _as_partition(comps) == {frozenset(np.flatnonzero(labels == c).tolist())
                                    for c in range(k)}
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    assert all(c.dtype == np.intp for c in comps)
    np.testing.assert_array_equal(np.sort(np.concatenate(comps)), np.arange(3000))
