"""Threshold-graph connected components against a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
