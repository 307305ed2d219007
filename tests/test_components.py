"""Threshold-graph connected components against a brute-force oracle.

Both sides of threshold_components' selection are checked: inputs whose
strided sample is dense enough are seeded, the rest list every pair.
Each oracle case that depends on the side asserts which one it takes.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from byzfed import components
from byzfed.components import STRIDE, threshold_components
from byzfed.errors import ConfigError

PROBE_GAMMA = 4.0
BELOW = np.nextafter(PROBE_GAMMA, 0.0)
# the edge predicate, pinned: ||p - q|| < 4 exactly. It joins the first
# pair and the second, whose float d2 lies just past fl(BELOW**2) but
# whose exact squared distance, 15.999999999999998..., is below 16; it
# does not join the third, at exactly 4
PROBES = [
    pytest.param(np.array([[0.0], [BELOW]]), True, id="at-nextafter"),
    pytest.param(np.array([[0.0, 0.0], [BELOW, 4e-8]]), True, id="just-past"),
    pytest.param(np.array([[0.0, 0.0], [PROBE_GAMMA, 0.0]]), False, id="at-gamma"),
]


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


def _seeds(pts, gamma):
    """The seed labels threshold_components uses, or None on the all-pairs side."""
    P = np.asarray(pts, dtype=float)
    return components._seed_labels(P, float(gamma), np.int32)


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


def _coincident(rng, copies):
    # five sites in shuffled order; gamma is far below the site spacing, so
    # each site is one component of distance-0 pairs
    sites = 10.0 * rng.standard_normal((5, 3))
    return np.repeat(sites, copies, axis=0)[rng.permutation(5 * copies)]


def test_coincident_points(rng):
    pts = _coincident(rng, 30)
    assert _seeds(pts, 1e-9) is None
    comps = _check_against_bfs(pts, 1e-9)
    assert sorted(len(c) for c in comps) == [30] * 5


def test_coincident_points_seeded(rng):
    # 200 copies a site give every sampled point 24 sampled twins
    pts = _coincident(rng, 200)
    assert _seeds(pts, 1e-9) is not None
    comps = _check_against_bfs(pts, 1e-9)
    assert sorted(len(c) for c in comps) == [200] * 5


def _dense_blobs_vs_csgraph(rng, gamma):
    # 3000 points in blobs that partly merge, plus stray singletons: the
    # csgraph labelling the union-find replaced serves as the oracle at a
    # size the BFS oracle is too slow for
    centers = 6.0 * rng.standard_normal((6, 3))
    pts = np.repeat(centers, 500, axis=0) + rng.standard_normal((3000, 3))
    pts = pts[rng.permutation(3000)]
    comps = threshold_components(pts, gamma)
    i, j = np.nonzero(np.triu(cdist(pts, pts) < gamma, k=1))
    assert len(i) > 50 * len(pts)  # E >> N
    k, labels = connected_components(coo_matrix((np.ones(len(i)), (i, j)), shape=(3000, 3000)),
                                     directed=False)
    assert len(comps) == k
    assert _as_partition(comps) == {frozenset(np.flatnonzero(labels == c).tolist())
                                    for c in range(k)}
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    assert all(c.dtype == np.intp for c in comps)
    np.testing.assert_array_equal(np.sort(np.concatenate(comps)), np.arange(3000))
    return pts


def test_dense_blobs_match_csgraph(rng):
    # about 176k pairs, yet too few sampled neighbours a point to seed
    pts = _dense_blobs_vs_csgraph(rng, 1.5)
    assert _seeds(pts, 1.5) is None


def test_dense_blobs_seeded_match_csgraph(rng):
    pts = _dense_blobs_vs_csgraph(rng, 2.0)
    assert _seeds(pts, 2.0) is not None


@pytest.mark.parametrize("n", range(1, STRIDE + 1))
def test_fewer_points_than_the_stride(rng, n):
    # a sample of one point has no pairs, so every pair is listed
    for pts in (rng.standard_normal((n, 2)), np.zeros((n, 2)), _chain(rng.permutation(n))):
        assert _seeds(pts, 1.0) is None
        _check_against_bfs(pts, 1.0)


@pytest.mark.parametrize("d, gamma, side", [
    (1, 1, "all-pairs"), (2, 1, "all-pairs"), (3, 2, "all-pairs"),
    (1, 2, "seeded"), (2, 3, "seeded"), (3, 4, "seeded"),
])
def test_integer_oracle_on_either_side(d, gamma, side):
    # 400 points on the 5^d lattice: many coincident points and many pairs
    # at exactly gamma, decided exactly by integer squared distances
    ints = np.random.default_rng(gamma * 10 + d).integers(-2, 3, size=(400, d))
    assert (_seeds(ints, gamma) is None) == (side == "all-pairs")
    d2 = ((ints[:, None, :] - ints[None, :, :]) ** 2).sum(axis=2)
    got = threshold_components(ints.astype(float), float(gamma))
    assert _as_partition(got) == _bfs_oracle(d2 < gamma**2)
    assert [c[0] for c in got] == sorted(c[0] for c in got)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=65, max_value=300),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matches_exact_integer_oracle_on_crowded_lattice(d, gamma, n, seed):
    # enough points on a small lattice that the sample often seeds
    ints = np.random.default_rng(seed).integers(-2, 3, size=(n, d))
    d2 = ((ints[:, None, :] - ints[None, :, :]) ** 2).sum(axis=2)
    got = threshold_components(ints.astype(float), float(gamma))
    assert _as_partition(got) == _bfs_oracle(d2 < gamma**2)
    assert [c[0] for c in got] == sorted(c[0] for c in got)


def _place(n, slots):
    """A reordering of n points that puts the first len(slots) at the given
    indices and the rest at the other indices, in order."""
    order = np.empty(n, dtype=int)
    order[list(slots)] = np.arange(len(slots))
    order[np.setdiff1d(np.arange(n), list(slots))] = np.arange(len(slots), n)
    return order


def test_tail_points_no_sampled_point_reaches(rng):
    # four 10-D blobs, dense at gamma 4 (like the ingest workload), and at
    # unsampled indices tails that run outward from each blob's outermost
    # points in steps of 0.95 gamma: no sampled point is within gamma of
    # most of them, so they join through the pairs listed from them
    gamma, d = 4.0, 10
    centers = 8.0 * rng.standard_normal((4, d))
    blobs = np.repeat(centers, 500, axis=0) + rng.standard_normal((2000, d))
    tails = []
    for c in range(4):
        own = blobs[500 * c: 500 * (c + 1)]
        for b in own[np.argsort(np.linalg.norm(own - centers[c], axis=1))[-3:]]:
            u = (b - centers[c]) / np.linalg.norm(b - centers[c])
            tails += [b + 0.95 * gamma * k * u for k in (1, 2)]
    tails.append(np.full(d, 100.0))  # one stray singleton
    pts = np.vstack([tails, blobs])
    slots = [i for i in range(len(pts)) if i % STRIDE][: len(tails)]
    pts = pts[_place(len(pts), slots)]
    seeds = _seeds(pts, gamma)
    assert seeds is not None
    assert np.count_nonzero(seeds[slots] < 0) >= len(tails) // 2
    comps = _check_against_bfs(pts, gamma)
    # the tails hang off their blobs, the stray point stays alone
    assert sorted(len(c) for c in comps)[0] == 1


@pytest.mark.parametrize("gap", [False, True])
def test_blobs_joined_through_an_unsampled_bridge(rng, gap):
    # two 10-D blobs 24 apart along the first axis, and a bridge of points
    # 0.8 gamma apart between them at unsampled indices; without its middle
    # point the bridge breaks and the blobs stay apart
    gamma, d = 4.0, 10
    far = np.zeros(d)
    far[0] = 24.0
    blobs = np.vstack([rng.standard_normal((500, d)), far + rng.standard_normal((500, d))])
    a = blobs[np.argmax(blobs[:500, 0])]
    b = blobs[500 + np.argmin(blobs[500:, 0])]
    steps = int(np.ceil(np.linalg.norm(b - a) / (0.8 * gamma)))
    bridge = a + np.outer(np.arange(1, steps) / steps, b - a)
    if gap:
        bridge = np.delete(bridge, len(bridge) // 2, axis=0)
    pts = np.vstack([bridge, blobs])
    slots = [i for i in range(len(pts)) if i % STRIDE][: len(bridge)]
    pts = pts[_place(len(pts), slots)]
    seeds = _seeds(pts, gamma)
    assert seeds is not None
    assert np.any(seeds[slots] < 0)
    comps = _check_against_bfs(pts, gamma)
    assert (len(comps) == 1) != gap


def _probe_layout(pair, layout):
    """The probe pair (p, q) inside two dense 200-point segments, one
    ending just before p and one starting just past q along the first axis,
    so that no other pair comes within gamma across them; p and q sit at
    the indices the layout names."""
    p, q = pair
    e = np.zeros_like(p)
    e[0] = 1.0
    behind = p - np.outer(np.linspace(0.01, 2.0, 200), e)
    beyond = q + np.outer(np.linspace(0.01, 2.0, 200), e)
    slots = {"sampled": (0, STRIDE), "crossing": (1, 2), "lone": (1, 2)}[layout]
    rest = [behind] if layout == "lone" else [behind, beyond]
    pts = np.vstack([pair, *rest])
    return pts[_place(len(pts), slots)], slots


@pytest.mark.parametrize("pair, joined", PROBES)
def test_probe_pairs_when_every_pair_is_listed(pair, joined):
    assert _seeds(pair, PROBE_GAMMA) is None
    assert len(threshold_components(pair, PROBE_GAMMA)) == (1 if joined else 2)


@pytest.mark.parametrize("layout", ["sampled", "crossing", "lone"])
@pytest.mark.parametrize("pair, joined", PROBES)
def test_probe_pairs_when_seeded(pair, joined, layout):
    # sampled: the sample's own pairs list (p, q); crossing: p and q attach
    # to different seeds and a rank bit lists the pair; lone: q's only
    # neighbour is p, which is not sampled, so q has no seed and the pass
    # from the unseeded points lists the pair
    pts, (ip, iq) = _probe_layout(pair, layout)
    seeds = _seeds(pts, PROBE_GAMMA)
    assert seeds is not None
    if layout == "crossing":
        assert seeds[ip] >= 0 and seeds[iq] >= 0 and seeds[ip] != seeds[iq]
    if layout == "lone":
        assert seeds[iq] < 0
    comps = threshold_components(pts, PROBE_GAMMA)
    where = {int(i): k for k, c in enumerate(comps) for i in c}
    assert (where[ip] == where[iq]) == joined
    assert len(comps) == (1 if joined else 2)


@pytest.mark.parametrize("pair, joined", PROBES)
def test_own_attach_is_strict_below_gamma(pair, joined):
    # the attach joins exactly the pairs the listings join: strictly
    # closer than gamma, so not the pair at gamma itself
    p, q = pair[:1], pair[1:]
    assert len(components._attach(q, p, PROBE_GAMMA)[0]) == (1 if joined else 0)
    assert len(components._close_pairs(q, p, PROBE_GAMMA)[0]) == (1 if joined else 0)


def _exact_d2(p, q):
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p.tolist(), q.tolist()))


def _exact_components(pts, gamma):
    """Reference: every pair whose float d2 lies within a relative 1e-6 of
    gamma**2 is decided in Fraction arithmetic, the others by cdist's d2
    (whose rounding is far below 1e-6); csgraph labels the edges. Also
    returns how many pairs the Fraction test decided."""
    d2 = cdist(pts, pts, "sqeuclidean")
    adj = d2 < gamma**2
    near = np.argwhere(np.abs(d2 - gamma**2) <= 1e-6 * gamma**2)
    for a, b in near:
        adj[a, b] = _exact_d2(pts[a], pts[b]) < Fraction(gamma) ** 2
    k, labels = connected_components(coo_matrix(adj), directed=False)
    return {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(k)}, len(near) // 2


def _near_threshold_pairs(rng, d, gamma, ulps, dense):
    """Pairs (p, q), 20 gamma apart, whose d2 lies within a few ulps of
    gamma**2: q is p plus gamma along a random direction, with one
    coordinate moved by the given number of ulps. With dense, each pair
    sits between two dense segments, one running back from p and one on
    from q, so no other pair comes within gamma across them."""
    ps, qs, rest = [], [], []
    for k, shift in enumerate(ulps):
        p = 0.5 * gamma * rng.standard_normal(d)
        p[0] += 20.0 * gamma * k
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        q = p + gamma * u
        at = int(rng.integers(d))
        q[at] = q[at] + shift * np.spacing(q[at])
        ps.append(p)
        qs.append(q)
        if dense:
            t = np.linspace(0.0025, 0.5, 200)[:, None] * gamma
            rest += [*(p - t * u), *(q + t * u)]
    return np.array(ps), np.array(qs), np.array(rest).reshape(-1, d)


NEAR_THRESHOLD = [
    st.sampled_from([1, 2, 3, 4, 7, 8, 10, 50]),
    st.floats(min_value=0.01, max_value=100.0),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=2**32 - 1),
]


@settings(max_examples=40, deadline=None)
@given(*NEAR_THRESHOLD, st.sampled_from(["all-pairs", "seeded"]))
def test_near_threshold_pairs_match_exact_oracle(d, gamma, ulps, seed, side):
    # four pairs whose d2 lies within a few ulps of gamma**2, where float
    # d2 in any summation order may fall on either side. On the seeded
    # side p and q are then sampled, attached or lone, and the pair is
    # decided in the sample's listing, a crossing pass (whose bounding
    # boxes meet at the threshold) or the lone pass.
    rng = np.random.default_rng(seed)
    ps, qs, rest = _near_threshold_pairs(rng, d, gamma, ulps, side == "seeded")
    pts = np.vstack([ps, qs, rest])[rng.permutation(2 * len(ps) + len(rest))]
    assert (_seeds(pts, gamma) is None) == (side == "all-pairs")
    want, decided = _exact_components(pts, gamma)
    assert decided >= len(ps)
    assert _as_partition(threshold_components(pts, gamma)) == want


@settings(max_examples=40, deadline=None)
@given(*NEAR_THRESHOLD)
def test_attach_adds_only_true_edges(d, gamma, ulps, seed):
    # each p against the q's: every attach is an exact edge, and since
    # the q's lie 20 gamma apart, each p that has one is attached to it
    ps, qs, _ = _near_threshold_pairs(np.random.default_rng(seed), d, gamma, ulps, False)
    hit, near = components._attach(ps, qs, gamma)
    edges = [k for k in range(len(ps)) if _exact_d2(ps[k], qs[k]) < Fraction(gamma) ** 2]
    assert hit.tolist() == edges
    assert near.tolist() == edges


@pytest.mark.parametrize("gamma", [np.inf, 1e300])
def test_unbounded_gamma_lists_no_quadratic_pair_array(rng, gamma):
    # every pair of 6000 points is an edge: 18M pairs, whose index array
    # alone takes 288 MB; the seeded side lists the sample's 281k
    pts = rng.standard_normal((6000, 10))
    tracemalloc.start()
    try:
        comps = threshold_components(pts, gamma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(comps) == 1
    np.testing.assert_array_equal(comps[0], np.arange(6000))
    assert peak < 32e6


@pytest.mark.parametrize("gamma", [np.inf, 1e300])
@pytest.mark.parametrize("n", [1, 40, 3000])
def test_overflowing_gamma_returns_one_component_without_listing_pairs(
    rng, monkeypatch, gamma, n
):
    # gamma**2 overflows and the points lie far closer than gamma, so every
    # pair is an edge, also pairs whose own d2 overflows; no pair is
    # listed and nothing warns
    def never(*args):
        raise AssertionError("_close_pairs called")

    monkeypatch.setattr(components, "_close_pairs", never)
    pts = rng.standard_normal((n, 4))
    pts[-1] = 1e200
    with np.errstate(all="raise"):
        comps = threshold_components(pts, gamma)
    assert len(comps) == 1
    assert comps[0].dtype == np.intp
    np.testing.assert_array_equal(comps[0], np.arange(n))


@pytest.mark.parametrize("gamma", [1e300, np.nextafter(np.sqrt(np.finfo(float).max), np.inf)])
def test_overflowing_gamma_on_points_as_far_apart_is_exact(gamma):
    # gamma**2 overflows, but these pairs lie about gamma apart: each is
    # decided exactly, also where its own d2 overflows
    below = np.nextafter(gamma, 0.0)
    assert len(threshold_components(np.array([[-gamma], [gamma]]), gamma)) == 2
    assert len(threshold_components(np.array([[0.0], [gamma]]), gamma)) == 2
    assert len(threshold_components(np.array([[0.0], [below]]), gamma)) == 1
    # (gamma - ulp)**2 + (gamma / 2**28)**2 is below gamma**2: 2**-56 < 2**-52
    pair = np.array([[0.0, 0.0], [below, gamma * 2.0**-28]])
    assert len(threshold_components(pair, gamma)) == 1
    pair[1, 1] = gamma * 2.0**-25
    assert len(threshold_components(pair, gamma)) == 2
