"""Connected components of a pairwise-distance threshold graph.

Shared by the ingestion protocol and the edge-cut clusterer. Pure numpy,
with exact rational arithmetic for the few pairs rounding cannot decide.

Edge predicate. Points i and j are joined iff ||p_i - p_j|| < gamma in
exact arithmetic on the float inputs: the exact sum of the squared
coordinate differences is below the exact square of gamma. A pair at
exactly gamma is not joined; the pair [[0, 0], [3.9999999999999996,
4e-8]], whose exact squared distance is 15.999999999999998..., is
joined at gamma 4.

Exact test. Each candidate pair's d2 is summed in floats, in whatever
order einsum takes. Summed in any order, d2 lies within a factor
(1 +- gamma_{d+2}) of the exact squared distance, where gamma_k =
k u / (1 - k u) and u = 2**-53 is the unit roundoff (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., eq. 3.5: one rounding
for each difference, one for each square, d - 1 for the sum), give or
take d * 2**-1075 of underflow. With g2 = fl(gamma * gamma), the pair is
an edge when d2 < g2 (1 - c) - tiny and no edge when d2 > g2 (1 + c) +
tiny, where c = 4 (d + 4) u and tiny is the smallest normal double; c
exceeds the (d + 6) u those comparisons need, tiny the underflow. The
pairs in between, within the rounding margin of gamma**2, are decided
in Fraction arithmetic over their d coordinates. When g2 overflows, it
is capped at the largest double, so finite d2s still decide below the
band and every other pair goes to the Fraction test.

Sweep. Every listing below is one kernel, `_Sweep`, of a point set X
against a point set Y or against itself. It sorts both by the
coordinate with the widest spread, so the rows of Y that lie within
gamma of a row of X along it form a window of consecutive rows. A row
whose window holds at most _NARROW rows has each pair of it tested. The
other rows go in blocks of up to _ROWS consecutive rows, sized so that
block x window has at most _BLOCK entries; that bounds the temporary
arrays, about 0.5 MB each. Each block is prefiltered with one Gram
product, and only the pairs that pass it are tested.

Prefilter margin. Coordinates are first centred at the midpoint m of
their range: x' = fl(x - m). The product estimates
|x'|^2 + |y'|^2 - 2 x'.y' - B, with each squared norm scaled by (1 - c),
B = fl((g2 + tiny) * (1 + c)) and c as above. A pair is kept when the
estimate is <= 0. Rounding bounds:
- an edge's exact squared distance is below gamma**2 <= g2 (1 + u);
- centring moves each difference by at most u (|x'| + |y'|);
- a dot product of d + 2 terms is within gamma_{d+2} times the sum of
  the absolute values of its terms (Higham, eq. 3.5), in any summation
  order.
With the rounding of the norms, of the scaling and of B, these bound
the estimate's error, for an edge, by (d + 6) u g2 + (3d + 8) u
(|x'|^2 + |y'|^2) to first order in u. The margin takes c times each; c
exceeds both coefficients by (d + 8) u or more, room for the
higher-order terms, and tiny covers the absolute error of underflow. So
the prefilter never drops an edge, and the exact test decides every
pair. When gamma = inf, or when g2 overflows and the bounding box's
longest side times sqrt(d) is below gamma, every pair is an edge, so
threshold_components returns one component before any sweep. When the
Gram product could overflow (coordinates beyond about 1e150, or g2
itself), every window pair is tested. The window itself is widened by
c (gamma + max |x_a|), which covers the same rounding along the sweep
axis; the bounding boxes of the seeding below are compared with B.

Seeding. The components need only a spanning forest, not every pair, so
the points are seeded from a strided sample:

1. The sweep lists the pairs among every STRIDE-th point, and the
   sample's components are labelled.
2. Each other point takes the seed of a sampled point within gamma, if
   the sweep finds one: the smallest index of that point's sampled
   component. The sweep tries each point's nearest
   sampled point by the Gram estimate, so a point whose nearest lies
   within the rounding margin may go without a seed. That is correct,
   only slower: a point without a seed has all its pairs listed.
3. Only the pairs that can join two seeds are listed: every pair from a
   point without a seed, in one pass, and for each bit of the seed's
   rank the pairs between the seeded points whose rank has the bit clear
   and those whose rank has it set. Two different ranks differ in some
   bit, so every pair that crosses two seeds is listed at least once.
   A seed group whose bounding box lies farther than gamma from every
   group on the other side of a bit is left out of that pass.
All three use the one exact test above.

Attach edges and seed roots join only points of one component, and every
edge the seeds do not already cover is listed, so the components, their
order and their members are those of the full pair list.

Selection. The sample's pairs decide, before any attach: seeding runs
when a sampled point has on average at least _SEED_MIN_DEGREE sampled
neighbours, that is when the full graph has about
STRIDE * _SEED_MIN_DEGREE / 2 = 64 pairs per point or more. Below that
(chains, sparse sets, and any set of fewer than 129 points, whose sample
of at most 16 cannot reach that degree and is not listed), many points
would find no sampled neighbour, and the sweep lists every pair.

Labelling. The edges are labelled by a vectorised union-find, hook and
compress (Shiloach & Vishkin, 1982). Every point starts as its own
label; each point hooks onto its smallest neighbour; then, until no edge
crosses two labels, pointers jump to their roots and each root of a
crossing edge hooks onto the smaller root. Labels only ever fall to a
smaller index of the same component, so each ends as its component's
smallest index, the key the components are ordered by.

Cost. The sweep costs O(N log N) to sort and, per row, its window along
the sweep axis: d operations a window entry (narrow rows, in d2; block
rows, in the Gram product), plus O(d) a candidate, and O(d) Fraction
operations for each pair within the rounding margin of gamma**2. In low
dimension the window holds most of a slab of width 2 gamma across the set,
which may be far more than the row's neighbours; in high dimension the
Gram product runs at BLAS speed. Memory is O(N d) for the sorted copies
plus the pairs listed, E pairs at 8 bytes each once the columns are
int32. All pairs: the sweep over every point, E the pairs within gamma.
Seeded: the sample's sweep (about E / STRIDE^2 pairs), one attach sweep
of the other points against the sample, and the crossing passes, which
the bounding boxes usually cut to the points between groups; memory
O(N d + E / STRIDE^2 + crossing pairs). On 6010 ten-dimensional points
in four blobs at gamma 4 (1.67M pairs), the seeded side lists 26k sample
pairs and about 60 crossing ones; at gamma = inf it lists none.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right

import numpy as np

from .errors import ConfigError

__all__ = ["threshold_components"]

STRIDE = 8  # every STRIDE-th point is in the sample
_SEED_MIN_DEGREE = 16  # mean sampled-neighbour count from which seeding pays
_BLOCK = 1 << 16  # entries of a block x window product, and pairs tested at once
_ROWS = 64  # rows of a block, however narrow its window
_NARROW = 16  # a row with at most this many window entries skips the Gram product
_U = 2.0**-53  # unit roundoff of a double


def threshold_components(points, gamma: float) -> list[np.ndarray]:
    """Components of the graph with an edge iff ||p_i - p_j|| < gamma,
    exactly on the float inputs (see the module docstring's edge
    predicate). A pair at exactly gamma is not connected.

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
    gamma = float(gamma)  # Python floats overflow to inf without a warning
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    with np.errstate(over="ignore"):  # a box side or a d2 may overflow to inf, as in C
        if math.isinf(gamma * gamma) and _all_within(P, gamma):
            return [np.arange(n)]
        seeds = _seed_labels(P, gamma, dtype)
        i, j = _close_pairs(P, None, gamma) if seeds is None else _seeded_edges(P, gamma, seeds)
    labels = _min_labels(*_ordered(i, j, dtype), n)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _all_within(P: np.ndarray, gamma: float) -> bool:
    """Whether every pair is provably closer than gamma: the longest side
    of the bounding box, times sqrt(d), bounds every distance."""
    side = float(np.max(P.max(axis=0) - P.min(axis=0)))
    return gamma == math.inf or side * math.sqrt(P.shape[1]) * (1 + 8 * _U) < gamma


def _ordered(i: np.ndarray, j: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Edges as (smaller, larger) index columns of the given dtype."""
    i, j = i.astype(dtype), j.astype(dtype)
    return np.minimum(i, j), np.maximum(i, j)


def _seed_labels(P: np.ndarray, gamma: float, dtype) -> np.ndarray | None:
    """Each point's seed, the smallest index of the sampled component of
    a sampled point within gamma, or -1 where none was found; None when
    the sample is too sparse to pay."""
    sample = P[::STRIDE]
    if len(sample) <= _SEED_MIN_DEGREE:  # its mean degree is below the bar
        return None
    a, b = _close_pairs(sample, None, gamma)
    if 2 * len(a) < _SEED_MIN_DEGREE * len(sample):
        return None
    roots = STRIDE * _min_labels(*_ordered(a, b, dtype), len(sample))
    del a, b
    seeds = np.full(P.shape[0], -1, dtype=dtype)
    seeds[::STRIDE] = roots
    rest = np.flatnonzero(seeds < 0)
    hit, near = _attach(P[rest], sample, gamma)
    seeds[rest[hit]] = roots[near]
    return seeds


def _seeded_edges(P: np.ndarray, gamma: float, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges with the components of the threshold graph: each seeded
    point to its seed, plus every pair that crosses two seeds."""
    seeded = np.flatnonzero(seeds >= 0)
    lone = np.flatnonzero(seeds < 0)
    i, j = [seeds[seeded]], [seeded]
    if lone.size:
        a, b = _close_pairs(P[lone], P, gamma)
        i.append(lone[a])
        j.append(b)
    _, rank = np.unique(seeds[seeded], return_inverse=True)
    groups = int(rank.max()) + 1
    by_rank = np.argsort(rank, kind="stable")
    starts = np.searchsorted(rank[by_rank], np.arange(groups))
    box_lo = np.minimum.reduceat(P[seeded[by_rank]], starts)
    box_hi = np.maximum.reduceat(P[seeded[by_rank]], starts)
    for bit in range((groups - 1).bit_length()):
        high = (np.arange(groups) >> bit) & 1 == 1
        near_lo, near_hi = _near_boxes(box_lo, box_hi, ~high, high, _bound(gamma, P.shape[1]))
        lo, hi = seeded[near_lo[rank]], seeded[near_hi[rank]]
        a, b = _close_pairs(P[lo], P[hi], gamma)
        i.append(lo[a])
        j.append(hi[b])
    return np.concatenate(i), np.concatenate(j)


def _near_boxes(lo, hi, a, b, bound):
    """The groups of side a, and of side b, whose bounding box (rows of
    lo, hi) comes within the bound of a box of the other side. The box gap
    is at most the coordinate differences of any pair across the boxes,
    and its rounding lies within the prefilter's margin, so no edge is
    cut. Every group is kept when the table of box pairs exceeds a
    block."""
    ia, ib = np.flatnonzero(a), np.flatnonzero(b)
    if ia.size * ib.size * lo.shape[1] > _BLOCK:
        return a, b
    gap = np.maximum(lo[ib][None] - hi[ia][:, None], lo[ia][:, None] - hi[ib][None])
    np.maximum(gap, 0.0, out=gap)
    near = np.einsum("abk,abk->ab", gap, gap) <= bound
    keep_a, keep_b = np.zeros_like(a), np.zeros_like(b)
    keep_a[ia] = near.any(axis=1)
    keep_b[ib] = near.any(axis=0)
    return keep_a, keep_b


def _margin(d: int) -> float:
    """The relative margin c of the exact test and the prefilter (module
    docstring)."""
    return 4 * (d + 4) * _U


def _bound(gamma: float, d: int) -> float:
    """B: fl(gamma * gamma) raised by the prefilter's margin."""
    return (gamma * gamma + sys.float_info.min) * (1 + _margin(d))


def _close_pairs(X: np.ndarray, Y: np.ndarray | None, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (into X, into Y; Y None: both into X, each pair once)
    of the pairs closer than gamma."""
    if not len(X) or (Y is not None and not len(Y)):
        return np.empty(0, np.intp), np.empty(0, np.intp)
    sweep = _Sweep(X, Y, gamma)
    ks, ls = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for k, l in sweep.candidates(nearest=False):
        keep = sweep.within(k, l)
        ks.append(k[keep])
        ls.append(l[keep])
    return sweep.ox[np.concatenate(ks)], sweep.oy[np.concatenate(ls)]


def _attach(X: np.ndarray, Y: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """(hit, near): rows of X that have a row of Y closer than gamma, and
    for each such row one such row of Y."""
    sweep = _Sweep(X, Y, gamma)
    found = np.full(len(X), -1, dtype=np.intp)
    for k, l in sweep.candidates(nearest=True):
        keep = sweep.within(k, l)
        found[k[keep]] = l[keep]
    hit = np.flatnonzero(found >= 0)
    return sweep.ox[hit], sweep.oy[found[hit]]


class _Sweep:
    """X against Y (Y None: X against itself, each pair once) in order of
    the coordinate with the widest spread (module docstring). Rows and
    columns are positions in that order; ox and oy map them back to X and
    Y."""

    def __init__(self, X: np.ndarray, Y: np.ndarray | None, gamma: float):
        self.self_mode = Y is None
        both = X if Y is None else np.vstack([X, Y])
        self.low, self.high = both.min(axis=0), both.max(axis=0)
        axis = int(np.argmax(self.high - self.low))
        self.ox = np.argsort(X[:, axis], kind="stable")
        self.oy = self.ox if Y is None else np.argsort(Y[:, axis], kind="stable")
        self.xs = X[self.ox]
        self.ys = self.xs if Y is None else Y[self.oy]
        xa, ya = self.xs[:, axis], self.ys[:, axis]
        self.gamma = gamma
        c, tiny = _margin(X.shape[1]), sys.float_info.min
        g2 = min(gamma * gamma, sys.float_info.max)
        # d2 below d2_in: an edge; above d2_out: none; between: Fraction test
        self.d2_in, self.d2_out = g2 * (1 - c) - tiny, g2 * (1 + c) + tiny
        reach = gamma + c * (gamma + float(max(-self.low[axis], self.high[axis])))
        self.hi = np.searchsorted(ya, xa + reach, side="right")
        self.lo = np.arange(1, len(xa) + 1) if Y is None else np.searchsorted(ya, xa - reach)

    def candidates(self, nearest: bool):
        """Yield (rows, columns) of candidate pairs, about a block at a
        time; every pair closer than gamma is among them. With nearest, a
        row of a Gram block offers only its column of least estimate."""
        narrow = self.hi - self.lo <= _NARROW
        yield from self._window_pairs(np.flatnonzero(narrow))
        if not narrow.all():
            yield from self._gram_pairs(np.flatnonzero(~narrow), nearest)

    def within(self, k: np.ndarray, l: np.ndarray) -> np.ndarray:
        """The exact test, ||x_k - y_l|| < gamma: d2 decides outside its
        rounding margin of gamma**2, Fraction arithmetic inside it."""
        d2 = self._d2(k, l)
        keep = d2 < self.d2_in
        near = np.flatnonzero(~keep & (d2 <= self.d2_out))
        if near.size:
            from fractions import Fraction  # on demand: with decimal it adds about 0.5 MB
            g2 = Fraction(self.gamma) ** 2
            keep[near] = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, y)) < g2
                          for x, y in zip(self.xs[k[near]].tolist(), self.ys[l[near]].tolist())]
        return keep

    def _window_pairs(self, rows: np.ndarray):
        """Each of the rows against every column of its own window."""
        width = self.hi[rows] - self.lo[rows]
        ends = np.cumsum(width)
        if not len(ends) or ends[-1] <= _BLOCK:
            parts = [np.arange(len(rows))]
        else:
            parts = np.split(np.arange(len(rows)), np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK)))
        for part in parts:
            w = width[part]
            k = np.repeat(rows[part], w)
            l = np.arange(len(k)) + np.repeat(self.lo[rows[part]] - (np.cumsum(w) - w), w)
            yield k, l

    def _gram_pairs(self, rows: np.ndarray, nearest: bool):
        """The rows in blocks against their block's window, prefiltered by
        the Gram estimate; every window pair when the estimate could
        overflow."""
        xs, ys, d = self.xs, self.ys, self.xs.shape[1]
        mid = 0.5 * self.low + 0.5 * self.high
        scale = float(np.max(mid - self.low))
        bound, c = _bound(self.gamma, d), _margin(d)
        if not np.isfinite(2 * bound + 8 * (d + 2) * scale * scale):
            yield from self._window_pairs(rows)
            return
        xc = xs - mid
        yc = xc if self.self_mode else ys - mid
        xn = (1 - c) * np.einsum("ij,ij->i", xc, xc)
        yn = xn if self.self_mode else (1 - c) * np.einsum("ij,ij->i", yc, yc)
        left = np.hstack([-2.0 * xc, np.ones((len(xc), 1)), (xn - bound)[:, None]])
        right = np.hstack([yc, yn[:, None], np.ones((len(yc), 1))])
        del xc, yc
        lo, hi, n = self.lo[rows], self.hi[rows], len(rows)
        ks, ls, size = [], [], 0
        s = 0
        while s < n:
            a = int(lo[s])
            e = s + max(1, bisect_right(range(s + 1, min(n, s + _ROWS) + 1), _BLOCK,
                                        key=lambda e: (e - s) * (hi[e - 1] - a)))
            b = int(hi[e - 1])
            block = rows[s:e]
            est = left[block] @ right[a:b].T
            if nearest:
                l = np.argmin(est, axis=1)
                k = np.flatnonzero(est[np.arange(e - s), l] <= 0.0)
                l = l[k]
            else:
                k, l = np.divmod((est <= 0.0).ravel().nonzero()[0], b - a)
            k, l = block[k], l + a
            if self.self_mode:
                keep = l > k
                k, l = k[keep], l[keep]
            ks.append(k)
            ls.append(l)
            size += len(k)
            s = e
            if size >= _BLOCK or s == n:
                yield np.concatenate(ks), np.concatenate(ls)
                ks, ls, size = [], [], 0

    def _d2(self, k: np.ndarray, l: np.ndarray) -> np.ndarray:
        """d2 of the pairs (row k, column l), one einsum a block."""
        step = max(1, _BLOCK // self.xs.shape[1])
        out = np.empty(len(k))
        for s in range(0, len(k), step):
            diff = self.xs.take(k[s:s + step], axis=0)
            diff -= self.ys.take(l[s:s + step], axis=0)
            out[s:s + step] = np.einsum("ij,ij->i", diff, diff)
        return out


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
