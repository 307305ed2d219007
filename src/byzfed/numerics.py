"""Dense linear algebra, cluster matching and reproducible random streams.

This is the one byzfed module that imports scipy, for LAPACK.
least_squares wraps numpy's lstsq; eigh_evd is LAPACK's syevd, the full
eigendecomposition Stage-I GD takes of every machine's A_i; top_eigenpair
is one call of LAPACK's syevr restricted to the largest eigenvalue, so
every step size 1/lambda_max and every spectral-filter test uses the top
eigenvalue to LAPACK accuracy. min_cost_assignment is the one
rectangular assignment solver: it matches estimated clusters to true
ones, both for est_error (pipeline._match_centers) and for
misclustering rates (clustering._match_labels).

Model vectors are plain 1-D float64 numpy arrays; a fixed dimension d is
shared by every vector in a run. All functions here are pure and
thread-safe. Random streams are single-owner: a stream is never drawn
from by two threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh, get_lapack_funcs
from scipy.linalg.lapack import _compute_lwork

from .errors import ConfigError, NumericError

__all__ = [
    "least_squares",
    "eigh_evd",
    "top_eigenpair",
    "min_cost_assignment",
    "RngStream",
    "derive_seed",
]


def least_squares(X, y) -> np.ndarray:
    """Minimize ||y - Xw||_2; minimum-norm solution on rank-deficient X.

    Small shards with n < d are a supported regime, so singular designs
    return the minimum-norm minimizer instead of raising.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1:
        raise ConfigError(f"bad shapes: X {X.shape}, y {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ConfigError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 1:
        raise ConfigError("need at least one sample")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ConfigError("least_squares input contains NaN or Inf")
    w, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    return w


def eigh_evd(A):
    """Every eigenpair of a symmetric matrix: (eigenvalues ascending,
    orthonormal eigenvectors as columns), from the lower triangle.

    This is scipy.linalg.eigh(A, driver="evd"), LAPACK's divide-and-conquer
    syevd. A non-finite A raises eigh's ValueError.
    """
    return eigh(A, driver="evd")


def top_eigenpair(M):
    """Largest eigenpair of a symmetric matrix, exact to LAPACK accuracy.

    Returns (eigenvalue, unit eigenvector); the eigenvector's sign is
    whatever LAPACK returns. Only the top eigenpair is computed, by syevr
    on the lower triangle with the workspace size LAPACK asks for: the
    call scipy.linalg.eigh(M, subset_by_index=[d-1, d-1]) makes, so the
    result is bit for bit eigh's, without eigh's argument handling. A
    non-finite M raises eigh's ValueError.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"expected a square matrix, got {M.shape}")
    # ndarray.max rather than np.max: the same reduction without its dispatch
    amax = float(np.abs(M).max())  # nan or inf when M is not finite
    scale = max(1.0, amax)
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise ConfigError("matrix is not symmetric within 1e-10")
    if not math.isfinite(amax):
        raise ValueError("array must not contain infs or NaNs")
    d = M.shape[0]
    syevr, syevr_lwork = get_lapack_funcs(("syevr", "syevr_lwork"), (M,))
    # eigh's own workspace query: another lwork can change LAPACK's
    # blocking, and with it the bits
    lwork, liwork = _compute_lwork(syevr_lwork, n=d, lower=1)
    w, V, _, _, info = syevr(
        M, compute_v=1, range="I", lower=1, il=d, iu=d, lwork=lwork, liwork=liwork
    )
    if info != 0:
        raise LinAlgError(
            f"Illegal value in argument {-info} of internal dsyevr" if info < -1
            else "Internal Error."
        )
    return float(w[0]), V[:, 0]


def min_cost_assignment(cost):
    """Rows and columns of a least-total-cost matching on a 2-D cost matrix.

    Returns (rows, cols), integer arrays of length min(cost.shape) with
    rows ascending, so that cost[rows, cols].sum() is minimal. The
    algorithm is the shortest augmenting path of D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
    2016, in the form scipy's linear_sum_assignment runs it, step for
    step: a tall matrix is solved transposed, the unvisited columns
    start in reverse order and are removed by swapping in the last one,
    and among equal path costs a column without a row is preferred. So
    the matching, ties included, is linear_sum_assignment's. A non-finite
    entry raises NumericError.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise ConfigError(f"expected a 2-D cost matrix, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise NumericError("assignment cost matrix contains NaN or Inf")
    transpose = c.shape[1] < c.shape[0]
    if transpose:
        c = c.T
    nr, nc = c.shape
    rows = c.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row cur to a column without a row
        min_val = 0.0
        remaining = list(range(nc - 1, -1, -1))
        n_remaining = nc
        in_sr = [False] * nr
        in_sc = [False] * nc
        spc = [math.inf] * nc
        i = cur
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            in_sr[i] = True
            ci, ui = rows[i], u[i]
            for it in range(n_remaining):
                j = remaining[it]
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest = spc[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:  # only when the reduced costs overflow
                raise NumericError("assignment cost matrix overflows")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_sc[j] = True
            n_remaining -= 1
            remaining[index] = remaining[n_remaining]
        # dual update, then augment along the path
        u[cur] += min_val
        for i in range(nr):
            if in_sr[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(nc):
            if in_sc[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return np.array([col4row[k] for k in order], dtype=np.intp), np.array(order, dtype=np.intp)
    return np.arange(nr, dtype=np.intp), np.array(col4row, dtype=np.intp)


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for a (master, path...) coordinate.

    Used to pre-split randomness before any parallel dispatch so thread
    scheduling can never affect results. Callers must keep path lengths
    consistent per master: SeedSequence entropy ignores trailing zero
    words, so (s,) and (s, 0) alias.
    """
    ss = np.random.SeedSequence(entropy=(int(master_seed),) + tuple(int(p) for p in path))
    w = ss.generate_state(2, dtype=np.uint32)
    return int(w[0]) << 32 | int(w[1])


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Identical (master_seed, stream_id) gives an identical draw sequence on
    every platform; distinct stream ids give statistically independent
    streams (SeedSequence spawn keys).
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.master_seed), spawn_key=(int(self.stream_id),))
        return np.random.Generator(np.random.PCG64(ss))
