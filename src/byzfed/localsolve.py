"""Local empirical risk minimization on a single machine's shard.

A shard's data fixes its loss:

* a shard with targets y carries the squared error
  f(w; (x, y)) = (1/2) (x'w - y)^2, the mixture-of-regressions loss. The
  exact ERM is ordinary least squares.
* a shard without targets (y is None) holds raw points p and carries the
  location loss f(w; p) = (1/2) ||w - p||^2, whose ERM is the shard mean.
  Ingested fleets are such shards.

Both local risks are quadratic, F_i(w) = (1/2) w'A_i w - b_i'w + const,
so a shard enters gradient descent only through its sufficient
statistics: A_i = X'X/n and b_i = X'y/n for the squared error, A_i = I
and b_i = the shard mean for the location loss. shard_stats stacks them
for a list of shards (A is None for raw points, whose A_i is I), and
local_gradient evaluates A_i w_i - b_i for all machines in one batched
matmul, or W - b for raw points; it is the only shard-gradient kernel,
used by Stage-III robust gradient descent. The other two descents run in
closed form on the same statistics: Stage-I GD from one eigendecomposition
of A_i per machine (pipeline.stage1_erms), and FedAvg's local steps as
one affine map per machine (distopt.fed_avg_robust).

Raw rows are read only where a solver needs them: the exact solver
(local_erm) and the one-pass online solver with iterate averaging
(online_to_batch).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .datagen import WorkerShard
from .errors import ConfigError, require_real
from .numerics import least_squares

__all__ = [
    "ShardStats",
    "shard_stats",
    "loss_grad",
    "local_gradient",
    "local_erm",
    "online_to_batch",
]

def loss_grad(w: np.ndarray, x: np.ndarray, y: float | None = None) -> np.ndarray:
    """Single-sample gradient of f(w; point) in w: the squared error's for
    a target y, the location loss's for y None."""
    if y is None:
        return w - x
    return x * float(x @ w - y)


class ShardStats(NamedTuple):
    """Stacked sufficient statistics of m shards: A (m, d, d), or None for
    raw-point shards, whose A_i is the identity; b (m, d) and the sample
    counts n (m,)."""

    A: np.ndarray | None
    b: np.ndarray
    n: np.ndarray


def shard_stats(shards: list[WorkerShard]) -> ShardStats:
    """Sufficient statistics of every shard's local risk, stacked.

    Raw-point shards (y None) give A None and b the shard means. Shards
    with and without targets carry different losses and cannot be stacked:
    mixing them raises ConfigError.
    """
    if not shards:
        raise ConfigError("need at least one shard")
    d = shards[0].X.shape[1]
    if any(s.X.shape[1] != d for s in shards):
        raise ConfigError("shards disagree on dimension")
    raw = shards[0].y is None
    if any((s.y is None) != raw for s in shards):
        raise ConfigError("shards with targets and shards without them carry different "
                          "losses and cannot be mixed")
    m = len(shards)
    n = np.array([s.n for s in shards])
    b = np.empty((m, d))
    if raw:
        for i, s in enumerate(shards):
            b[i] = s.X.mean(axis=0)
        return ShardStats(None, b, n)
    A = np.empty((m, d, d))
    for i, s in enumerate(shards):
        np.matmul(s.X.T, s.X, out=A[i])
        A[i] /= s.n
        b[i] = s.X.T @ s.y / s.n
    return ShardStats(A, b, n)


def local_gradient(stats: ShardStats, W: np.ndarray) -> np.ndarray:
    """Gradients A_i w_i - b_i of every machine's local risk, stacked (m, d).

    W is either (m, d), one model per machine, or a single (d,) model
    evaluated on every machine.
    """
    W = np.asarray(W, dtype=float)
    m, d = stats.b.shape
    if W.shape not in ((d,), (m, d)):
        raise ConfigError(f"W has shape {W.shape}, expected ({d},) or ({m}, {d})")
    if stats.A is None:  # raw points: A_i = I
        return W - stats.b
    return (stats.A @ W[..., None])[..., 0] - stats.b


def local_erm(shard: WorkerShard) -> np.ndarray:
    """Exact local empirical risk minimizer.

    Least squares for a shard with targets (minimum-norm solution when the
    shard is rank-deficient), the shard mean for raw points. At n close
    to d the least-squares problem is ill-conditioned and the solution lands
    far from its cluster's center, so Stage II may not separate the
    clusters: on an m = n = d = 100 fleet at sigma 1, trimmed k-means ends
    31% misclustered from these ERMs and 0% from 1000 GD steps.
    """
    if shard.n < 1:
        raise ConfigError("cannot solve an empty shard")
    if shard.y is None:
        return shard.X.mean(axis=0)
    return least_squares(shard.X, shard.y)


def online_to_batch(
    shard: WorkerShard,
    lam: float = 1.0,
    radius: float | None = None,
) -> np.ndarray:
    """Projected online gradient descent with iterate averaging.

    Starting from w_1 = 0, each sample is visited exactly once in shard
    order: w_{l+1} = Proj_B(R) [ w_l - eta_l grad f(w_l; point_l) ], and
    the returned estimate is the average of w_1 .. w_n. The default
    schedule is eta_l = 1/(lam*l) (l is 1-based) and the default ball
    radius is 2*sqrt(d).
    """
    if shard.n < 1:
        raise ConfigError("cannot solve an empty shard")
    require_real("lam", lam, positive=True)
    d = shard.X.shape[1]
    R = 2.0 * np.sqrt(d) if radius is None else float(radius)
    if R <= 0:
        raise ConfigError("radius must be > 0")

    w = np.zeros(d)
    total = np.zeros(d)
    for l in range(shard.n):
        total += w
        # one read of sample l, never revisited
        x = shard.X[l]
        yl = None if shard.y is None else float(shard.y[l])
        eta = 1.0 / (lam * (l + 1))
        w = w - eta * loss_grad(w, x, yl)
        nw = np.linalg.norm(w)
        if nw > R:
            w = w * (R / nw)
    return total / shard.n
