"""Local empirical risk minimization on a single machine's shard.

Two loss families cover the pipeline:

* ``squared_error``: f(w; (x, y)) = (1/2) (x'w - y)^2, the mixture-of-
  regressions loss. The exact ERM is ordinary least squares.
* ``location``: f(w; p) = (1/2) ||w - p||^2 over raw points p, whose ERM
  is the shard mean. Ingested fleets use this loss.

Both local risks are quadratic, F_i(w) = (1/2) w'A_i w - b_i'w + const,
so a shard enters gradient descent only through its sufficient
statistics: A_i = X'X/n and b_i = X'y/n for the regression loss, A_i = I
and b_i = the shard mean for the location loss. shard_stats stacks them
for a list of shards, and local_gradient evaluates A_i w_i - b_i for all
machines in one batched matmul; it is the only shard-gradient kernel,
used by Stage-III robust gradient descent. The other two descents run in
closed form on the same statistics: Stage-I GD from one eigendecomposition
of A_i per machine (pipeline.stage1_erms), and FedAvg's local steps as
one affine map per machine (distopt.fed_avg_robust).

Raw rows are read only where a solver needs them: the exact solver
(local_erm) and the one-pass online solver with iterate averaging
(online_to_batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datagen import WorkerShard
from .errors import ConfigError, require_real
from .numerics import least_squares

__all__ = [
    "LossSpec",
    "ShardStats",
    "shard_stats",
    "loss_grad",
    "local_gradient",
    "local_erm",
    "online_to_batch",
]

_KINDS = ("squared_error", "location")


@dataclass(frozen=True)
class LossSpec:
    """Loss family tag; see the module docstring for the two kinds."""

    kind: str = "squared_error"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}; expected one of {_KINDS}")

    @property
    def uses_targets(self) -> bool:
        return self.kind == "squared_error"


def loss_grad(loss: LossSpec, w: np.ndarray, x: np.ndarray, y: float | None = None) -> np.ndarray:
    """Single-sample gradient of f(w; point) in w."""
    if loss.kind == "squared_error":
        if y is None:
            raise ConfigError("squared_error loss needs a target value")
        return x * float(x @ w - y)
    return w - x


class ShardStats(NamedTuple):
    """Stacked sufficient statistics of m shards: A (m, d, d), b (m, d)
    and the sample counts n (m,)."""

    A: np.ndarray
    b: np.ndarray
    n: np.ndarray


def shard_stats(shards: list[WorkerShard], loss: LossSpec) -> ShardStats:
    """Sufficient statistics of every shard's local risk, stacked.

    For the location loss A is a read-only broadcast view of the identity,
    so A_i w - b_i equals w - mean exactly.
    """
    if not shards:
        raise ConfigError("need at least one shard")
    d = shards[0].X.shape[1]
    if any(s.X.shape[1] != d for s in shards):
        raise ConfigError("shards disagree on dimension")
    m = len(shards)
    n = np.array([s.n for s in shards])
    b = np.empty((m, d))
    if loss.kind == "location":
        for i, s in enumerate(shards):
            b[i] = s.X.mean(axis=0)
        return ShardStats(np.broadcast_to(np.eye(d), (m, d, d)), b, n)
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
    return (stats.A @ W[..., None])[..., 0] - stats.b


def local_erm(shard: WorkerShard, loss: LossSpec) -> np.ndarray:
    """Exact local empirical risk minimizer.

    Least squares for the regression loss (minimum-norm solution when the
    shard is rank-deficient), shard mean for the location loss. At n close
    to d the least-squares problem is ill-conditioned and the solution lands
    far from its cluster's center, so Stage II may not separate the
    clusters: on an m = n = d = 100 fleet at sigma 1, trimmed k-means ends
    31% misclustered from these ERMs and 0% from 1000 GD steps.
    """
    if shard.n < 1:
        raise ConfigError("cannot solve an empty shard")
    if loss.kind == "squared_error":
        return least_squares(shard.X, shard.y)
    return shard.X.mean(axis=0)


def online_to_batch(
    shard: WorkerShard,
    loss: LossSpec,
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
        yl = float(shard.y[l]) if loss.uses_targets else None
        eta = 1.0 / (lam * (l + 1))
        w = w - eta * loss_grad(loss, w, x, yl)
        nw = np.linalg.norm(w)
        if nw > R:
            w = w * (R / nw)
    return total / shard.n
