"""Stage I, local empirical risk minimization, and the shard statistics
every descent runs on.

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
of A_i per machine (stage1_erms), and FedAvg's local steps as one
affine map per machine (distopt.fed_avg_robust).

Stage I computes one local model per machine (stage1_erms) with the
solver SolverSpec names: the exact ERM (local_erm), the only code that
reads raw rows, or that closed-form GD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datagen import WorkerShard
from .errors import ConfigError, NumericError, require_int, require_read
from .numerics import eigh_evd, least_squares

__all__ = [
    "SolverSpec",
    "ShardStats",
    "shard_stats",
    "local_gradient",
    "local_erm",
    "stage1_erms",
]

_SOLVER_KINDS = ("erm", "gd")


@dataclass(frozen=True)
class SolverSpec:
    """Stage-I solver: exact ERM or batch GD.

    GD runs iters steps, an integer >= 1, at 1/lambda_max of each
    machine's own Hessian. Only gd reads iters; erm keeps its default.
    """

    kind: str = "erm"
    iters: int = 100

    def __post_init__(self):
        if self.kind not in _SOLVER_KINDS:
            raise ConfigError(f"unknown solver {self.kind!r}; expected one of {_SOLVER_KINDS}")
        require_int("iters", self.iters, 1)
        require_read(self, self.kind, "solver", {"iters": ("gd",)})


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


def _gd_from_origin(lam, c, step, iters):
    """Eigen-coordinates of the iters-th iterate of w <- w - step (A w - b)
    from the origin, where A = V diag(lam) V' and c = V'b, for a step with
    every x_j = step lam_j <= 1.

    Coordinate j is c_j (1 - (1 - x_j)^T) / lam_j with T = iters, and
    1 - (1 - x)^T is -expm1(T log1p(-x)) to full precision; it is T step c_j
    where lam_j = 0 and c_j / lam_j where x_j = 1.
    """
    gain = np.full_like(lam, iters * step)
    x = step * lam
    land = x == 1.0
    gain[land] = 1.0 / lam[land]
    j = (lam != 0.0) & ~land
    gain[j] = -np.expm1(iters * np.log1p(-x[j])) / lam[j]
    return gain * c


def stage1_erms(shards: list[WorkerShard], solver: SolverSpec) -> np.ndarray:
    """Local model estimates for every machine, stacked (m, d).

    GD returns the solver.iters-th iterate of w <- w - step_i (A_i w - b_i)
    from the origin, with step_i = 1/lambda_max(A_i) (exactly 1 for raw
    points). The local risk is quadratic, so the iterate has a closed
    form in the eigenbasis of A_i (_gd_from_origin): one LAPACK
    eigendecomposition per machine and no iteration. fl(fl(1/L) L) <= 1
    for any L > 0, so no step_i lam_j exceeds 1 and the iterate cannot
    grow. For raw points A_i = I, so GD returns the shard mean b_i
    exactly. Each machine's row depends on its own shard only, and GD
    builds one machine's A_i, b_i at a time (_gd_erm). Raises
    NumericError if an iterate is not finite.
    """
    if solver.kind == "erm":
        return np.stack([local_erm(s) for s in shards])
    return np.stack([_gd_erm(s, solver.iters, i) for i, s in enumerate(shards)])


def _gd_erm(shard: WorkerShard, iters: int, i: int) -> np.ndarray:
    """Machine i's Stage-I GD iterate (stage1_erms), from its own A_i, b_i
    only, so no stack of every machine's statistics is held."""
    stats = shard_stats([shard])
    d = stats.b.shape[1]
    if stats.A is None:
        lam, V = np.ones(d), np.eye(d)  # products with I are exact
    else:
        lam, V = eigh_evd(stats.A[0])
    step = 1.0 / lam[-1] if lam[-1] > 0 else 1.0
    w = V @ _gd_from_origin(lam, V.T @ stats.b[0], step, iters)
    if not np.all(np.isfinite(w)):
        raise NumericError(f"stage-I gradient descent on machine {i} reached a non-finite iterate")
    return w
