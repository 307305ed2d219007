"""Byzantine-robust distributed gradient descent within one cluster.

Each round, every machine reports a gradient of the global model on its
own shard (or an attacked value, for Byzantine machines); the center
aggregates the reports with a pluggable robust estimator and takes a
descent step. fed_avg_robust is the federated-averaging variant: machines
run several local descent steps and the center aggregates the returned
models instead of gradients.

Both optimizers run on the cluster's stacked shard statistics
(localsolve.shard_stats; the shards' data fixes the loss) and compute
every machine's report of a round in one batched step; Byzantine rows
are then overwritten with the attacked report. robust_gd's reports are
localsolve.local_gradient.
fed_avg_robust's local steps run on a quadratic local risk, so L of them
are one affine map w -> P_i w + q_i per machine, built once per call; a
round is then one batched matvec instead of L.

Calls on the same machines can share a ClusterTable: the cluster's
statistics and pooled auto step, each built by the first call that needs
it, and its random_gauss reports. A random_gauss report depends only on
the call's seed argument, the attack scale, the machine and the round,
not on the optimizer, so the table keys it by those four values. A grid
keeps one table per (trial, clusterer, cluster) and runs every optimizer
cell of the clusterer on it, so the cells share the statistics, the step
and every Gaussian report instead of rebuilding them. fed_avg_robust
writes its P_i over A_i, as a second (m, d, d) buffer would raise peak
memory, so it takes the statistics out of the table: a call after it
rebuilds them, bit for bit. Without a table each call builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .datagen import WorkerShard
from .errors import ConfigError, real_field, require_int, require_read
from .localsolve import ShardStats, local_gradient, shard_stats
from .numerics import RngStream, derive_seed, top_eigenpair
from .robust_stats import AggregatorSpec, aggregate

__all__ = [
    "OptConfig",
    "AttackSpec",
    "robust_gd",
    "fed_avg_robust",
    "pooled_auto_step",
    "ClusterTable",
]

_ATTACK_KINDS = ("own_corrupt_data", "sign_flip", "random_gauss", "constant")

# a run whose iterate passes this norm has diverged and stops
_DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class AttackSpec:
    """Byzantine reporting behavior, applied only to Byzantine machines.

    own_corrupt_data (the default) means Byzantine machines follow the
    honest protocol on their own corrupted shard: the attack lives in the
    data, not the messages. The remaining kinds replace the report
    outright: its negation scaled (sign_flip), a Gaussian vector
    (random_gauss), or a fixed vector (constant). vector is set for
    constant and only for constant; scale is read by sign_flip and
    random_gauss and must stay 1.0 for the other kinds. The random_gauss
    draws take their seed from the optimizer call.
    """

    kind: str = "own_corrupt_data"
    scale: float = 1.0
    vector: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r}; expected one of {_ATTACK_KINDS}")
        if isinstance(self.scale, bool) or not math.isfinite(self.scale):  # TypeError if not real
            raise ConfigError(f"attack scale must be a finite number, got {self.scale!r}")
        object.__setattr__(self, "scale", float(self.scale))
        require_read(self, self.kind, "attack kind",
                     {"vector": ("constant",), "scale": ("sign_flip", "random_gauss")})
        if self.kind == "constant":
            if self.vector is None:
                raise ConfigError("constant attack needs a vector")
            object.__setattr__(self, "vector", np.asarray(self.vector, dtype=float))

    def require_dim(self, d: int) -> None:
        """Raise ConfigError unless a constant attack's vector has d entries."""
        if self.kind == "constant" and self.vector.shape != (d,):
            raise ConfigError(
                f"constant attack vector has shape {self.vector.shape}, expected ({d},)"
            )


@dataclass(frozen=True)
class OptConfig:
    """Distributed optimization settings.

    Every step is 1/lambda_max of the pooled covariance across the
    cluster's shards (pooled_auto_step). local_steps is the number of
    local steps per round of fed_avg_robust; robust_gd takes one gradient
    per round and rejects local_steps > 1.
    """

    max_rounds: int = 300
    aggregator: AggregatorSpec = field(default_factory=partial(AggregatorSpec, "sample_mean"))
    local_steps: int = 1
    stop_tol: float = 1e-8

    def __post_init__(self):
        require_int("max_rounds", self.max_rounds, 1)
        require_int("local_steps", self.local_steps, 1)
        real_field(self, "stop_tol")


@dataclass
class ClusterTable:
    """Work shared by optimizer calls on one cluster's machines (see the
    module docstring).

    reports maps (seed, attack scale, machine id, round) to a read-only
    random_gauss report. stats and step are the cluster's ShardStats and
    pooled auto step, None until a call needs them; stats is None again
    after a fed_avg_robust call, which writes over it.
    """

    reports: dict = field(default_factory=dict)
    stats: ShardStats | None = None
    step: float | None = None


def pooled_auto_step(stats: ShardStats) -> float:
    """1 / lambda_max of the pooled second-moment matrix over the cluster,
    the n-weighted mean of the shards' A_i; 1 for raw points, whose
    Hessian is the identity."""
    if stats.A is None:
        return 1.0
    # accumulate n_i A_i in machine order, then divide once, as the pooled
    # sum X'X / N would; no (m, d, d) temporary
    H = np.zeros(stats.A.shape[1:])
    for n_i, A_i in zip(stats.n, stats.A):
        H += n_i * A_i
    H /= stats.n.sum()
    lam, _ = top_eigenpair(H)
    return 1.0 / lam if lam > 0 else 1.0


def _gauss_report(attack, seed, machine_id, round_idx, d):
    """The random_gauss report of one machine in one round, read-only."""
    rng = RngStream(derive_seed(seed, machine_id, round_idx), 0).generator()
    report = attack.scale * rng.standard_normal(d)
    report.flags.writeable = False
    return report


def _attacked_report(row, shard, attack, seed, round_idx, d, reports):
    """Vector a Byzantine machine sends in place of its honest row, for the
    kinds that replace it. A random_gauss report is looked up in reports,
    and drawn into it on a miss."""
    if attack.kind == "sign_flip":
        return -attack.scale * row
    if attack.kind == "random_gauss":
        key = (seed, attack.scale, shard.machine_id, round_idx)
        report = reports.get(key)
        if report is None:
            report = reports[key] = _gauss_report(attack, seed, shard.machine_id, round_idx, d)
        return report
    return attack.vector.copy()


def _local_steps_map(stats, step, local_steps):
    """Every machine's local_steps GD steps from one global model w, as
    one affine map per machine: w -> P_i w + q_i with
    P_i = (I - step A_i)^L and q_i = sum_{l<L} (I - step A_i)^l step b_i.

    Returns a function of w giving the stacked (m, d) local models. P_i
    overwrites A_i in stats, one machine at a time, so the caller must own
    the buffer and no longer need A. For raw points A is the identity and
    P the scalar (1 - step)^L.
    """
    L = local_steps
    if stats.A is None:
        r = 1.0 - step
        p = r**L
        q = sum(step * r**l for l in range(L)) * stats.b
        return lambda w: p * w + q
    A, b = stats.A, stats.b
    eye = np.eye(b.shape[1])
    q = np.empty_like(b)
    for i in range(len(A)):
        M = eye - step * A[i]
        sb = step * b[i]
        q[i] = sb
        for _ in range(L - 1):
            q[i] = M @ q[i] + sb
        A[i] = np.linalg.matrix_power(M, L)
    return lambda w: A @ w + q


def _descend(shards, cfg, attack, local_steps, init, seed, table):
    """Shared round loop; local_steps=None is robust_gd (aggregate
    gradients, then step), an int is fed_avg_robust (aggregate models)."""
    attack = attack or AttackSpec()
    table = ClusterTable() if table is None else table
    if table.stats is None:
        table.stats = shard_stats(shards)
    stats = table.stats
    d = stats.b.shape[1]
    if table.step is None:
        table.step = pooled_auto_step(stats)
    step = table.step
    w = np.zeros(d) if init is None else np.array(init, dtype=float)
    if w.shape != (d,):
        raise ConfigError(f"init has shape {w.shape}, expected ({d},)")
    attack.require_dim(d)
    if local_steps is None:
        reports_at = partial(local_gradient, stats)
    else:  # P overwrites A, so the table no longer holds the statistics
        table.stats = None
        reports_at = _local_steps_map(stats, step, local_steps)
    # own_corrupt_data reports the honest row
    byzantine = (
        [] if attack.kind == "own_corrupt_data"
        else [i for i, s in enumerate(shards) if s.is_byzantine]
    )
    traj = np.empty((cfg.max_rounds + 1, d))
    traj[0] = w
    for t in range(cfg.max_rounds):
        reports = reports_at(w)
        for i in byzantine:
            reports[i] = _attacked_report(reports[i], shards[i], attack, seed, t, d, table.reports)
        agg = aggregate(reports, cfg.aggregator)
        w_next = w - step * agg if local_steps is None else agg
        traj[t + 1] = w_next
        # math.sqrt(x.dot(x)) is np.linalg.norm's arithmetic for a 1-D
        # float64 x, without its dispatch
        diff = w_next - w
        delta = math.sqrt(diff.dot(diff))
        w = w_next
        if delta < cfg.stop_tol:
            break
        # Halt diverging runs at a bounded iterate rather than compounding
        # for the full round budget; the caller sees the blow-up in the
        # returned model and trajectory. A NaN norm fails the test too.
        if not math.sqrt(w.dot(w)) <= _DIVERGENCE_NORM:
            break
    # a copy, so the unused rounds' rows are not kept alive
    return w, traj[: t + 2].copy()


def robust_gd(
    shards: list[WorkerShard],
    cfg: OptConfig,
    attack: AttackSpec | None = None,
    *,
    init: np.ndarray | None = None,
    seed: int = 0,
    table: ClusterTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Robustly aggregated distributed gradient descent.

    Returns (final model, trajectory of all models including the start).
    Stops after max_rounds or when the update norm drops below stop_tol.
    Robust aggregators assume fewer than half the shards are Byzantine;
    this is the caller's contract, not enforced here.

    init is the start (the origin if None) and seed seeds the
    random_gauss reports. table is a ClusterTable shared with other calls
    on the same machines (see the module docstring); None builds and
    draws privately.
    """
    if cfg.local_steps > 1:
        raise ConfigError(f"robust_gd takes local_steps=1, got {cfg.local_steps}; use fed_avg_robust")
    return _descend(shards, cfg, attack, None, init, seed, table)


def fed_avg_robust(
    shards: list[WorkerShard],
    cfg: OptConfig,
    attack: AttackSpec | None = None,
    *,
    init: np.ndarray | None = None,
    seed: int = 0,
    table: ClusterTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Robust federated averaging.

    Per round every machine runs cfg.local_steps gradient-descent steps
    from the global model on its own shard; the center aggregates the
    returned local models. The L steps are applied as one precomputed
    affine map per machine, P_i = (I - step A_i)^L and
    q_i = sum_{l<L} (I - step A_i)^l step b_i, equal to the step-by-step
    recursion up to rounding. With local_steps=1 and an affine-equivariant
    aggregator this coincides with robust_gd round for round.

    init is the start (the origin if None) and seed seeds the
    random_gauss reports. table is a ClusterTable shared with other calls
    on the same machines (see the module docstring); None builds and
    draws privately.
    """
    return _descend(shards, cfg, attack, cfg.local_steps, init, seed, table)
