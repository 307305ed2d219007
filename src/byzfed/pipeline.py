"""End-to-end three-stage pipeline and the seeded experiment grid.

Stage I computes every machine's local ERM (exactly or by a configured
inexact solver), Stage II clusters the ERM vectors, Stage III runs
Byzantine-robust distributed optimization inside each estimated cluster,
initialized at that cluster's Stage-II center. The headline metric is
est_error = max over matched clusters of ||w_hat - w*|| / sqrt(d).

All randomness is derived from PipelineConfig.seed before any parallel
dispatch, so results are independent of scheduling and thread count.
"""

from __future__ import annotations

import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import linear_sum_assignment

from .clustering import (
    ClusteringState,
    LloydVariant,
    MisclusterReport,
    edge_cut_cluster,
    iterfilter_2cluster,
    mismetrics,
    run_lloyd_variant,
    warm_start_init,
)
from .datagen import (
    ComponentLayout,
    FleetConfig,
    GroundTruth,
    WorkerShard,
    generate_fleet,
    ingest_threshold_graph,  # noqa: F401  (not called here; bench/tracer.py wraps this name)
    layout_components,
    read_points_csv,
    shard_components,
)
from .distopt import AttackSpec, OptConfig, fed_avg_robust, robust_gd
from .errors import ByzfedError, ConfigError, NumericError
from .localsolve import (
    _DIVERGENCE_NORM,
    LossSpec,
    local_erm,
    online_to_batch,
    shard_stats,
)
from .numerics import derive_seed
from .numerics import top_eigenpair  # noqa: F401  (not called here; bench/tracer.py wraps this name)
from .robust_stats import AggregatorSpec

__all__ = [
    "SolverSpec",
    "ClusterSpec",
    "IngestSpec",
    "PipelineConfig",
    "RunResult",
    "TrialOutcome",
    "run_pipeline",
    "run_grid",
    "ingest_layout",
    "stage1_erms",
    "config_to_dict",
    "config_from_dict",
    "opt_to_dict",
    "opt_from_dict",
]

_SOLVER_KINDS = ("erm", "gd", "ogd")
_CLUSTER_METHODS = ("edge_cut", "lloyd", "kgeomedian", "trimmed_kmeans", "iterfilter2")
_LOG_DIVERGENCE = math.log(_DIVERGENCE_NORM)


def _positive_real(v) -> bool:
    return (
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v) and v > 0
    )


@dataclass(frozen=True)
class SolverSpec:
    """Stage-I solver: exact ERM, batch GD, or one-pass online GD.

    step=None lets GD use 1/lambda_max of each machine's own Hessian.
    iters is an integer >= 1; step, lam and (when given) radius are
    finite and > 0.
    """

    kind: str = "erm"
    loss: str = "squared_error"
    step: float | None = None
    iters: int = 100
    lam: float = 1.0
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in _SOLVER_KINDS:
            raise ConfigError(f"unknown solver {self.kind!r}; expected one of {_SOLVER_KINDS}")
        LossSpec(self.loss)  # validates
        n = self.iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ConfigError(f"iters must be an integer >= 1, got {n!r}")
        if not _positive_real(self.lam):
            raise ConfigError(f"lam must be finite and > 0, got {self.lam!r}")
        for name in ("step", "radius"):  # None selects the default
            v = getattr(self, name)
            if v is not None and not _positive_real(v):
                raise ConfigError(f"{name} must be finite and > 0, got {v!r}")

    @property
    def loss_spec(self) -> LossSpec:
        return LossSpec(self.loss)


@dataclass(frozen=True)
class ClusterSpec:
    """Stage-II method and its knobs.

    warm_fraction configures the partially-correct initialization used by
    the Lloyd-family methods (and the two-cluster filter's starting
    center); gamma/min_cluster belong to edge_cut; T and variance_bound to
    iterfilter2.
    """

    method: str = "trimmed_kmeans"
    C: float = 2.0
    sigma_hat: float | None = None
    max_iter: int = 15
    warm_fraction: float = 0.6
    gamma: float | None = None
    min_cluster: int = 1
    T: int = 5
    variance_bound: float | None = None

    def __post_init__(self):
        if self.method not in _CLUSTER_METHODS:
            raise ConfigError(
                f"unknown cluster method {self.method!r}; expected one of {_CLUSTER_METHODS}"
            )
        if self.method == "edge_cut" and self.gamma is None:
            raise ConfigError("edge_cut needs gamma")
        if not 0.0 <= self.warm_fraction <= 1.0:
            raise ConfigError("warm_fraction must be in [0, 1]")
        if self.max_iter < 0:
            raise ConfigError("max_iter must be >= 0")
        if self.T < 1:
            raise ConfigError("T must be >= 1")

    def variant(self) -> LloydVariant:
        if self.method == "lloyd":
            return LloydVariant.lloyd()
        if self.method == "kgeomedian":
            return LloydVariant.kgeomedian()
        if self.method == "trimmed_kmeans":
            return LloydVariant.trimmed(C=self.C, sigma_hat=self.sigma_hat)
        raise ConfigError(f"{self.method} has no Lloyd variant")


@dataclass(frozen=True)
class IngestSpec:
    """External dataset: CSV of points, threshold-graph clustering into
    shards plus synthetic adversarial shards. Pairs with the location
    loss."""

    path: str
    gamma: float
    shard_size: int = 50
    n_adv: int = 0
    min_cluster: int = 1
    label_column: int | None = None

    def __post_init__(self):
        if not self.gamma > 0:
            raise ConfigError("gamma must be > 0")
        if self.shard_size < 1 or self.min_cluster < 1 or self.n_adv < 0:
            raise ConfigError("shard_size, min_cluster must be >= 1 and n_adv >= 0")


@dataclass(frozen=True)
class PipelineConfig:
    """Complete description of one seeded run.

    seed governs every random draw (fleet, initialization, attacks); a
    synthetic fleet spec's own seed field is overwritten with a derived
    stream. Output locations are a CLI concern and not part of the
    config's identity.
    """

    fleet: FleetConfig | IngestSpec
    solver: SolverSpec = field(default_factory=SolverSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    opt: OptConfig = field(default_factory=OptConfig)
    attack: AttackSpec = field(default_factory=AttackSpec)
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.fleet, IngestSpec) and self.solver.loss != "location":
            raise ConfigError("ingested fleets carry raw points; use the location loss")


@dataclass
class RunResult:
    """Outputs of one pipeline run.

    est_error is NaN when no ground truth exists. matched_pairs lists
    (estimated cluster, true cluster) index pairs used for est_error;
    estimated clusters beyond the matching are counted in n_unmatched and
    excluded from the metric.
    """

    per_cluster_w_hat: np.ndarray
    est_error: float
    clustering_history: list[MisclusterReport]
    opt_trajectories: list[np.ndarray]
    wall_times: dict[str, float]
    cluster_state: ClusteringState
    matched_pairs: list[tuple[int, int]]
    n_unmatched: int = 0
    true_centers: np.ndarray | None = None


@dataclass
class TrialOutcome:
    """One grid cell x trial: either a RunResult or an error string."""

    cell: str
    clusterer: str
    optimizer: str
    trial: int
    seed: int
    result: RunResult | None
    error: str | None = None


# ---------------------------------------------------------------------------
# stage I


def _gd_from_origin(lam, c, step, iters):
    """Eigen-coordinates of the iters-th iterate of w <- w - step (A w - b)
    from the origin, where A = V diag(lam) V' and c = V'b; None if the
    iterate diverges.

    Coordinate j is c_j (1 - r_j^T) / lam_j with r_j = 1 - step lam_j and
    T = iters; it is T step c_j where lam_j = 0, c_j / lam_j where r_j = 0,
    and 0 where c_j = 0. |r|^T is exp(T log|r|), so 1 - r^T is
    -expm1(T log|r|) where r^T > 0 and 2 + expm1(T log|r|) where r^T < 0,
    both to full precision. Divergence (one coordinate alone past the
    divergence norm) is judged on logarithms, so a diverging step
    overflows nothing.
    """
    gain = np.full_like(lam, iters * step)
    x = step * lam
    land = x == 1.0
    gain[land] = 1.0 / lam[land]
    j = (lam != 0.0) & ~land & (c != 0.0)
    xj, lamj, cj = x[j], lam[j], c[j]
    up = xj > 1.0
    log_r = np.empty_like(xj)
    log_r[~up] = np.log1p(-xj[~up])
    log_r[up] = np.log(xj[up] - 1.0)
    e = iters * log_r
    # |1 - r^T| >= |r|^T - 1 = exp(e) - 1 bounds a growing coordinate from below
    g = e > 0.0
    log_low = e[g] + np.log(-np.expm1(-e[g])) + np.log(np.abs(cj[g] / lamj[g]))
    if np.any(log_low > _LOG_DIVERGENCE):
        return None
    em1 = np.expm1(e)
    negative = up & (iters % 2 == 1)  # r < 0 and T odd: r^T < 0
    gain[j] = np.where(negative, 2.0 + em1, -em1) / lamj
    return gain * c


def stage1_erms(shards: list[WorkerShard], solver: SolverSpec) -> np.ndarray:
    """Local model estimates for every machine, stacked (m, d).

    GD returns the solver.iters-th iterate of w <- w - step_i (A_i w - b_i)
    from the origin, with step_i = solver.step or 1/lambda_max(A_i)
    (exactly 1 for the location loss). The local risk is quadratic, so the
    iterate has a closed form in the eigenbasis of A_i (_gd_from_origin):
    one LAPACK eigendecomposition per machine and no iteration. For the
    location loss A_i = I, so the auto step returns the shard mean b_i
    exactly. Each machine's row depends on its own shard only. Raises
    NumericError if the iterate is not finite or its norm exceeds 1e12.
    """
    loss = solver.loss_spec
    if solver.kind == "erm":
        return np.stack([local_erm(s, loss) for s in shards])
    if solver.kind == "ogd":
        return np.stack(
            [online_to_batch(s, loss, lam=solver.lam, radius=solver.radius) for s in shards]
        )
    stats = shard_stats(shards, loss)
    m, d = stats.b.shape
    W = np.empty((m, d))
    for i in range(m):
        if loss.kind == "location":
            lam, V = np.ones(d), np.eye(d)  # products with I are exact
        else:
            lam, V = eigh(stats.A[i], overwrite_a=True, driver="evd")
        step = solver.step
        if step is None:
            step = 1.0 / lam[-1] if lam[-1] > 0 else 1.0
        coords = _gd_from_origin(lam, V.T @ stats.b[i], step, solver.iters)
        w = None if coords is None else V @ coords
        if w is None or not np.all(np.isfinite(w)) or np.linalg.norm(w) > _DIVERGENCE_NORM:
            raise NumericError(
                f"stage-I gradient descent diverged on machine {i}: step {step:.6g} takes "
                f"the iterate past norm {_DIVERGENCE_NORM:g} within {solver.iters} iterations"
            )
        W[i] = w
    return W


# ---------------------------------------------------------------------------
# stage II


def _stage2(cfg: PipelineConfig, erms, truth):
    history: list[MisclusterReport] = []
    spec = cfg.cluster
    if spec.method == "edge_cut":
        state = edge_cut_cluster(erms, spec.gamma, spec.min_cluster)
        if truth is not None and state.K == truth.K:
            history.append(mismetrics(state, truth))
        return state, history

    if truth is None:
        raise ConfigError(
            f"{spec.method} initializes from a warm start and needs ground truth; "
            "use edge_cut on unlabeled data"
        )
    init_seed = derive_seed(cfg.seed, 1)
    K = truth.K

    if spec.method == "iterfilter2":
        if K != 2:
            raise ConfigError("iterfilter2 applies to the symmetric 2-cluster setting only")
        warm = warm_start_init(erms, truth, spec.warm_fraction, K, seed=init_seed)
        filt = AggregatorSpec.filtering(variance_bound=spec.variance_bound)
        theta, signs = iterfilter_2cluster(erms, warm.centers[0], spec.T, filter=filt)
        labels = np.where(signs > 0, 0, 1)
        state = ClusteringState(
            labels=labels, centers=np.stack([theta, -theta]), iteration=spec.T
        )
        history.append(mismetrics(state, truth))
        return state, history

    init = warm_start_init(erms, truth, spec.warm_fraction, K, seed=init_seed)
    state, history = run_lloyd_variant(
        erms, init, spec.variant(), max_iter=spec.max_iter, ground_truth=truth
    )
    return state, history


# ---------------------------------------------------------------------------
# stage III and metric


def _stage3(cfg: PipelineConfig, shards, state: ClusteringState, loss: LossSpec):
    w_hats = np.empty_like(state.centers)
    trajectories: list[np.ndarray] = []
    labels = state.labels
    for k in range(state.K):
        members = [shards[i] for i in np.flatnonzero(labels == k)]
        if not members:
            w_hats[k] = state.centers[k]
            trajectories.append(state.centers[k][None, :].copy())
            continue
        opt = replace(cfg.opt, init=state.centers[k])
        attack = replace(cfg.attack, seed=derive_seed(cfg.seed, 2, k))
        if opt.local_steps > 1:
            w, traj = fed_avg_robust(members, loss, opt, attack)
        else:
            w, traj = robust_gd(members, loss, opt, attack)
        w_hats[k] = w
        trajectories.append(traj)
    return w_hats, trajectories


def _match_centers(w_hats: np.ndarray, centers_true: np.ndarray) -> list[tuple[int, int]]:
    """Pair estimated clusters with true centers by the assignment of least
    total distance; with unequal counts, min(counts) pairs are made."""
    dist = np.linalg.norm(w_hats[:, None, :] - centers_true[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(dist)
    return list(zip(rows.tolist(), cols.tolist()))


@contextmanager
def _tag_stage(stage: str):
    """Prefix the message of a ByzfedError raised inside with the stage."""
    try:
        yield
    except ByzfedError as exc:
        exc.args = (f"{stage}: {exc}",)
        raise


def run_pipeline(
    cfg: PipelineConfig,
    *,
    fleet: list[WorkerShard] | None = None,
    ground_truth: GroundTruth | None = None,
    erms: np.ndarray | None = None,
) -> RunResult:
    """Run the three stages for one config and seed.

    A pre-built fleet (and optionally its Stage-I ERMs) can be injected to
    share work across grid cells; the result is bit-identical to building
    them from cfg, since both paths use the same derived streams.
    """
    times: dict[str, float] = {}
    loss = cfg.solver.loss_spec

    t0 = time.perf_counter()
    if fleet is None:
        if erms is not None:
            raise ConfigError("erms injection requires an injected fleet")
        with _tag_stage("stage1"):
            fleet, ground_truth = materialize_fleet(cfg)
    for i, s in enumerate(fleet):
        if s.machine_id != i:
            raise ConfigError("shards must be ordered by machine_id")
    with _tag_stage("stage1"):
        if erms is None:
            erms = stage1_erms(fleet, cfg.solver)
    times["stage1"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _tag_stage("stage2"):
        state, history = _stage2(cfg, erms, ground_truth)
    times["stage2"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _tag_stage("stage3"):
        w_hats, trajectories = _stage3(cfg, fleet, state, loss)
    times["stage3"] = time.perf_counter() - t0

    if ground_truth is not None:
        pairs = _match_centers(w_hats, ground_truth.centers)
        d = fleet[0].X.shape[1]
        est_error = max(
            float(np.linalg.norm(w_hats[i] - ground_truth.centers[j])) / np.sqrt(d)
            for i, j in pairs
        )
        n_unmatched = w_hats.shape[0] - len(pairs)
    else:
        pairs, est_error, n_unmatched = [], float("nan"), w_hats.shape[0]

    return RunResult(
        per_cluster_w_hat=w_hats,
        est_error=est_error,
        clustering_history=history,
        opt_trajectories=trajectories,
        wall_times=times,
        cluster_state=state,
        matched_pairs=pairs,
        n_unmatched=n_unmatched,
        true_centers=None if ground_truth is None else ground_truth.centers.copy(),
    )


def ingest_layout(spec: IngestSpec, points=None) -> ComponentLayout:
    """The seed-free half of an ingest fleet: the points of spec.path
    (read here unless the caller already holds them) grouped into
    threshold-graph components. Build it once per run; every trial shards
    it under its own seed."""
    if points is None:
        points = read_points_csv(spec.path, label_column=spec.label_column)
    return layout_components(
        points, spec.gamma, spec.min_cluster, spec.shard_size, source=spec
    )


def _resolve_layout(
    fleet: FleetConfig | IngestSpec, layout: ComponentLayout | None
) -> ComponentLayout | None:
    """The layout an ingest fleet is sharded from: the injected one, which
    must have been built from this spec, or a new one. None for a
    synthetic fleet."""
    if not isinstance(fleet, IngestSpec):
        if layout is not None:
            raise ConfigError("a component layout applies to ingest fleets only")
        return None
    if layout is None:
        return ingest_layout(fleet)
    if layout.source != fleet:
        raise ConfigError("the component layout was built from a different ingest spec")
    return layout


def materialize_fleet(
    cfg: PipelineConfig, layout: ComponentLayout | None = None
) -> tuple[list[WorkerShard], GroundTruth]:
    """Build the fleet named by the config, seeded from cfg.seed.

    An ingest fleet can take its pre-built layout (see ingest_layout); the
    result is bit-identical to building the layout here.
    """
    fleet_seed = derive_seed(cfg.seed, 0)
    layout = _resolve_layout(cfg.fleet, layout)
    if layout is None:
        return generate_fleet(replace(cfg.fleet, seed=fleet_seed))
    return shard_components(layout, n_adv=cfg.fleet.n_adv, seed=fleet_seed)


# ---------------------------------------------------------------------------
# grid


def run_grid(
    base_cfg: PipelineConfig,
    clusterers: list[tuple[str, ClusterSpec]],
    optimizers: list[tuple[str, OptConfig]],
    n_trials: int,
    seed: int | None = None,
    threads: int = 1,
    layout: ComponentLayout | None = None,
) -> tuple[list[TrialOutcome], list[dict]]:
    """Cartesian product of clusterers x optimizers over seeded trials.

    Trial t uses the same derived seed in every cell, so cells are paired:
    they see identical fleets and Stage-I ERMs (computed once per trial
    and shared). An ingest fleet's component layout is seed-free: it is
    built once, before any trial (or injected, see ingest_layout), and a
    failure to build it raises. Other fleet and cell failures are
    recorded as error strings and the grid continues. Returns (outcomes,
    per-cell summary rows); outcomes are ordered cell-major then by trial,
    independent of thread count.
    """
    if not clusterers or not optimizers:
        raise ConfigError("clusterers and optimizers must be nonempty")
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    master = base_cfg.seed if seed is None else seed
    trial_seeds = [derive_seed(master, t) for t in range(n_trials)]
    layout = _resolve_layout(base_cfg.fleet, layout)

    def _prepare(t):
        try:
            cfg = replace(base_cfg, seed=trial_seeds[t])
            fleet, truth = materialize_fleet(cfg, layout)
            return fleet, truth, stage1_erms(fleet, cfg.solver)
        except Exception as exc:  # fleet failure poisons the trial, not the grid
            return exc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        prepared = list(pool.map(_prepare, range(n_trials)))

        tasks = []
        for cname, cspec in clusterers:
            for oname, ospec in optimizers:
                for t in range(n_trials):
                    tasks.append((cname, cspec, oname, ospec, t))

        def _run(task):
            cname, cspec, oname, ospec, t = task
            cell = f"{cname}+{oname}"
            cfg = replace(base_cfg, cluster=cspec, opt=ospec, seed=trial_seeds[t])
            if isinstance(prepared[t], Exception):
                return TrialOutcome(
                    cell, cname, oname, t, trial_seeds[t], None, repr(prepared[t])
                )
            fleet, truth, erms = prepared[t]
            try:
                result = run_pipeline(cfg, fleet=fleet, ground_truth=truth, erms=erms)
                return TrialOutcome(cell, cname, oname, t, trial_seeds[t], result)
            except Exception as exc:  # record and continue per grid contract
                return TrialOutcome(cell, cname, oname, t, trial_seeds[t], None, repr(exc))

        outcomes = list(pool.map(_run, tasks))

    summary = summarize_grid(outcomes)
    return outcomes, summary


def summarize_grid(outcomes: list[TrialOutcome]) -> list[dict]:
    """Per-cell mean and sample standard deviation of est_error."""
    cells: dict[str, list[TrialOutcome]] = {}
    order = []
    for o in outcomes:
        if o.cell not in cells:
            cells[o.cell] = []
            order.append(o.cell)
        cells[o.cell].append(o)
    rows = []
    for cell in order:
        outs = cells[cell]
        errs = [o.result.est_error for o in outs if o.result is not None]
        errs = [e for e in errs if np.isfinite(e)]
        rows.append(
            {
                "cell": cell,
                "clusterer": outs[0].clusterer,
                "optimizer": outs[0].optimizer,
                "n_trials": len(outs),
                "n_failed": sum(1 for o in outs if o.result is None),
                "est_error_mean": float(np.mean(errs)) if errs else float("nan"),
                "est_error_sd": float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# config (de)serialization


def opt_to_dict(opt: OptConfig) -> dict:
    """JSON-safe snapshot of an optimizer config; round-trips through
    opt_from_dict."""
    d = asdict(opt)
    d["init"] = None if opt.init is None else [float(v) for v in opt.init]
    return d


def opt_from_dict(data: dict) -> OptConfig:
    d = dict(data)
    if isinstance(d.get("aggregator"), dict):
        d["aggregator"] = AggregatorSpec(**d["aggregator"])
    return OptConfig(**d)


def config_to_dict(cfg: PipelineConfig) -> dict:
    """JSON-safe snapshot; round-trips through config_from_dict."""
    if isinstance(cfg.fleet, FleetConfig):
        fleet = {"type": "synthetic", **asdict(cfg.fleet)}
    else:
        fleet = {"type": "ingest", **asdict(cfg.fleet)}
    attack = asdict(cfg.attack)
    attack["vector"] = (
        None if cfg.attack.vector is None else [float(v) for v in cfg.attack.vector]
    )
    return {
        "fleet": fleet,
        "solver": asdict(cfg.solver),
        "cluster": asdict(cfg.cluster),
        "opt": opt_to_dict(cfg.opt),
        "attack": attack,
        "seed": cfg.seed,
    }


def config_from_dict(data: dict) -> PipelineConfig:
    try:
        fleet_data = dict(data["fleet"])
        kind = fleet_data.pop("type")
        if kind == "synthetic":
            fleet = FleetConfig(**fleet_data)
        elif kind == "ingest":
            fleet = IngestSpec(**fleet_data)
        else:
            raise ConfigError(f"unknown fleet type {kind!r}")
        attack_data = dict(data.get("attack", {}))
        return PipelineConfig(
            fleet=fleet,
            solver=SolverSpec(**data.get("solver", {})),
            cluster=ClusterSpec(**data.get("cluster", {})),
            opt=opt_from_dict(data.get("opt", {})),
            attack=AttackSpec(**attack_data),
            seed=int(data.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
