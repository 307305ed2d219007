"""End-to-end three-stage pipeline and the seeded experiment grid.

Stage I computes every machine's local ERM (exactly or by a configured
inexact solver), Stage II clusters the ERM vectors, Stage III runs
Byzantine-robust distributed optimization inside each estimated cluster,
initialized at that cluster's Stage-II center. The headline metric is
est_error = max over matched clusters of ||w_hat - w*|| / sqrt(d).

In a grid, Stage II depends only on (clusterer, trial) and Stage III on
the cell, so run_grid makes one pool task per trial: the fleet and Stage I
once, Stage II once per clusterer, then Stage III cluster by cluster. For
each cluster, the optimizer cells of the clusterer run in config order on
one distopt.ClusterTable: the cluster's shard statistics and pooled step,
each built once when first needed (the statistics again after a FedAvg
cell, which writes over them), and its Byzantine reports, each drawn
once. The table is dropped before the next cluster.

So a trial holds its fleet plus one stage's working set: Stage I builds
one machine's statistics at a time, Stage III at most one cluster's,
and a cell's trajectories live only until its clusters are matched,
when each is reduced to its per-round records (RunResult). run_pipeline
is the one-cell composition of the same stage helpers.

All randomness is derived from PipelineConfig.seed before any parallel
dispatch, so results are independent of scheduling and thread count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np
from scipy.linalg import eigh

from .clustering import (
    ClusterSpec,
    ClusteringState,
    MisclusterReport,
    edge_cut_cluster,
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
from .distopt import AttackSpec, ClusterTable, OptConfig, fed_avg_robust, robust_gd
from .errors import ByzfedError, ConfigError, NumericError, require_int, require_real
from .localsolve import LossSpec, local_erm, online_to_batch, shard_stats
from .numerics import derive_seed, min_cost_assignment
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
    "opt_from_dict",
]

_SOLVER_KINDS = ("erm", "gd", "ogd")
# the share of honest machines the Lloyd-family warm start labels correctly
_WARM_FRACTION = 0.6


@dataclass(frozen=True)
class SolverSpec:
    """Stage-I solver: exact ERM, batch GD, or one-pass online GD.

    GD runs iters steps, an integer >= 1, at 1/lambda_max of each
    machine's own Hessian; online GD takes online_to_batch's defaults.
    """

    kind: str = "erm"
    iters: int = 100

    def __post_init__(self):
        if self.kind not in _SOLVER_KINDS:
            raise ConfigError(f"unknown solver {self.kind!r}; expected one of {_SOLVER_KINDS}")
        require_int("iters", self.iters, 1)


@dataclass(frozen=True)
class IngestSpec:
    """External dataset: CSV of points, threshold-graph clustering into
    shards plus synthetic adversarial shards. Two points are joined iff
    ||p_i - p_j|| < gamma, decided exactly on the float inputs
    (components.threshold_components). Pairs with the location loss."""

    path: str
    gamma: float
    shard_size: int = 50
    n_adv: int = 0
    min_cluster: int = 1
    label_column: int | None = None

    def __post_init__(self):
        require_real("gamma", self.gamma, positive=True, finite=False)
        require_int("shard_size", self.shard_size, 1)
        require_int("min_cluster", self.min_cluster, 1)
        require_int("n_adv", self.n_adv, 0)
        if self.label_column is not None:
            require_int("label_column", self.label_column, 0)


@dataclass(frozen=True)
class PipelineConfig:
    """What every cell of a seeded trial shares; a cell's clusterer and
    optimizer are arguments of run_pipeline and run_grid.

    seed, an integer >= 0, governs every random draw (fleet,
    initialization, attacks). The pipeline derives the fleet's and the
    attacks' seeds from it and passes them, with each cluster's Stage-III
    start (its Stage-II center), as arguments; no spec holds them. Output
    locations are a CLI concern and not part of the config's identity.
    """

    fleet: FleetConfig | IngestSpec
    solver: SolverSpec = field(default_factory=SolverSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    seed: int = 0

    def __post_init__(self):
        require_int("seed", self.seed, 0)
        if isinstance(self.fleet, FleetConfig):  # an ingest fleet's d comes with its layout
            self.attack.require_dim(self.fleet.d)

    @property
    def loss(self) -> LossSpec:
        """The fleet's local loss: location for raw points, else squared error."""
        return LossSpec("location" if isinstance(self.fleet, IngestSpec) else "squared_error")


@dataclass
class RunResult:
    """Outputs of one pipeline run.

    matched_pairs lists (estimated cluster, true cluster) index pairs used
    for est_error; estimated clusters beyond the matching are counted in
    n_unmatched and excluded from the metric. Stage III keeps per-round
    records, not iterates: update_norm[k][r - 1] is ||w_r - w_{r-1}|| of
    estimated cluster k in round r, and dist_to_truth[k][r - 1] is
    ||w_r - w*|| to its matched true center, empty when k is unmatched.
    wall_times has the seconds of stage1..3; in a grid, stage1 is shared
    by the cells of a trial and stage2 (like the Stage-II state and
    history) by the cells of a clusterer. A cell's stage3 is the sum of
    its own optimizer calls, over the clusters.
    """

    per_cluster_w_hat: np.ndarray
    est_error: float
    clustering_history: list[MisclusterReport]
    update_norm: list[np.ndarray]
    dist_to_truth: list[np.ndarray]
    wall_times: dict[str, float]
    cluster_state: ClusteringState
    matched_pairs: list[tuple[int, int]]
    n_unmatched: int


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


def stage1_erms(shards: list[WorkerShard], solver: SolverSpec, loss: LossSpec) -> np.ndarray:
    """Local model estimates for every machine, stacked (m, d).

    GD returns the solver.iters-th iterate of w <- w - step_i (A_i w - b_i)
    from the origin, with step_i = 1/lambda_max(A_i) (exactly 1 for the
    location loss). The local risk is quadratic, so the iterate has a
    closed form in the eigenbasis of A_i (_gd_from_origin): one LAPACK
    eigendecomposition per machine and no iteration. fl(fl(1/L) L) <= 1
    for any L > 0, so no step_i lam_j exceeds 1 and the iterate cannot
    grow. For the location loss A_i = I, so GD returns the shard mean b_i
    exactly. Each machine's row depends on its own shard only, and GD
    builds one machine's A_i, b_i at a time (_gd_erm). Raises
    NumericError if an iterate is not finite.
    """
    if solver.kind == "erm":
        return np.stack([local_erm(s, loss) for s in shards])
    if solver.kind == "ogd":
        return np.stack([online_to_batch(s, loss) for s in shards])
    return np.stack([_gd_erm(s, loss, solver.iters, i) for i, s in enumerate(shards)])


def _gd_erm(shard: WorkerShard, loss: LossSpec, iters: int, i: int) -> np.ndarray:
    """Machine i's Stage-I GD iterate (stage1_erms), from its own A_i, b_i
    only, so no stack of every machine's statistics is held."""
    stats = shard_stats([shard], loss)
    d = stats.b.shape[1]
    if loss.kind == "location":
        lam, V = np.ones(d), np.eye(d)  # products with I are exact
    else:
        lam, V = eigh(stats.A[0], overwrite_a=True, driver="evd")
    step = 1.0 / lam[-1] if lam[-1] > 0 else 1.0
    w = V @ _gd_from_origin(lam, V.T @ stats.b[0], step, iters)
    if not np.all(np.isfinite(w)):
        raise NumericError(f"stage-I gradient descent on machine {i} reached a non-finite iterate")
    return w


# ---------------------------------------------------------------------------
# stage II


def _stage2(spec: ClusterSpec, seed: int, erms, truth):
    """Stage II: (final state, misclustering reports against truth)."""
    if spec.method == "edge_cut":
        state = edge_cut_cluster(erms, spec.gamma, spec.min_cluster)
        return state, [mismetrics(state, truth)] if state.K == truth.K else []

    init = warm_start_init(erms, truth, _WARM_FRACTION, seed=derive_seed(seed, 1))
    return run_lloyd_variant(erms, init, spec, ground_truth=truth)


# ---------------------------------------------------------------------------
# stage III and metric


def _match_centers(w_hats: np.ndarray, centers_true: np.ndarray) -> list[tuple[int, int]]:
    """Pair estimated clusters with true centers by the assignment of least
    total distance (numerics.min_cost_assignment); with unequal counts,
    min(counts) pairs are made. A non-finite w_hat raises NumericError."""
    dist = np.linalg.norm(w_hats[:, None, :] - centers_true[None, :, :], axis=2)
    rows, cols = min_cost_assignment(dist)
    return list(zip(rows.tolist(), cols.tolist()))


@contextmanager
def _stage(times: dict[str, float], stage: str):
    """Add the block's wall time to times[stage]; prefix the message of a
    ByzfedError raised inside with the stage."""
    t0 = time.perf_counter()
    try:
        yield
    except ByzfedError as exc:
        exc.args = (f"{stage}: {exc}",)
        raise
    times[stage] = times.get(stage, 0.0) + time.perf_counter() - t0


def _local_models(cfg: PipelineConfig, layout: ComponentLayout | None, times):
    """Stage I: the fleet named by cfg, its ground truth and its ERMs."""
    with _stage(times, "stage1"):
        fleet, truth = materialize_fleet(cfg, layout)
        return fleet, truth, stage1_erms(fleet, cfg.solver, cfg.loss)


def _cell_results(cfg: PipelineConfig, optimizers, fleet, truth, clustered, times) -> list:
    """One cell per optimizer on a Stage-II (state, history): Stage III in
    each cluster, then the metric.

    Stage III runs cluster by cluster; the optimizers run in order on one
    ClusterTable per cluster, dropped before the next cluster. Returns each
    cell's RunResult, or the exception that failed the cell: a cell whose
    optimizer raises on one cluster skips the rest, and the other cells go
    on. times holds the stages before Stage III.
    """
    state, history = clustered
    loss = cfg.loss
    n = len(optimizers)
    w_hats = [np.empty_like(state.centers) for _ in range(n)]
    trajectories: list[list[np.ndarray]] = [[] for _ in range(n)]
    cell_times = [{**times, "stage3": 0.0} for _ in range(n)]
    results: list = [None] * n  # an exception once a cell has failed
    for k in range(state.K):
        members = [fleet[i] for i in np.flatnonzero(state.labels == k)]
        table = ClusterTable()
        for j, opt in enumerate(optimizers):
            if results[j] is not None:
                continue
            if not members:
                w, traj = state.centers[k], state.centers[k][None, :].copy()
            else:
                optimize = fed_avg_robust if opt.local_steps > 1 else robust_gd
                try:
                    with _stage(cell_times[j], "stage3"):
                        w, traj = optimize(members, loss, opt, cfg.attack, init=state.centers[k],
                                           seed=derive_seed(cfg.seed, 2, k), table=table)
                except Exception as exc:
                    results[j] = exc
                    continue
            w_hats[j][k] = w
            trajectories[j].append(traj)

    for j in range(n):
        if results[j] is None:
            try:
                results[j] = _cell_result(
                    truth, clustered, w_hats[j], trajectories[j], cell_times[j]
                )
            except Exception as exc:  # a non-finite estimate fails its cell
                results[j] = exc
    return results


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """||x|| of each row as math.sqrt(x.dot(x)), np.linalg.norm's
    arithmetic for a 1-D float64 row."""
    return np.array([math.sqrt(x.dot(x)) for x in rows], dtype=float)


def _cell_result(truth, clustered, w_hats, trajectories, times) -> RunResult:
    """The metric and per-round records of one cell's Stage-III estimates;
    the trajectories are not kept."""
    state, history = clustered
    pairs = _match_centers(w_hats, truth.centers)
    d = w_hats.shape[1]
    est_error = max(
        float(np.linalg.norm(w_hats[i] - truth.centers[j])) / np.sqrt(d) for i, j in pairs
    )
    matched = dict(pairs)
    dists = [
        _row_norms(traj[1:] - truth.centers[matched[k]]) if k in matched else np.empty(0)
        for k, traj in enumerate(trajectories)
    ]
    return RunResult(
        per_cluster_w_hat=w_hats,
        est_error=est_error,
        clustering_history=history,
        update_norm=[_row_norms(np.diff(traj, axis=0)) for traj in trajectories],
        dist_to_truth=dists,
        wall_times=times,
        cluster_state=state,
        matched_pairs=pairs,
        n_unmatched=w_hats.shape[0] - len(pairs),
    )


def run_pipeline(
    cfg: PipelineConfig, cluster: ClusterSpec = ClusterSpec(), opt: OptConfig = OptConfig()
) -> RunResult:
    """Run the three stages of one cell for one config and seed: one trial
    of a run_grid cell, composed from the same stage helpers."""
    times: dict[str, float] = {}
    fleet, truth, erms = _local_models(cfg, None, times)
    with _stage(times, "stage2"):
        clustered = _stage2(cluster, cfg.seed, erms, truth)
    (result,) = _cell_results(cfg, [opt], fleet, truth, clustered, times)
    if isinstance(result, Exception):
        raise result
    return result


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
        return generate_fleet(cfg.fleet, seed=fleet_seed)
    return shard_components(layout, n_adv=cfg.fleet.n_adv, seed=fleet_seed)


# ---------------------------------------------------------------------------
# grid


def _trial_outcomes(base_cfg, clusterers, optimizers, layout, t: int, seed: int):
    """Every cell of trial t, clusterer-major: the fleet and Stage I once,
    Stage II once per clusterer, then Stage III of the clusterer's cells
    cluster by cluster (_cell_results). A failed stage becomes the error
    string of every cell that depends on it."""
    cfg = replace(base_cfg, seed=seed)

    def outcome(cname, oname, result):
        if isinstance(result, Exception):
            return TrialOutcome(f"{cname}+{oname}", cname, oname, t, seed, None, repr(result))
        return TrialOutcome(f"{cname}+{oname}", cname, oname, t, seed, result)

    times: dict[str, float] = {}
    try:
        fleet, truth, erms = _local_models(cfg, layout, times)
    except Exception as exc:  # a fleet failure fails the trial, not the grid
        return [outcome(c, o, exc) for c, _ in clusterers for o, _ in optimizers]
    outcomes = []
    for cname, cspec in clusterers:
        ctimes = dict(times)
        try:
            with _stage(ctimes, "stage2"):
                clustered = _stage2(cspec, seed, erms, truth)
        except Exception as exc:
            outcomes += [outcome(cname, o, exc) for o, _ in optimizers]
            continue
        results = _cell_results(cfg, [o for _, o in optimizers], fleet, truth, clustered, ctimes)
        outcomes += [outcome(cname, o, r) for (o, _), r in zip(optimizers, results)]
    return outcomes


def run_grid(
    base_cfg: PipelineConfig,
    clusterers: list[tuple[str, ClusterSpec]],
    optimizers: list[tuple[str, OptConfig]],
    n_trials: int,
    threads: int = 1,
    layout: ComponentLayout | None = None,
) -> tuple[list[TrialOutcome], list[dict]]:
    """Cartesian product of clusterers x optimizers over seeded trials.

    Trial t uses the same derived seed in every cell, so cells are paired:
    they see identical fleets and Stage-I ERMs. Each trial is one task
    on a pool of `threads` workers (see _trial_outcomes), so stage1 and
    stage2 wall times are shared by the cells of a trial and clusterer.
    An ingest fleet's component layout is seed-free: it is built once,
    before any trial (or injected, see ingest_layout), and a failure to
    build it raises. Stage failures are recorded as error strings and
    the grid continues. Returns (outcomes, per-cell summary rows);
    outcomes are ordered cell-major then by trial, independent of
    thread count.
    """
    if not clusterers or not optimizers:
        raise ConfigError("clusterers and optimizers must be nonempty")
    require_int("n_trials", n_trials, 1)
    require_int("threads", threads, 1)
    trial_seeds = [derive_seed(base_cfg.seed, t) for t in range(n_trials)]
    layout = _resolve_layout(base_cfg.fleet, layout)

    task = partial(_trial_outcomes, base_cfg, clusterers, optimizers, layout)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        by_trial = list(pool.map(task, range(n_trials), trial_seeds))
    n_cells = len(clusterers) * len(optimizers)
    outcomes = [trial[j] for j in range(n_cells) for trial in by_trial]
    return outcomes, summarize_grid(outcomes)


def summarize_grid(outcomes: list[TrialOutcome]) -> list[dict]:
    """Per-cell mean and sample standard deviation of est_error over the
    trials that ended with a finite one; the rest count as failed."""
    cells: dict[str, list[TrialOutcome]] = {}
    for o in outcomes:
        cells.setdefault(o.cell, []).append(o)
    rows = []
    for cell, outs in cells.items():
        errs = [o.result.est_error for o in outs if o.result is not None]
        errs = [e for e in errs if np.isfinite(e)]
        rows.append(
            {
                "cell": cell,
                "clusterer": outs[0].clusterer,
                "optimizer": outs[0].optimizer,
                "n_trials": len(outs),
                "n_failed": len(outs) - len(errs),
                "est_error_mean": float(np.mean(errs)) if errs else float("nan"),
                "est_error_sd": float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# config (de)serialization


def opt_from_dict(data: dict) -> OptConfig:
    d = dict(data)
    if "aggregator" in d:
        if not isinstance(d["aggregator"], dict):
            raise ConfigError(f"aggregator must be an object, got {d['aggregator']!r}")
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
            attack=AttackSpec(**attack_data),
            seed=data.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
