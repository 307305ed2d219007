"""End-to-end three-stage pipeline and the seeded experiment grid.

Stage I computes every machine's local ERM, exactly or by closed-form
GD; it lives in localsolve (stage1_erms and its SolverSpec). Stage II
clusters the ERM vectors, and Stage III runs Byzantine-robust
distributed optimization inside each estimated cluster, initialized at
that cluster's Stage-II center. The headline metric is
est_error = max over the true clusters of ||w_hat - w*|| / sqrt(d), where
w_hat is the matched estimate, or the nearest one for a true cluster the
matching leaves without an estimate.

In a grid, Stage II depends only on (clusterer, trial) and Stage III on
the cell, so run_grid makes one task per trial (on a pool of workers, or
in the calling thread when there is one worker): the fleet and Stage I
once, Stage II once per clusterer, then Stage III cluster by cluster. For
each cluster, the optimizer cells of the clusterer run in config order on
one distopt.ClusterTable: the cluster's shard statistics and pooled step,
each built once when first needed (the statistics again after a FedAvg
cell, which writes over them), and its Byzantine reports, each drawn
once. The table is dropped before the next cluster.

So a trial holds its fleet plus one stage's working set: Stage I builds
one machine's statistics at a time, Stage III at most one cluster's, and
each Stage-III trajectory is reduced to its per-round records
(RunResult) as soon as its cluster's run returns, before the next run
starts. run_pipeline is the one-cell composition of the same stage
helpers.

All randomness is derived from PipelineConfig.seed before any parallel
dispatch, so results are independent of scheduling and thread count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

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
from .errors import ByzfedError, ConfigError, real_field, require_int
from .localsolve import SolverSpec, stage1_erms
from .numerics import derive_seed, min_cost_assignment
from .numerics import top_eigenpair  # noqa: F401  (not called here; bench/tracer.py wraps this name)

__all__ = [
    "SolverSpec",
    "ClusterSpec",
    "IngestSpec",
    "PipelineConfig",
    "RunResult",
    "TrialOutcome",
    "run_pipeline",
    "run_grid",
    "check_cells",
    "ingest_layout",
    "stage1_erms",
]

# the share of honest machines the Lloyd-family warm start labels correctly
_WARM_FRACTION = 0.6


@dataclass(frozen=True)
class IngestSpec:
    """External dataset: CSV of points, threshold-graph clustering into
    shards plus synthetic adversarial shards. Two points are joined iff
    ||p_i - p_j|| < gamma, decided exactly on the float inputs
    (components.threshold_components); a gamma of None is the points' own,
    the 10th percentile of their sampled pairwise distances, which
    layout_components takes and records. Its shards hold raw points
    without targets, so they carry the location loss."""

    path: str
    gamma: float | None = None
    shard_size: int = 50
    n_adv: int = 0
    min_cluster: int = 1
    label_column: int | None = None

    def __post_init__(self):
        real_field(self, "gamma", positive=True, finite=False, optional=True)
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


@dataclass
class RunResult:
    """Outputs of one pipeline run.

    matched_pairs lists (estimated cluster, true cluster) index pairs;
    est_error is the max over all K true clusters of ||w_hat - w*|| /
    sqrt(d), where w_hat is the matched estimate, and for a true cluster
    the matching leaves without one (K' < K estimates) the estimated model
    nearest its center. Estimated clusters beyond the matching (K' > K)
    are counted in n_unmatched and excluded from the metric.

    Stage III keeps per-round records, not iterates: update_norm[k][r - 1]
    is ||w_r - w_{r-1}|| of estimated cluster k in round r, and
    dist_to_truth[k][r - 1] is ||w_r - w*|| to its matched true center,
    empty when k is unmatched. wall_times has the seconds of stage1..3; in a grid, stage1 is shared
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
        return fleet, truth, stage1_erms(fleet, cfg.solver)


def _cell_results(cfg: PipelineConfig, optimizers, fleet, truth, clustered, times) -> list:
    """One cell per optimizer on a Stage-II (state, history): Stage III in
    each cluster, then the metric.

    Stage III runs cluster by cluster; the optimizers run in order on one
    ClusterTable per cluster, dropped before the next cluster. Each run's
    trajectory is reduced to its per-round records (_round_records) as
    soon as the optimizer returns, and dropped before the next call.
    Returns each cell's RunResult, or the exception that failed the cell:
    a cell whose optimizer raises on one cluster skips the rest, and the
    other cells go on. times holds the stages before Stage III.
    """
    state, history = clustered
    n = len(optimizers)
    w_hats = [np.empty_like(state.centers) for _ in range(n)]
    records: list[list[tuple]] = [[] for _ in range(n)]
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
                        w, traj = optimize(members, opt, cfg.attack, init=state.centers[k],
                                           seed=derive_seed(cfg.seed, 2, k), table=table)
                except Exception as exc:
                    results[j] = exc
                    continue
            w_hats[j][k] = w
            records[j].append(_round_records(traj, truth.centers))
            del traj  # not kept alive through the next optimizer call

    for j in range(n):
        if results[j] is None:
            try:
                results[j] = _cell_result(truth, clustered, w_hats[j], records[j], cell_times[j])
            except Exception as exc:  # a non-finite estimate fails its cell
                results[j] = exc
    return results


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """||x|| of each row as math.sqrt(x.dot(x)), np.linalg.norm's
    arithmetic for a 1-D float64 row. The rows go through one batched
    matmul of 1 x d by d x 1 slices, which numpy runs through the same
    BLAS ddot as x.dot(x), so each norm keeps its bits."""
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def _round_records(traj: np.ndarray, centers: np.ndarray) -> tuple:
    """The per-round records of one Stage-III trajectory: its update norms
    ||w_r - w_{r-1}||, and for each true center c its distances
    ||w_r - c||, one center at a time (no (K, rounds, d) temporary)."""
    rounds = traj[1:]
    return _row_norms(np.diff(traj, axis=0)), [_row_norms(rounds - c) for c in centers]


def _cell_result(truth, clustered, w_hats, records, times) -> RunResult:
    """The metric and per-round records of one cell's Stage-III estimates;
    records[k] is estimated cluster k's _round_records."""
    state, history = clustered
    pairs = _match_centers(w_hats, truth.centers)
    d = w_hats.shape[1]
    matched = dict(pairs)
    errors = [np.linalg.norm(w_hats[i] - truth.centers[j]) for i, j in pairs]
    # a true cluster the matching leaves without an estimate is charged
    # its center's distance to the nearest estimated model
    errors += [
        min(np.linalg.norm(w - c) for w in w_hats)
        for j, c in enumerate(truth.centers)
        if j not in matched.values()
    ]
    return RunResult(
        per_cluster_w_hat=w_hats,
        est_error=max(float(e) / np.sqrt(d) for e in errors),
        clustering_history=history,
        update_norm=[upd for upd, _ in records],
        dist_to_truth=[
            dists[matched[k]] if k in matched else np.empty(0)
            for k, (_, dists) in enumerate(records)
        ],
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


def check_cells(clusterers, optimizers) -> None:
    """Raise ConfigError unless a grid names clusterers and optimizers and
    its cells, "{clusterer}+{optimizer}", have distinct names (the tables
    key their rows by the cell name)."""
    if not clusterers or not optimizers:
        raise ConfigError("a grid section must name clusterers and optimizers")
    seen = set()
    for cell in (f"{c}+{o}" for c, _ in clusterers for o, _ in optimizers):
        if cell in seen:
            raise ConfigError(f"two grid cells are named {cell!r}; cell names must differ")
        seen.add(cell)


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
    (see _trial_outcomes) on a pool of `threads` workers, or, at one
    worker, run in the calling thread without a pool; so stage1 and
    stage2 wall times are shared by the cells of a trial and clusterer.
    An ingest fleet's component layout is seed-free: it is built once,
    before any trial (or injected, see ingest_layout), and a failure to
    build it raises. Stage failures are recorded as error strings and
    the grid continues. Returns (outcomes, per-cell summary rows);
    outcomes are ordered cell-major then by trial, independent of
    thread count.
    """
    check_cells(clusterers, optimizers)
    require_int("n_trials", n_trials, 1)
    require_int("threads", threads, 1)
    trial_seeds = [derive_seed(base_cfg.seed, t) for t in range(n_trials)]
    layout = _resolve_layout(base_cfg.fleet, layout)

    task = partial(_trial_outcomes, base_cfg, clusterers, optimizers, layout)
    if threads == 1:
        by_trial = list(map(task, range(n_trials), trial_seeds))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            by_trial = list(pool.map(task, range(n_trials), trial_seeds))
    n_cells = len(clusterers) * len(optimizers)
    outcomes = [trial[j] for j in range(n_cells) for trial in by_trial]
    return outcomes, summarize_grid(outcomes)


def summarize_grid(outcomes: list[TrialOutcome]) -> list[dict]:
    """Per-cell mean and sample standard deviation of est_error over the
    trials that ended with a finite one; the rest count as failed. The
    mean of no finite est_error and the sd of fewer than two are nan."""
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
                "est_error_sd": float(np.std(errs, ddof=1)) if len(errs) > 1 else float("nan"),
            }
        )
    return rows

