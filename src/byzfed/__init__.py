"""Byzantine-robust federated learning over heterogeneous machine fleets.

The package implements a three-stage pipeline: every machine solves its
local empirical risk problem, the resulting model vectors are clustered
with outlier-robust rules, and each estimated cluster runs distributed
gradient descent with robust aggregation of worker reports. A seeded
experiment harness reproduces the synthetic mixture-of-regressions
benchmarks at desk scale.
"""

from .clustering import (
    ClusterSpec,
    ClusteringState,
    MisclusterReport,
    edge_cut_cluster,
    iterfilter_2cluster,
    mismetrics,
    run_lloyd_variant,
    warm_start_init,
)
from .components import threshold_components
from .datagen import (
    BYZANTINE,
    FleetConfig,
    GroundTruth,
    WorkerShard,
    generate_fleet,
    generate_symmetric_mixture,
    ingest_threshold_graph,
    percentile_gamma,
    read_points_csv,
)
from .distopt import (
    AttackSpec,
    ClusterTable,
    OptConfig,
    fed_avg_robust,
    pooled_auto_step,
    robust_gd,
)
from .errors import (
    ByzfedError,
    ClusteringError,
    ConfigError,
    DataError,
    NumericError,
)
from .localsolve import (
    SolverSpec,
    local_erm,
    local_gradient,
    shard_stats,
    stage1_erms,
)
from .numerics import RngStream, derive_seed, least_squares, top_eigenpair
from .pipeline import (
    IngestSpec,
    PipelineConfig,
    RunResult,
    TrialOutcome,
    run_grid,
    run_pipeline,
)
from .robust_stats import (
    AggregatorSpec,
    aggregate,
    coord_median,
    geometric_median,
    iter_filter_mean,
    trimmed_mean,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ByzfedError",
    "ConfigError",
    "DataError",
    "ClusteringError",
    "NumericError",
    # numerics
    "RngStream",
    "derive_seed",
    "least_squares",
    "top_eigenpair",
    "threshold_components",
    # data
    "BYZANTINE",
    "FleetConfig",
    "WorkerShard",
    "GroundTruth",
    "generate_fleet",
    "generate_symmetric_mixture",
    "ingest_threshold_graph",
    "percentile_gamma",
    "read_points_csv",
    # robust statistics
    "AggregatorSpec",
    "aggregate",
    "trimmed_mean",
    "coord_median",
    "geometric_median",
    "iter_filter_mean",
    # local solving (Stage I)
    "SolverSpec",
    "local_erm",
    "stage1_erms",
    "shard_stats",
    "local_gradient",
    # clustering
    "ClusterSpec",
    "ClusteringState",
    "MisclusterReport",
    "edge_cut_cluster",
    "run_lloyd_variant",
    "iterfilter_2cluster",
    "warm_start_init",
    "mismetrics",
    # distributed optimization
    "OptConfig",
    "AttackSpec",
    "robust_gd",
    "fed_avg_robust",
    "pooled_auto_step",
    "ClusterTable",
    # pipeline
    "IngestSpec",
    "PipelineConfig",
    "RunResult",
    "TrialOutcome",
    "run_pipeline",
    "run_grid",
]
