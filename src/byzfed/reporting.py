"""Run manifests and CSV emission.

The manifest is written atomically before any result file and contains
everything needed to replay the run: the config snapshot (master seed
included), the grid layout, and the expected output file names. Result
CSVs use a fixed schema and deterministic float formatting, so a
repeated run with the same seed produces byte-identical files at any
`--threads`, with the same BLAS build and BLAS thread count; CI and the
bench pin one BLAS thread. So the manifest also records what besides the
config the bytes depend on (run_environment): the numpy and scipy
versions, the BLAS build each links and the BLAS thread variables.

Schemas (version 1):
  results.csv        run_id,cell,trial,metric,value
  misclustering.csv  variant,trial,iter,A_s
  optimization.csv   cell,trial,cluster,round,update_norm,dist_to_truth
  summary.csv        cell,clusterer,optimizer,n_trials,n_failed,
                     est_error_mean,est_error_sd
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .pipeline import TrialOutcome

__all__ = [
    "SCHEMA_VERSION",
    "RunManifest",
    "write_manifest",
    "load_manifest",
    "emit_grid_outputs",
    "compute_run_id",
    "file_sha256",
    "array_sha256",
    "run_environment",
]

SCHEMA_VERSION = 1

RESULT_FILES = ("results.csv", "misclustering.csv", "optimization.csv", "summary.csv")

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class RunManifest:
    """Replayable description of one invocation. points_sha256 is the
    digest of an ingest fleet's parsed points (array_sha256), None for a
    synthetic fleet. environment is run_environment() of the process that
    ran it."""

    run_id: str
    config: dict
    grid: dict
    points_sha256: str | None = None
    command: str = ""
    version: str = ""
    environment: dict = field(default_factory=dict)
    created_at: str = ""
    threads: int = 1
    files: list[str] = field(default_factory=lambda: list(RESULT_FILES))
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not self.created_at:
            self.created_at = datetime.now(timezone.utc).isoformat()


def _blas_build(config_module) -> str | None:
    """'name version' of the BLAS a numpy or scipy build links, read from
    its __config__.CONFIG (show_config costs scipy about 17 ms), None if
    the build does not record it."""
    try:
        blas = config_module.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return None


def run_environment() -> dict:
    """The numpy and scipy versions, the BLAS build each links and the BLAS
    thread variables of this process, None for an unset variable: the
    result bytes of a config depend on these too. scipy is read from the
    loaded module (byzfed.numerics loads it), None if scipy is not loaded."""
    scipy = sys.modules.get("scipy")
    return {
        "numpy": np.__version__,
        "numpy_blas": _blas_build(getattr(np, "__config__", None)),
        "scipy": getattr(scipy, "__version__", None),
        "scipy_blas": _blas_build(getattr(scipy, "__config__", None)),
        **{name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
    }


def compute_run_id(payload: dict) -> str:
    """12-hex digest of a canonical JSON rendering."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(out_dir, manifest: RunManifest) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    _atomic_write_text(path, json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path) -> RunManifest:
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        with path.open("r", encoding="utf-8") as fh:
            data = json.load(fh)
        return RunManifest(**data)
    except FileNotFoundError as exc:
        raise DataError(f"manifest not found: {path}") from exc
    except (json.JSONDecodeError, TypeError) as exc:
        raise ConfigError(f"bad manifest {path}: {exc}") from exc


def array_sha256(a: np.ndarray) -> str:
    """Digest of an array's shape, then its C-order buffer, read in place
    when the array is C-contiguous."""
    h = hashlib.sha256(repr(a.shape).encode("ascii"))
    h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(v) -> str:
    """Shortest round-trip decimal for floats; NaN renders as 'nan'."""
    f = float(v)
    return repr(f)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header, then each row of the iterable as it is produced."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _result_rows(run_id: str, outcomes: list[TrialOutcome]):
    for o in outcomes:
        err = o.result.est_error if o.result is not None else float("nan")
        yield [run_id, o.cell, o.trial, "est_error", _fmt(err)]
        # wall times deliberately stay out: result files must be
        # byte-identical for identical seeds
        if o.result is not None and o.result.clustering_history:
            final = o.result.clustering_history[-1].miscluster_rate
            yield [run_id, o.cell, o.trial, "final_miscluster", _fmt(final)]


def _misclustering_rows(outcomes: list[TrialOutcome]):
    seen: set[tuple[str, int]] = set()
    for o in outcomes:
        if o.result is None or (o.clusterer, o.trial) in seen:
            continue
        seen.add((o.clusterer, o.trial))
        for rep in o.result.clustering_history:
            yield [o.clusterer, o.trial, rep.iteration, _fmt(rep.miscluster_rate)]


def _optimization_rows(outcomes: list[TrialOutcome]):
    for o in outcomes:
        if o.result is None:
            continue
        for k, (upds, dists) in enumerate(zip(o.result.update_norm, o.result.dist_to_truth)):
            for r, upd in enumerate(upds, start=1):
                dist = _fmt(dists[r - 1]) if len(dists) else ""  # empty: k is unmatched
                yield [o.cell, o.trial, k, r, _fmt(upd), dist]


def _summary_rows(summary: list[dict]):
    for s in summary:
        yield [
            s["cell"],
            s["clusterer"],
            s["optimizer"],
            s["n_trials"],
            s["n_failed"],
            _fmt(s["est_error_mean"]),
            _fmt(s["est_error_sd"]),
        ]


def emit_grid_outputs(out_dir, run_id: str, outcomes: list[TrialOutcome], summary: list[dict]) -> list[str]:
    """Write the four result CSVs; returns the file names written.

    Rows follow the outcomes' order (cell-major, then trial), which the
    grid fixes independently of scheduling, and are written as they are
    generated, so no table is held in memory. Clustering histories are
    identical across optimizer cells of one clusterer and trial, so they
    are emitted once per (clusterer, trial).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "results.csv",
        ["run_id", "cell", "trial", "metric", "value"],
        _result_rows(run_id, outcomes),
    )
    _write_csv(
        out_dir / "misclustering.csv",
        ["variant", "trial", "iter", "A_s"],
        _misclustering_rows(outcomes),
    )
    _write_csv(
        out_dir / "optimization.csv",
        ["cell", "trial", "cluster", "round", "update_norm", "dist_to_truth"],
        _optimization_rows(outcomes),
    )
    _write_csv(
        out_dir / "summary.csv",
        ["cell", "clusterer", "optimizer", "n_trials", "n_failed", "est_error_mean", "est_error_sd"],
        _summary_rows(summary),
    )
    return list(RESULT_FILES)
