"""Command-line front end.

Commands:
  synth   run the config's fleet (synthetic when it has no type, or an
          ingest fleet) as a single cell or the config's grid
  grid    like synth, but requires an explicit grid section in the config
  ingest  run the config's fleet section as an ingest fleet of a points
          CSV, flags on top, as a single cell or the config's grid
  replay  rerun a manifest's config and grid under its command, into a
          directory other than the manifest's, and compare the result
          files; a recomputed run id that differs from the manifest's
          exits 2

synth, grid and ingest are one command function, cmd_run: it merges the
config and the flags by one rule (_apply_overrides), ingest only sets
the fleet's type and path, and a value neither sets takes its spec's
default. The config file's grammar lives here alone: _check_keys
checks its keys and sections, _parse reads it into specs and _snapshot
writes them back as manifest.json's config and grid, which _parse reads
again. _execute parses and checks the config, then reads an
ingest fleet's points and computes their threshold-graph components,
once per run, before manifest.json: a bad config exits 1 before the
points are read, and a bad points file exits 2, or a constant attack
vector not of the points' dimension exits 1, with no manifest; each
trial only draws its own shards. The run id names an ingest fleet by the
digest of its parsed points, not by its path; manifest.json records the
absolute path, so replay finds the points from any directory, and replay
of points that changed exits 2 before writing any file.
Configs are JSON. An input reaches the run or exits 1 before
manifest.json: ingest's whole fleet section reaches its fleet, and a
spec field its kind does not read must hold its default. A grid section
holds the cells, with distinct names, and their trials, so a top-level
cluster, opt or trials beside it, or a per-cell flag, exits 1. A method
is named by its full or short name, in any case, underscores optional:
lloyd/KM, kgeomedian/KGM, trimmed_kmeans/TKM, edge_cut/EC;
sample_mean/SM, trimmed_mean/TM, coord_median/CM, geo_median/GM,
iter_filter/IF.
Every command, replay too, writes a manifest.json
(atomically, before any result file) plus four result CSVs into
--out-dir. Progress goes to stdout, diagnostics to stderr; results live
only in the files. --threads sets the worker pool size.

Exit codes: 0 success, 1 config/usage error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .datagen import FleetConfig, read_points_csv
from .distopt import AttackSpec, OptConfig
from .errors import ByzfedError, ConfigError, DataError, require_int
from .pipeline import (
    ClusterSpec,
    IngestSpec,
    PipelineConfig,
    SolverSpec,
    check_cells,
    ingest_layout,
    run_grid,
)
from .reporting import (
    RunManifest,
    array_sha256,
    compute_run_id,
    emit_grid_outputs,
    file_sha256,
    load_manifest,
    run_environment,
    write_manifest,
)
from .robust_stats import AggregatorSpec

__all__ = ["main"]

# canonical method name -> its short cell name; _alias accepts either
_CLUSTERERS = {
    "lloyd": "KM",
    "kgeomedian": "KGM",
    "trimmed_kmeans": "TKM",
    "edge_cut": "EC",
}

_AGGREGATORS = {
    "sample_mean": "SM",
    "trimmed_mean": "TM",
    "coord_median": "CM",
    "geo_median": "GM",
    "iter_filter": "IF",
}

# a fleet section's type -> its spec
_FLEETS = {"synthetic": FleetConfig, "ingest": IngestSpec}

# the object-valued sections of a config, then its plain values
_SECTIONS = ("fleet", "solver", "cluster", "opt", "attack", "grid")
_CONFIG_KEYS = (*_SECTIONS, "trials", "seed")
_GRID_KEYS = ("clusterers", "optimizers", "trials")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--out-dir", default="byzfed_out", help="output directory")
    common.add_argument("--trials", type=int, help="trials per grid cell")
    common.add_argument("--threads", type=int, default=1, help="worker pool size")
    common.add_argument("--alpha", type=float, help="Byzantine fraction override")
    common.add_argument("--sigma", type=float, help="noise level override")
    common.add_argument("--clusterer", help="cluster method (km/kgm/tkm/edge_cut)")
    common.add_argument("--aggregator", help="robust aggregator (sm/tm/cm/gm/if)")
    common.add_argument("--beta", type=float, help="trim fraction for trimmed aggregators")
    common.add_argument("--gamma", type=float, help="distance threshold (edge_cut / ingest)")

    parser = argparse.ArgumentParser(prog="byzfed", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", parents=[common], help="synthetic fleet experiment")
    p_synth.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("grid", parents=[common], help="explicit clusterer x optimizer grid")
    p_grid.set_defaults(func=cmd_run)

    p_ingest = sub.add_parser("ingest", parents=[common], help="experiment on an ingested points CSV")
    p_ingest.add_argument("--csv", required=True, help="points CSV file")
    # each sets its fleet field over the config's fleet section (_apply_overrides)
    p_ingest.add_argument("--shard-size", type=int)
    p_ingest.add_argument("--n-adv", type=int, help="adversarial shard count")
    p_ingest.add_argument("--min-cluster", type=int)
    p_ingest.add_argument("--label-column", type=int, help="column index to drop")
    p_ingest.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="rerun from a manifest and compare outputs")
    p_replay.add_argument("--manifest", required=True, help="manifest.json or its directory")
    p_replay.add_argument("--out-dir", help="directory for the replayed outputs")
    p_replay.add_argument("--threads", type=int, help="worker pool size override")
    p_replay.set_defaults(func=cmd_replay)
    return parser


def _load_config(args) -> dict:
    """The --config file, if any (see _check_keys)."""
    data = _load_config_file(args.config) if args.config else {}
    _check_keys(data)
    return data


def _check_keys(data: dict) -> None:
    """A config and its grid section name only known keys, and each
    section present is an object."""
    _require_known(data, _CONFIG_KEYS, "config key")
    for section in _SECTIONS:
        if section in data and not isinstance(data[section], dict):
            raise ConfigError(
                f"config section {section!r} must be an object, got {json.dumps(data[section])}"
            )
    _require_known(data.get("grid", {}), _GRID_KEYS, "grid key")


def _require_known(data: dict, known: tuple, what: str) -> None:
    unknown = sorted(key for key in data if key not in known)
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r}; expected one of {list(known)}")


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    return data


def _alias(table: dict, value: str, what: str) -> str:
    """The canonical name whose canonical or short name is value, ignoring
    case and underscores."""
    key = value.strip().lower().replace("_", "")
    for name, short in table.items():
        if key in (name.replace("_", ""), short.lower()):
            return name
    raise ConfigError(f"unknown {what} {value!r}; choices: {sorted(table)}")


def _apply_overrides(data: dict, args) -> dict:
    fleet = data.setdefault("fleet", {})
    ingest = fleet.get("type") == "ingest"
    if "grid" in data:
        gamma = None if ingest else args.gamma  # ingest's is the fleet's
        cell_flags = {"--clusterer": args.clusterer, "--aggregator": args.aggregator,
                      "--beta": args.beta, "--gamma": gamma}
        given = [flag for flag, value in cell_flags.items() if value is not None]
        if given:
            raise ConfigError(f"{', '.join(given)} cannot override a grid section; "
                              "set them in its clusterers or optimizers")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.trials is not None:  # trials live in the grid when there is one
        data.get("grid", data)["trials"] = args.trials
    # the fleet flags; only the ingest command has the last four
    keys = ("alpha", "sigma", *(("gamma", "shard_size", "n_adv", "min_cluster", "label_column")
                                if ingest else ()))
    fleet.update((key, getattr(args, key)) for key in keys if getattr(args, key, None) is not None)
    if "grid" in data:  # only a config without one names its cell at top level
        return data
    cluster = data.setdefault("cluster", {})
    if args.clusterer is not None:
        cluster["method"] = _alias(_CLUSTERERS, args.clusterer, "clusterer")
    if not ingest and args.gamma is not None:  # edge_cut's threshold
        cluster["gamma"] = args.gamma
    opt = data.setdefault("opt", {})
    # a config's aggregator needs a kind, as a grid optimizer's does; the
    # CLI's own default is a trimmed mean, whose beta AggregatorSpec sets
    agg = opt.setdefault("aggregator", {"kind": "trimmed_mean"})
    if not isinstance(agg, dict):  # _opt rejects it
        return data
    if args.aggregator is not None:
        agg["kind"] = _alias(_AGGREGATORS, args.aggregator, "aggregator")
    if args.beta is not None:
        agg["beta"] = args.beta
    return data


def _cell(entry) -> tuple[str, dict]:
    """A grid entry, an object {"name": ..., **fields}, as (name, fields)."""
    fields = {**entry}  # TypeError unless the entry is an object
    return str(fields.pop("name")), fields


def _opt(fields: dict) -> OptConfig:
    """An optimizer cell's fields, its aggregator an object, as an OptConfig."""
    if "aggregator" in fields:
        agg = fields["aggregator"]
        if not isinstance(agg, dict):
            raise ConfigError(f"aggregator must be an object, got {agg!r}")
        fields = {**fields, "aggregator": AggregatorSpec(**agg)}
    return OptConfig(**fields)


def _parse(data: dict):
    """(config, clusterers, optimizers, trials) of a config dict that
    _check_keys passed: the shared sections, then the cells of its grid
    section, or the one cell of its top-level cluster and opt, then its
    trials. Every spec is checked here, before any output exists, and
    _snapshot writes the dicts back."""
    try:
        fleet = dict(data["fleet"])
        kind = fleet.pop("type", "synthetic")
        if not (isinstance(kind, str) and kind in _FLEETS):
            raise ConfigError(f"unknown fleet type {kind!r}")
        config = PipelineConfig(
            fleet=_FLEETS[kind](**fleet),
            solver=SolverSpec(**data.get("solver", {})),
            attack=AttackSpec(**data.get("attack", {})),
            seed=data.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    grid = data.get("grid")
    stray = [key for key in ("cluster", "opt", "trials") if key in data and grid is not None]
    if stray:
        raise ConfigError(f"top-level {' and '.join(stray)} cannot sit beside a grid section; "
                          "set them in the grid: its clusterers, optimizers and trials")
    try:
        if grid is not None:
            clusterers = [(name, ClusterSpec(**f)) for name, f in map(_cell, grid["clusterers"])]
            optimizers = [(name, _opt(f)) for name, f in map(_cell, grid["optimizers"])]
        else:
            cluster, opt = ClusterSpec(**data.get("cluster", {})), _opt(data.get("opt", {}))
            oname = "FA" if opt.local_steps > 1 else _AGGREGATORS[opt.aggregator.kind]
            clusterers, optimizers = [(_CLUSTERERS[cluster.method], cluster)], [(oname, opt)]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {'config' if grid is None else 'grid section'}: {exc}") from exc
    check_cells(clusterers, optimizers)
    trials = (data if grid is None else grid).get("trials", 1)
    require_int("trials", trials, 1)
    return config, clusterers, optimizers, trials


def _snapshot(config: PipelineConfig, clusterers, optimizers, trials) -> tuple[dict, dict]:
    """The JSON-safe (config, grid) dicts of a run, as manifest.json
    records them; their union is a config that _parse reads back to the
    same specs."""
    kind = next(name for name, cls in _FLEETS.items() if isinstance(config.fleet, cls))
    vector = config.attack.vector
    config_dict = {
        "fleet": {"type": kind, **asdict(config.fleet)},
        "solver": asdict(config.solver),
        "attack": {**asdict(config.attack),
                   "vector": None if vector is None else [float(v) for v in vector]},
        "seed": config.seed,
    }
    grid_dict = {
        "clusterers": [{"name": name, **asdict(cluster)} for name, cluster in clusterers],
        "optimizers": [{"name": name, **asdict(opt)} for name, opt in optimizers],
        "trials": trials,
    }
    return config_dict, grid_dict


def _execute(data: dict, command: str, out_dir, threads,
             replaying: RunManifest | None = None) -> tuple[int, str]:
    """Run the grid the config describes into out_dir; return the exit
    code and the run id. The config is checked first, then an ingest
    fleet's points are read, hashed and laid out, all before manifest.json
    exists; a replay stops there if their digest no longer matches."""
    base_cfg, clusterers, optimizers, trials = _parse(data)
    require_int("threads", threads, 1)
    out_dir = Path(out_dir)
    layout = points_sha256 = None
    if isinstance(base_cfg.fleet, IngestSpec):
        # the manifest records the absolute path, so replay finds the points
        # from any working directory; the run id does not depend on it
        spec = replace(base_cfg.fleet, path=os.path.abspath(base_cfg.fleet.path))
        base_cfg = replace(base_cfg, fleet=spec)
        points = read_points_csv(spec.path, label_column=spec.label_column)
        points_sha256 = array_sha256(points)
        if replaying is not None and points_sha256 != replaying.points_sha256:
            raise DataError(f"input changed: the points of {spec.path} have digest "
                            f"{points_sha256}, the manifest records {replaying.points_sha256}")
        layout = ingest_layout(spec, points)
        if spec.gamma is None:
            print(f"[byzfed] gamma defaulted to {layout.gamma:.6g} "
                  "(10th percentile of sampled pairwise distances)", flush=True)
        base_cfg.attack.require_dim(layout.points.shape[1])

    config_dict, grid_dict = _snapshot(base_cfg, clusterers, optimizers, trials)
    identity = {"config": config_dict, "grid": grid_dict}
    if points_sha256 is not None:  # an ingest run is named by its points, not their path
        fleet = {key: value for key, value in config_dict["fleet"].items() if key != "path"}
        identity = {**identity, "config": {**config_dict, "fleet": fleet},
                    "points_sha256": points_sha256}
    run_id = compute_run_id(identity)
    manifest = RunManifest(
        run_id=run_id,
        config=config_dict,
        grid=grid_dict,
        points_sha256=points_sha256,
        command=command,
        version=__version__,
        environment=run_environment(),
        threads=threads,
    )
    write_manifest(out_dir, manifest)
    print(f"[byzfed] run {run_id}: {len(clusterers) * len(optimizers)} cells x {trials} trials "
          f"({threads} threads)", flush=True)

    outcomes, summary = run_grid(
        base_cfg, clusterers, optimizers, trials, threads=threads, layout=layout
    )
    files = emit_grid_outputs(out_dir, run_id, outcomes, summary)
    if all(o.result is None for o in outcomes):
        for o in outcomes[:1]:
            print(f"error: every trial failed; first failure: {o.error}", file=sys.stderr)
        return 2, run_id
    for row in summary:
        print(
            f"[byzfed] {row['cell']}: est_error mean={row['est_error_mean']:.6g} "
            f"sd={row['est_error_sd']:.6g} failed={row['n_failed']}/{row['n_trials']}",
            flush=True,
        )
    if layout is not None:
        print(f"[byzfed] ingest produced {layout.K} clusters", flush=True)
    print(f"[byzfed] wrote {', '.join(files)} to {out_dir}", flush=True)
    return 0, run_id


def cmd_run(args) -> int:
    """synth, grid and ingest: the config, flags on top (_apply_overrides).
    grid needs a grid section; ingest runs the config's whole fleet
    section as an ingest fleet of the --csv points."""
    data = _load_config(args)
    if args.command == "grid" and "grid" not in data:
        raise ConfigError("the grid command needs a 'grid' section in the config")
    if args.command == "ingest":
        data["fleet"] = {**data.get("fleet", {}), "type": "ingest", "path": str(args.csv)}
    _apply_overrides(data, args)
    return _execute(data, args.command, args.out_dir, args.threads)[0]


def cmd_replay(args) -> int:
    """Rerun a manifest's config and grid under its command, then compare
    the four result files with the original run's."""
    manifest = load_manifest(args.manifest)
    src_dir = Path(args.manifest)
    if src_dir.is_file():
        src_dir = src_dir.parent
    if args.out_dir:
        out_dir = Path(args.out_dir)
        if out_dir.resolve() == src_dir.resolve():
            raise ConfigError(f"replay would overwrite the run it checks in {out_dir}")
    else:
        out_dir = Path(tempfile.mkdtemp(prefix=f"byzfed_replay_{manifest.run_id}_"))
    threads = manifest.threads if args.threads is None else args.threads

    data = {**manifest.config, "grid": manifest.grid}
    try:
        _check_keys(data)
        print(f"[byzfed] replaying run {manifest.run_id} into {out_dir}", flush=True)
        _, run_id = _execute(data, manifest.command, out_dir, threads, replaying=manifest)
    finally:
        if not args.out_dir and not (out_dir / "manifest.json").exists():
            shutil.rmtree(out_dir)  # made above, and no run reached it
    if run_id != manifest.run_id:
        raise ByzfedError(f"the manifest's config and grid give run id {run_id}, "
                          f"but the manifest records {manifest.run_id}")

    all_match = True
    for name in manifest.files:
        orig, new = src_dir / name, out_dir / name
        if not orig.exists():
            print(f"[byzfed] {name}: original missing", flush=True)
            all_match = False
        elif file_sha256(orig) == file_sha256(new):
            print(f"[byzfed] {name}: identical", flush=True)
        else:
            print(f"[byzfed] {name}: DIFFERS", flush=True)
            all_match = False
    if not all_match:
        now = run_environment()
        for key, value in sorted(manifest.environment.items()):
            if now.get(key) != value:
                print(f"[byzfed] environment: {key} was {value!r} in the original run, "
                      f"is {now.get(key)!r} now", flush=True)
        raise ByzfedError("replay mismatch")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ByzfedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # an unexpected failure is still a runtime error, not a usage error
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
