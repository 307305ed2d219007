"""Command-line front end.

Commands:
  synth   run the config's fleet (synthetic by default, or an ingest
          fleet) as a single cell or the config's grid
  grid    like synth, but requires an explicit grid section in the config
  ingest  build an ingest fleet from a points CSV and the flags, then run
          the experiment grid
  replay  rerun a manifest's config and grid under its command, into a
          directory other than the manifest's, and compare the result
          files; a recomputed run id that differs from the manifest's
          exits 2

An ingest fleet's points are read and their threshold-graph components
computed once per run, before manifest.json is written, so a bad points
file exits 2 with no manifest, and a constant attack vector whose length
is not the points' dimension exits 1 with no manifest; each trial only
draws its own shards. The run id names an ingest fleet by the digest of
its parsed points, not by its path; manifest.json records the absolute
path, so replay finds the points from any directory, and replay of
points that changed exits 2 before writing any file.
Configs are JSON; flags override file values. A grid section holds the
cells, so a top-level cluster or opt beside it, or a per-cell flag,
would reach no cell and exits 1. A method is named
by its full or short name, in any case, underscores optional: lloyd/KM,
kgeomedian/KGM, trimmed_kmeans/TKM, edge_cut/EC; sample_mean/SM,
trimmed_mean/TM, coord_median/CM, geo_median/GM, iter_filter/IF.
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

from .datagen import percentile_gamma, read_points_csv
from .errors import ByzfedError, ConfigError, DataError, require_int, require_real
from .pipeline import (
    ClusterSpec,
    IngestSpec,
    config_from_dict,
    config_to_dict,
    ingest_layout,
    opt_from_dict,
    run_grid,
)
from .reporting import (
    RunManifest,
    array_sha256,
    compute_run_id,
    emit_grid_outputs,
    file_sha256,
    load_manifest,
    write_manifest,
)

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

# the CLI's own default: its kind names the aggregator the CLI creates
# when the config has none, and its beta fills a top-level trimmed mean's;
# every other field defaults in its config class
_DEFAULT_AGGREGATOR = {"kind": "trimmed_mean", "beta": 0.1}

_SYNTHETIC_FLEET = {"type": "synthetic", "m": 20, "n": 20, "d": 5, "K": 2}

# the object-valued sections of a config, then its plain values
_SECTIONS = ("fleet", "solver", "cluster", "opt", "attack", "grid")
_CONFIG_KEYS = (*_SECTIONS, "trials", "seed")


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
    p_synth.set_defaults(func=cmd_synth)

    p_grid = sub.add_parser("grid", parents=[common], help="explicit clusterer x optimizer grid")
    p_grid.set_defaults(func=cmd_synth)

    p_ingest = sub.add_parser("ingest", parents=[common], help="experiment on an ingested points CSV")
    p_ingest.add_argument("--csv", required=True, help="points CSV file")
    # absent flags fall back to the config's fleet section, then to IngestSpec's defaults
    p_ingest.add_argument("--shard-size", type=int)
    p_ingest.add_argument("--n-adv", type=int, help="adversarial shard count")
    p_ingest.add_argument("--min-cluster", type=int)
    p_ingest.add_argument("--label-column", type=int, help="column index to drop")
    p_ingest.set_defaults(func=cmd_ingest)

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
    """A config names only known keys, and each section present is an
    object."""
    unknown = sorted(key for key in data if key not in _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}; expected one of {list(_CONFIG_KEYS)}")
    for section in _SECTIONS:
        if section in data and not isinstance(data[section], dict):
            raise ConfigError(
                f"config section {section!r} must be an object, got {json.dumps(data[section])}"
            )


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
    if args.trials is not None:
        data["trials"] = args.trials
        if "grid" in data:
            data["grid"]["trials"] = args.trials
    if args.alpha is not None:
        fleet["alpha"] = args.alpha
    if args.sigma is not None:
        fleet["sigma"] = args.sigma
    if ingest and args.gamma is not None:
        fleet["gamma"] = args.gamma
    if "grid" in data:  # only a config without one names its cell at top level
        return data
    cluster = data.setdefault("cluster", {})
    if args.clusterer is not None:
        cluster["method"] = _alias(_CLUSTERERS, args.clusterer, "clusterer")
    if not ingest and args.gamma is not None:  # edge_cut's threshold
        cluster["gamma"] = args.gamma
    opt = data.setdefault("opt", {})
    # a config's aggregator needs a kind, as a grid optimizer's does
    agg = opt.setdefault("aggregator", {"kind": _DEFAULT_AGGREGATOR["kind"]})
    if not isinstance(agg, dict):  # opt_from_dict rejects it
        return data
    if args.aggregator is not None:
        agg["kind"] = _alias(_AGGREGATORS, args.aggregator, "aggregator")
    if args.beta is not None:
        agg["beta"] = args.beta
    if agg.get("kind") == "trimmed_mean":
        opt["aggregator"] = {**_DEFAULT_AGGREGATOR, **agg}
    return data


def _cell(entry) -> tuple[str, dict]:
    """A grid entry, an object {"name": ..., **fields}, as (name, fields)."""
    fields = {**entry}  # TypeError unless the entry is an object
    return str(fields.pop("name")), fields


def _grid_specs(data: dict):
    """(clusterers, optimizers, trials) of the config's grid section, which
    must name both, or the one cell of its top-level cluster and opt.
    Every cell's config is checked here, before any output exists."""
    grid = data.get("grid")
    stray = [key for key in ("cluster", "opt") if key in data and grid is not None]
    if stray:
        raise ConfigError(f"top-level {' and '.join(stray)} cannot sit beside a grid section; "
                          "set them in its clusterers or optimizers")
    try:
        if grid is not None:
            clusterers = [(name, ClusterSpec(**f)) for name, f in map(_cell, grid["clusterers"])]
            optimizers = [(name, opt_from_dict(f)) for name, f in map(_cell, grid["optimizers"])]
        else:
            cluster, opt = ClusterSpec(**data.get("cluster", {})), opt_from_dict(data.get("opt", {}))
            oname = "FA" if opt.local_steps > 1 else _AGGREGATORS[opt.aggregator.kind]
            clusterers, optimizers = [(_CLUSTERERS[cluster.method], cluster)], [(oname, opt)]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {'config' if grid is None else 'grid section'}: {exc}") from exc
    if not clusterers or not optimizers:
        raise ConfigError("a grid section must name clusterers and optimizers")
    trials = (grid or {}).get("trials", data.get("trials", 1))
    require_int("trials", trials, 1)
    return clusterers, optimizers, trials


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("byzfed")
    except Exception:
        return "unknown"


def _execute(data: dict, command: str, out_dir, threads, points=None,
             replaying: RunManifest | None = None) -> tuple[int, str]:
    """Run the grid the config describes into out_dir; return the exit
    code and the run id. An ingest fleet's points (read here unless the
    caller already holds them) are hashed and their component layout is
    built here, so a bad points file fails before manifest.json exists,
    and so does the replay of a manifest whose points digest they no
    longer match."""
    base_cfg = config_from_dict(data)
    clusterers, optimizers, trials = _grid_specs(data)
    require_int("threads", threads, 1)
    out_dir = Path(out_dir)
    layout = points_sha256 = None
    if isinstance(base_cfg.fleet, IngestSpec):
        # the manifest records the absolute path, so replay finds the points
        # from any working directory; the run id does not depend on it
        spec = replace(base_cfg.fleet, path=os.path.abspath(base_cfg.fleet.path))
        base_cfg = replace(base_cfg, fleet=spec)
        if points is None:
            points = read_points_csv(spec.path, label_column=spec.label_column)
        points_sha256 = array_sha256(points)
        if replaying is not None and points_sha256 != replaying.points_sha256:
            raise DataError(f"input changed: the points of {spec.path} have digest "
                            f"{points_sha256}, the manifest records {replaying.points_sha256}")
        layout = ingest_layout(spec, points)
        base_cfg.attack.require_dim(layout.points.shape[1])

    grid_dict = {
        "clusterers": [{"name": name, **asdict(cluster)} for name, cluster in clusterers],
        "optimizers": [{"name": name, **asdict(opt)} for name, opt in optimizers],
        "trials": trials,
    }
    config_dict = config_to_dict(base_cfg)
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
        version=_version(),
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


def cmd_synth(args) -> int:
    """synth, and grid, which is synth that insists on a grid section. A
    fleet that is synthetic or has no type takes the synthetic defaults."""
    data = _load_config(args)
    fleet = data.setdefault("fleet", {})
    if fleet.get("type", "synthetic") == "synthetic":
        data["fleet"] = {**_SYNTHETIC_FLEET, **fleet}
    if args.command == "grid" and "grid" not in data:
        raise ConfigError("the grid command needs a 'grid' section in the config")
    _apply_overrides(data, args)
    return _execute(data, args.command, args.out_dir, args.threads)[0]


def cmd_ingest(args) -> int:
    """ingest: each fleet field comes from its flag, else from the config's
    fleet section, else from IngestSpec's default."""
    data = _load_config(args)
    flags = {"gamma": args.gamma, "shard_size": args.shard_size, "n_adv": args.n_adv,
             "min_cluster": args.min_cluster, "label_column": args.label_column}
    fleet = {key: value for key, value in data.get("fleet", {}).items() if key in flags}
    fleet.update((key, value) for key, value in flags.items() if value is not None)
    points = read_points_csv(args.csv, label_column=fleet.get("label_column"))
    gamma = fleet.get("gamma")
    if gamma is None:
        gamma = percentile_gamma(points)
        if gamma == 0:
            raise DataError(f"no default gamma for {args.csv}: at least 10% of the sampled "
                            "point pairs are coincident points, so the 10th percentile of "
                            "their distances is 0; set --gamma")
        print(f"[byzfed] gamma defaulted to {gamma:.6g} "
              "(10th percentile of sampled pairwise distances)", flush=True)
    require_real("gamma", gamma, positive=True, finite=False)
    fleet["gamma"] = float(gamma)  # an int gamma keeps the run id of its float
    data["fleet"] = {"type": "ingest", "path": str(args.csv), **fleet}
    _apply_overrides(data, args)
    return _execute(data, "ingest", args.out_dir, args.threads, points)[0]


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
