"""Command-line interface tests.

The golden file tests/data/golden_results.csv pins the byte-exact output
of a small fixed-seed run. Regenerate it (only after an intentional
behavior change) with:

    python -m byzfed.cli synth --seed 42 --trials 2 --alpha 0.2 --sigma 1.0 \
        --out-dir /tmp/golden
    cp /tmp/golden/results.csv tests/data/golden_results.csv
"""

import json
from pathlib import Path

import numpy as np
import pytest

from byzfed.cli import main
from byzfed.components import threshold_components
from byzfed.datagen import read_points_csv
from byzfed.pipeline import config_from_dict
from byzfed.reporting import RESULT_FILES, load_manifest

DATA_DIR = Path(__file__).parent / "data"


def _synth(tmp_path, *extra):
    out = tmp_path / "out"
    code = main(["synth", "--out-dir", str(out), *extra])
    return code, out


def test_synth_writes_manifest_and_csvs(tmp_path):
    code, out = _synth(tmp_path, "--seed", "3")
    assert code == 0
    assert (out / "manifest.json").exists()
    for name in RESULT_FILES:
        assert (out / name).exists()
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == "run_id,cell,trial,metric,value"
    header = (out / "misclustering.csv").read_text().splitlines()[0]
    assert header == "variant,trial,iter,A_s"


def test_golden_results_file(tmp_path):
    code, out = _synth(tmp_path, "--seed", "42", "--trials", "2", "--alpha", "0.2", "--sigma", "1.0")
    assert code == 0
    got = (out / "results.csv").read_bytes()
    expected = (DATA_DIR / "golden_results.csv").read_bytes()
    assert got == expected


def test_same_seed_reproduces_same_bytes(tmp_path):
    _, a = _synth(tmp_path / "a", "--seed", "7", "--alpha", "0.1", "--sigma", "0.5")
    _, b = _synth(tmp_path / "b", "--seed", "7", "--alpha", "0.1", "--sigma", "0.5")
    for name in RESULT_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_changes_results(tmp_path):
    _, a = _synth(tmp_path / "a", "--seed", "7", "--sigma", "0.5")
    _, b = _synth(tmp_path / "b", "--seed", "8", "--sigma", "0.5")
    assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()


def test_thread_count_does_not_change_bytes(tmp_path):
    _, a = _synth(tmp_path / "a", "--seed", "5", "--alpha", "0.2", "--sigma", "1.0",
                  "--trials", "3", "--threads", "1")
    _, b = _synth(tmp_path / "b", "--seed", "5", "--alpha", "0.2", "--sigma", "1.0",
                  "--trials", "3", "--threads", "4")
    for name in RESULT_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_config_round_trips(tmp_path):
    code, out = _synth(tmp_path, "--seed", "2", "--aggregator", "tm", "--beta", "0.2")
    assert code == 0
    manifest = load_manifest(out)
    cfg = config_from_dict(manifest.config)
    assert cfg.seed == 2
    assert cfg.opt.aggregator.kind == "trimmed_mean"
    assert cfg.opt.aggregator.beta == 0.2


# ---------------------------------------------------------------------------
# exit codes


def test_bad_flag_value_exits_1(tmp_path):
    code, _ = _synth(tmp_path, "--alpha", "0.9")
    assert code == 1


def test_unknown_clusterer_exits_1(tmp_path):
    code, _ = _synth(tmp_path, "--clusterer", "dbscan")
    assert code == 1


def test_missing_config_file_exits_1(tmp_path):
    code, _ = _synth(tmp_path, "--config", str(tmp_path / "absent.json"))
    assert code == 1


def test_non_numeric_config_values_exit_1(tmp_path, rng, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"trials": "many"}))
    code, _ = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    assert "error:" in capsys.readouterr().err

    # the same in a replayed manifest's grid section
    _, out = _synth(tmp_path / "ok", "--seed", "1")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["grid"]["trials"] = "many"
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["replay", "--manifest", str(out), "--out-dir", str(tmp_path / "re")]) == 1
    assert "error:" in capsys.readouterr().err

    # and an ingest gamma taken from the config file
    cfg.write_text(json.dumps({"fleet": {"gamma": "wide"}}))
    csv = _blob_csv(tmp_path, rng)
    code = main(["ingest", "--csv", str(csv), "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "aggregator",
    [
        {"kind": "geo_median", "max_iter": 0},
        {"kind": "geo_median", "tol": -1.0},
        {"kind": "iter_filter", "max_rounds": 0},
        {"kind": "iter_filter", "variance_bound": -2.0},
        {"kind": "geo_median", "max_iter": 2.5},
        {"kind": "iter_filter", "max_rounds": 2.5},
    ],
)
def test_bad_aggregator_parameters_exit_1(tmp_path, capsys, aggregator):
    cfg = tmp_path / "agg.json"
    cfg.write_text(json.dumps({"opt": {"aggregator": aggregator}}))
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "solver",
    [
        '"iters": 2.5',
        '"iters": true',
        '"iters": 0',
        '"step": 1e400',
        '"step": -1.0',
        '"lam": -1',
        '"lam": NaN',
        '"radius": 0',
    ],
)
def test_bad_solver_parameters_exit_1(tmp_path, capsys, solver):
    # raw JSON text, so 1e400 reaches the parser as written (it reads inf)
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"solver": {"kind": "gd", %s}}' % solver)
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "config, flags",
    [
        ('{"opt": {"max_rounds": 2.5}}', []),
        ('{"opt": {"max_rounds": true}}', []),
        ('{"opt": {"local_steps": 2.5}}', []),
        ('{"opt": {"stop_tol": NaN}}', []),
        ('{"cluster": {"max_iter": 2.5}}', []),
        ('{"cluster": {"T": 2.5}}', []),
        ('{"cluster": {"min_cluster": 1.5}}', []),
        ('{"cluster": {"C": NaN}}', []),
        ('{"cluster": {"sigma_hat": NaN}}', []),
        ('{"fleet": {"m": 20.5}}', []),
        ('{"fleet": {"sigma": NaN}}', []),
        ('{"trials": 2.5}', []),
        ('{"trials": 0}', []),
        ('{}', ["--trials", "0"]),
        ('{"seed": 2.5}', []),
        ('{"seed": true}', []),
        ('{}', ["--seed", "-1"]),
        ('{}', ["--threads", "0"]),
    ],
)
def test_bad_config_counts_and_reals_exit_1(tmp_path, capsys, config, flags):
    # raw JSON text, so NaN reaches the parser as written
    cfg = tmp_path / "bad.json"
    cfg.write_text(config)
    code, out = _synth(tmp_path, "--config", str(cfg), *flags)
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "config, field",
    [
        ({"attack": {"seed": 99}}, "attack.seed"),
        ({"fleet": {"seed": 7}}, "fleet.seed"),
        ({"opt": {"init": [9, 9, 9, 9, 9]}}, "opt.init"),
        ({"grid": {"clusterers": [{"name": "KM", "method": "lloyd"}],
                   "optimizers": [{"name": "SM", "init": [9, 9, 9, 9, 9]}]}}, "opt.init"),
    ],
)
def test_fields_the_pipeline_derives_exit_1(tmp_path, capsys, config, field):
    # the pipeline would overwrite each of them, so a set value could only
    # change the run id
    cfg = tmp_path / "derived.json"
    cfg.write_text(json.dumps(config))
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    assert field in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "manifest_edit, flags",
    [
        ({"grid": {"trials": True}}, []),
        ({"grid": {"trials": 2.5}}, []),
        ({"threads": 0}, []),
        ({}, ["--threads", "0"]),
    ],
)
def test_replay_rejects_non_integer_trials_and_threads(tmp_path, capsys, manifest_edit, flags):
    _, out = _synth(tmp_path, "--seed", "1")
    manifest = json.loads((out / "manifest.json").read_text())
    for key, value in manifest_edit.items():
        if isinstance(value, dict):
            manifest[key].update(value)
        else:
            manifest[key] = value
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    re_dir = tmp_path / "re"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(re_dir), *flags]) == 1
    assert "error:" in capsys.readouterr().err
    assert not re_dir.exists()


def test_infinite_trim_radius_multiplier_is_legal(tmp_path):
    # C = inf means no trimming
    cfg = tmp_path / "c.json"
    cfg.write_text('{"cluster": {"C": Infinity}}')
    code, _ = _synth(tmp_path, "--config", str(cfg))
    assert code == 0


def test_bad_usage_exits_1():
    assert main(["trample"]) == 1


def test_grid_command_requires_grid_section(tmp_path):
    out = tmp_path / "out"
    code = main(["grid", "--out-dir", str(out), "--seed", "0"])
    assert code == 1


def test_unexpected_exception_exits_2(tmp_path, monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("byzfed.cli.cmd_synth", boom)
    assert main(["synth", "--out-dir", str(tmp_path / "out")]) == 2
    assert "error: RuntimeError: boom" in capsys.readouterr().err


def test_ingest_missing_csv_exits_2(tmp_path):
    out = tmp_path / "out"
    code = main(["ingest", "--csv", str(tmp_path / "nope.csv"), "--out-dir", str(out)])
    assert code == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("gamma_flag", [[], ["--gamma", "10"]])
def test_ingest_non_finite_csv_exits_2(tmp_path, rng, capsys, gamma_flag):
    csv = _blob_csv(tmp_path, rng)
    lines = csv.read_text().splitlines()
    lines[4] = "nan,0.0,0.0"
    csv.write_text("\n".join(lines) + "\n")
    code = main(["ingest", "--csv", str(csv), "--shard-size", "5", *gamma_flag,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert "gamma defaulted" not in captured.out
    assert "data row 5" in captured.err
    assert "every trial failed" not in captured.err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "flags, config, code, message",
    [
        (["--label-column", "99"], None, 2, "label_column 99 is out of range"),
        ([], {"fleet": {"label_column": 1.5}}, 1, "label_column must be an integer"),
        (["--label-column", "-1"], None, 1, "label_column must be an integer"),
    ],
)
def test_ingest_bad_label_column_exits_cleanly(tmp_path, rng, capsys, flags, config, code, message):
    csv = _blob_csv(tmp_path, rng)
    if config is not None:
        cfg = tmp_path / "ingest.json"
        cfg.write_text(json.dumps(config))
        flags = [*flags, "--config", str(cfg)]
    out = tmp_path / "out"
    assert main(["ingest", "--csv", str(csv), "--gamma", "10", *flags, "--out-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_ingest_without_surviving_component_exits_2(tmp_path, rng, capsys):
    # at this gamma every point is its own component, below one shard
    csv = _blob_csv(tmp_path, rng)
    code = main(["ingest", "--csv", str(csv), "--gamma", "1e-9", "--shard-size", "5",
                 "--trials", "2", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "no connected component reaches min_cluster" in err
    assert "every trial failed" not in err
    assert not (tmp_path / "out" / "manifest.json").exists()


# ---------------------------------------------------------------------------
# config files and the grid command


def _write_grid_config(tmp_path):
    cfg = {
        "fleet": {"type": "synthetic", "m": 12, "n": 15, "d": 4, "K": 2,
                  "alpha": 0.1, "sigma": 0.5},
        "grid": {
            "clusterers": [
                {"name": "KM", "method": "lloyd"},
                {"name": "TKM", "method": "trimmed_kmeans", "sigma_hat": 0.55},
            ],
            "optimizers": [
                {"name": "SM", "max_rounds": 30},
                {"name": "TM", "max_rounds": 30,
                 "aggregator": {"kind": "trimmed_mean", "beta": 0.25}},
            ],
            "trials": 2,
        },
        "seed": 9,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    return path


def test_grid_command_runs_all_cells(tmp_path):
    cfg = _write_grid_config(tmp_path)
    out = tmp_path / "out"
    code = main(["grid", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 5  # header + 4 cells
    cells = {line.split(",")[0] for line in summary[1:]}
    assert cells == {"KM+SM", "KM+TM", "TKM+SM", "TKM+TM"}


def test_cli_trials_flag_overrides_grid_section(tmp_path):
    cfg = _write_grid_config(tmp_path)
    out = tmp_path / "out"
    code = main(["grid", "--config", str(cfg), "--out-dir", str(out), "--trials", "1"])
    assert code == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[3] == "1" for row in rows)


@pytest.mark.parametrize("command", ["grid", "synth"])
@pytest.mark.parametrize(
    "flag", [["--clusterer", "km"], ["--aggregator", "cm"], ["--beta", "0.2"], ["--gamma", "3"]]
)
def test_cell_flags_with_grid_section_exit_1(tmp_path, capsys, command, flag):
    # the grid's cells carry their own clusterer and optimizer; a flag
    # would reach none of them
    cfg = _write_grid_config(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out), *flag]) == 1
    assert flag[0] in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# ingest and replay


def _blob_csv(tmp_path, rng):
    a = rng.standard_normal((23, 3))
    b = rng.standard_normal((17, 3)) + 25.0
    path = tmp_path / "blobs.csv"
    np.savetxt(path, np.vstack([a, b]), delimiter=",")
    return path


def test_ingest_end_to_end(tmp_path, rng):
    csv = _blob_csv(tmp_path, rng)
    out = tmp_path / "out"
    code = main(["ingest", "--csv", str(csv), "--gamma", "10", "--shard-size", "5",
                 "--n-adv", "1", "--out-dir", str(out), "--seed", "3"])
    assert code == 0
    for name in RESULT_FILES:
        assert (out / name).exists()
    manifest = load_manifest(out)
    assert manifest.config["fleet"]["type"] == "ingest"


def test_ingest_defaults_gamma_from_percentile(tmp_path, rng, capsys):
    csv = _blob_csv(tmp_path, rng)
    out = tmp_path / "out"
    code = main(["ingest", "--csv", str(csv), "--shard-size", "5", "--out-dir", str(out)])
    assert code == 0
    assert "gamma defaulted" in capsys.readouterr().out


@pytest.mark.parametrize("gamma_flag", [[], ["--gamma", "10"]])
def test_ingest_reads_points_and_builds_components_once(tmp_path, rng, capsys, monkeypatch,
                                                        gamma_flag):
    calls = {"read": 0, "components": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # every module global an ingest run reads points or components through
    for target in ("byzfed.cli.read_points_csv", "byzfed.pipeline.read_points_csv"):
        monkeypatch.setattr(target, counted("read", read_points_csv))
    for target in ("byzfed.datagen.threshold_components",
                   "byzfed.clustering.threshold_components"):
        monkeypatch.setattr(target, counted("components", threshold_components))
    csv = _blob_csv(tmp_path, rng)
    code = main(["ingest", "--csv", str(csv), "--shard-size", "5", "--n-adv", "1",
                 "--trials", "3", *gamma_flag, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert calls == {"read": 1, "components": 1}
    assert "ingest produced 2 clusters" in capsys.readouterr().out


def test_ingest_takes_fleet_fields_from_config_when_flags_are_absent(tmp_path, rng, capsys):
    csv = _blob_csv(tmp_path, rng)
    fleet = {"gamma": 10.0, "shard_size": 4, "n_adv": 2, "min_cluster": 8, "label_column": 2}
    cfg = tmp_path / "ingest.json"
    cfg.write_text(json.dumps({"fleet": fleet}))
    out = tmp_path / "out"
    assert main(["ingest", "--csv", str(csv), "--config", str(cfg), "--out-dir", str(out)]) == 0
    got = load_manifest(out).config["fleet"]
    assert {k: got[k] for k in fleet} == fleet

    # a flag still overrides its config field
    out = tmp_path / "out2"
    assert main(["ingest", "--csv", str(csv), "--config", str(cfg), "--shard-size", "5",
                 "--out-dir", str(out)]) == 0
    assert load_manifest(out).config["fleet"] == {**got, "shard_size": 5}

    # ingest's --gamma is the fleet's, but --clusterer cannot reach a grid's cells
    cfg.write_text(json.dumps({"fleet": fleet, "grid": json.loads(
        _write_grid_config(tmp_path).read_text())["grid"]}))
    out = tmp_path / "out3"
    assert main(["ingest", "--csv", str(csv), "--config", str(cfg), "--gamma", "9",
                 "--clusterer", "km", "--out-dir", str(out)]) == 1
    assert not (out / "manifest.json").exists()


def _ingest_fleet_config(tmp_path, csv, **fleet):
    """A synth/grid config whose fleet is ingested from csv, with the grid
    of _write_grid_config."""
    fleet = {"type": "ingest", "path": str(csv), "gamma": 10.0, "shard_size": 5,
             "n_adv": 1, "min_cluster": 1, "label_column": None, **fleet}
    grid = json.loads(_write_grid_config(tmp_path).read_text())["grid"]
    path = tmp_path / "ingest_grid.json"
    path.write_text(json.dumps({"fleet": fleet, "solver": {"loss": "location"}, "grid": grid}))
    return path


def test_grid_with_ingest_fleet_matches_ingest_command(tmp_path, rng):
    csv = _blob_csv(tmp_path, rng)
    cfg = _ingest_fleet_config(tmp_path, csv, gamma=3.0)  # --gamma sets the fleet's
    grid_out, ingest_out = tmp_path / "grid", tmp_path / "ingest"
    assert main(["grid", "--config", str(cfg), "--gamma", "10", "--seed", "4",
                 "--out-dir", str(grid_out)]) == 0
    assert main(["ingest", "--csv", str(csv), "--gamma", "10", "--shard-size", "5",
                 "--n-adv", "1", "--config", str(cfg), "--seed", "4",
                 "--out-dir", str(ingest_out)]) == 0
    for name in RESULT_FILES:
        assert (grid_out / name).read_bytes() == (ingest_out / name).read_bytes()


@pytest.mark.parametrize("command", ["grid", "synth"])
def test_non_finite_points_through_config_fleet_exit_2(tmp_path, rng, capsys, command):
    csv = _blob_csv(tmp_path, rng)
    lines = csv.read_text().splitlines()
    lines[4] = "nan,0.0,0.0"
    csv.write_text("\n".join(lines) + "\n")
    cfg = _ingest_fleet_config(tmp_path, csv)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data row 5" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_replay_of_ingest_run_is_identical(tmp_path, rng, capsys):
    csv = _blob_csv(tmp_path, rng)
    out = tmp_path / "out"
    code = main(["ingest", "--csv", str(csv), "--gamma", "10", "--shard-size", "5",
                 "--n-adv", "2", "--trials", "3", "--threads", "2", "--out-dir", str(out)])
    assert code == 0
    capsys.readouterr()
    assert main(["replay", "--manifest", str(out), "--out-dir", str(tmp_path / "re"),
                 "--threads", "1"]) == 0
    printed = capsys.readouterr().out
    for name in RESULT_FILES:
        assert f"{name}: identical" in printed


def test_replay_reproduces_and_detects_tampering(tmp_path):
    _, out = _synth(tmp_path, "--seed", "6", "--alpha", "0.1", "--sigma", "0.5")
    replay_dir = tmp_path / "replayed"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(replay_dir)]) == 0

    # tamper with a result file: the replay comparison must fail
    results = out / "results.csv"
    results.write_bytes(results.read_bytes() + b"x")
    replay2 = tmp_path / "replayed2"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(replay2)]) == 2


def test_replay_missing_manifest_exits_2(tmp_path):
    assert main(["replay", "--manifest", str(tmp_path / "ghost")]) == 2
