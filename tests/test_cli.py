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


def test_byzfed_threads_env_caps_pool(tmp_path, monkeypatch):
    monkeypatch.setenv("BYZFED_THREADS", "2")
    code, out = _synth(tmp_path, "--seed", "1", "--threads", "8")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"] == 2


def test_byzfed_threads_env_rejects_garbage(tmp_path, monkeypatch):
    monkeypatch.setenv("BYZFED_THREADS", "many")
    code, _ = _synth(tmp_path, "--seed", "1")
    assert code == 1


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
