"""Command-line interface tests.

The golden file tests/data/golden_results.csv pins the byte-exact output
of a small fixed-seed run. Regenerate it (only after an intentional
behavior change) with:

    python -m byzfed.cli synth --seed 42 --trials 2 --alpha 0.2 --sigma 1.0 \
        --out-dir /tmp/golden
    cp /tmp/golden/results.csv tests/data/golden_results.csv

tests/data/golden_attack/ pins all four result files of a small Gaussian
attack grid (random_gauss reports against the CM, GM and IF aggregators,
where IF filters and GM iterates). Regenerate it the same way, only after
an intentional behavior change:

    python -m byzfed.cli grid --config tests/data/golden_attack/config.json \
        --threads 2 --out-dir /tmp/golden_attack
    cp /tmp/golden_attack/*.csv tests/data/golden_attack/

tests/data/golden_ingest/ pins all four result files of an ingest run on
tests/data/two_blobs.csv, with a TKM and an edge_cut clusterer, so both
callers of threshold_components are covered. The run id hashes the
parsed points, not the CSV path, so any path to the file gives the same
files. Regenerate it only after an intentional behavior change:

    python -m byzfed.cli ingest --csv tests/data/two_blobs.csv --gamma 5 \
        --shard-size 5 --n-adv 6 --min-cluster 5 \
        --config tests/data/golden_ingest/config.json --threads 2 \
        --out-dir /tmp/golden_ingest
    cp /tmp/golden_ingest/*.csv tests/data/golden_ingest/

Run ids. A run id hashes the config, so a change to a config class's
fields (asdict of ClusterSpec, say) changes every run id and nothing
else. Then regenerate only the run_id column: rerun the three commands
above into /tmp, check that every other column is unchanged, which
must print nothing,

    diff <(cut -d, -f2- tests/data/golden_results.csv) \
         <(cut -d, -f2- /tmp/golden/results.csv)
    for g in golden_attack golden_ingest; do
        diff <(cut -d, -f2- tests/data/$g/results.csv) \
             <(cut -d, -f2- /tmp/$g/results.csv)
        for f in misclustering optimization summary; do
            cmp tests/data/$g/$f.csv /tmp/$g/$f.csv
        done
    done

then copy only the three results.csv files and log the comparison in
CHANGES.md. The run ids pinned in _BETA_RUN_IDS are the manifest run_id
of `synth --seed 1` on each config of
test_aggregator_beta_is_checked_for_every_kind; read them from the new
manifest.json files.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import byzfed
from byzfed.cli import main
from byzfed.components import threshold_components
from byzfed.datagen import FleetConfig, read_points_csv
from byzfed.pipeline import config_from_dict
from byzfed.reporting import RESULT_FILES, load_manifest

DATA_DIR = Path(__file__).parent / "data"


def test_cli_process_does_not_import_scipy_optimize():
    # cluster matching is numerics.min_cost_assignment; importing
    # scipy.optimize would add about 11 MB to every command's peak RSS
    src = str(Path(byzfed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import byzfed, byzfed.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("prefix", ["scipy.spatial", "scipy.sparse"])
def test_cli_process_does_not_import_scipy_spatial_or_sparse(prefix):
    # threshold_components is pure numpy; scipy.spatial's kd-tree would
    # bring scipy.sparse with it, about 9 MB of every command's peak RSS
    src = str(Path(byzfed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import byzfed, byzfed.cli, sys; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "[]"


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


def test_golden_attack_files(tmp_path):
    golden = DATA_DIR / "golden_attack"
    out = tmp_path / "out"
    code = main(["grid", "--config", str(golden / "config.json"), "--threads", "2",
                 "--out-dir", str(out)])
    assert code == 0
    for name in RESULT_FILES:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("gamma", ["flag", "config_int"])
def test_golden_ingest_files(tmp_path, gamma):
    # an integer gamma in the config runs as the float the flag gives, so
    # its run id (in results.csv) is the golden one too; the absolute path
    # gives the run id of any other path to the same points
    golden = DATA_DIR / "golden_ingest"
    cfg = golden / "config.json"
    flags = ["--gamma", "5"]
    if gamma == "config_int":
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**json.loads((golden / "config.json").read_text()),
                                   "fleet": {"gamma": 5}}))
        flags = []
    out = tmp_path / "out"
    code = main(["ingest", "--csv", str(DATA_DIR / "two_blobs.csv"), *flags, "--shard-size", "5",
                 "--n-adv", "6", "--min-cluster", "5", "--config", str(cfg), "--threads", "2",
                 "--out-dir", str(out)])
    assert code == 0
    assert load_manifest(out).config["fleet"]["gamma"] == 5.0
    for name in RESULT_FILES:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


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


def test_gaussian_attack_grid_is_thread_invariant(tmp_path):
    # its optimizer cells share one table of Byzantine reports per
    # clusterer; the bytes cannot depend on which thread fills it
    cfg = json.loads((DATA_DIR / "golden_attack" / "config.json").read_text())
    cfg["grid"]["clusterers"].append({"name": "KM", "method": "lloyd"})
    cfg["grid"]["trials"] = 3
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["grid", "--config", str(path), "--threads", threads, "--out-dir", str(out)]) == 0
        outs.append(out)
    for name in RESULT_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_manifest_config_round_trips(tmp_path):
    code, out = _synth(tmp_path, "--seed", "2", "--aggregator", "tm", "--beta", "0.2")
    assert code == 0
    manifest = load_manifest(out)
    cfg = config_from_dict(manifest.config)
    assert cfg.seed == 2
    # a one-cell run stores its cell once, in the grid
    assert sorted(manifest.config) == ["attack", "fleet", "seed", "solver"]
    [opt] = manifest.grid["optimizers"]
    assert (opt["name"], opt["aggregator"]["kind"], opt["aggregator"]["beta"]) == ("TM", "trimmed_mean", 0.2)


# ---------------------------------------------------------------------------
# exit codes


def test_bad_flag_value_exits_1(tmp_path):
    code, _ = _synth(tmp_path, "--alpha", "0.9")
    assert code == 1


def test_unknown_clusterer_exits_1(tmp_path):
    # if2/iterfilter2 named the two-cluster filter, no longer a pipeline method
    for name in ("dbscan", "if2", "iterfilter2"):
        code, out = _synth(tmp_path / name, "--clusterer", name)
        assert code == 1
        assert not (out / "manifest.json").exists()


_SPELLINGS = [
    ("clusterer", ("grid", "clusterers", 0, "method"), spelling, name)
    for name, spellings in [
        ("lloyd", ["km", "lloyd"]),
        ("kgeomedian", ["kgm", "kgeomedian"]),
        ("trimmed_kmeans", ["tkm", "trimmed_kmeans"]),
        ("edge_cut", ["edge_cut", "edgecut", "ec", "Edge_Cut"]),
    ]
    for spelling in spellings
] + [
    ("aggregator", ("grid", "optimizers", 0, "aggregator", "kind"), spelling, name)
    for name, spellings in [
        ("sample_mean", ["sm", "sample_mean"]),
        ("trimmed_mean", ["tm", "trimmed_mean"]),
        ("coord_median", ["cm", "coord_median"]),
        ("geo_median", ["gm", "geo_median"]),
        ("iter_filter", ["if", "iter_filter"]),
    ]
    for spelling in spellings
]


def _one_round(tmp_path):
    """A config whose single Stage-III round keeps a run cheap."""
    path = tmp_path / "one_round.json"
    path.write_text(json.dumps({"opt": {"max_rounds": 1}}))
    return path


@pytest.mark.parametrize("flag, path, spelling, name", _SPELLINGS)
def test_method_spellings_reach_the_manifest_by_canonical_name(tmp_path, flag, path, spelling,
                                                                name):
    for case, value in enumerate([spelling, spelling.upper()]):
        out = tmp_path / str(case)
        gamma = ["--gamma", "1.0"] if name == "edge_cut" else []
        assert main(["synth", f"--{flag}", value, *gamma, "--config", str(_one_round(tmp_path)),
                     "--out-dir", str(out)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())
        for key in path:
            recorded = recorded[key]
        assert recorded == name
    code, _ = _synth(tmp_path / "unknown", f"--{flag}", spelling + "x")
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


def test_grid_aggregator_without_kind_exits_1(tmp_path, capsys):
    # kind is AggregatorSpec's one required field; the CLI's default
    # aggregator fills it only in the top-level opt section
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "clusterers": [{"name": "KM", "method": "lloyd"}],
        "optimizers": [{"name": "TM", "aggregator": {"beta": 0.2}}],
    }}))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert "'kind'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


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
    # aggregate runs the geometric median and the filter at their
    # functions' defaults, so no aggregator field sets their parameters
    cfg = tmp_path / "agg.json"
    cfg.write_text(json.dumps({"opt": {"aggregator": aggregator}}))
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    [field] = [key for key in aggregator if key != "kind"]
    err = capsys.readouterr().err
    assert "error:" in err and f"'{field}'" in err
    assert not (out / "manifest.json").exists()


# the manifest run id of each kind's valid config; keyed by kind, so a
# regenerated run id renames no test
_BETA_RUN_IDS = {
    "sample_mean": "9fb50b2a5871",
    "trimmed_mean": "453f27545371",
    "coord_median": "d253f927fd17",
    "geo_median": "5899938ec30d",
    "iter_filter": "47a1a82f6904",
}


@pytest.mark.parametrize("kind", list(_BETA_RUN_IDS))
def test_aggregator_beta_is_checked_for_every_kind(tmp_path, capsys, kind):
    # manifest.json records beta whatever the kind, so an unused bool beta,
    # or any beta but 0.0 on a kind other than the trimmed mean, would give
    # the same run a run id of its own
    cfg = tmp_path / "agg.json"
    unread = [] if kind == "trimmed_mean" else [0.3]
    for beta in [True, *unread]:
        cfg.write_text(json.dumps({"opt": {"max_rounds": 1, "aggregator": {"kind": kind, "beta": beta}}}))
        code, out = _synth(tmp_path / f"bad{beta}", "--seed", "1", "--config", str(cfg))
        assert code == 1
        assert "beta" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
    # a valid beta runs under the pinned run id (see the module docstring)
    beta = 0.3 if kind == "trimmed_mean" else 0.0
    cfg.write_text(json.dumps({"opt": {"max_rounds": 1, "aggregator": {"kind": kind, "beta": beta}}}))
    code, out = _synth(tmp_path / "ok", "--seed", "1", "--config", str(cfg))
    assert code == 0
    assert load_manifest(out).run_id == _BETA_RUN_IDS[kind]


def _synth_run_id(tmp_path, name, config, *flags):
    argv = ["--seed", "1", *flags]
    if config is not None:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    code, out = _synth(tmp_path / name, *argv)
    assert code == 0
    return load_manifest(out).run_id


def test_default_beta_applies_to_trimmed_mean_only(tmp_path):
    # the CLI's beta 0.1 is a trimmed mean's default; another kind never
    # reads beta, so it must not record one that splits its run id
    gm = {"opt": {"aggregator": {"kind": "geo_median"}}}
    gm_zero = {"opt": {"aggregator": {"kind": "geo_median", "beta": 0.0}}}
    ids = {
        _synth_run_id(tmp_path, "gm", gm),
        _synth_run_id(tmp_path, "gm_zero", gm_zero),
        _synth_run_id(tmp_path, "gm_flag", None, "--aggregator", "gm"),
    }
    assert len(ids) == 1
    # synth's default trimmed mean keeps its beta and its run id
    tm = {"opt": {"aggregator": {"kind": "trimmed_mean"}}}
    assert _synth_run_id(tmp_path, "default", None) == "8a85791f8b5f"
    assert _synth_run_id(tmp_path, "tm", tm) == "8a85791f8b5f"
    [opt] = load_manifest(tmp_path / "tm" / "out").grid["optimizers"]
    assert opt["aggregator"]["beta"] == 0.1


def test_grid_trimmed_mean_without_beta_takes_the_one_default(tmp_path):
    # AggregatorSpec holds the one trimmed-mean default: a grid optimizer
    # that names no beta trims 0.1, as the CLI's top-level one does, and
    # so runs under the run id of the same grid with beta 0.1
    def grid(aggregator):
        return {"grid": {"clusterers": [{"name": "TKM", "method": "trimmed_kmeans"}],
                         "optimizers": [{"name": "TM", "aggregator": aggregator}]}}

    unset = _synth_run_id(tmp_path, "unset", grid({"kind": "trimmed_mean"}))
    [opt] = load_manifest(tmp_path / "unset" / "out").grid["optimizers"]
    assert opt["aggregator"]["beta"] == 0.1
    assert unset == _synth_run_id(tmp_path, "set", grid({"kind": "trimmed_mean", "beta": 0.1}))
    assert unset != _synth_run_id(tmp_path, "zero", grid({"kind": "trimmed_mean", "beta": 0.0}))


@pytest.mark.parametrize(
    "aggregator", [{}, {"beta": 0.2}, {"beta": 0.2, "max_iter": 50}]
)
def test_config_aggregator_without_kind_exits_1(tmp_path, capsys, aggregator):
    # the same rule as a grid optimizer's: an aggregator the config writes
    # names its kind; the CLI's trimmed-mean default fills only its own
    cfg = tmp_path / "agg.json"
    cfg.write_text(json.dumps({"opt": {"aggregator": aggregator}}))
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_beta_flag_alone_sets_the_cli_made_trimmed_mean(tmp_path):
    code, out = _synth(tmp_path, "--seed", "1", "--beta", "0.2")
    assert code == 0
    [opt] = load_manifest(out).grid["optimizers"]
    assert (opt["aggregator"]["kind"], opt["aggregator"]["beta"]) == ("trimmed_mean", 0.2)


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
    # raw JSON text, so 1e400 reaches the parser as written (it reads inf).
    # GD always steps at 1/lambda_max, so step, lam and radius are no
    # solver fields, whatever their value
    cfg = tmp_path / "solver.json"
    cfg.write_text('{"solver": {"kind": "gd", %s}}' % solver)
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and solver.split(":")[0].strip('"') in err
    assert not (out / "manifest.json").exists()


def test_ogd_solver_exits_1_in_a_config_and_in_a_replayed_manifest(tmp_path, capsys):
    # Stage I has no online solver: "ogd" is an unknown solver, in a new
    # config and in a manifest written while Stage I offered it
    cfg = tmp_path / "ogd.json"
    cfg.write_text('{"solver": {"kind": "ogd"}}')
    code, out = _synth(tmp_path / "run", "--config", str(cfg))
    assert code == 1
    assert "unknown solver 'ogd'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()

    _, out = _synth(tmp_path, "--seed", "1")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["solver"] = {"kind": "ogd", "iters": 100}
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    re_dir = tmp_path / "re"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(re_dir)]) == 1
    assert "unknown solver 'ogd'" in capsys.readouterr().err
    assert not re_dir.exists()


@pytest.mark.parametrize(
    "config, flags",
    [
        ('{"opt": {"max_rounds": 2.5}}', []),
        ('{"opt": {"max_rounds": true}}', []),
        ('{"opt": {"local_steps": 2.5}}', []),
        ('{"opt": {"stop_tol": NaN}}', []),
        ('{"cluster": {"max_iter": 2.5}}', []),
        ('{"cluster": {"min_cluster": 0}}', []),
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
        ('{"cluster": {"warm_fraction": true}}', []),
        ('{"fleet": {"alpha": false}}', []),
        ('{"attack": {"kind": "sign_flip", "scale": true}}', []),
        ('{"opt": {"aggregator": {"kind": "trimmed_mean", "beta": false}}}', []),
        # only the constant attack reads a vector
        ('{"attack": {"kind": "sign_flip", "vector": [1, 2]}}', []),
        ('{"attack": {"kind": "sign_flip", "vector": "abc"}}', []),
        # only sign_flip and random_gauss read a scale
        ('{"attack": {"kind": "own_corrupt_data", "scale": 5.0}}', []),
        # an aggregator is an object with a kind, not a bare name
        ('{"opt": {"aggregator": "geo_median"}}', []),
        ('{"opt": {"aggregator": "geo_median"}}', ["--aggregator", "gm"]),
        ('{"grid": {"clusterers": [{"name": "KM", "method": "lloyd"}],'
         ' "optimizers": [{"name": "GM", "aggregator": "geo_median"}]}}', []),
        # a zero sigma_hat would trim every member of every bucket
        ('{"cluster": {"sigma_hat": 0}}', []),
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


@pytest.mark.parametrize("vector", [[9.0], [9.0, 9.0], [[9.0] * 5]])
def test_constant_attack_vector_must_match_the_fleet_dimension(tmp_path, capsys, vector):
    # the default synthetic fleet is 5-dimensional
    cfg = tmp_path / "attack.json"
    cfg.write_text(json.dumps({"attack": {"kind": "constant", "vector": vector}}))
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    assert "constant attack vector has shape" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    cfg.write_text(json.dumps({"attack": {"kind": "constant", "vector": [9.0] * 5}}))
    code, _ = _synth(tmp_path / "ok", "--config", str(cfg))
    assert code == 0


@pytest.mark.parametrize(
    "config, field",
    [
        ({"attack": {"seed": 99}}, "attack.seed"),
        ({"fleet": {"seed": 7}}, "fleet.seed"),
        ({"opt": {"init": [9, 9, 9, 9, 9]}}, "opt.init"),
        ({"grid": {"clusterers": [{"name": "KM", "method": "lloyd"}],
                   "optimizers": [{"name": "SM", "init": [9, 9, 9, 9, 9]}]}}, "opt.init"),
        ({"opt": {"step_size": 0.1}}, "opt.step_size"),
        ({"cluster": {"warm_fraction": 1.0}}, "cluster.warm_fraction"),
    ],
)
def test_fields_the_pipeline_derives_exit_1(tmp_path, capsys, config, field):
    # seeds and the Stage-III start are arguments the pipeline derives from
    # seed and Stage II, and the steps and the warm start are its own; no
    # config class has a field for them (Stage I's: test_bad_solver_parameters_exit_1,
    # the aggregators': test_bad_aggregator_parameters_exit_1)
    cfg = tmp_path / "derived.json"
    cfg.write_text(json.dumps(config))
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    err = capsys.readouterr().err
    assert "bad" in err and f"'{field.rpartition('.')[2]}'" in err
    assert not (out / "manifest.json").exists()


def test_unread_attack_scale_of_1_keeps_the_run_id(tmp_path):
    # own_corrupt_data never reads scale, and any other value exits 1 (see
    # test_bad_config_counts_and_reals_exit_1), so every accepted config of
    # that kind records 1.0 and one run has one run id
    cfg = tmp_path / "attack.json"
    run_ids = []
    for attack in ({"kind": "own_corrupt_data", "scale": 1.0}, {"kind": "own_corrupt_data"}):
        cfg.write_text(json.dumps({"opt": {"max_rounds": 1}, "attack": attack}))
        code, out = _synth(tmp_path / f"run{len(run_ids)}", "--config", str(cfg))
        assert code == 0
        run_ids.append(load_manifest(out).run_id)
    assert run_ids[0] == run_ids[1]


def test_unread_cluster_field_exits_1_before_the_manifest(tmp_path, capsys):
    # trimmed k-means never reads gamma: --gamma 1.0 would rerun --seed 1's
    # trial under a run id of its own
    code, out = _synth(tmp_path, "--gamma", "1.0", "--seed", "1")
    assert code == 1
    assert "cluster method 'trimmed_kmeans' takes no gamma" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_unread_field_at_its_default_keeps_the_run_id(tmp_path):
    base = {"cluster": {"method": "edge_cut", "gamma": 1.0}, "opt": {"max_rounds": 1}}
    spelled = {**base, "cluster": {**base["cluster"], "C": 2.0},
               "solver": {"kind": "erm", "iters": 100}}
    assert _synth_run_id(tmp_path, "base", base) == _synth_run_id(tmp_path, "spelled", spelled)


@pytest.mark.parametrize("path, value, config", [
    (("fleet", "alpha"), 0, {}),
    (("fleet", "sigma"), 1, {}),
    (("cluster", "C"), 3, {}),
    (("cluster", "sigma_hat"), 1, {}),
    (("cluster", "gamma"), 1, {"cluster": {"method": "edge_cut"}}),
    (("opt", "stop_tol"), 0, {}),
    (("opt", "aggregator", "beta"), 0, {"opt": {"aggregator": {"kind": "trimmed_mean"}}}),
    (("attack", "scale"), 2, {"attack": {"kind": "sign_flip"}}),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_int_and_float_spelling_of_a_real_field_give_one_run_id(tmp_path, path, value, config):
    # a real field holds a float, so manifest.json records 2.0 for 2 and
    # the two spellings of one run share its run id
    run_ids = []
    for spelling in (value, float(value)):
        data = json.loads(json.dumps({"opt": {"max_rounds": 5}, **config}))
        node = data
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = spelling
        run_ids.append(_synth_run_id(tmp_path, type(spelling).__name__, data))
    assert run_ids[0] == run_ids[1]


def test_ingest_gamma_flag_int_and_float_give_one_run_id(tmp_path):
    csv = str(DATA_DIR / "two_blobs.csv")
    run_ids = set()
    for name, flags, fleet in [("flag", ["--gamma", "5"], {}), ("int", [], {"gamma": 5}),
                               ("float", [], {"gamma": 5.0})]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"fleet": fleet}))
        out = tmp_path / name
        assert main(["ingest", "--csv", csv, "--shard-size", "5", *flags, "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        manifest = load_manifest(out)
        assert repr(manifest.config["fleet"]["gamma"]) == "5.0"
        run_ids.add(manifest.run_id)
    assert len(run_ids) == 1


def test_synthetic_fleet_defaults_are_fleet_configs(tmp_path):
    # synth without a fleet section runs FleetConfig(), as does a fleet
    # section that names no type and no field
    code, out = _synth(tmp_path, "--seed", "1")
    assert code == 0
    manifest = load_manifest(out)
    assert config_from_dict(manifest.config).fleet == FleetConfig()
    assert config_from_dict({"fleet": {}}).fleet == FleetConfig()
    assert _synth_run_id(tmp_path, "empty", {"fleet": {}}) == manifest.run_id


@pytest.mark.parametrize("config, named", [
    ({"attack": {"kind": "none"}}, "'none'"),  # own_corrupt_data has one spelling
    ({"solver": {"kind": "erm", "iters": 500}}, "iters"),
    ({"grid": {"clusterers": [{"name": "KM", "method": "lloyd"}],
               "optimizers": [{"name": "SM"}], "trails": 3}}, "'trails'"),
])
def test_input_that_reaches_no_run_exits_1(tmp_path, capsys, config, named):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    assert named in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "where, field, value",
    [
        ((), "seed", 1),
        (("config", "fleet"), "seed", 7),
        (("config", "fleet"), "adversary_kind", "corrupt_coefficients"),
        (("config", "attack"), "seed", 0),
        (("grid", "optimizers", 0), "init", None),
        (("config", "solver"), "step", None),
        (("config", "solver"), "lam", 1.0),
        (("config", "solver"), "radius", None),
        (("grid", "optimizers", 0), "step_size", None),
        (("grid", "clusterers", 0), "warm_fraction", 0.6),
        (("grid", "optimizers", 0, "aggregator"), "tol", 1e-7),
        (("grid", "optimizers", 0, "aggregator"), "max_iter", 500),
        (("grid", "optimizers", 0, "aggregator"), "variance_bound", None),
        (("grid", "optimizers", 0, "aggregator"), "max_rounds", 20),
    ],
    ids=["seed", "fleet.seed", "fleet.adversary_kind", "attack.seed", "opt.init", "solver.step",
         "solver.lam", "solver.radius", "opt.step_size", "cluster.warm_fraction",
         "aggregator.tol", "aggregator.max_iter", "aggregator.variance_bound",
         "aggregator.max_rounds"],
)
def test_replay_refuses_a_manifest_with_a_removed_field(tmp_path, capsys, where, field, value):
    # older manifests carry these fields, at the values every run used; no
    # config class or manifest field takes them now
    _, out = _synth(tmp_path, "--seed", "1")
    manifest = json.loads((out / "manifest.json").read_text())
    section = manifest
    for key in where:
        section = section[key]
    section[field] = value
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    re_dir = tmp_path / "re"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(re_dir)]) == 1
    err = capsys.readouterr().err
    assert "bad" in err and f"'{field}'" in err
    assert not re_dir.exists()


@pytest.mark.parametrize("command", ["synth", "grid", "ingest"])
@pytest.mark.parametrize(
    "config",
    [{"fleet": 5}, {"fleet": [1]}, {"fleet": None}, {"solver": "erm"}, {"cluster": 2},
     {"opt": []}, {"attack": "sign_flip"}, {"grid": [1]}],
)
def test_config_section_that_is_not_an_object_exits_1(tmp_path, rng, capsys, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    flags = ["--csv", str(_blob_csv(tmp_path, rng))] if command == "ingest" else ["--alpha", "0.1"]
    code = main([command, "--config", str(cfg), "--out-dir", str(out), *flags])
    assert code == 1
    section = next(iter(config))
    assert f"config section {section!r} must be an object" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


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

    monkeypatch.setattr("byzfed.cli.cmd_run", boom)
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


def test_ingest_constant_attack_of_wrong_length_exits_1_before_any_file(tmp_path, capsys):
    # the points' dimension is known once the layout exists, which is
    # before the manifest; two_blobs.csv is 2-D
    cfg = tmp_path / "attack.json"
    out = tmp_path / "out"
    argv = ["ingest", "--csv", str(DATA_DIR / "two_blobs.csv"), "--gamma", "5",
            "--shard-size", "5", "--n-adv", "6", "--min-cluster", "5",
            "--config", str(cfg), "--out-dir", str(out)]
    cfg.write_text(json.dumps({"attack": {"kind": "constant", "vector": [1.0, 2.0, 3.0]}}))
    assert main(argv) == 1
    assert "constant attack vector has shape (3,), expected (2,)" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    cfg.write_text(json.dumps({"attack": {"kind": "constant", "vector": [1.0, 2.0]}}))
    assert main(argv) == 0


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


@pytest.mark.parametrize("grid_edit", [
    {"clusterers": [{"name": "A", "method": "lloyd"}, {"name": "A", "method": "kgeomedian"}]},
    # distinct clusterer and optimizer names can still spell one cell name
    {"clusterers": [{"name": "A+B", "method": "lloyd"}, {"name": "A", "method": "kgeomedian"}],
     "optimizers": [{"name": "C"}, {"name": "B+C"}]},
])
def test_duplicate_cell_names_exit_1(tmp_path, capsys, grid_edit):
    # the tables key their rows by cell name: two cells of one name would
    # pool their trials into one summary row
    cfg = _write_grid_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["grid"].update(grid_edit)
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert "cell names must differ" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


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


@pytest.mark.parametrize("command", ["grid", "synth"])
@pytest.mark.parametrize(
    "extra", [{"cluster": {"C": 5.0}}, {"opt": {"max_rounds": 7}},
              {"cluster": {}, "opt": {"aggregator": {"kind": "geo_median"}}}, {"trials": 5}]
)
def test_top_level_cell_sections_beside_a_grid_exit_1(tmp_path, capsys, command, extra):
    # a grid's cells carry their own clusterer and optimizer, so a top-level
    # cluster or opt would reach no cell and only change the run id
    cfg = _write_grid_config(tmp_path)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **extra}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(key in err for key in extra) and "cannot sit beside a grid" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["grid", "synth"])
@pytest.mark.parametrize("trials", [[], ["--trials", "2"]])
@pytest.mark.parametrize(
    "grid", [{}, {"clusterers": [], "optimizers": [{"name": "SM"}]},
             {"clusterers": [{"name": "KM", "method": "lloyd"}], "optimizers": []}]
)
def test_grid_section_without_cells_exits_1(tmp_path, capsys, command, trials, grid):
    # a grid section that is present names its cells, with or without --trials
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": grid}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out), *trials]) == 1
    assert "grid section" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["synth", "ingest"])
def test_unknown_top_level_config_key_exits_1(tmp_path, rng, capsys, command):
    # a misspelt section would otherwise run with its defaults
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"atack": {"kind": "sign_flip", "scale": 5}, "seeed": 3}))
    out = tmp_path / "out"
    flags = ["--csv", str(_blob_csv(tmp_path, rng))] if command == "ingest" else []
    assert main([command, "--config", str(cfg), "--out-dir", str(out), *flags]) == 1
    assert "unknown config key 'atack'" in capsys.readouterr().err
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


@pytest.mark.parametrize("gamma", [True, "10"])
def test_ingest_config_gamma_must_be_a_number(tmp_path, rng, capsys, gamma):
    # a bare float() would run these at 1.0 and 10.0; synth and grid reject them too
    cfg = tmp_path / "ingest.json"
    cfg.write_text(json.dumps({"fleet": {"gamma": gamma}}))
    out = tmp_path / "out"
    code = main(["ingest", "--csv", str(_blob_csv(tmp_path, rng)), "--shard-size", "5",
                 "--config", str(cfg), "--out-dir", str(out)])
    assert code == 1
    assert "gamma" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_ingest_defaults_gamma_from_percentile(tmp_path, rng, capsys):
    csv = _blob_csv(tmp_path, rng)
    out = tmp_path / "out"
    code = main(["ingest", "--csv", str(csv), "--shard-size", "5", "--out-dir", str(out)])
    assert code == 0
    assert "gamma defaulted" in capsys.readouterr().out


def test_ingest_default_gamma_of_0_is_a_data_error(tmp_path, rng, capsys):
    # 30 copies of one point make over 10% of the pairs coincide; the data,
    # not a setting the user never gave, is what leaves no default
    pts = rng.standard_normal((30, 3))
    path = tmp_path / "dup.csv"
    np.savetxt(path, np.vstack([pts, np.repeat(pts[:1], 30, axis=0)]), delimiter=",")
    out = tmp_path / "out"
    assert main(["ingest", "--csv", str(path), "--shard-size", "5", "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "coincident points" in captured.err and "set gamma" in captured.err
    assert "gamma defaulted" not in captured.out
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("bad_line", ["1.0,2.0", "1.0,abc,3.0"], ids=["ragged", "not-a-number"])
def test_ingest_malformed_csv_exits_2_without_traceback(tmp_path, rng, capsys, bad_line):
    csv = _blob_csv(tmp_path, rng)
    lines = csv.read_text().splitlines()
    lines[4] = bad_line
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["ingest", "--csv", str(csv), "--gamma", "10", "--shard-size", "5",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        next(line for line in err.splitlines() if line.startswith("error:"))
    ]
    assert f"cannot parse {csv}" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def _ingest_run_id(tmp_path, csv, name):
    out = tmp_path / name
    assert main(["ingest", "--csv", str(csv), "--gamma", "10", "--shard-size", "5",
                 "--n-adv", "1", "--out-dir", str(out)]) == 0
    return out, load_manifest(out).run_id


def test_ingest_run_id_follows_the_points_not_the_path(tmp_path, rng):
    csv = _blob_csv(tmp_path, rng)
    copy = tmp_path / "elsewhere" / "copy.csv"
    copy.parent.mkdir()
    copy.write_bytes(csv.read_bytes())
    first, run_id = _ingest_run_id(tmp_path, csv, "a")
    second, copy_id = _ingest_run_id(tmp_path, copy, "b")
    assert copy_id == run_id
    assert load_manifest(first).points_sha256 == load_manifest(second).points_sha256
    for name in RESULT_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    # one value moved by 0.001 is another experiment
    pts = np.loadtxt(copy, delimiter=",")
    pts[3, 1] += 0.001
    np.savetxt(copy, pts, delimiter=",")
    assert _ingest_run_id(tmp_path, copy, "c")[1] != run_id


def test_replay_of_changed_points_exits_2_before_any_file(tmp_path, rng, capsys):
    csv = _blob_csv(tmp_path, rng)
    out, _ = _ingest_run_id(tmp_path, csv, "out")
    pts = np.loadtxt(csv, delimiter=",")
    pts[3, 1] += 0.001
    np.savetxt(csv, pts, delimiter=",")
    capsys.readouterr()
    re_dir = tmp_path / "re"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(re_dir)]) == 2
    assert "input changed" in capsys.readouterr().err
    assert not re_dir.exists()


def test_replay_from_another_directory_finds_the_points(tmp_path, rng, monkeypatch, capsys):
    # the manifest records the absolute path of a relative --csv
    run_dir, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
    run_dir.mkdir()
    elsewhere.mkdir()
    csv = _blob_csv(run_dir, rng)
    monkeypatch.chdir(run_dir)
    assert main(["ingest", "--csv", csv.name, "--gamma", "10", "--shard-size", "5",
                 "--n-adv", "1", "--out-dir", "out"]) == 0
    path = load_manifest(run_dir / "out").config["fleet"]["path"]
    assert os.path.isabs(path) and os.path.samefile(path, csv)
    monkeypatch.chdir(elsewhere)
    capsys.readouterr()
    assert main(["replay", "--manifest", str(run_dir / "out"), "--out-dir", "re"]) == 0
    printed = capsys.readouterr().out
    for name in RESULT_FILES:
        assert f"{name}: identical" in printed


def test_replay_without_out_dir_leaves_no_directory_when_it_exits_early(tmp_path, rng,
                                                                        monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    csv = _blob_csv(tmp_path, rng)
    out, _ = _ingest_run_id(tmp_path, csv, "out")
    _, synth_out = _synth(tmp_path / "synth", "--seed", "1")
    manifest = json.loads((synth_out / "manifest.json").read_text())
    manifest["config"]["solver"]["step"] = 0.1
    (synth_out / "manifest.json").write_text(json.dumps(manifest))
    pts = np.loadtxt(csv, delimiter=",")
    pts[3, 1] += 0.001
    np.savetxt(csv, pts, delimiter=",")
    assert main(["replay", "--manifest", str(out)]) == 2  # input changed
    assert main(["replay", "--manifest", str(synth_out)]) == 1  # a bad config
    assert list(temp.iterdir()) == []
    # a replay that runs keeps its directory
    _, synth_out = _synth(tmp_path / "synth2", "--seed", "1")
    assert main(["replay", "--manifest", str(synth_out)]) == 0
    [kept] = temp.iterdir()
    assert kept.name.startswith("byzfed_replay_") and (kept / "manifest.json").exists()


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
    path.write_text(json.dumps({"fleet": fleet, "grid": grid}))
    return path


@pytest.mark.parametrize("key", ["shard_sise", "m"])
def test_ingest_fleet_key_that_reaches_no_fleet_exits_1(tmp_path, rng, capsys, key):
    # ingest runs the config's whole fleet section, so a misspelled or a
    # synthetic-only key is refused, not dropped
    csv = _blob_csv(tmp_path, rng)
    cfg = tmp_path / "ingest.json"
    cfg.write_text(json.dumps({"fleet": {"type": "synthetic", key: 7}}))
    out = tmp_path / "out"
    assert main(["ingest", "--csv", str(csv), "--gamma", "10", "--config", str(cfg),
                 "--out-dir", str(out)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("csv", ["missing.csv", "two_blobs.csv"])
def test_ingest_fleet_typo_exits_1_before_the_points_are_read(tmp_path, capsys, csv):
    # the config is checked before the points are read and their gamma
    # defaulted, so a missing CSV does not hide the config error
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"fleet": {"shard_sise": 7}}))
    out = tmp_path / "out"
    assert main(["ingest", "--csv", str(DATA_DIR / csv), "--config", str(cfg),
                 "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert "'shard_sise'" in captured.err
    assert "gamma defaulted" not in captured.out
    assert not (out / "manifest.json").exists()


def test_ingest_fleet_without_gamma_runs_alike_under_synth_and_ingest(tmp_path, capsys):
    # the default gamma comes with the points under every command; the
    # manifest records null, so its replay defaults it again
    csv = str(DATA_DIR / "two_blobs.csv")
    cfg = tmp_path / "fleet.json"
    cfg.write_text(json.dumps({"fleet": {"type": "ingest", "path": csv, "shard_size": 5}}))
    ingest_out, synth_out = tmp_path / "ingest", tmp_path / "synth"
    assert main(["ingest", "--csv", csv, "--shard-size", "5", "--out-dir", str(ingest_out)]) == 0
    assert main(["synth", "--config", str(cfg), "--out-dir", str(synth_out)]) == 0
    assert capsys.readouterr().out.count("gamma defaulted") == 2
    manifest = load_manifest(synth_out)
    assert manifest.config["fleet"]["gamma"] is None
    assert manifest.run_id == load_manifest(ingest_out).run_id
    for name in RESULT_FILES:
        assert (synth_out / name).read_bytes() == (ingest_out / name).read_bytes(), name
    assert main(["replay", "--manifest", str(synth_out), "--out-dir", str(tmp_path / "re")]) == 0


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


@pytest.mark.parametrize("command", ["synth", "ingest"])
def test_manifest_config_and_grid_are_a_config_file(tmp_path, rng, command):
    # manifest.json writes its grid entries as a config does, {"name": ...,
    # **fields}, so its config and grid run again as a --config file
    if command == "synth":
        _, out = _synth(tmp_path, "--seed", "4", "--alpha", "0.1", "--aggregator", "gm")
    else:
        out, _ = _ingest_run_id(tmp_path, _blob_csv(tmp_path, rng), "out")
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = tmp_path / "from_manifest.json"
    cfg.write_text(json.dumps({**manifest["config"], "grid": manifest["grid"]}))
    again = tmp_path / "again"
    assert main(["grid", "--config", str(cfg), "--out-dir", str(again)]) == 0
    assert load_manifest(again).run_id == manifest["run_id"]
    for name in RESULT_FILES:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name
    # a [name, fields] pair is not a grid entry
    [entry] = manifest["grid"]["optimizers"]
    pair = [entry.pop("name"), entry]
    cfg.write_text(json.dumps({**manifest["config"], "grid": {**manifest["grid"], "optimizers": [pair]}}))
    assert main(["grid", "--config", str(cfg), "--out-dir", str(tmp_path / "pair")]) == 1
    assert not (tmp_path / "pair" / "manifest.json").exists()


def test_replay_reproduces_and_detects_tampering(tmp_path):
    _, out = _synth(tmp_path, "--seed", "6", "--alpha", "0.1", "--sigma", "0.5")
    replay_dir = tmp_path / "replayed"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(replay_dir)]) == 0

    # tamper with a result file: the replay comparison must fail
    results = out / "results.csv"
    results.write_bytes(results.read_bytes() + b"x")
    replay2 = tmp_path / "replayed2"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(replay2)]) == 2


def test_manifest_records_the_package_version(tmp_path):
    code, out = _synth(tmp_path, "--seed", "1")
    assert code == 0
    assert load_manifest(out).version == byzfed.__version__


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["version"] == byzfed.__version__


def test_manifest_records_the_environment_the_bytes_depend_on(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    code, out = _synth(tmp_path, "--seed", "1")
    assert code == 0
    recorded = json.loads((out / "manifest.json").read_text())["environment"]
    assert recorded == {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": None,  # unset
    }


def test_replay_mismatch_names_the_environment_that_changed(tmp_path, capsys):
    _, out = _synth(tmp_path, "--seed", "6")
    results = out / "results.csv"
    results.write_bytes(results.read_bytes() + b"x")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["environment"]["OPENBLAS_NUM_THREADS"] = "7"
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["replay", "--manifest", str(out), "--out-dir", str(tmp_path / "re")]) == 2
    printed = capsys.readouterr().out
    assert "OPENBLAS_NUM_THREADS was '7'" in printed
    # values that did not change are not named
    assert "OMP_NUM_THREADS" not in printed and "numpy" not in printed


def test_replay_refuses_to_overwrite_the_run_it_checks(tmp_path, capsys):
    _, out = _synth(tmp_path, "--seed", "6")
    results = out / "results.csv"
    tampered = results.read_bytes() + b"x\n"
    results.write_bytes(tampered)
    for manifest, out_dir in [(out, out), (out / "manifest.json", out / ".")]:
        capsys.readouterr()
        assert main(["replay", "--manifest", str(manifest), "--out-dir", str(out_dir)]) == 1
        assert "error:" in capsys.readouterr().err
        assert results.read_bytes() == tampered


def test_replay_of_edited_config_names_both_run_ids(tmp_path, capsys):
    _, out = _synth(tmp_path, "--seed", "1")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["grid"]["optimizers"][0]["max_rounds"] = 7
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    re_dir = tmp_path / "re"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(re_dir)]) == 2
    err = capsys.readouterr().err
    replayed_id = load_manifest(re_dir).run_id
    assert replayed_id != manifest["run_id"]
    assert manifest["run_id"] in err and replayed_id in err


def test_replay_directory_replays_again(tmp_path, capsys):
    _, out = _synth(tmp_path, "--seed", "6", "--alpha", "0.1", "--sigma", "0.5")
    first, second = tmp_path / "re1", tmp_path / "re2"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(first)]) == 0
    original, replayed = load_manifest(out), load_manifest(first)
    assert (replayed.run_id, replayed.command) == (original.run_id, original.command)
    capsys.readouterr()
    assert main(["replay", "--manifest", str(first), "--out-dir", str(second)]) == 0
    printed = capsys.readouterr().out
    for name in RESULT_FILES:
        assert f"{name}: identical" in printed


def test_replay_of_run_where_every_trial_failed_exits_0(tmp_path):
    # edge_cut keeps no component of more than m machines, so every trial
    # fails in Stage II; the files still replay
    cfg = tmp_path / "ec.json"
    cfg.write_text(json.dumps({"fleet": {"m": 30, "K": 3},
                               "cluster": {"method": "edge_cut", "gamma": 1.0, "min_cluster": 31}}))
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 2
    assert main(["replay", "--manifest", str(out), "--out-dir", str(tmp_path / "re")]) == 0


def test_replay_of_manifest_naming_removed_cluster_fields_exits_1(tmp_path, capsys):
    # manifests written while the pipeline offered iterfilter2 carry its two
    # knobs; ClusterSpec no longer has them, so the replay is a bad config
    _, out = _synth(tmp_path, "--seed", "1")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["grid"]["clusterers"][0].update(T=5, variance_bound=None)
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    re_dir = tmp_path / "re"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(re_dir)]) == 1
    assert "bad grid section" in capsys.readouterr().err
    assert not (re_dir / "manifest.json").exists()


def test_replay_of_manifest_with_cells_in_its_config_exits_1(tmp_path, capsys):
    # manifests written while PipelineConfig held a cluster and an opt
    # store the cell in config too; beside the grid, those sections exit 1
    _, out = _synth(tmp_path, "--seed", "1")
    manifest = json.loads((out / "manifest.json").read_text())
    [cluster], [opt] = manifest["grid"]["clusterers"], manifest["grid"]["optimizers"]
    manifest["config"]["cluster"] = {k: v for k, v in cluster.items() if k != "name"}
    manifest["config"]["opt"] = {k: v for k, v in opt.items() if k != "name"}
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    re_dir = tmp_path / "re"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(re_dir)]) == 1
    assert "top-level cluster and opt cannot sit beside a grid" in capsys.readouterr().err
    assert not re_dir.exists()


def test_replay_missing_manifest_exits_2(tmp_path):
    assert main(["replay", "--manifest", str(tmp_path / "ghost")]) == 2
