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
callers of threshold_components are covered. The manifest records the
CSV path as given and the run id hashes it, so run this from the
repository root, only after an intentional behavior change:

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
from pathlib import Path

import numpy as np
import pytest

import byzfed
from byzfed.cli import main
from byzfed.components import threshold_components
from byzfed.datagen import read_points_csv
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
def test_golden_ingest_files(tmp_path, monkeypatch, gamma):
    # an integer gamma in the config runs as the float the flag gives, so
    # its run id (in results.csv) is the golden one too
    golden = DATA_DIR / "golden_ingest"
    monkeypatch.chdir(DATA_DIR.parent.parent)
    cfg = golden / "config.json"
    flags = ["--gamma", "5"]
    if gamma == "config_int":
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**json.loads((golden / "config.json").read_text()),
                                   "fleet": {"gamma": 5}}))
        flags = []
    out = tmp_path / "out"
    code = main(["ingest", "--csv", "tests/data/two_blobs.csv", *flags, "--shard-size", "5",
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
    assert cfg.opt.aggregator.kind == "trimmed_mean"
    assert cfg.opt.aggregator.beta == 0.2


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
    ("clusterer", ("cluster", "method"), spelling, name)
    for name, spellings in [
        ("lloyd", ["km", "lloyd"]),
        ("kgeomedian", ["kgm", "kgeomedian"]),
        ("trimmed_kmeans", ["tkm", "trimmed_kmeans"]),
        ("edge_cut", ["edge_cut", "edgecut", "ec", "Edge_Cut"]),
    ]
    for spelling in spellings
] + [
    ("aggregator", ("opt", "aggregator", "kind"), spelling, name)
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
        recorded = load_manifest(out).config
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
    cfg = tmp_path / "agg.json"
    cfg.write_text(json.dumps({"opt": {"aggregator": aggregator}}))
    code, out = _synth(tmp_path, "--config", str(cfg))
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# the manifest run id of each kind's valid config; keyed by kind, so a
# regenerated run id renames no test
_BETA_RUN_IDS = {
    "sample_mean": "b0efc5f75c2d",
    "trimmed_mean": "ca88405b25d7",
    "coord_median": "d6c58bf8b12c",
    "geo_median": "4fe1657cd295",
    "iter_filter": "48a5d44caea3",
}


@pytest.mark.parametrize("kind", list(_BETA_RUN_IDS))
def test_aggregator_beta_is_checked_for_every_kind(tmp_path, capsys, kind):
    # manifest.json records beta whatever the kind, so an unused bool beta
    # would give the same run a run id of its own
    cfg = tmp_path / "agg.json"
    cfg.write_text(json.dumps({"opt": {"max_rounds": 1, "aggregator": {"kind": kind, "beta": True}}}))
    code, out = _synth(tmp_path / "bool", "--seed", "1", "--config", str(cfg))
    assert code == 1
    assert "beta" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    # a valid beta runs under the pinned run id (see the module docstring)
    cfg.write_text(json.dumps({"opt": {"max_rounds": 1, "aggregator": {"kind": kind, "beta": 0.3}}}))
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
    assert _synth_run_id(tmp_path, "default", None) == "e2fc56f385e6"
    assert _synth_run_id(tmp_path, "tm", tm) == "e2fc56f385e6"
    assert load_manifest(tmp_path / "tm" / "out").config["opt"]["aggregator"]["beta"] == 0.1


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
    agg = load_manifest(out).config["opt"]["aggregator"]
    assert (agg["kind"], agg["beta"]) == ("trimmed_mean", 0.2)


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
    ],
)
def test_fields_the_pipeline_derives_exit_1(tmp_path, capsys, config, field):
    # seeds and the Stage-III start are arguments the pipeline derives from
    # seed and Stage II; no config class has a field for them
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
        (("config", "opt"), "init", None),
    ],
    ids=["seed", "fleet.seed", "fleet.adversary_kind", "attack.seed", "opt.init"],
)
def test_replay_refuses_a_manifest_with_a_removed_field(tmp_path, capsys, where, field, value):
    # manifests written before seeds and starts became arguments carry
    # these fields; no config class or manifest field takes them now
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
    manifest["config"]["opt"]["max_rounds"] = 7
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
    manifest["config"]["cluster"].update(T=5, variance_bound=None)
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    re_dir = tmp_path / "re"
    assert main(["replay", "--manifest", str(out), "--out-dir", str(re_dir)]) == 1
    assert "bad config" in capsys.readouterr().err
    assert not (re_dir / "manifest.json").exists()


def test_replay_missing_manifest_exits_2(tmp_path):
    assert main(["replay", "--manifest", str(tmp_path / "ghost")]) == 2
