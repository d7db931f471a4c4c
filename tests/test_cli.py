import json
import os
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dbnkit import cli
from dbnkit.baselines import GaussianModel, save_baseline
from dbnkit.config import _LAYER_KEYS, _SCHEMA, _TRAIN_KEYS, ExperimentConfig
from dbnkit.dbn import DbnModel, load_dbn, save_dbn
from dbnkit.estimation import EstimatorSpec
from dbnkit.models import DEFAULT_ENUM_BUDGET
from dbnkit.numerics import RngStream
from dbnkit.oracle import random_rbm
from dbnkit.pipeline import DataSet, PreprocessSpec, load_dataset, save_dataset, save_images
from dbnkit.storage import canonical_json, write_container
from dbnkit.training import TrainConfig


def write_config(path, body):
    path.write_text(textwrap.dedent(body))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


def preprocess_config(ws, out="data", seed=5, n_train=400, n_test=60):
    return write_config(
        ws / "prep.ini",
        f"""
        [experiment]
        seed = {seed}
        out_dir = {ws / out}

        [preprocess]
        source = synthetic
        pairs = 1
        n_train = {n_train}
        n_test = {n_test}

        [synthetic]
        kind = isotropic_mixture
        dim = 4
        components = 2
        sigma = 0.5
        spread = 1.0
        """,
    )


def train_config(ws, out="run", seed=7, epochs=3):
    return write_config(
        ws / "train.ini",
        f"""
        [experiment]
        seed = {seed}
        out_dir = {ws / out}
        label = tiny

        [data]
        train = {ws / 'data' / 'train_00.dbds'}

        [layers]
        count = 2

        [layer.0]
        variant = grbm
        hidden = 4
        sigma = 0.6

        [layer.0.train]
        epochs = {epochs}
        batch_size = 100

        [layer.1]
        variant = srbm
        hidden = 4

        [layer.1.train]
        epochs = {epochs}
        batch_size = 100
        """,
    )


def eval_config(ws, out="evalout", seed=11, model="run/model", n_is=50):
    return write_config(
        ws / "eval.ini",
        f"""
        [experiment]
        seed = {seed}
        out_dir = {ws / out}
        label = tiny

        [eval]
        model = {ws / model}
        dataset = {ws / 'data' / 'test_00.dbds'}

        [ais]
        n_betas = 60
        chains_top = 50
        chains_interface = 200

        [estimator]
        n_is = {n_is}
        exact = auto
        marginals = auto
        """,
    )


def test_preprocess_creates_datasets(workspace):
    cfg = preprocess_config(workspace)
    assert cli.main(["preprocess", "--config", cfg]) == 0
    train = load_dataset(workspace / "data" / "train_00.dbds")
    test = load_dataset(workspace / "data" / "test_00.dbds")
    assert train.samples.shape == (400, 4)
    assert test.samples.shape == (60, 4)


def test_preprocess_deterministic(workspace):
    cfg = preprocess_config(workspace)
    assert cli.main(["preprocess", "--config", cfg]) == 0
    first = (workspace / "data" / "train_00.dbds").read_bytes()
    assert cli.main(["preprocess", "--config", cfg]) == 0
    assert (workspace / "data" / "train_00.dbds").read_bytes() == first


def test_preprocess_missing_images_is_data_error(workspace):
    cfg = write_config(
        workspace / "prep.ini",
        f"""
        [experiment]
        out_dir = {workspace / 'data'}

        [preprocess]
        source = images
        images = {workspace / 'missing.dbni'}
        """,
    )
    assert cli.main(["preprocess", "--config", cfg]) == cli.EXIT_DATA


@pytest.mark.parametrize(
    "section, key",
    [
        ("experiment", "sneaky"),
        # keys that nothing reads are refused rather than silently ignored
        ("data", "test"),
        ("preprocess", "n_patches"),
        ("compare", "series_by"),
    ],
)
def test_unknown_config_key_is_config_error(workspace, capsys, section, key):
    cfg = write_config(
        workspace / "bad.ini",
        f"""
        [{section}]
        {key} = 1
        """,
    )
    assert cli.main(["preprocess", "--config", cfg]) == cli.EXIT_CONFIG
    assert f"unknown key {key!r}" in capsys.readouterr().err


def _readme_config_keys():
    """Section -> keys of README's "Config format" block; ``;`` keys count."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    sections = {}
    for line in block.splitlines():
        line = line.lstrip("; ").split("#", 1)[0].strip()
        if line.startswith("["):
            keys = sections.setdefault(line.strip("[]"), set())
        elif "=" in line:
            keys.add(line.split("=", 1)[0].strip())
    return sections


def test_readme_lists_every_config_key():
    accepted = {section: set(keys) for section, keys in _SCHEMA.items()}
    accepted.update({"layer.0": set(_LAYER_KEYS), "layer.0.train": set(_TRAIN_KEYS)})
    assert _readme_config_keys() == accepted


@pytest.mark.parametrize("section, spec", [
    ("ais", EstimatorSpec), ("estimator", EstimatorSpec), ("preprocess", PreprocessSpec),
])
def test_readme_shows_the_spec_defaults(section, spec):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Config format", 1)[1].split(f"[{section}]", 1)[1]
    shown = {}
    for line in block.split("\n[", 1)[0].splitlines():
        if "=" in line.split("#", 1)[0]:
            key, raw = (part.strip() for part in line.split("#", 1)[0].split("=", 1))
            shown[key] = _SCHEMA[section][key](raw)
    defaults = {f.name: f.default for f in fields(spec)
                if f.name in _SCHEMA[section] and f.default is not None}
    assert defaults and {key: shown.get(key) for key in defaults} == defaults


# ExperimentConfig.values, with the [ais] and [estimator] defaults filled in
# and [preprocess] left as written, and the config hash, which covers them
DEFAULT_ESTIMATOR_VALUES = {
    "ais": {"n_betas": 1000, "chains_top": 1000, "chains_interface": 100000,
            "chains_first": 100},
    "estimator": {"n_is": 100, "exact": "auto", "marginals": "auto",
                  "enum_budget": DEFAULT_ENUM_BUDGET},
}


@pytest.mark.parametrize("body, values, digest", [
    ("[experiment]\nseed = 7\n[eval]\nmodel = m\ndataset = d\n",
     {"experiment": {"seed": 7, "threads": None, "out_dir": "out", "label": "model"},
      "eval": {"model": "m", "dataset": "d"}, **DEFAULT_ESTIMATOR_VALUES},
     "65885ef5b46fcbd3"),
    ("[preprocess]\nsource = images\nimages = bank.dbni\n",
     {"experiment": {"seed": 0, "threads": None, "out_dir": "out", "label": "model"},
      "preprocess": {"source": "images", "images": "bank.dbni"}, **DEFAULT_ESTIMATOR_VALUES},
     "5a7dcfad98229d1a"),
], ids=["eval-defaults", "preprocess-unfilled"])
def test_config_values_and_hash_are_pinned(workspace, body, values, digest):
    cfg = ExperimentConfig.load(write_config(workspace / "pinned.ini", body))
    assert cfg.values == values
    assert cfg.config_hash() == digest


def test_demo_config_hash_is_pinned():
    cfg = ExperimentConfig.load(str(Path(__file__).parents[1] / "configs" / "demo.ini"))
    assert cfg.values["ais"] == {**DEFAULT_ESTIMATOR_VALUES["ais"], "chains_interface": 20000}
    assert cfg.values["estimator"] == {**DEFAULT_ESTIMATOR_VALUES["estimator"],
                                       "n_is": 1000, "marginals": "ais"}
    assert cfg.config_hash() == "4940084ddfde844f"


def test_train_writes_loadable_model(workspace):
    import time

    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    started = time.perf_counter()
    assert cli.main(["train", "--config", train_config(workspace)]) == 0
    assert time.perf_counter() - started < 60.0
    stack = load_dbn(workspace / "run" / "model")
    assert stack.n_layers == 2
    assert (workspace / "run" / "train_layer_00.csv").exists()


def test_train_zero_epochs_persists_initialized_model(workspace):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    cfg = train_config(workspace, out="run0", epochs=0)
    assert cli.main(["train", "--config", cfg]) == 0
    stack = load_dbn(workspace / "run0" / "model")
    # the gaussian first layer keeps its fresh-initialization biases
    assert np.all(stack.layers[0].visible_bias == 0.0)
    assert np.all(stack.layers[0].hidden_bias == -1.0)
    # the second layer carries the marginal-matching initialization
    assert np.all(stack.layers[1].weights == 0.0)


def test_train_deterministic(workspace):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    cli.main(["train", "--config", train_config(workspace, out="runa")])
    cli.main(["train", "--config", train_config(workspace, out="runb")])
    for name in ("manifest.json", "layer_00.dbk", "layer_01.dbk"):
        a = (workspace / "runa" / "model" / name).read_bytes()
        b = (workspace / "runb" / "model" / name).read_bytes()
        assert a == b


def test_manifest_records_every_train_setting(workspace):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    text = Path(train_config(workspace, epochs=1)).read_text()
    path = workspace / "mean_field.ini"
    path.write_text(text.replace("[layer.1.train]\n", "[layer.1.train]\nmean_field_steps = 7\n"))
    assert cli.main(["train", "--config", str(path)]) == 0
    manifest = json.loads((workspace / "run" / "model" / "manifest.json").read_text())
    entries = manifest["provenance"]["train_configs"]
    settings = {f.name for f in fields(TrainConfig)} - {"seed"}
    assert [set(entry) for entry in entries] == [settings, settings]
    assert [entry["mean_field_steps"] for entry in entries] == [TrainConfig().mean_field_steps, 7]


def test_eval_reports_true_and_estimated(workspace):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    cli.main(["train", "--config", train_config(workspace)])
    assert cli.main(["eval", "--config", eval_config(workspace)]) == 0
    report = json.loads((workspace / "evalout" / "report.json").read_text())
    assert "bits_per_component" in report
    assert "brute_force_bits" in report
    assert abs(report["bits_per_component"] - report["brute_force_bits"]) < 0.1
    assert len(report["per_sample_log2"]) == 60
    assert report["tool_version"] and report["config_hash"] and report["seed"] == 11
    meta = json.loads((workspace / "evalout" / "report.meta.json").read_text())
    # a baseline's sidecar has the same keys, with its one stage
    cli.main(["train", "--config", baseline_train_config(workspace, "gaussian", "bl")])
    assert cli.main(["eval", "--config", eval_config(workspace, "evalbl", model="bl/baseline.dbk")]) == 0
    baseline_meta = json.loads((workspace / "evalbl" / "report.meta.json").read_text())
    assert set(baseline_meta) == set(meta) == {"wall_time_seconds", "stages", "workers"}
    assert list(baseline_meta["stages"]) == ["log_density"]
    assert baseline_meta["workers"] == 1


def test_eval_deterministic(workspace):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    cli.main(["train", "--config", train_config(workspace)])
    cli.main(["eval", "--config", eval_config(workspace, out="e1")])
    cli.main(["eval", "--config", eval_config(workspace, out="e2")])
    a = (workspace / "e1" / "report.json").read_bytes()
    b = (workspace / "e2" / "report.json").read_bytes()
    assert a == b


def test_eval_unknown_model_is_config_error(workspace):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    cfg = eval_config(workspace, model="nowhere/model")
    assert cli.main(["eval", "--config", cfg]) == cli.EXIT_CONFIG


def _truncate(path):
    # ends mid-array, so the payload is not a whole number of float64s
    path.write_bytes(path.read_bytes()[:-3])


@pytest.mark.parametrize(
    "damage",
    [
        lambda ws: _truncate(ws / "data" / "test_00.dbds"),
        lambda ws: (ws / "data" / "test_00.dbds").write_bytes(b"DBNK\x10\x00"),
        lambda ws: _truncate(ws / "run" / "model" / "layer_01.dbk"),
        lambda ws: (ws / "run" / "model" / "manifest.json").write_text('{"layers": 3}'),
    ],
    ids=["truncated-dataset", "six-byte-dataset", "truncated-layer", "layers-not-a-list"],
)
def test_eval_unreadable_input_is_data_error(workspace, capsys, damage):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    cli.main(["train", "--config", train_config(workspace)])
    damage(workspace)
    assert cli.main(["eval", "--config", eval_config(workspace)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")


def _claim_shape(path, shape):
    # rewrite the shape of a container's first array in its JSON header
    blob = path.read_bytes()
    end = 8 + int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8:end])
    header["arrays"][0]["shape"] = shape
    text = canonical_json(header).encode()
    path.write_bytes(blob[:4] + len(text).to_bytes(4, "little") + text + blob[end:])


@pytest.mark.parametrize(
    "damage",
    [
        lambda bank: bank.write_bytes(bank.read_bytes()[:-100]),
        lambda bank: _claim_shape(bank, [100000, 100000, 100000]),
        lambda bank: bank.write_bytes(bank.read_bytes()[:10]),
    ],
    ids=["truncated-bank", "bank-claims-huge-shape", "ten-byte-bank"],
)
def test_damaged_image_bank_is_data_error(workspace, capsys, damage):
    cfg = _images_config(workspace)
    damage(workspace / "bank.dbni")
    assert cli.main(["preprocess", "--config", cfg]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")


_NAN_EYE = np.where(np.eye(4) == 1, np.nan, 0.0)


@pytest.mark.parametrize(
    "meta, arrays",
    [
        ({"variant": "gaussian"}, {"mean": [np.nan, 0, 0, 0], "covariance": np.eye(4)}),
        ({"variant": "gaussian"}, {"mean": np.zeros(4), "covariance": _NAN_EYE}),
        ({"variant": "mog"}, {"covariances": [np.eye(4), _NAN_EYE], "weights": [0.5, 0.5]}),
        ({"variant": "moig", "sigma": "abc"}, {"means": np.zeros((2, 4)), "weights": [0.5, 0.5]}),
        ({"variant": "moig", "sigma": [1]}, {"means": np.zeros((2, 4)), "weights": [0.5, 0.5]}),
        ({"variant": "moig", "sigma": 0.5}, {"means": np.full((2, 4), np.nan),
                                             "weights": [0.5, 0.5]}),
    ],
    ids=["gaussian-nan-mean", "gaussian-nan-covariance", "mog-nan-covariance",
         "moig-sigma-text", "moig-sigma-list", "moig-nan-means"],
)
def test_invalid_baseline_file_is_data_error(workspace, capsys, meta, arrays):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    write_container(workspace / "b.dbk", "baseline_model", meta, arrays)
    capsys.readouterr()
    assert cli.main(["eval", "--config", eval_config(workspace, model="b.dbk")]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(
    "meta, arrays",
    [({}, {"samples": np.zeros((5, 4))}), ({"provenance": []}, {"other": np.zeros(4)})],
    ids=["no-provenance", "no-samples"],
)
def test_incomplete_dataset_is_data_error(workspace, capsys, command, meta, arrays):
    # both commands read their dataset before anything else
    (workspace / "data").mkdir()
    for name in ("train_00.dbds", "test_00.dbds"):
        write_container(workspace / "data" / name, "dataset", meta, arrays)
    make = train_config if command == "train" else eval_config
    assert cli.main([command, "--config", make(workspace)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")


def test_saved_sigma_whose_square_overflows_is_data_error(workspace, capsys):
    # finite and positive, but sigma**2 overflows a float
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    model = workspace / "run" / "model"
    model.mkdir(parents=True)
    meta = {"variant": "grbm", "n_visible": 4, "n_hidden": 2, "sigma": 1e200}
    arrays = {"weights": np.zeros((4, 2)), "visible_bias": np.zeros(4),
              "hidden_bias": np.zeros(2)}
    write_container(model / "layer_00.dbk", "layer_model", meta, arrays)
    manifest = {"format_version": 1, "kind": "dbn", "layers": ["layer_00.dbk"],
                "provenance": {}}
    (model / "manifest.json").write_text(canonical_json(manifest) + "\n")
    assert cli.main(["eval", "--config", eval_config(workspace)]) == cli.EXIT_DATA
    assert "sigma**2" in capsys.readouterr().err


def _moig_config(ws):
    extra = "components = 2\nsigma_candidates = 0.3, 0.5\nsigma_folds = 2"
    return baseline_train_config(ws, "moig", "run", extra)


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("train", "hidden = 4", "hidden = 0"),
        ("train", "sigma = 0.6", "sigma = -1"),
        ("train", "sigma = 0.6", "sigma_candidates = 0.5, nan"),
        ("preprocess", "n_test = 60", "n_test = 0"),
        ("train", "sigma = 0.6", "sigma_candidates = 0.5, 0.7\nsigma_folds = 0"),
        ("train", "sigma = 0.6", "sigma_candidates = 0.5, 0.7\nsigma_folds = 1"),
        ("baseline", "sigma_folds = 2", "sigma_folds = 1"),
        ("baseline", "components = 2", "components = 0"),
        ("baseline", "components = 2", "components = -1"),
        ("train", "count = 2", "count = 0"),
        ("preprocess", "dim = 4", "dim = 0"),
        ("preprocess", "components = 2", "components = 0"),
        ("preprocess", "kind = isotropic_mixture", "kind = rbm\nn_hidden = 0"),
        ("preprocess", "sigma = 0.5", "sigma = -1"),
        ("preprocess", "sigma = 0.5", "sigma = nan"),
        ("eval", "n_is = 50", "n_is = 0"),
        ("eval", "n_betas = 60", "n_betas = 0"),
        ("eval", "chains_top = 50", "chains_top = 0"),
        ("eval", "chains_interface = 200", "chains_interface = -1"),
        ("eval", "chains_interface = 200", "chains_interface = 200\nchains_first = 0"),
        ("eval", "marginals = auto", "marginals = auto\nenum_budget = 0"),
        ("baseline", "sigma_candidates = 0.3, 0.5", "sigma = -1"),
        ("baseline", "sigma_candidates = 0.3, 0.5", "sigma_candidates = 0.3, -0.5"),
        ("train", "batch_size = 100", "batch_size = 100\nmomentum = 1.0"),
        ("train", "batch_size = 100", "batch_size = 100\ncd_steps = 0"),
        ("train", "batch_size = 100", "batch_size = 100\nlr_end = 1.0"),
        ("train", "batch_size = 100", "batch_size = 100\nbatch_size = 50"),
        ("preprocess", "kind = isotropic_mixture\ndim = 4", "kind = rbm\ndim = 30"),
    ],
    ids=[
        "hidden-0", "sigma-negative", "sigma-candidate-nan", "n_test-0", "sigma_folds-0",
        "sigma_folds-1", "baseline-sigma_folds-1", "components-0", "components-negative",
        "layers-count-0", "synthetic-dim-0", "synthetic-components-0", "synthetic-n_hidden-0",
        "synthetic-sigma-negative", "synthetic-sigma-nan", "n_is-0", "n_betas-0",
        "chains_top-0", "chains_interface-negative", "chains_first-0", "enum_budget-0",
        "baseline-sigma-negative", "baseline-sigma-candidate-negative", "train-momentum-1",
        "train-cd_steps-0", "train-lr_end-above-lr_start", "duplicate-key",
        "synthetic-rbm-beyond-budget",
    ],
)
def test_config_the_models_would_reject_is_config_error(workspace, capsys, command, old, new):
    make = {"train": train_config, "preprocess": preprocess_config, "baseline": _moig_config,
            "eval": eval_config}
    path = workspace / "bad.ini"
    text = Path(make[command](workspace)).read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    run = "train" if command == "baseline" else command
    assert cli.main([run, "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


def _images_config(ws):
    rng = np.random.default_rng(3)
    save_images([np.exp(rng.standard_normal((12, 12))) for _ in range(2)], ws / "bank.dbni")
    return write_config(
        ws / "images.ini",
        f"""
        [experiment]
        out_dir = {ws / 'patches'}

        [preprocess]
        source = images
        images = {ws / 'bank.dbni'}
        patch_size = 3
        pairs = 1
        n_train = 200
        n_test = 20
        """,
    )


@pytest.mark.parametrize(
    "command, old, new, section",
    [
        ("train", "[layer.1.train]", "[layer.1.train]\nmean_field_steps = 0", "layer.1.train"),
        ("train", "[layer.1.train]", "[layer.1.train]\nmean_field_damping = 1.0",
         "layer.1.train"),
        ("train", "sigma = 0.6", "sigma = 0.6\nweight_scale = nan", "layer.0"),
        ("train", "sigma = 0.6", "sigma = 0.6\nweight_scale = 1e308", "layer.0"),
        ("train", "batch_size = 100", "batch_size = 100\nweight_decay = nan", "layer.0.train"),
        ("train", "batch_size = 100", "batch_size = 100\nlr_start = inf\nlr_end = inf",
         "layer.0.train"),
        ("train", "sigma = 0.6", "", "layer.0"),
        ("baseline", "components = 2", "components = 2\nrestarts = 0", "baseline"),
        ("baseline", "components = 2", "components = 2\nem_iters = 0", "baseline"),
        ("baseline", "components = 2", "components = 2\nem_iters = -3", "baseline"),
        ("baseline", "components = 2", "components = 1000", "baseline"),
        ("baseline", "sigma_folds = 2", "sigma_folds = 1000", "baseline"),
        ("train", "sigma = 0.6", "sigma_candidates = 0.5, 0.7\nsigma_folds = 1000", "layer.0"),
        ("eval", "[eval]", "[eval]\nsweep_x = inf", "eval"),
        ("images", "patch_size = 3", "patch_size = 0", "preprocess"),
        ("images", "patch_size = 3", "patch_size = 1", "preprocess"),
        ("images", "patch_size = 3", "patch_size = -2", "preprocess"),
        ("preprocess", "spread = 1.0", "spread = nan", "synthetic"),
        ("preprocess", "seed = 5", "seed = -1", "experiment"),
        ("preprocess", "n_test = 60", "n_test = 0", "preprocess"),
        ("preprocess", "source = synthetic", "source = camera", "preprocess"),
        ("images", "\nimages = ", "\n# images = ", "preprocess"),
    ],
    ids=[
        "mean_field_steps-0", "mean_field_damping-1", "weight_scale-nan", "weight_scale-1e308",
        "weight_decay-nan", "lr-inf", "grbm-without-sigma", "restarts-0", "em_iters-0",
        "em_iters-negative", "components-above-rows", "baseline-sigma_folds-above-rows",
        "layer-sigma_folds-above-rows", "sweep_x-inf", "patch_size-0", "patch_size-1",
        "patch_size-negative", "synthetic-spread-nan", "seed-negative", "n_test-0",
        "unknown-source", "images-without-bank",
    ],
)
def test_value_its_library_object_rejects_names_the_section(workspace, capsys, command, old,
                                                            new, section):
    # the data-dependent rules (components and folds against rows) need data
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    if command == "eval":
        cli.main(["train", "--config", train_config(workspace)])
    make = {"train": train_config, "preprocess": preprocess_config, "baseline": _moig_config,
            "eval": eval_config, "images": _images_config}
    path = workspace / "bad.ini"
    text = Path(make[command](workspace)).read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    run = {"baseline": "train", "images": "preprocess"}.get(command, command)
    capsys.readouterr()
    assert cli.main([run, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"[{section}]" in err


@pytest.mark.parametrize("old, new, section", [
    ("chains_top = 50", "chains_top = 0", "ais"),
    ("n_betas = 60", "n_betas = many", "ais"),
    ("n_is = 50", "n_is = 0", "estimator"),
    ("exact = auto", "exact = of", "estimator"),
], ids=["chains_top-0", "n_betas-text", "n_is-0", "exact-typo"])
def test_bad_estimator_setting_names_its_own_section(workspace, capsys, old, new, section):
    # one EstimatorSpec checks both sections
    text = Path(eval_config(workspace)).read_text()
    assert old in text
    (workspace / "bad.ini").write_text(text.replace(old, new, 1))
    assert cli.main(["eval", "--config", str(workspace / "bad.ini")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    other = "estimator" if section == "ais" else "ais"
    assert err.startswith("config error: ") and f"[{section}]" in err and f"[{other}]" not in err


def test_negative_seed_option_is_config_error(workspace, capsys):
    cfg = preprocess_config(workspace)
    assert cli.main(["preprocess", "--config", cfg, "--seed", "-1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --seed")
    assert not (workspace / "data").exists()


def test_compare_identical_models(workspace, tmp_path):
    reports = []
    for i, label in enumerate(["a", "a", "b", "b"]):
        r = {
            "label": label,
            "dim": 4,
            "bits_per_component": 1.5 if label == "a" else 2.0,
            "seed": i,
        }
        p = tmp_path / f"r{i}.json"
        p.write_text(canonical_json(r))
        reports.append(str(p))
    cfg = write_config(
        workspace / "cmp.ini",
        f"""
        [experiment]
        out_dir = {workspace / 'cmp'}

        [compare]
        reports = {tmp_path / 'r*.json'}
        """,
    )
    assert cli.main(["compare", "--config", cfg]) == 0
    rows = (workspace / "cmp" / "comparison.csv").read_text().strip().splitlines()
    assert rows[0].startswith("label,")
    a_row = next(r for r in rows if r.startswith("a,"))
    b_row = next(r for r in rows if r.startswith("b,"))
    assert "1.5" in a_row and "2" in b_row
    # identical inputs per label give sem 0
    assert ",0," in a_row or a_row.endswith(",0,") or ",0" in a_row.split(",")[3]


def test_compare_sem_hand_check(workspace, tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.random(10) + 1.0
    for i, v in enumerate(vals):
        (tmp_path / f"t{i}.json").write_text(
            canonical_json({"label": "m", "dim": 4, "bits_per_component": float(v)})
        )
    (tmp_path / "other.json").write_text(
        canonical_json({"label": "x", "dim": 4, "bits_per_component": 1.0})
    )
    cfg = write_config(
        workspace / "cmp.ini",
        f"""
        [experiment]
        out_dir = {workspace / 'cmp'}

        [compare]
        reports = {tmp_path / 't*.json'},{tmp_path / 'other.json'}
        """,
    )
    assert cli.main(["compare", "--config", cfg]) == 0
    rows = (workspace / "cmp" / "comparison.csv").read_text().strip().splitlines()
    m_row = next(r for r in rows if r.startswith("m,")).split(",")
    assert float(m_row[2]) == pytest.approx(vals.mean(), rel=1e-6)
    assert float(m_row[3]) == pytest.approx(vals.std(ddof=1) / np.sqrt(10), rel=1e-6)


def test_compare_mixed_dimensions_rejected(workspace, tmp_path):
    (tmp_path / "a.json").write_text(
        canonical_json({"label": "a", "dim": 4, "bits_per_component": 1.0})
    )
    (tmp_path / "b.json").write_text(
        canonical_json({"label": "b", "dim": 5, "bits_per_component": 1.0})
    )
    cfg = write_config(
        workspace / "cmp.ini",
        f"""
        [experiment]
        out_dir = {workspace / 'cmp'}

        [compare]
        reports = {tmp_path / '*.json'}
        """,
    )
    assert cli.main(["compare", "--config", cfg]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"label": "a", "dim": 4, "bits_per', "cannot read report"),
        ('{"dim": 4, "bits_per_component": 1.0}', "lacks a valid 'label'"),
        ('{"label": "b", "dim": 4, "bits_per_component": "x"}',
         "lacks a valid 'bits_per_component'"),
    ],
    ids=["truncated", "missing_label", "text_bits"],
)
def test_compare_bad_report_is_data_error(workspace, tmp_path, capsys, text, needle):
    (tmp_path / "a.json").write_text(
        canonical_json({"label": "a", "dim": 4, "bits_per_component": 1.0})
    )
    bad = tmp_path / "b.json"
    bad.write_text(text)
    cfg = write_config(
        workspace / "cmp.ini",
        f"""
        [experiment]
        out_dir = {workspace / 'cmp'}

        [compare]
        reports = {tmp_path / '*.json'}
        """,
    )
    assert cli.main(["compare", "--config", cfg]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and needle in err and str(bad) in err


def test_bad_thread_env_is_config_error(workspace, monkeypatch, capsys):
    monkeypatch.setenv("DBNKIT_THREADS", "abc")
    cfg = preprocess_config(workspace)
    assert cli.main(["preprocess", "--config", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: DBNKIT_THREADS")
    assert not (workspace / "data").exists()


@pytest.mark.parametrize(
    "where, value, source",
    [("flag", "0", "--threads"), ("flag", "-1", "--threads"),
     ("config", "0", "'threads' in [experiment]"), ("env", "0", "DBNKIT_THREADS")],
    ids=["flag-0", "flag-minus-1", "config-0", "env-0"],
)
def test_thread_count_below_one_is_config_error(workspace, monkeypatch, capsys,
                                                where, value, source):
    cfg = preprocess_config(workspace)
    argv = ["preprocess", "--config", cfg]
    if where == "flag":
        argv += ["--threads", value]
    elif where == "config":
        text = (workspace / "prep.ini").read_text()
        (workspace / "prep.ini").write_text(
            text.replace("[experiment]", f"[experiment]\nthreads = {value}")
        )
    else:
        monkeypatch.setenv("DBNKIT_THREADS", value)
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and source in err and "positive integer" in err
    assert not (workspace / "data").exists()


def test_compare_emits_sweep_series(workspace, tmp_path):
    for i, x in enumerate([100, 1000, 10000]):
        (tmp_path / f"s{i}.json").write_text(
            canonical_json(
                {"label": "sweep", "dim": 4, "bits_per_component": 1.0 + i * 0.1,
                 "sweep_x": x}
            )
        )
    cfg = write_config(
        workspace / "cmp.ini",
        f"""
        [experiment]
        out_dir = {workspace / 'cmp'}

        [compare]
        reports = {tmp_path / 's*.json'},{tmp_path / 's0.json'}
        """,
    )
    assert cli.main(["compare", "--config", cfg]) == 0
    series = (workspace / "cmp" / "series_sweep.csv").read_text().strip().splitlines()
    assert series[0] == "x,bits_per_component"
    xs = [float(r.split(",")[0]) for r in series[1:]]
    assert xs == sorted(xs)


def test_oracle_filter(capsys):
    assert cli.main(["oracle", "--filter", "partition-sides"]) == 0
    out = capsys.readouterr().out
    assert "partition-sides" in out
    assert "1/1 checks passed" in out


def test_oracle_unknown_filter():
    assert cli.main(["oracle", "--filter", "no-such-check"]) == cli.EXIT_CONFIG


def test_eval_estimation_failure_exit_code(workspace, monkeypatch):
    from dbnkit import estimation
    from dbnkit.estimation import EstimationError

    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    cli.main(["train", "--config", train_config(workspace)])

    def broken(*args, **kwargs):
        raise EstimationError("no marginal provider for the hidden side of layer 1")

    monkeypatch.setattr(estimation, "run_ais", broken)
    monkeypatch.setattr(cli.estimation, "run_ais", broken)
    cfg = write_config(
        workspace / "eval5.ini",
        f"""
        [experiment]
        seed = 11
        out_dir = {workspace / 'e5'}

        [eval]
        model = {workspace / 'run' / 'model'}
        dataset = {workspace / 'data' / 'test_00.dbds'}

        [estimator]
        exact = off
        marginals = ais
        """,
    )
    assert cli.main(["eval", "--config", cfg]) == cli.EXIT_ESTIMATION


def test_eval_dead_ais_worker_exit_code(workspace, monkeypatch, capsys):
    from dbnkit import estimation, kernels

    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    cli.main(["train", "--config", train_config(workspace)])
    # four chunks of the (srbm) top layer's chains; the forked workers
    # inherit the patch
    monkeypatch.setattr(estimation, "AIS_CHUNK", 64)
    monkeypatch.setattr(kernels, "ais_srbm", lambda *args: os._exit(3))
    cfg = write_config(
        workspace / "eval5.ini",
        f"""
        [experiment]
        seed = 11
        out_dir = {workspace / 'e5'}

        [eval]
        model = {workspace / 'run' / 'model'}
        dataset = {workspace / 'data' / 'test_00.dbds'}

        [ais]
        n_betas = 20
        chains_top = 200

        [estimator]
        exact = off
        """,
    )
    assert cli.main(["eval", "--config", cfg, "--threads", "2"]) == cli.EXIT_ESTIMATION
    assert capsys.readouterr().err.startswith(
        "estimation failed: an AIS worker process died"
    )


def rbm_stack_eval_config(ws, monkeypatch):
    """Binary data, a trained 3-layer RBM stack and its eval config; 150 test
    points are 10 path blocks of 16."""
    from dbnkit import estimation

    prep = Path(preprocess_config(ws, n_train=300, n_test=150)).read_text()
    prep = prep.replace("kind = isotropic_mixture\ndim = 4", "kind = rbm\ndim = 6\nn_hidden = 3")
    (ws / "prep.ini").write_text(prep)
    assert cli.main(["preprocess", "--config", str(ws / "prep.ini")]) == 0
    layers = "".join(
        f"[layer.{i}]\nvariant = rbm\nhidden = {h}\n\n[layer.{i}.train]\nepochs = 2\n"
        "batch_size = 100\n\n" for i, h in enumerate((5, 4, 4))
    )
    (ws / "train.ini").write_text(
        f"[experiment]\nseed = 7\nout_dir = {ws / 'run'}\n\n"
        f"[data]\ntrain = {ws / 'data' / 'train_00.dbds'}\n\n[layers]\ncount = 3\n\n{layers}"
    )
    assert cli.main(["train", "--config", str(ws / "train.ini")]) == 0
    monkeypatch.setattr(estimation, "PATH_BLOCK", 16)
    return eval_config(ws, n_is=20)


def test_eval_rbm_stack_report_is_the_same_at_any_thread_count(workspace, monkeypatch):
    cfg = rbm_stack_eval_config(workspace, monkeypatch)
    for threads in ("1", "3"):
        out = str(workspace / f"t{threads}")
        assert cli.main(["eval", "--config", cfg, "--threads", threads, "--out", out]) == 0
    assert (workspace / "t1" / "report.json").read_bytes() == (
        workspace / "t3" / "report.json").read_bytes()
    # the sidecar counts the path workers
    for threads in (1, 3):
        meta = json.loads((workspace / f"t{threads}" / "report.meta.json").read_text())
        assert meta["workers"] == threads


def test_eval_dead_path_worker_exit_code(workspace, monkeypatch, capsys):
    from dbnkit import estimation

    cfg = rbm_stack_eval_config(workspace, monkeypatch)
    # the forked workers inherit the patch
    monkeypatch.setattr(estimation, "_visible_term", lambda *args: os._exit(3))
    capsys.readouterr()
    assert cli.main(["eval", "--config", cfg, "--threads", "2"]) == cli.EXIT_ESTIMATION
    assert capsys.readouterr().err.startswith(
        "estimation failed: a path worker process died"
    )


def test_train_divergence_exit_code(workspace):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    cfg = write_config(
        workspace / "diverge.ini",
        f"""
        [experiment]
        seed = 7
        out_dir = {workspace / 'divrun'}

        [data]
        train = {workspace / 'data' / 'train_00.dbds'}

        [layers]
        count = 1

        [layer.0]
        variant = grbm
        hidden = 4
        sigma = 0.6

        [layer.0.train]
        epochs = 3
        batch_size = 100
        lr_start = 10000000
        lr_end = 10000000
        momentum = 0
        weight_decay = 0
        """,
    )
    assert cli.main(["train", "--config", cfg]) == cli.EXIT_DIVERGED


def test_train_overflowing_step_exits_diverged(workspace, capsys):
    # a step that overflows is divergence, not the rebuilt layer's ModelError
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    path = workspace / "overflow.ini"
    text = Path(train_config(workspace)).read_text()
    path.write_text(text.replace(
        "batch_size = 100", "batch_size = 100\nlr_start = 1e300\nlr_end = 1e300", 1))
    assert cli.main(["train", "--config", str(path)]) == cli.EXIT_DIVERGED
    assert capsys.readouterr().err.startswith("training diverged: ")


def test_eval_single_layer_with_ais_partition(workspace):
    prep = write_config(
        workspace / "prep_rbm.ini",
        f"""
        [experiment]
        seed = 21
        out_dir = {workspace / 'bdata'}

        [preprocess]
        source = synthetic
        pairs = 1
        n_train = 600
        n_test = 50

        [synthetic]
        kind = rbm
        dim = 5
        n_hidden = 4
        weight_scale = 0.6
        """,
    )
    assert cli.main(["preprocess", "--config", prep]) == 0
    train = write_config(
        workspace / "train_rbm.ini",
        f"""
        [experiment]
        seed = 22
        out_dir = {workspace / 'brun'}

        [data]
        train = {workspace / 'bdata' / 'train_00.dbds'}

        [layers]
        count = 1

        [layer.0]
        variant = rbm
        hidden = 4

        [layer.0.train]
        epochs = 5
        batch_size = 100
        """,
    )
    assert cli.main(["train", "--config", train]) == 0
    for mode, expect_truth in (("auto", True), ("off", False)):
        ev = write_config(
            workspace / f"eval_rbm_{mode}.ini",
            f"""
            [experiment]
            seed = 23
            out_dir = {workspace / ('bev_' + mode)}

            [eval]
            model = {workspace / 'brun' / 'model'}
            dataset = {workspace / 'bdata' / 'test_00.dbds'}

            [ais]
            n_betas = 200
            chains_first = 100

            [estimator]
            n_is = 10
            exact = {mode}
            """,
        )
        assert cli.main(["eval", "--config", ev]) == 0
        report = json.loads(
            (workspace / f"bev_{mode}" / "report.json").read_text()
        )
        assert ("brute_force_bits" in report) == expect_truth
        if mode == "off":
            assert report["ais"]["exact_z"] is False
            assert report["se_log_z"] > 0
    auto = json.loads((workspace / "bev_auto" / "report.json").read_text())
    off = json.loads((workspace / "bev_off" / "report.json").read_text())
    # the AIS partition function agrees with enumeration well within tolerance
    assert abs(auto["log_z_top"] - off["log_z_top"]) < 0.2
    assert abs(auto["bits_per_component"] - auto["brute_force_bits"]) < 0.15


def test_eval_three_layer_ais_marginals(workspace):
    # the middle lateral layer's hidden marginals have no closed form and
    # are estimated from the retained AIS samples
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    train = write_config(
        workspace / "train3.ini",
        f"""
        [experiment]
        seed = 7
        out_dir = {workspace / 'run3'}

        [data]
        train = {workspace / 'data' / 'train_00.dbds'}

        [layers]
        count = 3

        [layer.0]
        variant = grbm
        hidden = 4
        sigma = 0.6

        [layer.0.train]
        epochs = 2
        batch_size = 100

        [layer.1]
        variant = srbm
        hidden = 4

        [layer.1.train]
        epochs = 2
        batch_size = 100

        [layer.2]
        variant = srbm
        hidden = 4

        [layer.2.train]
        epochs = 2
        batch_size = 100
        """,
    )
    assert cli.main(["train", "--config", train]) == 0
    ev = write_config(
        workspace / "eval3.ini",
        f"""
        [experiment]
        seed = 8
        out_dir = {workspace / 'ev3'}

        [eval]
        model = {workspace / 'run3' / 'model'}
        dataset = {workspace / 'data' / 'test_00.dbds'}

        [ais]
        n_betas = 50
        chains_top = 50
        chains_interface = 400

        [estimator]
        n_is = 20
        exact = auto
        marginals = ais
        """,
    )
    assert cli.main(["eval", "--config", ev]) == 0
    report = json.loads((workspace / "ev3" / "report.json").read_text())
    # the sidecar says where the time went; 400 chains are one chunk
    meta = json.loads((workspace / "ev3" / "report.meta.json").read_text())
    assert set(meta["stages"]) == {"log_z_top", "ais_interface[1]", "paths", "brute_force"}
    assert sum(meta["stages"].values()) <= meta["wall_time_seconds"]
    assert meta["workers"] == 1
    assert report["ais"]["marginals"] == "ais"
    assert report["ais"]["chains_interface"] == 400
    assert report["ais"]["marginal_se_mean"] > 0
    # enumerable stack: the brute-force column is still present under auto
    assert "brute_force_bits" in report
    assert abs(report["bits_per_component"] - report["brute_force_bits"]) < 0.3


def baseline_train_config(ws, kind, out, extra=""):
    return write_config(
        ws / f"train_{kind}.ini",
        f"""
        [experiment]
        seed = 31
        out_dir = {ws / out}
        label = {kind}

        [data]
        train = {ws / 'data' / 'train_00.dbds'}

        [baseline]
        kind = {kind}
        {extra}
        """,
    )


def test_baseline_fit_eval_and_compare(workspace):
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    configs = [
        ("gaussian", ""),
        ("moig", "components = 2\nsigma_candidates = 0.3,0.5,0.8\nsigma_folds = 2\nem_iters = 30\nrestarts = 2"),
        ("mog", "components = 2\nem_iters = 30\nrestarts = 2"),
    ]
    report_paths = []
    for kind, extra in configs:
        out = f"bl_{kind}"
        assert cli.main(
            ["train", "--config", baseline_train_config(workspace, kind, out, extra)]
        ) == 0
        assert (workspace / out / "baseline.dbk").exists()
        ev = write_config(
            workspace / f"eval_{kind}.ini",
            f"""
            [experiment]
            seed = 32
            out_dir = {workspace / ('ev_' + kind)}
            label = {kind}

            [eval]
            model = {workspace / out / 'baseline.dbk'}
            dataset = {workspace / 'data' / 'test_00.dbds'}
            """,
        )
        assert cli.main(["eval", "--config", ev]) == 0
        report = json.loads((workspace / f"ev_{kind}" / "report.json").read_text())
        assert report["exact_density"] is True
        assert 0.0 < report["bits_per_component"] < 20.0
        report_paths.append(str(workspace / f"ev_{kind}" / "report.json"))
    # the moig cross-validation table was emitted, with a column per fold
    rows = (workspace / "bl_moig" / "cv_sigma_baseline.csv").read_text().splitlines()
    assert rows[0] == "sigma,mean_loss_bits,fold0,fold1"
    assert [len(row.split(",")) for row in rows[1:]] == [4, 4, 4]

    cmp_cfg = write_config(
        workspace / "cmp_bl.ini",
        f"""
        [experiment]
        out_dir = {workspace / 'cmp_bl'}

        [compare]
        reports = {','.join(report_paths)}
        """,
    )
    assert cli.main(["compare", "--config", cmp_cfg]) == 0
    rows = (workspace / "cmp_bl" / "comparison.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + three baselines


@pytest.mark.parametrize("kind, exact", [("gaussian", "auto"), ("grbm", "auto"), ("grbm", "off")])
def test_eval_non_finite_is_estimation_error(workspace, capsys, kind, exact):
    # one finite but huge test value overflows the log-likelihood (and, with
    # exact = off, the AIS base scale); eval must exit 5 and write no report
    cli.main(["preprocess", "--config", preprocess_config(workspace)])
    if kind == "gaussian":
        train = baseline_train_config(workspace, kind, "run")
        model = workspace / "run" / "baseline.dbk"
    else:
        train = write_config(
            workspace / "train1.ini",
            f"""
            [experiment]
            out_dir = {workspace / 'run'}

            [data]
            train = {workspace / 'data' / 'train_00.dbds'}

            [layers]
            count = 1

            [layer.0]
            variant = grbm
            hidden = 4
            sigma = 0.6

            [layer.0.train]
            epochs = 1
            """,
        )
        model = workspace / "run" / "model"
    assert cli.main(["train", "--config", train]) == 0
    samples = load_dataset(workspace / "data" / "test_00.dbds").samples.copy()
    samples[0, 0] = 1e200
    save_dataset(DataSet(samples), workspace / "data" / "huge.dbds")
    ev = write_config(
        workspace / "eval_huge.ini",
        f"""
        [experiment]
        out_dir = {workspace / 'ev'}

        [eval]
        model = {model}
        dataset = {workspace / 'data' / 'huge.dbds'}

        [ais]
        n_betas = 10
        chains_first = 10

        [estimator]
        n_is = 5
        exact = {exact}
        """,
    )
    assert cli.main(["eval", "--config", ev]) == cli.EXIT_ESTIMATION
    assert "not finite" in capsys.readouterr().err
    assert not (workspace / "ev" / "report.json").exists()


@pytest.mark.parametrize("command, model, exact", [
    ("eval", "stack", "auto"), ("eval", "stack", "off"), ("eval", "gaussian", "auto"),
    ("train", "rbm", None),
])
def test_a_dataset_without_rows_is_a_data_error(workspace, capsys, command, model, exact):
    empty = workspace / "empty.dbds"
    write_container(empty, "dataset", {"provenance": []}, {"samples": np.zeros((0, 3))})
    if command == "train":
        cfg = write_config(workspace / "train.ini", f"""
            [experiment]
            out_dir = {workspace / 'run'}

            [data]
            train = {empty}

            [layers]
            count = 1

            [layer.0]
            variant = rbm
            hidden = 2
            """)
    else:
        if model == "stack":
            rng = RngStream(120).generator()
            save_dbn(DbnModel([random_rbm(rng, 3, 2), random_rbm(rng, 2, 2)]), workspace / "model")
        else:
            save_baseline(GaussianModel(np.zeros(3), np.eye(3)), workspace / "model")
        cfg = write_config(workspace / "eval.ini", f"""
            [experiment]
            out_dir = {workspace / 'ev'}

            [eval]
            model = {workspace / 'model'}
            dataset = {empty}

            [estimator]
            n_is = 5
            exact = {exact}
            """)
    capsys.readouterr()
    assert cli.main([command, "--config", cfg]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {empty}: dataset has no rows\n"
    assert not (workspace / "ev" / "report.json").exists()
    assert not (workspace / "run" / "model").exists()


def test_layers_and_baseline_conflict(workspace):
    cfg = write_config(
        workspace / "conflict.ini",
        """
        [layers]
        count = 1

        [layer.0]
        variant = rbm
        hidden = 2

        [baseline]
        kind = gaussian
        """,
    )
    assert cli.main(["train", "--config", cfg]) == cli.EXIT_CONFIG
