"""A sweep of hostile config values in place of finding holes one at a time.

Every key of the schema (``_SCHEMA``, ``_LAYER_KEYS`` and ``_TRAIN_KEYS``) is
set in turn, on a tiny config of the command that reads it, to each of
``VALUES``; the command runs in process through ``cli.main``.  Whatever the
value, no exception may escape and the exit code must be a documented one.
``--threads`` and ``DBNKIT_THREADS`` take the same values and ``abc``, and
each must exit 2.

The ``[ais]`` and ``[estimator]`` keys also take 2**63: ``EstimatorSpec``
refuses each count of chains, annealing steps or paths past ``MAX_CELLS``
before any chain runs, and ``enum_budget`` only caps what is enumerated.
Other keys leave it out: ``epochs = 2**63`` is legal but would never finish.
"""

import numpy as np
import pytest

from dbnkit import cli
from dbnkit.config import _LAYER_KEYS, _SCHEMA, _TRAIN_KEYS
from dbnkit.pipeline import save_images

VALUES = ["0", "-1", "nan", "inf", "1e308"]
# the sections that 2**63 is fuzzed on as well: all their counts are bounded
BOUNDED = ("ais", "estimator")
EXIT_CODES = {0, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_DIVERGED, cli.EXIT_ESTIMATION}

_LAYERS = {
    "layers": {"count": "2"},
    "layer.0": {"variant": "grbm", "hidden": "2", "sigma": "0.7"},
    "layer.0.train": {"epochs": "1", "batch_size": "20"},
    "layer.1": {"variant": "srbm", "hidden": "2"},
    "layer.1.train": {"epochs": "1", "batch_size": "20"},
}

# the fixture's inputs live in fixture/; every fuzzed run writes to out/
BASES = {
    "synthetic": {
        "preprocess": {"pairs": "1", "n_train": "40", "n_test": "10"},
        "synthetic": {"dim": "3", "components": "2"},
    },
    "synthetic-grbm": {
        "preprocess": {"pairs": "1", "n_train": "40", "n_test": "10"},
        "synthetic": {"kind": "grbm", "dim": "3", "n_hidden": "2"},
    },
    "images": {
        "preprocess": {"source": "images", "images": "fixture/bank.dbni", "patch_size": "2",
                       "pairs": "1", "n_train": "40", "n_test": "10"},
    },
    "train": {"data": {"train": "fixture/train_00.dbds"}, **_LAYERS},
    "baseline": {
        "data": {"train": "fixture/train_00.dbds"},
        "baseline": {"kind": "moig", "components": "2", "sigma": "0.5", "em_iters": "5",
                     "restarts": "1"},
    },
    "baseline-cv": {
        "data": {"train": "fixture/train_00.dbds"},
        "baseline": {"kind": "moig", "components": "2", "sigma_candidates": "0.5, 1.0",
                     "sigma_folds": "2", "em_iters": "5", "restarts": "1"},
    },
    "eval": {
        "ais": {"n_betas": "5", "chains_top": "10", "chains_interface": "10",
                "chains_first": "10"},
        "estimator": {"n_is": "5", "exact": "off", "marginals": "auto"},
        "eval": {"model": "fixture/model", "dataset": "fixture/test_00.dbds", "sweep_x": "1"},
    },
    "compare": {"compare": {"reports": "fixture/r*.json"}},
}
COMMAND = {"synthetic": "preprocess", "synthetic-grbm": "preprocess", "images": "preprocess",
           "train": "train", "baseline": "train", "baseline-cv": "train", "eval": "eval",
           "compare": "compare"}

# (section, keys, bases the keys are fuzzed on)
TABLE = [
    ("experiment", _SCHEMA["experiment"], ["synthetic"]),
    ("data", _SCHEMA["data"], ["train"]),
    ("preprocess", _SCHEMA["preprocess"], ["images"]),
    ("synthetic", _SCHEMA["synthetic"], ["synthetic", "synthetic-grbm"]),
    ("layers", _SCHEMA["layers"], ["train"]),
    ("baseline", _SCHEMA["baseline"], ["baseline", "baseline-cv"]),
    ("ais", _SCHEMA["ais"], ["eval"]),
    ("estimator", _SCHEMA["estimator"], ["eval"]),
    ("eval", _SCHEMA["eval"], ["eval"]),
    ("compare", _SCHEMA["compare"], ["compare"]),
    ("layer.0", _LAYER_KEYS, ["train"]),
    ("layer.1", _LAYER_KEYS, ["train"]),
    ("layer.0.train", _TRAIN_KEYS, ["train"]),
    ("layer.1.train", _TRAIN_KEYS, ["train"]),
]
CASES = [(section, key, base) for section, keys, bases in TABLE for key in keys
         for base in bases]


def _write(path, sections):
    common = {"experiment": {"out_dir": "out", "threads": "1"}}
    lines = []
    for name, values in {**common, **sections}.items():
        values = {**common.get(name, {}), **values}
        lines += [f"[{name}]"] + [f"{k} = {v}" for k, v in values.items()] + [""]
    path.write_text("\n".join(lines))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Tiny data, a trained two-layer model and two reports, made once."""
    root = tmp_path_factory.mktemp("fuzz")
    inputs = root / "fixture"
    inputs.mkdir()
    rng = np.random.default_rng(0)
    save_images([np.exp(rng.standard_normal((8, 8)))], inputs / "bank.dbni")
    into = {"experiment": {"out_dir": str(inputs)}}
    _write(root / "prep.ini", {**BASES["synthetic"], **into})
    _write(root / "train.ini", {**BASES["train"], **into})
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert cli.main(["preprocess", "--config", "prep.ini"]) == 0
        assert cli.main(["train", "--config", "train.ini"]) == 0
        for i in range(2):
            _write(root / "eval.ini", {**BASES["eval"], "experiment": {
                "out_dir": str(inputs / f"e{i}"), "seed": str(i)}})
            assert cli.main(["eval", "--config", "eval.ini"]) == 0
            (inputs / f"r{i}.json").write_bytes((inputs / f"e{i}" / "report.json").read_bytes())
    return inputs


@pytest.mark.parametrize("base", BASES)
def test_every_base_config_runs(fixture_dir, tmp_path, monkeypatch, base):
    # so a hostile value is the only thing wrong with each fuzzed config
    (tmp_path / "fixture").symlink_to(fixture_dir)
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "base.ini", BASES[base])
    assert cli.main([COMMAND[base], "--config", "base.ini"]) == 0


@pytest.mark.parametrize("section, key, base", CASES,
                         ids=[f"{b}:{s}.{k}" for s, k, b in CASES])
def test_hostile_value_ends_in_a_documented_exit(fixture_dir, tmp_path, monkeypatch, section,
                                                 key, base):
    (tmp_path / "fixture").symlink_to(fixture_dir)
    monkeypatch.chdir(tmp_path)
    for value in VALUES + [str(2 ** 63)] * (section in BOUNDED):
        sections = {name: dict(values) for name, values in BASES[base].items()}
        sections.setdefault(section, {})[key] = value
        _write(tmp_path / "fuzz.ini", sections)
        code = cli.main([COMMAND[base], "--config", "fuzz.ini"])
        assert code in EXIT_CODES, f"{section}.{key} = {value} exited {code}"


def _exit_code(argv):
    """cli.main's exit code, also when argparse rejects an argument and exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("value", VALUES + ["abc"])
def test_hostile_thread_count_is_config_error(fixture_dir, tmp_path, monkeypatch, value):
    # a huge valid count is left to the pool stand-in of test_estimation: here
    # it would start a real pool
    (tmp_path / "fixture").symlink_to(fixture_dir)
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "base.ini", BASES["eval"])
    assert _exit_code(["eval", "--config", "base.ini", "--threads", value]) == cli.EXIT_CONFIG
    monkeypatch.setenv("DBNKIT_THREADS", value)
    assert _exit_code(["eval", "--config", "base.ini"]) == cli.EXIT_CONFIG
