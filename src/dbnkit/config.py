"""Experiment configuration: sectioned key/value files, strictly validated.

Unknown sections or keys are rejected before any work starts, so a typo
cannot silently fall back to a default.  The resolved configuration (after
command-line overrides) is hashed into every report.
"""

import configparser
import hashlib
import json
import math
import re

from .estimation import EXACT_CHOICES, MARGINAL_CHOICES
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def positive_int(v):
    """``v`` as an integer of at least 1, such as a worker count."""
    try:
        n = int(v)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"must be a positive integer, not {v!r}")
    return n


def _floats(v):
    return [float(p) for p in v.split(",") if p.strip()]


def _strs(v):
    return [p.strip() for p in v.split(",") if p.strip()]


_SCHEMA = {
    "experiment": {
        "seed": int,
        "out_dir": str,
        "threads": positive_int,
        "label": str,
    },
    "data": {
        "train": str,
    },
    "preprocess": {
        "source": str,  # "images" or "synthetic"
        "images": str,
        "patch_size": int,
        "pairs": positive_int,
        "n_train": positive_int,
        "n_test": positive_int,
    },
    "synthetic": {
        "kind": str,
        "dim": positive_int,
        "components": positive_int,
        "sigma": float,
        "spread": float,
        "n_hidden": positive_int,
        "weight_scale": float,
    },
    "layers": {
        "count": positive_int,
    },
    "baseline": {
        "kind": str,  # gaussian | moig | mog
        "components": positive_int,
        "sigma": float,
        "sigma_candidates": _floats,
        "sigma_folds": int,
        "em_iters": int,
        "restarts": int,
    },
    "ais": {
        "n_betas": positive_int,
        "chains_top": positive_int,
        "chains_interface": positive_int,
        "chains_first": positive_int,
    },
    "estimator": {
        "n_is": positive_int,
        "exact": str,  # one of estimation.EXACT_CHOICES
        "marginals": str,  # one of estimation.MARGINAL_CHOICES
        "enum_budget": positive_int,
    },
    "eval": {
        "model": str,
        "dataset": str,
        "sweep_x": float,
    },
    "compare": {
        "reports": _strs,
    },
}

_LAYER_KEYS = {
    "variant": str,
    "hidden": positive_int,
    "sigma": float,
    "sigma_candidates": _floats,
    "sigma_folds": int,
    "weight_scale": float,
}

_TRAIN_KEYS = {
    "cd_steps": int,
    "epochs": int,
    "lr_start": float,
    "lr_end": float,
    "momentum": float,
    "weight_decay": float,
    "batch_size": int,
    "mean_field_steps": int,
    "mean_field_damping": float,
}

_DEFAULTS = {
    "experiment": {"seed": 0, "threads": None, "out_dir": "out", "label": "model"},
    "ais": {
        "n_betas": 1000,
        "chains_top": 1000,
        "chains_interface": 100000,
        "chains_first": 100,
    },
    "estimator": {
        "n_is": 100,
        "exact": "auto",
        "marginals": "auto",
        "enum_budget": 2 ** 25,
    },
}

_LAYER_RE = re.compile(r"^layer\.(\d+)$")
_LAYER_TRAIN_RE = re.compile(r"^layer\.(\d+)\.train$")


def _check_sigmas(section, name):
    """The sigma rules shared by [synthetic], [baseline] and [layer.N]."""
    sigmas = section.get("sigma_candidates", []) + (
        [section["sigma"]] if "sigma" in section else [])
    if not all(math.isfinite(v) and v > 0 for v in sigmas):
        raise ConfigError(f"[{name}] sigma values must be finite and positive")
    # cross-validating a sigma needs a held-out fold and a fold to fit on
    if section.get("sigma_folds", 2) < 2:
        raise ConfigError(f"[{name}] sigma_folds must be at least 2")


class ExperimentConfig:
    """Parsed and validated configuration with command-line overrides applied."""

    def __init__(self, values):
        self.values = values

    @classmethod
    def load(cls, path, overrides=None):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        values = {}
        for section in parser.sections():
            layer_m = _LAYER_RE.match(section)
            train_m = _LAYER_TRAIN_RE.match(section)
            if layer_m:
                keys = _LAYER_KEYS
            elif train_m:
                keys = _TRAIN_KEYS
            elif section in _SCHEMA:
                keys = _SCHEMA[section]
            else:
                raise ConfigError(f"unknown section [{section}]")
            parsed = {}
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                try:
                    parsed[key] = keys[key](raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {key!r} in [{section}]: {exc}"
                    ) from exc
            values[section] = parsed
        for section, defaults in _DEFAULTS.items():
            merged = dict(defaults)
            merged.update(values.get(section, {}))
            values[section] = merged
        cfg = cls(values)
        cfg._apply_overrides(overrides or {})
        cfg._validate()
        return cfg

    def _apply_overrides(self, overrides):
        if overrides.get("seed") is not None:
            self.values["experiment"]["seed"] = int(overrides["seed"])
        if overrides.get("out") is not None:
            self.values["experiment"]["out_dir"] = str(overrides["out"])
        if overrides.get("threads") is not None:
            self.values["experiment"]["threads"] = int(overrides["threads"])

    def _validate(self):
        _check_sigmas(self.values.get("synthetic", {}), "synthetic")
        baseline = self.values.get("baseline")
        if baseline is not None:
            if baseline.get("kind") not in ("gaussian", "moig", "mog"):
                raise ConfigError("baseline.kind must be gaussian, moig or mog")
            if "layers" in self.values:
                raise ConfigError("configure either [layers] or [baseline], not both")
            _check_sigmas(baseline, "baseline")
        n_layers = self.values.get("layers", {}).get("count")
        if n_layers is not None:
            for i in range(n_layers):
                sect = f"layer.{i}"
                if sect not in self.values:
                    raise ConfigError(f"missing section [{sect}]")
                layer = self.values[sect]
                if "variant" not in layer or "hidden" not in layer:
                    raise ConfigError(f"[{sect}] needs 'variant' and 'hidden'")
                if layer["variant"] not in ("rbm", "grbm", "srbm"):
                    raise ConfigError(f"unknown variant in [{sect}]")
                if layer["variant"] == "grbm" and i != 0:
                    raise ConfigError("gaussian layers are only valid at the bottom")
                _check_sigmas(layer, sect)
                try:
                    self.train_config(i)
                except ValueError as exc:
                    raise ConfigError(f"[{sect}.train] {exc}") from exc
        est = self.values["estimator"]
        for key, choices in (("exact", EXACT_CHOICES), ("marginals", MARGINAL_CHOICES)):
            if est[key] not in choices:
                raise ConfigError(f"estimator.{key} must be one of {', '.join(choices)}")

    # -- convenience ------------------------------------------------------

    @property
    def seed(self):
        return self.values["experiment"]["seed"]

    @property
    def out_dir(self):
        return self.values["experiment"]["out_dir"]

    @property
    def label(self):
        return self.values["experiment"]["label"]

    def threads(self, default):
        """AIS worker processes: the configured count, else ``default``."""
        t = self.values["experiment"]["threads"]
        return default if t is None else t

    def section(self, name, required=False):
        if name not in self.values:
            if required:
                raise ConfigError(f"missing section [{name}]")
            return {}
        return self.values[name]

    def n_layers(self):
        return self.section("layers", required=True)["count"]

    def layer(self, i):
        return self.section(f"layer.{i}", required=True)

    def train_config(self, i):
        overrides = self.section(f"layer.{i}.train")
        cfg = TrainConfig(seed=self.seed * 1000003 + i, **overrides)
        return cfg

    def config_hash(self):
        # output placement and thread counts must not change any result, so
        # they stay out of the hash
        values = {k: dict(v) for k, v in self.values.items()}
        values["experiment"].pop("out_dir", None)
        values["experiment"].pop("threads", None)
        canon = json.dumps(values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
