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

from .baselines import BaselineSpec
from .estimation import EstimationError, check_choices
from .models import DEFAULT_ENUM_BUDGET
from .pipeline import synthetic_spec
from .training import LayerSpec, TrainConfig, check_stack


class ConfigError(ValueError):
    pass


def _int_at_least(low, what):
    def parse(v):
        try:
            n = int(v)
        except ValueError:
            n = low - 1
        if n < low:
            raise ValueError(f"must be {what} integer, not {v!r}")
        return n

    return parse


positive_int = _int_at_least(1, "a positive")  # such as a worker count
non_negative_int = _int_at_least(0, "a non-negative")  # such as a seed


def finite_float(v):
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, not {v!r}")
    return x


def _floats(v):
    return [float(p) for p in v.split(",") if p.strip()]


def _strs(v):
    return [p.strip() for p in v.split(",") if p.strip()]


_SCHEMA = {
    "experiment": {
        "seed": non_negative_int,
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
        "dim": int,
        "components": int,
        "sigma": float,
        "spread": float,
        "n_hidden": int,
        "weight_scale": float,
    },
    "layers": {
        "count": positive_int,
    },
    "baseline": {
        "kind": str,  # gaussian | moig | mog
        "components": int,
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
        "sweep_x": finite_float,
    },
    "compare": {
        "reports": _strs,
    },
}

_LAYER_KEYS = {
    "variant": str,
    "hidden": int,
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
        "enum_budget": DEFAULT_ENUM_BUDGET,
    },
}

_LAYER_RE = re.compile(r"^layer\.\d+(\.train)?$")


def _build(section, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its rejection of a value reported against ``section``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, EstimationError) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


class ExperimentConfig:
    """Parsed and validated configuration with command-line overrides applied.

    Loading builds the library objects that need no data (``layer_specs``,
    ``train_configs``, ``baseline`` and ``synthetic``); each checks its own
    values, so a bad one is a ConfigError naming its section.
    """

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
            if layer_m:
                keys = _TRAIN_KEYS if layer_m.group(1) else _LAYER_KEYS
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
                    raise ConfigError(f"bad value for {key!r} in [{section}]: {exc}") from exc
            values[section] = parsed
        for section, defaults in _DEFAULTS.items():
            values[section] = {**defaults, **values.get(section, {})}
        cfg = cls(values)
        cfg._apply_overrides(overrides or {})
        cfg._validate()
        return cfg

    def _apply_overrides(self, overrides):
        if overrides.get("seed") is not None:
            try:
                self.values["experiment"]["seed"] = non_negative_int(overrides["seed"])
            except ValueError as exc:
                raise ConfigError(f"--seed {exc}") from None
        if overrides.get("out") is not None:
            self.values["experiment"]["out_dir"] = str(overrides["out"])
        if overrides.get("threads") is not None:
            self.values["experiment"]["threads"] = int(overrides["threads"])

    def _validate(self):
        v = self.values
        if "baseline" in v and "layers" in v:
            raise ConfigError("configure either [layers] or [baseline], not both")
        if "baseline" in v and "kind" not in v["baseline"]:
            raise ConfigError("[baseline] needs 'kind'")
        self.layer_specs, self.train_configs = [], []
        for i in range(v.get("layers", {}).get("count", 0)):
            sect = f"layer.{i}"
            if sect not in v:
                raise ConfigError(f"missing section [{sect}]")
            layer = dict(v[sect])
            if "variant" not in layer or "hidden" not in layer:
                raise ConfigError(f"[{sect}] needs 'variant' and 'hidden'")
            layer["n_hidden"] = layer.pop("hidden")
            self.layer_specs.append(_build(sect, LayerSpec, **layer))
            self.train_configs.append(_build(
                f"{sect}.train", TrainConfig, seed=self.seed * 1000003 + i,
                **v.get(f"{sect}.train", {}),
            ))
        _build("layers", check_stack, self.layer_specs)
        self.baseline = _build("baseline", BaselineSpec, **v["baseline"]) if "baseline" in v else None
        self.synthetic = (_build("synthetic", synthetic_spec, self.seed, **v.get("synthetic", {}))
                          if "synthetic" in v or "preprocess" in v else None)
        est = v["estimator"]
        _build("estimator", check_choices, est["exact"], est["marginals"])

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

    def section(self, name, required=False):
        if name not in self.values:
            if required:
                raise ConfigError(f"missing section [{name}]")
            return {}
        return self.values[name]

    def config_hash(self):
        # output placement and thread counts must not change any result, so
        # they stay out of the hash
        values = {k: dict(v) for k, v in self.values.items()}
        values["experiment"].pop("out_dir", None)
        values["experiment"].pop("threads", None)
        canon = json.dumps(values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
