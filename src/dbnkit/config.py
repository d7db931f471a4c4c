"""Experiment configuration: sectioned key/value files, strictly validated.

Unknown sections or keys are rejected before any work starts, so a typo
cannot silently fall back to a default.  The keys of a section that
configures a library object are the parameters of the object that checks
them (``pipeline.PreprocessSpec``, ``synthetic_spec``, ``training.LayerSpec``,
``TrainConfig``, ``baselines.BaselineSpec`` and, for ``[ais]`` and
``[estimator]``, ``estimation.EstimatorSpec``), so a parameter added there is
a config key at once.  The resolved configuration (after command-line
overrides) is hashed into every report.
"""

import configparser
import hashlib
import inspect
import json
import math
import re
from dataclasses import replace

from .baselines import BaselineSpec
from .estimation import EstimatorSpec
from .pipeline import PreprocessSpec, synthetic_spec
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


def _parameters(make, **rename):
    """``make``'s parameters as config keys, renamed by ``rename`` and without
    ``seed`` ([experiment] holds it).  Each is parsed by its annotation, or by
    its default's type if it has none; a tuple is parsed by ``_floats``."""
    keys = {}
    for p in inspect.signature(make).parameters.values():
        if p.name != "seed":
            kind = type(p.default) if p.annotation is p.empty else p.annotation
            keys[rename.get(p.name, p.name)] = _floats if kind is tuple else kind
    return keys


# the EstimatorSpec fields that [ais] holds; [estimator] holds the others
_AIS_KEYS = ("n_betas", "chains_top", "chains_interface", "chains_first")
_ESTIMATOR_KEYS = _parameters(EstimatorSpec)

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
    "preprocess": _parameters(PreprocessSpec),
    "synthetic": _parameters(synthetic_spec),
    "layers": {
        "count": positive_int,
    },
    "baseline": _parameters(BaselineSpec),
    "ais": {k: v for k, v in _ESTIMATOR_KEYS.items() if k in _AIS_KEYS},
    "estimator": {k: v for k, v in _ESTIMATOR_KEYS.items() if k not in _AIS_KEYS},
    "eval": {
        "model": str,
        "dataset": str,
        "sweep_x": finite_float,
    },
    "compare": {
        "reports": _strs,
    },
}

_LAYER_KEYS = _parameters(LayerSpec, n_hidden="hidden")
_TRAIN_KEYS = _parameters(TrainConfig)

_DEFAULTS = {
    "experiment": {"seed": 0, "threads": None, "out_dir": "out", "label": "model"},
}

_LAYER_RE = re.compile(r"^layer\.\d+(\.train)?$")


def _build(section, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its rejection of a value reported against ``section``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


class ExperimentConfig:
    """Parsed and validated configuration with command-line overrides applied.

    Loading builds the library objects that need no data (``layer_specs``,
    ``train_configs``, ``baseline``, ``synthetic``, ``preprocess`` and
    ``estimator``); each checks its own values, so a bad one is a
    ConfigError naming its section.  The estimator's fields, defaults
    included, are written back to ``values``, which ``config_hash`` covers.
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
        values["experiment"] = {**_DEFAULTS["experiment"], **values.get("experiment", {})}
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
        self.preprocess = (_build("preprocess", PreprocessSpec, **v["preprocess"])
                           if "preprocess" in v else None)
        if self.preprocess is not None:  # refuse sizes it cannot hold before any draw
            _build("preprocess", self.preprocess.check_rows, self.synthetic)
        # [ais] is checked alone first, so a bad value is reported against its section
        ais = _build("ais", EstimatorSpec, **v.get("ais", {}))
        self.estimator = _build("estimator", replace, ais, **v.get("estimator", {}))
        for sect in ("ais", "estimator"):
            v[sect] = {k: getattr(self.estimator, k) for k in _SCHEMA[sect]}

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

    def section(self, name):
        if name not in self.values:
            raise ConfigError(f"missing section [{name}]")
        return self.values[name]

    def config_hash(self):
        # output placement and thread counts must not change any result, so
        # they stay out of the hash
        values = {k: dict(v) for k, v in self.values.items()}
        values["experiment"].pop("out_dir", None)
        values["experiment"].pop("threads", None)
        canon = json.dumps(values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
