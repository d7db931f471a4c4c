"""Command-line surface: preprocess, train, eval, compare, oracle.

Every command is deterministic given (config, seed): model files and
reports are byte-identical across reruns and thread counts.  Timing goes
to ``*.meta.json`` sidecars so the reports themselves stay comparable.
The commands only load, call the library and write: every number comes
from it (``eval``'s from ``estimation.report_fields``).

Exit codes: 2 config error, 3 data error, 4 training divergence,
5 estimation failure.
"""

import argparse
import csv
import glob
import json
import os
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, baselines, dbn, estimation, oracle, pipeline, training
from .baselines import BaselineError
from .config import ConfigError, ExperimentConfig, positive_int
from .estimation import EstimationError
from .models import EnumerationBudgetError
from .numerics import RngStream
from .pipeline import PipelineError
from .storage import StorageError, canonical_json
from .training import TrainingDiverged

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_ESTIMATION = 5


def _write_json(path, obj):
    Path(path).write_text(canonical_json(obj) + "\n")


def _write_meta(path, wall_time, **extra):
    _write_json(path, {"wall_time_seconds": wall_time, **extra})


def _write_cv_table(path, table):
    """A sigma cross-validation table as CSV, with a column per fold."""
    folds = len(table[0]["fold_losses"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "mean_loss_bits"] + [f"fold{j}" for j in range(folds)])
        for row in table:
            writer.writerow([row["sigma"], f"{row['mean_loss']:.7g}"]
                            + [f"{v:.7g}" for v in row["fold_losses"]])


def cmd_preprocess(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.section("preprocess")  # a ConfigError if it is missing
    spec = cfg.preprocess
    started = time.perf_counter()
    if spec.source == "images":
        images = pipeline.load_images(spec.images)
        try:
            src = pipeline.PatchSource(tuple(images), spec.patch_size)
        except PipelineError as exc:
            raise ConfigError(f"[preprocess] {exc}") from exc
    stream, sizes = RngStream(cfg.seed), (spec.n_train, spec.n_test)
    for i in range(spec.pairs):
        if spec.source == "synthetic":
            train, test = (pipeline.synthesize(cfg.synthetic, n, stream.substream(21, i, j))
                           for j, n in enumerate(sizes))
        else:
            raw_train, raw_test = (pipeline.sample_patches(src, n, stream.substream(22, i, j))
                                   for j, n in enumerate(sizes))
            train = pipeline.preprocess(raw_train)
            test = pipeline.replay(train.provenance, raw_test.samples)
        pipeline.save_dataset(train, out / f"train_{i:02d}.dbds")
        pipeline.save_dataset(test, out / f"test_{i:02d}.dbds")
    _write_meta(out / "preprocess.meta.json", time.perf_counter() - started)
    print(f"wrote {spec.pairs} train/test pair(s) to {out}")
    return 0


def _layer_specs(cfg, data):
    """The configured layers, each cross-validated sigma chosen and its table written."""
    specs = []
    for i, (spec, train_cfg) in enumerate(zip(cfg.layer_specs, cfg.train_configs)):
        try:
            spec, table = training.choose_sigma(spec, data, train_cfg, seed=cfg.seed)
        except BaselineError as exc:
            raise ConfigError(f"[layer.{i}] {exc}") from exc
        if table:
            _write_cv_table(Path(cfg.out_dir) / f"cv_sigma_layer{i}.csv", table)
        specs.append(spec)
    return specs


def _train_baseline(cfg, dataset, out, started):
    try:
        model, table = baselines.fit_baseline(cfg.baseline, dataset.samples, seed=cfg.seed)
    except BaselineError as exc:
        raise ConfigError(f"[baseline] {exc}") from exc
    if table:
        _write_cv_table(out / "cv_sigma_baseline.csv", table)
    baselines.save_baseline(model, out / "baseline.dbk")
    _write_meta(out / "train.meta.json", time.perf_counter() - started)
    print(f"fitted {cfg.baseline.kind} baseline -> {out / 'baseline.dbk'}")
    return 0


def cmd_train(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_section = cfg.section("data")
    if "train" not in data_section:
        raise ConfigError("missing data.train path")
    dataset = pipeline.load_dataset(data_section["train"])
    started = time.perf_counter()
    if cfg.baseline is not None:
        return _train_baseline(cfg, dataset, out, started)
    if not cfg.layer_specs:
        raise ConfigError("missing section [layers]")
    specs = _layer_specs(cfg, dataset.samples)
    configs = cfg.train_configs
    stack, _ = training.train_dbn_greedy(
        specs, dataset.samples, configs, log_dir=str(out)
    )
    provenance = {
        "config_hash": cfg.config_hash(),
        "label": cfg.label,
        "seed": cfg.seed,
        "layer_seeds": [c.seed for c in configs],
        "train_configs": [{k: v for k, v in asdict(c).items() if k != "seed"} for c in configs],
        "tool_version": __version__,
    }
    dbn.save_dbn(stack, out / "model", provenance=provenance)
    _write_meta(out / "train.meta.json", time.perf_counter() - started)
    print(f"trained {len(specs)}-layer stack -> {out / 'model'}")
    return 0


# a huge test value overflows the log-likelihood; the report's non-finite
# check names the field (exit 5), so numpy's warnings would only add noise
@np.errstate(over="ignore", invalid="ignore")
def cmd_eval(cfg, threads):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    section = cfg.section("eval")
    for key in ("model", "dataset"):
        if key not in section:
            raise ConfigError(f"missing eval.{key}")
    dataset = pipeline.load_dataset(section["dataset"])
    model_path = Path(section["model"])
    if not model_path.exists():
        raise ConfigError(f"no model at {section['model']!r}")
    started = time.perf_counter()
    if model_path.is_file():
        # a single container file holds a baseline density
        model = baselines.load_baseline(model_path)
        dim, evaluate = model.dim, estimation.evaluate_density
    else:
        try:
            model = dbn.load_dbn(model_path)
        except (dbn.DbnError, StorageError, OSError, KeyError, ValueError) as exc:
            raise PipelineError(f"cannot load model {section['model']!r}: {exc}") from exc
        dim, evaluate = model.n_visible, partial(
            estimation.evaluate_stack, spec=cfg.estimator, seed=cfg.seed, threads=threads)
    if dataset.dim != dim:
        raise ConfigError("dataset dimension does not match the model")
    result = evaluate(model, dataset.samples)
    report = {"tool_version": __version__, "config_hash": cfg.config_hash(), "seed": cfg.seed,
              "label": cfg.label, "timing": "report.meta.json",
              **estimation.report_fields(result, dataset.dim)}
    if "sweep_x" in section:
        report["sweep_x"] = section["sweep_x"]
    _write_json(out / "report.json", report)
    _write_meta(out / "report.meta.json", time.perf_counter() - started,
                stages=result.stages, workers=result.workers)
    truth = f" (true {report['brute_force_bits']})" if "brute_force_bits" in report else ""
    print(f"{'exact' if result.log_z_top is None else 'estimated'} log-loss: "
          f"{report['bits_per_component']} bits/component{truth}")
    return 0


def _load_report(path):
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        raise PipelineError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(report, dict):
        raise PipelineError(f"report {path} is not a JSON object")
    for key, kind in (("label", str), ("dim", int), ("bits_per_component", (int, float))):
        if not isinstance(report.get(key), kind):
            raise PipelineError(f"report {path} lacks a valid {key!r}")
    return report


def cmd_compare(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    section = cfg.section("compare")
    patterns = section.get("reports", [])
    paths = sorted(p for pattern in patterns for p in glob.glob(pattern))
    if len(paths) < 2:
        raise ConfigError("comparison needs at least two evaluation reports")
    reports = [_load_report(path) for path in paths]
    dims = {r["dim"] for r in reports}
    if len(dims) > 1:
        raise ConfigError(f"mixed dimensionalities in reports: {sorted(dims)}")

    by_label = {}
    for r in reports:
        by_label.setdefault(r["label"], []).append(r)

    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "n_trials", "mean_bits", "sem_bits", "mean_true_bits"])
        for label in sorted(by_label):
            mean, sem, true_mean = estimation.trial_summary(by_label[label])
            writer.writerow([label, len(by_label[label]), f"{mean:.7g}", f"{sem:.7g}",
                             "" if true_mean is None else f"{true_mean:.7g}"])

    for label in sorted(by_label):
        swept = [r for r in by_label[label] if "sweep_x" in r]
        if len(swept) >= 2:
            swept.sort(key=lambda r: r["sweep_x"])
            with open(out / f"series_{label}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "bits_per_component"])
                for r in swept:
                    writer.writerow([r["sweep_x"], r["bits_per_component"]])
    print(f"compared {len(reports)} report(s) across {len(by_label)} label(s)")
    return 0


def cmd_oracle(name_filter):
    results = oracle.run_suite(name_filter)
    if not results:
        print(f"no oracle check matches filter {name_filter!r}", file=sys.stderr)
        return EXIT_CONFIG
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        print(f"{status}  {r.name:<24} measured {r.measured:.3e}  tol {r.tolerance:.3e}{detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dbnkit",
        description="train energy-based layer stacks and estimate their likelihood",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("preprocess", "train", "eval", "compare", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "oracle")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--filter", default=None)
    return parser


def _thread_count(source, value):
    try:
        return positive_int(value)
    except ValueError as exc:
        raise ConfigError(f"{source} {exc}") from None


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        env = os.environ.get("DBNKIT_THREADS")
        env_threads = _thread_count("DBNKIT_THREADS", env) if env else None
        if args.threads is not None:
            _thread_count("--threads", args.threads)
        if args.command == "oracle":
            return cmd_oracle(args.filter)
        cfg = ExperimentConfig.load(
            args.config,
            overrides={"seed": args.seed, "out": args.out, "threads": args.threads},
        )
        # --threads (set in cfg) > [experiment] threads > DBNKIT_THREADS; None
        # leaves the count to the estimators, which use the CPU affinity set
        threads = cfg.values["experiment"]["threads"] or env_threads
        if args.command == "preprocess":
            return cmd_preprocess(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, threads)
        if args.command == "compare":
            return cmd_compare(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    # an exact computation beyond the enumeration budget is a config choice
    except (ConfigError, EnumerationBudgetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PipelineError, StorageError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
