"""Command-line surface: preprocess, train, eval, compare, oracle.

Every command is deterministic given (config, seed): model files and
reports are byte-identical across reruns and thread counts.  Timing goes
to ``*.meta.json`` sidecars so the reports themselves stay comparable.

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
from pathlib import Path

import numpy as np

from . import __version__, baselines, dbn, estimation, models, oracle, pipeline
from . import training
from .config import ConfigError, ExperimentConfig, positive_int
from .estimation import EstimationError
from .models import EnumerationBudgetError
from .numerics import LOG2, RngStream
from .pipeline import PipelineError
from .storage import StorageError, canonical_json
from .training import LayerSpec, TrainingDiverged

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_ESTIMATION = 5


def _sig7(name, x):
    """``x`` to 7 significant digits; a report cannot hold a non-finite one."""
    if not np.isfinite(x):
        raise EstimationError(f"{name} is not finite ({x})")
    return float(f"{x:.7g}")


def _write_json(path, obj):
    Path(path).write_text(canonical_json(obj) + "\n")


def _write_meta(path, wall_time, **extra):
    _write_json(path, {"wall_time_seconds": wall_time, **extra})


def _synthetic_spec(section, seed):
    rng = RngStream(seed, 17).generator()
    kind = section.get("kind", "isotropic_mixture")
    dim = section.get("dim", 6)
    k = section.get("components", 3)
    sigma = section.get("sigma", 0.5)
    spread = section.get("spread", 1.0)
    if kind == "isotropic_mixture":
        return {
            "kind": kind,
            "means": spread * rng.standard_normal((k, dim)),
            "sigma": sigma,
            "weights": np.full(k, 1.0 / k),
        }
    if kind == "full_cov_mixture":
        covs = []
        for _ in range(k):
            a = rng.standard_normal((dim, dim))
            covs.append(spread * (a @ a.T) / dim + 0.05 * np.eye(dim))
        return {
            "kind": kind,
            "covariances": np.array(covs),
            "weights": np.full(k, 1.0 / k),
        }
    if kind in ("grbm", "rbm"):
        n_hidden = section.get("n_hidden", 6)
        scale = section.get("weight_scale", 0.5)
        w = scale * rng.standard_normal((dim, n_hidden))
        b = 0.3 * rng.standard_normal(dim)
        c = 0.3 * rng.standard_normal(n_hidden)
        if kind == "grbm":
            model = models.Grbm(w, b, c, sigma)
        else:
            model = models.Rbm(w, b, c)
        return {"kind": kind, "model": model}
    raise ConfigError(f"unknown synthetic kind {kind!r}")


def cmd_preprocess(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    section = cfg.section("preprocess", required=True)
    source = section.get("source", "synthetic")
    pairs = section.get("pairs", 10)
    n_train = section.get("n_train", 50000)
    n_test = section.get("n_test", 50000)
    started = time.perf_counter()
    if source == "synthetic":
        spec = _synthetic_spec(cfg.section("synthetic"), cfg.seed)
        for i in range(pairs):
            train = pipeline.synthesize(
                spec, n_train, RngStream(cfg.seed).substream(21, i, 0)
            )
            test = pipeline.synthesize(
                spec, n_test, RngStream(cfg.seed).substream(21, i, 1)
            )
            pipeline.save_dataset(train, out / f"train_{i:02d}.dbds")
            pipeline.save_dataset(test, out / f"test_{i:02d}.dbds")
    elif source == "images":
        if "images" not in section:
            raise ConfigError("preprocess.source=images needs an 'images' path")
        images = pipeline.load_images(section["images"])
        src = pipeline.PatchSource(tuple(images), section.get("patch_size", 4))
        for i in range(pairs):
            raw_train = pipeline.sample_patches(
                src, n_train, RngStream(cfg.seed).substream(22, i, 0)
            )
            raw_test = pipeline.sample_patches(
                src, n_test, RngStream(cfg.seed).substream(22, i, 1)
            )
            train = pipeline.preprocess(raw_train)
            test = pipeline.replay(train.provenance, raw_test.samples)
            pipeline.save_dataset(train, out / f"train_{i:02d}.dbds")
            pipeline.save_dataset(test, out / f"test_{i:02d}.dbds")
    else:
        raise ConfigError(f"unknown preprocess source {source!r}")
    _write_meta(out / "preprocess.meta.json", time.perf_counter() - started)
    print(f"wrote {pairs} train/test pair(s) to {out}")
    return 0


def _layer_specs(cfg, data):
    specs = []
    for i in range(cfg.n_layers()):
        section = cfg.layer(i)
        sigma = section.get("sigma")
        if section["variant"] == "grbm" and "sigma_candidates" in section:
            sigma = _select_sigma(cfg, i, section, data)
        specs.append(
            LayerSpec(
                section["variant"],
                section["hidden"],
                sigma=sigma,
                weight_scale=section.get("weight_scale", 0.01),
            )
        )
    return specs


def _select_sigma(cfg, index, section, data):
    candidates = section["sigma_candidates"]
    folds = section.get("sigma_folds", 3)
    train_cfg = cfg.train_config(index)

    def scorer(sigma, train, val, rng):
        spec = LayerSpec("grbm", section["hidden"], sigma=sigma)
        stack, _ = training.train_dbn_greedy([spec], train, [train_cfg])
        model = stack.layers[0]
        log_z = models.brute_force_log_partition(model)
        return dbn.average_log_loss(val, lambda rows: model.log_unnorm_visible(rows) - log_z)

    sigma, table = baselines.cross_validate_sigma(
        candidates, data, folds, scorer, seed=cfg.seed
    )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"cv_sigma_layer{index}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "mean_loss_bits"] + [f"fold{j}" for j in range(folds)])
        for row in table:
            writer.writerow(
                [row["sigma"], f"{row['mean_loss']:.7g}"]
                + [f"{v:.7g}" for v in row["fold_losses"]]
            )
    return sigma


def _train_baseline(cfg, dataset, out, started):
    section = cfg.section("baseline", required=True)
    kind = section["kind"]
    rng = np.random.default_rng(cfg.seed)
    if kind == "gaussian":
        model = baselines.fit_gaussian(dataset.samples)
    else:
        k = section.get("components", 2)
        iters = section.get("em_iters", 100)
        restarts = section.get("restarts", 5)
        sigma = section.get("sigma")
        if kind == "moig" and "sigma_candidates" in section:
            sigma, table = baselines.cross_validate_sigma(
                section["sigma_candidates"],
                dataset.samples,
                section.get("sigma_folds", 3),
                baselines.moig_sigma_scorer(k, iters=iters),
                seed=cfg.seed,
            )
            with open(out / "cv_sigma_baseline.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["sigma", "mean_loss_bits"])
                for row in table:
                    writer.writerow([row["sigma"], f"{row['mean_loss']:.7g}"])
        if kind == "moig" and sigma is None:
            raise ConfigError("baseline.kind=moig needs sigma or sigma_candidates")
        model, _ = baselines.fit_mixture(
            kind, k, dataset.samples, sigma=sigma, iters=iters,
            restarts=restarts, rng=rng,
        )
    baselines.save_baseline(model, out / "baseline.dbk")
    _write_meta(out / "train.meta.json", time.perf_counter() - started)
    print(f"fitted {kind} baseline -> {out / 'baseline.dbk'}")
    return 0


def cmd_train(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_section = cfg.section("data", required=True)
    if "train" not in data_section:
        raise ConfigError("missing data.train path")
    try:
        dataset = pipeline.load_dataset(data_section["train"])
    except StorageError as exc:
        raise PipelineError(str(exc)) from exc
    started = time.perf_counter()
    if "baseline" in cfg.values:
        return _train_baseline(cfg, dataset, out, started)
    specs = _layer_specs(cfg, dataset.samples)
    configs = [cfg.train_config(i) for i in range(cfg.n_layers())]
    stack, _ = training.train_dbn_greedy(
        specs, dataset.samples, configs, log_dir=str(out)
    )
    provenance = {
        "config_hash": cfg.config_hash(),
        "label": cfg.label,
        "seed": cfg.seed,
        "layer_seeds": [c.seed for c in configs],
        "train_configs": [
            {
                "cd_steps": c.cd_steps,
                "epochs": c.epochs,
                "lr_start": c.lr_start,
                "lr_end": c.lr_end,
                "momentum": c.momentum,
                "weight_decay": c.weight_decay,
                "batch_size": c.batch_size,
            }
            for c in configs
        ],
        "tool_version": __version__,
    }
    dbn.save_dbn(stack, out / "model", provenance=provenance)
    _write_meta(out / "train.meta.json", time.perf_counter() - started)
    print(f"trained {len(specs)}-layer stack -> {out / 'model'}")
    return 0


def _write_report(cfg, section, dataset, out, started, log_values, fields, kind, meta=None):
    """Write report.json, with ``fields`` added to the shared header, and its
    sidecar, with ``meta`` added to the wall time."""
    report = {
        "tool_version": __version__,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "label": cfg.label,
        "dim": dataset.dim,
        "n_samples": dataset.n_samples,
        "bits_per_component": _sig7(
            "bits_per_component", float(np.mean(-log_values / LOG2) / dataset.dim)
        ),
        "per_sample_log2": [float(v / LOG2) if np.isfinite(v) else None for v in log_values],
        "timing": "report.meta.json",
        **fields,
    }
    if "sweep_x" in section:
        report["sweep_x"] = section["sweep_x"]
    _write_json(out / "report.json", report)
    _write_meta(out / "report.meta.json", time.perf_counter() - started, **(meta or {}))
    line = f"{kind} log-loss: {report['bits_per_component']} bits/component"
    if "brute_force_bits" in report:
        line += f" (true {report['brute_force_bits']})"
    print(line)
    return 0


# a huge test value overflows the log-likelihood; the report's non-finite
# check names the field (exit 5), so numpy's warnings would only add noise
@np.errstate(over="ignore", invalid="ignore")
def cmd_eval(cfg, threads):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    section = cfg.section("eval", required=True)
    for key in ("model", "dataset"):
        if key not in section:
            raise ConfigError(f"missing eval.{key}")
    try:
        dataset = pipeline.load_dataset(section["dataset"])
    except StorageError as exc:
        raise PipelineError(str(exc)) from exc
    model_path = Path(section["model"])
    started = time.perf_counter()
    if model_path.is_file():
        # a single container file holds a baseline density
        try:
            model = baselines.load_baseline(model_path)
        except (StorageError, baselines.BaselineError, KeyError) as exc:
            raise ConfigError(f"cannot load model {section['model']!r}: {exc}") from exc
        if dataset.dim != model.dim:
            raise ConfigError("dataset dimension does not match the model")
        return _write_report(
            cfg, section, dataset, out, started, model.log_density(dataset.samples),
            {"se_path_bits": 0.0, "exact_density": True}, "exact",
        )
    try:
        stack = dbn.load_dbn(model_path)
    except (dbn.DbnError, StorageError, OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load model {section['model']!r}: {exc}") from exc
    if dataset.dim != stack.n_visible:
        raise ConfigError("dataset dimension does not match the model")

    est = cfg.values["estimator"]
    try:
        result = estimation.evaluate_stack(
            stack, dataset.samples, n_is=est["n_is"], exact=est["exact"],
            marginals=est["marginals"], budget=est["enum_budget"], seed=cfg.seed,
            threads=threads, **cfg.values["ais"],
        )
    except EnumerationBudgetError as exc:
        raise ConfigError(str(exc)) from exc
    d, n = dataset.dim, dataset.n_samples
    se_path_bits = float(np.sqrt(np.sum(result.standard_errors ** 2)) / n / (LOG2 * d))
    fields = {
        "n_is": est["n_is"],
        "se_path_bits": _sig7("se_path_bits", se_path_bits),
        "log_z_top": _sig7("log_z_top", result.log_z_top.log_value),
        "se_log_z": _sig7("se_log_z", result.log_z_top.standard_error),
        # the float entries (marginal_se_mean) are Monte Carlo summaries too
        "ais": {k: _sig7(f"ais.{k}", v) if isinstance(v, float) else v
                for k, v in result.ais.items()},
    }
    if result.brute_force is not None:
        fields["brute_force_bits"] = _sig7(
            "brute_force_bits", float(np.mean(-result.brute_force / LOG2) / d)
        )
    return _write_report(
        cfg, section, dataset, out, started, result.log_values, fields, "estimated",
        {"stages": result.stages, "workers": result.workers},
    )


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
    section = cfg.section("compare", required=True)
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
            vals = np.array([r["bits_per_component"] for r in by_label[label]])
            sem = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            trues = [r.get("brute_force_bits") for r in by_label[label]]
            true_mean = (
                f"{np.mean([t for t in trues if t is not None]):.7g}"
                if all(t is not None for t in trues)
                else ""
            )
            writer.writerow(
                [label, len(vals), f"{vals.mean():.7g}", f"{sem:.7g}", true_mean]
            )

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
    for name, needs_config in (
        ("preprocess", True),
        ("train", True),
        ("eval", True),
        ("compare", True),
        ("oracle", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config)
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
        env_threads = os.environ.get("DBNKIT_THREADS")
        if env_threads:
            default_threads = _thread_count("DBNKIT_THREADS", env_threads)
        else:
            default_threads = len(os.sched_getaffinity(0))
        if args.threads is not None:
            _thread_count("--threads", args.threads)
        if args.command == "oracle":
            return cmd_oracle(args.filter)
        cfg = ExperimentConfig.load(
            args.config,
            overrides={"seed": args.seed, "out": args.out, "threads": args.threads},
        )
        threads = cfg.threads(default_threads)
        if args.command == "preprocess":
            return cmd_preprocess(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, threads)
        if args.command == "compare":
            return cmd_compare(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as exc:
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
