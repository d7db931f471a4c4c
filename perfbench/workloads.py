"""The three benchmark workloads: generated inputs, CLI steps and checks.

Each workload is a ``Plan``: the config files the CLI runs with, the
inputs the benchmark generates from the seed, and the correctness checks
that gate its timings.  Every file lives in the workload's own work
directory, so the program sees only generated inputs.  No config sets
``threads``, so the program's own default thread count is measured.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# configs/demo.ini as shipped (seed and paths are set per run).  Kept here
# rather than read from the checkout so that an edit to the quickstart
# config cannot pass for a speed-up; test_perfbench checks the copy.
DEMO_INI = {
    "experiment": {"seed": 42, "out_dir": "demo_out", "label": "demo-dbn"},
    "preprocess": {"source": "synthetic", "pairs": 1, "n_train": 5000, "n_test": 500},
    "synthetic": {"kind": "isotropic_mixture", "dim": 6, "components": 3,
                  "sigma": 0.5, "spread": 1.2},
    "data": {"train": "demo_out/train_00.dbds"},
    "layers": {"count": 3},
    "layer.0": {"variant": "grbm", "hidden": 8, "sigma": 0.5},
    "layer.0.train": {"epochs": 20, "batch_size": 100},
    "layer.1": {"variant": "srbm", "hidden": 8},
    "layer.1.train": {"epochs": 10, "batch_size": 100},
    "layer.2": {"variant": "srbm", "hidden": 8},
    "layer.2.train": {"epochs": 10, "batch_size": 100},
    "ais": {"n_betas": 1000, "chains_top": 1000, "chains_interface": 20000},
    "estimator": {"n_is": 1000, "exact": "auto", "marginals": "ais"},
    "eval": {"model": "demo_out/model", "dataset": "demo_out/test_00.dbds"},
}

# |estimate - brute force| bound of the acceptance suite's estimator check
BITS_TOL = 0.005
# |AIS log Z - brute force| bound of the acceptance suite's AIS check
LOG_Z_TOL = 0.05

WORKLOADS = {
    "demo_srbm": (
        "README quickstart (configs/demo.ini): GRBM-SRBM-SRBM stack whose eval is "
        "dominated by 20000-chain SRBM interface AIS"
    ),
    "rbm_paths": (
        "12-10-8-8 binary RBM stack: analytic marginals, no interface AIS, eval "
        "dominated by the per-point path sampler"
    ),
    "patches_gaussian": (
        "image-patch pipeline: one GRBM with 100-chain AIS, MoIG baseline EM and "
        "the potential log-loss on 8000 points"
    ),
}


@dataclass
class Eval:
    config: Path
    report: Path
    model: Path


@dataclass
class Plan:
    """What one workload runs, in order, and where its files live."""

    name: str
    seed: int
    work: Path
    preprocess: list
    train: list
    # the first one's model is the stack whose potential log-loss is taken
    evals: list
    # train and test set
    datasets: list
    # config path -> {section: {key: value}}
    ini: dict
    # image bank the set-up writes before preprocessing, if any
    bank: Path = None


def write_configs(plan):
    for path, sections in plan.ini.items():
        lines = []
        for name, values in sections.items():
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
            lines.append("")
        path.write_text("\n".join(lines))


def sha256(path):
    """Digest of a file, or of every file in a directory, by name order."""
    path = Path(path)
    digest = hashlib.sha256()
    for f in sorted(path.iterdir()) if path.is_dir() else [path]:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def lognormal_bank(seed, count=8, size=96):
    """Log-normal images with a 1/f amplitude spectrum, like natural scenes."""
    rng = np.random.default_rng([seed, 8])
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.rfftfreq(size)[None, :]
    amp = 1.0 / np.maximum(np.hypot(fy, fx), 1.0 / size)
    images = []
    for _ in range(count):
        spec = amp * (rng.standard_normal(amp.shape) + 1j * rng.standard_normal(amp.shape))
        z = np.fft.irfft2(spec, s=(size, size))
        z = (z - z.mean()) / z.std()
        images.append(np.exp(0.5 * z + 0.05 * rng.standard_normal((size, size))))
    return images


def _demo(seed, work, tiny):
    data = work / "data"
    run = work / "run"
    cfg = {k: dict(v) for k, v in DEMO_INI.items()}
    cfg["experiment"].update(seed=seed, out_dir=data)
    cfg["data"]["train"] = data / "train_00.dbds"
    cfg["eval"] = {"model": run / "model", "dataset": data / "test_00.dbds"}
    if tiny:
        cfg["preprocess"].update(n_train=1000, n_test=40)
        for i in range(3):
            cfg[f"layer.{i}.train"]["epochs"] = 10
        cfg["ais"] = {"n_betas": 200, "chains_top": 200, "chains_interface": 20000}
    prep, main = work / "preprocess.ini", work / "demo.ini"
    ini = {prep: cfg, main: {**cfg, "experiment": {**cfg["experiment"], "out_dir": run}}}
    return Plan(
        "demo_srbm", seed, work, [prep], [main], [Eval(main, run / "report.json", run / "model")],
        [data / "train_00.dbds", data / "test_00.dbds"], ini,
    )


def _rbm_paths(seed, work, tiny):
    data = work / "data"
    run = work / "run"
    n_test = 200 if tiny else 3000
    cfg = {
        "experiment": {"seed": seed, "out_dir": data, "label": "rbm-paths"},
        "preprocess": {"source": "synthetic", "pairs": 1,
                       "n_train": 500 if tiny else 5000, "n_test": n_test},
        "synthetic": {"kind": "rbm", "dim": 12, "n_hidden": 6, "weight_scale": 0.5},
        "data": {"train": data / "train_00.dbds"},
        "layers": {"count": 3},
        "layer.0": {"variant": "rbm", "hidden": 10},
        "layer.0.train": {"epochs": 2 if tiny else 20, "batch_size": 100},
        "layer.1": {"variant": "rbm", "hidden": 8},
        "layer.1.train": {"epochs": 2 if tiny else 10, "batch_size": 100},
        "layer.2": {"variant": "rbm", "hidden": 8},
        "layer.2.train": {"epochs": 2 if tiny else 10, "batch_size": 100},
        "ais": {"n_betas": 1000, "chains_top": 1000},
        "estimator": {"n_is": 1000, "exact": "off"},
        "eval": {"model": run / "model", "dataset": data / "test_00.dbds"},
    }
    prep, main = work / "preprocess.ini", work / "rbm.ini"
    ini = {prep: cfg, main: {**cfg, "experiment": {**cfg["experiment"], "out_dir": run}}}
    return Plan(
        "rbm_paths", seed, work, [prep], [main], [Eval(main, run / "report.json", run / "model")],
        [data / "train_00.dbds", data / "test_00.dbds"], ini,
    )


def _patches(seed, work, tiny):
    data = work / "data"
    grbm = work / "grbm"
    moig = work / "moig"
    bank = work / "bank.dbni"
    train, test = data / "train_00.dbds", data / "test_00.dbds"
    prep, grbm_cfg, moig_cfg = work / "preprocess.ini", work / "grbm.ini", work / "moig.ini"
    ini = {}
    ini[prep] = {
        "experiment": {"seed": seed, "out_dir": data, "label": "patches"},
        "preprocess": {"source": "images", "images": bank, "patch_size": 4, "pairs": 1,
                       "n_train": 400 if tiny else 20000, "n_test": 200 if tiny else 8000},
    }
    ini[grbm_cfg] = {
        "experiment": {"seed": seed, "out_dir": grbm, "label": "patches-grbm"},
        "data": {"train": train},
        "layers": {"count": 1},
        "layer.0": {"variant": "grbm", "hidden": 16, "sigma": 0.7},
        "layer.0.train": {"epochs": 2 if tiny else 20, "batch_size": 100},
        "ais": {"n_betas": 100 if tiny else 1000, "chains_first": 100},
        "estimator": {"exact": "off"},
        "eval": {"model": grbm / "model", "dataset": test},
    }
    ini[moig_cfg] = {
        "experiment": {"seed": seed, "out_dir": moig, "label": "patches-moig"},
        "data": {"train": train},
        "baseline": {"kind": "moig", "components": 10, "sigma": 0.8,
                     "em_iters": 5 if tiny else 100, "restarts": 5},
        "eval": {"model": moig / "baseline.dbk", "dataset": test},
    }
    return Plan(
        "patches_gaussian", seed, work, [prep], [grbm_cfg, moig_cfg],
        [Eval(grbm_cfg, grbm / "report.json", grbm / "model"),
         Eval(moig_cfg, moig / "report.json", moig / "baseline.dbk")],
        [train, test], ini, bank=bank,
    )


_PLANS = {"demo_srbm": _demo, "rbm_paths": _rbm_paths, "patches_gaussian": _patches}


def make_plan(name, seed, work, tiny=False):
    return _PLANS[name](seed, Path(work), tiny)


def generate_inputs(plan):
    """The part of set-up that happens before ``dbnkit preprocess``."""
    if plan.bank is not None:
        from dbnkit import pipeline

        pipeline.save_images(lognormal_bank(plan.seed), plan.bank)


def potential_log_loss(plan):
    """Layer-1 potential log-loss on the test set, shared-sample protocol."""
    from dbnkit import dbn, estimation, pipeline
    from dbnkit.numerics import RngStream

    stack = dbn.load_dbn(plan.evals[0].model)
    data = pipeline.load_dataset(plan.datasets[1])
    return estimation.estimate_potential_log_loss(
        stack.layers[0], data.samples, rng=RngStream(plan.seed, 51).generator()
    )


def oracle_checks(plan):
    """Accuracy checks against the brute-force oracles.

    Returns the checks as (name, passed, detail) and |estimate - brute
    force| in bits/component of the stack (or single GRBM).  The oracle
    work is done once per invocation, outside every timed region, on the
    final outputs, which every repeat matched byte for byte.
    """
    from dbnkit import baselines, dbn, models, pipeline
    from dbnkit.numerics import LOG2

    reports = [json.loads(e.report.read_text()) for e in plan.evals]
    test = pipeline.load_dataset(plan.datasets[1])
    d = test.dim
    r = reports[0]
    if plan.name == "demo_srbm":
        true_bits = r["brute_force_bits"]
    elif plan.name == "rbm_paths":
        stack = dbn.load_dbn(plan.evals[0].model)
        # in slices, so the oracle's memory stays near the CLI's own
        truth = np.concatenate([dbn.brute_force_log_likelihood(stack, test.samples[lo:lo + 250])
                                for lo in range(0, test.n_samples, 250)])
        true_bits = float(np.mean(-truth / LOG2) / d)
    else:
        layer = dbn.load_dbn(plan.evals[0].model).layers[0]
        log_z = models.brute_force_log_partition(layer)
        true_bits = float(np.mean(-(layer.log_unnorm_visible(test.samples) - log_z) / LOG2) / d)
    err = abs(r["bits_per_component"] - true_bits)
    if plan.name != "patches_gaussian":
        return [("estimate_vs_brute_force", err <= BITS_TOL,
                 f"|{r['bits_per_component']} - {true_bits:.7g}| = {err:.2e} bits")], err
    z_err = abs(r["log_z_top"] - log_z)
    moig = baselines.load_baseline(plan.evals[1].model)
    exact = float(f"{baselines.average_log_loss_bits(moig, test.samples):.7g}")
    moig_bits = reports[1]["bits_per_component"]
    return [
        ("ais_log_z_vs_brute_force", z_err <= LOG_Z_TOL,
         f"|{r['log_z_top']} - {log_z:.7g}| = {z_err:.2e} nats"),
        ("moig_report_vs_average_log_loss_bits", moig_bits == exact, f"{moig_bits} vs {exact}"),
    ], err

