#!/usr/bin/env python3
"""dbnkit benchmark: time-to-estimate through the real CLI, per-layer traced costs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported and run from its
``src/`` directory (nothing needs to be installed), and every file the
benchmark makes goes under ``.perfbench/`` in the checkout.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Untraced run (``--trace 0``)
----------------------------
Set-up (input generation plus the ``dbnkit preprocess`` process), train,
eval and potential steps run in rounds, each command in a fresh process
with no thread setting.  Each step is repeated to fill about
``--seconds`` (1 to MAX_SAMPLES samples; see ``Steps.run``).  Reported,
all as medians over a run:

* ``setup_s``: seed to datasets on disk (image bank included);
* ``train_s``: the ``dbnkit train`` process(es) of one repeat;
* ``eval_s``: the ``dbnkit eval`` process(es) of one repeat;
* ``potential_s``: one process computing the first layer's potential
  log-loss on the test set (shared-sample protocol);
* ``peak_rss_mb``: the largest peak RSS of any timed child (``os.wait4``).

The host these figures were first taken on (2 vCPUs) changes speed by up
to +-35% over phases of 5-20 s, so the short steps vary by 10-20% from
run to run; every bound is therefore the largest the contract allows.

Every process run and every correctness check is one operation; a
non-zero exit, a report or dataset that differs from the first repeat's,
or an estimate outside tolerance is a failed one.  Checks: each repeat's
datasets, models, ``report.json`` files and potential log-loss equal the
first repeat's byte for byte (a step run once has nothing to compare:
demo_srbm's 19 s eval, for one); the estimate is within the acceptance suite's
tolerance of the brute-force oracle (``workloads.oracle_checks``); the
potential log-loss is finite.

Traced run (``--trace 1``)
--------------------------
After the untraced steps, one more round of them runs in this process
under ``tracing.Tracer``, which wraps the public functions of kernels,
estimation, models, dbn, training, baselines, pipeline, storage and cli
(plus ``numerics.monte_carlo_se`` and the marginal providers) at the
module attributes their callers look up, and calls ``cli.main``.  Its
reports must equal the untraced ones.  ``layers.per_layer`` turns the
spans into per-layer metrics; ``trace.overhead_s`` is the traced minus
the untraced in-process command time (the CLI's ``*.meta.json``).

Workloads, and where their time went when this benchmark was written
--------------------------------------------------------------------
``demo_srbm``: configs/demo.ini as shipped (GRBM-SRBM-SRBM on 6 dims,
20000 interface chains x 1000 betas, 500 test points, n_is 1000); the
README quickstart.  ``kernels.ais_srbm`` does about 95% of eval_s;
training, paths and brute force do little.

``rbm_paths``: synthetic RBM data, 12-10-8-8 RBM stack, 3000 test
points, n_is 1000, exact off.  No lateral layer, so no interface AIS:
the path sampler does most of eval_s and the kernels run one 1000-chain
``ais_rbm`` chunk.  An SRBM-kernel change should show no change here.

``patches_gaussian``: a log-normal image bank from the seed, 4x4 patches,
log/center/DC removal/whitening (15 dims); one GRBM (16 hidden, sigma
0.7, 100-chain AIS), a MoIG baseline (k 10, 5 restarts) and the potential
log-loss on 8000 points.  Baseline EM, the potential GEMM and the
pipeline do the work; interface AIS does none; the 8000 per-point path
calls show the per-call-overhead regime.

Per-layer metric -> the end-to-end metric and workload it should move
---------------------------------------------------------------------
kernels.ais_srbm.*                      eval_s @ demo_srbm
kernels.ais_rbm.*                       eval_s @ rbm_paths
kernels.ais_grbm.*                      eval_s @ patches_gaussian
estimation.run_ais.self_s               eval_s @ demo_srbm
estimation.marginals.{s,states}         eval_s @ demo_srbm
estimation.paths.{self_s,ns_per_path_layer}  eval_s @ rbm_paths
estimation.paths.ns_per_point           eval_s @ patches_gaussian
estimation.potential.ns_per_pair        potential_s @ patches_gaussian
numerics.monte_carlo_se.calls           eval_s @ rbm_paths
models.brute_force_log_partition.s      eval_s @ demo_srbm
dbn.brute_force_log_likelihood.s        eval_s @ demo_srbm
training.train_layer.srbm.*             train_s @ demo_srbm
training.train_layer.rbm.*              train_s @ rbm_paths
training.train_layer.grbm.*             train_s @ patches_gaussian
training.cd_gradient.calls              train_s @ every workload
baselines.*                             train_s @ patches_gaussian
pipeline.sample_patches.ns_per_patch    setup_s @ patches_gaussian
pipeline.preprocess.s                   setup_s @ patches_gaussian
pipeline.synthesize.s                   setup_s @ demo_srbm, rbm_paths
storage.*                               setup_s, train_s @ every workload
cli.*.self_s, cli.startup_s             every end-to-end metric
estimation.abs_err_bits is |estimate - brute force| in bits/component,
informational only.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

MAX_SAMPLES = 7
# no repeat starts once it would end this far into a run ...
HARD_CAP_S = 120.0
# ... and a child still running this far into it is killed (runs end in 180 s)
RUN_LIMIT_S = 170.0
HERE = Path(__file__).resolve().parent
END_TO_END = {"setup_s": "s", "train_s": "s", "eval_s": "s", "potential_s": "s",
              "peak_rss_mb": "MB"}


class Runner:
    """Runs children one at a time and keeps the operation ledger."""

    def __init__(self, root, plan, started, tiny):
        self.root = root
        self.plan = plan
        self.started = started
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.log = plan.work / "children.log"
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def child(self, argv, what):
        """Wall time of one child process, or None if it failed."""
        with open(self.log, "ab") as log:
            log.write(f"$ {' '.join(map(str, argv))}\n".encode())
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], stdout=log, stderr=log,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(max(1.0, RUN_LIMIT_S - (t0 - self.started)), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(self.log, "ab") as log:
            log.write(f"# {wall:.3f} s, peak RSS {usage.ru_maxrss} KB\n".encode())
        ok = self.op(proc.returncode == 0, f"{what} exited {proc.returncode}")
        return wall if ok else None

    def step(self, step, out):
        plan = self.plan
        return [sys.executable, HERE / "child.py", step, plan.name, plan.seed, plan.work,
                int(self.tiny), out]

    def cli(self, command, config):
        return self.child([sys.executable, "-m", "dbnkit.cli", command, "--config", config],
                          f"dbnkit {command} {Path(config).name}")


def meta_seconds(plan, kind):
    """In-process wall time the CLI wrote for the last ``kind`` command(s)."""
    configs = {"preprocess": plan.preprocess, "train": plan.train,
               "eval": [e.config for e in plan.evals]}[kind]
    name = "report.meta.json" if kind == "eval" else f"{kind}.meta.json"
    return sum(
        json.loads((Path(plan.ini[c]["experiment"]["out_dir"]) / name).read_text())
        ["wall_time_seconds"]
        for c in configs
    )


class Steps:
    """Untraced set-up, train, eval and potential steps, with their checks."""

    def __init__(self, runner):
        self.r = runner
        self.plan = runner.plan
        self.samples = {k: [] for k in ("setup", "preprocess", "train", "eval", "potential")}
        # in-process wall times from the CLI's *.meta.json sidecars
        self.meta = {k: [] for k in ("preprocess", "train", "eval")}
        self.startup = []
        self.first = {}
        self.abs_err_bits = None

    def same_as_first(self, key, digest, what):
        return self.r.op(self.first.setdefault(key, digest) == digest,
                         f"{what} differs from the first repeat's")

    def _record(self, kind, walls):
        if None in walls:
            return False
        self.samples[kind].append(sum(walls))
        if kind in self.meta:
            meta = meta_seconds(self.plan, kind)
            self.meta[kind].append(meta)
            # interpreter start, imports and loading, per CLI process
            self.startup.append((sum(walls) - meta) / len(walls))
        return True

    def setup(self):
        t0 = time.perf_counter()
        workloads.generate_inputs(self.plan)
        walls = [self.r.cli("preprocess", c) for c in self.plan.preprocess]
        wall = time.perf_counter() - t0
        if not self._record("preprocess", walls):
            return False
        self.samples["setup"].append(wall)
        for path in self.plan.datasets:
            self.same_as_first(path, workloads.sha256(path), path.name)
        return True

    def train(self):
        if not self._record("train", [self.r.cli("train", c) for c in self.plan.train]):
            return False
        for e in self.plan.evals:
            self.same_as_first(e.model, workloads.sha256(e.model), f"model {e.model.name}")
        return True

    def eval(self):
        evals = [self.r.cli("eval", e.config) for e in self.plan.evals]
        if not self._record("eval", evals):
            return False
        for e in self.plan.evals:
            self.same_as_first(e.report, workloads.sha256(e.report),
                               f"{e.report.parent.name}/report.json")
        return True

    def potential(self):
        out = self.plan.work / "potential.json"
        wall = self.r.child(self.r.step("potential", out), "potential log-loss")
        if not self._record("potential", [wall]):
            return False
        value = json.loads(out.read_text())["bits_per_component"]
        self.r.op(math.isfinite(value), f"potential log-loss {value} is not finite")
        self.same_as_first("potential", value, "potential log-loss")
        return True

    def oracle(self):
        """Brute-force accuracy checks, once per invocation, untimed."""
        out = self.plan.work / "oracle.json"
        # not timed and not part of peak_rss_mb
        peak = self.r.peak_rss_kb
        ok = self.r.child(self.r.step("oracle", out), "brute-force oracle") is not None
        self.r.peak_rss_kb = peak
        if not ok:
            return False
        result = json.loads(out.read_text())
        for name, passed, detail in result["checks"]:
            print(f"check {name}: {'ok' if passed else 'FAILED'} ({detail})")
            self.r.op(passed, f"{name}: {detail}")
        self.abs_err_bits = result["abs_err_bits"]
        return True

    def run(self, seconds):
        """One round of set-up, train, eval and potential, more rounds, oracle.

        The first sample of a step sets how many it gets: enough to fill
        ``seconds``, between 1 and MAX_SAMPLES.  Each step's repeats are
        spread evenly over the rounds, so its samples cover the whole run
        and not one stretch of it: the host's speed drifts over seconds to
        minutes.  The oracle then checks the final outputs, which every
        repeat matched byte for byte.
        """
        kinds = ("setup", "train", "eval", "potential")
        if not all(getattr(self, kind)() for kind in kinds):
            return False
        targets = {k: max(1, min(MAX_SAMPLES, math.ceil(seconds / self.samples[k][0])))
                   for k in kinds}
        rounds = max(targets.values())
        for r in range(1, rounds):
            for kind in kinds:
                due = math.ceil((r + 1) * targets[kind] / rounds)
                elapsed = time.perf_counter() - self.r.started
                if (len(self.samples[kind]) < due
                        and elapsed + self.samples[kind][0] < HARD_CAP_S
                        and not getattr(self, kind)()):
                    return False
        return self.oracle()

    def end_to_end(self):
        medians = {k: statistics.median(v) for k, v in self.samples.items()}
        return {
            "setup_s": medians["setup"],
            "train_s": medians["train"],
            "eval_s": medians["eval"],
            "potential_s": medians["potential"],
            "peak_rss_mb": self.r.peak_rss_kb / 1024.0,
        }

    def untraced_medians(self):
        return {
            "startup_s": statistics.median(self.startup),
            "meta_s": {k: statistics.median(v) for k, v in self.meta.items()},
        }


def traced_round(steps):
    """One round of every step in this process, under the tracer; its spans."""
    import tracing
    from dbnkit import cli

    r, plan = steps.r, steps.plan
    reports = {e.report: workloads.sha256(e.report) for e in plan.evals}
    potential = steps.first["potential"]
    with open(plan.work / "traced.log", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        with tracing.Tracer() as tracer:
            workloads.generate_inputs(plan)
            codes = [cli.main(["preprocess", "--config", str(c)]) for c in plan.preprocess]
            codes += [cli.main(["train", "--config", str(c)]) for c in plan.train]
            codes += [cli.main(["eval", "--config", str(e.config)]) for e in plan.evals]
            value = workloads.potential_log_loss(plan)
    r.op(all(c == 0 for c in codes), f"traced commands exited {codes}")
    for path, digest in reports.items():
        r.op(workloads.sha256(path) == digest, f"traced {path.parent.name}/report.json differs")
    r.op(value == potential, "traced potential log-loss differs")
    return tracer.spans, {k: meta_seconds(plan, k) for k in steps.meta}


def machine_block():
    import numpy as np
    import scipy

    from dbnkit import kernels

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "backend": kernels.backend_name(),
        "loadavg": os.getloadavg(),
    }


def blas_info(np):
    """Version and thread count of numpy's bundled OpenBLAS, where found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"config": config().decode(), "threads": threads()}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny problem sizes, for the benchmark's own smoke tests")
    return p.parse_args(argv)


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dbnkit" / "__init__.py").is_file():
        print(f"no dbnkit sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import dbnkit

    if not Path(dbnkit.__file__).resolve().is_relative_to(root / "src"):
        print(f"imported dbnkit from {dbnkit.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2

    work = root / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.make_plan(args.workload, args.seed, work, tiny=args.tiny)
    work.mkdir(parents=True)
    workloads.write_configs(plan)
    machine = machine_block()
    print("machine " + json.dumps(machine))

    runner = Runner(root, plan, started, args.tiny)
    steps = Steps(runner)
    complete = steps.run(args.seconds)
    if complete and args.trace:
        import layers
        import tracing

        spans, traced_meta = traced_round(steps)
        untraced = steps.untraced_medians()
        values = layers.per_layer(spans, untraced, traced_meta, steps.abs_err_bits,
                                  tracing.span_cost_ns())
        units = layers.UNITS
    elif complete:
        values, units = steps.end_to_end(), END_TO_END
    else:
        values, units = {}, {}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"{k:45s} {m['value']:>14.6g} {m['unit']}")
    print("samples " + ", ".join(f"{k} {len(v)}" for k, v in steps.samples.items())
          + f"; wall {time.perf_counter() - started:.1f} s")
    result = {"correct": runner.failed == 0 and complete, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({**result, "machine": machine}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
