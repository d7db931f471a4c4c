"""Per-layer metrics derived from the spans of one traced round.

Each metric names the end-to-end metric and workload it should move (see
run.py).  A layer that does no work on a workload reports 0 for its
counts, times and unit costs: that is the prediction for a workload that
bypasses it.
"""

from tracing import child_index, self_time

KERNELS = ("srbm", "rbm", "grbm")
VARIANTS = ("grbm", "srbm", "rbm")
CLI_COMMANDS = ("preprocess", "train", "eval")

# name -> unit, in the order they are reported
UNITS = {}
for _v in KERNELS:
    UNITS[f"kernels.ais_{_v}.ns_per_chain_step"] = "ns"
    UNITS[f"kernels.ais_{_v}.chain_steps"] = "count"
    UNITS[f"kernels.ais_{_v}.s"] = "s"
UNITS.update({
    "kernels.eval_share": "ratio",
    "estimation.run_ais.self_s": "s",
    "estimation.marginals.s": "s",
    "estimation.marginals.states": "count",
    "estimation.paths.s": "s",
    "estimation.paths.self_s": "s",
    "estimation.paths.ns_per_path_layer": "ns",
    "estimation.paths.ns_per_point": "ns",
    "estimation.paths.eval_share": "ratio",
    "estimation.potential.s": "s",
    "estimation.potential.ns_per_pair": "ns",
    "numerics.monte_carlo_se.calls": "count",
    "estimation.abs_err_bits": "bits",
    "models.brute_force_log_partition.s": "s",
    "dbn.brute_force_log_likelihood.s": "s",
})
for _v in VARIANTS:
    UNITS[f"training.train_layer.{_v}.ns_per_sample_epoch"] = "ns"
UNITS.update({
    "training.cd_gradient.calls": "count",
    "baselines.fit_em.s": "s",
    "baselines.em_iters": "count",
    "baselines.ns_per_point_component_iter": "ns",
    "pipeline.sample_patches.ns_per_patch": "ns",
    "pipeline.preprocess.s": "s",
    "pipeline.synthesize.s": "s",
    "storage.read_s": "s",
    "storage.write_s": "s",
    "storage.bytes": "bytes",
})
for _c in CLI_COMMANDS:
    UNITS[f"cli.{_c}.s"] = "s"
    UNITS[f"cli.{_c}.self_s"] = "s"
UNITS.update({
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.ns_per_span": "ns",
})


def _ns(seconds, count):
    return 1e9 * seconds / count if count else 0.0


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _under(spans, index, names):
    """True if span ``index`` has an ancestor whose name is in ``names``."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def per_layer(spans, untraced, traced_meta, abs_err_bits, span_ns):
    """Metric values from the spans of a traced round.

    ``untraced`` holds medians of the untraced steps: ``startup_s``, a CLI
    process's wall time minus the in-process time it wrote to its
    ``*.meta.json`` sidecar (interpreter start, imports, loading), and
    ``meta_s``, those in-process times per command; ``traced_meta``
    holds the sidecar times of the traced round.  ``trace.overhead_s``
    compares the two and carries the host's noise; ``span_ns``, the
    measured cost of one span, times ``trace.spans`` is a steadier
    estimate of it.
    """
    children = child_index(spans)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name, key=None):
        idx = by_name.get(name, ())
        if key is None:
            return sum(spans[i].duration for i in idx)
        return sum(spans[i].counts.get(key, 0) for i in idx)

    m = {}
    eval_s = total("cli.cmd_eval")
    kernel_in_eval = 0.0
    for v in KERNELS:
        name = f"kernels.ais_{v}"
        s, steps = total(name), total(name, "chain_steps")
        m[f"{name}.ns_per_chain_step"] = _ns(s, steps)
        m[f"{name}.chain_steps"] = steps
        m[f"{name}.s"] = s
        kernel_in_eval += sum(spans[i].duration for i in by_name.get(name, ())
                              if _under(spans, i, {"cli.cmd_eval"}))
    m["kernels.eval_share"] = _ratio(kernel_in_eval, eval_s)

    m["estimation.run_ais.self_s"] = sum(
        spans[i].duration - sum(spans[c].duration for c in children.get(i, ())
                                if spans[c].name.startswith("kernels."))
        for i in by_name.get("estimation.run_ais", ())
    )
    m["estimation.marginals.s"] = total("estimation.estimate_unnorm_marginal_batch")
    m["estimation.marginals.states"] = total("estimation.estimate_unnorm_marginal_batch", "states")

    paths = by_name.get("estimation.estimate_dataset_log_likelihood", ())
    paths_s = total("estimation.estimate_dataset_log_likelihood")
    provider_s = sum(
        spans[i].duration for i in by_name.get("estimation.marginal_provider", ())
        if _under(spans, i, {"estimation.estimate_dataset_log_likelihood"})
    )
    paths_self = paths_s - provider_s
    points = sum(spans[i].counts["points"] for i in paths)
    path_layers = sum(spans[i].counts["points"] * spans[i].counts["n_is"]
                      * (spans[i].counts["layers"] - 1) for i in paths)
    m["estimation.paths.s"] = paths_s
    m["estimation.paths.self_s"] = paths_self
    m["estimation.paths.ns_per_path_layer"] = _ns(paths_self, path_layers)
    m["estimation.paths.ns_per_point"] = _ns(paths_self, points)
    m["estimation.paths.eval_share"] = _ratio(paths_s, eval_s)

    pot = "estimation.estimate_potential_log_loss"
    m["estimation.potential.s"] = total(pot)
    m["estimation.potential.ns_per_pair"] = _ns(total(pot), total(pot, "pairs"))
    m["numerics.monte_carlo_se.calls"] = len(by_name.get("numerics.monte_carlo_se", ()))
    m["estimation.abs_err_bits"] = abs_err_bits
    m["models.brute_force_log_partition.s"] = sum(
        spans[i].duration for i in by_name.get("models.brute_force_log_partition", ())
        if not _under(spans, i, {"models.brute_force_log_partition"})
    )
    m["dbn.brute_force_log_likelihood.s"] = total("dbn.brute_force_log_likelihood")

    for v in VARIANTS:
        idx = [i for i in by_name.get("training.train_layer", ())
               if spans[i].counts["variant"] == v]
        m[f"training.train_layer.{v}.ns_per_sample_epoch"] = _ns(
            sum(spans[i].duration for i in idx),
            sum(spans[i].counts["sample_epochs"] for i in idx))
    m["training.cd_gradient.calls"] = len(by_name.get("training.cd_gradient", ()))

    em = by_name.get("baselines.fit_em", ())
    m["baselines.fit_em.s"] = total("baselines.fit_em")
    m["baselines.em_iters"] = total("baselines.fit_em", "iters")
    m["baselines.ns_per_point_component_iter"] = _ns(
        total("baselines.fit_em"),
        sum(spans[i].counts["points"] * spans[i].counts["components"]
            * spans[i].counts["iters"] for i in em))

    m["pipeline.sample_patches.ns_per_patch"] = _ns(
        total("pipeline.sample_patches"), total("pipeline.sample_patches", "patches"))
    m["pipeline.preprocess.s"] = total("pipeline.preprocess")
    m["pipeline.synthesize.s"] = total("pipeline.synthesize")
    m["storage.read_s"] = total("storage.read_container")
    m["storage.write_s"] = total("storage.write_container")
    m["storage.bytes"] = (total("storage.read_container", "bytes")
                          + total("storage.write_container", "bytes"))

    for c in CLI_COMMANDS:
        m[f"cli.{c}.s"] = total(f"cli.cmd_{c}")
        m[f"cli.{c}.self_s"] = sum(self_time(spans, i, children)
                                   for i in by_name.get(f"cli.cmd_{c}", ()))
    m["cli.startup_s"] = untraced["startup_s"]
    m["trace.overhead_s"] = sum(traced_meta.values()) - sum(untraced["meta_s"].values())
    m["trace.spans"] = len(spans)
    m["trace.ns_per_span"] = span_ns
    return m
