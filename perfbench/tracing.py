"""In-memory span tracer that wraps the public functions of dbnkit modules.

A function is wrapped at every module attribute that refers to it, so a
caller that did ``from .numerics import monte_carlo_se`` is traced through
its own copy of the name.  Each call records a span (name, start, end,
parent) and, for a few functions, counts taken from its arguments and
result, so unit costs are measured where the work happens.  Leaving the
``with`` block restores every attribute to the original object.
"""

import importlib
import inspect
import os
import threading
import time
from dataclasses import dataclass, field

# modules whose public functions are traced, by their short names
MODULES = ("kernels", "estimation", "models", "dbn", "training", "baselines",
           "pipeline", "storage", "cli")
# functions of other modules traced as well
EXTRA = ("numerics.monte_carlo_se",)
# class methods traced as well: (module, class, method, span name)
METHODS = (
    ("estimation", "AnalyticMarginals", "__call__", "estimation.marginal_provider"),
    ("estimation", "_TableMarginals", "__call__", "estimation.marginal_provider"),
)


def _rows(x):
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else 1


def _chain_steps(a, _):
    return {"chain_steps": int(a["n_chains"]) * (len(a["betas"]) - 1)}


def _size(a, _):
    return {"bytes": os.path.getsize(a["path"])}


# span name -> counts(bound arguments, result)
COUNTERS = {
    "kernels.ais_rbm": _chain_steps,
    "kernels.ais_grbm": _chain_steps,
    "kernels.ais_srbm": _chain_steps,
    "estimation.estimate_unnorm_marginal_batch": lambda a, _: {"states": _rows(a["states"])},
    "estimation.estimate_dataset_log_likelihood": lambda a, _: {
        "points": _rows(a["data"]), "n_is": int(a["n_is"]), "layers": a["dbn"].n_layers,
    },
    "estimation.estimate_potential_log_loss": lambda a, _: {
        "pairs": _rows(a["eval_set"])
        * _rows(a["eval_set"] if a.get("recon_set") is None else a["recon_set"])
        * int(a.get("k_recon", 1)),
    },
    "training.train_layer": lambda a, _: {
        "variant": a["model"].variant,
        "sample_epochs": _rows(a["data"]) * int(a["config"].epochs),
    },
    "baselines.fit_em": lambda a, r: {
        "points": _rows(a["data"]),
        "components": int(a["model"].n_components),
        "iters": len(r[1]) - 1,
    },
    "pipeline.sample_patches": lambda a, _: {"patches": int(a["n"])},
    "storage.write_container": _size,
    "storage.read_container": _size,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Context manager: patch on enter, restore on exit, spans in memory."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (owner, attribute, original)


    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
                tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self):
        mods = {m: importlib.import_module(f"dbnkit.{m}")
                for m in MODULES + tuple(e.split(".")[0] for e in EXTRA)}
        wrappers = {}  # id(original) -> wrapper
        for mod in mods.values():
            for attribute, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attribute.startswith("_"):
                    continue
                name = f"{obj.__module__.removeprefix('dbnkit.')}.{obj.__name__}"
                if name.split(".")[0] not in MODULES and name not in EXTRA:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._patch(mod, attribute, wrappers[id(obj)])
        for module, cls, method, name in METHODS:
            owner = getattr(mods[module], cls)
            self._patch(owner, method, self._wrap(owner.__dict__[method], name))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
        return False

    def patched_count(self):
        return len(self._patched)


def self_time(spans, index, children=None):
    """Duration of span ``index`` minus the part its child spans cover."""
    if children is None:
        children = child_index(spans)
    span = spans[index]
    covered = 0.0
    edge = span.start
    for child in sorted((spans[c] for c in children.get(index, ())), key=lambda s: s.start):
        lo, hi = max(child.start, edge), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return span.duration - covered


def child_index(spans):
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span.parent, []).append(i)
    return children


def span_cost_ns(calls=20000):
    """Cost of recording one span, from a traced and a bare no-op call."""

    def noop():
        return None

    traced = Tracer()._wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return 1e9 * ((t2 - t1) - (t1 - t0)) / calls
