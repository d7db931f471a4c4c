"""Layer stacks: composition, feed-forward sampling and exact likelihood.

A stack of L layers defines the directed-on-top-of-undirected density

    p(x0) = sum_{x1..x_{L-1}} q_L(x_{L-1}) prod_l q_l(x_{l-1} | x_l),

where q_l are the layer models, layer l's hidden units are layer l+1's
visible units, and q_L is the top layer's (normalized) visible marginal.
"""

import json
from functools import partial
from pathlib import Path

import numpy as np

from .models import DEFAULT_ENUM_BUDGET, ENUM_BLOCK, GRBM
from .numerics import RUNAWAY, bits_per_component, log_sum_exp
from .storage import canonical_json, load_model, save_model
from . import models as _models


class DbnError(ValueError):
    pass


class EvaluationError(RuntimeError):
    pass


class DbnModel:
    """An ordered, dimension-compatible stack of layer models."""

    def __init__(self, layers):
        layers = tuple(layers)
        if not layers:
            raise DbnError("a stack needs at least one layer")
        for lower, upper in zip(layers, layers[1:]):
            if lower.n_hidden != upper.n_visible:
                raise DbnError(
                    f"layer with {lower.n_hidden} hidden units cannot feed a "
                    f"layer with {upper.n_visible} visible units"
                )
            if upper.variant == GRBM:
                raise DbnError("gaussian-visible layers are only valid at the bottom")
        self.layers = layers

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def n_visible(self):
        return self.layers[0].n_visible

    @property
    def top(self):
        return self.layers[-1]


def feed_forward_sample(dbn, x0, rng):
    """Hidden states x1..x_{L-1}, drawn layer by layer from q_l(x_l | x_{l-1}).

    ``x0`` may be a single state or a batch; returns a list with one entry
    per interior interface (empty for a single layer).
    """
    states = []
    current = x0
    for layer in dbn.layers[:-1]:
        current = layer.sample_hidden(current, rng)
        states.append(current)
    return states


def _log_sum_block(x, a, c):
    """log sum_j exp(x . a[:, j] + c[j]) for each row of ``x``: one block."""
    return log_sum_exp(x @ a + c, axis=1)


def _absorb(layer, x_chunks, table, budget, what):
    """log sum_y exp(log q(x | y) + table[y]) for the rows x of the blocks
    ``x_chunks()`` yields, y running over the layer's 2^h hidden states.

    Each block of y states gets its terms of log q(x | y) = x . A(y) + c(y)
    + r(x) once (``models.conditional_terms``); the x rows pass it in row
    blocks, one matrix product each, and the y blocks combine in a running
    log-sum-exp.  No block holds more than min(budget, ENUM_BLOCK) cells.
    """
    cells = min(budget, ENUM_BLOCK)
    cols = max(1, cells // max(layer.n_visible, layer.n_hidden))
    total, start = None, 0
    for ys in _models.state_chunks(layer.n_hidden, budget, what):
        for lo in range(0, len(ys), cols):
            a, c, r = _models.conditional_terms(layer, ys[lo : lo + cols], budget)
            c += table[start : start + len(c)]
            start += len(c)
            rows = max(1, cells // len(c))
            piece = np.concatenate([
                _log_sum_block(xs[i : i + rows], a, c)
                for xs in x_chunks() for i in range(0, len(xs), rows)
            ])
            total = piece if total is None else log_sum_exp([total, piece], axis=0)
    return total + np.concatenate([r(xs) for xs in x_chunks()])


def brute_force_log_likelihood(dbn, x, budget=DEFAULT_ENUM_BUDGET):
    """Exact log p(x) in nats by enumerating every interface.

    Tables are built top-down: the top layer's normalized visible marginal
    over all of its 2^d states, then each layer below absorbs its downward
    conditional (``_absorb``), an interior layer over all of its visible
    states and the bottom layer at the rows of ``x``, so the nesting order
    is fixed as top-to-bottom regardless of layer widths.  ``budget`` bounds
    the states each table enumerates (2^(m+h) for an interior one), not the
    memory.  Accepts a single state or a batch of rows.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != dbn.n_visible:
        raise DbnError("data dimension does not match the stack")
    first, top = dbn.layers[0], dbn.top
    log_z = _models.brute_force_log_partition(top, budget=budget)
    if dbn.n_layers == 1:
        out = first.log_unnorm_visible(x) - log_z
        return float(out[0]) if single else out

    table = np.concatenate([
        top.log_unnorm_visible(s)
        for s in _models.state_chunks(top.n_visible, budget, "top table")
    ]) - log_z
    for i in range(dbn.n_layers - 2, 0, -1):
        layer, what = dbn.layers[i], f"conditional table of layer {i}"
        _models.check_budget(layer.n_visible + layer.n_hidden, budget, what)
        states = partial(_models.state_chunks, layer.n_visible, budget, what)
        table = _absorb(layer, states, table, budget, what)
    out = _absorb(first, lambda: [x], table, budget, "bottom table")
    return float(out[0]) if single else out


def average_log_loss(dataset, evaluator):
    """Average log-loss in bits per data component.

    ``evaluator`` maps a batch of rows to per-row log densities in nats.
    A failing batch is retried sample by sample so the error can name the
    offending index.
    """
    data = np.atleast_2d(np.asarray(dataset, dtype=np.float64))
    if data.shape[0] == 0:
        raise DbnError("empty dataset")
    try:
        log_p = np.asarray(evaluator(data), dtype=np.float64)
    except Exception:
        for i in range(data.shape[0]):
            try:
                evaluator(data[i : i + 1])
            except Exception as exc:
                raise EvaluationError(f"evaluation failed at sample {i}: {exc}") from exc
        raise
    if log_p.shape != (data.shape[0],):
        raise EvaluationError("evaluator returned a malformed result")
    return bits_per_component(log_p, data.shape[1])


def save_dbn(dbn, directory, provenance=None):
    """Write one container per layer plus a manifest with stack metadata."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layer_files = []
    for i, layer in enumerate(dbn.layers):
        name = f"layer_{i:02d}.dbk"
        save_model(layer, directory / name)
        layer_files.append(name)
    manifest = {
        "format_version": 1,
        "kind": "dbn",
        "layers": layer_files,
        "provenance": provenance or {},
    }
    (directory / "manifest.json").write_text(canonical_json(manifest) + "\n")


def load_dbn(directory):
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise DbnError(f"no stack manifest in {directory}")
    manifest = json.loads(manifest_path.read_text())
    names = manifest.get("layers") if isinstance(manifest, dict) else None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DbnError(f"{manifest_path} does not list its layer files")
    layers = [load_model(directory / name) for name in names]
    # training stops at RUNAWAY; beyond it, a top weight of 1e300 read 0.0 bits
    for name, layer in zip(names, layers):
        for field, arr in layer.parameter_arrays().items():
            if np.abs(arr).max(initial=0.0) > RUNAWAY:
                raise DbnError(f"{name} {field} exceeds {RUNAWAY:g}, "
                               "beyond what training can produce")
    return DbnModel(layers)

