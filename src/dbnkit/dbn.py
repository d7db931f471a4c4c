"""Layer stacks: composition, feed-forward sampling and exact likelihood.

A stack of L layers defines the directed-on-top-of-undirected density

    p(x0) = sum_{x1..x_{L-1}} q_L(x_{L-1}) prod_l q_l(x_{l-1} | x_l),

where q_l are the layer models, layer l's hidden units are layer l+1's
visible units, and q_L is the top layer's (normalized) visible marginal.
"""

import json
from pathlib import Path

import numpy as np

from .models import DEFAULT_ENUM_BUDGET, GRBM, SRBM, binary_states
from .numerics import LOG2, log_sum_exp
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

    def __len__(self):
        return len(self.layers)

    def __getitem__(self, i):
        return self.layers[i]


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


def _log_conditional_table(layer, xs, ys, budget):
    """Matrix of log q(x | y) over every (row of ``xs``, row of ``ys``) pair.

    A lateral-connected layer has no analytic conditional: exp(-E(x, y))
    is normalized by its enumerated hidden marginal q*(y).
    """
    pairs = np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))
    if layer.variant != SRBM:
        return layer.log_visible_conditional(*pairs).reshape(len(xs), len(ys))
    norms = _models.brute_force_hidden_marginal_srbm(layer, ys, budget)
    return -layer.energy(*pairs).reshape(len(xs), len(ys)) - norms


def brute_force_log_likelihood(dbn, x, budget=DEFAULT_ENUM_BUDGET):
    """Exact log p(x) in nats by enumerating every interface.

    Tables are built top-down: the top layer's normalized visible marginal
    over all of its 2^d states, then each interface in turn absorbs the
    layer's downward conditional, so the nesting order is fixed as
    top-to-bottom regardless of layer widths.  No table or block holds
    more than ``budget`` states or cells; the bottom layer's conditional is
    evaluated in row blocks to keep to that.  Accepts a single state or a
    batch of rows.
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
        layer = dbn.layers[i]
        _models.check_budget(
            layer.n_visible + layer.n_hidden, budget, f"conditional table of layer {i}"
        )
        cond = _log_conditional_table(
            layer, binary_states(layer.n_visible), binary_states(layer.n_hidden), budget
        )
        table = log_sum_exp(cond + table, axis=1)

    _models.check_budget(first.n_hidden, budget, "bottom table")
    hidden = binary_states(first.n_hidden)
    rows = budget // len(hidden)
    out = np.concatenate([
        log_sum_exp(_log_conditional_table(first, x[i:i + rows], hidden, budget) + table, axis=1)
        for i in range(0, len(x), rows)
    ])
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
    return float(np.mean(-log_p / LOG2) / data.shape[1])


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
    return DbnModel([load_model(directory / name) for name in names])

