"""Contrastive-divergence training, exact gradients for small models,
momentum updates with a linear learning-rate schedule, and greedy
layer-wise stacking."""

import csv
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import check_cross_validation, cross_validate_sigma
from .dbn import DbnModel, average_log_loss
from .models import (
    DEFAULT_ENUM_BUDGET,
    GRBM,
    LAYER_CLASSES,
    SRBM,
    ModelError,
    Srbm,
    binary_states,
    brute_force_log_partition,
    initialize_layer,
)
from .numerics import RngStream, is_gaussian_scale

# a parameter beyond this magnitude means training has diverged
RUNAWAY = 1e6


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    """Hyperparameters for one layer's training run.

    Defaults follow the standard recipe: learning rate annealed linearly
    from 1e-2 to 1e-4, momentum 0.9 on all parameters, and weight decay of
    0.01 times the learning rate applied to weight and lateral matrices
    but not to biases.
    """

    cd_steps: int = 1
    epochs: int = 100
    lr_start: float = 1e-2
    lr_end: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 0.01
    batch_size: int = 100
    seed: int = 0
    mean_field_steps: int = 20
    mean_field_damping: float = 0.2

    def __post_init__(self):
        if self.cd_steps < 1:
            raise ValueError("cd_steps must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not (0 < self.lr_end <= self.lr_start < math.inf):
            raise ValueError("need 0 < lr_end <= lr_start, both finite")
        if not (0 <= self.momentum < 1):
            raise ValueError("momentum must lie in [0, 1)")
        if not (0 <= self.weight_decay < math.inf):
            raise ValueError("weight_decay must be finite and nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.mean_field_steps < 1:
            raise ValueError("mean_field_steps must be at least 1")
        if not (0 <= self.mean_field_damping < 1):
            raise ValueError("mean_field_damping must lie in [0, 1)")

    def learning_rate(self, epoch):
        if self.epochs <= 1:
            return self.lr_start
        frac = min(max(epoch, 0), self.epochs - 1) / (self.epochs - 1)
        return self.lr_start + (self.lr_end - self.lr_start) * frac


class GradientAccumulator:
    """Per-parameter gradient arrays plus persistent momentum buffers."""

    def __init__(self, model):
        self.grads = {k: np.zeros_like(v) for k, v in model.parameter_arrays().items()}
        self.velocity = {k: np.zeros_like(v) for k, v in model.parameter_arrays().items()}
        self.last_recon_error = None

    def check_shapes(self, model):
        for name, arr in model.parameter_arrays().items():
            if self.grads[name].shape != arr.shape:
                raise ModelError("accumulator shape does not match the model")


def _stats(model, x, p):
    """Sufficient statistics of visible rows ``x`` and their hidden means ``p``."""
    n = x.shape[0]
    stats = {
        "xy": x.T @ p / n,
        "x": x.mean(axis=0),
        "y": p.mean(axis=0),
    }
    if model.variant == SRBM:
        stats["xx"] = x.T @ x / n
    return stats


def _fill_grads(acc, model, pos, neg):
    sigma = getattr(model, "sigma", None)
    if model.variant == GRBM:
        acc.grads["weights"][...] = (pos["xy"] - neg["xy"]) / sigma
        acc.grads["visible_bias"][...] = (pos["x"] - neg["x"]) / sigma ** 2
    else:
        acc.grads["weights"][...] = pos["xy"] - neg["xy"]
        acc.grads["visible_bias"][...] = pos["x"] - neg["x"]
    acc.grads["hidden_bias"][...] = pos["y"] - neg["y"]
    if model.variant == SRBM:
        lat = 0.5 * (pos["xx"] - neg["xx"])
        np.fill_diagonal(lat, 0.0)
        acc.grads["lateral"][...] = 0.5 * (lat + lat.T)


def cd_gradient(model, batch, n, rng, out=None, mean_field_steps=20, mean_field_damping=0.2):
    """CD(n) stochastic estimate of the log-likelihood gradient.

    The positive phase uses the conditional hidden means on the data; the
    negative phase uses the n-step reconstruction.  Lateral-connected
    models reconstruct visibles with damped parallel mean-field updates
    (training-time sampling); the mean-field means enter the negative
    statistics directly.
    """
    if n < 1:
        raise ValueError("contrastive divergence needs n >= 1")
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    if out is None:
        out = GradientAccumulator(model)
    out.check_shapes(model)

    p_pos = model.hidden_conditional(batch)
    pos = _stats(model, batch, p_pos)
    hidden = (rng.random(p_pos.shape) < p_pos).astype(np.float64)
    recon = None
    for step in range(n):
        if model.variant == SRBM:
            recon = model.mean_field_visible(
                hidden, steps=mean_field_steps, damping=mean_field_damping
            )
        else:
            recon = model.sample_visible(hidden, rng)
        p_neg = model.hidden_conditional(recon)
        if step + 1 < n:
            hidden = (rng.random(p_neg.shape) < p_neg).astype(np.float64)
    _fill_grads(out, model, pos, _stats(model, recon, p_neg))
    out.last_recon_error = float(np.mean((batch - recon) ** 2))
    return out


def exact_ml_gradient(model, batch, budget=DEFAULT_ENUM_BUDGET, out=None):
    """Exact log-likelihood gradient for enumerable models.

    The model expectation is computed by enumerating the analytic marginal
    side: visible states for binary models, hidden states (with analytic
    Gaussian moments) for Gaussian-visible models.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if out is None:
        out = GradientAccumulator(model)
    out.check_shapes(model)
    pos = _stats(model, batch, model.hidden_conditional(batch))

    neg = {}
    if model.variant == GRBM:
        hs = binary_states(model.n_hidden, budget, "exact gradient")
        logw = model.log_unnorm_hidden(hs)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        mu = model.visible_bias + model.sigma * (hs @ model.weights.T)
        neg["xy"] = (mu * w[:, None]).T @ hs
        neg["x"] = w @ mu
        neg["y"] = w @ hs
    else:
        vs = binary_states(model.n_visible, budget, "exact gradient")
        logw = model.log_unnorm_visible(vs)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        p = model.hidden_conditional(vs)
        neg["xy"] = (vs * w[:, None]).T @ p
        neg["x"] = w @ vs
        neg["y"] = w @ p
        if model.variant == SRBM:
            neg["xx"] = (vs * w[:, None]).T @ vs
    _fill_grads(out, model, pos, neg)
    return out


def apply_update(model, acc, config, epoch):
    """One momentum step; returns the updated model.

    velocity <- momentum * velocity + lr * (grad - weight_decay * weights),
    parameters += velocity.  Weight decay touches weight and lateral
    matrices only.  The lateral matrix is re-symmetrized with a zero
    diagonal after the step.  A step that leaves a parameter non-finite
    raises TrainingDiverged.
    """
    lr = config.learning_rate(epoch)
    params = model.parameter_arrays()
    new = {}
    for name, value in params.items():
        g = acc.grads[name]
        if config.weight_decay and name in ("weights", "lateral"):
            g = g - config.weight_decay * value
        v = config.momentum * acc.velocity[name] + lr * g
        acc.velocity[name][...] = v
        new[name] = value + v
    if "lateral" in new:
        lat = 0.5 * (new["lateral"] + new["lateral"].T)
        np.fill_diagonal(lat, 0.0)
        new["lateral"] = lat
    try:
        return model.replace(**new)
    except ModelError:
        _guard(new, epoch)  # a step that overflowed has diverged
        raise


def _guard(arrays, epoch):
    """Raise TrainingDiverged unless every array is finite and within RUNAWAY."""
    for name, arr in arrays.items():
        peak = np.abs(arr).max()
        if not np.isfinite(peak):
            raise TrainingDiverged(f"non-finite {name} at epoch {epoch}")
        if peak > RUNAWAY:
            raise TrainingDiverged(f"{name} exceeded {RUNAWAY:g} at epoch {epoch}")


# a step that overflows is reported as divergence, so numpy's warnings
# would only add noise
@np.errstate(over="ignore", invalid="ignore")
def train_layer(
    model,
    data,
    config,
    data_provider=None,
    exact_loss=False,
    log_path=None,
    budget=DEFAULT_ENUM_BUDGET,
    gradient_fn=None,
):
    """Mini-batch CD training of a single layer.

    Shuffling is reseeded per epoch from the run seed.  Emits per-epoch
    diagnostics (reconstruction error, learning rate, optional exact
    log-loss in bits per component, wall time) and optionally a CSV log.
    ``data_provider(epoch)`` may replace the fixed data matrix to feed
    fresh samples every epoch.  Aborts with TrainingDiverged on a step that
    leaves a parameter non-finite, an epoch that leaves one beyond RUNAWAY,
    or a log-loss that worsens by more than one bit over ten epochs.
    """
    model = model.copy()
    if data is None and data_provider is None:
        raise ValueError("need a data matrix or a data provider")
    if data is not None:
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if data.shape[1] != model.n_visible:
            raise ModelError("data dimension does not match the model")
    acc = GradientAccumulator(model)
    stream = RngStream(config.seed)
    diagnostics = []
    writer = None
    log_file = None
    if log_path is not None:
        log_file = open(log_path, "w", newline="")
        writer = csv.writer(log_file)
        writer.writerow(["epoch", "lr", "recon_error", "exact_log_loss", "wall_time"])
    recent_losses = []
    try:
        for epoch in range(config.epochs):
            started = time.perf_counter()
            # the last epoch's data, shuffled copy and batch go before the next are made
            epoch_data = shuffled = batch = None
            epoch_data = data_provider(epoch) if data_provider is not None else data
            perm = stream.substream(epoch, 0).permutation(epoch_data.shape[0])
            cd_rng = stream.substream(epoch, 1)
            shuffled = epoch_data[perm]
            errors = []
            for lo in range(0, shuffled.shape[0], config.batch_size):
                batch = shuffled[lo : lo + config.batch_size]
                if gradient_fn is not None:
                    gradient_fn(model, batch, out=acc)
                else:
                    cd_gradient(
                        model,
                        batch,
                        config.cd_steps,
                        cd_rng,
                        out=acc,
                        mean_field_steps=config.mean_field_steps,
                        mean_field_damping=config.mean_field_damping,
                    )
                model = apply_update(model, acc, config, epoch)
                if acc.last_recon_error is not None:
                    errors.append(acc.last_recon_error)
            _guard(model.parameter_arrays(), epoch)
            entry = {
                "epoch": epoch,
                "lr": config.learning_rate(epoch),
                "recon_error": float(np.mean(errors)) if errors else float("nan"),
                "exact_log_loss": None,
                "wall_time": time.perf_counter() - started,
            }
            if exact_loss:
                log_z = brute_force_log_partition(model, budget=budget)
                entry["exact_log_loss"] = average_log_loss(
                    epoch_data, lambda rows: model.log_unnorm_visible(rows) - log_z
                )
                recent_losses.append(entry["exact_log_loss"])
                window = recent_losses[-11:]
                if len(window) == 11 and window[-1] > window[0] + 1.0:
                    raise TrainingDiverged(
                        f"log-loss worsened by more than 1 bit over 10 epochs "
                        f"(epoch {epoch})"
                    )
            diagnostics.append(entry)
            if writer is not None:
                writer.writerow(
                    [
                        entry["epoch"],
                        f"{entry['lr']:.10g}",
                        f"{entry['recon_error']:.10g}",
                        "" if entry["exact_log_loss"] is None else f"{entry['exact_log_loss']:.10g}",
                        f"{entry['wall_time']:.6f}",
                    ]
                )
    finally:
        if log_file is not None:
            log_file.close()
    return model, diagnostics


def init_srbm_from_grbm(grbm, n_hidden):
    """Second layer whose visible marginal equals the first layer's hidden
    marginal, exactly.

    The Gaussian layer's hidden marginal is, up to a constant,
    exp(c'y + b'Wy/s + |Wy|^2 / 2).  For binary y, y_i^2 = y_i, so the
    quadratic splits into off-diagonal couplings and a linear part:
    |Wy|^2 / 2 = y'(W'W)y / 2 = y'L y / 2 + diag(W'W)'y / 2 with L the
    zero-diagonal part of W'W.  A lateral-connected layer with zero
    weights, lateral matrix L and visible bias c + W'b/s + diag(W'W)/2
    therefore has exactly this visible marginal, whatever its hidden
    biases; they are set to -1 as in fresh initialization.
    """
    if grbm.variant != GRBM:
        raise ModelError("initialization trick needs a gaussian first layer")
    gram = grbm.weights.T @ grbm.weights
    lateral = gram.copy()
    np.fill_diagonal(lateral, 0.0)
    lateral = 0.5 * (lateral + lateral.T)
    np.fill_diagonal(lateral, 0.0)
    visible_bias = (
        grbm.hidden_bias
        + grbm.weights.T @ grbm.visible_bias / grbm.sigma
        + 0.5 * np.diag(gram)
    )
    weights = np.zeros((grbm.n_hidden, n_hidden))
    hidden_bias = np.full(n_hidden, -1.0)
    return Srbm(weights, visible_bias, hidden_bias, lateral)


@dataclass
class LayerSpec:
    """One layer of a stack to train: its variant, size and initial weight scale.

    A gaussian layer needs a ``sigma``, or ``sigma_candidates`` for
    ``choose_sigma`` to pick one from by ``sigma_folds``-fold
    cross-validation.
    """

    variant: str
    n_hidden: int
    sigma: float = None
    weight_scale: float = 0.01
    sigma_candidates: tuple = ()
    sigma_folds: int = 3

    def __post_init__(self):
        if self.variant not in LAYER_CLASSES:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {', '.join(LAYER_CLASSES)}"
            )
        if self.n_hidden < 1:
            raise ValueError("a layer needs at least one hidden unit")
        if self.sigma_candidates:
            check_cross_validation(self.sigma_candidates, self.sigma_folds)
        elif self.variant == GRBM and self.sigma is None:
            raise ValueError("a gaussian layer needs a sigma or sigma_candidates")
        if self.sigma is not None and not is_gaussian_scale(self.sigma):
            raise ValueError("sigma must be positive, with sigma**2 finite and nonzero")
        # larger initial weights would already count as diverged
        if not (0 <= self.weight_scale <= RUNAWAY):
            raise ValueError(f"weight_scale must lie in [0, {RUNAWAY:g}]")


def check_stack(layer_specs):
    """train_dbn_greedy's rule on the order of its layers."""
    if any(spec.variant == GRBM for spec in layer_specs[1:]):
        raise ValueError("gaussian layers are only valid at the bottom")


def choose_sigma(spec, data, config, seed=0):
    """``spec`` with the sigma that cross-validation picks from its candidates.

    Only a gaussian layer with ``sigma_candidates`` is cross-validated;
    each candidate trains the layer alone on the other folds and scores
    its exact log-loss on the held-out fold, enumerating log Z under
    models.DEFAULT_ENUM_BUDGET, not [estimator] enum_budget.  Returns the
    spec and the table of ``baselines.cross_validate_sigma`` (empty when
    nothing was cross-validated).
    """
    if spec.variant != GRBM or not spec.sigma_candidates:
        return spec, []

    def scorer(sigma, train, val, rng):
        stack, _ = train_dbn_greedy([replace(spec, sigma=sigma)], train, [config])
        model = stack.layers[0]
        log_z = brute_force_log_partition(model)
        return average_log_loss(val, lambda rows: model.log_unnorm_visible(rows) - log_z)

    sigma, table = cross_validate_sigma(
        spec.sigma_candidates, data, spec.sigma_folds, scorer, seed=seed
    )
    return replace(spec, sigma=sigma), table


def train_dbn_greedy(layer_specs, data, configs, log_dir=None):
    """Greedy layer-wise training of a stack.

    The first layer trains on the data; each higher layer trains on
    binary representations obtained by conditionally sampling through the
    already-trained layers, redrawn fresh every epoch.  When a gaussian
    first layer is followed by a lateral-connected layer, the second layer
    starts from the marginal-matching initialization instead of random
    weights.  Lower layers are never revisited.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if len(layer_specs) != len(configs):
        raise ValueError("need one config per layer spec")
    check_stack(layer_specs)
    trained = []
    all_diagnostics = []
    for idx, (spec, config) in enumerate(zip(layer_specs, configs)):
        n_visible = data.shape[1] if idx == 0 else trained[-1].n_hidden
        init_rng = RngStream(config.seed).substream(idx, 7)
        if (
            idx > 0
            and trained[-1].variant == GRBM
            and spec.variant == SRBM
        ):
            model = init_srbm_from_grbm(trained[-1], spec.n_hidden)
        else:
            model = initialize_layer(
                spec.variant,
                n_visible,
                spec.n_hidden,
                init_rng,
                sigma=spec.sigma,
                weight_scale=spec.weight_scale,
            )
        if idx == 0:
            provider = None
            layer_data = data
        else:
            lower = list(trained)

            def provider(epoch, _lower=lower, _seed=config.seed, _idx=idx):
                rng = RngStream(_seed).substream(_idx, 11, epoch)
                current = data
                for layer in _lower:
                    current = layer.sample_hidden(current, rng)
                return current

            # train_layer draws every epoch's input, epoch 0's included
            layer_data = None
        log_path = None
        if log_dir is not None:
            log_path = f"{log_dir}/train_layer_{idx:02d}.csv"
        model, diag = train_layer(
            model,
            layer_data,
            config,
            data_provider=provider,
            log_path=log_path,
        )
        trained.append(model)
        all_diagnostics.append(diag)
    return DbnModel(trained), all_diagnostics
