"""Annealed importance sampling and Monte Carlo likelihood estimation.

The estimators here combine three ingredients:

* AIS runs against a zero-weight base model give partition-function
  estimates, and their retained samples and weights are reused to
  estimate unnormalized hidden marginals where no analytic form exists.
* The stack likelihood estimator draws hidden states feed-forward through
  the conditional distributions and averages the resulting density
  ratios: log p(x0) is estimated as
  log q1*(x0) - log Z_top + logmeanexp_n sum_l [log q_{l+1}*(x_l) - log q_l*(x_l)].
* A variational lower bound and the reconstruction-based potential
  log-loss complete the evaluation toolbox.

Reported standard errors cover only the path-sampling variance; the
uncertainty of partition-function and marginal estimates is tracked
separately by the callers and never folded in silently.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dbn import average_log_loss, brute_force_log_likelihood, feed_forward_sample
from .models import (
    DEFAULT_ENUM_BUDGET,
    GRBM,
    RBM,
    SRBM,
    EnumerationBudgetError,
    ModelError,
    binary_states,
    brute_force_hidden_marginal_srbm,
    brute_force_log_partition,
    enumeration_bits,
)
from .numerics import (
    LogEstimate,
    RngStream,
    bernoulli_entropy,
    monte_carlo_se,
    softplus_log,
)

# the largest number of chains in one AIS chunk (see run_ais)
AIS_CHUNK = 4096
# points per job of the path estimator's worker processes
PATH_BLOCK = 64
# cells (rows x components, 8 MB) of the potential log-loss's reused block
POTENTIAL_BLOCK = 2 ** 20

# the values evaluate_stack (and so the [estimator] config section) accepts
EXACT_CHOICES = ("auto", "on", "off")
MARGINAL_CHOICES = ("auto", "exact", "ais")


class EstimationError(RuntimeError):
    pass


def linear_betas(n_steps):
    """Equally spaced annealing weights 0 = beta_0 < ... < beta_K = 1."""
    if n_steps < 1:
        raise EstimationError("need at least one annealing step")
    return np.linspace(0.0, 1.0, n_steps + 1)


def fit_base_model(target, data=None):
    """Zero-weight model of the target's variant for use as an AIS base.

    Visible biases are fitted to the data base rates (binary) or mean and
    scale (gaussian) when data is given, improving the proposal overlap;
    hidden biases are zero, as AisSchedule requires of a base.
    """
    base = {k: np.zeros_like(v) for k, v in target.parameter_arrays().items()}
    if data is not None:
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if target.variant == GRBM:
            base["visible_bias"] = data.mean(axis=0)
            base["sigma"] = float(np.std(data)) or target.sigma
            if not np.isfinite(base["sigma"]):
                raise EstimationError("the data's scale is not finite; no AIS base fits it")
        else:
            rate = np.clip(data.mean(axis=0), 1e-3, 1.0 - 1e-3)
            base["visible_bias"] = np.log(rate) - np.log1p(-rate)
    return target.replace(**base)


def log_partition_zero_weight(model):
    """Exact log Z of a zero-weight (and zero-lateral) model."""
    if np.any(model.weights != 0.0):
        raise EstimationError("base model must have zero weights")
    if model.variant == SRBM and np.any(model.lateral != 0.0):
        raise EstimationError("base model must have zero lateral couplings")
    hidden = softplus_log(model.hidden_bias).sum()
    if model.variant == GRBM:
        return (
            0.5 * model.n_visible * np.log(2.0 * np.pi * model.sigma ** 2) + hidden
        )
    return softplus_log(model.visible_bias).sum() + hidden


@dataclass
class AisSchedule:
    """Annealing schedule: weights, chain count and the base distribution."""

    betas: np.ndarray
    n_chains: int
    base_model: object

    def __post_init__(self):
        self.betas = np.ascontiguousarray(self.betas, dtype=np.float64)
        if self.betas.ndim != 1 or self.betas.size < 2:
            raise EstimationError("schedule needs at least the two endpoints")
        if self.betas[0] != 0.0 or self.betas[-1] != 1.0:
            raise EstimationError("annealing weights must start at 0 and end at 1")
        if np.any(np.diff(self.betas) < 0):
            raise EstimationError("annealing weights must be nondecreasing")
        if np.any((self.betas < 0) | (self.betas > 1)):
            raise EstimationError("annealing weights must lie in [0, 1]")
        if self.n_chains < 1:
            raise EstimationError("need at least one chain")
        # the kernels leave out the base hidden units' softplus terms, which
        # cancel between annealing weights only when these biases are zero
        if np.any(self.base_model.hidden_bias != 0.0):
            raise EstimationError("base model must have zero hidden biases")


@dataclass
class AisRun:
    """Result of one AIS pass: weights, near-target samples, log Z estimate."""

    log_weights: np.ndarray
    final_samples: np.ndarray
    log_z_base: float
    log_z_estimate: LogEstimate
    n_betas: int
    workers: int = 1  # processes that ran the chains; 1 is this process

    def __post_init__(self):
        if self.log_weights.shape[0] != self.final_samples.shape[0]:
            raise EstimationError("weight and sample counts disagree")


def _map_in_processes(fn, jobs, threads, what):
    """``([fn(job) for job in jobs], workers)``: the one place that decides
    worker processes.  ``threads`` None means the CPU affinity set; there is
    never more than one worker a job, and a single worker is this process.
    ``fn`` must be a private module-level function: it is pickled by name,
    which a traced (wrapped) public one cannot be.  A worker that dies
    raises EstimationError naming ``what``."""
    if threads is None:
        threads = len(os.sched_getaffinity(0))
    if threads < 1:
        raise EstimationError(f"threads must be at least 1, not {threads}")
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs], 1
    # the jobs' many small numpy calls hold the interpreter lock, so only
    # processes run them in parallel.  fork, not spawn: a spawned worker
    # re-imports the caller's main module, which a script without a
    # __main__ guard cannot survive; a worker touches only its job
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            return list(pool.map(fn, jobs)), workers
    except BrokenProcessPool as exc:
        raise EstimationError(f"{what} worker process died: {exc}") from exc


def _chain_chunk(job):
    """One chunk of chains; ``job`` is (target, base, betas, n_chains, rng)."""
    # looked up per call, so a wrapper set on a kernels attribute is the one called
    kernel = {RBM: kernels.ais_rbm, GRBM: kernels.ais_grbm, SRBM: kernels.ais_srbm}[job[0].variant]
    return kernel(*job)


def run_ais(target, schedule, rng, threads=None):
    """Annealed importance sampling toward ``target``.

    Chains start as exact samples of the zero-weight base and pass through
    the Gibbs transition of each intermediate augmented machine.  The n
    chains are split into ceil(n / AIS_CHUNK) chunks, rounded up to an even
    count when there are several, whose sizes differ by at most one (the
    demo's 20000 chains are 6 chunks of 3333-3334), so two workers get equal
    shares.  Chunk i draws from substream (9, i) and the split depends on n
    alone, so the result is byte-stable for a given stream whatever the
    number of worker processes: up to ``threads`` of them (None: one per
    CPU of the affinity set, forked) run the chunks when there are several,
    and a single chunk runs in this process.  A caller that runs threads of
    its own should pass ``threads=1``.  A worker that dies raises
    EstimationError.  Returns the weights, the final near-target samples,
    the log partition function estimate (weights plus the base's analytic
    log Z) and the worker count.
    """
    base = schedule.base_model
    if base.variant != target.variant:
        raise EstimationError(
            f"base variant {base.variant!r} does not match target {target.variant!r}"
        )
    if base.n_visible != target.n_visible:
        raise EstimationError("base and target visible dimensions differ")
    log_z_base = log_partition_zero_weight(base)

    n = schedule.n_chains
    count = -(-n // AIS_CHUNK)
    if 1 < count < n:
        count += count % 2
    jobs = [
        (target, base, schedule.betas, n // count + (i < n % count), rng.substream(9, i))
        for i in range(count)
    ]
    parts, workers = _map_in_processes(_chain_chunk, jobs, threads, "an AIS")

    log_w = np.concatenate([p[0] for p in parts])
    samples = np.concatenate([p[1] for p in parts], axis=0)
    est = monte_carlo_se(log_w)
    log_z = LogEstimate(est.log_value + log_z_base, est.standard_error, n)
    return AisRun(log_w, samples, log_z_base, log_z, schedule.betas.size, workers)


def _log_hidden_conditional_terms(target, samples):
    """log q(y_j = 1 | x) and log q(y_j = 0 | x) at the AIS samples."""
    act = target.hidden_activation(samples)
    return -softplus_log(-act), -softplus_log(act)


def estimate_unnorm_marginal_batch(run, target, states):
    """Importance-reweighted estimates of log q*(y) for rows of ``states``.

    Reuses the AIS samples and weights: q*(y) is the weighted average of
    q(y | x) over the retained samples, times the base partition function.
    Returns (values, relative standard errors).
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[1] != target.n_hidden:
        raise ModelError("state dimension does not match the hidden units")
    log_on, log_off = _log_hidden_conditional_terms(target, run.final_samples)
    values = np.empty(states.shape[0])
    errors = np.empty(states.shape[0])
    n = run.log_weights.size
    chunk = max(1, int(2 ** 22 // max(n, 1)))
    for lo in range(0, states.shape[0], chunk):
        y = states[lo : lo + chunk]
        log_cond = y @ log_on.T + (1.0 - y) @ log_off.T  # (rows, n_samples)
        combined = log_cond + run.log_weights[None, :]
        for i in range(y.shape[0]):
            est = monte_carlo_se(combined[i])
            values[lo + i] = est.log_value + run.log_z_base
            errors[lo + i] = est.standard_error
    return values, errors


class AnalyticMarginals:
    """Hidden marginals straight from the closed forms; refuses lateral layers."""

    def __init__(self, dbn):
        self.dbn = dbn

    def __call__(self, layer_index, states):
        layer = self.dbn.layers[layer_index]
        if layer.variant == SRBM:
            raise EstimationError(
                f"no marginal provider for the hidden side of layer "
                f"{layer_index} (lateral-connected); supply an enumeration or "
                f"AIS-backed provider"
            )
        return layer.log_unnorm_hidden(states)


class _TableMarginals:
    """Shared memoization: values are cached per exact state (its row bytes)."""

    def __init__(self, dbn):
        self.dbn = dbn
        self._tables = {}

    def _compute(self, layer_index, states):
        raise NotImplementedError

    def __call__(self, layer_index, states):
        layer = self.dbn.layers[layer_index]
        if layer.variant != SRBM:
            return layer.log_unnorm_hidden(states)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        table = self._tables.setdefault(layer_index, {})
        keys = [row.tobytes() for row in states]
        missing = {key: row for key, row in zip(keys, states) if key not in table}
        if missing:
            rows = np.array(list(missing.values()))
            # new states are computed in ascending binary index (last column
            # most significant), whatever order the call lists them in
            rows = rows[np.lexsort(rows.T)]
            for row, val in zip(rows, self._compute(layer_index, rows)):
                table[row.tobytes()] = float(val)
        return np.array([table[key] for key in keys])


class ExactMarginals(_TableMarginals):
    """Brute-force hidden marginals by visible enumeration, memoized."""

    def __init__(self, dbn, budget=DEFAULT_ENUM_BUDGET):
        super().__init__(dbn)
        self.budget = budget

    def _compute(self, layer_index, rows):
        return brute_force_hidden_marginal_srbm(
            self.dbn.layers[layer_index], rows, budget=self.budget
        )


class AisMarginals(_TableMarginals):
    """AIS-backed hidden marginals, one retained run per lateral layer.

    Tracks the relative standard error of every marginal it estimates so
    callers can report the marginal-estimation uncertainty alongside the
    path-sampling error instead of folding it in.
    """

    def __init__(self, dbn, runs):
        super().__init__(dbn)
        self.runs = dict(runs)
        self.standard_errors = []

    def _compute(self, layer_index, rows):
        if layer_index not in self.runs:
            raise EstimationError(
                f"no marginal provider for the hidden side of layer "
                f"{layer_index} (lateral-connected); supply an AIS run for it"
            )
        values, errors = estimate_unnorm_marginal_batch(
            self.runs[layer_index], self.dbn.layers[layer_index], rows
        )
        self.standard_errors.extend(float(e) for e in errors)
        return values

    def mean_standard_error(self):
        """Average relative SE over the distinct states estimated so far."""
        if not self.standard_errors:
            return 0.0
        return float(np.mean(self.standard_errors))


def estimate_dbn_log_likelihood(dbn, x0, n_is, marginal_provider, log_z_top, rng):
    """Consistent Monte Carlo estimate of log p(x0) for a layer stack.

    Hidden states are drawn feed-forward through the layer conditionals;
    each path accumulates the log ratio of the next layer's visible
    marginal to the current layer's hidden marginal, and the paths are
    averaged in the linear domain.  The returned standard error covers
    the path-sampling variance only.
    """
    if n_is < 1:
        raise EstimationError("need at least one importance sample")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1:
        raise EstimationError("x0 must be a single state vector")
    first = dbn.layers[0]
    base_term = float(first.log_unnorm_visible(x0)) - log_z_top.log_value
    if dbn.n_layers == 1:
        return LogEstimate(base_term, 0.0, n_is)

    current = np.broadcast_to(x0, (n_is, x0.size))
    log_w = np.zeros(n_is)
    for l in range(dbn.n_layers - 1):
        layer = dbn.layers[l]
        upper = dbn.layers[l + 1]
        current = np.atleast_2d(layer.sample_hidden(current, rng))
        log_w += upper.log_unnorm_visible(current) - marginal_provider(l, current)
    est = monte_carlo_se(log_w)
    return LogEstimate(base_term + est.log_value, est.standard_error, n_is)


def _path_block(job):
    """Estimates for consecutive points; ``job`` is
    (dbn, rows, first_index, n_is, marginal_provider, log_z_top, stream)."""
    dbn, rows, first, n_is, marginal_provider, log_z_top, stream = job
    return [
        estimate_dbn_log_likelihood(
            dbn, x, n_is, marginal_provider, log_z_top,
            stream.substream(13, first + k) if dbn.n_layers > 1 else None,
        )
        for k, x in enumerate(rows)
    ]


def estimate_dataset_log_likelihood(dbn, data, n_is, marginal_provider, log_z_top, stream,
                                    threads=None):
    """Per-sample estimates over a dataset, one RNG substream per sample,
    and the number of worker processes that drew them.

    Blocks of PATH_BLOCK points run in up to ``threads`` worker processes
    (None: the CPU affinity set) when the stack draws paths and its
    marginals are analytic, a pure function of the state.  Otherwise all
    points are one block, which runs in this process: the table providers
    fill their memo and standard errors here.  Every point keeps its
    substream, so the estimates are the same at any count.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    spread = isinstance(marginal_provider, AnalyticMarginals) and dbn.n_layers > 1
    block = PATH_BLOCK if spread else max(1, data.shape[0])
    jobs = [
        (dbn, data[lo : lo + block], lo, n_is, marginal_provider, log_z_top, stream)
        for lo in range(0, data.shape[0], block)
    ]
    parts, workers = _map_in_processes(_path_block, jobs, threads, "a path")
    return [e for part in parts for e in part], workers


@dataclass
class EvalResult:
    """Per-sample log p(x) estimates in nats with their path-sampling SEs, the
    top log Z, how it and the marginals were obtained (``ais``), and the
    brute-force values when the stack was enumerated.  ``stages`` holds the
    wall seconds of "log_z_top", each "ais_interface[<i>]", "paths" and
    "brute_force"; ``workers`` is the most worker processes any stage used."""

    log_values: np.ndarray
    standard_errors: np.ndarray
    log_z_top: LogEstimate
    ais: dict
    brute_force: np.ndarray | None
    stages: dict
    workers: int


def _anneal(target, data, n_betas, n_chains, rng, threads):
    """AIS toward ``target`` from a zero-weight base fitted to ``data``."""
    base = fit_base_model(target, data)
    schedule = AisSchedule(linear_betas(n_betas), n_chains, base)
    return run_ais(target, schedule, rng, threads=threads)


def check_choices(exact, marginals):
    """evaluate_stack's rule on its ``exact`` and ``marginals`` settings."""
    for name, value, choices in (("exact", exact, EXACT_CHOICES),
                                 ("marginals", marginals, MARGINAL_CHOICES)):
        if value not in choices:
            raise EstimationError(f"{name} must be one of {', '.join(choices)}, not {value!r}")


def evaluate_stack(stack, samples, *, n_is, n_betas, chains_top, chains_interface,
                   chains_first, exact, marginals, budget, seed, threads=None):
    """Estimate log p(x) for each row of ``samples``, choosing between
    enumeration and AIS for every ingredient.

    The top log Z is enumerated unless ``exact`` is "off" or its states
    exceed ``budget``; otherwise AIS runs ``chains_top`` chains
    (``chains_first`` for one layer).  Interior lateral layers' marginals
    are enumerated for ``marginals`` "exact", or "auto" within budget;
    otherwise one AIS run each supplies them.  Unless ``exact`` is "off",
    brute-force values are added when the stack is enumerable.  Beyond the
    budget, ``exact="on"`` and ``marginals="exact"`` raise
    EnumerationBudgetError; values outside EXACT_CHOICES and
    MARGINAL_CHOICES raise EstimationError.  ``threads`` caps the worker
    processes of each AIS run and of the path estimator (None: the CPU
    affinity set, forked; pass 1 from a caller that runs threads of its
    own), and changes no result.
    """
    check_choices(exact, marginals)
    stream = RngStream(seed)
    ais = {"n_betas": n_betas, "schedule": "linear", "exact_z": False}
    stages = {}
    workers = 1
    started = time.perf_counter()
    exact_z_possible = 2 ** enumeration_bits(stack.top) <= budget
    if exact == "on" and not exact_z_possible:
        raise EnumerationBudgetError("estimator.exact=on but the top layer is not enumerable")
    if exact != "off" and exact_z_possible:
        log_z_top = LogEstimate(brute_force_log_partition(stack.top, budget=budget), 0.0, 1)
        ais["exact_z"] = True
    else:
        top_data = ([samples] + feed_forward_sample(stack, samples, stream.substream(31, 0)))[-1]
        chains = chains_top if stack.n_layers > 1 else chains_first
        run = _anneal(stack.top, top_data, n_betas, chains, RngStream(seed, 41), threads)
        log_z_top = run.log_z_estimate
        workers = run.workers
        ais["chains_top"] = chains
    stages["log_z_top"] = time.perf_counter() - started

    interior_srbm = [i for i in range(stack.n_layers - 1) if stack.layers[i].variant == SRBM]
    if not interior_srbm:
        provider = AnalyticMarginals(stack)
    else:
        enumerable = all(2 ** enumeration_bits(stack.layers[i]) <= budget for i in interior_srbm)
        if marginals == "exact" or (marginals == "auto" and enumerable):
            if not enumerable:
                raise EnumerationBudgetError(
                    "estimator.marginals=exact but a lateral layer is not enumerable"
                )
            provider = ExactMarginals(stack, budget=budget)
            ais["marginals"] = "exact"
        else:
            runs = {}
            for i in interior_srbm:
                started = time.perf_counter()
                iface = ([samples] + feed_forward_sample(
                    stack, samples, stream.substream(31, 1 + i)))[i]
                runs[i] = _anneal(stack.layers[i], iface, n_betas, chains_interface,
                                  RngStream(seed, 42 + i), threads)
                workers = max(workers, runs[i].workers)
                stages[f"ais_interface[{i}]"] = time.perf_counter() - started
            provider = AisMarginals(stack, runs)
            ais["marginals"] = "ais"
            ais["chains_interface"] = chains_interface

    started = time.perf_counter()
    estimates, path_workers = estimate_dataset_log_likelihood(
        stack, samples, n_is, provider, log_z_top, RngStream(seed, 33), threads=threads
    )
    workers = max(workers, path_workers)
    if isinstance(provider, AisMarginals):
        ais["marginal_se_mean"] = provider.mean_standard_error()
    stages["paths"] = time.perf_counter() - started
    started = time.perf_counter()
    brute_force = None
    if exact != "off":
        try:
            brute_force = brute_force_log_likelihood(stack, samples, budget=budget)
        except EnumerationBudgetError:
            if exact == "on":
                raise
    stages["brute_force"] = time.perf_counter() - started
    log_values = np.array([e.log_value for e in estimates])
    ses = np.array([e.standard_error for e in estimates])
    return EvalResult(log_values, ses, log_z_top, ais, brute_force, stages, workers)


def estimate_lower_bound(dbn, x, n_samples, log_z_top, rng, exact=False):
    """Variational lower bound on log p(x) for a two-layer stack.

    Averages log r*(y) q(x | y) over y drawn from the factorial posterior
    of the first layer, adds the analytic Bernoulli entropy, and subtracts
    the top log partition function.  With ``exact=True`` the expectation
    is enumerated over all hidden states instead of sampled.
    """
    if dbn.n_layers != 2:
        raise EstimationError("the bound is defined for a two-layer view")
    first, top = dbn.layers
    if not hasattr(first, "log_visible_conditional"):
        raise EstimationError(
            "layer 1 must have an analytic visible conditional for the bound"
        )
    x = np.asarray(x, dtype=np.float64)
    p = np.atleast_1d(first.hidden_conditional(x))
    entropy = float(bernoulli_entropy(p))

    if exact:
        ys = binary_states(first.n_hidden)
        # floor keeps 0 * log(0) out of the dot products; such states get
        # weight exp(-736) == 0 anyway
        log_p = np.log(np.maximum(p, 1e-320))
        log_q = np.log(np.maximum(1.0 - p, 1e-320))
        weights = np.exp(ys @ log_p + (1.0 - ys) @ log_q)
        vals = top.log_unnorm_visible(ys) + first.log_visible_conditional(
            np.broadcast_to(x, (len(ys), x.size)), ys
        )
        keep = weights > 0
        expect = float(np.sum(weights[keep] * vals[keep]))
        se = 0.0
        n_used = int(keep.sum())
    else:
        if n_samples < 1:
            raise EstimationError("need at least one posterior sample")
        ys = (rng.random((n_samples, p.size)) < p).astype(np.float64)
        vals = top.log_unnorm_visible(ys) + first.log_visible_conditional(
            np.broadcast_to(x, (n_samples, x.size)), ys
        )
        expect = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
        n_used = n_samples
    return LogEstimate(expect + entropy - log_z_top.log_value, se, max(n_used, 1))


def estimate_potential_log_loss(layer1, eval_set, recon_set=None, k_recon=1, rng=None):
    """Reconstruction-mixture estimate of the best-case log-loss, in bits
    per component.

    Each reconstruction-set point contributes ``k_recon`` sampled hidden
    states; the model density is replaced by the uniform mixture of the
    visible conditionals at those states.  By default the evaluation set
    doubles as the reconstruction set, which deliberately encourages
    optimistic estimates.

    Every log q(x | y_k) is folded into x . A[:, k] + c[k] + r(x), so the
    mixture over K components costs one GEMM and one exp per row block.
    """
    if layer1.variant == SRBM:
        raise EstimationError("potential log-loss needs an analytic visible conditional")
    if k_recon < 1:
        raise EstimationError("need at least one reconstruction per point")
    eval_set = np.atleast_2d(np.asarray(eval_set, dtype=np.float64))
    recon = eval_set if recon_set is None else np.atleast_2d(
        np.asarray(recon_set, dtype=np.float64)
    )
    if eval_set.shape[0] == 0 or recon.shape[0] == 0:
        raise EstimationError("empty evaluation or reconstruction set")
    for name, rows in (("eval_set", eval_set), ("recon_set", recon)):
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise EstimationError(f"{name} row {int(np.argmax(bad))} is not finite")
    if rng is None:
        rng = RngStream(0).generator()

    probs = np.atleast_2d(layer1.hidden_conditional(recon))
    parts = []
    for _ in range(k_recon):
        parts.append((rng.random(probs.shape) < probs).astype(np.float64))
    components = np.concatenate(parts, axis=0)
    n_comp = components.shape[0]

    # r(x) = r_shift - r_scale |x|^2
    if layer1.variant == GRBM:
        # -|x - m|^2 / 2s^2 = x.m/s^2 - |m|^2/2s^2 - |x|^2/2s^2
        var = layer1.sigma ** 2
        means = layer1.visible_bias + layer1.sigma * (components @ layer1.weights.T)
        a = means.T / var
        c = -np.sum(means ** 2, axis=1) / (2.0 * var)
        r_scale, r_shift = 0.5 / var, -0.5 * layer1.n_visible * np.log(2.0 * np.pi * var)
    else:
        # x log sigmoid(act) + (1 - x) log sigmoid(-act) = x act - softplus(act)
        act = components @ layer1.weights.T + layer1.visible_bias
        a = act.T
        c = -np.sum(softplus_log(act), axis=1)
        r_scale, r_shift = 0.0, 0.0
    # a row-major right operand keeps the GEMM off a transposed BLAS path
    a = np.ascontiguousarray(a)
    step = max(1, POTENTIAL_BLOCK // n_comp)
    buf = np.empty((min(step, eval_set.shape[0]), n_comp))

    def evaluator(rows):
        out = np.empty(rows.shape[0])
        for lo in range(0, rows.shape[0], step):
            x = rows[lo : lo + step]
            block = buf[: x.shape[0]]
            np.matmul(x, a, out=block)
            block += c
            top = block.max(axis=1)
            block -= top[:, None]
            np.exp(block, out=block)
            r = r_shift - r_scale * np.sum(x * x, axis=1)
            out[lo : lo + step] = top + np.log(block.sum(axis=1)) - np.log(n_comp) + r
        return out

    return average_log_loss(eval_set, evaluator)
