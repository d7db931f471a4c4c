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

import ctypes
import glob
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

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
    conditional_terms,
    enumeration_bits,
    state_chunks,
    state_index,
)
from .numerics import (
    ENUM_BLOCK,
    LOG2,
    MAX_CELLS,
    LogEstimate,
    RngStream,
    bernoulli_entropy,
    bits_per_component,
    first_nonfinite_row,
    monte_carlo_se,
    monte_carlo_se_rows,
    softplus_log,
)

# the largest number of chains in one AIS chunk (see run_ais)
AIS_CHUNK = 4096
# points per job of the path estimator's worker processes
PATH_BLOCK = 64
# the most states (2^h) a path table covers: the widest interior layer a
# benchmark workload measures (rbm_paths' 10 units); a wider layer's paths
# are evaluated row by row
PATH_TABLE_STATES = 2 ** 10

# the values EstimatorSpec (and so the [estimator] config section) accepts
EXACT_CHOICES = ("auto", "on", "off")
MARGINAL_CHOICES = ("auto", "exact", "ais")


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class EstimatorSpec:
    """evaluate_stack's settings, with the defaults of ``dbnkit eval``; its
    fields are the [ais] and [estimator] config keys.  Each count of chains,
    annealing steps or paths is at most MAX_CELLS, so one that cannot run is
    refused before any work starts."""

    n_betas: int = 1000
    chains_top: int = 1000
    chains_interface: int = 100000
    chains_first: int = 100
    n_is: int = 100
    exact: str = "auto"
    marginals: str = "auto"
    enum_budget: int = DEFAULT_ENUM_BUDGET

    def __post_init__(self):
        for name, value in vars(self).items():
            choices = {"exact": EXACT_CHOICES, "marginals": MARGINAL_CHOICES}.get(name)
            if choices is None and value < 1:
                raise ValueError(f"{name} must be at least 1, not {value!r}")
            if name not in ("exact", "marginals", "enum_budget") and value > MAX_CELLS:
                raise ValueError(f"{name} must be at most {MAX_CELLS}, not {value!r}")
            if choices is not None and value not in choices:
                raise ValueError(f"{name} must be one of {', '.join(choices)}, not {value!r}")


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


def _map_in_processes(fn, jobs, threads, what, during=None):
    """``([fn(job) for job in jobs], workers)``: the one place that decides
    worker processes.  ``threads`` None means the CPU affinity set; there is
    never more than one worker a job, and a single worker is this process.
    ``fn`` must be a private module-level function: it is pickled by name,
    which a traced (wrapped) public one cannot be.  ``during``, a function
    of no arguments, runs in this process while the workers run the jobs,
    or before the jobs when they run here; an error it raises cancels the
    jobs not yet started and propagates, unchanged, once the workers have
    exited.  A worker that dies raises EstimationError naming ``what``."""
    if threads is None:
        threads = len(os.sched_getaffinity(0))
    if threads < 1:
        raise EstimationError(f"threads must be at least 1, not {threads}")
    workers = min(threads, len(jobs))
    if workers <= 1:
        if during:
            during()
        return [fn(job) for job in jobs], 1
    # the jobs' many small numpy calls hold the interpreter lock, so only
    # processes run them in parallel.  fork, not spawn: a spawned worker
    # re-imports the caller's main module, which a script without a
    # __main__ guard cannot survive; a worker touches only its job
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            results = pool.map(fn, jobs)  # every job is sent now
            if during:
                try:
                    during()
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
            return list(results), workers
    except BrokenProcessPool as exc:
        raise EstimationError(f"{what} worker process died: {exc}") from exc


def _openblas():
    """The thread-count (getter, setter) of each OpenBLAS bundled with numpy
    or scipy that this process has loaded, numpy's first; none where they
    are absent, as with a numpy built on another BLAS."""
    found = []
    site = Path(np.__file__).parent.parent
    for package in ("numpy", "scipy"):
        for path in glob.glob(str(site / f"{package}.libs" / "*openblas*")):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:  # not loaded: scipy's, before scipy.linalg is imported
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
                    break
    return found


@contextmanager
def _one_blas_thread():
    """The body runs with every loaded bundled OpenBLAS on one thread and
    restores their counts on exit: GEMM-heavy jobs in two or more workers
    otherwise oversubscribe the CPUs."""
    blas = _openblas()
    old = [get() for get, _ in blas]
    for _, put in blas:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(blas, old):
            put(count)


def _chain_chunk(job):
    """One chunk of chains; ``job`` is (target, base, betas, n_chains, rng)."""
    # looked up per call, so a wrapper set on a kernels attribute is the one called
    kernel = {RBM: kernels.ais_rbm, GRBM: kernels.ais_grbm, SRBM: kernels.ais_srbm}[job[0].variant]
    return kernel(*job)


def _chunk_count(n_chains):
    """The chunks run_ais splits ``n_chains`` chains into: ceil(n / AIS_CHUNK),
    rounded up to an even count when there are several."""
    count = -(-n_chains // AIS_CHUNK)
    return count + count % 2 if 1 < count < n_chains else count


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
    count = _chunk_count(n)
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


def estimate_unnorm_marginal_batch(run, target, states):
    """Importance-reweighted estimates of log q*(y) for rows of ``states``.

    Reuses the AIS samples and weights: q*(y) is the weighted average of
    q(y | x) over the retained samples, times the base partition function.
    The log terms of each state and sample are built in place for blocks of
    as many states as keep within ENUM_BLOCK cells (one state at least), so
    their memory does not grow with the number of states, and each block is
    summarized in one row-wise pass (``monte_carlo_se_rows``).
    Returns (values, relative standard errors).
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[1] != target.n_hidden:
        raise ModelError("state dimension does not match the hidden units")
    # log q(y_j = 1 | x) = -softplus(-act) and log q(y_j = 0 | x) =
    # -softplus(act) at the AIS samples, negated in place
    act = target.hidden_activation(run.final_samples)
    log_off = softplus_log(act)
    log_on = softplus_log(np.negative(act, out=act))
    del act
    np.negative(log_off, out=log_off)
    np.negative(log_on, out=log_on)
    values, errors = np.empty(states.shape[0]), np.empty(states.shape[0])
    step = max(1, ENUM_BLOCK // max(run.log_weights.size, 1))
    for lo in range(0, states.shape[0], step):
        y = states[lo : lo + step]
        # (y @ log_on.T + (1 - y) @ log_off.T) + log_w, in one buffer
        combined = y @ log_on.T
        combined += (1.0 - y) @ log_off.T
        combined += run.log_weights
        values[lo : lo + step], errors[lo : lo + step] = monte_carlo_se_rows(combined)
    return values + run.log_z_base, errors


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


def _exact_marginals(budget, layer, rows):
    """A lateral layer's log q*(rows) by visible enumeration, with zero SEs."""
    return brute_force_hidden_marginal_srbm(layer, rows, budget=budget), np.zeros(len(rows))


def _ais_marginals(run, layer, rows):
    """A lateral layer's log q*(rows) reweighted from its AIS run, with SEs;
    private, so a partial of it pickles even while the public one is traced."""
    return estimate_unnorm_marginal_batch(run, layer, rows)


class _TableMarginals:
    """The memoized marginal provider: ``computes`` maps a lateral layer's index
    to ``compute(layer, rows) -> (values, relative SEs)``, cached per state by
    its row bytes; new states are computed in ascending binary index (last
    column most significant).  Other layers take the closed form."""

    def __init__(self, dbn, computes):
        self.dbn = dbn
        self.computes = dict(computes)
        self._tables = {}
        self.standard_errors = {}  # layer index -> {state row bytes: relative SE}

    def __call__(self, layer_index, states):
        layer = self.dbn.layers[layer_index]
        if layer.variant != SRBM:
            return layer.log_unnorm_hidden(states)
        if layer_index not in self.computes:
            raise EstimationError(f"no marginal provider for the hidden side of layer "
                                  f"{layer_index} (lateral-connected); supply an AIS run for it")
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        table = self._tables.setdefault(layer_index, {})
        errors = self.standard_errors.setdefault(layer_index, {})
        keys = [row.tobytes() for row in states]
        missing = {key: row for key, row in zip(keys, states) if key not in table}
        if missing:
            rows = np.array(list(missing.values()))
            rows = rows[np.lexsort(rows.T)]
            values, ses = self.computes[layer_index](layer, rows)
            for key, val, se in zip(map(np.ndarray.tobytes, rows), values, ses):
                table[key], errors[key] = float(val), float(se)
        return np.array([table[key] for key in keys])

    def mean_standard_error(self, drawn):
        """Average relative SE over the distinct states the paths drew, by
        ``estimate_dataset_log_likelihood``'s ``drawn`` masks; a layer without
        a table (None) counts every state estimated for it, since its paths
        call the provider on their drawn rows."""
        errors = []
        for l, by_state in self.standard_errors.items():
            if drawn[l] is None:
                errors.extend(by_state.values())
                continue
            states = binary_states(self.dbn.layers[l].n_hidden, PATH_TABLE_STATES,
                                   "a path table")
            errors.extend(by_state[row.tobytes()] for row in states[drawn[l]])
        return float(np.mean(errors)) if errors else 0.0


def ExactMarginals(dbn, budget=DEFAULT_ENUM_BUDGET):
    """Every lateral layer's hidden marginals by visible enumeration, memoized."""
    compute = partial(_exact_marginals, budget)
    return _TableMarginals(dbn, dict.fromkeys(range(dbn.n_layers), compute))


def AisMarginals(dbn, runs):
    """Hidden marginals reweighted from one retained AIS run per lateral
    layer (``runs``: layer index -> AisRun), memoized with the relative SE of
    each, so callers can report the marginal-estimation uncertainty
    alongside the path-sampling error instead of folding it in."""
    return _TableMarginals(dbn, {l: partial(_ais_marginals, run) for l, run in runs.items()})


def _path_table(dbn, marginal_provider, l):
    """``(ratio, cond)`` over the 2^h states of layer ``l``'s hidden units, in
    ascending ``state_index`` order: ratio = log q_{l+1}*(s) - log q_l*(s) and
    cond = q_{l+1}(y = 1 | s) when layer l + 1 is interior (else None).
    None when 2^h exceeds PATH_TABLE_STATES.  The provider is called once, on
    all the states; its compute functions keep their own temporaries within
    ENUM_BLOCK cells."""
    h = dbn.layers[l].n_hidden
    if 2 ** h > PATH_TABLE_STATES:
        return None
    states = binary_states(h, PATH_TABLE_STATES, "a path table")
    upper = dbn.layers[l + 1]
    ratio = upper.log_unnorm_visible(states) - marginal_provider(l, states)
    return ratio, (upper.hidden_conditional(states) if l + 2 < dbn.n_layers else None)


def _visible_term(dbn, rows):
    """log q1*(x) for a state or rows of states: with log Z_top subtracted,
    the base term of every path estimate, and all of a one-layer stack's,
    which draws none."""
    return dbn.layers[0].log_unnorm_visible(rows)


def _path_block(job):
    """``(visible, log_means, ses, drawn)`` for consecutive points; ``job`` is
    (dbn, rows, first_index, n_is, marginal_provider, tables, stream).  Per
    point, ``visible`` holds its ``_visible_term`` and ``log_means`` and
    ``ses`` the monte_carlo_se of its path log weights (0 for a one-layer
    stack), so its estimate is (visible - log Z_top) + log mean.  Point i
    draws its paths from substream (13, i), one point at a time, into a row
    of a buffer of at most max(ENUM_BLOCK, n_is) cells; each full buffer is
    summarized in one row-wise pass.  ``drawn`` marks, per table, the states
    the paths reached (None for a layer without one)."""
    dbn, rows, first, n_is, marginal_provider, tables, stream = job
    if dbn.n_layers == 1:
        zeros = np.zeros(len(rows))
        return _visible_term(dbn, rows), zeros, zeros, []
    drawn = [None if table is None else np.zeros(len(table[0]), dtype=bool) for table in tables]
    visible, log_means, ses = np.empty(len(rows)), np.empty(len(rows)), np.empty(len(rows))
    buffer = np.empty((min(len(rows), max(1, ENUM_BLOCK // n_is)), n_is))
    for k, x0 in enumerate(rows):
        rng = stream.substream(13, first + k)
        visible[k] = _visible_term(dbn, x0)
        p = dbn.layers[0].hidden_conditional(x0)
        row = k % len(buffer)
        log_w = buffer[row]
        log_w.fill(0.0)
        for l, table in enumerate(tables):
            states = rng.random((n_is, dbn.layers[l].n_hidden)) < p
            if table is None:
                current = states.astype(np.float64)
                upper = dbn.layers[l + 1]
                log_w += upper.log_unnorm_visible(current) - marginal_provider(l, current)
                p = upper.hidden_conditional(current) if l + 2 < dbn.n_layers else None
            else:
                ratio, cond = table
                code = state_index(states)
                drawn[l][code] = True
                log_w += ratio[code]
                p = None if cond is None else cond[code]
        if row == len(buffer) - 1 or k == len(rows) - 1:
            done = slice(k - row, k + 1)
            log_means[done], ses[done] = monte_carlo_se_rows(buffer[: row + 1])
    return visible, log_means, ses, drawn


def estimate_dataset_log_likelihood(dbn, data, n_is, marginal_provider, log_z_top, stream,
                                    threads=None):
    """Consistent Monte Carlo estimates of log p(x) for each row of ``data``
    (a point is a one-row dataset), the worker processes that drew them, and
    per interior layer a boolean mask of its table's states that some path
    drew (None for a layer without a table).

    Each point averages n_is feed-forward paths of density ratios in the
    linear domain, and its SE covers that sampling only.  Point i draws from
    substream (13, i), so the estimates are the same at any worker count.
    Each interior layer within PATH_TABLE_STATES is tabulated once per call
    (``_path_table``); a wider one is evaluated on each path's rows.  Blocks
    of PATH_BLOCK points run in up to ``threads`` worker processes (None: the
    CPU affinity set), except for a one-layer stack, one evaluation of its
    visible marginal, or a lateral interior layer without a table, whose
    provider fills its memo: their points are one block in this process.

    ``log_z_top`` is a LogEstimate, or a function of no arguments that
    returns one.  The paths do not depend on it, so such a function is
    called in this process while the workers draw (before the paths, when
    they are drawn here); it runs beside the pool's thread, so it should
    fork no processes of its own.  Each point's estimate is
    (log q1*(x) - log Z_top) + its path log mean.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[0] == 0:
        raise EstimationError("no points to estimate")
    if n_is < 1:
        raise EstimationError("need at least one importance sample")
    tables = [_path_table(dbn, marginal_provider, l) for l in range(dbn.n_layers - 1)]
    spread = dbn.n_layers > 1 and not any(
        table is None and dbn.layers[l].variant == SRBM for l, table in enumerate(tables))
    block = PATH_BLOCK if spread else data.shape[0]
    # only a layer without a table calls the provider, which can be large to send
    provider = marginal_provider if None in tables else None
    jobs = [
        (dbn, data[lo : lo + block], lo, n_is, provider, tables, stream)
        for lo in range(0, data.shape[0], block)
    ]
    top = log_z_top if callable(log_z_top) else lambda: log_z_top
    got = []
    parts, workers = _map_in_processes(_path_block, jobs, threads, "a path",
                                       during=lambda: got.append(top()))
    visible, log_means, ses = (np.concatenate([part[i] for part in parts]) for i in range(3))
    values = (visible - got[0].log_value) + log_means
    drawn = [None if table is None else np.any([part[3][l] for part in parts], axis=0)
             for l, table in enumerate(tables)]
    estimates = [LogEstimate(v, se, n_is) for v, se in zip(values.tolist(), ses.tolist())]
    return estimates, workers, drawn


@dataclass
class EvalResult:
    """Per-sample log p(x) estimates in nats with their path-sampling SEs, the
    top log Z, how it and the marginals were obtained (``ais``), the
    brute-force values when the stack was enumerated, and the paths per point
    ``n_is``.  With AIS marginals, ``ais["marginal_se_mean"]`` averages the
    relative SE of the distinct states the paths drew
    (``_TableMarginals.mean_standard_error``).  ``stages`` holds the wall seconds
    of "log_z_top", each "ais_interface[<i>]", "paths" and "brute_force";
    ``workers`` is the most worker processes any stage used.  A density's
    result (``evaluate_density``) has zero SEs, None for the stack's fields
    and the one stage "log_density"."""

    log_values: np.ndarray
    standard_errors: np.ndarray
    log_z_top: LogEstimate | None
    ais: dict | None
    brute_force: np.ndarray | None
    stages: dict
    workers: int
    n_is: int | None


def _anneal(target, data, n_betas, n_chains, rng, threads):
    """AIS toward ``target`` from a zero-weight base fitted to ``data``."""
    base = fit_base_model(target, data)
    schedule = AisSchedule(linear_betas(n_betas), n_chains, base)
    return run_ais(target, schedule, rng, threads=threads)


def evaluate_stack(stack, samples, spec, *, seed, threads=None):
    """Estimate log p(x) for each row of ``samples``, choosing between
    enumeration and AIS for every ingredient by the EstimatorSpec ``spec``.

    The top log Z is enumerated unless ``exact`` is "off" or its states
    exceed ``enum_budget``; otherwise AIS runs ``chains_top`` chains
    (``chains_first`` for one layer).  Interior lateral layers' marginals
    are enumerated for ``marginals`` "exact", or "auto" within budget;
    otherwise one AIS run of ``chains_interface`` chains each supplies
    them.  Every AIS run takes ``n_betas`` steps and each point averages
    ``n_is`` paths.  Unless ``exact`` is "off", brute-force values are added
    when the stack is enumerable.  Beyond the budget, ``exact="on"`` and
    ``marginals="exact"`` raise EnumerationBudgetError.  ``threads`` caps
    the worker processes of each AIS run and of the path estimator (None:
    the CPU affinity set, forked; pass 1 from a caller that runs threads of
    its own), and changes no result.  An annealed top log Z of one
    ``run_ais`` chunk under more than one layer runs in this process while
    the path workers draw, so its "log_z_top" stage lies within "paths".
    The EvalResult carries ``n_is`` for ``report_fields``;
    ``evaluate_density`` makes one for a baseline density.
    """
    stream = RngStream(seed)
    budget = spec.enum_budget
    ais = {"n_betas": spec.n_betas, "schedule": "linear", "exact_z": False}
    stages = {"log_z_top": 0.0}
    workers = 1
    started = time.perf_counter()
    exact_z_possible = 2 ** enumeration_bits(stack.top) <= budget
    if spec.exact == "on" and not exact_z_possible:
        raise EnumerationBudgetError("estimator.exact=on but the top layer is not enumerable")
    top_runs = []
    if spec.exact != "off" and exact_z_possible:
        log_z_top = LogEstimate(brute_force_log_partition(stack.top, budget=budget), 0.0, 1)
        ais["exact_z"] = True
        stages["log_z_top"] = time.perf_counter() - started
    else:
        chains = spec.chains_top if stack.n_layers > 1 else spec.chains_first
        ais["chains_top"] = chains

        def anneal_top(threads):
            started = time.perf_counter()
            top_data = ([samples] + feed_forward_sample(stack, samples,
                                                        stream.substream(31, 0)))[-1]
            top_runs.append(_anneal(stack.top, top_data, spec.n_betas, chains,
                                    RngStream(seed, 41), threads))
            stages["log_z_top"] = time.perf_counter() - started
            return top_runs[0].log_z_estimate

        # one chunk would run in this process anyway: it runs while the path
        # workers draw.  Several keep their own map: on rbm_paths (2 CPUs),
        # running them all here beside the paths made eval 1.51 -> 1.80 s at
        # 8192 chains and 2.24 -> 3.15 s at 16384 (medians of 10 pairs)
        if stack.n_layers > 1 and _chunk_count(chains) == 1:
            log_z_top = partial(anneal_top, 1)
        else:
            log_z_top = anneal_top(threads)

    interior_srbm = [i for i in range(stack.n_layers - 1) if stack.layers[i].variant == SRBM]
    if not interior_srbm:
        provider = AnalyticMarginals(stack)
    else:
        enumerable = all(2 ** enumeration_bits(stack.layers[i]) <= budget for i in interior_srbm)
        if spec.marginals == "exact" or (spec.marginals == "auto" and enumerable):
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
                runs[i] = _anneal(stack.layers[i], iface, spec.n_betas, spec.chains_interface,
                                  RngStream(seed, 42 + i), threads)
                workers = max(workers, runs[i].workers)
                stages[f"ais_interface[{i}]"] = time.perf_counter() - started
            provider = AisMarginals(stack, runs)
            ais["marginals"] = "ais"
            ais["chains_interface"] = spec.chains_interface

    started = time.perf_counter()
    estimates, path_workers, drawn = estimate_dataset_log_likelihood(
        stack, samples, spec.n_is, provider, log_z_top, RngStream(seed, 33), threads=threads
    )
    if top_runs:
        log_z_top = top_runs[0].log_z_estimate
        workers = max(workers, top_runs[0].workers)
    workers = max(workers, path_workers)
    if ais.get("marginals") == "ais":
        ais["marginal_se_mean"] = provider.mean_standard_error(drawn)
    stages["paths"] = time.perf_counter() - started
    started = time.perf_counter()
    brute_force = None
    if spec.exact != "off":
        try:
            brute_force = brute_force_log_likelihood(stack, samples, budget=budget)
        except EnumerationBudgetError:
            if spec.exact == "on":
                raise
    stages["brute_force"] = time.perf_counter() - started
    log_values = np.array([e.log_value for e in estimates])
    ses = np.array([e.standard_error for e in estimates])
    return EvalResult(log_values, ses, log_z_top, ais, brute_force, stages, workers, spec.n_is)


def evaluate_density(model, samples):
    """An exact EvalResult of a normalized density, such as a baseline, on ``samples``."""
    started = time.perf_counter()
    log_values = model.log_density(samples)
    stages = {"log_density": time.perf_counter() - started}
    return EvalResult(log_values, np.zeros_like(log_values), None, None, None, stages, 1, None)


def _sig7(name, x):
    """``x`` to 7 significant digits; a report cannot hold a non-finite one."""
    if not np.isfinite(x):
        raise EstimationError(f"{name} is not finite ({x})")
    return float(f"{x:.7g}")


def report_fields(result, dim):
    """Every number of ``dbnkit eval``'s report for an EvalResult of
    ``dim``-component points: bits per component, each point's log2 p(x), the
    path SE in bits per component, and a stack's ``n_is``, top log Z, ``ais``
    and brute-force bits.  Other floats than the points' keep 7 significant
    digits, and a non-finite one raises EstimationError naming its field."""
    values, z = result.log_values, result.log_z_top
    se_path = float(np.sqrt(np.sum(result.standard_errors ** 2)) / len(values) / (LOG2 * dim))
    fields = {"dim": dim, "n_samples": len(values), "se_path_bits": _sig7("se_path_bits", se_path)}
    if z is None:
        fields["exact_density"] = True
    else:
        # the float entries of ais (marginal_se_mean) are Monte Carlo summaries too
        fields |= {"n_is": result.n_is, "log_z_top": _sig7("log_z_top", z.log_value),
                   "se_log_z": _sig7("se_log_z", z.standard_error),
                   "ais": {k: _sig7(f"ais.{k}", v) if isinstance(v, float) else v
                           for k, v in result.ais.items()}}
    for name, log_values in (("brute_force_bits", result.brute_force),
                             ("bits_per_component", values)):
        if log_values is not None:
            fields[name] = _sig7(name, bits_per_component(log_values, dim))
    fields["per_sample_log2"] = [float(v / LOG2) if np.isfinite(v) else None for v in values]
    return fields


def trial_summary(reports):
    """``(mean, sem, true_mean)`` of repeated evaluations' bits per component;
    ``true_mean`` averages their brute-force bits, None unless all have them."""
    bits = np.array([r["bits_per_component"] for r in reports])
    sem = float(bits.std(ddof=1) / np.sqrt(len(bits))) if len(bits) > 1 else 0.0
    trues = [r.get("brute_force_bits") for r in reports]
    return bits.mean(), sem, (np.mean(trues) if None not in trues else None)


def estimate_lower_bound(dbn, x, n_samples, log_z_top, rng, exact=False):
    """Variational lower bound on log p(x) for a two-layer stack.

    Averages log r*(y) q(x | y) over y drawn from the factorial posterior
    of the first layer (q(x | y) enumerated for a lateral one), adds the
    analytic Bernoulli entropy, and subtracts the top log partition function.  With ``exact=True`` the expectation
    is enumerated over all hidden states instead of sampled, in blocks;
    more than DEFAULT_ENUM_BUDGET states raise EnumerationBudgetError.
    """
    if dbn.n_layers != 2:
        raise EstimationError("the bound is defined for a two-layer view")
    first, top = dbn.layers
    x = np.asarray(x, dtype=np.float64)
    p = np.atleast_1d(first.hidden_conditional(x))
    entropy = float(bernoulli_entropy(p))

    if exact:
        # floor keeps 0 * log(0) out of the dot products; such states get
        # weight exp(-736) == 0 anyway
        log_p = np.log(np.maximum(p, 1e-320))
        log_q = np.log(np.maximum(1.0 - p, 1e-320))
        expect, se, n_used = 0.0, 0.0, 0
        for ys in state_chunks(first.n_hidden, DEFAULT_ENUM_BUDGET, "the exact lower bound"):
            weights = np.exp(ys @ log_p + (1.0 - ys) @ log_q)
            vals = top.log_unnorm_visible(ys) + first.log_visible_conditional(x, ys)
            keep = weights > 0
            expect += float(np.sum(weights[keep] * vals[keep]))
            n_used += int(keep.sum())
    else:
        if n_samples < 1:
            raise EstimationError("need at least one posterior sample")
        ys = (rng.random((n_samples, p.size)) < p).astype(np.float64)
        vals = top.log_unnorm_visible(ys) + first.log_visible_conditional(x, ys)
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

    Every log q(x | y_k) is x . A[:, k] + c[k] + r(x) (``conditional_terms``,
    which enumerates a lateral layer's c), so the mixture over K components
    costs one GEMM and one exp per block of at most ENUM_BLOCK cells (one
    row at least).
    """
    if k_recon < 1:
        raise EstimationError("need at least one reconstruction per point")
    eval_set = np.atleast_2d(np.asarray(eval_set, dtype=np.float64))
    recon = eval_set if recon_set is None else np.atleast_2d(
        np.asarray(recon_set, dtype=np.float64)
    )
    if eval_set.shape[0] == 0 or recon.shape[0] == 0:
        raise EstimationError("empty evaluation or reconstruction set")
    for name, rows in (("eval_set", eval_set), ("recon_set", recon)):
        bad = first_nonfinite_row(rows)
        if bad is not None:
            raise EstimationError(f"{name} row {bad} is not finite")
    if rng is None:
        rng = RngStream(0).generator()

    probs = np.atleast_2d(layer1.hidden_conditional(recon))
    components = np.concatenate(
        [(rng.random(probs.shape) < probs).astype(np.float64) for _ in range(k_recon)])
    n_comp = components.shape[0]

    a, c, r = conditional_terms(layer1, components)
    step = max(1, ENUM_BLOCK // n_comp)
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
            out[lo : lo + step] = top + np.log(block.sum(axis=1)) - np.log(n_comp) + r(x)
        return out

    return average_log_loss(eval_set, evaluator)
