"""Mixture-model baselines: full-covariance Gaussian, mixtures of isotropic
Gaussians with shared scale (means free), and zero-mean mixtures with free
covariances, trained by EM."""

import copy
import logging
import math
import pickle
from dataclasses import dataclass

import numpy as np

from . import estimation
from .numerics import bits_per_component, is_gaussian_scale
from .storage import read_model, write_model

logger = logging.getLogger(__name__)


class BaselineError(ValueError):
    pass


def _check_sigma(sigma, what="sigma"):
    if not is_gaussian_scale(sigma):
        raise BaselineError(
            f"{what} must be positive, with sigma**2 finite and nonzero, not {sigma!r}"
        )


# scipy is imported by the two full-covariance helpers, on first use: it
# takes about half of a process's start, and only the gaussian and mog
# densities need it.
def _chol_logdet(cov):
    import scipy.linalg

    try:
        chol = scipy.linalg.cholesky(cov, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise BaselineError(f"covariance is not positive definite: {exc}") from exc
    return chol, 2.0 * np.sum(np.log(np.diag(chol)))


def _solve_lower(chol, b):
    """chol^-1 b for a lower-triangular Cholesky factor."""
    import scipy.linalg

    return scipy.linalg.solve_triangular(chol, b, lower=True)


class _Baseline:
    """Fields of a baseline density, as ``storage`` writes and reads them:
    ``parameter_arrays()`` names the fitted arrays in a fixed order and
    ``settings()`` the fixed constructor values."""

    variant = None

    def settings(self):
        return {}

    def _check_finite(self):
        if not all(np.isfinite(arr).all() for arr in self.parameter_arrays().values()):
            raise BaselineError(f"{self.variant} parameters must be finite")


class GaussianModel(_Baseline):
    """Multivariate Gaussian with full covariance."""

    variant = "gaussian"

    def __init__(self, mean, covariance):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.covariance = np.asarray(covariance, dtype=np.float64)
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise BaselineError("covariance shape does not match the mean")
        self._check_finite()
        self._chol, self._logdet = _chol_logdet(self.covariance)

    @property
    def dim(self):
        return self.mean.size

    def parameter_arrays(self):
        return {"mean": self.mean, "covariance": self.covariance}

    def log_density(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.dim:
            raise BaselineError("dimension mismatch")
        sol = _solve_lower(self._chol, (x - self.mean).T)
        maha = np.sum(sol ** 2, axis=0)
        out = -0.5 * (maha + self._logdet + self.dim * np.log(2.0 * np.pi))
        return out


class _Mixture(_Baseline):
    """What the two mixtures share: mixing weights over component densities.

    log w_k + log p_k(x) is split into ``shared_log_density(x)``, the part
    every component shares, and the rest, which ``fill_scores`` writes into
    a component-major ``(k, n)`` array.  The shared part cancels in the
    responsibilities, so EM computes it once per fit.
    """

    @property
    def n_components(self):
        return self.weights.size

    def log_density(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        scores = np.empty((self.n_components, x.shape[0]))
        self.fill_scores(np.ascontiguousarray(x.T), scores)
        total, top = _exp_scores(scores)
        return np.log(total) + top + self.shared_log_density(x)


def _exp_scores(scores):
    """exp(score - column max) in place over ``(k, n)`` scores; returns the
    column sums and maxima (log sum + max is the column's log-sum-exp)."""
    top = scores.max(axis=0)
    scores -= top
    np.exp(scores, out=scores)
    return np.ones(scores.shape[0]) @ scores, top


class MoigModel(_Mixture):
    """Mixture of isotropic Gaussians: free means, one shared scale."""

    variant = "moig"

    def __init__(self, means, sigma, weights):
        self.means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        self.sigma = float(sigma)
        self.weights = np.asarray(weights, dtype=np.float64)
        _check_sigma(self.sigma)
        _check_simplex(self.weights, self.means.shape[0])
        self._check_finite()

    @property
    def dim(self):
        return self.means.shape[1]

    def parameter_arrays(self):
        return {"means": self.means, "weights": self.weights}

    def settings(self):
        return {"sigma": self.sigma}

    def shared_log_density(self, x):
        var = self.sigma ** 2
        return -np.sum(x ** 2, axis=1) / (2.0 * var) - 0.5 * self.dim * np.log(2.0 * np.pi * var)

    def fill_scores(self, xt, out):
        """log w_k + mu_k.x / sigma^2 - |mu_k|^2 / 2 sigma^2: one GEMM."""
        var = self.sigma ** 2
        np.matmul(self.means / var, xt, out=out)
        out += (np.log(self.weights) - np.sum(self.means ** 2, axis=1) / (2.0 * var))[:, None]


class MogModel(_Mixture):
    """Mixture of zero-mean Gaussians with free covariances."""

    variant = "mog"

    def __init__(self, covariances, weights):
        self.covariances = np.asarray(covariances, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.covariances.ndim != 3:
            raise BaselineError("need a (K, D, D) covariance stack")
        _check_simplex(self.weights, self.covariances.shape[0])
        self._check_finite()
        self._chols = []
        self._logdets = []
        for cov in self.covariances:
            chol, logdet = _chol_logdet(cov)
            self._chols.append(chol)
            self._logdets.append(logdet)

    @property
    def dim(self):
        return self.covariances.shape[1]

    def parameter_arrays(self):
        return {"covariances": self.covariances, "weights": self.weights}

    def shared_log_density(self, x):
        return -0.5 * self.dim * np.log(2.0 * np.pi)

    def fill_scores(self, xt, out):
        """log w_k - (x' C_k^-1 x + log det C_k) / 2, a triangular solve each."""
        for k, (chol, logdet, log_w) in enumerate(
                zip(self._chols, self._logdets, np.log(self.weights))):
            sol = _solve_lower(chol, xt)
            out[k] = log_w - 0.5 * (np.sum(sol ** 2, axis=0) + logdet)


BASELINE_CLASSES = {cls.variant: cls for cls in (GaussianModel, MoigModel, MogModel)}


def _check_simplex(weights, k):
    if weights.shape != (k,):
        raise BaselineError("one mixing weight per component")
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-8:
        raise BaselineError("mixing weights must be positive and sum to one")


def average_log_loss_bits(model, data):
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    return bits_per_component(model.log_density(data), data.shape[1])


def default_ridge(data):
    # scale from the zero-mean second moment, matching the zero-mean MLE path
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    return 1e-6 * float(np.mean(np.sum(data ** 2, axis=1))) / data.shape[1]


def fit_gaussian(data, ridge=None, zero_mean=False):
    """Maximum-likelihood Gaussian with a small ridge on the covariance."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n, d = data.shape
    if not zero_mean and n <= d:
        raise BaselineError("need more samples than dimensions")
    mean = np.zeros(d) if zero_mean else data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / n
    if ridge is None:
        ridge = 1e-6 * float(np.trace(cov)) / d
        if ridge == 0.0:
            ridge = 1e-12
    cov = cov + ridge * np.eye(d)
    return GaussianModel(mean, cov)


def _m_step(model, data, resp, ridge):
    """The EM update from component-major ``(k, n)`` responsibilities."""
    n, d = data.shape
    counts = resp.sum(axis=1)
    weights = counts / n
    if isinstance(model, MoigModel):
        means = (resp @ data) / counts[:, None]
        return MoigModel(means, model.sigma, weights)
    covs = np.empty_like(model.covariances)
    for k in range(model.n_components):
        covs[k] = (data.T * resp[k]) @ data / counts[k] + ridge * np.eye(d)
    return MogModel(covs, weights)


def fit_em(model, data, iters=100, tol=1e-8, rng=None, ridge=None):
    """Standard EM for the mixture baselines.

    The isotropic mixture updates means and weights only (its scale is a
    hyperparameter chosen by outer cross-validation); the zero-mean
    mixture updates covariances (ridge-regularized) and weights.  Stops
    after ``iters`` iterations or when the per-sample log-likelihood
    improves by less than ``tol``.  Components that collapse to zero
    responsibility are reinitialized from distinct random data.  Returns
    the model and the per-sample log-likelihood before each iteration
    and after the last.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    if ridge is None:
        ridge = default_ridge(data) if isinstance(model, MogModel) else 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    xt = np.ascontiguousarray(data.T)
    # the term every component shares cancels in the responsibilities and,
    # the isotropic mixture's scale being fixed, adds one constant to the trace
    shared = float(np.mean(model.shared_log_density(data)))
    resp = np.empty((model.n_components, n))
    trace = []
    while True:
        model.fill_scores(xt, resp)
        total, top = _exp_scores(resp)
        trace.append(float(np.mean(np.log(total) + top)) + shared)
        if len(trace) > iters or (len(trace) >= 3 and trace[-2] - trace[-3] < tol):
            return model, trace
        resp /= total
        dead = np.flatnonzero(resp.sum(axis=1) < 1e-10 * n)
        if dead.size:
            logger.warning("reinitializing %d collapsed component(s)", dead.size)
            picks = rng.choice(n, dead.size, replace=False)
            resp[dead] = 0.0
            resp[:, picks] = 0.0
            resp[dead, picks] = 1.0
            resp /= resp.sum(axis=0)
        model = _m_step(model, data, resp, ridge)


def init_moig(k, data, sigma, rng):
    """Means from k random data points, uniform weights."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    picks = rng.choice(data.shape[0], size=k, replace=False)
    return MoigModel(data[picks], sigma, np.full(k, 1.0 / k))


def init_mog(k, data, rng):
    """Covariances from the data covariance plus random PSD jitter."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    d = data.shape[1]
    base = data.T @ data / data.shape[0] + default_ridge(data) * np.eye(d)
    covs = []
    for _ in range(k):
        jitter = rng.standard_normal((d, d)) * 0.1
        covs.append(base + jitter @ jitter.T * np.trace(base) / d)
    return MogModel(np.array(covs), np.full(k, 1.0 / k))


def check_mixture(kind, k, sigma, iters, restarts):
    """fit_mixture's rules on its scalar arguments, which need no data."""
    if kind not in ("moig", "mog"):
        raise BaselineError(f"unknown mixture kind {kind!r}")
    if k < 1:
        raise BaselineError("a mixture needs at least one component")
    if iters < 1:
        raise BaselineError("EM needs at least one iteration")
    if restarts < 1:
        raise BaselineError("EM needs at least one restart")
    if kind == "moig":
        _check_sigma(sigma, "an isotropic mixture's sigma")


def _init_mixture(kind, k, data, sigma, rng):
    return init_moig(k, data, sigma, rng) if kind == "moig" else init_mog(k, data, rng)


def _state(rng):
    """A generator's state as bytes, comparable whatever its bit generator."""
    return pickle.dumps(rng.bit_generator.state)


def _fit_restart(job):
    """One EM restart; ``job`` is (model, data, iters, tol, rng).

    Runs on one BLAS thread and holds back its log records.  Returns the
    fitted model, its trace, the held (message, args) pairs, and the
    generator if it moved (a collapsed component was reinitialized from
    it), else None."""
    model, data, iters, tol, rng = job
    start, held = _state(rng), []

    def hold(record):
        held.append((record.msg, record.args))
        return False

    logger.addFilter(hold)
    try:
        with estimation._one_blas_thread():
            model, trace = fit_em(model, data, iters=iters, tol=tol, rng=rng)
    finally:
        logger.removeFilter(hold)
    return model, trace, held, rng if _state(rng) != start else None


def fit_mixture(kind, k, data, sigma=None, iters=100, tol=1e-8, restarts=5, rng=None,
                threads=None):
    """EM with random restarts; the best final log-likelihood wins.

    Every restart's initial model is drawn from ``rng`` in turn, each
    followed by a copy of ``rng`` that its EM run draws from.  The runs go
    to up to ``threads`` worker processes (None: the CPU affinity set), or
    all to this one where numpy's OpenBLAS cannot be held to one thread.
    EM draws from its generator only to reinitialize a collapsed component;
    the restarts after the first that does are run again here, in turn,
    from where it left the generator.  So the models, traces, warnings and
    the final state of ``rng`` are those of running the restarts one after
    another on ``rng``, whatever the number of workers.
    """
    check_mixture(kind, k, sigma, iters, restarts)
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if k > data.shape[0]:
        raise BaselineError(f"{k} components need at least {k} rows, not {data.shape[0]}")
    if rng is None:
        rng = np.random.default_rng(0)
    if not estimation._openblas():  # unpinned workers ran slower than one process
        threads = 1 if threads is None else min(threads, 1)
    jobs = [(_init_mixture(kind, k, data, sigma, rng), data, iters, tol, copy.deepcopy(rng))
            for _ in range(restarts)]
    runs, _ = estimation._map_in_processes(_fit_restart, jobs, threads, "an EM restart")
    fits = []
    for model, trace, held, moved in runs:
        for msg, args in held:
            logger.warning(msg, *args)
        fits.append((model, trace))
        if moved is not None:
            rng.bit_generator.state = moved.bit_generator.state
            break
    while len(fits) < restarts:
        fits.append(fit_em(_init_mixture(kind, k, data, sigma, rng), data, iters=iters,
                           tol=tol, rng=rng))
    return max(fits, key=lambda fit: fit[1][-1])  # the first of equals


def check_cross_validation(candidates, folds):
    """cross_validate_sigma's rules on its candidates and fold count."""
    if len(candidates) == 0:
        raise BaselineError("empty candidate list")
    for sigma in candidates:
        _check_sigma(sigma, "every sigma candidate")
    # a held-out fold and a fold to fit on
    if folds < 2:
        raise BaselineError("need at least two folds")


def cross_validate_sigma(candidates, data, folds, scorer, seed=0):
    """k-fold selection of a scale parameter.

    ``scorer(sigma, train, validation, rng)`` returns a held-out log-loss
    (lower is better).  Returns the winning sigma (ties broken toward the
    larger value) and the full table of per-fold losses.
    """
    candidates = list(candidates)
    check_cross_validation(candidates, folds)
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    if folds > n:
        raise BaselineError(f"{folds} folds need at least {folds} rows, not {n}")
    perm = np.random.default_rng(seed).permutation(n)
    splits = np.array_split(perm, folds)
    table = []
    for ci, sigma in enumerate(candidates):
        losses = []
        for f in range(folds):
            val_idx = splits[f]
            train_idx = np.concatenate([splits[g] for g in range(folds) if g != f])
            rng = np.random.default_rng((seed, f, ci))
            losses.append(scorer(sigma, data[train_idx], data[val_idx], rng))
        table.append({"sigma": sigma, "fold_losses": losses, "mean_loss": float(np.mean(losses))})
    best = min(table, key=lambda row: (row["mean_loss"], -row["sigma"]))
    return best["sigma"], table


def moig_sigma_scorer(k, iters=50, tol=1e-8, restarts=2, threads=None):
    """Scorer closure for cross_validate_sigma over the isotropic mixture;
    ``threads`` is fit_mixture's."""

    def scorer(sigma, train, val, rng):
        model, _ = fit_mixture("moig", k, train, sigma=sigma, iters=iters, tol=tol,
                               restarts=restarts, rng=rng, threads=threads)
        return average_log_loss_bits(model, val)

    return scorer


@dataclass
class BaselineSpec:
    """A baseline density to fit: ``kind`` is gaussian, moig or mog.

    The mixtures run EM on ``components`` components with ``em_iters``
    iterations and ``restarts`` restarts.  The isotropic mixture takes
    ``sigma``, or picks it from ``sigma_candidates`` by
    ``sigma_folds``-fold cross-validation.  Building a spec checks every
    rule that needs no data.
    """

    kind: str
    components: int = 2
    sigma: float = None
    sigma_candidates: tuple = ()
    sigma_folds: int = 3
    em_iters: int = 100
    restarts: int = 5

    def __post_init__(self):
        if self.kind not in ("gaussian", "moig", "mog"):
            raise BaselineError(f"kind must be gaussian, moig or mog, not {self.kind!r}")
        if self.sigma_candidates:
            check_cross_validation(self.sigma_candidates, self.sigma_folds)
        if self.kind != "gaussian":
            sigma = self.sigma_candidates[0] if self.sigma_candidates else self.sigma
            check_mixture(self.kind, self.components, sigma, self.em_iters, self.restarts)


def fit_baseline(spec, data, seed=0, threads=None):
    """Fit ``spec``'s density to ``data``; ``threads`` is fit_mixture's.

    Returns the model and the cross-validation table of its sigma, which
    is empty unless an isotropic mixture picked one from candidates.
    """
    if spec.kind == "gaussian":
        return fit_gaussian(data), []
    sigma, table = spec.sigma, []
    if spec.kind == "moig" and spec.sigma_candidates:
        scorer = moig_sigma_scorer(spec.components, iters=spec.em_iters, threads=threads)
        sigma, table = cross_validate_sigma(
            spec.sigma_candidates, data, spec.sigma_folds, scorer, seed=seed
        )
    model, _ = fit_mixture(spec.kind, spec.components, data, sigma=sigma,
                           iters=spec.em_iters, restarts=spec.restarts,
                           rng=np.random.default_rng(seed), threads=threads)
    return model, table


def save_baseline(model, path):
    """Serialize a baseline density in the shared container format."""
    write_model(path, "baseline_model", model)


def load_baseline(path):
    return read_model(path, "baseline_model", BASELINE_CLASSES)
