"""Mixture-model baselines: full-covariance Gaussian, mixtures of isotropic
Gaussians with shared scale (means free), and zero-mean mixtures with free
covariances, trained by EM."""

import logging

import numpy as np
import scipy.linalg

from .numerics import LOG2, log_sum_exp

logger = logging.getLogger(__name__)


class BaselineError(ValueError):
    pass


def _chol_logdet(cov):
    try:
        chol = scipy.linalg.cholesky(cov, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise BaselineError(f"covariance is not positive definite: {exc}") from exc
    return chol, 2.0 * np.sum(np.log(np.diag(chol)))


class GaussianModel:
    """Multivariate Gaussian with full covariance."""

    def __init__(self, mean, covariance):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.covariance = np.asarray(covariance, dtype=np.float64)
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise BaselineError("covariance shape does not match the mean")
        self._chol, self._logdet = _chol_logdet(self.covariance)

    @property
    def dim(self):
        return self.mean.size

    def log_density(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.dim:
            raise BaselineError("dimension mismatch")
        sol = scipy.linalg.solve_triangular(self._chol, (x - self.mean).T, lower=True)
        maha = np.sum(sol ** 2, axis=0)
        out = -0.5 * (maha + self._logdet + self.dim * np.log(2.0 * np.pi))
        return out


class MoigModel:
    """Mixture of isotropic Gaussians: free means, one shared scale."""

    def __init__(self, means, sigma, weights):
        self.means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        self.sigma = float(sigma)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.sigma <= 0:
            raise BaselineError("sigma must be positive")
        _check_simplex(self.weights, self.means.shape[0])

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return self.means.shape[0]

    def component_log_density(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        sq = (
            np.sum(x ** 2, axis=1)[:, None]
            - 2.0 * x @ self.means.T
            + np.sum(self.means ** 2, axis=1)[None, :]
        )
        return -sq / (2.0 * self.sigma ** 2) - 0.5 * self.dim * np.log(
            2.0 * np.pi * self.sigma ** 2
        )

    def log_density(self, x):
        comp = self.component_log_density(x) + np.log(self.weights)[None, :]
        return log_sum_exp(comp, axis=1)


class MogModel:
    """Mixture of zero-mean Gaussians with free covariances."""

    def __init__(self, covariances, weights):
        self.covariances = np.asarray(covariances, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.covariances.ndim != 3:
            raise BaselineError("need a (K, D, D) covariance stack")
        _check_simplex(self.weights, self.covariances.shape[0])
        self._chols = []
        self._logdets = []
        for cov in self.covariances:
            chol, logdet = _chol_logdet(cov)
            self._chols.append(chol)
            self._logdets.append(logdet)

    @property
    def dim(self):
        return self.covariances.shape[1]

    @property
    def n_components(self):
        return self.covariances.shape[0]

    def component_log_density(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty((x.shape[0], self.n_components))
        for k, (chol, logdet) in enumerate(zip(self._chols, self._logdets)):
            sol = scipy.linalg.solve_triangular(chol, x.T, lower=True)
            maha = np.sum(sol ** 2, axis=0)
            out[:, k] = -0.5 * (maha + logdet + self.dim * np.log(2.0 * np.pi))
        return out

    def log_density(self, x):
        comp = self.component_log_density(x) + np.log(self.weights)[None, :]
        return log_sum_exp(comp, axis=1)


def _check_simplex(weights, k):
    if weights.shape != (k,):
        raise BaselineError("one mixing weight per component")
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-8:
        raise BaselineError("mixing weights must be positive and sum to one")


def average_log_loss_bits(model, data):
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    return float(np.mean(-model.log_density(data) / LOG2) / data.shape[1])


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
    n, d = data.shape
    counts = resp.sum(axis=0)
    weights = counts / n
    if isinstance(model, MoigModel):
        means = (resp.T @ data) / counts[:, None]
        return MoigModel(means, model.sigma, weights)
    covs = np.empty_like(model.covariances)
    for k in range(model.n_components):
        weighted = data * resp[:, k : k + 1]
        covs[k] = weighted.T @ data / counts[k] + ridge * np.eye(d)
    return MogModel(covs, weights)


def fit_em(model, data, iters=100, tol=1e-8, rng=None, ridge=None):
    """Standard EM for the mixture baselines.

    The isotropic mixture updates means and weights only (its scale is a
    hyperparameter chosen by outer cross-validation); the zero-mean
    mixture updates covariances (ridge-regularized) and weights.  Stops
    after ``iters`` iterations or when the per-sample log-likelihood
    improves by less than ``tol``.  Components that collapse to zero
    responsibility are reinitialized from a random datum.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    if ridge is None:
        ridge = default_ridge(data) if isinstance(model, MogModel) else 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    trace = []
    for _ in range(iters):
        comp = model.component_log_density(data) + np.log(model.weights)[None, :]
        per_sample = log_sum_exp(comp, axis=1)
        trace.append(float(per_sample.mean()))
        resp = np.exp(comp - per_sample[:, None])
        counts = resp.sum(axis=0)
        dead = np.flatnonzero(counts < 1e-10 * n)
        if dead.size:
            logger.warning("reinitializing %d collapsed component(s)", dead.size)
            for k in dead:
                pick = int(rng.integers(n))
                resp[:, k] = 0.0
                resp[pick] = 0.0
                resp[pick, k] = 1.0
            resp /= resp.sum(axis=1, keepdims=True)
        model = _m_step(model, data, resp, ridge)
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            break
    comp = model.component_log_density(data) + np.log(model.weights)[None, :]
    trace.append(float(log_sum_exp(comp, axis=1).mean()))
    return model, trace


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


def fit_mixture(kind, k, data, sigma=None, iters=100, tol=1e-8, restarts=5, rng=None):
    """EM with random restarts; the best final log-likelihood wins."""
    if rng is None:
        rng = np.random.default_rng(0)
    if kind not in ("moig", "mog"):
        raise BaselineError(f"unknown mixture kind {kind!r}")
    best = None
    best_trace = None
    for _ in range(max(1, restarts)):
        if kind == "moig":
            if sigma is None:
                raise BaselineError("isotropic mixture needs a sigma")
            model = init_moig(k, data, sigma, rng)
        else:
            model = init_mog(k, data, rng)
        model, trace = fit_em(model, data, iters=iters, tol=tol, rng=rng)
        if best is None or trace[-1] > best_trace[-1]:
            best, best_trace = model, trace
    return best, best_trace


def cross_validate_sigma(candidates, data, folds, scorer, seed=0):
    """k-fold selection of a scale parameter.

    ``scorer(sigma, train, validation, rng)`` returns a held-out log-loss
    (lower is better).  Returns the winning sigma (ties broken toward the
    larger value) and the full table of per-fold losses.
    """
    candidates = list(candidates)
    if not candidates:
        raise BaselineError("empty candidate list")
    if folds < 2:
        raise BaselineError("need at least two folds")
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
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


def moig_sigma_scorer(k, iters=50, tol=1e-8, restarts=2):
    """Scorer closure for cross_validate_sigma over the isotropic mixture."""

    def scorer(sigma, train, val, rng):
        model, _ = fit_mixture("moig", k, train, sigma=sigma, iters=iters, tol=tol,
                               restarts=restarts, rng=rng)
        return average_log_loss_bits(model, val)

    return scorer


def save_baseline(model, path):
    """Serialize a baseline density in the shared container format."""
    from .storage import write_container

    if isinstance(model, GaussianModel):
        write_container(path, "baseline_model", {"variant": "gaussian"},
                        {"mean": model.mean, "covariance": model.covariance})
    elif isinstance(model, MoigModel):
        write_container(path, "baseline_model",
                        {"variant": "moig", "sigma": model.sigma},
                        {"means": model.means, "weights": model.weights})
    elif isinstance(model, MogModel):
        write_container(path, "baseline_model", {"variant": "mog"},
                        {"covariances": model.covariances, "weights": model.weights})
    else:
        raise BaselineError(f"cannot serialize {type(model).__name__}")


def load_baseline(path):
    from .storage import read_container

    _, meta, arrays = read_container(path, expect_kind="baseline_model")
    variant = meta["variant"]
    if variant == "gaussian":
        return GaussianModel(arrays["mean"], arrays["covariance"])
    if variant == "moig":
        return MoigModel(arrays["means"], meta["sigma"], arrays["weights"])
    if variant == "mog":
        return MogModel(arrays["covariances"], arrays["weights"])
    raise BaselineError(f"unknown baseline variant {variant!r}")
