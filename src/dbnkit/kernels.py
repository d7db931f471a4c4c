"""Hot sampling kernels: annealed-importance chains and the sequential
Gibbs sweep of lateral-connected layers, in numpy.

Annealed-importance chains run against a zero-weight base model of the
same variant, so kernels only receive the base biases (and scale).  The
intermediate distribution at inverse temperature ``beta`` is the visible
marginal of the augmented machine whose two hidden-unit groups carry the
base and target energies scaled by ``1 - beta`` and ``beta``; because the
base has no weights, its hidden group decouples and is never sampled.
"""

import numpy as np

from .numerics import softplus_log


def backend_name() -> str:
    """Name of the kernel implementation; perfbench/run.py records it in
    each result's machine block."""
    return "numpy"


def _sigmoid(z):
    # tanh form, kept local rather than numerics.logistic: on the
    # (n_chains,) vectors of the sequential sweep it measured 2.5-5x
    # faster (about 74 vs 260-370 us at 20000 chains, 2-vCPU Xeon), and
    # the SRBM sweep dominates interface AIS.  Its relative error reaches
    # 1.7e-4 at z = -30 (3e-16 for logistic), too coarse to replace
    # logistic elsewhere.
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


def srbm_sweep(x, lateral, drive, u):
    """One sequential Gibbs sweep over visible units, batched over rows of x.

    ``lateral`` must be symmetric with zero diagonal (rows usable as
    columns) and C-contiguous; ``drive`` carries all non-lateral logit
    terms.  Updates x in place and returns it.
    """
    m = x.shape[1]
    for i in range(m):
        logits = np.dot(x, lateral[i]) + drive[:, i]
        x[:, i] = (u[:, i] < _sigmoid(logits)).astype(np.float64)
    return x


def ais_rbm(base_b, base_c, wt, bt, ct, betas, n_chains, rng):
    """AIS chains for a binary RBM target from a zero-weight base.

    Weight increments are accumulated in delta form,
    log f_k(x) - log f_{k-1}(x) factored so that shared subexpressions
    cancel exactly; for target == base every weight is exactly zero.
    Returns per-chain log importance weights (base partition function not
    included) and the final visible states, distributed near the target.
    """
    n_steps = betas.shape[0] - 1
    m = base_b.shape[0]

    x = (rng.random((n_chains, m)) < _sigmoid(base_b)).astype(np.float64)
    log_w = np.zeros(n_chains)

    for k in range(1, n_steps + 1):
        b0 = betas[k - 1]
        b1 = betas[k]
        act = np.dot(x, wt) + ct
        log_w += (
            (b1 - b0) * (np.dot(x, bt) - np.dot(x, base_b))
            + (softplus_log((1.0 - b1) * base_c).sum()
               - softplus_log((1.0 - b0) * base_c).sum())
            + (softplus_log(b1 * act).sum(axis=1) - softplus_log(b0 * act).sum(axis=1))
        )
        if k < n_steps:
            u_h = rng.random((n_chains, ct.shape[0]))
            y = (u_h < _sigmoid(b1 * act)).astype(np.float64)
            u_v = rng.random((n_chains, m))
            vis_logits = (1.0 - b1) * base_b + b1 * (np.dot(y, wt.T) + bt)
            x = (u_v < _sigmoid(vis_logits)).astype(np.float64)
    return log_w, x


def ais_grbm(base_b, base_c, base_sigma, wt, bt, ct, sigma_t, betas, n_chains, rng):
    """AIS chains for a Gaussian-visible target from a zero-weight base."""
    n_steps = betas.shape[0] - 1
    m = base_b.shape[0]

    x = base_b + base_sigma * rng.standard_normal((n_chains, m))
    log_w = np.zeros(n_chains)

    for k in range(1, n_steps + 1):
        b0 = betas[k - 1]
        b1 = betas[k]
        act = np.dot(x, wt) / sigma_t + ct
        d0 = x - base_b
        dt = x - bt
        quad_base = np.sum(d0 * d0, axis=1) / (2.0 * base_sigma * base_sigma)
        quad_target = np.sum(dt * dt, axis=1) / (2.0 * sigma_t * sigma_t)
        log_w += (
            (b1 - b0) * (quad_base - quad_target)
            + (softplus_log((1.0 - b1) * base_c).sum()
               - softplus_log((1.0 - b0) * base_c).sum())
            + (softplus_log(b1 * act).sum(axis=1) - softplus_log(b0 * act).sum(axis=1))
        )
        if k < n_steps:
            u_h = rng.random((n_chains, ct.shape[0]))
            y = (u_h < _sigmoid(b1 * act)).astype(np.float64)
            # gaussian visible conditional of the augmented machine
            lam = (1.0 - b1) / (base_sigma * base_sigma) + b1 / (sigma_t * sigma_t)
            mean = (
                (1.0 - b1) * base_b / (base_sigma * base_sigma)
                + b1 * bt / (sigma_t * sigma_t)
                + b1 * np.dot(y, wt.T) / sigma_t
            ) / lam
            x = mean + rng.standard_normal((n_chains, m)) / np.sqrt(lam)
    return log_w, x


def ais_srbm(base_b, base_c, wt, bt, ct, lt, betas, n_chains, rng):
    """AIS chains for a lateral-connected binary target from a zero-weight base.

    The visible update is one full sequential Gibbs sweep per annealing
    step, with the lateral matrix scaled by beta.
    """
    n_steps = betas.shape[0] - 1
    m = base_b.shape[0]

    x = (rng.random((n_chains, m)) < _sigmoid(base_b)).astype(np.float64)
    log_w = np.zeros(n_chains)

    for k in range(1, n_steps + 1):
        b0 = betas[k - 1]
        b1 = betas[k]
        act = np.dot(x, wt) + ct
        target_lin = np.dot(x, bt) + 0.5 * np.sum(np.dot(x, lt) * x, axis=1)
        log_w += (
            (b1 - b0) * (target_lin - np.dot(x, base_b))
            + (softplus_log((1.0 - b1) * base_c).sum()
               - softplus_log((1.0 - b0) * base_c).sum())
            + (softplus_log(b1 * act).sum(axis=1) - softplus_log(b0 * act).sum(axis=1))
        )
        if k < n_steps:
            u_h = rng.random((n_chains, ct.shape[0]))
            y = (u_h < _sigmoid(b1 * act)).astype(np.float64)
            drive = (1.0 - b1) * base_b + b1 * (np.dot(y, wt.T) + bt)
            u_v = rng.random((n_chains, m))
            x = srbm_sweep(x, b1 * lt, drive, u_v)
    return log_w, x
