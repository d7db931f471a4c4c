"""Hot sampling kernels: annealed-importance chains and the sequential
Gibbs sweep of lateral-connected layers, in numpy.

Annealed-importance chains run against a base model of the target's
variant with zero weights and zero hidden biases (``AisSchedule`` checks
the biases), so a kernel reads only the base's visible biases (and
scale).  The intermediate distribution at inverse temperature ``beta`` is
the visible marginal of the augmented machine whose two hidden-unit groups
carry the base and target energies scaled by ``1 - beta`` and ``beta``;
the base's hidden group adds the same constant at every ``beta`` and is
never sampled.
"""

import numpy as np

from .numerics import softplus_log


def backend_name() -> str:
    """Name of the kernel implementation; perfbench/run.py records it in
    each result's machine block."""
    return "numpy"


def _sigmoid(z):
    # tanh form, kept local rather than numerics.logistic: on the
    # (n_chains,) vectors of the sequential sweep it measured about 2.4x
    # faster (66-70 vs 166 us at 20000 chains, 2-vCPU Xeon), and the
    # sweep calls it once a unit: on a demo interface chunk (3334 chains,
    # 8 units) a step's time goes 32% to the weights, 23% to the random
    # draws and 22% to the sweep.  Its relative error reaches
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


def _ais_binary(target, base, lateral, betas, n_chains, rng):
    """AIS chains for a binary target with visible couplings ``lateral``
    (None for none).

    Weight increments are accumulated in delta form,
    log f_k(x) - log f_{k-1}(x) factored so that shared subexpressions
    cancel exactly; for target == base every weight is exactly zero.  Row
    sums are matrix-vector products (a dot with ones, or einsum), several
    times cheaper than ``.sum(axis=1)`` on these narrow arrays.  The
    visible update is factorial without couplings, else one sequential
    Gibbs sweep with them scaled by beta.  Returns per-chain log importance
    weights (base partition function not included) and the final visible
    states, distributed near the target.
    """
    n_steps = betas.shape[0] - 1
    base_b = base.visible_bias
    wt, bt, ct = target.weights, target.visible_bias, target.hidden_bias
    m = base_b.shape[0]
    bias_step = bt - base_b
    hidden_ones = np.ones(ct.shape[0])

    x = (rng.random((n_chains, m)) < _sigmoid(base_b)).astype(np.float64)
    log_w = np.zeros(n_chains)

    for k in range(1, n_steps + 1):
        b0 = betas[k - 1]
        b1 = betas[k]
        act = np.dot(x, wt) + ct
        lin = np.dot(x, bias_step)
        if lateral is not None:
            lin += 0.5 * np.einsum("ij,ij->i", np.dot(x, lateral), x)
        act_1 = b1 * act
        soft = softplus_log(act_1)
        soft -= softplus_log(b0 * act)
        log_w += (b1 - b0) * lin + np.dot(soft, hidden_ones)
        if k < n_steps:
            u_h = rng.random((n_chains, ct.shape[0]))
            y = (u_h < _sigmoid(act_1)).astype(np.float64)
            u_v = rng.random((n_chains, m))
            drive = (1.0 - b1) * base_b + b1 * (np.dot(y, wt.T) + bt)
            if lateral is None:
                x = (u_v < _sigmoid(drive)).astype(np.float64)
            else:
                x = srbm_sweep(x, b1 * lateral, drive, u_v)
    return log_w, x


def ais_rbm(target, base, betas, n_chains, rng):
    """AIS chains for a binary RBM target; see _ais_binary."""
    return _ais_binary(target, base, None, betas, n_chains, rng)


def ais_srbm(target, base, betas, n_chains, rng):
    """AIS chains for a lateral-connected binary target; see _ais_binary."""
    return _ais_binary(target, base, target.lateral, betas, n_chains, rng)


def ais_grbm(target, base, betas, n_chains, rng):
    """AIS chains for a Gaussian-visible target."""
    n_steps = betas.shape[0] - 1
    base_b, base_sigma = base.visible_bias, base.sigma
    wt, bt, ct, sigma_t = target.weights, target.visible_bias, target.hidden_bias, target.sigma
    m = base_b.shape[0]
    hidden_ones = np.ones(ct.shape[0])

    x = base_b + base_sigma * rng.standard_normal((n_chains, m))
    log_w = np.zeros(n_chains)

    for k in range(1, n_steps + 1):
        b0 = betas[k - 1]
        b1 = betas[k]
        act = np.dot(x, wt) / sigma_t + ct
        d0 = x - base_b
        dt = x - bt
        quad_base = np.einsum("ij,ij->i", d0, d0) / (2.0 * base_sigma * base_sigma)
        quad_target = np.einsum("ij,ij->i", dt, dt) / (2.0 * sigma_t * sigma_t)
        act_1 = b1 * act
        soft = softplus_log(act_1)
        soft -= softplus_log(b0 * act)
        log_w += (b1 - b0) * (quad_base - quad_target) + np.dot(soft, hidden_ones)
        if k < n_steps:
            u_h = rng.random((n_chains, ct.shape[0]))
            y = (u_h < _sigmoid(act_1)).astype(np.float64)
            # gaussian visible conditional of the augmented machine
            lam = (1.0 - b1) / (base_sigma * base_sigma) + b1 / (sigma_t * sigma_t)
            mean = (
                (1.0 - b1) * base_b / (base_sigma * base_sigma)
                + b1 * bt / (sigma_t * sigma_t)
                + b1 * np.dot(y, wt.T) / sigma_t
            ) / lam
            x = mean + rng.standard_normal((n_chains, m)) / np.sqrt(lam)
    return log_w, x
