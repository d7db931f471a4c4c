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

The binary kernels work row by row, or, in a chunk with no more visible
states than chains (2^m <= n_chains), read each step's terms by state code
from tables over all 2^m visible (and, if 2^h <= n_chains, 2^h hidden)
states; see ``_ais_binary``.
"""

import numpy as np

from .numerics import logistic, softplus_log


def backend_name() -> str:
    """Name of the kernel implementation; perfbench/run.py records it in
    each result's machine block."""
    return "numpy"


def srbm_sweep(x, lateral, drive, u):
    """One sequential Gibbs sweep over visible units, batched over rows of x.

    ``lateral`` must be symmetric with zero diagonal (rows usable as
    columns) and C-contiguous; ``drive`` carries all non-lateral logit
    terms.  Updates x in place and returns it.
    """
    m = x.shape[1]
    for i in range(m):
        logits = np.dot(x, lateral[i]) + drive[:, i]
        x[:, i] = (u[:, i] < logistic(logits, out=logits)).astype(np.float64)
    return x


def _visible_terms(x, wt, ct, bias_step, lateral, act, lin, x_lat):
    """Fill ``act`` with x W + c and ``lin`` with x'(b - b_base), plus
    x'Lx / 2 with couplings, for the rows of x."""
    np.dot(x, wt, out=act)
    act += ct
    np.dot(x, bias_step, out=lin)
    if lateral is not None:
        lin += 0.5 * np.einsum("ij,ij->i", np.dot(x, lateral, out=x_lat), x)


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

    State-code tables.  A chunk with no more visible states than chains
    (2^m <= n_chains) computes x W + c and the visible energy step once for
    each of the 2^m states, in ``models.state_index`` order; each step packs
    x into codes and reads by code the weight increment and the hidden
    probabilities, both evaluated on the table.  softplus(beta_k (x W + c))
    on the table is kept as the next step's beta_{k-1} term, which is the
    same product bit for bit.  When also 2^h <= n_chains, the visible drive
    (and, without couplings, the visible probabilities) come from a table
    over the 2^h hidden states.  Random numbers are drawn in the same order
    and the lateral sweep runs per row, so the final states equal the row
    path's bit for bit.  A log weight can move in its last bits, because a
    BLAS matrix-vector product may sum a row in an order that depends on
    its position, and a table row sits elsewhere than its chains.

    Every ``(n_chains, h)`` and ``(n_chains, m)`` array the step keeps is
    allocated once and refilled in place (``out=``), and no table has more
    rows.  A demo chunk's arrays are 213 KB (3334 chains x 8 units), above
    glibc's initial 128 KiB mmap threshold: allocated anew each step, every
    fresh page faults.  In the forked workers of 20000 chains x 300 betas
    (2 workers, 2-vCPU Xeon) that was up to 224k minor faults and 0.6 s
    system time a worker; with the buffers it is 5.2-5.5k and 0.02 s.
    """
    # models imports this module for srbm_sweep, so this import waits for the call
    from .models import binary_states, state_index

    n_steps = betas.shape[0] - 1
    base_b = base.visible_bias
    wt, bt, ct = target.weights, target.visible_bias, target.hidden_bias
    m, h = wt.shape
    bias_step = bt - base_b
    hidden_ones = np.ones(h)

    x = (rng.random((n_chains, m)) < logistic(base_b)).astype(np.float64)
    log_w = np.zeros(n_chains)
    lin = np.empty(n_chains)
    # act holds x W + c, then beta_{k-1} times it; act_1 beta_k times it,
    # then its sigmoid
    act, act_1, soft, soft_0, u_h, y = (np.empty((n_chains, h)) for _ in range(6))
    drive, u_v, x_lat = (np.empty((n_chains, m)) for _ in range(3))

    visible_table = 2 ** m <= n_chains
    hidden_table = visible_table and 2 ** h <= n_chains
    if visible_table:
        states = binary_states(m, n_chains)
        act_tab, act_1_tab, soft_0_tab, soft_1_tab = (np.empty((2 ** m, h)) for _ in range(4))
        lin_tab = np.empty(2 ** m)
        _visible_terms(states, wt, ct, bias_step, lateral, act_tab, lin_tab, np.empty_like(states))
        softplus_log(np.multiply(act_tab, betas[0], out=act_1_tab), out=soft_0_tab)
    if hidden_table:
        hidden_states = binary_states(h, n_chains)
        drive_tab = np.empty((2 ** h, m))

    for k in range(1, n_steps + 1):
        b0 = betas[k - 1]
        b1 = betas[k]
        if visible_table:
            code = state_index(x)
            np.multiply(act_tab, b1, out=act_1_tab)
            # soft_1_tab keeps the beta_k term for the next step; the
            # beta_{k-1} buffer takes the difference and then the next term
            np.subtract(softplus_log(act_1_tab, out=soft_1_tab), soft_0_tab, out=soft_0_tab)
            log_w += ((b1 - b0) * lin_tab + np.dot(soft_0_tab, hidden_ones))[code]
            soft_0_tab, soft_1_tab = soft_1_tab, soft_0_tab
        else:
            _visible_terms(x, wt, ct, bias_step, lateral, act, lin, x_lat)
            np.multiply(act, b1, out=act_1)
            np.multiply(act, b0, out=act)
            softplus_log(act_1, out=soft)
            soft -= softplus_log(act, out=soft_0)
            log_w += (b1 - b0) * lin + np.dot(soft, hidden_ones)
        if k < n_steps:
            rng.random(out=u_h)
            if visible_table:
                # codes lie in the table, so take need not check them (and
                # with its default checking mode would copy through a buffer)
                np.take(logistic(act_1_tab, out=act_1_tab), code, axis=0, out=act_1, mode="clip")
            else:
                logistic(act_1, out=act_1)
            np.less(u_h, act_1, out=y)
            rng.random(out=u_v)
            # (1 - b1) b_base + b1 (y W' + b), built in place over the
            # hidden-state table or the rows
            rows, out = (hidden_states, drive_tab) if hidden_table else (y, drive)
            np.dot(rows, wt.T, out=out)
            out += bt
            out *= b1
            out += (1.0 - b1) * base_b
            if lateral is None:
                logistic(out, out=out)
            if hidden_table:
                np.take(drive_tab, state_index(y), axis=0, out=drive, mode="clip")
            if lateral is None:
                np.less(u_v, drive, out=x)
            else:
                srbm_sweep(x, b1 * lateral, drive, u_v)
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
            y = (u_h < logistic(act_1, out=act_1)).astype(np.float64)
            # gaussian visible conditional of the augmented machine
            lam = (1.0 - b1) / (base_sigma * base_sigma) + b1 / (sigma_t * sigma_t)
            mean = (
                (1.0 - b1) * base_b / (base_sigma * base_sigma)
                + b1 * bt / (sigma_t * sigma_t)
                + b1 * np.dot(y, wt.T) / sigma_t
            ) / lam
            x = mean + rng.standard_normal((n_chains, m)) / np.sqrt(lam)
    return log_w, x
