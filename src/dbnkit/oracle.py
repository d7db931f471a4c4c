"""Brute-force self-checks: every estimator against an independent oracle.

Each check compares a fast path against enumeration, finite differences,
closed forms, or Monte Carlo ground truth, and reports the measured error
against its tolerance.  The checks that an acceptance criterion names are
that criterion's body: ``tests/test_acceptance.py`` runs these functions
rather than copies, so each property has one seed, one size and one
tolerance.  The CLI exposes the suite as a command so a fresh
checkout can be validated end to end in seconds.

The random model builders below are shared with the test suite.
"""

from dataclasses import dataclass

import numpy as np

from . import baselines, dbn, estimation, models, pipeline, training
from .numerics import LogEstimate, RngStream, log_sum_exp


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def random_rbm(rng, m=3, n=2, scale=0.5):
    return models.Rbm(
        scale * rng.standard_normal((m, n)),
        0.5 * rng.standard_normal(m),
        0.5 * rng.standard_normal(n),
    )


def random_grbm(rng, m=2, n=3, scale=0.5, sigma=0.8):
    return models.Grbm(
        scale * rng.standard_normal((m, n)),
        0.5 * rng.standard_normal(m),
        0.5 * rng.standard_normal(n),
        sigma,
    )


def random_srbm(rng, m=4, n=3, scale=0.5):
    lat = scale * rng.standard_normal((m, m))
    lat = 0.5 * (lat + lat.T)
    np.fill_diagonal(lat, 0.0)
    return models.Srbm(
        scale * rng.standard_normal((m, n)),
        0.5 * rng.standard_normal(m),
        0.5 * rng.standard_normal(n),
        lat,
    )


def exact_log_z(model):
    """The enumerated log partition function as an estimate with zero error."""
    return LogEstimate(models.brute_force_log_partition(model), 0.0, 1)


def check_marginal_consistency():
    rng = RngStream(101).generator()
    worst = 0.0
    for make in (random_rbm, random_grbm, random_srbm):
        model = make(rng, 4, 3)
        ys = models.binary_states(model.n_hidden)
        if model.variant == models.GRBM:
            # hidden side: integrate the Gaussian analytically per state is
            # the marginal itself, so check the visible side on a grid of
            # random points against hidden-state enumeration
            xs = rng.standard_normal((16, model.n_visible))
        else:
            xs = models.binary_states(model.n_visible)
        direct = model.log_unnorm_visible(xs)
        summed = np.array(
            [log_sum_exp([-model.energy(x, y) for y in ys]) for x in xs]
        )
        worst = max(worst, float(np.abs(direct - summed).max()))
    return CheckResult("marginal-consistency", worst < 1e-10, worst, 1e-10)


def check_partition_sides():
    rng = RngStream(102).generator()
    model = random_rbm(rng, 5, 4)
    za = log_sum_exp(model.log_unnorm_visible(models.binary_states(5)))
    zb = log_sum_exp(model.log_unnorm_hidden(models.binary_states(4)))
    err = max(abs(za - zb), abs(models.brute_force_log_partition(model) - za))
    srbm = random_srbm(rng, 5, 4)
    z1 = models.brute_force_log_partition(srbm)
    z2 = log_sum_exp(
        models.brute_force_hidden_marginal_srbm(srbm, models.binary_states(4))
    )
    err = max(err, abs(z1 - z2))
    return CheckResult("partition-sides", err < 1e-10, err, 1e-10)


def fd_gradient(model, batch, h=1e-5):
    """Central differences of the exact mean log-likelihood, per parameter array."""
    def loss(m):
        return float(
            np.mean(m.log_unnorm_visible(batch)) - models.brute_force_log_partition(m)
        )

    out = {}
    for name, arr in model.parameter_arrays().items():
        grad = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            if name == "lateral" and i // arr.shape[0] == i % arr.shape[0]:
                continue
            orig = flat[i]
            flat[i] = orig + h
            hi = loss(model)
            flat[i] = orig - h
            lo = loss(model)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        out[name] = grad
    return out


def check_gradient_fd():
    """Acceptance criterion 07: exact ML gradients of 20 random 4x3 models
    per variant against central differences."""
    worst = 0.0
    for vi, make in enumerate((random_rbm, random_grbm, random_srbm)):
        for i in range(20):
            rng = RngStream(1600).substream(vi, i)
            model = make(rng, m=4, n=3, scale=0.5)
            if model.variant == models.GRBM:
                batch = rng.standard_normal((8, 4))
            else:
                batch = (rng.random((8, 4)) < 0.5).astype(float)
            exact = training.exact_ml_gradient(model, batch)
            for name, ref in fd_gradient(model.copy(), batch).items():
                scale = max(np.abs(ref).max(), 1e-8)
                worst = max(
                    worst, float(np.abs(exact.grads[name] - ref).max() / scale)
                )
    return CheckResult("gradient-fd", worst < 1e-5, worst, 1e-5, "60 instances")


def check_grbm_mixture_identity():
    """Acceptance criterion 08: a 4x6 GRBM's visible density is the mixture
    of its 64 hidden-state Gaussians under the enumerated hidden prior."""
    rng = RngStream(1700).generator()
    model = random_grbm(rng, m=4, n=6, scale=0.6, sigma=0.7)
    log_z = models.brute_force_log_partition(model)
    ys = models.binary_states(6)
    log_prior = model.log_unnorm_hidden(ys) - log_z
    xs = rng.standard_normal((40, 4))
    direct = model.log_unnorm_visible(xs) - log_z
    comps = np.array(
        [model.log_visible_conditional(xs, np.tile(y, (40, 1))) for y in ys]
    ).T
    mixture = log_sum_exp(comps + log_prior[None, :], axis=1)
    err = float(np.abs(np.exp(direct - mixture) - 1.0).max())
    return CheckResult("grbm-mixture-identity", err < 1e-10, err, 1e-10)


def check_init_identity():
    """Acceptance criterion 03: after the marginal-matching second-layer
    initialization the two-layer likelihood equals the one-layer one, the
    lower bound is tight, and the stack estimator has zero variance."""
    rng = RngStream(1200).generator()
    grbm = random_grbm(rng, m=5, n=6, scale=0.6)
    stack = dbn.DbnModel([grbm, training.init_srbm_from_grbm(grbm, 7)])
    z = exact_log_z(stack.top)
    provider = estimation.AnalyticMarginals(stack)
    x = rng.standard_normal(5)
    truth = dbn.brute_force_log_likelihood(stack, x)
    worst = 0.0
    value_err = 0.0
    for n_is in (1, 100):
        vals = np.array(
            [
                estimation.estimate_dbn_log_likelihood(
                    stack, x, n_is, provider, z, RngStream(1201, i).generator()
                ).log_value
                for i in range(50)
            ]
        )
        worst = max(worst, float(np.var(vals)))
        value_err = max(value_err, abs(vals[0] - truth))
    xs = np.vstack([x, rng.standard_normal((7, 5))])
    one = dbn.brute_force_log_likelihood(dbn.DbnModel([grbm]), xs)
    identity_err = float(np.abs(dbn.brute_force_log_likelihood(stack, xs) - one).max())
    bound = estimation.estimate_lower_bound(stack, x, None, z, None, exact=True)
    bound_err = abs(bound.log_value - truth)
    passed = worst < 1e-20 and value_err < 1e-8 and identity_err < 1e-10 and bound_err < 1e-8
    return CheckResult(
        "init-identity", passed, worst, 1e-20,
        f"estimate err {value_err:.1e} < 1e-8, one-vs-two-layer "
        f"err {identity_err:.1e} < 1e-10, bound err {bound_err:.1e} < 1e-8",
    )


def check_ais_partition():
    """Acceptance criterion 02: AIS log Z of ten 12x10 RBMs within 0.05 nats
    of enumeration."""
    worst = 0.0
    for seed in range(10):
        rng = RngStream(1100, seed).generator()
        model = models.Rbm(
            0.1 * rng.standard_normal((12, 10)),
            0.2 * rng.standard_normal(12),
            0.2 * rng.standard_normal(10),
        )
        base = estimation.fit_base_model(model)
        sched = estimation.AisSchedule(estimation.linear_betas(1000), 100, base)
        run = estimation.run_ais(model, sched, RngStream(1101, seed))
        err = abs(run.log_z_estimate.log_value - models.brute_force_log_partition(model))
        worst = max(worst, err)
    return CheckResult("ais-partition", worst < 0.05, worst, 0.05, "10 models")


def check_estimator_unbiased():
    """Acceptance criterion 04: the mean of 2000 importance-sampled
    likelihoods of a two-RBM stack equals the enumerated one within 3 SE.

    ``measured`` and ``tolerance`` are the |bias| and 3 SE of the n_is
    closest to its bound; ``detail`` lists both."""
    rng = RngStream(1300).generator()
    first = random_rbm(rng, m=4, n=3, scale=0.6)
    top = random_rbm(rng, m=3, n=4, scale=0.6)
    stack = dbn.DbnModel([first, top])
    z = exact_log_z(top)
    provider = estimation.AnalyticMarginals(stack)
    x = models.binary_states(4)[6]
    truth = dbn.brute_force_log_likelihood(stack, x)
    reps = 2000
    rows = []
    for n_is in (1, 10):
        stream = RngStream(1301 + n_is)
        vals = np.array(
            [
                estimation.estimate_dbn_log_likelihood(
                    stack, x, n_is, provider, z, stream.substream(i)
                ).log_value
                for i in range(reps)
            ]
        )
        ratio = np.exp(vals - truth)
        se = ratio.std(ddof=1) / np.sqrt(reps)
        rows.append((n_is, float(abs(ratio.mean() - 1.0)), float(3 * se)))
    _, gap, bound = max(rows, key=lambda r: r[1] / r[2])
    detail = "; ".join(f"n_is={n}: |bias| {g:.4f} < 3se {b:.4f}" for n, g, b in rows)
    return CheckResult(
        "estimator-unbiased", all(g < b for _, g, b in rows), gap, bound, detail
    )


def check_lower_bound():
    """Acceptance criterion 06: on 100 random two-RBM stacks the exact
    variational bound never exceeds the enumerated likelihood, and falls
    short of it by exactly KL(q(y|x) || p(y|x)), enumerated over the 8
    hidden states."""
    stream = RngStream(1500)
    ys = models.binary_states(3)
    worst = -np.inf
    kl_err = 0.0
    for i in range(100):
        rng = stream.substream(i)
        first = random_rbm(rng, m=4, n=3, scale=0.8)
        top = random_rbm(rng, m=3, n=3, scale=0.8)
        stack = dbn.DbnModel([first, top])
        x = (rng.random(4) < 0.5).astype(float)
        log_z = exact_log_z(top)
        bound = estimation.estimate_lower_bound(stack, x, None, log_z, None, exact=True)
        truth = dbn.brute_force_log_likelihood(stack, x)
        worst = max(worst, bound.log_value - truth)
        p = first.hidden_conditional(x)
        log_q = ys @ np.log(p) + (1.0 - ys) @ np.log1p(-p)
        log_posterior = (
            first.log_visible_conditional(np.tile(x, (len(ys), 1)), ys)
            + top.log_unnorm_visible(ys) - log_z.log_value - truth
        )
        kl = float(np.sum(np.exp(log_q) * (log_q - log_posterior)))
        kl_err = max(kl_err, abs(bound.log_value - (truth - kl)))
    return CheckResult(
        "lower-bound", worst <= 0.0 and kl_err < 1e-10, worst, 0.0,
        f"bound minus truth; |bound - (truth - KL)| {kl_err:.1e} < 1e-10",
    )


def check_em_monotone():
    """Acceptance criterion 09: MoIG and MoG EM never lower the training
    log-likelihood on 10 datasets, and a one-component MoG is the MLE."""
    worst = 0.0
    for i in range(10):
        rng = RngStream(1800, i).generator()
        scale = np.diag(0.5 + rng.random(3))
        data = rng.standard_normal((300, 3)) @ scale + 0.5 * rng.standard_normal(3)
        for kind in ("moig", "mog"):
            _, trace = baselines.fit_mixture(
                kind, 3, data, sigma=0.8, iters=50, restarts=1,
                rng=np.random.default_rng(i),
            )
            drops = np.diff(trace)
            if drops.size:
                worst = max(worst, float(-drops.min()))
    rng = RngStream(1801).generator()
    data = rng.standard_normal((500, 3)) @ np.diag([1.5, 0.7, 0.3])
    model, _ = baselines.fit_mixture("mog", 1, data, iters=10, restarts=1,
                                     rng=np.random.default_rng(0))
    reference = baselines.fit_gaussian(data, zero_mean=True)
    gap = float(np.abs(model.covariances[0] - reference.covariance).max())
    return CheckResult(
        "em-monotone", worst < 1e-8 and gap < 1e-10, worst, 1e-8,
        f"K=1 vs MLE gap {gap:.2e} < 1e-10",
    )


def check_preprocess_roundtrip():
    """Acceptance criterion 12: preprocessing drops the DC component,
    whitens to identity covariance, and replays bit-exactly."""
    rng = RngStream(2100).generator()
    raw = pipeline.DataSet(np.exp(0.4 * rng.standard_normal((3000, 16))))
    processed = pipeline.preprocess(raw)
    cov = processed.samples.T @ processed.samples / processed.n_samples
    err = float(np.abs(cov - np.eye(processed.dim)).max())
    replayed = pipeline.replay(processed.provenance, raw.samples)
    exact = np.array_equal(replayed.samples, processed.samples)
    passed = err < 1e-6 and processed.dim == raw.dim - 1 and exact
    return CheckResult(
        "preprocess-roundtrip", passed, err, 1e-6,
        f"dim {raw.dim}->{processed.dim}; replay {'bit-exact' if exact else 'differs'}",
    )


def check_sweep_invariance():
    # started from an exact conditional sample, one sweep must not move
    # the state distribution
    rng = RngStream(8).generator()
    model = random_srbm(rng, m=6, n=3, scale=0.6)
    y = (rng.random(3) < 0.5).astype(float)
    xs = models.binary_states(6)
    logp = -model.energy(xs, np.tile(y, (len(xs), 1)))
    probs = np.exp(logp - log_sum_exp(logp))
    n = 50000
    start = xs[rng.choice(len(xs), size=n, p=probs)]
    swept = model.sample_visible(np.tile(y, (n, 1)), rng, x0=start)
    freq = np.bincount(models.state_index(swept), minlength=len(xs)) / n
    allowed = 3 * np.sqrt(probs * (1 - probs) / n) + 1e-3
    miss = np.abs(freq - probs)
    return CheckResult(
        "sweep-invariance", bool(np.all(miss <= allowed)), float(miss.max()),
        float(allowed.max()),
    )


def check_determinism():
    rng = RngStream(112).generator()
    model = random_rbm(rng, 6, 5, scale=0.3)
    base = estimation.fit_base_model(model)
    sched = estimation.AisSchedule(estimation.linear_betas(50), 64, base)
    a = estimation.run_ais(model, sched, RngStream(400))
    b = estimation.run_ais(model, sched, RngStream(400))
    same = np.array_equal(a.log_weights, b.log_weights) and np.array_equal(
        a.final_samples, b.final_samples
    )
    return CheckResult("determinism", same, 0.0 if same else 1.0, 0.0, "byte-stable AIS")


def check_wide_state_keys():
    """The memoized marginals of a 60-hidden-unit lateral layer tell apart
    states whose binary indices 2^59 and 2^59 + 1 share one float64."""
    rng = RngStream(2200).generator()
    stack = dbn.DbnModel(
        [random_grbm(rng, 4, 6), random_srbm(rng, 6, 60), random_rbm(rng, 60, 3)]
    )
    states = np.zeros((2, 60))
    states[:, 59] = 1.0
    states[1, 0] = 1.0
    truth = models.brute_force_hidden_marginal_srbm(stack.layers[1], states)
    provider = estimation.ExactMarginals(stack)
    first = provider(1, states)
    cached = provider(1, states[::-1])[::-1]
    err = float(max(np.abs(first - truth).max(), np.abs(cached - truth).max()))
    return CheckResult(
        "wide-state-keys", err < 1e-10, err, 1e-10,
        f"true marginals {truth[0]:.8f} and {truth[1]:.8f}",
    )


ALL_CHECKS = [
    check_marginal_consistency,
    check_partition_sides,
    check_gradient_fd,
    check_grbm_mixture_identity,
    check_init_identity,
    check_ais_partition,
    check_estimator_unbiased,
    check_lower_bound,
    check_em_monotone,
    check_preprocess_roundtrip,
    check_sweep_invariance,
    check_determinism,
    check_wide_state_keys,
]


def check_name(check):
    """The suite name of a check function: ``check_ais_partition`` -> ``ais-partition``."""
    return check.__name__.replace("check_", "").replace("_", "-")


def run_suite(name_filter=None):
    results = []
    for check in ALL_CHECKS:
        name = check_name(check)
        if name_filter and name_filter not in name:
            continue
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, False, float("nan"), 0.0, f"crashed: {exc}"))
    return results
