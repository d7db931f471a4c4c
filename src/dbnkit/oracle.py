"""Desk-scale self-checks: every estimator against an independent oracle.

Each check compares a fast path against enumeration, finite differences,
closed forms, or Monte Carlo ground truth, and reports the measured error
against its tolerance.  The CLI exposes the suite as a command so a fresh
checkout can be validated end to end in minutes.
"""

from dataclasses import dataclass

import numpy as np

from . import baselines, dbn, estimation, models, pipeline, training
from .numerics import LogEstimate, RngStream, log_mean_exp, log_sum_exp


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _random_model(variant, m, n, rng, scale=0.5, sigma=0.8):
    w = scale * rng.standard_normal((m, n))
    b = 0.5 * rng.standard_normal(m)
    c = 0.5 * rng.standard_normal(n)
    if variant == models.RBM:
        return models.Rbm(w, b, c)
    if variant == models.GRBM:
        return models.Grbm(w, b, c, sigma)
    lat = scale * rng.standard_normal((m, m))
    lat = 0.5 * (lat + lat.T)
    np.fill_diagonal(lat, 0.0)
    return models.Srbm(w, b, c, lat)


def check_marginal_consistency():
    rng = RngStream(101).generator()
    worst = 0.0
    for variant in (models.RBM, models.GRBM, models.SRBM):
        model = _random_model(variant, 4, 3, rng)
        ys = models.binary_states(model.n_hidden)
        if variant == models.GRBM:
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
    model = _random_model(models.RBM, 5, 4, rng)
    za = log_sum_exp(model.log_unnorm_visible(models.binary_states(5)))
    zb = log_sum_exp(model.log_unnorm_hidden(models.binary_states(4)))
    err = abs(za - zb)
    srbm = _random_model(models.SRBM, 5, 4, rng)
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
    worst = 0.0
    for seed, variant in enumerate((models.RBM, models.GRBM, models.SRBM)):
        rng = RngStream(103, seed).generator()
        model = _random_model(variant, 4, 3, rng, scale=0.4)
        if variant == models.GRBM:
            batch = rng.standard_normal((12, 4))
        else:
            batch = (rng.random((12, 4)) < 0.5).astype(float)
        exact = training.exact_ml_gradient(model, batch)
        fd = fd_gradient(model.copy(), batch)
        for name, ref in fd.items():
            scale = max(np.abs(ref).max(), 1e-8)
            worst = max(
                worst, float(np.abs(exact.grads[name] - ref).max() / scale)
            )
    return CheckResult("gradient-fd", worst < 1e-5, worst, 1e-5)


def check_grbm_mixture_identity():
    rng = RngStream(104).generator()
    model = _random_model(models.GRBM, 3, 4, rng, scale=0.6, sigma=0.7)
    log_z = models.brute_force_log_partition(model)
    ys = models.binary_states(4)
    log_prior = model.log_unnorm_hidden(ys) - log_z
    xs = rng.standard_normal((20, 3))
    direct = model.log_unnorm_visible(xs) - log_z
    comp = np.array(
        [model.log_visible_conditional(xs, np.tile(y, (20, 1))) for y in ys]
    ).T
    mixture = log_sum_exp(comp + log_prior[None, :], axis=1)
    err = float(np.abs(np.exp(direct - mixture) - 1.0).max())
    return CheckResult("grbm-mixture-identity", err < 1e-10, err, 1e-10)


def check_init_identity():
    rng = RngStream(105).generator()
    grbm = _random_model(models.GRBM, 4, 5, rng, scale=0.5, sigma=0.9)
    second = training.init_srbm_from_grbm(grbm, 6)
    stack = dbn.DbnModel([grbm, second])
    x = rng.standard_normal((6, 4))
    two = dbn.brute_force_log_likelihood(stack, x)
    one = dbn.brute_force_log_likelihood(dbn.DbnModel([grbm]), x)
    err = float(np.abs(two - one).max())
    log_z = LogEstimate(models.brute_force_log_partition(second), 0.0, 1)
    bound = estimation.estimate_lower_bound(stack, x[0], None, log_z, None, exact=True)
    err = max(err, abs(bound.log_value - two[0]))
    return CheckResult("init-identity", err < 1e-8, err, 1e-8)


def check_ais_partition():
    rng = RngStream(106).generator()
    worst = 0.0
    for i in range(3):
        model = _random_model(models.RBM, 10, 8, rng, scale=0.15)
        base = estimation.fit_base_model(model)
        sched = estimation.AisSchedule(estimation.linear_betas(500), 100, base)
        run = estimation.run_ais(model, sched, RngStream(200 + i))
        err = abs(run.log_z_estimate.log_value - models.brute_force_log_partition(model))
        worst = max(worst, err)
    return CheckResult("ais-partition", worst < 0.05, worst, 0.05)


def check_estimator_unbiased():
    rng = RngStream(107).generator()
    first = _random_model(models.RBM, 4, 3, rng, scale=0.6)
    top = _random_model(models.RBM, 3, 4, rng, scale=0.6)
    stack = dbn.DbnModel([first, top])
    x = (rng.random(4) < 0.5).astype(float)
    truth = dbn.brute_force_log_likelihood(stack, x)
    log_z = LogEstimate(models.brute_force_log_partition(top), 0.0, 1)
    provider = estimation.AnalyticMarginals(stack)
    reps = 400
    stream = RngStream(300)
    vals = np.array(
        [
            estimation.estimate_dbn_log_likelihood(
                stack, x, 5, provider, log_z, stream.substream(i)
            ).log_value
            for i in range(reps)
        ]
    )
    log_mean = log_mean_exp(vals)
    se = np.exp(vals - truth).std(ddof=1) / np.sqrt(reps)
    err = abs(np.exp(log_mean - truth) - 1.0)
    return CheckResult(
        "estimator-unbiased", err < 4 * se, err, 4 * se, f"{reps} replications"
    )


def check_lower_bound():
    stream = RngStream(108)
    worst = -np.inf
    for i in range(30):
        rng = stream.substream(i)
        first = _random_model(models.RBM, 4, 3, rng, scale=0.8)
        top = _random_model(models.RBM, 3, 3, rng, scale=0.8)
        stack = dbn.DbnModel([first, top])
        x = (rng.random(4) < 0.5).astype(float)
        log_z = LogEstimate(models.brute_force_log_partition(top), 0.0, 1)
        bound = estimation.estimate_lower_bound(stack, x, None, log_z, None, exact=True)
        truth = dbn.brute_force_log_likelihood(stack, x)
        worst = max(worst, bound.log_value - truth)
    return CheckResult("lower-bound", worst <= 1e-9, worst, 1e-9, "bound minus truth")


def check_em_monotone():
    rng = RngStream(109).generator()
    data = np.concatenate(
        [
            rng.standard_normal((150, 3)) * 0.5 + np.array([1.5, 0, 0]),
            rng.standard_normal((150, 3)) * 0.5 - np.array([1.5, 0, 0]),
        ]
    )
    worst = 0.0
    _, trace = baselines.fit_mixture("moig", 2, data, sigma=0.5, iters=40, rng=rng)
    drops = np.diff(trace)
    worst = max(worst, float(-drops.min()) if drops.size else 0.0)
    _, trace = baselines.fit_mixture("mog", 2, data, iters=40, rng=rng)
    drops = np.diff(trace)
    worst = max(worst, float(-drops.min()) if drops.size else 0.0)
    return CheckResult("em-monotone", worst < 1e-8, worst, 1e-8)


def check_preprocess_roundtrip():
    rng = RngStream(110).generator()
    raw = pipeline.DataSet(np.exp(rng.standard_normal((600, 9))))
    processed = pipeline.preprocess(raw)
    cov = processed.samples.T @ processed.samples / processed.n_samples
    err = float(np.abs(cov - np.eye(processed.dim)).max())
    replayed = pipeline.replay(processed.provenance, raw.samples)
    exact = np.array_equal(replayed.samples, processed.samples)
    passed = err < 1e-6 and processed.dim == raw.dim - 1 and exact
    return CheckResult(
        "preprocess-roundtrip", passed, err, 1e-6, "replay bit-exact" if exact else "replay differs"
    )


def check_sweep_invariance():
    rng = RngStream(111).generator()
    model = _random_model(models.SRBM, 6, 3, rng, scale=0.5)
    y = (rng.random(3) < 0.5).astype(float)
    xs = models.binary_states(6)
    logits = -model.energy(xs, np.tile(y, (len(xs), 1)))
    probs = np.exp(logits - log_sum_exp(logits))
    n = 40000
    start_idx = rng.choice(len(xs), size=n, p=probs)
    x = xs[start_idx]
    swept = model.sample_visible(np.tile(y, (n, 1)), rng, x0=x)
    idx = models.state_index(swept)
    freq = np.bincount(idx, minlength=len(xs)) / n
    se = np.sqrt(probs * (1 - probs) / n)
    err = float(np.abs(freq - probs).max())
    bound = float((3 * se + 1e-3).max())
    passed = bool(np.all(np.abs(freq - probs) <= 3 * se + 1e-3))
    return CheckResult("sweep-invariance", passed, err, bound)


def check_determinism():
    rng = RngStream(112).generator()
    model = _random_model(models.RBM, 6, 5, rng, scale=0.3)
    base = estimation.fit_base_model(model)
    sched = estimation.AisSchedule(estimation.linear_betas(50), 64, base)
    a = estimation.run_ais(model, sched, RngStream(400))
    b = estimation.run_ais(model, sched, RngStream(400))
    same = np.array_equal(a.log_weights, b.log_weights) and np.array_equal(
        a.final_samples, b.final_samples
    )
    return CheckResult("determinism", same, 0.0 if same else 1.0, 0.0, "byte-stable AIS")


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
]


def run_suite(name_filter=None):
    results = []
    for check in ALL_CHECKS:
        name = check.__name__.replace("check_", "").replace("_", "-")
        if name_filter and name_filter not in name:
            continue
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, False, float("nan"), 0.0, f"crashed: {exc}"))
    return results
