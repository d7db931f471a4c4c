import os

import numpy as np
import pytest
import scipy.special

from dbnkit import estimation
from dbnkit.dbn import DbnModel, average_log_loss, brute_force_log_likelihood
from dbnkit.estimation import (
    AisMarginals,
    AisSchedule,
    AnalyticMarginals,
    EstimationError,
    ExactMarginals,
    estimate_dbn_log_likelihood,
    estimate_lower_bound,
    estimate_potential_log_loss,
    estimate_unnorm_marginal_batch,
    evaluate_stack,
    fit_base_model,
    linear_betas,
    log_partition_zero_weight,
    run_ais,
)
from dbnkit.models import (
    EnumerationBudgetError,
    Grbm,
    Rbm,
    Srbm,
    binary_states,
    brute_force_hidden_marginal_srbm,
    brute_force_log_partition,
)
from dbnkit.numerics import LOG2, RngStream
from dbnkit.oracle import exact_log_z, random_grbm, random_rbm, random_srbm
from dbnkit.training import init_srbm_from_grbm

# -- schedules and bases --------------------------------------------------------


def test_schedule_validation():
    base = Rbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    with pytest.raises(EstimationError):
        AisSchedule(np.array([0.0, 0.5]), 10, base)
    with pytest.raises(EstimationError):
        AisSchedule(np.array([0.0, 0.7, 0.3, 1.0]), 10, base)
    with pytest.raises(EstimationError):
        AisSchedule(linear_betas(10), 0, base)
    # the kernels drop the base hidden units' terms, exact only at zero biases
    with pytest.raises(EstimationError, match="zero hidden biases"):
        AisSchedule(linear_betas(10), 10, Rbm(np.zeros((2, 2)), np.zeros(2), np.array([0.0, 0.3])))


def test_base_model_fitted_to_rates():
    rng = RngStream(70).generator()
    target = random_rbm(rng, 5, 4)
    data = (rng.random((500, 5)) < 0.8).astype(float)
    base = fit_base_model(target, data)
    rate = 1 / (1 + np.exp(-base.visible_bias))
    assert np.allclose(rate, data.mean(axis=0), atol=1e-12)
    assert np.all(base.weights == 0.0)
    assert np.all(base.hidden_bias == 0.0)


def test_zero_weight_partition_closed_forms():
    b = np.array([0.3, -0.7])
    c = np.array([0.1])
    rbm = Rbm(np.zeros((2, 1)), b, c)
    expected = np.log(1 + np.exp(0.3)) + np.log(1 + np.exp(-0.7)) + np.log(1 + np.exp(0.1))
    assert log_partition_zero_weight(rbm) == pytest.approx(expected, abs=1e-12)
    assert log_partition_zero_weight(rbm) == pytest.approx(
        brute_force_log_partition(rbm), abs=1e-10
    )
    grbm = Grbm(np.zeros((2, 1)), b, c, 0.5)
    assert log_partition_zero_weight(grbm) == pytest.approx(
        brute_force_log_partition(grbm), abs=1e-10
    )


# -- AIS ------------------------------------------------------------------------


def test_ais_identical_target_gives_exact_zero_weights():
    # each kernel's weight increments cancel exactly when target == base
    b = np.array([0.2, -0.1, 0.4, 0.0])
    w, c = np.zeros((4, 3)), np.zeros(3)
    for base in (Rbm(w, b, c), Srbm(w, b, c, np.zeros((4, 4))), Grbm(w, b, c, 0.7)):
        schedule = AisSchedule(linear_betas(50), 32, base)
        run = run_ais(base, schedule, RngStream(71))
        assert np.all(run.log_weights == 0.0), base.variant
        assert run.log_z_estimate.log_value == pytest.approx(
            log_partition_zero_weight(base), abs=1e-12
        )


def test_ais_single_step_is_plain_importance_sampling():
    rng = RngStream(72).generator()
    target = random_rbm(rng, 5, 4, scale=0.4)
    base = fit_base_model(target)
    schedule = AisSchedule(linear_betas(1), 2000, base)
    run = run_ais(target, schedule, RngStream(73))
    # with no intermediate steps the samples stay at the base and the weight
    # is exactly the target/base marginal ratio
    expected = target.log_unnorm_visible(run.final_samples) - base.log_unnorm_visible(
        run.final_samples
    )
    assert np.allclose(run.log_weights, expected, atol=1e-10)
    est = run.log_z_estimate
    truth = brute_force_log_partition(target)
    assert abs(est.log_value - truth) < 4 * est.standard_error + 0.02


@pytest.mark.parametrize("maker", [random_rbm, random_grbm, random_srbm])
def test_ais_close_to_brute_force(maker):
    rng = RngStream(74).generator()
    target = maker(rng, m=8, n=6, scale=0.25)
    base = fit_base_model(target)
    schedule = AisSchedule(linear_betas(300), 200, base)
    run = run_ais(target, schedule, RngStream(75))
    assert abs(run.log_z_estimate.log_value - brute_force_log_partition(target)) < 0.05


def test_ais_variant_mismatch():
    rng = RngStream(76).generator()
    target = random_rbm(rng)
    base = fit_base_model(random_srbm(rng, m=target.n_visible, n=target.n_hidden))
    schedule = AisSchedule(linear_betas(10), 4, base)
    with pytest.raises(EstimationError, match="variant"):
        run_ais(target, schedule, RngStream(77))


def test_ais_chunking_is_stable(monkeypatch):
    import dbnkit.estimation as es

    rng = RngStream(78).generator()
    target = random_rbm(rng, 6, 5, scale=0.3)
    base = fit_base_model(target)
    schedule = AisSchedule(linear_betas(40), 600, base)
    one = run_ais(target, schedule, RngStream(79))
    monkeypatch.setattr(es, "AIS_CHUNK", 128)
    parts = run_ais(target, schedule, RngStream(79), threads=4)
    # chunked + threaded run must reproduce the chunk layout deterministically
    monkeypatch.setattr(es, "AIS_CHUNK", 128)
    again = run_ais(target, schedule, RngStream(79), threads=1)
    assert np.array_equal(parts.log_weights, again.log_weights)
    assert np.array_equal(parts.final_samples, again.final_samples)
    # different chunk sizes change stream assignment but not correctness
    assert abs(one.log_z_estimate.log_value - parts.log_z_estimate.log_value) < 0.2


def _multi_chunk_run(monkeypatch, maker=random_rbm, chains=200):
    """A target and schedule that AIS_CHUNK = 64 splits into several chunks."""
    import dbnkit.estimation as es

    monkeypatch.setattr(es, "AIS_CHUNK", 64)
    target = maker(RngStream(80).generator())
    return target, AisSchedule(linear_betas(20), chains, fit_base_model(target))


def _three_cpus(monkeypatch):
    """An affinity set of three CPUs, which a call without ``threads`` uses."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


@pytest.mark.parametrize("maker", [random_rbm, random_grbm, random_srbm])
def test_ais_is_byte_identical_across_worker_counts(monkeypatch, maker):
    _three_cpus(monkeypatch)
    # 200 chains are 4 chunks of 50; 150 are 4 ragged chunks of 38, 38, 37, 37
    for chains in (200, 150):
        target, schedule = _multi_chunk_run(monkeypatch, maker, chains)
        runs = [run_ais(target, schedule, RngStream(81), threads=t) for t in (1, 2, 3, None)]
        assert [r.workers for r in runs] == [1, 2, 3, 3]
        for r in runs[1:]:
            assert np.array_equal(r.log_weights, runs[0].log_weights)
            assert np.array_equal(r.final_samples, runs[0].final_samples)


def _record_pools(monkeypatch):
    """Stand in for the process pool: record each pool's size, map in this process."""
    sizes = []

    class Recording:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(estimation, "ProcessPoolExecutor", Recording)
    return sizes


@pytest.mark.parametrize("chains, pool_sizes", [(200, [4]), (64, [])],
                         ids=["four-chunks", "one-chunk"])
def test_ais_starts_no_more_workers_than_chunks(monkeypatch, chains, pool_sizes):
    target, schedule = _multi_chunk_run(monkeypatch, chains=chains)
    sizes = _record_pools(monkeypatch)
    run = run_ais(target, schedule, RngStream(81), threads=10 ** 6)
    # 200 chains are 4 chunks of 50; a single chunk starts no pool
    assert sizes == pool_sizes
    assert run.workers == max(pool_sizes, default=1)
    with pytest.raises(EstimationError, match="threads must be at least 1"):
        run_ais(target, schedule, RngStream(81), threads=0)


def test_ais_chunks_are_equal_and_pair_up(monkeypatch):
    target, schedule = _multi_chunk_run(monkeypatch)
    sizes = []

    def fake_chunk(job):
        target, base, betas, n_chains, rng = job
        sizes.append(n_chains)
        return np.zeros(n_chains), np.zeros((n_chains, target.n_visible))

    monkeypatch.setattr(estimation, "_chain_chunk", fake_chunk)
    pools = _record_pools(monkeypatch)
    for n in range(1, 5 * 64 + 1):
        sizes.clear()
        pools.clear()
        schedule.n_chains = n
        run = run_ais(target, schedule, RngStream(81), threads=2)
        count = -(-n // 64)
        if count > 1:
            count += count % 2
        assert len(sizes) == count, n
        assert sum(sizes) == n and max(sizes) <= 64 and max(sizes) - min(sizes) <= 1, n
        # a single chunk runs in this process
        assert pools == ([] if count == 1 else [2]), n
        assert run.log_weights.size == n


def test_dead_ais_worker_is_estimation_error(monkeypatch):
    target, schedule = _multi_chunk_run(monkeypatch)
    # the forked workers inherit the patch and die without a result
    monkeypatch.setattr(estimation.kernels, "ais_rbm", lambda *args: os._exit(3))
    with pytest.raises(EstimationError, match="an AIS worker process died"):
        run_ais(target, schedule, RngStream(81), threads=2)


# -- marginal reuse ---------------------------------------------------------------


def test_marginal_estimate_zero_weight_target_is_exact():
    b = np.array([0.4, -0.2, 0.1])
    target = Srbm(np.zeros((3, 2)), b, np.array([0.3, -0.5]), np.zeros((3, 3)))
    base = fit_base_model(target)
    schedule = AisSchedule(linear_betas(20), 500, base)
    run = run_ais(target, schedule, RngStream(80))
    ys = binary_states(2)
    est, _ = estimate_unnorm_marginal_batch(run, target, ys)
    # q(y | x) does not depend on x, so the ratio to the partition estimate
    # is exact
    analytic = ys @ target.hidden_bias - np.log(1 + np.exp(target.hidden_bias)).sum()
    got = est - run.log_z_estimate.log_value
    assert np.allclose(got, analytic, atol=1e-10)


def test_marginal_estimates_match_brute_force():
    rng = RngStream(81).generator()
    target = random_srbm(rng, m=6, n=5, scale=0.3)
    base = fit_base_model(target)
    schedule = AisSchedule(linear_betas(200), 4000, base)
    run = run_ais(target, schedule, RngStream(82))
    ys = binary_states(5)
    picks = rng.choice(len(ys), size=50, replace=True)
    est, ses = estimate_unnorm_marginal_batch(run, target, ys[picks])
    truth = brute_force_hidden_marginal_srbm(target, ys[picks])
    # 3 standard errors, plus a small absolute floor for near-zero ses
    miss = np.abs(est - truth) > 3 * ses + 0.05
    assert miss.mean() < 0.1


def test_single_state_marginal_matches_batch():
    rng = RngStream(83).generator()
    target = random_srbm(rng, m=4, n=3, scale=0.4)
    base = fit_base_model(target)
    run = run_ais(target, AisSchedule(linear_betas(30), 200, base), RngStream(84))
    y = binary_states(3)[5]
    # one state needs no batch axis
    single, single_err = estimate_unnorm_marginal_batch(run, target, y)
    batch, errs = estimate_unnorm_marginal_batch(run, target, y[None, :])
    assert single.shape == (1,)
    assert single[0] == batch[0] and single_err[0] == errs[0]


# -- stack likelihood estimator ----------------------------------------------------


def test_estimator_single_layer_identity():
    rng = RngStream(85).generator()
    model = random_rbm(rng, 4, 3)
    stack = DbnModel([model])
    z = exact_log_z(model)
    x = binary_states(4)[9]
    est = estimate_dbn_log_likelihood(
        stack, x, 7, AnalyticMarginals(stack), z, RngStream(86).generator()
    )
    expected = float(model.log_unnorm_visible(x)) - z.log_value
    assert est.log_value == pytest.approx(expected, abs=1e-12)
    assert est.standard_error == 0.0


def test_estimator_missing_marginal_names_interface():
    rng = RngStream(91).generator()
    first = random_srbm(rng, m=4, n=3)
    top = random_rbm(rng, m=3, n=3)
    stack = DbnModel([first, top])
    provider = AnalyticMarginals(stack)
    with pytest.raises(EstimationError, match="layer 0"):
        estimate_dbn_log_likelihood(
            stack, binary_states(4)[2], 5, provider, exact_log_z(top),
            RngStream(92).generator(),
        )
    with pytest.raises(EstimationError, match="layer 0"):
        AisMarginals(stack, {})(0, binary_states(3)[:2])


def test_exact_marginal_provider_memoizes():
    rng = RngStream(93).generator()
    first = random_srbm(rng, m=4, n=3)
    top = random_rbm(rng, m=3, n=3)
    stack = DbnModel([first, top])
    provider = ExactMarginals(stack)
    ys = binary_states(3)
    a = provider(0, ys)
    b = provider(0, ys)
    assert np.array_equal(a, b)
    assert np.allclose(a, brute_force_hidden_marginal_srbm(first, ys), atol=1e-12)
    # analytic fall-through for the non-lateral layer
    assert np.allclose(provider(1, ys), top.log_unnorm_hidden(ys), atol=1e-12)


def test_estimator_with_exact_marginals_converges():
    # consistency: a well-matched stack (marginal-matching initialization,
    # then a perturbation standing in for brief training) gets within 0.01
    # nats at 1e5 paths
    rng = RngStream(94).generator()
    grbm = random_grbm(rng, m=3, n=4, scale=0.5)
    second = init_srbm_from_grbm(grbm, 4)
    second = Srbm(
        second.weights + 0.3 * rng.standard_normal(second.weights.shape),
        second.visible_bias,
        second.hidden_bias,
        second.lateral,
    )
    stack = DbnModel([grbm, second])
    z = exact_log_z(second)
    provider = ExactMarginals(stack)
    x = rng.standard_normal(3)
    truth = brute_force_log_likelihood(stack, x)
    errs = []
    for n_is in (10, 1000, 100000):
        est = estimate_dbn_log_likelihood(
            stack, x, n_is, provider, z, RngStream(95).generator()
        )
        errs.append(abs(est.log_value - truth))
    assert errs[2] < 0.01
    assert errs[2] < errs[0] + 1e-12


# -- library-level evaluation -----------------------------------------------------


def small_three_layer_stack():
    # grbm-srbm-srbm: the middle layer's hidden marginals need a provider;
    # the top log Z and the interface marginals each enumerate 2^4 states
    rng = RngStream(96).generator()
    layers = [
        random_grbm(rng, m=3, n=4),
        random_srbm(rng, m=4, n=4),
        random_srbm(rng, m=4, n=3),
    ]
    return DbnModel(layers), rng.standard_normal((6, 3))


EVAL_KNOBS = dict(
    n_is=20, n_betas=20, chains_top=50, chains_interface=60, chains_first=40, seed=97,
)


def test_evaluate_stack_enumerates_within_budget():
    stack, x = small_three_layer_stack()
    result = evaluate_stack(stack, x, exact="auto", marginals="auto", budget=2 ** 10,
                            **EVAL_KNOBS)
    assert result.ais["exact_z"] is True
    assert result.ais["marginals"] == "exact"
    assert result.log_z_top.log_value == brute_force_log_partition(stack.top)
    assert np.array_equal(result.brute_force, brute_force_log_likelihood(stack, x))
    assert result.log_values.shape == result.standard_errors.shape == (6,)


def test_evaluate_stack_anneals_with_exact_off():
    stack, x = small_three_layer_stack()
    result = evaluate_stack(stack, x, exact="off", marginals="ais", budget=2 ** 10,
                            **EVAL_KNOBS)
    assert result.brute_force is None
    assert set(result.stages) == {"log_z_top", "ais_interface[1]", "paths", "brute_force"}
    assert result.workers == 1
    assert result.ais["exact_z"] is False
    assert result.ais["chains_top"] == 50
    assert result.ais["marginals"] == "ais"
    assert result.ais["chains_interface"] == 60
    assert result.ais["marginal_se_mean"] > 0
    assert result.log_z_top.standard_error > 0


@pytest.mark.parametrize("exact, marginals", [("on", "auto"), ("off", "exact")])
def test_evaluate_stack_refuses_enumeration_over_budget(exact, marginals):
    stack, x = small_three_layer_stack()
    with pytest.raises(EnumerationBudgetError, match="not enumerable"):
        evaluate_stack(stack, x, exact=exact, marginals=marginals, budget=2 ** 4 - 1,
                       **EVAL_KNOBS)


@pytest.mark.parametrize("key, bad", [("exact", "of"), ("marginals", "nonsense")])
def test_evaluate_stack_rejects_unknown_choice(key, bad):
    stack, x = small_three_layer_stack()
    choices = {"exact": "auto", "marginals": "auto", key: bad}
    with pytest.raises(EstimationError, match=f"{key} must be one of .*'{bad}'"):
        evaluate_stack(stack, x, budget=2 ** 10, **choices, **EVAL_KNOBS)


# -- path estimator workers ---------------------------------------------------------


def rbm_paths_stack(monkeypatch):
    """A 3-layer RBM stack and 23 points, which PATH_BLOCK = 4 splits into 6 blocks."""
    monkeypatch.setattr(estimation, "PATH_BLOCK", 4)
    rng = RngStream(98).generator()
    layers = [random_rbm(rng, m=5, n=4), random_rbm(rng, m=4, n=3), random_rbm(rng, m=3, n=3)]
    return DbnModel(layers), (rng.random((23, 5)) < 0.5).astype(np.float64)


def test_paths_are_byte_identical_across_worker_counts(monkeypatch):
    stack, x = rbm_paths_stack(monkeypatch)
    knobs = dict(EVAL_KNOBS, exact="auto", marginals="auto", budget=2 ** 10)
    results = [evaluate_stack(stack, x, **dict(knobs, threads=t)) for t in (1, 2, 3)]
    assert [r.workers for r in results] == [1, 2, 3]
    for r in results[1:]:
        assert np.array_equal(r.log_values, results[0].log_values)
        assert np.array_equal(r.standard_errors, results[0].standard_errors)
    # point i, whatever its block, draws from substream (13, i)
    stream = RngStream(knobs["seed"], 33)
    for i in (0, 5, 22):
        est = estimate_dbn_log_likelihood(stack, x[i], knobs["n_is"], AnalyticMarginals(stack),
                                          results[2].log_z_top, stream.substream(13, i))
        assert est.log_value == results[2].log_values[i]


@pytest.mark.parametrize("case, marginals, pool_sizes", [
    ("analytic", None, [6]), ("ais", "ais", []), ("exact", "exact", []), ("one-layer", None, []),
])
def test_paths_start_a_pool_only_for_analytic_marginals(monkeypatch, case, marginals,
                                                        pool_sizes):
    stack, x = rbm_paths_stack(monkeypatch)
    if case in ("ais", "exact"):
        # the table providers fill their memo in this process
        stack, x = small_three_layer_stack()
    elif case == "one-layer":
        stack = DbnModel(stack.layers[:1])
    sizes = _record_pools(monkeypatch)
    knobs = dict(EVAL_KNOBS, exact="off" if case == "ais" else "auto",
                 marginals=marginals or "auto", budget=2 ** 10)
    result = evaluate_stack(stack, x, threads=10 ** 6, **knobs)
    assert result.ais.get("marginals") == marginals
    assert sizes == pool_sizes
    assert result.workers == max(pool_sizes, default=1)
    # a count below 1 is refused whether or not the paths leave this process
    with pytest.raises(EstimationError, match="threads must be at least 1"):
        evaluate_stack(stack, x, threads=0, **knobs)


@pytest.mark.parametrize("case, workers", [("analytic", 3), ("one-layer", 1), ("lateral", 1)])
def test_paths_use_the_cpu_set_by_default(monkeypatch, case, workers):
    _three_cpus(monkeypatch)
    stack, x = rbm_paths_stack(monkeypatch)
    if case == "one-layer":
        stack = DbnModel(stack.layers[:1])
    elif case == "lateral":
        # enumerated marginals fill their memo in this process
        stack, x = small_three_layer_stack()
    knobs = dict(EVAL_KNOBS, exact="auto", marginals="auto", budget=2 ** 10)
    default = evaluate_stack(stack, x, **knobs)
    serial = evaluate_stack(stack, x, threads=1, **knobs)
    assert default.workers == workers
    assert np.array_equal(default.log_values, serial.log_values)
    assert np.array_equal(default.standard_errors, serial.standard_errors)


def test_dead_path_worker_is_estimation_error(monkeypatch):
    stack, x = rbm_paths_stack(monkeypatch)
    # the forked workers inherit the patch and die without a result
    monkeypatch.setattr(estimation, "estimate_dbn_log_likelihood", lambda *args: os._exit(3))
    with pytest.raises(EstimationError, match="a path worker process died"):
        evaluate_stack(stack, x, exact="auto", marginals="auto", budget=2 ** 10,
                       **dict(EVAL_KNOBS, threads=2))


# -- lower bound -------------------------------------------------------------------


def test_lower_bound_entropy_term():
    from dbnkit.numerics import bernoulli_entropy

    assert bernoulli_entropy(np.full(6, 0.5)) == pytest.approx(6 * np.log(2), abs=1e-12)


def test_lower_bound_monte_carlo_matches_exact():
    rng = RngStream(98).generator()
    first = random_rbm(rng, m=4, n=3, scale=0.5)
    top = random_rbm(rng, m=3, n=3, scale=0.5)
    stack = DbnModel([first, top])
    x = (rng.random(4) < 0.5).astype(float)
    exact = estimate_lower_bound(stack, x, None, exact_log_z(top), None, exact=True)
    mc = estimate_lower_bound(
        stack, x, 20000, exact_log_z(top), RngStream(99).generator()
    )
    assert abs(mc.log_value - exact.log_value) < 4 * mc.standard_error + 1e-3


# -- potential log loss --------------------------------------------------------------


def test_potential_log_loss_zero_weight_closed_form():
    rng = RngStream(100).generator()
    b = rng.standard_normal(3)
    model = Grbm(np.zeros((3, 4)), b, np.zeros(4), 0.6)
    data = rng.standard_normal((200, 3))
    got = estimate_potential_log_loss(model, data, rng=RngStream(101).generator())
    # reconstruction density is Normal(b, sigma^2 I) regardless of the source
    d = data - b
    log_p = -np.sum(d * d, axis=1) / (2 * 0.36) - 1.5 * np.log(2 * np.pi * 0.36)
    expected = float(np.mean(-log_p / LOG2) / 3)
    assert got == pytest.approx(expected, abs=1e-8)


def test_potential_log_loss_single_point_definition():
    rng = RngStream(102).generator()
    model = random_grbm(rng, m=3, n=4, scale=0.5)
    x = rng.standard_normal(3)
    seed_rng = RngStream(103).generator()
    got = estimate_potential_log_loss(model, x[None, :], rng=seed_rng)
    # recompute with the same draws
    redo = RngStream(103).generator()
    probs = np.atleast_2d(model.hidden_conditional(x[None, :]))
    y = (redo.random(probs.shape) < probs).astype(float)
    log_q = model.log_visible_conditional(x[None, :], y)
    expected = float(-log_q[0] / LOG2 / 3)
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("variant", ["grbm", "rbm"])
def test_potential_log_loss_matches_pairwise_definition(monkeypatch, variant):
    rng = RngStream(106).generator()
    if variant == "grbm":
        model = random_grbm(rng, m=3, n=4, scale=0.8, sigma=0.7)
        data = rng.standard_normal((23, 3))
    else:
        model = random_rbm(rng, m=5, n=4, scale=0.8)
        data = (rng.random((23, 5)) < 0.4).astype(np.float64)
    recon = data[:10] + 0.25
    # 10 points x 2 reconstructions = 20 components, 5 rows per block: four
    # full blocks and a ragged last one of 3 rows
    monkeypatch.setattr(estimation, "POTENTIAL_BLOCK", 100)
    rows = []

    def keep_rows(dataset, evaluator):
        rows.append(evaluator(dataset))
        return average_log_loss(dataset, evaluator)

    monkeypatch.setattr(estimation, "average_log_loss", keep_rows)
    got = estimate_potential_log_loss(
        model, data, recon_set=recon, k_recon=2, rng=RngStream(107).generator()
    )
    redo = RngStream(107).generator()
    probs = model.hidden_conditional(recon)
    ys = np.concatenate([(redo.random(probs.shape) < probs).astype(float) for _ in range(2)])
    want = np.array([
        scipy.special.logsumexp(model.log_visible_conditional(np.tile(x, (len(ys), 1)), ys))
        - np.log(len(ys))
        for x in data
    ])
    np.testing.assert_allclose(rows[0], want, rtol=0, atol=1e-10)
    assert got == pytest.approx(float(np.mean(-want / LOG2) / data.shape[1]), abs=1e-10)


@pytest.mark.parametrize("which", ["eval_set", "recon_set"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_potential_log_loss_names_first_non_finite_row(which, bad):
    rng = RngStream(108).generator()
    model = random_grbm(rng, m=3, n=4)
    sets = {"eval_set": rng.standard_normal((50, 3)), "recon_set": rng.standard_normal((50, 3))}
    sets[which][30, 0] = bad
    sets[which][7, 2] = bad
    with pytest.raises(EstimationError, match=f"{which} row 7 "):
        estimate_potential_log_loss(model, sets["eval_set"], recon_set=sets["recon_set"])


def test_potential_log_loss_grows_with_reconstruction_set():
    rng = RngStream(104).generator()
    model = random_grbm(rng, m=4, n=6, scale=0.8, sigma=0.5)
    data = rng.standard_normal((4000, 4))
    sizes = (250, 1000, 4000)
    means = []
    for s in sizes:
        vals = [
            estimate_potential_log_loss(
                model, data[:s], rng=RngStream(105, i).generator()
            )
            for i in range(5)
        ]
        means.append(np.mean(vals))
    assert means[0] <= means[1] <= means[2]
