import json
import os
import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.special

from dbnkit import cli, estimation, numerics
from dbnkit.baselines import MoigModel, average_log_loss_bits, save_baseline
from dbnkit.config import ExperimentConfig
from dbnkit.dbn import DbnModel, average_log_loss, brute_force_log_likelihood, save_dbn
from dbnkit.estimation import (
    AisMarginals,
    AisRun,
    AisSchedule,
    AnalyticMarginals,
    EstimationError,
    EstimatorSpec,
    EvalResult,
    ExactMarginals,
    estimate_dataset_log_likelihood,
    estimate_lower_bound,
    estimate_potential_log_loss,
    estimate_unnorm_marginal_batch,
    evaluate_density,
    evaluate_stack,
    fit_base_model,
    linear_betas,
    log_partition_zero_weight,
    report_fields,
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
    state_index,
)
from dbnkit.numerics import (
    LOG2,
    MAX_CELLS,
    LogEstimate,
    RngStream,
    monte_carlo_se,
    softplus_log,
)
from dbnkit.oracle import exact_log_z, random_grbm, random_rbm, random_srbm
from dbnkit.pipeline import DataSet, PipelineError, save_dataset
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


@pytest.mark.parametrize("maker", [random_rbm, random_srbm])
def test_ais_chunks_on_both_sides_of_the_table_threshold(monkeypatch, maker):
    # 255 chains are chunks of 128 and 127: with 7 visible units (2^7 = 128
    # states) the first reads state-code tables and the second runs row by row
    import dbnkit.estimation as es
    import dbnkit.models as md

    monkeypatch.setattr(es, "AIS_CHUNK", 128)
    target = maker(RngStream(82).generator(), m=7, n=5)
    schedule = AisSchedule(linear_betas(30), 255, fit_base_model(target))
    tables = []
    states = md.binary_states
    monkeypatch.setattr(md, "binary_states", lambda k, *a: tables.append(k) or states(k, *a))
    one = run_ais(target, schedule, RngStream(83), threads=1)
    assert tables == [7, 5]  # the visible and hidden tables of one chunk
    two = run_ais(target, schedule, RngStream(83), threads=2)
    assert two.workers == 2
    assert one.log_weights.tobytes() == two.log_weights.tobytes()
    assert one.final_samples.tobytes() == two.final_samples.tobytes()


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


def test_marginal_reweighting_memory_stays_within_fixed_blocks():
    # the 64 x 20000 log terms, built whole, took 22.4 MB at their peak
    rng = RngStream(86).generator()
    target = random_srbm(rng, m=8, n=8, scale=0.4)
    run = run_ais(target, AisSchedule(linear_betas(5), 20000, fit_base_model(target)),
                  RngStream(87), threads=1)
    ys = binary_states(8)[rng.permutation(256)[:64]]
    tracemalloc.start()
    try:
        values, errors = estimate_unnorm_marginal_batch(run, target, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    # the blocks keep the unblocked arithmetic, bit for bit
    act = target.hidden_activation(run.final_samples)
    log_on, log_off = -softplus_log(-act), -softplus_log(act)
    whole = ys @ log_on.T + (1.0 - ys) @ log_off.T + run.log_weights
    reference = [monte_carlo_se(row) for row in whole]
    assert np.array_equal(values, [e.log_value + run.log_z_base for e in reference])
    assert np.array_equal(errors, [e.standard_error for e in reference])


# -- stack likelihood estimator ----------------------------------------------------


def test_estimator_single_layer_identity():
    rng = RngStream(85).generator()
    model = random_rbm(rng, 4, 3)
    stack = DbnModel([model])
    z = exact_log_z(model)
    x = binary_states(4)[9]
    # a single point is a one-row dataset
    (est,), _, _ = estimate_dataset_log_likelihood(
        stack, x, 7, AnalyticMarginals(stack), z, RngStream(86))
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
        estimate_dataset_log_likelihood(
            stack, binary_states(4)[2], 5, provider, exact_log_z(top), RngStream(92))
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
        (est,), _, _ = estimate_dataset_log_likelihood(stack, x, n_is, provider, z, RngStream(95))
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


EVAL_SPEC = EstimatorSpec(n_is=20, n_betas=20, chains_top=50, chains_interface=60,
                          chains_first=40, enum_budget=2 ** 10)
EVAL_SEED = 97


def test_evaluate_stack_enumerates_within_budget():
    stack, x = small_three_layer_stack()
    result = evaluate_stack(stack, x, EVAL_SPEC, seed=EVAL_SEED)
    assert result.ais["exact_z"] is True
    assert result.ais["marginals"] == "exact"
    assert result.log_z_top.log_value == brute_force_log_partition(stack.top)
    assert np.array_equal(result.brute_force, brute_force_log_likelihood(stack, x))
    assert result.log_values.shape == result.standard_errors.shape == (6,)


def test_evaluate_stack_anneals_with_exact_off():
    stack, x = small_three_layer_stack()
    result = evaluate_stack(stack, x, replace(EVAL_SPEC, exact="off", marginals="ais"),
                            seed=EVAL_SEED)
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
    spec = replace(EVAL_SPEC, exact=exact, marginals=marginals, enum_budget=2 ** 4 - 1)
    with pytest.raises(EnumerationBudgetError, match="not enumerable"):
        evaluate_stack(stack, x, spec, seed=EVAL_SEED)


@pytest.mark.parametrize("key, bad", [
    ("exact", "of"), ("marginals", "nonsense"), ("n_is", 0), ("chains_first", -1),
    ("enum_budget", 0),
])
def test_estimator_spec_refuses_bad_value(key, bad):
    rule = {"exact": "one of auto, on, off", "marginals": "one of auto, exact, ais"}
    message = f"^{key} must be {rule.get(key, 'at least 1')}, not {bad!r}$"
    with pytest.raises(ValueError, match=message):
        EstimatorSpec(**{key: bad})
    # replace checks the new values too
    with pytest.raises(ValueError, match=message):
        replace(EVAL_SPEC, **{key: bad})


@pytest.mark.parametrize("key", ["n_betas", "chains_top", "chains_interface", "chains_first",
                                 "n_is"])
def test_estimator_spec_refuses_a_count_past_max_cells(key):
    assert getattr(EstimatorSpec(**{key: MAX_CELLS}), key) == MAX_CELLS
    message = f"^{key} must be at most {MAX_CELLS}, not 10000000000000$"
    with pytest.raises(ValueError, match=message):
        EstimatorSpec(**{key: 10 ** 13})
    # a budget is not a count: it may exceed the bound
    assert EstimatorSpec(enum_budget=2 ** 63).enum_budget == 2 ** 63


def small_moig():
    return MoigModel([[0.3, -0.2, 0.1], [-0.5, 0.4, 0.0]], 0.9, [0.4, 0.6])


def cli_eval_config(tmp_path, model, x):
    """An eval config for ``model`` (a stack directory or a baseline file) on
    the rows ``x``, with EVAL_SPEC's AIS settings and AIS marginals."""
    save_dataset(DataSet(x), tmp_path / "x.dbds")
    path = tmp_path / "eval.ini"
    path.write_text(
        f"[experiment]\nseed = {EVAL_SEED}\nout_dir = {tmp_path / 'ev'}\n\n"
        f"[eval]\nmodel = {model}\ndataset = {tmp_path / 'x.dbds'}\n\n"
        "[ais]\nn_betas = 20\nchains_top = 50\nchains_interface = 60\n\n"
        "[estimator]\nn_is = 20\nmarginals = ais\n"
    )
    return str(path)


@pytest.mark.parametrize("kind", ["stack", "density"])
def test_report_fields_are_the_cli_report_without_its_header(tmp_path, kind):
    stack, x = small_three_layer_stack()
    if kind == "stack":
        save_dbn(stack, tmp_path / "model")
        cfg = cli_eval_config(tmp_path, tmp_path / "model", x)
        spec = ExperimentConfig.load(cfg).estimator
        result = evaluate_stack(stack, x, spec, seed=EVAL_SEED, threads=1)
    else:
        save_baseline(small_moig(), tmp_path / "baseline.dbk")
        cfg = cli_eval_config(tmp_path, tmp_path / "baseline.dbk", x)
        result = evaluate_density(small_moig(), x)
    assert cli.main(["eval", "--config", cfg]) == 0
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    header = {"tool_version", "config_hash", "seed", "label", "timing"}
    fields = report_fields(result, 3)
    assert fields == {k: v for k, v in report.items() if k not in header}
    # the bits, and the path SE as sqrt(sum se^2) / n / (ln 2 d), to 7 digits
    se = np.sqrt(np.sum(result.standard_errors ** 2)) / len(x) / (np.log(2) * 3)
    assert fields["se_path_bits"] == pytest.approx(se, rel=1e-6)
    assert fields["bits_per_component"] == pytest.approx(
        -np.mean(result.log_values) / np.log(2) / 3, rel=1e-6)
    assert fields["per_sample_log2"] == pytest.approx(result.log_values / np.log(2), rel=1e-15)
    stack_keys = {"n_is", "log_z_top", "se_log_z", "ais", "brute_force_bits"}
    assert (stack_keys <= set(report)) == (kind == "stack")
    assert ("marginal_se_mean" in report.get("ais", {})) == (kind == "stack")


def test_density_report_is_exact_with_zero_path_se():
    model, x = small_moig(), RngStream(98).generator().standard_normal((40, 3))
    result = evaluate_density(model, x)
    assert list(result.stages) == ["log_density"] and result.workers == 1
    fields = report_fields(result, 3)
    assert fields["exact_density"] is True
    assert fields["se_path_bits"] == 0.0
    # perfbench's check of the MoIG report
    assert fields["bits_per_component"] == float(f"{average_log_loss_bits(model, x):.7g}")
    assert not {"n_is", "log_z_top", "se_log_z", "ais", "brute_force_bits"} & set(fields)


@pytest.mark.parametrize("field, log_z_top, ais", [
    ("log_z_top", LogEstimate(np.inf, 0.0, 1), {}),
    ("se_log_z", LogEstimate(0.0, np.inf, 1), {}),
    ("ais.marginal_se_mean", LogEstimate(0.0, 0.0, 1), {"marginal_se_mean": np.nan}),
])
def test_report_fields_name_a_non_finite_field(field, log_z_top, ais):
    result = EvalResult(np.zeros(2), np.zeros(2), log_z_top, ais, None, {}, 1, 10)
    with pytest.raises(EstimationError, match=rf"^{re.escape(field)} is not finite"):
        report_fields(result, 2)


# -- path estimator workers ---------------------------------------------------------


def rbm_paths_stack(monkeypatch):
    """A 3-layer RBM stack and 23 points, which PATH_BLOCK = 4 splits into 6 blocks."""
    monkeypatch.setattr(estimation, "PATH_BLOCK", 4)
    rng = RngStream(98).generator()
    layers = [random_rbm(rng, m=5, n=4), random_rbm(rng, m=4, n=3), random_rbm(rng, m=3, n=3)]
    return DbnModel(layers), (rng.random((23, 5)) < 0.5).astype(np.float64)


def path_case(monkeypatch, case):
    """``(stack, points, spec)`` of a path worker test.  "analytic" is
    rbm_paths_stack and "one-layer" its first layer.  "exact" and "ais" are
    small_three_layer_stack with enumerated or AIS interface marginals, its 6
    points 3 blocks of PATH_BLOCK = 2; "lateral" is "ais" with a table cap of
    8 states, under layer 1's 16."""
    if case in ("analytic", "one-layer"):
        stack, x = rbm_paths_stack(monkeypatch)
        return (stack if case == "analytic" else DbnModel(stack.layers[:1])), x, EVAL_SPEC
    monkeypatch.setattr(estimation, "PATH_BLOCK", 2)
    if case == "lateral":
        monkeypatch.setattr(estimation, "PATH_TABLE_STATES", 8)
    stack, x = small_three_layer_stack()
    if case == "exact":
        return stack, x, replace(EVAL_SPEC, marginals="exact")
    return stack, x, replace(EVAL_SPEC, exact="off", marginals="ais")


def test_paths_are_byte_identical_across_worker_counts(monkeypatch):
    for case in ("analytic", "exact", "ais"):
        stack, x, spec = path_case(monkeypatch, case)
        results = [evaluate_stack(stack, x, spec, seed=EVAL_SEED, threads=t) for t in (1, 2, 3)]
        assert [r.workers for r in results] == [1, 2, 3]
        assert ("marginal_se_mean" in results[0].ais) == (case == "ais")
        for r in results[1:]:
            assert np.array_equal(r.log_values, results[0].log_values)
            assert np.array_equal(r.standard_errors, results[0].standard_errors)
            assert r.ais == results[0].ais
    # point i, whatever its block, draws from substream (13, i)
    stack, x, _ = path_case(monkeypatch, "analytic")
    result = evaluate_stack(stack, x, EVAL_SPEC, seed=EVAL_SEED, threads=3)
    stream = RngStream(EVAL_SEED, 33)
    for i in (0, 5, 22):
        want = per_row_reference(stack, x[i], EVAL_SPEC.n_is, AnalyticMarginals(stack),
                                 result.log_z_top, stream.substream(13, i))
        assert result.log_values[i] == pytest.approx(want.log_value, abs=1e-12)


@pytest.mark.parametrize("case, marginals, pool_sizes", [
    ("analytic", None, [6]), ("ais", "ais", [3]), ("exact", "exact", [3]), ("one-layer", None, []),
])
def test_paths_start_a_pool_unless_the_stack_has_one_layer(monkeypatch, case, marginals,
                                                           pool_sizes):
    """Every stack of more than one layer whose paths read tables or analytic
    marginals spreads its blocks, here one worker a block; a one-layer stack
    starts no pool."""
    stack, x, spec = path_case(monkeypatch, case)
    sizes = _record_pools(monkeypatch)
    result = evaluate_stack(stack, x, spec, seed=EVAL_SEED, threads=10 ** 6)
    assert result.ais.get("marginals") == marginals
    assert sizes == pool_sizes
    assert result.workers == max(pool_sizes, default=1)
    # a count below 1 is refused whether or not the paths leave this process
    with pytest.raises(EstimationError, match="threads must be at least 1"):
        evaluate_stack(stack, x, spec, seed=EVAL_SEED, threads=0)


@pytest.mark.parametrize("case, workers", [
    ("analytic", 3), ("one-layer", 1), ("lateral", 1), ("exact", 3), ("ais", 3),
])
def test_paths_use_the_cpu_set_by_default(monkeypatch, case, workers):
    # a lateral layer without a table fills its provider's memo in this process
    _three_cpus(monkeypatch)
    stack, x, spec = path_case(monkeypatch, case)
    default = evaluate_stack(stack, x, spec, seed=EVAL_SEED)
    serial = evaluate_stack(stack, x, spec, seed=EVAL_SEED, threads=1)
    assert default.workers == workers
    assert np.array_equal(default.log_values, serial.log_values)
    assert np.array_equal(default.standard_errors, serial.standard_errors)
    assert default.ais == serial.ais


def test_dead_path_worker_is_estimation_error(monkeypatch):
    stack, x = rbm_paths_stack(monkeypatch)
    # the forked workers inherit the patch and die without a result
    monkeypatch.setattr(estimation, "_visible_term", lambda *args: os._exit(3))
    with pytest.raises(EstimationError, match="a path worker process died"):
        evaluate_stack(stack, x, EVAL_SPEC, seed=EVAL_SEED, threads=2)


# -- path tables -------------------------------------------------------------------


def per_row_reference(dbn, x0, n_is, marginal_provider, log_z_top, rng):
    """The path estimator without tables: every layer's ratio and the next
    draw's conditional evaluated on all n_is rows of the point."""
    x0 = np.asarray(x0, dtype=np.float64)
    first = dbn.layers[0]
    base_term = float(first.log_unnorm_visible(x0)) - log_z_top.log_value
    current = np.broadcast_to(x0, (n_is, x0.size))
    log_w = np.zeros(n_is)
    for l in range(dbn.n_layers - 1):
        layer = dbn.layers[l]
        upper = dbn.layers[l + 1]
        current = np.atleast_2d(layer.sample_hidden(current, rng))
        log_w += upper.log_unnorm_visible(current) - marginal_provider(l, current)
    est = monte_carlo_se(log_w)
    return LogEstimate(base_term + est.log_value, est.standard_error, n_is)


def providers_of(case, stack):
    """Two fresh providers of one kind, so the reference and the tables each fill their own."""
    if case == "analytic":
        return AnalyticMarginals(stack), AnalyticMarginals(stack)
    if case == "exact":
        return ExactMarginals(stack), ExactMarginals(stack)
    run = run_ais(stack.layers[1], AisSchedule(linear_betas(20), 300, fit_base_model(stack.layers[1])),
                  RngStream(110))
    return AisMarginals(stack, {1: run}), AisMarginals(stack, {1: run})


def assert_matches_reference(stack, x, provider, reference, n_is=50):
    """The dataset estimator agrees with per_row_reference at every point;
    returns its drawn-state masks."""
    z, stream = exact_log_z(stack.top), RngStream(111)
    estimates, _, drawn = estimate_dataset_log_likelihood(stack, x, n_is, provider, z, stream)
    for i, got in enumerate(estimates):
        want = per_row_reference(stack, x[i], n_is, reference, z, stream.substream(13, i))
        assert got.log_value == pytest.approx(want.log_value, abs=1e-12)
        assert got.standard_error == pytest.approx(want.standard_error, abs=1e-12)
    return drawn


@pytest.mark.parametrize("case", ["analytic", "exact", "ais"])
def test_path_tables_match_the_per_row_reference(monkeypatch, case):
    stack, x = rbm_paths_stack(monkeypatch) if case == "analytic" else small_three_layer_stack()
    provider, reference = providers_of(case, stack)
    drawn = assert_matches_reference(stack, x, provider, reference)
    assert all(mask is not None for mask in drawn)
    if case == "ais":
        # the table estimated every state of layer 1; the per-row reference
        # only those the paths drew, which are the ones the mean counts
        assert len(provider.standard_errors[1]) == 2 ** stack.layers[1].n_hidden
        assert provider.mean_standard_error(drawn) == pytest.approx(
            reference.mean_standard_error([None, None]), rel=1e-12)


def test_marginal_se_mean_counts_only_the_drawn_states():
    stack, x = small_three_layer_stack()
    provider, reference = providers_of("ais", stack)
    # two paths of one point reach at most two of layer 1's 16 states
    drawn = assert_matches_reference(stack, x[:1], provider, reference, n_is=2)
    reached = reference.standard_errors[1]
    assert 1 <= len(reached) == drawn[1].sum() <= 2
    assert len(provider.standard_errors[1]) == 2 ** stack.layers[1].n_hidden
    assert provider.mean_standard_error(drawn) == pytest.approx(np.mean(list(reached.values())),
                                                                rel=1e-12)
    assert provider.mean_standard_error(drawn) != pytest.approx(
        np.mean(list(provider.standard_errors[1].values())), rel=1e-6)


def test_exact_marginals_have_zero_errors_and_no_report_mean():
    stack, x = small_three_layer_stack()
    provider = ExactMarginals(stack)
    _, _, drawn = estimate_dataset_log_likelihood(stack, x, 20, provider, exact_log_z(stack.top),
                                                  RngStream(117))
    assert len(provider.standard_errors[1]) == 2 ** stack.layers[1].n_hidden
    assert set(provider.standard_errors[1].values()) == {0.0}
    assert provider.mean_standard_error(drawn) == 0.0
    # a provider pickles, memo and all, so a pool can take it
    copy = pickle.loads(pickle.dumps(provider))
    ys = binary_states(4)
    assert np.array_equal(copy(1, ys), provider(1, ys))
    result = evaluate_stack(stack, x, replace(EVAL_SPEC, marginals="exact"), seed=EVAL_SEED,
                            threads=1)
    assert result.ais["marginals"] == "exact"
    assert "marginal_se_mean" not in report_fields(result, 3)["ais"]


def test_an_ais_path_table_is_one_reweighting_within_fixed_memory():
    """A 2^10-state table over 20000 AIS samples computes the samples'
    activations once and keeps the rest within ENUM_BLOCK blocks."""
    rng = RngStream(118).generator()
    stack = DbnModel([random_srbm(rng, m=6, n=10), random_rbm(rng, m=10, n=3)])
    n = 20000
    run = AisRun(rng.standard_normal(n), (rng.random((n, 6)) < 0.5).astype(np.float64), 0.0,
                 LogEstimate(0.0, 0.0, n), 5)
    provider = AisMarginals(stack, {0: run})
    tracemalloc.start()
    try:
        ratio, cond = estimation._path_table(stack, provider, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    states = binary_states(10)
    values, errors = estimate_unnorm_marginal_batch(run, stack.layers[0], states)
    assert cond is None
    assert np.array_equal(ratio, stack.layers[1].log_unnorm_visible(states) - values)
    assert list(provider.standard_errors[0].values()) == errors.tolist()


class CountingMarginals(AnalyticMarginals):
    """Analytic marginals that record the codes of every call's states."""

    def __init__(self, dbn):
        super().__init__(dbn)
        self.calls = []

    def __call__(self, layer_index, states):
        self.calls.append((layer_index, state_index(states)))
        return super().__call__(layer_index, states)


@pytest.mark.parametrize("threads", [1, 2])
def test_provider_is_called_only_while_a_table_is_built(monkeypatch, threads):
    stack, x = rbm_paths_stack(monkeypatch)
    provider = CountingMarginals(stack)
    z = exact_log_z(stack.top)
    _, workers, _ = estimation.estimate_dataset_log_likelihood(
        stack, x, 20, provider, z, RngStream(112), threads=threads)
    assert workers == threads
    # the tables are built in this process, one call per layer holding all
    # its states in ascending code order
    assert [layer for layer, _ in provider.calls] == list(range(stack.n_layers - 1))
    for l, codes in provider.calls:
        assert np.array_equal(codes, np.arange(2 ** stack.layers[l].n_hidden))
    # nothing is kept on the provider: each call builds its own tables
    built = len(provider.calls)
    estimation.estimate_dataset_log_likelihood(stack, x, 20, provider, z, RngStream(113),
                                               threads=1)
    assert len(provider.calls) == 2 * built


@pytest.mark.parametrize("cap, tabulated", [(8, [False, True]), (7, [False, False])])
def test_layers_over_the_table_cap_draw_row_by_row(monkeypatch, cap, tabulated):
    # layer 0 has 2^4 states, layer 1 2^3
    monkeypatch.setattr(estimation, "PATH_TABLE_STATES", cap)
    stack, x = rbm_paths_stack(monkeypatch)
    drawn = assert_matches_reference(stack, x, AnalyticMarginals(stack), AnalyticMarginals(stack))
    assert [mask is not None for mask in drawn] == tabulated
    results = [evaluate_stack(stack, x, EVAL_SPEC, seed=EVAL_SEED, threads=t) for t in (1, 2, 3)]
    assert [r.workers for r in results] == [1, 2, 3]
    for r in results[1:]:
        assert np.array_equal(r.log_values, results[0].log_values)
        assert np.array_equal(r.standard_errors, results[0].standard_errors)


def test_one_layer_stack_is_one_evaluation(monkeypatch):
    stack, x = rbm_paths_stack(monkeypatch)
    stack = DbnModel(stack.layers[:1])
    z = exact_log_z(stack.top)
    estimates, workers, drawn = estimation.estimate_dataset_log_likelihood(
        stack, x, 7, AnalyticMarginals(stack), z, RngStream(115), threads=2)
    assert (workers, drawn) == (1, [])
    want = [float(stack.top.log_unnorm_visible(point)) - z.log_value for point in x]
    assert [e.log_value for e in estimates] == pytest.approx(want, abs=1e-12)
    assert {(e.standard_error, e.n_samples) for e in estimates} == {(0.0, 7)}
    with pytest.raises(EstimationError, match="at least one importance sample"):
        estimation.estimate_dataset_log_likelihood(stack, x, 0, AnalyticMarginals(stack), z,
                                                   RngStream(115))


@pytest.mark.parametrize("layers", [1, 3])
def test_bad_arguments_are_refused_before_any_table_is_built(monkeypatch, layers):
    stack, x = rbm_paths_stack(monkeypatch)
    stack = DbnModel(stack.layers[:layers])
    provider, z = CountingMarginals(stack), exact_log_z(stack.top)
    with pytest.raises(EstimationError, match="no points to estimate"):
        estimate_dataset_log_likelihood(stack, x[:0], 7, provider, z, RngStream(116))
    with pytest.raises(EstimationError, match="at least one importance sample"):
        estimate_dataset_log_likelihood(stack, x, 0, provider, z, RngStream(116))
    assert provider.calls == []


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


def test_exact_lower_bound_of_a_lateral_first_layer_falls_short_by_the_kl():
    rng = RngStream(97).generator()
    first, top = random_srbm(rng, m=4, n=3), random_rbm(rng, m=3, n=3)
    stack = DbnModel([first, top])
    x = binary_states(4)[5]
    z = exact_log_z(top)
    bound = estimate_lower_bound(stack, x, None, z, None, exact=True).log_value
    truth = brute_force_log_likelihood(stack, x)
    # log p(x, y) with q(x | y) enumerated from the energy
    ys, xs = binary_states(3), binary_states(4)
    log_cond = np.array([-first.energy(x, y) - scipy.special.logsumexp(-first.energy(xs, y))
                         for y in ys])
    log_joint = log_cond + top.log_unnorm_visible(ys) - z.log_value
    p = first.hidden_conditional(x)
    log_q = ys @ np.log(p) + (1.0 - ys) @ np.log1p(-p)
    kl = float(np.sum(np.exp(log_q) * (log_q - (log_joint - truth))))
    assert bound < truth
    assert bound == pytest.approx(truth - kl, abs=1e-10)


def test_exact_lower_bound_keeps_to_its_budget(monkeypatch):
    rng = RngStream(98).generator()
    first = random_rbm(rng, m=4, n=3, scale=0.5)
    top = random_rbm(rng, m=3, n=3, scale=0.5)
    stack = DbnModel([first, top])
    x = (rng.random(4) < 0.5).astype(float)
    z = exact_log_z(top)
    wide = estimate_lower_bound(stack, x, None, z, None, exact=True)
    monkeypatch.setattr(estimation, "DEFAULT_ENUM_BUDGET", 2 ** 3)
    assert estimate_lower_bound(stack, x, None, z, None, exact=True) == wide
    monkeypatch.setattr(estimation, "DEFAULT_ENUM_BUDGET", 2 ** 3 - 1)
    with pytest.raises(EnumerationBudgetError, match=r"2\^3 states, above the budget of 7"):
        estimate_lower_bound(stack, x, None, z, None, exact=True)


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
    monkeypatch.setattr(estimation, "ENUM_BLOCK", 100)
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


def test_potential_log_loss_enumerates_a_lateral_layer():
    rng = RngStream(108).generator()
    model = random_srbm(rng, m=4, n=3)
    data = (rng.random((12, 4)) < 0.5).astype(np.float64)
    got = estimate_potential_log_loss(model, data, k_recon=2, rng=RngStream(109).generator())
    redo = RngStream(109).generator()
    probs = model.hidden_conditional(data)
    ys = np.concatenate([(redo.random(probs.shape) < probs).astype(float) for _ in range(2)])
    # q(x | y) = exp(-E(x, y)) / sum_x' exp(-E(x', y)), enumerated here
    xs = binary_states(4)
    log_norm = np.array([scipy.special.logsumexp(-model.energy(xs, y)) for y in ys])
    want = np.array([scipy.special.logsumexp(-model.energy(x, ys) - log_norm) - np.log(len(ys))
                     for x in data])
    assert got == pytest.approx(float(np.mean(-want / LOG2) / 4), abs=1e-10)


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


@pytest.mark.parametrize("first", [0, 3, 4, 29, 48, 49])
def test_blocked_finiteness_checks_name_the_first_bad_row(monkeypatch, first):
    # blocks of 12 cells are 4 rows of 3 values: the bad rows sit at the
    # edges of the first, a middle and the ragged last block
    monkeypatch.setattr(numerics, "ENUM_BLOCK", 12)
    rng = RngStream(110).generator()
    model = random_grbm(rng, m=3, n=4)
    clean = rng.standard_normal((50, 3))
    rows = clean.copy()
    rows[first, 1] = np.nan
    rows[min(first + 5, 49), 0] = np.inf
    for which in ("eval_set", "recon_set"):
        sets = {"eval_set": clean, "recon_set": clean, which: rows}
        with pytest.raises(EstimationError, match=f"^{which} row {first} is not finite$"):
            estimate_potential_log_loss(model, sets["eval_set"], recon_set=sets["recon_set"])
    with pytest.raises(PipelineError, match="^dataset contains non-finite values$"):
        DataSet(rows)
    assert DataSet(clean).samples is clean


def test_potential_log_loss_memory_stays_within_fixed_blocks():
    # an rbm_paths-sized call: 3000 binary points of 12 values, a 12 x 10
    # RBM, 3000 components; blocks of 2^20 cells peaked at 8.8 MB here
    rng = RngStream(111).generator()
    model = random_rbm(rng, m=12, n=10, scale=0.5)
    data = (rng.random((3000, 12)) < 0.5).astype(np.float64)
    tracemalloc.start()
    try:
        value = estimate_potential_log_loss(model, data, rng=RngStream(112).generator())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 3 * 2 ** 20


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
