"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity against its tolerance (run with -s to see them)."""

import textwrap
import time

import numpy as np
import pytest

from dbnkit import cli, oracle
from dbnkit.dbn import DbnModel, average_log_loss, brute_force_log_likelihood
from dbnkit.estimation import (
    AisMarginals,
    AisSchedule,
    AnalyticMarginals,
    ExactMarginals,
    estimate_dataset_log_likelihood,
    estimate_potential_log_loss,
    fit_base_model,
    linear_betas,
    run_ais,
)
from dbnkit.models import Grbm, Srbm, binary_states
from dbnkit.numerics import LOG2, LogEstimate, RngStream, log_mean_exp
from dbnkit.oracle import exact_log_z, random_rbm, repeated_estimates
from dbnkit.pipeline import synthesize
from dbnkit.training import LayerSpec, TrainConfig, train_dbn_greedy


def report(n, name, detail):
    print(f"ACCEPTANCE {n:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def trained_stack():
    """GRBM(6 visible, 8 hidden) + SRBM(8) + SRBM(8) on synthetic data."""
    rng = RngStream(1000).generator()
    means = 1.2 * rng.standard_normal((3, 6))
    spec = {
        "kind": "isotropic_mixture",
        "means": means,
        "sigma": 0.5,
        "weights": np.full(3, 1 / 3),
    }
    train = synthesize(spec, 5000, RngStream(1001).generator())
    test = synthesize(spec, 300, RngStream(1002).generator())
    specs = [
        LayerSpec("grbm", 8, sigma=0.5),
        LayerSpec("srbm", 8),
        LayerSpec("srbm", 8),
    ]
    configs = [
        TrainConfig(epochs=20, batch_size=100, seed=11),
        TrainConfig(epochs=10, batch_size=100, seed=12),
        TrainConfig(epochs=10, batch_size=100, seed=13),
    ]
    stack, _ = train_dbn_greedy(specs, train.samples, configs)
    return stack, test.samples


def test_criterion_01_estimator_vs_truth(trained_stack):
    started = time.perf_counter()
    stack, test = trained_stack
    truth_bits = average_log_loss(test, lambda rows: brute_force_log_likelihood(stack, rows))
    z = exact_log_z(stack.top)

    def run_with(provider):
        estimates, _, _ = estimate_dataset_log_likelihood(
            stack, test, 10 ** 4, provider, z, RngStream(1003))
        est = np.array([e.log_value for e in estimates])
        return float(np.mean(-est / LOG2) / test.shape[1])

    # enumerated interface marginals: only path-sampling error remains
    exact_bits = run_with(ExactMarginals(stack))
    gap_exact = abs(exact_bits - truth_bits)
    assert gap_exact < 0.005, f"estimator off by {gap_exact:.6f} bits/component"

    # AIS-estimated interface marginals at production-like counts
    base = fit_base_model(stack.layers[1])
    schedule = AisSchedule(linear_betas(500), 20000, base)
    run = run_ais(stack.layers[1], schedule, RngStream(1004))
    ais_bits = run_with(AisMarginals(stack, {1: run}))
    gap_ais = abs(ais_bits - truth_bits)
    assert gap_ais < 0.005, f"AIS-marginal estimator off by {gap_ais:.6f} bits"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(1, "estimator-vs-truth",
           f"true {truth_bits:.7f}: exact-marginal gap {gap_exact:.2e}, "
           f"ais-marginal gap {gap_ais:.2e} bits < 5e-3, {elapsed:.0f}s")


def test_criterion_02_ais_accuracy():
    started = time.perf_counter()
    r = oracle.check_ais_partition()
    elapsed = time.perf_counter() - started
    assert r.passed, r
    assert elapsed < 30.0
    report(2, "ais-accuracy", f"worst |logZ error| {r.measured:.4f} < 0.05 nats, {elapsed:.1f}s")


def test_criterion_03_zero_variance_identity():
    r = oracle.check_init_identity()
    assert r.passed, r
    report(3, "zero-variance-identity", f"max sample variance {r.measured:.2e} < 1e-20")


def test_criterion_04_unbiasedness():
    r = oracle.check_estimator_unbiased()
    assert r.passed, r
    report(4, "unbiasedness", r.detail)


def test_criterion_05_overestimation_with_noisy_z():
    rng = RngStream(1400).generator()
    first = random_rbm(rng, m=4, n=3, scale=0.6)
    top = random_rbm(rng, m=3, n=3, scale=0.6)
    stack = DbnModel([first, top])
    x = binary_states(4)[9]
    truth = np.exp(brute_force_log_likelihood(stack, x))
    provider = AnalyticMarginals(stack)
    reps = 2000
    # one AIS pass with 2 chains per replication, 10 annealing steps so the
    # partition estimate is deliberately noisy
    base = fit_base_model(top)
    schedule = AisSchedule(linear_betas(10), 2 * reps, base)
    pooled = run_ais(top, schedule, RngStream(1401))
    pair_log_z = (
        log_mean_exp(pooled.log_weights.reshape(reps, 2), axis=1) + pooled.log_z_base
    )
    # each replication's own log Z is subtracted from an estimate made with log Z = 0
    unnormalized = repeated_estimates(stack, x, reps, 5, provider, LogEstimate(0.0, 0.0, 2),
                                      RngStream(1402))
    estimates = np.exp(unnormalized - pair_log_z)
    se = estimates.std(ddof=1) / np.sqrt(reps)
    t = (estimates.mean() - truth) / se
    # one-sided test at alpha = 0.01
    assert t > 2.326, f"t={t:.2f}: no significant overestimation"
    report(5, "overestimation-noisy-z",
           f"mean p-hat/p = {estimates.mean() / truth:.4f}, t = {t:.1f} > 2.33")


def test_criterion_06_lower_bound_never_above():
    r = oracle.check_lower_bound()
    assert r.passed, r
    report(6, "lower-bound", f"max(bound - truth) = {r.measured:.3e} <= 0 on 100 stacks")


def test_criterion_07_gradient_correctness():
    r = oracle.check_gradient_fd()
    assert r.passed, r
    report(7, "gradient-correctness", f"max rel err {r.measured:.2e} < 1e-5 (60 instances)")


def test_criterion_08_grbm_mixture_identity():
    r = oracle.check_grbm_mixture_identity()
    assert r.passed, r
    report(8, "grbm-mixture-identity", f"max rel err {r.measured:.2e} < 1e-10")


def test_criterion_09_em_monotonicity():
    r = oracle.check_em_monotone()
    assert r.passed, r
    report(9, "em-monotonicity", f"worst drop {r.measured:.2e} (tol 1e-8); {r.detail}")


def _toy_three_layer(seed, mid_scale=1.0, lat_scale=0.7):
    rng = RngStream(1900, seed).generator()
    grbm = Grbm(
        0.5 * rng.standard_normal((4, 6)),
        0.3 * rng.standard_normal(4),
        0.3 * rng.standard_normal(6),
        0.6,
    )

    def lateral_layer(m, n, w_scale):
        lat = lat_scale * rng.standard_normal((m, m))
        lat = 0.5 * (lat + lat.T)
        np.fill_diagonal(lat, 0.0)
        return Srbm(
            w_scale * rng.standard_normal((m, n)),
            0.3 * rng.standard_normal(m),
            0.3 * rng.standard_normal(n),
            lat,
        )

    return DbnModel([grbm, lateral_layer(6, 6, mid_scale), lateral_layer(6, 6, mid_scale)])


def _sliced_run(full, c, j, n_betas):
    from dbnkit.estimation import AisRun
    from dbnkit.numerics import monte_carlo_se

    w = full.log_weights[j * c : (j + 1) * c]
    s = full.final_samples[j * c : (j + 1) * c]
    est = monte_carlo_se(w)
    return AisRun(
        w, s, full.log_z_base,
        LogEstimate(est.log_value + full.log_z_base, est.standard_error, c), n_betas,
    )


def test_criterion_10_marginal_sample_trend():
    counts = (100, 1000, 10000)
    seeds = 20
    pool = 10000
    n_betas = 30
    stack = _toy_three_layer(0)
    z = exact_log_z(stack.top)
    rng = RngStream(1901).generator()
    test = rng.standard_normal((25, 4))
    base = fit_base_model(stack.layers[1])
    sums = {c: [] for c in counts}
    for seed in range(seeds):
        # one chain pool per seed; smaller counts reuse disjoint slices of it
        schedule = AisSchedule(linear_betas(n_betas), pool, base)
        full = run_ais(stack.layers[1], schedule, RngStream(1902, seed))
        for c in counts:
            block_vals = []
            for j in range(min(10, pool // c)):
                provider = AisMarginals(stack, {1: _sliced_run(full, c, j, n_betas)})
                estimates, _, _ = estimate_dataset_log_likelihood(
                    stack, test, 300, provider, z, RngStream(1903, seed))
                vals = np.array([e.log_value for e in estimates])
                block_vals.append(float(np.mean(-vals / LOG2) / 4))
            sums[c].append(float(np.mean(block_vals)))
    means = [float(np.mean(sums[c])) for c in counts]
    assert means[0] < means[1] < means[2], f"trend violated: {means}"
    report(10, "marginal-sample-trend",
           f"log-loss {means[0]:.4f} < {means[1]:.4f} < {means[2]:.4f} bits over {seeds} seeds")


def test_criterion_11_potential_log_loss_trend():
    # a trained model on whitened-scale data: the reconstruction kernel is
    # sharp enough that growing the reconstruction set keeps diluting each
    # point's own reconstruction, as for a kernel density estimate
    sizes = (1000, 4000, 16000)
    seeds = 20
    dim = 15
    rng = RngStream(2600).generator()
    train = rng.standard_normal((5000, dim))
    stack, _ = train_dbn_greedy(
        [LayerSpec("grbm", 24, sigma=0.4)],
        train,
        [TrainConfig(epochs=30, batch_size=100, seed=1)],
    )
    model = stack.layers[0]
    means = []
    for s in sizes:
        vals = []
        for seed in range(seeds):
            # nested pools: smaller sizes are prefixes of the same draw
            pool = RngStream(2601, seed).generator().standard_normal((16000, dim))
            vals.append(
                estimate_potential_log_loss(
                    model, pool[:s], rng=RngStream(2602, seed).generator()
                )
            )
        means.append(float(np.mean(vals)))
    assert means[0] <= means[1] <= means[2], f"trend violated: {means}"

    # W = 0: the reconstruction mixture collapses to the visible gaussian
    b = rng.standard_normal(3)
    flat = Grbm(np.zeros((3, 4)), b, np.zeros(4), 0.6)
    data = rng.standard_normal((500, 3))
    got = estimate_potential_log_loss(flat, data, rng=RngStream(2003).generator())
    d = data - b
    log_p = -np.sum(d * d, axis=1) / (2 * 0.36) - 1.5 * np.log(2 * np.pi * 0.36)
    expected = float(np.mean(-log_p / LOG2) / 3)
    gap = abs(got - expected)
    assert gap < 1e-8
    report(11, "potential-log-loss-trend",
           f"{means[0]:.4f} <= {means[1]:.4f} <= {means[2]:.4f} bits; closed-form gap {gap:.1e}")


def test_criterion_12_preprocessing():
    r = oracle.check_preprocess_roundtrip()
    assert r.passed, r
    report(12, "preprocessing", f"covariance err {r.measured:.1e} < 1e-6; {r.detail}")


def _determinism_configs(ws):
    prep = ws / "prep.ini"
    prep.write_text(textwrap.dedent(
        f"""
        [experiment]
        seed = 3
        out_dir = {ws / 'data'}

        [preprocess]
        source = synthetic
        pairs = 1
        n_train = 300
        n_test = 40

        [synthetic]
        kind = isotropic_mixture
        dim = 4
        components = 2
        sigma = 0.5
        """
    ))
    train = ws / "train.ini"
    train.write_text(textwrap.dedent(
        f"""
        [experiment]
        seed = 4
        out_dir = {ws / 'run'}

        [data]
        train = {ws / 'data' / 'train_00.dbds'}

        [layers]
        count = 2

        [layer.0]
        variant = grbm
        hidden = 4
        sigma = 0.6

        [layer.0.train]
        epochs = 3
        batch_size = 100

        [layer.1]
        variant = srbm
        hidden = 4

        [layer.1.train]
        epochs = 3
        batch_size = 100
        """
    ))
    ev = ws / "eval.ini"
    ev.write_text(textwrap.dedent(
        f"""
        [experiment]
        seed = 5
        out_dir = {ws / 'eval'}

        [eval]
        model = {ws / 'run' / 'model'}
        dataset = {ws / 'data' / 'test_00.dbds'}

        [ais]
        n_betas = 40
        chains_top = 100
        chains_interface = 9000

        [estimator]
        n_is = 40
        exact = off
        marginals = ais
        """
    ))
    return str(prep), str(train), str(ev)


def test_criterion_13_determinism(tmp_path):
    # identical config; only --threads and --out vary, neither of which may
    # change a single output byte
    prep, train, ev = _determinism_configs(tmp_path)
    assert cli.main(["preprocess", "--config", prep]) == 0

    model_files = ("manifest.json", "layer_00.dbk", "layer_01.dbk")
    models_by_run = {}
    for run, threads in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"train_{run}"
        code = cli.main(
            ["train", "--config", train, "--threads", str(threads), "--out", str(out)]
        )
        assert code == 0
        models_by_run[run] = b"".join(
            (out / "model" / name).read_bytes() for name in model_files
        )
    assert models_by_run["a"] == models_by_run["b"], "model differs across reruns"
    assert models_by_run["a"] == models_by_run["c"], "model differs across threads"

    # evaluate the same model dir under both thread counts, twice
    assert cli.main(["train", "--config", train]) == 0  # the path the eval expects
    reports = {}
    for run, threads in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"eval_{run}"
        code = cli.main(
            ["eval", "--config", ev, "--threads", str(threads), "--out", str(out)]
        )
        assert code == 0
        reports[run] = (out / "report.json").read_bytes()
    assert reports["a"] == reports["b"], "report differs across reruns"
    assert reports["a"] == reports["c"], "report differs across threads"
    report(13, "determinism", "model files and reports byte-identical across "
                              "reruns and thread counts {1, 4}")
