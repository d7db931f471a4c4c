import os

import numpy as np
import pytest
from scipy import stats

from dbnkit import baselines, estimation
from dbnkit.baselines import (
    BaselineError,
    BaselineSpec,
    GaussianModel,
    MogModel,
    MoigModel,
    _m_step,
    average_log_loss_bits,
    cross_validate_sigma,
    default_ridge,
    fit_em,
    fit_gaussian,
    fit_mixture,
    init_mog,
    init_moig,
    moig_sigma_scorer,
)
from dbnkit.numerics import RngStream, log_sum_exp


def test_fit_gaussian_degenerate_point():
    data = np.tile([1.0, 2.0, 3.0], (50, 1))
    model = fit_gaussian(data, ridge=1e-4)
    assert np.allclose(model.mean, [1, 2, 3])
    assert np.allclose(model.covariance, 1e-4 * np.eye(3))


def test_fit_gaussian_standard_normal_log_loss():
    rng = RngStream(120).generator()
    data = rng.standard_normal((10 ** 5, 4))
    model = fit_gaussian(data)
    loss = average_log_loss_bits(model, data)
    assert loss == pytest.approx(0.5 * np.log2(2 * np.pi * np.e), abs=0.01)


def test_fit_gaussian_whitened_data():
    rng = RngStream(121).generator()
    raw = rng.standard_normal((5000, 3)) @ np.diag([3.0, 1.0, 0.2])
    centered = raw - raw.mean(axis=0)
    cov = centered.T @ centered / raw.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    white = centered @ vecs @ np.diag(vals ** -0.5) @ vecs.T
    model = fit_gaussian(white)
    assert np.abs(model.covariance - np.eye(3)).max() < 0.01


def test_gaussian_log_density_at_origin():
    model = GaussianModel(np.zeros(4), np.eye(4))
    assert model.log_density(np.zeros(4))[0] == pytest.approx(
        -2 * np.log(2 * np.pi), abs=1e-12
    )


def test_moig_single_component_is_isotropic_normal():
    mean = np.array([0.5, -1.0])
    model = MoigModel(mean[None, :], 0.8, np.array([1.0]))
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    expected = stats.multivariate_normal(mean, 0.64 * np.eye(2)).logpdf(x)
    assert np.allclose(model.log_density(x), expected, atol=1e-12)


def test_mog_density_against_scipy_reference():
    rng = RngStream(122).generator()
    covs = []
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        covs.append(a @ a.T + 0.5 * np.eye(3))
    weights = np.array([0.5, 0.3, 0.2])
    model = MogModel(np.array(covs), weights)
    x = rng.standard_normal((20, 3))
    parts = np.array(
        [stats.multivariate_normal(np.zeros(3), c).logpdf(x) for c in covs]
    ).T
    expected = np.log(np.exp(parts) @ weights)
    assert np.allclose(model.log_density(x), expected, rtol=1e-12)


def test_k1_mog_matches_zero_mean_mle():
    rng = RngStream(123).generator()
    data = rng.standard_normal((800, 3)) @ np.diag([1.5, 0.7, 0.3])
    model, _ = fit_mixture("mog", 1, data, iters=10, restarts=1,
                           rng=np.random.default_rng(0))
    reference = fit_gaussian(data, ridge=None, zero_mean=True)
    # both use the same default ridge
    assert np.abs(model.covariances[0] - reference.covariance).max() < 1e-10


def test_em_recovers_two_isotropic_components():
    rng = RngStream(124).generator()
    truth = np.array([[2.0, 0.0], [-2.0, 0.0]])
    data = np.concatenate(
        [0.5 * rng.standard_normal((600, 2)) + truth[i] for i in (0, 1)]
    )
    model, _ = fit_mixture(
        "moig", 2, data, sigma=0.5, iters=200, restarts=3, rng=np.random.default_rng(1)
    )
    got = model.means[np.argsort(model.means[:, 0])[::-1]]
    assert np.abs(got - truth).max() < 0.05


def test_em_trace_nondecreasing():
    rng = RngStream(125).generator()
    for kind in ("moig", "mog"):
        data = rng.standard_normal((400, 3)) @ np.diag([2.0, 1.0, 0.5])
        _, trace = fit_mixture(
            kind, 3, data, sigma=1.0, iters=60, restarts=1, rng=np.random.default_rng(2)
        )
        assert np.all(np.diff(trace) > -1e-8)


def test_em_reinitializes_collapsed_component(caplog):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((200, 2))
    # one component far away gets essentially zero responsibility
    model = MoigModel(np.array([[0.0, 0.0], [500.0, 500.0]]), 1.0, np.array([0.5, 0.5]))
    with caplog.at_level("WARNING"):
        fitted, trace = fit_em(model, data, iters=10, rng=rng)
    assert "reinitializing" in caplog.text
    assert np.abs(fitted.means).max() < 50.0


def test_em_reinitializes_components_that_collapse_together_from_distinct_rows():
    # three far-away components collapse in the first iteration; two that
    # drew the same datum would leave one of them with zero weight
    data = np.random.default_rng(0).standard_normal((6, 2))
    means = np.array([[0.0, 0.0], [500.0, 500.0], [-500.0, 500.0], [500.0, -500.0]])
    for seed in range(10):
        model = MoigModel(means, 1.0, np.full(4, 0.25))
        fitted, _ = fit_em(model, data, iters=5, rng=np.random.default_rng(seed))
        assert np.all(fitted.weights > 0)


def _component_log_densities(model, data):
    """Textbook per-component log densities, an (n, k) array."""
    d = data.shape[1]
    if isinstance(model, MoigModel):
        sq = ((data[:, None, :] - model.means[None, :, :]) ** 2).sum(axis=2)
        return -sq / (2 * model.sigma ** 2) - 0.5 * d * np.log(2 * np.pi * model.sigma ** 2)
    cols = []
    for cov in model.covariances:
        maha = np.einsum("ni,ij,nj->n", data, np.linalg.inv(cov), data)
        cols.append(-0.5 * (maha + np.linalg.slogdet(cov)[1] + d * np.log(2 * np.pi)))
    return np.array(cols).T


@pytest.mark.parametrize("kind", ["moig", "mog"])
def test_em_matches_a_textbook_em_step(kind):
    rng = RngStream(131).generator()
    centers = 2.0 * rng.standard_normal((3, 3))
    data = centers[rng.integers(3, size=300)] + rng.standard_normal((300, 3)) @ np.diag([1.0, 0.6, 0.3])
    init = init_moig(3, data, 0.8, rng) if kind == "moig" else init_mog(3, data, rng)
    ridge = default_ridge(data) if kind == "mog" else 0.0
    model, trace = init, []
    for _ in range(30):
        joint = _component_log_densities(model, data) + np.log(model.weights)
        per_sample = log_sum_exp(joint, axis=1)
        trace.append(per_sample.mean())
        model = _m_step(model, data, np.exp(joint - per_sample[:, None]).T, ridge)
    joint = _component_log_densities(model, data) + np.log(model.weights)
    trace.append(log_sum_exp(joint, axis=1).mean())

    fitted, got = fit_em(init, data, iters=30, tol=-np.inf)
    assert np.allclose(got, trace, rtol=0, atol=1e-10)
    for name, want in model.parameter_arrays().items():
        assert np.allclose(fitted.parameter_arrays()[name], want, rtol=0, atol=1e-10)


def test_fit_mixture_runs_fit_em_once_per_restart(monkeypatch):
    # perfbench counts EM iterations from each fit_em call's trace
    traces = []
    original = baselines.fit_em

    def counting(*args, **kwargs):
        model, trace = original(*args, **kwargs)
        traces.append(trace)
        return model, trace

    monkeypatch.setattr(baselines, "fit_em", counting)
    data = RngStream(132).generator().standard_normal((200, 2))
    # in this process: forked workers would count in their own copies
    fit_mixture("moig", 2, data, sigma=0.5, iters=7, tol=-np.inf, restarts=3,
                rng=np.random.default_rng(0), threads=1)
    assert [len(trace) for trace in traces] == [8, 8, 8]


def _record_restarts(monkeypatch):
    """Record the worker count and the traces of each fit_mixture pool."""
    pools = []
    original = estimation._map_in_processes

    def recording(fn, jobs, threads, what):
        runs, workers = original(fn, jobs, threads, what)
        pools.append((workers, [run[1] for run in runs]))
        return runs, workers

    monkeypatch.setattr(estimation, "_map_in_processes", recording)
    return pools


def test_pooled_fit_mixture_runs_fit_em_once_per_restart(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    pools = _record_restarts(monkeypatch)
    data = RngStream(132).generator().standard_normal((200, 2))
    fit_mixture("moig", 2, data, sigma=0.5, iters=7, tol=-np.inf, restarts=3,
                rng=np.random.default_rng(0))
    workers, traces = pools[0]
    assert (len(pools), workers) == (1, 3)
    assert [len(trace) for trace in traces] == [8, 8, 8]


def serial_restarts(kind, k, data, sigma, iters, restarts, rng):
    """fit_mixture as one loop over restarts, each drawing from ``rng`` in turn."""
    best = best_trace = None
    for _ in range(restarts):
        init = (baselines.init_moig(k, data, sigma, rng) if kind == "moig"
                else baselines.init_mog(k, data, rng))
        model, trace = fit_em(init, data, iters=iters, rng=rng)
        if best is None or trace[-1] > best_trace[-1]:
            best, best_trace = model, trace
    return best, best_trace


def _mixture_data():
    rng = RngStream(133).generator()
    centers = 2.0 * rng.standard_normal((3, 3))
    return centers[rng.integers(3, size=300)] + rng.standard_normal((300, 3))


def _assert_same_fit(got, want, rng, want_rng):
    assert got[0].variant == want[0].variant
    for name, arr in want[0].parameter_arrays().items():
        assert np.array_equal(got[0].parameter_arrays()[name], arr)
    assert got[1] == want[1]
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["moig", "mog"])
def test_restarts_are_byte_identical_at_any_worker_count(monkeypatch, kind):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    data = _mixture_data()
    want_rng = np.random.default_rng(4)
    want = serial_restarts(kind, 3, data, 0.8, 20, 4, want_rng)
    pools = _record_restarts(monkeypatch)
    for threads in (1, 2, 3, None):
        rng = np.random.default_rng(4)
        got = fit_mixture(kind, 3, data, sigma=0.8, iters=20, restarts=4, rng=rng,
                          threads=threads)
        _assert_same_fit(got, want, rng, want_rng)
    assert [workers for workers, _ in pools] == [1, 2, 3, 3]


def _collapse_first_init(monkeypatch):
    """The first initial model of the isotropic mixture has one mean far
    from the data, so its component collapses in the first E-step."""
    calls = []

    def far_first(k, data, sigma, rng):
        model = init_moig(k, data, sigma, rng)
        if not calls:
            model.means[0] = 500.0
        calls.append(k)
        return model

    monkeypatch.setattr(baselines, "init_moig", far_first)


@pytest.mark.parametrize("threads", [1, 2, None])
def test_a_collapsed_restart_gives_the_serial_result(monkeypatch, caplog, threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    data = _mixture_data()
    _collapse_first_init(monkeypatch)
    want_rng = np.random.default_rng(5)
    want = serial_restarts("moig", 3, data, 0.8, 20, 3, want_rng)
    _collapse_first_init(monkeypatch)  # again: the fit's first init is the far one
    caplog.clear()
    rng = np.random.default_rng(5)
    with caplog.at_level("WARNING"):
        got = fit_mixture("moig", 3, data, sigma=0.8, iters=20, restarts=3, rng=rng,
                          threads=threads)
    _assert_same_fit(got, want, rng, want_rng)
    assert [r.getMessage() for r in caplog.records] == ["reinitializing 1 collapsed component(s)"]


def test_restarts_run_in_this_process_without_a_one_thread_blas(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(estimation, "_openblas", lambda: [])
    monkeypatch.setattr(estimation, "ProcessPoolExecutor", None)  # no pool may start
    data = _mixture_data()
    want_rng = np.random.default_rng(6)
    want = serial_restarts("moig", 3, data, 0.8, 20, 3, want_rng)
    pools = _record_restarts(monkeypatch)
    for threads in (3, None):
        rng = np.random.default_rng(6)
        got = fit_mixture("moig", 3, data, sigma=0.8, iters=20, restarts=3, rng=rng,
                          threads=threads)
        _assert_same_fit(got, want, rng, want_rng)
    assert [workers for workers, _ in pools] == [1, 1]


def test_each_restart_runs_on_one_blas_thread(monkeypatch):
    blas = estimation._openblas()
    if not blas:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    before = [get() for get, _ in blas]
    seen = []
    original = baselines.fit_em

    def recording(*args, **kwargs):
        seen.append([get() for get, _ in blas])
        return original(*args, **kwargs)

    monkeypatch.setattr(baselines, "fit_em", recording)
    fit_mixture("moig", 2, _mixture_data(), sigma=0.8, iters=5, restarts=2, threads=1)
    assert seen == [[1] * len(blas)] * 2
    assert [get() for get, _ in blas] == before


def test_cross_validate_single_candidate():
    rng = RngStream(126).generator()
    data = rng.standard_normal((100, 2))
    sigma, table = cross_validate_sigma(
        [0.7], data, 2, lambda s, tr, va, r: 1.0, seed=0
    )
    assert sigma == 0.7
    assert len(table) == 1


def test_cross_validate_recovers_generating_sigma():
    rng = RngStream(127).generator()
    centers = 3.0 * rng.standard_normal((4, 3))
    comp = rng.integers(4, size=3000)
    data = centers[comp] + 0.5 * rng.standard_normal((3000, 3))
    sigma, _ = cross_validate_sigma(
        [0.3, 0.5, 0.8], data, 3, moig_sigma_scorer(4, iters=60, restarts=2), seed=1
    )
    assert sigma == 0.5


def test_cross_validate_tie_prefers_larger_sigma():
    data = np.zeros((10, 1)) + np.arange(10)[:, None]
    sigma, _ = cross_validate_sigma(
        [0.1, 0.2], data, 2, lambda s, tr, va, r: 1.0, seed=0
    )
    assert sigma == 0.2


def test_density_integrates_to_one_monte_carlo():
    rng = RngStream(128).generator()
    a = rng.standard_normal((2, 2))
    model = MogModel(np.array([a @ a.T + 0.3 * np.eye(2)]), np.array([1.0]))
    # importance sampling with a wide gaussian proposal
    proposal_sigma = 4.0
    n = 200000
    draws = proposal_sigma * rng.standard_normal((n, 2))
    log_q = stats.multivariate_normal(np.zeros(2), proposal_sigma ** 2 * np.eye(2)).logpdf(draws)
    ratios = np.exp(model.log_density(draws) - log_q)
    se = ratios.std(ddof=1) / np.sqrt(n)
    assert abs(ratios.mean() - 1.0) < 3 * se


def test_weight_validation():
    with pytest.raises(BaselineError):
        MoigModel(np.zeros((2, 2)), 1.0, np.array([0.6, 0.6]))
    with pytest.raises(BaselineError):
        MogModel(np.stack([np.eye(2), -np.eye(2)]), np.array([0.5, 0.5]))


def test_moig_and_mog_k1_match_explicit_gaussian():
    # sigma-matched single components are the same isotropic density
    sigma = 0.7
    moig = MoigModel(np.zeros((1, 3)), sigma, np.array([1.0]))
    mog = MogModel(np.array([sigma ** 2 * np.eye(3)]), np.array([1.0]))
    explicit = GaussianModel(np.zeros(3), sigma ** 2 * np.eye(3))
    x = RngStream(129).generator().standard_normal((40, 3))
    assert np.allclose(moig.log_density(x), explicit.log_density(x), atol=1e-12)
    assert np.allclose(mog.log_density(x), explicit.log_density(x), atol=1e-12)


def test_baseline_roundtrip(tmp_path):
    from dbnkit.baselines import load_baseline, save_baseline

    rng = RngStream(130).generator()
    a = rng.standard_normal((3, 3))
    models = [
        fit_gaussian(rng.standard_normal((100, 3))),
        MoigModel(rng.standard_normal((4, 3)), 0.5, np.full(4, 0.25)),
        MogModel(np.array([a @ a.T + np.eye(3)]), np.array([1.0])),
    ]
    x = rng.standard_normal((10, 3))
    for i, model in enumerate(models):
        path = tmp_path / f"b{i}.dbk"
        save_baseline(model, path)
        loaded = load_baseline(path)
        assert np.array_equal(loaded.log_density(x), model.log_density(x))


@pytest.mark.parametrize(
    "kwargs",
    [{"restarts": 0}, {"iters": 0}, {"iters": -3}, {"k": 0}, {"k": 41}, {"sigma": None},
     {"sigma": float("nan")}, {"sigma": 0.0}, {"kind": "gaussian"}],
    ids=["restarts-0", "iters-0", "iters-negative", "k-0", "k-above-rows", "no-sigma",
         "sigma-nan", "sigma-0", "not-a-mixture"],
)
def test_fit_mixture_rejects_bad_arguments(kwargs):
    data = RngStream(127).generator().standard_normal((40, 2))
    args = {"kind": "moig", "k": 2, "sigma": 0.5, "iters": 5, "restarts": 1, **kwargs}
    with pytest.raises(BaselineError):
        fit_mixture(args.pop("kind"), args.pop("k"), data, **args)


@pytest.mark.parametrize(
    "candidates, folds",
    [([], 2), ([0.5, float("nan")], 2), ([0.5, -1.0], 2), ([0.5], 1), ([0.5], 41)],
    ids=["empty", "nan", "negative", "one-fold", "folds-above-rows"],
)
def test_cross_validate_rejects_bad_arguments(candidates, folds):
    data = RngStream(128).generator().standard_normal((40, 2))
    with pytest.raises(BaselineError):
        cross_validate_sigma(candidates, data, folds, lambda *a: 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"kind": "gmm"}, {"kind": "moig"}, {"kind": "moig", "sigma": 0.5, "em_iters": 0},
     {"kind": "mog", "components": 0}, {"kind": "moig", "sigma_candidates": [0.5, float("inf")]}],
    ids=["unknown-kind", "moig-no-sigma", "em_iters-0", "components-0", "candidate-inf"],
)
def test_baseline_spec_rejects_without_data(kwargs):
    with pytest.raises(BaselineError):
        BaselineSpec(**kwargs)
