import numpy as np
import pytest
from scipy import stats

from dbnkit.baselines import (
    BaselineError,
    GaussianModel,
    MogModel,
    MoigModel,
    average_log_loss_bits,
    cross_validate_sigma,
    fit_em,
    fit_gaussian,
    fit_mixture,
    moig_sigma_scorer,
)
from dbnkit.numerics import RngStream


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
