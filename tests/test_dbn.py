import numpy as np
import pytest
from scipy import stats

from dbnkit.dbn import (
    DbnError,
    DbnModel,
    EvaluationError,
    ancestral_sample,
    average_log_loss,
    brute_force_log_likelihood,
    feed_forward_sample,
    load_dbn,
    read_manifest,
    save_dbn,
)
from dbnkit.models import (
    Rbm,
    binary_states,
    brute_force_hidden_marginal_srbm,
    brute_force_log_partition,
    state_index,
)
from dbnkit.numerics import RngStream
from dbnkit.oracle import random_grbm, random_rbm, random_srbm
from dbnkit.training import init_srbm_from_grbm


def test_stack_validation():
    rng = RngStream(50).generator()
    with pytest.raises(DbnError):
        DbnModel([])
    with pytest.raises(DbnError):
        DbnModel([random_rbm(rng, 4, 3), random_rbm(rng, 4, 3)])
    with pytest.raises(DbnError):
        DbnModel([random_rbm(rng, 4, 3), random_grbm(rng, 3, 2)])


# -- feed forward -------------------------------------------------------------


def test_feed_forward_single_layer_empty():
    rng = RngStream(51).generator()
    stack = DbnModel([random_rbm(rng)])
    assert feed_forward_sample(stack, np.zeros(3), rng) == []


def test_feed_forward_saturated_weights_deterministic():
    w = np.full((3, 2), 1e6)
    layer1 = Rbm(w, np.zeros(3), np.full(2, -1e5))
    layer2 = Rbm(np.full((2, 2), -1e6), np.zeros(2), np.full(2, 1e5))
    stack = DbnModel([layer1, layer2])
    rng = RngStream(52).generator()
    states = feed_forward_sample(stack, np.ones(3), rng)
    assert np.array_equal(states[0], np.ones(2))  # strong positive drive
    # only one layer is interior for a 2-layer stack
    assert len(states) == 1


def test_feed_forward_matches_conditional_means():
    rng = RngStream(53).generator()
    layer = random_rbm(rng, 4, 3)
    stack = DbnModel([layer, random_rbm(rng, 3, 2)])
    x0 = (rng.random(4) < 0.5).astype(float)
    n = 20000
    draws = np.array([feed_forward_sample(stack, x0, rng)[0] for _ in range(200)])
    # batched version for volume
    big = feed_forward_sample(stack, np.tile(x0, (n, 1)), rng)[0]
    p = layer.hidden_conditional(x0)
    se = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(big.mean(axis=0) - p) < 3 * se + 1e-9)
    assert draws.shape == (200, 3)


# -- ancestral sampling -------------------------------------------------------


def test_ancestral_single_rbm_matches_enumeration():
    rng = RngStream(54).generator()
    model = random_rbm(rng, m=4, n=3, scale=0.5)
    stack = DbnModel([model])
    n = 30000
    samples = ancestral_sample(stack, gibbs_steps=60, rng=rng, n_samples=n)
    freq = np.bincount(state_index(samples), minlength=16)
    log_z = brute_force_log_partition(model)
    probs = np.exp(model.log_unnorm_visible(binary_states(4)) - log_z)
    # chi-square goodness of fit, not rejected at alpha = 0.01
    chi2 = ((freq - n * probs) ** 2 / (n * probs)).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=15)


def test_ancestral_zero_weight_top_closed_form():
    rng = RngStream(55).generator()
    b = rng.standard_normal(3)
    model = Rbm(np.zeros((3, 2)), b, np.zeros(2))
    stack = DbnModel([model])
    n = 40000
    samples = ancestral_sample(stack, gibbs_steps=5, rng=rng, n_samples=n)
    p = 1 / (1 + np.exp(-b))
    se = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(samples.mean(axis=0) - p) < 3 * se + 1e-9)


def test_ancestral_initialized_stack_matches_exact_moments():
    rng = RngStream(56).generator()
    grbm = random_grbm(rng, m=3, n=4, scale=0.5)
    stack = DbnModel([grbm, init_srbm_from_grbm(grbm, 4)])
    n = 30000
    samples = ancestral_sample(stack, gibbs_steps=80, rng=rng, n_samples=n)
    # exact first moment from the mixture form
    ys = binary_states(4)
    log_z = brute_force_log_partition(grbm)
    prior = np.exp(grbm.log_unnorm_hidden(ys) - log_z)
    mean = prior @ (grbm.visible_bias + grbm.sigma * (ys @ grbm.weights.T))
    spread = samples.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(samples.mean(axis=0) - mean) < 5 * spread)


# -- brute force --------------------------------------------------------------


def test_single_layer_definition():
    rng = RngStream(57).generator()
    model = random_rbm(rng, 4, 3)
    stack = DbnModel([model])
    xs = binary_states(4)
    expected = model.log_unnorm_visible(xs) - brute_force_log_partition(model)
    assert np.allclose(brute_force_log_likelihood(stack, xs), expected, atol=1e-12)


def test_two_layer_against_double_loop_oracle():
    rng = RngStream(59).generator()
    first = random_rbm(rng, m=4, n=6, scale=0.5)
    top = random_rbm(rng, m=6, n=5, scale=0.5)
    stack = DbnModel([first, top])
    x = binary_states(4)[3]
    fast = brute_force_log_likelihood(stack, x)
    # independent oracle: enumerate the full joint over (y, z)
    log_z = brute_force_log_partition(top)
    total = 0.0
    for y in binary_states(6):
        q1 = np.exp(first.log_visible_conditional(x, y))
        for z in binary_states(5):
            total += q1 * np.exp(-top.energy(y, z) - log_z)
    assert fast == pytest.approx(np.log(total), abs=1e-10)


def test_three_layer_with_lateral_against_oracle():
    rng = RngStream(60).generator()
    first = random_rbm(rng, m=4, n=4, scale=0.5)
    mid = random_srbm(rng, m=4, n=3, scale=0.5)
    top = random_rbm(rng, m=3, n=3, scale=0.5)
    stack = DbnModel([first, mid, top])
    x = binary_states(4)[11]
    fast = brute_force_log_likelihood(stack, x)
    log_z = brute_force_log_partition(top)
    total = 0.0
    for y1 in binary_states(4):
        q1 = np.exp(first.log_visible_conditional(x, y1))
        for y2 in binary_states(3):
            q2 = np.exp(-mid.energy(y1, y2) - brute_force_hidden_marginal_srbm(mid, y2))
            q3 = np.exp(top.log_unnorm_visible(y2) - log_z)
            total += q1 * q2 * q3
    assert fast == pytest.approx(np.log(total), abs=1e-10)


def test_binary_stack_normalizes():
    rng = RngStream(61).generator()
    first = random_rbm(rng, m=4, n=3)
    top = random_srbm(rng, m=3, n=4)
    stack = DbnModel([first, top])
    lls = brute_force_log_likelihood(stack, binary_states(4))
    assert np.exp(lls).sum() == pytest.approx(1.0, abs=1e-8)


def test_gaussian_bottom_normalizes_on_grid():
    rng = RngStream(62).generator()
    grbm = random_grbm(rng, m=2, n=3, scale=0.4, sigma=0.6)
    stack = DbnModel([grbm, random_rbm(rng, 3, 3)])
    grid = np.linspace(-7, 7, 281)
    step = grid[1] - grid[0]
    xx, yy = np.meshgrid(grid, grid)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    mass = np.exp(brute_force_log_likelihood(stack, points)).sum() * step ** 2
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_ancestral_matches_brute_force_chi_square():
    rng = RngStream(63).generator()
    first = random_rbm(rng, m=4, n=3, scale=0.6)
    top = random_rbm(rng, m=3, n=3, scale=0.6)
    stack = DbnModel([first, top])
    n = 30000
    samples = ancestral_sample(stack, gibbs_steps=60, rng=rng, n_samples=n)
    freq = np.bincount(state_index(samples), minlength=16)
    probs = np.exp(brute_force_log_likelihood(stack, binary_states(4)))
    chi2 = ((freq - n * probs) ** 2 / (n * probs)).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=15)


# -- log loss -----------------------------------------------------------------


def test_average_log_loss_uniform_bernoulli():
    data = (np.random.default_rng(0).random((50, 6)) < 0.5).astype(float)
    loss = average_log_loss(data, lambda rows: np.full(rows.shape[0], 6 * np.log(0.5)))
    assert loss == pytest.approx(1.0, abs=1e-12)


def test_average_log_loss_standard_normal():
    rng = RngStream(64).generator()
    data = rng.standard_normal((200000, 1))
    loss = average_log_loss(
        data, lambda rows: -0.5 * rows[:, 0] ** 2 - 0.5 * np.log(2 * np.pi)
    )
    expected = 0.5 * np.log2(2 * np.pi * np.e)
    assert loss == pytest.approx(expected, abs=0.01)


def test_average_log_loss_names_failing_sample():
    data = np.zeros((10, 2))

    def evaluator(rows):
        if rows.shape[0] == 1 and np.array_equal(rows[0], data[7]):
            raise ValueError("boom")
        if rows.shape[0] > 1:
            raise ValueError("batch fails")
        return np.zeros(rows.shape[0])

    data[7, 0] = 42.0
    with pytest.raises(EvaluationError, match="sample 7"):
        average_log_loss(data, evaluator)


# -- serialization ------------------------------------------------------------


def test_dbn_roundtrip(tmp_path):
    rng = RngStream(65).generator()
    grbm = random_grbm(rng, m=3, n=4)
    stack = DbnModel([grbm, init_srbm_from_grbm(grbm, 5)])
    save_dbn(stack, tmp_path / "m", provenance={"seed": 1})
    loaded = load_dbn(tmp_path / "m")
    assert loaded.n_layers == 2
    x = rng.standard_normal((4, 3))
    assert np.array_equal(
        brute_force_log_likelihood(loaded, x), brute_force_log_likelihood(stack, x)
    )
    assert read_manifest(tmp_path / "m")["provenance"]["seed"] == 1
