import json

import numpy as np
import pytest

from dbnkit import dbn
from dbnkit.dbn import (
    DbnError,
    DbnModel,
    EvaluationError,
    average_log_loss,
    brute_force_log_likelihood,
    feed_forward_sample,
    load_dbn,
    save_dbn,
)
from dbnkit.models import (
    EnumerationBudgetError,
    Rbm,
    binary_states,
    brute_force_hidden_marginal_srbm,
    brute_force_log_partition,
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


def test_budget_bounds_every_table():
    # log Z of the top enumerates its 2^3 hidden states, but the top and
    # bottom tables span the 2^12 states of the interface
    rng = RngStream(65).generator()
    stack = DbnModel([random_grbm(rng, m=4, n=12), random_rbm(rng, 12, 3)])
    x = rng.standard_normal((200, 4))
    with pytest.raises(EnumerationBudgetError, match="2\\^12"):
        brute_force_log_likelihood(stack, x, budget=2 ** 10)


def test_small_budget_evaluates_the_bottom_in_row_blocks(monkeypatch):
    rng = RngStream(66).generator()
    stack = DbnModel([random_rbm(rng, 4, 2), random_srbm(rng, 2, 3), random_rbm(rng, 3, 2)])
    x = binary_states(4)[:10]
    expected = brute_force_log_likelihood(stack, x)
    with pytest.raises(EnumerationBudgetError, match="layer 1"):
        brute_force_log_likelihood(stack, x, budget=2 ** 4)
    calls = []
    table = dbn._log_conditional_table

    def spy(layer, xs, ys, budget):
        calls.append((layer.variant, len(xs), len(ys)))
        return table(layer, xs, ys, budget)

    monkeypatch.setattr(dbn, "_log_conditional_table", spy)
    got = brute_force_log_likelihood(stack, x, budget=2 ** 5)
    # the 2^2 x 2^3 interior table, then 10 rows as blocks of 2^5 // 2^2 = 8 and 2
    assert calls == [("srbm", 4, 8), ("rbm", 8, 4), ("rbm", 2, 4)]
    assert np.max(np.abs(got - expected)) < 1e-12


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
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert manifest["provenance"]["seed"] == 1
