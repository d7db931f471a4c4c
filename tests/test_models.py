import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from dbnkit import models
from dbnkit.models import (
    EnumerationBudgetError,
    Grbm,
    ModelError,
    Rbm,
    Srbm,
    binary_states,
    brute_force_hidden_marginal_srbm,
    brute_force_log_partition,
    initialize_layer,
    state_index,
)
from dbnkit.numerics import RngStream, log_sum_exp, logistic
from dbnkit.oracle import random_grbm, random_rbm, random_srbm
from dbnkit.storage import StorageError, load_model, read_container, save_model, write_container


# -- energies ---------------------------------------------------------------


def test_energy_zero_parameters():
    model = Rbm(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
    assert model.energy(np.ones(3), np.ones(2)) == 0.0


def test_grbm_energy_at_bias():
    rng = RngStream(0).generator()
    model = Grbm(np.zeros((4, 2)), rng.standard_normal(4), np.zeros(2), 0.6)
    assert model.energy(model.visible_bias, np.zeros(2)) == 0.0


def test_exp_neg_energy_sums_to_partition():
    # enumeration oracle over all 32 joint states of a random 3x2 machine
    rng = RngStream(1).generator()
    model = random_rbm(rng)
    total = 0.0
    for x in binary_states(3):
        for y in binary_states(2):
            total += np.exp(-model.energy(x, y))
    assert np.log(total) == pytest.approx(brute_force_log_partition(model), abs=1e-10)


def test_energy_dimension_mismatch():
    model = Rbm(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
    with pytest.raises(ModelError):
        model.energy(np.ones(4), np.ones(2))


def test_energy_pairs_one_state_with_every_row():
    rng = RngStream(9).generator()
    model = random_srbm(rng, m=4, n=3)
    xs, ys = binary_states(4), binary_states(3)
    x, y = xs[6], ys[5]
    np.testing.assert_allclose(model.energy(x, ys), model.energy(np.tile(x, (8, 1)), ys),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.energy(xs, y), model.energy(xs, np.tile(y, (16, 1))),
                               rtol=0, atol=1e-12)
    with pytest.raises(ModelError, match="mismatched batch sizes"):
        model.energy(xs, ys)


# -- hidden conditional -----------------------------------------------------


def test_hidden_conditional_zero_params():
    model = Rbm(np.zeros((3, 4)), np.zeros(3), np.zeros(4))
    assert np.allclose(model.hidden_conditional(np.ones(3)), 0.5)


def test_hidden_conditional_normalizes():
    rng = RngStream(2).generator()
    model = random_rbm(rng, 3, 3)
    x = (rng.random(3) < 0.5).astype(float)
    p = model.hidden_conditional(x)
    total = 0.0
    for y in binary_states(3):
        total += np.prod(np.where(y == 1, p, 1 - p))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_hidden_conditional_matches_bayes_posterior():
    # brute-force posterior of a tiny gaussian-visible machine
    rng = RngStream(3).generator()
    model = random_grbm(rng, m=2, n=3)
    x = rng.standard_normal(2)
    joint = np.array([-model.energy(x, y) for y in binary_states(3)])
    post = np.exp(joint - log_sum_exp(joint))
    marg = np.array(
        [post[(state_index(binary_states(3)) & (1 << j)) > 0].sum() for j in range(3)]
    )
    assert np.allclose(model.hidden_conditional(x), marg, atol=1e-12)


# -- visible sampling -------------------------------------------------------


def test_grbm_visible_sample_mean():
    rng = RngStream(4).generator()
    model = Grbm(np.zeros((3, 2)), np.array([1.0, -2.0, 0.5]), np.zeros(2), 0.7)
    n = 10 ** 5
    draws = model.sample_visible(np.tile([1.0, 0.0], (n, 1)), rng)
    tol = 4 * model.sigma / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - model.visible_bias) < tol)


def test_srbm_zero_lateral_reduces_to_factorial():
    rng = RngStream(5).generator()
    base = random_rbm(rng, m=4, n=3)
    model = Srbm(base.weights, base.visible_bias, base.hidden_bias, np.zeros((4, 4)))
    y = (rng.random(3) < 0.5).astype(float)
    n = 10 ** 5
    x0 = (rng.random((n, 4)) < 0.5).astype(float)
    draws = model.sample_visible(np.tile(y, (n, 1)), rng, x0=x0)
    p = logistic(model.weights @ y + model.visible_bias)
    se = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(draws.mean(axis=0) - p) < 3 * se + 1e-9)


def test_rbm_visible_sample_frequencies():
    rng = RngStream(6).generator()
    model = random_rbm(rng, m=3, n=2, scale=0.8)
    y = np.array([1.0, 0.0])
    n = 10 ** 5
    draws = model.sample_visible(np.tile(y, (n, 1)), rng)
    p = logistic(model.weights @ y + model.visible_bias)
    states = binary_states(3)
    expected = np.prod(np.where(states == 1, p, 1 - p), axis=1)
    freq = np.bincount(state_index(draws), minlength=8) / n
    se = np.sqrt(expected * (1 - expected) / n)
    assert np.all(np.abs(freq - expected) < 3 * se + 1e-4)


def test_srbm_needs_start_state():
    rng = RngStream(7).generator()
    model = random_srbm(rng)
    with pytest.raises(ModelError):
        model.sample_visible(np.zeros(3), rng)


# -- mean field -------------------------------------------------------------


def test_mean_field_no_lateral_single_step():
    rng = RngStream(9).generator()
    base = random_rbm(rng, m=4, n=3)
    model = Srbm(base.weights, base.visible_bias, base.hidden_bias, np.zeros((4, 4)))
    y = (rng.random(3) < 0.5).astype(float)
    mu = model.mean_field_visible(y, steps=1, damping=0.0)
    assert np.allclose(mu, logistic(model.weights @ y + model.visible_bias), atol=1e-14)


def test_mean_field_frozen_by_damping():
    rng = RngStream(10).generator()
    model = random_srbm(rng)
    y = np.zeros(3)
    mu = model.mean_field_visible(y, steps=1, damping=0.999)
    assert np.all(np.abs(mu - 0.5) < 2e-3)


def test_mean_field_fixed_point():
    rng = RngStream(11).generator()
    model = random_srbm(rng, m=5, n=3, scale=0.4)
    y = (rng.random(3) < 0.5).astype(float)
    mu = model.mean_field_visible(y, steps=500, damping=0.2)
    target = logistic(model.lateral @ mu + model.weights @ y + model.visible_bias)
    assert np.all(np.abs(mu - target) < 1e-6)


# -- unnormalized marginals -------------------------------------------------


def test_visible_marginal_zero_params():
    model = Rbm(np.zeros((3, 4)), np.zeros(3), np.zeros(4))
    for x in binary_states(3):
        assert model.log_unnorm_visible(x) == pytest.approx(4 * np.log(2), abs=1e-12)


def test_hidden_marginal_zero_weight_forms():
    rng = RngStream(13).generator()
    c = rng.standard_normal(3)
    rbm = Rbm(np.zeros((4, 3)), np.zeros(4), c)
    y = np.array([1.0, 0.0, 1.0])
    assert rbm.log_unnorm_hidden(y) == pytest.approx(c @ y + 4 * np.log(2), abs=1e-12)
    grbm = Grbm(np.zeros((4, 3)), np.zeros(4), c, 0.5)
    expected = 2.0 * np.log(2 * np.pi * 0.25) + c @ y
    assert grbm.log_unnorm_hidden(y) == pytest.approx(expected, abs=1e-12)


def test_grbm_hidden_marginal_quadrature_oracle():
    # gauss-hermite integration of exp(-E(x, y)) over the visible plane
    rng = RngStream(14).generator()
    model = random_grbm(rng, m=2, n=3, scale=0.6, sigma=0.7)
    nodes, weights = hermegauss(80)
    y = np.array([1.0, 1.0, 0.0])
    s = model.sigma
    total = 0.0
    for i, ti in enumerate(nodes):
        for j, tj in enumerate(nodes):
            t = np.array([ti, tj])
            x = model.visible_bias + s * t
            total += weights[i] * weights[j] * np.exp(
                -model.energy(x, y) + 0.5 * (t @ t)
            ) * s * s
    assert model.log_unnorm_hidden(y) == pytest.approx(np.log(total), rel=1e-6)


def test_srbm_hidden_marginal_not_analytic():
    rng = RngStream(15).generator()
    model = random_srbm(rng)
    with pytest.raises(ModelError, match="not analytic"):
        model.log_unnorm_hidden(np.zeros(3))


# -- brute force ------------------------------------------------------------


def test_partition_all_zero_rbm():
    model = Rbm(np.zeros((3, 4)), np.zeros(3), np.zeros(4))
    assert brute_force_log_partition(model) == pytest.approx(7 * np.log(2), abs=1e-12)


def test_partition_grbm_zero_weights():
    model = Grbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), 0.9)
    expected = np.log(2 * (2 * np.pi * 0.81))
    assert brute_force_log_partition(model) == pytest.approx(expected, abs=1e-12)


def test_partition_budget():
    model = Rbm(np.zeros((30, 30)), np.zeros(30), np.zeros(30))
    with pytest.raises(EnumerationBudgetError, match="importance sampling"):
        brute_force_log_partition(model, budget=2 ** 10)


def test_partition_memory_stays_within_fixed_blocks():
    # the marginal of a whole 2^16-state chunk took 2^16 x 60 floats of
    # temporaries (98.5 MB peak); row blocks of ENUM_BLOCK cells leave the
    # chunk itself as the largest array
    model = random_rbm(RngStream(69).generator(), 60, 16)
    tracemalloc.start()
    try:
        log_z = brute_force_log_partition(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    reference = log_sum_exp(model.log_unnorm_hidden(binary_states(16)))
    assert log_z == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize(
    "variant,m,n,bits",
    [("rbm", 5, 3, 3), ("rbm", 3, 5, 3), ("grbm", 3, 5, 5), ("srbm", 5, 3, 5)],
)
def test_enumeration_bits_is_the_partition_budget_rule(variant, m, n, bits):
    model = initialize_layer(variant, m, n, RngStream(18).generator(), sigma=0.7)
    assert models.enumeration_bits(model) == bits
    brute_force_log_partition(model, budget=2 ** bits)
    with pytest.raises(EnumerationBudgetError):
        brute_force_log_partition(model, budget=2 ** bits - 1)


def test_state_chunks_enumerate_every_state_once_in_blocks():
    chunks = list(models.state_chunks(17, 2 ** 17, "a test"))
    assert [c.shape for c in chunks] == [(2 ** 16, 17)] * 2
    assert np.array_equal(state_index(np.concatenate(chunks)), np.arange(2 ** 17))
    assert np.array_equal(binary_states(3), np.concatenate(list(models.state_chunks(3, 8, ""))))
    # the budget is checked when the iterator is made, before a block exists
    with pytest.raises(EnumerationBudgetError, match="a test needs 2\\^17"):
        models.state_chunks(17, 2 ** 17 - 1, "a test")
    with pytest.raises(EnumerationBudgetError):
        binary_states(23)


def test_srbm_hidden_marginal_brute_force():
    rng = RngStream(17).generator()
    model = random_srbm(rng, m=4, n=3)
    # degenerate lateral reduces to the analytic form
    flat = Srbm(model.weights, model.visible_bias, model.hidden_bias, np.zeros((4, 4)))
    rbm = Rbm(model.weights, model.visible_bias, model.hidden_bias)
    ys = binary_states(3)
    assert np.allclose(
        brute_force_hidden_marginal_srbm(flat, ys),
        rbm.log_unnorm_hidden(ys),
        atol=1e-10,
    )
    # zero weights: constant apart from the hidden-bias term
    noweight = Srbm(np.zeros((4, 3)), model.visible_bias, model.hidden_bias, model.lateral)
    vals = brute_force_hidden_marginal_srbm(noweight, ys) - ys @ model.hidden_bias
    assert np.allclose(vals, vals[0], atol=1e-10)


def test_srbm_marginal_consistency_with_partition():
    rng = RngStream(18).generator()
    model = random_srbm(rng, m=8, n=4, scale=0.4)
    ys = binary_states(4)
    total = log_sum_exp(brute_force_hidden_marginal_srbm(model, ys))
    assert total == pytest.approx(brute_force_log_partition(model), abs=1e-10)


@pytest.mark.parametrize("variant", ["rbm", "grbm", "srbm"])
def test_conditional_terms_match_the_direct_conditionals(variant):
    # log q(x | y) = x . A(y) + c(y) + r(x) against each variant's own form,
    # on the grid and through log_visible_conditional on paired rows
    rng = RngStream(19).generator()
    ys = binary_states(3)
    if variant == "grbm":
        model = random_grbm(rng, m=4, n=3, sigma=0.7)
        xs = 2.0 * rng.standard_normal((8, 4))
        d = xs[:, None, :] - (model.visible_bias + 0.7 * (ys @ model.weights.T))[None]
        want = -np.sum(d * d, axis=2) / (2 * 0.7 ** 2) - 2 * np.log(2 * np.pi * 0.7 ** 2)
    elif variant == "rbm":
        model = random_rbm(rng, m=4, n=3)
        xs = binary_states(4)
        act = (ys @ model.weights.T + model.visible_bias)[None]
        on = xs[:, None, :]
        want = -(np.logaddexp(0, -act) * on + np.logaddexp(0, act) * (1 - on)).sum(axis=2)
    else:
        model = random_srbm(rng, m=4, n=3)
        xs = binary_states(4)
        want = np.array([[-model.energy(x, y) - log_sum_exp(-model.energy(xs, y)) for y in ys]
                         for x in xs])
    a, c, r = models.conditional_terms(model, ys)
    np.testing.assert_allclose(xs @ a + c + r(xs)[:, None], want, rtol=0, atol=1e-12)
    paired = model.log_visible_conditional(np.repeat(xs, len(ys), axis=0),
                                           np.tile(ys, (len(xs), 1)))
    np.testing.assert_allclose(paired.reshape(want.shape), want, rtol=0, atol=1e-12)


# -- initialization and serialization ----------------------------------------


def test_initialize_layer_defaults():
    rng = RngStream(20).generator()
    model = initialize_layer(models.SRBM, 5, 4, rng)
    assert np.all(model.visible_bias == 0.0)
    assert np.all(model.hidden_bias == -1.0)
    assert np.all(model.lateral == 0.0)
    assert np.abs(model.weights).max() < 0.1


def test_model_roundtrip_bit_exact(tmp_path):
    rng = RngStream(21).generator()
    for make in (random_rbm, random_grbm, random_srbm):
        model = make(rng)
        path = tmp_path / f"{model.variant}.dbk"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.variant == model.variant
        for name, arr in model.parameter_arrays().items():
            assert np.array_equal(loaded.parameter_arrays()[name], arr)
        if model.variant == models.GRBM:
            assert loaded.sigma == model.sigma


@pytest.mark.parametrize(
    "make, extra, drop",
    [(random_rbm, "lateral", None), (random_srbm, None, "lateral"), (random_grbm, None, None)],
    ids=["extra-array", "missing-array", "grbm-without-sigma"],
)
def test_load_model_rejects_wrong_fields(tmp_path, make, extra, drop):
    # the meta names only the variant, so the GRBM file lacks its sigma
    model = make(RngStream(24).generator())
    arrays = dict(model.parameter_arrays())
    arrays.pop(drop, None)
    if extra:
        arrays[extra] = np.zeros((model.n_visible, model.n_visible))
    path = tmp_path / "layer.dbk"
    write_container(path, "layer_model", {"variant": model.variant}, arrays)
    with pytest.raises(StorageError, match=f"does not hold a {model.variant} layer"):
        load_model(path)


def test_model_files_are_deterministic(tmp_path):
    rng = RngStream(22).generator()
    model = random_rbm(rng)
    save_model(model, tmp_path / "a.dbk")
    save_model(model, tmp_path / "b.dbk")
    assert (tmp_path / "a.dbk").read_bytes() == (tmp_path / "b.dbk").read_bytes()


def test_read_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dbk"
    path.write_bytes(b"not a container")
    with pytest.raises(StorageError):
        read_container(path)
    path.write_bytes(b"DBNK" + (3).to_bytes(4, "little") + b"\xff{}")
    with pytest.raises(StorageError, match="header"):
        read_container(path)
    # every truncation of a valid file
    save_model(random_srbm(RngStream(23).generator()), path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(StorageError):
            read_container(path)


def test_state_index_refuses_inexact_widths():
    assert state_index(np.ones((1, 53)))[0] == 2 ** 53 - 1
    with pytest.raises(ModelError, match="at most 53"):
        state_index(np.ones((1, 54)))


def test_srbm_validation():
    with pytest.raises(ModelError, match="symmetric"):
        Srbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2), np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ModelError, match="diagonal"):
        Srbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
