import numpy as np
import pytest

from dbnkit import dbn, models
from dbnkit.models import Grbm, Rbm, binary_states, brute_force_log_partition
from dbnkit.numerics import RngStream
from dbnkit.oracle import exact_log_z, random_grbm, random_rbm, random_srbm
from dbnkit.training import (
    GradientAccumulator,
    LayerSpec,
    TrainConfig,
    TrainingDiverged,
    apply_update,
    cd_gradient,
    exact_ml_gradient,
    init_srbm_from_grbm,
    train_dbn_greedy,
    train_layer,
)


def brute_log_likelihood(model, batch):
    return float(
        np.mean(model.log_unnorm_visible(batch)) - brute_force_log_partition(model)
    )


# -- exact gradient ----------------------------------------------------------


def test_exact_gradient_zero_at_symmetric_point():
    # zero parameters and half-on data: every expectation matches
    model = Rbm(np.zeros((4, 3)), np.zeros(4), np.zeros(3))
    batch = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=float)
    acc = exact_ml_gradient(model, batch)
    assert np.abs(acc.grads["visible_bias"]).max() < 1e-12
    assert np.abs(acc.grads["hidden_bias"]).max() < 1e-12


def test_exact_gradient_vanishes_when_data_equals_model():
    # stationarity oracle: log-integer weights give rational state
    # probabilities q*(x) = 2^{x1} (1 + 2^{x1} 4^{x2}), i.e. 2:6:5:18, so a
    # batch with those multiplicities makes the data distribution equal the
    # model distribution exactly and the maximum-likelihood gradient is zero
    model = Rbm(
        np.array([[np.log(2.0)], [np.log(4.0)]]),
        np.array([np.log(2.0), 0.0]),
        np.array([0.0]),
    )
    batch = np.repeat(binary_states(2), [2, 6, 5, 18], axis=0)
    acc = exact_ml_gradient(model, batch)
    norm = max(np.abs(g).max() for g in acc.grads.values())
    assert norm < 1e-12


# -- CD gradient -------------------------------------------------------------


def test_cd_visible_bias_gradient_decoupled_units():
    rng = RngStream(32).generator()
    model = Rbm(np.zeros((4, 3)), np.zeros(4), np.zeros(3))
    n = 4000
    batch = (rng.random((n, 4)) < 0.7).astype(float)
    acc = cd_gradient(model, batch, 1, rng)
    expected = batch.mean(axis=0) - 0.5
    se = np.sqrt(0.25 / n)
    assert np.all(np.abs(acc.grads["visible_bias"] - expected) < 3 * se)


def test_cd_approaches_exact_gradient_for_large_n():
    # average CD(25) over many replications; direction within 5 degrees of
    # the exact gradient
    rng = RngStream(33).generator()
    model = random_rbm(rng, m=4, n=3, scale=0.6)
    batch = (rng.random((64, 4)) < 0.5).astype(float)
    exact = exact_ml_gradient(model, batch)
    tiled = np.tile(batch, (200, 1))  # averaging many replications in one batch
    acc = cd_gradient(model, tiled, 25, rng)
    a = np.concatenate([exact.grads[k].ravel() for k in ("weights", "visible_bias", "hidden_bias")])
    b = np.concatenate([acc.grads[k].ravel() for k in ("weights", "visible_bias", "hidden_bias")])
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert np.degrees(np.arccos(np.clip(cos, -1, 1))) < 5.0


def test_cd_gradient_srbm_lateral_is_symmetric_zero_diag():
    rng = RngStream(34).generator()
    model = random_srbm(rng, m=4, n=3)
    batch = (rng.random((50, 4)) < 0.5).astype(float)
    acc = cd_gradient(model, batch, 2, rng)
    lat = acc.grads["lateral"]
    assert np.array_equal(lat, lat.T)
    assert np.all(np.diag(lat) == 0.0)


# -- updates ----------------------------------------------------------------


def test_apply_update_plain_ascent():
    model = Rbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    acc = GradientAccumulator(model)
    acc.grads["weights"][...] = 1.0
    cfg = TrainConfig(epochs=1, lr_start=0.1, lr_end=0.1, momentum=0.0,
                      weight_decay=0.0, batch_size=1)
    updated = apply_update(model, acc, cfg, 0)
    assert np.allclose(updated.weights, 0.1)


def test_apply_update_zero_gradient_no_motion():
    model = Rbm(np.ones((2, 2)), np.ones(2), np.ones(2))
    acc = GradientAccumulator(model)
    cfg = TrainConfig(epochs=1, lr_start=0.1, lr_end=0.1, momentum=0.9,
                      weight_decay=0.0, batch_size=1)
    updated = apply_update(model, acc, cfg, 0)
    assert np.array_equal(updated.weights, model.weights)


def test_apply_update_decay_only():
    model = Rbm(np.full((2, 2), 2.0), np.zeros(2), np.zeros(2))
    acc = GradientAccumulator(model)
    cfg = TrainConfig(epochs=1, lr_start=0.1, lr_end=0.1, momentum=0.0,
                      weight_decay=0.01, batch_size=1)
    updated = apply_update(model, acc, cfg, 0)
    assert np.allclose(updated.weights, 2.0 * (1 - 0.1 * 0.01), atol=1e-15)
    # biases are not decayed
    assert np.array_equal(updated.visible_bias, model.visible_bias)


def test_apply_update_keeps_lateral_symmetric():
    rng = RngStream(35).generator()
    model = random_srbm(rng)
    acc = GradientAccumulator(model)
    acc.grads["lateral"][...] = rng.standard_normal(model.lateral.shape)
    cfg = TrainConfig(epochs=1, lr_start=0.1, lr_end=0.1, momentum=0.5,
                      weight_decay=0.01, batch_size=1)
    updated = apply_update(model, acc, cfg, 0)
    assert np.array_equal(updated.lateral, updated.lateral.T)
    assert np.all(np.diag(updated.lateral) == 0.0)


def test_learning_rate_schedule_linear():
    cfg = TrainConfig(epochs=11, lr_start=1e-2, lr_end=1e-4, batch_size=1)
    assert cfg.learning_rate(0) == 1e-2
    assert cfg.learning_rate(10) == pytest.approx(1e-4)
    assert cfg.learning_rate(5) == pytest.approx((1e-2 + 1e-4) / 2)


# -- training loop ------------------------------------------------------------


def test_train_layer_zero_epochs_identity():
    rng = RngStream(36).generator()
    model = random_rbm(rng)
    data = (rng.random((40, 3)) < 0.5).astype(float)
    cfg = TrainConfig(epochs=0, batch_size=10)
    trained, diag = train_layer(model, data, cfg)
    assert diag == []
    for name, arr in model.parameter_arrays().items():
        assert np.array_equal(trained.parameter_arrays()[name], arr)


def test_train_layer_exact_gradient_ascends_likelihood():
    rng = RngStream(37).generator()
    model = random_rbm(rng, m=4, n=3, scale=0.2)
    data = (rng.random((30, 4)) < 0.4).astype(float)
    cfg = TrainConfig(epochs=25, lr_start=0.05, lr_end=0.05, momentum=0.0,
                      weight_decay=0.0, batch_size=30, seed=1)

    lls = []
    current = model

    def gradient_fn(m, batch, out):
        return exact_ml_gradient(m, batch, out=out)

    for _ in range(25):
        lls.append(brute_log_likelihood(current, data))
        current, _ = train_layer(
            current, data, TrainConfig(epochs=1, lr_start=0.05, lr_end=0.05,
                                       momentum=0.0, weight_decay=0.0,
                                       batch_size=30, seed=1),
            gradient_fn=gradient_fn,
        )
    lls.append(brute_log_likelihood(current, data))
    diffs = np.diff(lls)
    assert np.all(diffs > -1e-9)


def test_train_layer_grbm_learns_two_gaussians():
    rng = RngStream(38).generator()
    centers = np.array([[1.5, -1.0, 0.0], [-1.5, 1.0, 0.0]])
    data = np.concatenate(
        [0.4 * rng.standard_normal((250, 3)) + centers[i] for i in (0, 1)]
    )
    model = models.initialize_layer(models.GRBM, 3, 4, rng, sigma=0.6)
    cfg = TrainConfig(epochs=50, batch_size=100, seed=2)
    trained, diag = train_layer(model, data, cfg, exact_loss=True)
    assert diag[-1]["exact_log_loss"] < diag[0]["exact_log_loss"]


def test_train_layer_writes_csv_log(tmp_path):
    rng = RngStream(39).generator()
    model = random_rbm(rng)
    data = (rng.random((40, 3)) < 0.5).astype(float)
    cfg = TrainConfig(epochs=3, batch_size=20, seed=3)
    path = tmp_path / "log.csv"
    train_layer(model, data, cfg, log_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,recon_error,exact_log_loss,wall_time"
    assert len(lines) == 4


def test_divergence_guard_triggers():
    rng = RngStream(40).generator()
    model = random_rbm(rng)
    data = (rng.random((40, 3)) < 0.5).astype(float)
    cfg = TrainConfig(epochs=3, lr_start=1e7, lr_end=1e7, momentum=0.0,
                      weight_decay=0.0, batch_size=20)
    with pytest.raises(TrainingDiverged):
        train_layer(model, data, cfg)


# -- second-layer initialization ----------------------------------------------


def test_init_srbm_from_grbm_zero_weights():
    grbm = Grbm(np.zeros((3, 4)), np.ones(3), np.full(4, 0.7), 0.5)
    second = init_srbm_from_grbm(grbm, 5)
    assert np.all(second.lateral == 0.0)
    assert np.allclose(second.visible_bias, grbm.hidden_bias)
    assert np.all(second.weights == 0.0)
    assert np.all(second.hidden_bias == -1.0)


def test_init_srbm_matches_grbm_hidden_marginal():
    rng = RngStream(41).generator()
    grbm = random_grbm(rng, m=4, n=5, scale=0.6)
    second = init_srbm_from_grbm(grbm, 6)
    ys = binary_states(5)
    diff = second.log_unnorm_visible(ys) - grbm.log_unnorm_hidden(ys)
    assert diff.max() - diff.min() < 1e-12


# -- greedy stacking -----------------------------------------------------------


def test_greedy_single_layer_equals_train_layer():
    rng = RngStream(43).generator()
    data = (rng.random((60, 4)) < 0.5).astype(float)
    cfg = TrainConfig(epochs=4, batch_size=20, seed=9)
    stack, _ = train_dbn_greedy([LayerSpec("rbm", 3)], data, [cfg])
    init = models.initialize_layer(
        models.RBM, 4, 3, RngStream(cfg.seed).substream(0, 7)
    )
    direct, _ = train_layer(init, data, cfg)
    for name, arr in direct.parameter_arrays().items():
        assert np.array_equal(stack.layers[0].parameter_arrays()[name], arr)


def test_greedy_zero_epoch_second_layer_keeps_likelihood():
    rng = RngStream(44).generator()
    data = 0.5 * rng.standard_normal((80, 3)) + 0.3
    cfg1 = TrainConfig(epochs=5, batch_size=40, seed=4)
    cfg2 = TrainConfig(epochs=0, batch_size=40, seed=5)
    stack, _ = train_dbn_greedy(
        [LayerSpec("grbm", 4, sigma=0.7), LayerSpec("srbm", 3)], data, [cfg1, cfg2]
    )
    one = dbn.average_log_loss(
        data,
        lambda rows: stack.layers[0].log_unnorm_visible(rows)
        - brute_force_log_partition(stack.layers[0]),
    )
    two = dbn.average_log_loss(
        data, lambda rows: dbn.brute_force_log_likelihood(stack, rows)
    )
    assert two == pytest.approx(one, abs=1e-10)


def test_greedy_never_mutates_lower_layers():
    rng = RngStream(45).generator()
    data = 0.5 * rng.standard_normal((60, 3))
    cfg1 = TrainConfig(epochs=3, batch_size=30, seed=6)
    cfg2 = TrainConfig(epochs=3, batch_size=30, seed=7)
    stack1, _ = train_dbn_greedy([LayerSpec("grbm", 3, sigma=0.8)], data, [cfg1])
    stack2, _ = train_dbn_greedy(
        [LayerSpec("grbm", 3, sigma=0.8), LayerSpec("srbm", 3)], data, [cfg1, cfg2]
    )
    for name, arr in stack1.layers[0].parameter_arrays().items():
        assert np.array_equal(stack2.layers[0].parameter_arrays()[name], arr)


def test_bound_improvement_implies_likelihood_improvement():
    # after the exact-marginal initialization, improving the bound of the
    # second layer can only raise the true likelihood
    from dbnkit.estimation import estimate_lower_bound

    rng = RngStream(46).generator()
    grbm = random_grbm(rng, m=3, n=4, scale=0.7)
    second = init_srbm_from_grbm(grbm, 4)
    data = 0.6 * rng.standard_normal((50, 3)) + 0.2
    stack = dbn.DbnModel([grbm, second])
    ll_init = dbn.brute_force_log_likelihood(stack, data).mean()

    hidden = grbm.sample_hidden(data, rng)
    acc = GradientAccumulator(second)
    cfg = TrainConfig(epochs=1, lr_start=0.02, lr_end=0.02, momentum=0.0,
                      weight_decay=0.0, batch_size=50)
    trained = second
    for _ in range(10):
        exact_ml_gradient(trained, hidden, out=acc)
        trained = apply_update(trained, acc, cfg, 0)
    improved = dbn.DbnModel([grbm, trained])

    def bound_mean(s):
        log_z = exact_log_z(s.layers[1])
        return np.mean(
            [
                estimate_lower_bound(s, x, None, log_z, None, exact=True).log_value
                for x in data[:20]
            ]
        )

    assert bound_mean(improved) > bound_mean(stack) - 1e-9
    ll_after = dbn.brute_force_log_likelihood(improved, data).mean()
    assert ll_after > ll_init - 1e-9
