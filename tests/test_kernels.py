"""Fixed-seed regression pins for the AIS kernels, the agreement of the
binary body's factorial and lateral branches, sweep ordering, the
buffered binary body and its state-code tables against an allocating
row-by-row reference, and the ``out=`` forms of softplus and logistic
against allocating references.

The pins guard the kernels' arithmetic and the order in which they draw
random numbers: final states must match bit for bit (sha256 of their
bytes) and log weights to rtol 1e-12.
"""

import hashlib

import numpy as np
import pytest

from dbnkit import kernels, models
from dbnkit.models import Grbm, Rbm, Srbm
from dbnkit.numerics import RngStream, logistic, softplus_log


def _rbm_args(rng):
    m, n = 7, 5
    base_b = 0.3 * rng.standard_normal(m)
    target = Rbm(
        0.5 * rng.standard_normal((m, n)),
        0.3 * rng.standard_normal(m),
        0.3 * rng.standard_normal(n),
    )
    return target, Rbm(np.zeros((m, n)), base_b, np.zeros(n)), np.linspace(0.0, 1.0, 41), 64


def _grbm_args(rng):
    m, n = 6, 4
    base_b = 0.2 * rng.standard_normal(m)
    target = Grbm(
        0.5 * rng.standard_normal((m, n)),
        0.3 * rng.standard_normal(m),
        0.3 * rng.standard_normal(n),
        0.7,
    )
    base = Grbm(np.zeros((m, n)), base_b, np.zeros(n), 0.9)
    return target, base, np.linspace(0.0, 1.0, 41), 64


def _srbm_args(rng):
    m, n = 6, 4
    lat = 0.3 * rng.standard_normal((m, m))
    lat = 0.5 * (lat + lat.T)
    np.fill_diagonal(lat, 0.0)
    base_b = 0.3 * rng.standard_normal(m)
    target = Srbm(
        0.5 * rng.standard_normal((m, n)),
        0.3 * rng.standard_normal(m),
        0.3 * rng.standard_normal(n),
        lat,
    )
    base = Srbm(np.zeros((m, n)), base_b, np.zeros(n), np.zeros((m, m)))
    return target, base, np.linspace(0.0, 1.0, 41), 64


@pytest.mark.parametrize(
    "maker,fn,state_sha256,log_w_head,log_w_sum",
    [
        (
            _rbm_args,
            kernels.ais_rbm,
            "41517ffff6eccd284d167977ac957da5d103d72e596cdef6d5c833196650e44d",
            [1.2874083095471427, 1.0554965647877335, 1.0770548688058952, 1.2916782318894495],
            77.34768975849805,
        ),
        (
            _grbm_args,
            kernels.ais_grbm,
            "4efea4ff7d1c10df0349c6e62a2aac38fe97c676c8b73cbae529ca9d2ad7de68",
            [0.5814319797393053, 1.2078083472484815, 0.8718119307033547, 0.5012563796129678],
            67.86571062877904,
        ),
        (
            _srbm_args,
            kernels.ais_srbm,
            "dc7afcb116962a4e7d2c980565aa44b9330f6eecd647c4c9e5aa5fb6143a293b",
            [2.0667441540308986, 2.065097663688767, 1.9319591860198175, 2.527805749055589],
            139.83558812431735,
        ),
    ],
)
def test_ais_fixed_seed_pins(maker, fn, state_sha256, log_w_head, log_w_sum):
    args = maker(np.random.default_rng(0))
    log_w, x = fn(*args, RngStream(11).generator())
    assert x.dtype == np.float64
    assert hashlib.sha256(x.tobytes()).hexdigest() == state_sha256
    np.testing.assert_allclose(log_w[:4], log_w_head, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(log_w.sum(), log_w_sum, rtol=1e-12, atol=0.0)


def test_srbm_kernel_without_couplings_matches_rbm_kernel():
    # pins the lateral and the factorial branch of the shared binary body
    # to each other: with zero couplings the sweep is the factorial update
    rbm, base, betas, n_chains = _rbm_args(np.random.default_rng(0))
    m, n = rbm.weights.shape
    srbm = Srbm(rbm.weights, rbm.visible_bias, rbm.hidden_bias, np.zeros((m, m)))
    srbm_base = Srbm(np.zeros((m, n)), base.visible_bias, np.zeros(n), np.zeros((m, m)))
    log_w_r, x_r = kernels.ais_rbm(rbm, base, betas, n_chains, RngStream(11).generator())
    log_w_s, x_s = kernels.ais_srbm(srbm, srbm_base, betas, n_chains, RngStream(11).generator())
    assert np.array_equal(log_w_s, log_w_r)
    assert np.array_equal(x_s, x_r)


def test_srbm_sweep_is_sequential():
    # unit i's update must see unit j<i's fresh value within the same sweep
    lat = np.array([[0.0, 50.0], [50.0, 0.0]])
    drive = np.array([[100.0, -25.0]])  # unit 0 switches on, unit 1 follows
    x = np.zeros((1, 2))
    u = np.full((1, 2), 0.5)
    out = kernels.srbm_sweep(x, lat, drive, u)
    assert out[0, 0] == 1.0
    assert out[0, 1] == 1.0  # lateral drive from the fresh unit 0 dominates


def _reference_ais_binary(target, base, lateral, betas, n_chains, rng):
    # the binary body as it was before its buffers: every array allocated
    # anew each step, softplus and sigmoid in their allocating forms
    def sigmoid(z):
        return 0.5 * (np.tanh(0.5 * z) + 1.0)

    def softplus(x):
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    n_steps = betas.shape[0] - 1
    base_b = base.visible_bias
    wt, bt, ct = target.weights, target.visible_bias, target.hidden_bias
    m = base_b.shape[0]
    bias_step = bt - base_b
    hidden_ones = np.ones(ct.shape[0])
    x = (rng.random((n_chains, m)) < sigmoid(base_b)).astype(np.float64)
    log_w = np.zeros(n_chains)
    for k in range(1, n_steps + 1):
        b0 = betas[k - 1]
        b1 = betas[k]
        act = np.dot(x, wt) + ct
        lin = np.dot(x, bias_step)
        if lateral is not None:
            lin += 0.5 * np.einsum("ij,ij->i", np.dot(x, lateral), x)
        act_1 = b1 * act
        soft = softplus(act_1)
        soft -= softplus(b0 * act)
        log_w += (b1 - b0) * lin + np.dot(soft, hidden_ones)
        if k < n_steps:
            u_h = rng.random((n_chains, ct.shape[0]))
            y = (u_h < sigmoid(act_1)).astype(np.float64)
            u_v = rng.random((n_chains, m))
            drive = (1.0 - b1) * base_b + b1 * (np.dot(y, wt.T) + bt)
            if lateral is None:
                x = (u_v < sigmoid(drive)).astype(np.float64)
            else:
                x = kernels.srbm_sweep(x, b1 * lateral, drive, u_v)
    return log_w, x


def _binary_pair(lateral, n_chains, m=8, n=6):
    rng = np.random.default_rng(n_chains)
    w = 0.8 * rng.standard_normal((m, n))
    b, c, base_b = (0.5 * rng.standard_normal(k) for k in (m, n, m))
    if not lateral:
        return Rbm(w, b, c), Rbm(np.zeros((m, n)), base_b, np.zeros(n))
    lat = 0.4 * rng.standard_normal((m, m))
    lat = 0.5 * (lat + lat.T)
    np.fill_diagonal(lat, 0.0)
    return Srbm(w, b, c, lat), Srbm(np.zeros((m, n)), base_b, np.zeros(n), np.zeros((m, m)))


@pytest.mark.parametrize("n_chains", [1, 7, 300])
@pytest.mark.parametrize("fn,lateral", [(kernels.ais_rbm, False), (kernels.ais_srbm, True)])
def test_buffered_binary_body_matches_allocating_reference(fn, lateral, n_chains):
    target, base = _binary_pair(lateral, n_chains)
    betas = np.linspace(0.0, 1.0, 31)
    want_w, want_x = _reference_ais_binary(
        target, base, target.lateral if lateral else None, betas, n_chains,
        RngStream(5).generator())
    log_w, x = fn(target, base, betas, n_chains, RngStream(5).generator())
    assert log_w.tobytes() == want_w.tobytes()
    assert x.tobytes() == want_x.tobytes()


def _matches_row_path(fn, lateral, m, h, n_chains):
    """Whether ``fn`` gives the reference's final states bit for bit and its
    log weights to 1e-12 relative.  The reference runs every chain on the
    row path; ``fn`` reads state-code tables once 2^m <= n_chains."""
    target, base = _binary_pair(lateral, n_chains, m, h)
    betas = np.linspace(0.0, 1.0, 31)
    want_w, want_x = _reference_ais_binary(
        target, base, target.lateral if lateral else None, betas, n_chains,
        RngStream(6).generator())
    log_w, x = fn(target, base, betas, n_chains, RngStream(6).generator())
    return x.tobytes() == want_x.tobytes() and np.allclose(log_w, want_w, rtol=1e-12, atol=0.0)


# 255 chains take the row path, 256 and up both tables (2^8 visible and
# hidden states); 6 visible and 9 hidden units over 100 chains take the
# visible table alone.  Log weights are held to 1e-12 relative, not to
# their bytes: a table row can sit elsewhere in a BLAS matrix-vector
# product than the chains that read it, and some BLAS kernels sum a row by
# its position (the 300-chain case above pins the bytes for 6 hidden units)
@pytest.mark.parametrize("m,h,n_chains", [(8, 8, 255), (8, 8, 256), (8, 8, 300),
                                          (8, 8, 3334), (6, 9, 100)])
@pytest.mark.parametrize("fn,lateral", [(kernels.ais_rbm, False), (kernels.ais_srbm, True)])
def test_state_code_tables_match_the_row_path(fn, lateral, m, h, n_chains):
    assert _matches_row_path(fn, lateral, m, h, n_chains)


@pytest.mark.parametrize("fn,lateral", [(kernels.ais_rbm, False), (kernels.ais_srbm, True)])
def test_the_row_path_check_catches_a_mis_keyed_table(monkeypatch, fn, lateral):
    index = models.state_index
    monkeypatch.setattr(models, "state_index", lambda x: index(np.asarray(x)[:, ::-1]))
    assert not _matches_row_path(fn, lateral, 8, 8, 300)


@pytest.mark.parametrize("fn,lateral", [(kernels.ais_rbm, False), (kernels.ais_srbm, True)])
def test_buffered_binary_body_gives_zero_weights_for_its_base(fn, lateral):
    _, base = _binary_pair(lateral, 300)
    log_w, _ = fn(base, base, np.linspace(0.0, 1.0, 31), 300, RngStream(5).generator())
    assert np.all(log_w == 0.0)


def _wide_values():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal(199) * s for s in (1e-300, 1e-8, 1.0, 30.0, 800.0)])
    return np.concatenate([x, [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308]]).reshape(-1, 7)


def test_softplus_out_matches_allocating_form():
    x = _wide_values()
    buf = np.empty_like(x)
    assert softplus_log(x, out=buf) is buf
    with np.errstate(over="ignore"):
        want = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    assert buf.tobytes() == softplus_log(x).tobytes() == want.tobytes()
    assert type(softplus_log(0.5)) is float
    assert softplus_log(np.float64(-2.0)) == float(np.log1p(np.exp(-2.0)))


def test_logistic_out_matches_allocating_form():
    x = _wide_values()
    buf = np.empty_like(x)
    assert logistic(x, out=buf) is buf
    e = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0, e) / (1.0 + e)
    assert buf.tobytes() == logistic(x).tobytes() == want.tobytes()
    # in place, as the kernels call it
    assert logistic(x, out=x).tobytes() == want.tobytes()
    assert type(logistic(0.5)) is float
    assert logistic(np.float64(-2.0)) == float(np.exp(-2.0) / (1.0 + np.exp(-2.0)))
