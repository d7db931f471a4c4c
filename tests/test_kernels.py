"""Fixed-seed regression pins for the AIS kernels, the agreement of the
binary body's factorial and lateral branches, and sweep ordering.

The pins guard the kernels' arithmetic and the order in which they draw
random numbers: final states must match bit for bit (sha256 of their
bytes) and log weights to rtol 1e-12.
"""

import hashlib

import numpy as np
import pytest

from dbnkit import kernels
from dbnkit.models import Grbm, Rbm, Srbm
from dbnkit.numerics import RngStream


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
