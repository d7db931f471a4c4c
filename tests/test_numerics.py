import mpmath
import numpy as np
import pytest

from dbnkit import numerics
from dbnkit.numerics import (
    NumericsError,
    RngStream,
    bernoulli_entropy,
    first_nonfinite_row,
    log_mean_exp,
    log_sum_exp,
    logistic,
    monte_carlo_se,
    monte_carlo_se_rows,
    softplus_log,
)


def test_log_sum_exp_single_element():
    assert log_sum_exp([3.7]) == 3.7


def test_log_sum_exp_two_zeros():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(np.log(2), abs=1e-15)


def test_log_sum_exp_no_overflow_matches_high_precision():
    # oracle: 50-digit evaluation of log(e^1000 + e^1000)
    expected = float(mpmath.log(mpmath.exp(mpmath.mpf(1000)) * 2))
    got = log_sum_exp([1000.0, 1000.0])
    assert np.isfinite(got)
    assert got == pytest.approx(expected, rel=1e-14)


def test_log_sum_exp_permutation_invariant_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(20):
        vals = rng.standard_normal(17) * 10
        a = log_sum_exp(vals)
        b = log_sum_exp(rng.permutation(vals))
        assert a == pytest.approx(b, abs=1e-12)
        assert vals.max() <= a <= vals.max() + np.log(vals.size) + 1e-12


def test_log_sum_exp_empty_is_error():
    with pytest.raises(NumericsError):
        log_sum_exp([])


def test_log_mean_exp_constant_list():
    assert log_mean_exp([2.5, 2.5, 2.5]) == pytest.approx(2.5, abs=1e-14)


def test_log_mean_exp_arithmetic_mean():
    assert log_mean_exp([np.log(1.0), np.log(3.0)]) == pytest.approx(
        np.log(2.0), abs=1e-14
    )


def test_log_mean_exp_uniform_draws():
    rng = np.random.default_rng(1)
    draws = rng.random(10 ** 4)
    se = np.sqrt(1.0 / 12 / draws.size)
    got = np.exp(log_mean_exp(np.log(draws)))
    assert abs(got - 0.5) < 3 * se


def test_logistic_values():
    assert logistic(0.0) == 0.5
    assert logistic(1e6) == 1.0
    assert logistic(-1e6) == 0.0
    assert logistic(np.log(3.0)) == pytest.approx(0.75, abs=1e-15)


def test_logistic_symmetry():
    xs = np.linspace(-40, 40, 101)
    assert np.allclose(logistic(xs) + logistic(-xs), 1.0, atol=1e-15)


def test_softplus_values():
    assert softplus_log(0.0) == pytest.approx(np.log(2.0), abs=1e-16)
    assert softplus_log(-1e6) == 0.0
    # oracle: series expansion at x=30 is x + exp(-x) - exp(-2x)/2 + ...
    expected = float(mpmath.log(1 + mpmath.exp(30)))
    assert softplus_log(30.0) == pytest.approx(expected, rel=1e-15)


def test_logistic_softplus_identity():
    xs = np.linspace(-30, 30, 301)
    lhs = logistic(xs)
    rhs = np.exp(xs - softplus_log(xs))
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_bernoulli_entropy_edges():
    assert bernoulli_entropy(np.array([0.5, 0.5])) == pytest.approx(
        2 * np.log(2), abs=1e-14
    )
    assert bernoulli_entropy(np.array([0.0, 1.0])) == 0.0


def test_monte_carlo_se_constant_weights():
    est = monte_carlo_se([1.3] * 100)
    assert est.log_value == pytest.approx(1.3, abs=1e-12)
    assert est.standard_error == 0.0


def test_monte_carlo_se_two_point_closed_form():
    # weights alternate between 1 and 3 in the linear domain
    lw = np.log(np.tile([1.0, 3.0], 50))
    n = lw.size
    est = monte_carlo_se(lw)
    mean = 2.0
    sd = np.sqrt(n / (n - 1) * (5.0 - 4.0))  # E[w^2]=5, mean^2=4
    assert est.log_value == pytest.approx(np.log(mean), abs=1e-12)
    assert est.standard_error == pytest.approx(sd / np.sqrt(n) / mean, rel=1e-10)


def test_monte_carlo_se_exponential_draws():
    rng = np.random.default_rng(2)
    lw = np.log(rng.exponential(1.0, size=10 ** 4))
    est = monte_carlo_se(lw)
    assert abs(est.standard_error - 1.0 / np.sqrt(lw.size)) < 0.2 / np.sqrt(lw.size)


def test_monte_carlo_se_of_one_weight_is_that_weight():
    for v in (-3.7, 0.0, -0.0, 709.7, -np.inf):
        est = monte_carlo_se([v])
        assert (est.log_value, est.standard_error, est.n_samples) == (v, 0.0, 1)
    with pytest.raises(NumericsError):
        monte_carlo_se([])


def _scalar_summary(lw):
    """The one-row summary written with scalar reductions: a reference for
    the row-wise one."""
    n = lw.size
    log_mean = log_mean_exp(lw)
    if not np.isfinite(log_mean):
        return log_mean, 0.0
    log_m2 = log_mean_exp(2.0 * lw)
    gap = 2.0 * log_mean - log_m2
    if gap >= 0.0:
        return log_mean, 0.0
    log_var = log_m2 + np.log1p(-np.exp(gap)) + np.log(n / (n - 1.0))
    return log_mean, float(np.exp(0.5 * log_var - log_mean - 0.5 * np.log(n)))


@pytest.mark.parametrize("n", [1, 2, 7, 128, 129, 1000])
def test_row_wise_summary_equals_the_one_row_function_bit_for_bit(n):
    rng = np.random.default_rng(7)
    rows = np.vstack([
        np.full(n, 1.3),                               # constant
        rng.normal(-4.0, 1.0, n),                      # ordinary
        np.full(n, -np.inf),                           # all -inf
        np.where(np.arange(n) < n // 2, -np.inf, rng.normal(0.0, 2.0, n)),  # half -inf
        rng.normal(0.0, 300.0, n),                     # wide spread
        rng.normal(650.0, 30.0, n),                    # near the exp overflow
    ])
    log_means, ses = monte_carlo_se_rows(rows)
    assert log_means.shape == ses.shape == (len(rows),)
    for row, log_mean, se in zip(rows, log_means, ses):
        one = monte_carlo_se(row)
        assert (one.log_value, one.standard_error) == (log_mean, se)
        want = _scalar_summary(row)
        assert np.array_equal([log_mean, se], want)
        assert one.n_samples == n
    # a single weight is its own mean, with error 0 and no division by n - 1
    singles = rows[:, :1]
    log_means, ses = monte_carlo_se_rows(singles)
    assert np.array_equal(log_means, singles[:, 0]) and not ses.any()


def test_row_wise_summary_refuses_nan_and_empty_rows():
    rows = np.zeros((3, 4))
    rows[2, 1] = np.nan
    with pytest.raises(NumericsError, match="NaN in log weights"):
        monte_carlo_se_rows(rows)
    with pytest.raises(NumericsError, match="NaN in log weights"):
        monte_carlo_se([0.0, np.nan])
    for empty in (np.zeros((2, 0)), np.zeros(3)):
        with pytest.raises(NumericsError, match="at least 1 sample"):
            monte_carlo_se_rows(empty)


def test_rng_stream_reproducible():
    a = RngStream(99, 3).generator().random(100)
    b = RngStream(99, 3).generator().random(100)
    assert a.tobytes() == b.tobytes()


def test_rng_stream_independent_ids():
    a = RngStream(99, 0).generator().random(100)
    b = RngStream(99, 1).generator().random(100)
    assert not np.array_equal(a, b)


def test_rng_substreams_differ():
    s = RngStream(5)
    assert not np.array_equal(s.substream(0).random(8), s.substream(1).random(8))


@pytest.mark.parametrize("block", [1, 5, 12, 2 ** 17])
def test_first_nonfinite_row_matches_a_whole_array_scan(monkeypatch, block):
    monkeypatch.setattr(numerics, "ENUM_BLOCK", block)
    rng = np.random.default_rng(8)
    for _ in range(40):
        rows = rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 6))))
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(rows.shape[0]), rng.integers(rows.shape[1])
            rows[i, j] = rng.choice([np.nan, np.inf, -np.inf])
        bad = ~np.isfinite(rows).all(axis=1)
        assert first_nonfinite_row(rows) == (int(np.argmax(bad)) if bad.any() else None)
    assert first_nonfinite_row(np.empty((3, 0))) is None
