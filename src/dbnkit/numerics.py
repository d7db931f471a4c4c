"""Log-domain arithmetic, stable elementary functions and seeded randomness.

All log quantities in this package are natural logarithms (nats); conversion
to bits happens only at reporting boundaries.  Probability zero is encoded as
``-inf``, never as NaN; a NaN anywhere in a log-domain computation is a bug.
"""

from dataclasses import dataclass

import numpy as np

LOG2 = float(np.log(2.0))


class NumericsError(ValueError):
    pass


@dataclass(frozen=True)
class LogEstimate:
    """A point estimate in log domain (nats) with a Monte Carlo error bar.

    ``standard_error`` is the standard error of the mean in the linear
    domain, expressed relative to the mean (delta method: for small errors
    this is also the absolute standard error of ``log_value``).
    """

    log_value: float
    standard_error: float
    n_samples: int

    def __post_init__(self):
        if np.isnan(self.log_value) or np.isnan(self.standard_error):
            raise NumericsError("NaN in log estimate")
        if self.n_samples < 1:
            raise NumericsError("estimate needs at least one sample")


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream identified by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical draw sequences;
    distinct stream_ids yield independent streams.  Built on the Philox
    counter-based generator, so streams for parallel units can be created
    up front without coordination.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return self.substream()

    def substream(self, *key: int) -> np.random.Generator:
        """Generator for a child stream, keyed by extra integers.

        Used to hand dedicated streams to parallel units (AIS chunks,
        per-sample evaluators, per-epoch shuffles) in a way that does not
        depend on execution order.
        """
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id,) + key
        )
        return np.random.Generator(np.random.Philox(seq))


def log_sum_exp(values, axis=None):
    """log(sum(exp(values))), stable under large magnitudes.

    Empty reductions are an error; ``-inf`` entries drop out as
    probability zero.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0 or (axis is not None and values.shape[axis] == 0):
        raise NumericsError("empty reduction")
    vmax = np.max(values, axis=axis, keepdims=True)
    vmax = np.where(np.isfinite(vmax), vmax, 0.0)
    out = np.squeeze(vmax, axis=axis) if axis is not None else np.squeeze(vmax)
    with np.errstate(divide="ignore"):
        out = out + np.log(np.sum(np.exp(values - vmax), axis=axis))
    return float(out) if np.ndim(out) == 0 else out


def log_mean_exp(values, axis=None):
    """log of the arithmetic mean of exp(values)."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size if axis is None else values.shape[axis]
    if n == 0:
        raise NumericsError("empty reduction")
    return log_sum_exp(values, axis=axis) - np.log(n)


def logistic(x):
    """1 / (1 + exp(-x)), saturating cleanly for |x| up to 1e6 and beyond."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
    return float(out) if np.ndim(out) == 0 else out


def softplus_log(x):
    """log(1 + exp(x)) computed as max(x, 0) + log1p(exp(-|x|))."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if np.ndim(out) == 0 else out


def bernoulli_entropy(p):
    """Entropy in nats of independent Bernoulli units, summed over the last axis."""
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(p > 0, p * np.log(p), 0.0) - np.where(
            p < 1, (1 - p) * np.log1p(-p), 0.0
        )
    return h.sum(axis=-1)


def monte_carlo_se(log_weights) -> LogEstimate:
    """Summarize i.i.d. log-domain weights as a LogEstimate.

    Returns the log of the linear-domain mean together with the relative
    standard error of that mean, computed stably from the first two
    moments in log domain.  Requires at least two weights.
    """
    lw = np.asarray(log_weights, dtype=np.float64).ravel()
    if lw.size < 2:
        raise NumericsError("standard error needs at least 2 samples")
    if np.isnan(lw).any():
        raise NumericsError("NaN in log weights")
    n = lw.size
    log_mean = log_mean_exp(lw)
    if not np.isfinite(log_mean):
        return LogEstimate(log_mean, 0.0, n)
    log_m2 = log_mean_exp(2.0 * lw)
    # sample variance: n/(n-1) * (m2 - mean^2), all in log domain
    gap = 2.0 * log_mean - log_m2  # <= 0 up to rounding
    if gap >= 0.0:
        return LogEstimate(log_mean, 0.0, n)
    log_var = log_m2 + np.log1p(-np.exp(gap)) + np.log(n / (n - 1.0))
    rel_se = float(np.exp(0.5 * log_var - log_mean - 0.5 * np.log(n)))
    return LogEstimate(log_mean, rel_se, n)
