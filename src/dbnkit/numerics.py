"""Log-domain arithmetic, stable elementary functions and seeded randomness.

All log quantities in this package are natural logarithms (nats); conversion
to bits happens only at reporting boundaries.  Probability zero is encoded as
``-inf``, never as NaN; a NaN anywhere in a log-domain computation is a bug.
"""

from dataclasses import dataclass

import numpy as np

LOG2 = float(np.log(2.0))
# the most values one dataset, drawn array or count of work items may hold
# (8 GiB of float64); a setting past it is refused before any work starts
MAX_CELLS = 2 ** 30
# cells (1 MB of float64) in one block of a pair enumeration, AIS
# reweighting, potential log-loss or finiteness scan
ENUM_BLOCK = 2 ** 17


class NumericsError(ValueError):
    pass


def is_gaussian_scale(sigma):
    """Whether ``sigma`` can scale a Gaussian: positive, with sigma**2 finite and nonzero."""
    return sigma is not None and sigma > 0 and 0 < sigma * sigma < np.inf


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


def first_nonfinite_row(rows):
    """Index of the first row of the 2-d ``rows`` holding a non-finite value,
    or None; scanned in row blocks of at most ENUM_BLOCK cells (one row at
    least), so no n x d temporary is built."""
    step = max(1, ENUM_BLOCK // max(rows.shape[1], 1))
    for lo in range(0, rows.shape[0], step):
        bad = ~np.isfinite(rows[lo : lo + step]).all(axis=1)
        if bad.any():
            return lo + int(np.argmax(bad))
    return None


def bits_per_component(log_values, dim):
    """Average log-loss in bits per component of ``dim``-component points' log densities."""
    return float(np.mean(-log_values / LOG2) / dim)


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


def logistic(x, out=None):
    """1 / (1 + exp(-x)), saturating cleanly for |x| up to 1e6 and beyond,
    as max(e, x >= 0) / (1 + e) with e = exp(-|x|).

    Written into ``out`` (float64, x's shape, may be x itself) if given;
    else a scalar gives a Python float.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar = out is None and x.ndim == 0
    positive = x >= 0  # taken before out, which may be x, is overwritten
    if out is None:
        out = np.empty_like(x)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    denominator = out + 1.0
    np.maximum(out, positive, out=out)
    out /= denominator
    return float(out) if scalar else out


def softplus_log(x, out=None):
    """log(1 + exp(x)) computed as log1p(exp(-|x|)) + max(x, 0).

    Written into ``out`` (float64, x's shape, not x itself) if given; else
    a scalar gives a Python float.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar = out is None and x.ndim == 0
    if out is None:
        out = np.empty_like(x)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return float(out) if scalar else out


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
    moments in log domain.  One weight is its own mean, with error 0.
    """
    lw = np.asarray(log_weights, dtype=np.float64).ravel()
    if lw.size < 1:
        raise NumericsError("standard error needs at least 1 sample")
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
