"""Latent-variable energy models: binary RBM, Gaussian-visible RBM, and a
lateral-connected variant with visible-visible couplings.

Each model holds a weight matrix ``weights`` (n_visible x n_hidden), a
``visible_bias`` and a ``hidden_bias``.  The Gaussian variant adds a scale
``sigma`` shared across visible units; the lateral variant adds a symmetric
zero-diagonal coupling matrix ``lateral``.  States are represented as
float arrays with entries in {0, 1} (or reals for Gaussian visibles);
all state-level operations accept either a single state vector or a
(batch, dim) matrix and return matching shapes.
"""

import numpy as np

from . import kernels
from .numerics import ENUM_BLOCK, is_gaussian_scale, log_sum_exp, logistic, softplus_log

RBM = "rbm"
GRBM = "grbm"
SRBM = "srbm"

DEFAULT_ENUM_BUDGET = 2 ** 25
_ENUM_CHUNK = 2 ** 16


class ModelError(ValueError):
    pass


class EnumerationBudgetError(ModelError):
    """Raised when an exact computation would enumerate too many states."""


def check_budget(k, budget, what):
    """Refuse an exact computation over 2^k states or cells above ``budget``."""
    if 2 ** k > budget:
        raise EnumerationBudgetError(
            f"{what} needs 2^{k} states, above the budget of {budget}; "
            "use annealed importance sampling instead"
        )


def _state_block(lo, hi, k):
    """States lo..hi-1 as float64 rows, unpacked from the low bytes of their
    little-endian codes: the block is the one (rows, k) array of 8-byte items."""
    codes = np.arange(lo, hi, dtype="<i8").view(np.uint8).reshape(-1, 8)[:, : -(-k // 8)]
    block = np.empty((hi - lo, k))
    block[:] = np.unpackbits(codes, axis=1, bitorder="little")[:, :k]
    return block


def state_chunks(k, budget, what):
    """The 2^k binary states, low bit first, in blocks of at most _ENUM_CHUNK rows.

    The budget is checked before any block is built.
    """
    check_budget(k, budget, what)
    n = 2 ** k
    return (_state_block(i, min(i + _ENUM_CHUNK, n), k) for i in range(0, n, _ENUM_CHUNK))


def binary_states(k, budget=2 ** 22, what="a binary state matrix"):
    """All 2^k binary states as a (2^k, k) float64 matrix, low bit first,
    refused above ``budget`` states."""
    return np.concatenate(list(state_chunks(k, budget, what)))


def state_index(x):
    """Bit-pack binary state rows into integer indices (inverse of binary_states).

    The packing is a float64 dot product, exact up to 53 columns only.
    """
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] > 53:
        raise ModelError(f"cannot index states of {x.shape[1]} units exactly; at most 53")
    powers = (1 << np.arange(x.shape[1], dtype=np.int64)).astype(np.float64)
    return np.rint(x @ powers).astype(np.int64)


def _rows(x, dim, what):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != dim:
        raise ModelError(f"{what} has dimension {x.shape[1]}, expected {dim}")
    return x, single


def _ret(values, single):
    return float(values[0]) if single and values.ndim == 1 else (
        values[0] if single else values
    )


class LayerModel:
    """Shared structure and behaviour of the three model variants."""

    variant = None

    def __init__(self, weights, visible_bias, hidden_bias):
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.visible_bias = np.ascontiguousarray(visible_bias, dtype=np.float64)
        self.hidden_bias = np.ascontiguousarray(hidden_bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ModelError("weights must be a matrix")
        m, n = self.weights.shape
        if m < 1 or n < 1:
            raise ModelError("need at least one visible and one hidden unit")
        if self.visible_bias.shape != (m,) or self.hidden_bias.shape != (n,):
            raise ModelError("bias shapes do not match the weight matrix")
        for arr in (self.weights, self.visible_bias, self.hidden_bias):
            if not np.isfinite(arr).all():
                raise ModelError("model parameters must be finite")

    @property
    def n_visible(self):
        return self.weights.shape[0]

    @property
    def n_hidden(self):
        return self.weights.shape[1]

    # -- conditionals ---------------------------------------------------

    def _hidden_activation_rows(self, x):
        return x @ self.weights + self.hidden_bias

    def hidden_activation(self, x):
        """Pre-sigmoid input to each hidden unit given visible states."""
        x, single = _rows(x, self.n_visible, "visible state")
        return _ret(self._hidden_activation_rows(x), single)

    def hidden_conditional(self, x):
        """Bernoulli means of the hidden units given visible states (factorial)."""
        return logistic(self.hidden_activation(x))

    def sample_hidden(self, x, rng):
        x, single = _rows(x, self.n_visible, "visible state")
        p = logistic(self._hidden_activation_rows(x))
        h = (rng.random(p.shape) < p).astype(np.float64)
        return _ret(h, single)

    # -- energies and marginals -----------------------------------------

    def energy(self, x, y):
        x, sx = _rows(x, self.n_visible, "visible state")
        y, sy = _rows(y, self.n_hidden, "hidden state")
        if len(x) != len(y) and min(len(x), len(y)) > 1:
            raise ModelError("mismatched batch sizes")
        return _ret(self._energy_rows(x, y), sx and sy)

    def log_unnorm_visible(self, x):
        """log q*(x): the hidden units summed (or integrated) out analytically."""
        x, single = _rows(x, self.n_visible, "visible state")
        return _ret(self._log_unnorm_visible_rows(x), single)

    def log_unnorm_hidden(self, y):
        """log q*(y): the visible units summed (or integrated) out analytically."""
        y, single = _rows(y, self.n_hidden, "hidden state")
        return _ret(self._log_unnorm_hidden_rows(y), single)

    def log_visible_conditional(self, x, y):
        """log q(x | y) for paired rows (or one state and rows) of ``x`` and
        ``y``, by ``conditional_terms`` within DEFAULT_ENUM_BUDGET."""
        x, sx = _rows(x, self.n_visible, "visible state")
        y, sy = _rows(y, self.n_hidden, "hidden state")
        a, c, r = conditional_terms(self, y)
        return _ret(np.sum(x * a.T, axis=1) + c + r(x), sx and sy)

    def parameter_arrays(self):
        """Names and arrays of all trainable parameters, in a fixed order."""
        return {
            "weights": self.weights,
            "visible_bias": self.visible_bias,
            "hidden_bias": self.hidden_bias,
        }

    def settings(self):
        """Fixed, non-trained constructor values by name."""
        return {}

    def replace(self, **changes):
        """A model of the same variant with the named constructor values changed."""
        return type(self)(**{**self.parameter_arrays(), **self.settings(), **changes})

    def copy(self):
        """The same model with its own copy of every array."""
        return self.replace(**{k: v.copy() for k, v in self.parameter_arrays().items()})


class Rbm(LayerModel):
    """Bipartite binary model: E(x, y) = -x'Wy - b'x - c'y."""

    variant = RBM

    def _energy_rows(self, x, y):
        return -np.sum((x @ self.weights) * y, axis=1) - x @ self.visible_bias - y @ self.hidden_bias

    def _log_unnorm_visible_rows(self, x):
        return x @ self.visible_bias + softplus_log(x @ self.weights + self.hidden_bias).sum(axis=1)

    def _log_unnorm_hidden_rows(self, y):
        return y @ self.hidden_bias + softplus_log(y @ self.weights.T + self.visible_bias).sum(axis=1)

    def sample_visible(self, y, rng, x0=None):
        y, single = _rows(y, self.n_hidden, "hidden state")
        p = logistic(y @ self.weights.T + self.visible_bias)
        x = (rng.random(p.shape) < p).astype(np.float64)
        return _ret(x, single)


class Grbm(LayerModel):
    """Gaussian-visible model: E(x, y) = |x-b|^2/(2 s^2) - x'Wy/s - c'y.

    Completing the square in the energy gives the visible conditional
    q(x | y) = Normal(b + s W y, s^2 I); the text-book mean "Wy + b"
    without the scale factor is inconsistent with this energy, and the
    energy is what every estimator in this package evaluates, so the
    scaled mean is used throughout.
    """

    variant = GRBM

    def __init__(self, weights, visible_bias, hidden_bias, sigma):
        super().__init__(weights, visible_bias, hidden_bias)
        self.sigma = float(sigma)
        # every density below squares sigma as a Python float
        if not is_gaussian_scale(self.sigma):
            raise ModelError("sigma must be positive, with sigma**2 finite and nonzero")

    def _hidden_activation_rows(self, x):
        return x @ self.weights / self.sigma + self.hidden_bias

    def _energy_rows(self, x, y):
        d = x - self.visible_bias
        return (
            np.sum(d * d, axis=1) / (2.0 * self.sigma ** 2)
            - np.sum((x @ self.weights) * y, axis=1) / self.sigma
            - y @ self.hidden_bias
        )

    def _log_unnorm_visible_rows(self, x):
        d = x - self.visible_bias
        return (
            -np.sum(d * d, axis=1) / (2.0 * self.sigma ** 2)
            + softplus_log(x @ self.weights / self.sigma + self.hidden_bias).sum(axis=1)
        )

    def _log_unnorm_hidden_rows(self, y):
        # Integrating exp(-E(x, y)) over x in closed form: complete the
        # square with u = Wy,
        #   -|x-b|^2/(2 s^2) + x'u/s
        #     = -|x - (b + s u)|^2/(2 s^2) + b'u/s + |u|^2/2,
        # and the Gaussian integral contributes (2 pi s^2)^(m/2).  Hence
        #   log q*(y) = (m/2) log(2 pi s^2) + c'y + b'Wy/s + |Wy|^2/2.
        wy = y @ self.weights.T
        return (
            0.5 * self.n_visible * np.log(2.0 * np.pi * self.sigma ** 2)
            + y @ self.hidden_bias
            + wy @ self.visible_bias / self.sigma
            + 0.5 * np.sum(wy * wy, axis=1)
        )

    def sample_visible(self, y, rng, x0=None):
        y, single = _rows(y, self.n_hidden, "hidden state")
        mean = self.visible_bias + self.sigma * (y @ self.weights.T)
        x = mean + self.sigma * rng.standard_normal(mean.shape)
        return _ret(x, single)

    def settings(self):
        return {"sigma": self.sigma}


class Srbm(LayerModel):
    """Binary model with lateral visible-visible couplings.

    E(x, y) = -x'Wy - b'x - c'y - x'Lx/2 with L symmetric, zero diagonal.
    The hidden conditional stays factorial; the visible conditional does
    not, so visible sampling is done by sequential Gibbs sweeps during
    evaluation and by damped parallel mean-field during training.
    """

    variant = SRBM

    def __init__(self, weights, visible_bias, hidden_bias, lateral):
        super().__init__(weights, visible_bias, hidden_bias)
        self.lateral = np.ascontiguousarray(lateral, dtype=np.float64)
        m = self.n_visible
        if self.lateral.shape != (m, m):
            raise ModelError("lateral matrix shape does not match visible units")
        if not np.isfinite(self.lateral).all():
            raise ModelError("lateral matrix must be finite")
        if not np.array_equal(self.lateral, self.lateral.T):
            raise ModelError("lateral matrix must be symmetric")
        if np.any(np.diag(self.lateral) != 0.0):
            raise ModelError("lateral matrix must have a zero diagonal")

    def _energy_rows(self, x, y):
        return (
            -np.sum((x @ self.weights) * y, axis=1)
            - x @ self.visible_bias
            - y @ self.hidden_bias
            - 0.5 * np.sum((x @ self.lateral) * x, axis=1)
        )

    def _log_unnorm_visible_rows(self, x):
        return (
            x @ self.visible_bias
            + 0.5 * np.sum((x @ self.lateral) * x, axis=1)
            + softplus_log(x @ self.weights + self.hidden_bias).sum(axis=1)
        )

    def _log_unnorm_hidden_rows(self, y):
        raise ModelError(
            "hidden marginal of a lateral-connected model is not analytic; "
            "use brute_force_hidden_marginal_srbm or an AIS-based estimate"
        )

    def sample_visible(self, y, rng, x0=None):
        """One full sequential Gibbs sweep over the visible units.

        Needs the current visible state ``x0`` as the sweep's starting
        point; the sweep leaves q(x | y) invariant.
        """
        y, single = _rows(y, self.n_hidden, "hidden state")
        if x0 is None:
            raise ModelError("lateral-connected visible sampling needs a start state")
        x0, _ = _rows(x0, self.n_visible, "visible state")
        if x0.shape[0] != y.shape[0]:
            raise ModelError("mismatched batch sizes")
        drive = y @ self.weights.T + self.visible_bias
        u = rng.random(x0.shape)
        x = kernels.srbm_sweep(np.ascontiguousarray(x0.copy()), self.lateral, drive, u)
        return _ret(x, single)

    def mean_field_visible(self, y, steps=20, damping=0.2):
        """Damped parallel mean-field estimate of the visible conditional.

        Starts at 0.5 per unit and iterates
        mu <- (1 - damping) * g(L mu + W y + b) + damping * mu,
        where damping is the retained fraction of the old value.
        """
        if not (0.0 <= damping < 1.0):
            raise ModelError("damping must lie in [0, 1)")
        if steps < 1:
            raise ModelError("need at least one mean-field step")
        y, single = _rows(y, self.n_hidden, "hidden state")
        drive = y @ self.weights.T + self.visible_bias
        mu = np.full((y.shape[0], self.n_visible), 0.5)
        for _ in range(steps):
            mu = (1.0 - damping) * logistic(mu @ self.lateral + drive) + damping * mu
        return _ret(mu, single)

    def parameter_arrays(self):
        d = super().parameter_arrays()
        d["lateral"] = self.lateral
        return d


LAYER_CLASSES = {RBM: Rbm, GRBM: Grbm, SRBM: Srbm}


def initialize_layer(variant, n_visible, n_hidden, rng, sigma=None, weight_scale=0.01):
    """Fresh layer with small random weights, zero visible biases and
    hidden biases at -1 (a rough sparseness encouragement)."""
    w = weight_scale * rng.standard_normal((n_visible, n_hidden))
    b = np.zeros(n_visible)
    c = np.full(n_hidden, -1.0)
    if variant == RBM:
        return Rbm(w, b, c)
    if variant == GRBM:
        if sigma is None:
            raise ModelError("gaussian layer needs a sigma")
        return Grbm(w, b, c, sigma)
    if variant == SRBM:
        return Srbm(w, b, c, np.zeros((n_visible, n_visible)))
    raise ModelError(f"unknown variant {variant!r}")


def enumeration_bits(model):
    """Number of binary units k whose 2^k states exact log Z enumerates.

    Gaussian-visible models enumerate the hidden side, lateral-connected
    models the visible side, binary RBMs the smaller side (hidden on a tie).
    """
    if model.variant == GRBM:
        return model.n_hidden
    if model.variant == SRBM:
        return model.n_visible
    return min(model.n_visible, model.n_hidden)


def brute_force_log_partition(model, budget=DEFAULT_ENUM_BUDGET):
    """Exact log Z by enumerating the cheaper analytic marginal, evaluated on
    row blocks of at most ENUM_BLOCK cells of the wider side."""
    k = enumeration_bits(model)
    if model.variant != SRBM and k == model.n_hidden:
        fn = model.log_unnorm_hidden
    else:
        fn = model.log_unnorm_visible
    rows = max(1, ENUM_BLOCK // max(model.n_visible, model.n_hidden))

    def chunk_log_sum(s):
        return log_sum_exp(np.concatenate([fn(s[i : i + rows]) for i in range(0, len(s), rows)]))
    return log_sum_exp([chunk_log_sum(s) for s in state_chunks(k, budget, "partition function")])


def conditional_terms(model, y, budget=DEFAULT_ENUM_BUDGET):
    """``(a, c, r)`` with log q(x | y_j) = x . a[:, j] + c[j] + r(x) for the
    rows y_j of ``y``: ``a`` is row-major, ``r`` a function of visible rows.
    A lateral model has A(y) = Wy, r(x) = b'x + x'Lx/2 and c(y) = c'y -
    log q*(y) = -log sum_x exp(x . A(y) + r(x)), enumerated over its 2^m
    visible states within ``budget`` in blocks of at most
    max(min(budget, ENUM_BLOCK), rows of y) cells."""
    y, _ = _rows(y, model.n_hidden, "hidden state")
    if model.variant == GRBM:
        # -|x - m|^2 / 2s^2 - (n/2) log(2 pi s^2), m = b + sWy, square expanded
        var = model.sigma ** 2
        means = model.visible_bias + model.sigma * (y @ model.weights.T)
        a, c = means.T / var, -np.sum(means ** 2, axis=1) / (2.0 * var)
        r_scale, r_shift = 0.5 / var, -0.5 * model.n_visible * np.log(2.0 * np.pi * var)

        def r(x):
            return r_shift - r_scale * np.sum(x * x, axis=1)
    elif model.variant == RBM:
        # x log sigmoid(act) + (1 - x) log sigmoid(-act) = x act - softplus(act)
        act = y @ model.weights.T + model.visible_bias
        a, c = act.T, -np.sum(softplus_log(act), axis=1)

        def r(x):
            return np.zeros(x.shape[0])
    else:
        a = (y @ model.weights.T).T

        def r(x):
            return x @ model.visible_bias + 0.5 * np.sum((x @ model.lateral) * x, axis=1)
        rows = max(1, min(budget, ENUM_BLOCK) // max(len(y), 1))
        c = None
        for xs in state_chunks(model.n_visible, budget, "hidden marginal"):
            for x in (xs[lo : lo + rows] for lo in range(0, len(xs), rows)):
                piece = log_sum_exp(r(x)[:, None] + x @ a, axis=0)
                c = piece if c is None else log_sum_exp([c, piece], axis=0)
        c = -c
    # a row-major A keeps the callers' GEMMs off a transposed BLAS path
    return np.ascontiguousarray(a), c, r


def brute_force_hidden_marginal_srbm(model, y, budget=DEFAULT_ENUM_BUDGET):
    """log q*(y) = log sum_x exp(-E(x, y)) = c'y - c(y), see ``conditional_terms``."""
    if model.variant != SRBM:
        raise ModelError("visible enumeration of the hidden marginal is for "
                         "lateral-connected models; others have it analytically")
    y, single = _rows(y, model.n_hidden, "hidden state")
    return _ret(y @ model.hidden_bias - conditional_terms(model, y, budget)[1], single)
