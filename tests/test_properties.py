"""Property tests: the elementary functions and the Monte Carlo standard
error against references, layer models through their file format and
copies, and datasets through a corrupted header."""

import tempfile
from pathlib import Path

import numpy as np
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dbnkit.models import Grbm, Rbm, Srbm
from dbnkit.numerics import (
    is_gaussian_scale,
    log_mean_exp,
    log_sum_exp,
    logistic,
    monte_carlo_se,
    softplus_log,
)
from dbnkit.pipeline import DataSet, PipelineError, load_dataset, preprocess, save_dataset
from dbnkit.storage import StorageError, load_model, save_model

# no example database, so failing examples are not saved under .hypothesis/
# (hypothesis still caches source constants there, hence .gitignore); no
# deadline, since the first examples pay for imports and warm-up
PROPERTY = settings(database=None, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
shapes = st.integers(1, 4)


def _two_exp_logistic(x):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


@PROPERTY
@given(arrays(np.float64, st.integers(1, 50), elements=st.floats(allow_nan=False)))
def test_logistic_matches_two_exp_form(x):
    assert np.array_equal(logistic(x), _two_exp_logistic(x))


@PROPERTY
@given(arrays(np.float64, st.integers(1, 50), elements=finite))
def test_softplus_log_matches_logaddexp(x):
    out = softplus_log(x)
    assert not np.isnan(out).any() and (out >= 0).all()
    np.testing.assert_allclose(out, np.logaddexp(0.0, x), rtol=1e-15, atol=0)
    # exp(-40) is below half an ulp of 40, so the correction term vanishes
    big = x >= 40
    assert np.array_equal(out[big], x[big])


log_values = arrays(
    np.float64,
    st.integers(1, 30),
    elements=st.floats(-1e300, 1e300) | st.just(-np.inf),
)


@PROPERTY
@given(log_values)
def test_log_sum_exp_matches_scipy(v):
    with np.errstate(divide="ignore"):
        want = scipy.special.logsumexp(v)
    np.testing.assert_allclose(log_sum_exp(v), want, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(log_mean_exp(v), want - np.log(v.size), rtol=1e-13, atol=1e-13)


@PROPERTY
@given(arrays(np.float64, st.integers(2, 40), elements=st.floats(-30, 30)))
def test_monte_carlo_se_matches_moment_formula(lw):
    est = monte_carlo_se(lw)
    w = np.exp(lw)
    n, mean, m2 = w.size, w.mean(), np.mean(w * w)
    var = n / (n - 1) * (m2 - mean * mean)
    assert est.n_samples == n
    np.testing.assert_allclose(est.log_value, np.log(mean), rtol=1e-13, atol=1e-13)
    # both forms lose digits to the m2 - mean^2 cancellation: a few ulps of m2
    assert abs(n * (est.standard_error * mean) ** 2 - max(var, 0.0)) <= 1e-12 * m2


@st.composite
def layers(draw):
    m, n = draw(shapes), draw(shapes)
    fields = {
        "weights": draw(arrays(np.float64, (m, n), elements=finite)),
        "visible_bias": draw(arrays(np.float64, m, elements=finite)),
        "hidden_bias": draw(arrays(np.float64, n, elements=finite)),
    }
    cls = draw(st.sampled_from([Rbm, Grbm, Srbm]))
    if cls is Grbm:
        fields["sigma"] = draw(st.floats(0.0, allow_infinity=False, exclude_min=True)
                               .filter(is_gaussian_scale))
    if cls is Srbm:
        upper = np.triu(draw(arrays(np.float64, (m, m), elements=finite)), 1)
        fields["lateral"] = upper + upper.T
    return cls(**fields)


@PROPERTY
@given(layers())
def test_model_file_round_trip_is_bit_exact(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layer.dbk"
        save_model(model, path)
        loaded = load_model(path)
    assert type(loaded) is type(model)
    assert loaded.settings() == model.settings()
    got = loaded.parameter_arrays()
    assert list(got) == list(model.parameter_arrays())
    for name, arr in model.parameter_arrays().items():
        assert got[name].tobytes() == arr.tobytes()


@PROPERTY
@given(layers())
def test_copy_shares_no_array(model):
    twin = model.copy()
    assert type(twin) is type(model)
    assert twin.settings() == model.settings()
    for name, arr in model.parameter_arrays().items():
        assert np.array_equal(twin.parameter_arrays()[name], arr)
        assert not np.shares_memory(twin.parameter_arrays()[name], arr)


def _dataset_file():
    """A small preprocessed dataset, whose provenance holds arrays, as bytes."""
    rng = np.random.default_rng(9)
    raw = DataSet(np.exp(rng.standard_normal((30, 4))), [{"kind": "patches", "n": 30}])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.dbds"
        save_dataset(preprocess(raw), path)
        return path.read_bytes()


DATASET = _dataset_file()
HEADER_END = 8 + int.from_bytes(DATASET[4:8], "little")


@settings(PROPERTY, max_examples=300)
@given(st.integers(0, HEADER_END - 1), st.integers(1, 255))
def test_corrupt_dataset_header_is_a_named_error(pos, flip):
    # one changed byte in the magic, the header length or the JSON header
    blob = bytearray(DATASET)
    blob[pos] ^= flip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.dbds"
        path.write_bytes(bytes(blob))
        try:
            load_dataset(path)
        except (StorageError, PipelineError):
            pass
