import numpy as np
import pytest
from scipy import stats

from dbnkit.models import Grbm, Rbm
from dbnkit.numerics import RngStream
from dbnkit.pipeline import (
    DataSet,
    PatchSource,
    PipelineError,
    load_dataset,
    load_images,
    preprocess,
    replay,
    sample_patches,
    save_dataset,
    save_images,
    synthesize,
)


def test_patchsource_validation():
    with pytest.raises(PipelineError):
        PatchSource((), 4)
    with pytest.raises(PipelineError):
        PatchSource((np.ones((2, 2)),), 4)


def test_patches_constant_image():
    source = PatchSource((np.full((8, 8), 3.0),), 1)
    ds = sample_patches(source, 20, RngStream(130).generator())
    assert ds.samples.shape == (20, 1)
    assert np.all(ds.samples == 3.0)


def test_patches_shape():
    rng = RngStream(131).generator()
    source = PatchSource((np.abs(rng.standard_normal((32, 32))) + 0.1,), 4)
    ds = sample_patches(source, 1000, rng)
    assert ds.samples.shape == (1000, 16)


def test_patches_uniform_coverage():
    rng = RngStream(132).generator()
    img = np.arange(36, dtype=float).reshape(6, 6) + 1.0
    source = PatchSource((img,), 1)
    n = 10 ** 5
    ds = sample_patches(source, n, rng)
    counts = np.array([(ds.samples[:, 0] == v).sum() for v in img.ravel()])
    chi2 = ((counts - n / 36) ** 2 / (n / 36)).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=35)


def test_preprocess_requires_positive_intensities():
    with pytest.raises(PipelineError, match="positive"):
        preprocess(DataSet(np.zeros((10, 4))))


def test_constant_patch_maps_to_zero():
    rng = RngStream(134).generator()
    raw = DataSet(np.exp(0.5 * rng.standard_normal((500, 9))))
    out = preprocess(raw)
    mean = next(e["mean"] for e in out.provenance if e["kind"] == "center")
    # a patch sitting at the fitted mean plus a pure DC shift
    probe = np.exp(mean + 2.5)[None, :]
    mapped = replay(out.provenance, probe)
    assert np.abs(mapped.samples).max() < 1e-9


def test_replay_is_bit_exact_and_does_not_refit():
    rng = RngStream(135).generator()
    raw = DataSet(np.exp(0.3 * rng.standard_normal((800, 9))))
    out = preprocess(raw)
    again = replay(out.provenance, raw.samples)
    assert np.array_equal(again.samples, out.samples)
    assert again.provenance == out.provenance  # same fitted objects, no refit


def test_dc_reconstruction_up_to_constant():
    rng = RngStream(136).generator()
    raw = DataSet(np.exp(0.3 * rng.standard_normal((600, 9))))
    out = preprocess(raw)
    prov = {e["kind"]: e for e in out.provenance}
    basis = prov["dc_project"]["basis"]
    white = prov["whiten"]["matrix"]
    mean = prov["center"]["mean"]
    rebuilt = out.samples @ np.linalg.inv(white) @ basis.T + mean
    residual = np.log(raw.samples) - rebuilt
    # what is lost must be exactly the dc direction
    dc = np.full(9, 1.0 / 3.0)
    coeffs = residual @ dc / (dc @ dc)
    assert np.abs(residual - coeffs[:, None] * dc).max() < 1e-9


def test_synthesize_single_component_mixture():
    rng = RngStream(137).generator()
    spec = {
        "kind": "isotropic_mixture",
        "means": np.array([[1.0, -1.0]]),
        "sigma": 0.5,
        "weights": np.array([1.0]),
    }
    ds = synthesize(spec, 50000, rng)
    assert np.abs(ds.samples.mean(axis=0) - [1.0, -1.0]).max() < 0.02
    assert abs(ds.samples.std(axis=0).mean() - 0.5) < 0.01
    x = np.zeros((1, 2))
    expected = stats.multivariate_normal([1.0, -1.0], 0.25 * np.eye(2)).logpdf(x)
    assert ds.true_log_density(x)[0] == pytest.approx(float(expected), abs=1e-10)


def test_synthesize_rbm_zero_weights_bernoulli_columns():
    rng = RngStream(138).generator()
    b = np.array([0.9, -0.4, 0.0])
    model = Rbm(np.zeros((3, 2)), b, np.zeros(2))
    ds = synthesize({"kind": "rbm", "model": model}, 50000, rng)
    rate = 1 / (1 + np.exp(-b))
    se = np.sqrt(rate * (1 - rate) / 50000)
    assert np.all(np.abs(ds.samples.mean(axis=0) - rate) < 3 * se + 1e-9)


def test_synthesize_grbm_matches_density_on_grid():
    rng = RngStream(139).generator()
    model = Grbm(
        0.7 * rng.standard_normal((2, 3)),
        0.2 * rng.standard_normal(2),
        0.3 * rng.standard_normal(3),
        0.6,
    )
    n = 200000
    ds = synthesize({"kind": "grbm", "model": model}, n, rng)
    edges = np.linspace(-4, 4, 9)
    hist, _, _ = np.histogram2d(ds.samples[:, 0], ds.samples[:, 1], bins=(edges, edges))
    # integrate the density over each cell with a sub-grid (midpoints are
    # too coarse at this sigma)
    sub = 12
    step = edges[1] - edges[0]
    fine = edges[0] + step * (np.arange(8 * sub) + 0.5) / sub
    xx, yy = np.meshgrid(fine, fine, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    dens = np.exp(ds.true_log_density(pts)).reshape(8 * sub, 8 * sub)
    probs = dens.reshape(8, sub, 8, sub).mean(axis=(1, 3)).ravel() * step ** 2
    freq = hist.ravel() / n
    se = np.sqrt(probs * (1 - probs) / n)
    inside = probs > 1e-4
    assert np.all(np.abs(freq - probs)[inside] < 4 * se[inside] + 0.002)


def test_synthesize_unknown_kind():
    with pytest.raises(PipelineError):
        synthesize({"kind": "nope"}, 10, RngStream(140).generator())


def test_dataset_roundtrip_bit_exact(tmp_path):
    rng = RngStream(141).generator()
    raw = DataSet(np.exp(0.3 * rng.standard_normal((300, 9))))
    out = preprocess(raw)
    path = tmp_path / "d.dbds"
    save_dataset(out, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.samples, out.samples)
    assert [e["kind"] for e in loaded.provenance] == [e["kind"] for e in out.provenance]
    # replay from the loaded provenance reproduces the same bytes
    again = replay(loaded.provenance, raw.samples)
    assert np.array_equal(again.samples, out.samples)
    save_dataset(out, tmp_path / "e.dbds")
    assert (tmp_path / "d.dbds").read_bytes() == (tmp_path / "e.dbds").read_bytes()


def test_image_bank_roundtrip(tmp_path):
    rng = RngStream(142).generator()
    images = [np.abs(rng.standard_normal((10, 12))) + 0.5 for _ in range(3)]
    path = tmp_path / "bank.dbni"
    save_images(images, path)
    loaded = load_images(path)
    assert len(loaded) == 3
    for a, b in zip(images, loaded):
        assert np.array_equal(a, b)


def test_load_images_missing_file(tmp_path):
    with pytest.raises(PipelineError):
        load_images(tmp_path / "nope.dbni")


def test_whitening_matrix_is_symmetric():
    rng = RngStream(143).generator()
    out = preprocess(DataSet(np.exp(0.4 * rng.standard_normal((500, 9)))))
    matrix = next(e["matrix"] for e in out.provenance if e["kind"] == "whiten")
    assert np.array_equal(matrix, matrix.T)
