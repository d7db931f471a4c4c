import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from dbnkit.models import Grbm, Rbm
from dbnkit import pipeline
from dbnkit.numerics import RngStream
from dbnkit.pipeline import (
    MAX_CELLS,
    DataSet,
    PatchSource,
    PipelineError,
    PreprocessSpec,
    load_dataset,
    load_images,
    preprocess,
    replay,
    sample_patches,
    save_dataset,
    save_images,
    synthesize,
    synthetic_spec,
)
from dbnkit.storage import write_container


def test_patchsource_validation():
    with pytest.raises(PipelineError):
        PatchSource((), 4)
    with pytest.raises(PipelineError):
        PatchSource((np.ones((2, 2)),), 4)


def test_patches_constant_image():
    source = PatchSource((np.full((8, 8), 3.0),), 2)
    ds = sample_patches(source, 20, RngStream(130).generator())
    assert ds.samples.shape == (20, 4)
    assert np.all(ds.samples == 3.0)


@pytest.mark.parametrize("size", [1, 0, -2])
def test_patch_below_two_pixels_is_rejected(size):
    # one pixel is all DC component, which preprocess projects out
    with pytest.raises(PipelineError, match="patch_size"):
        PatchSource((np.ones((8, 8)),), size)


def test_patches_shape():
    rng = RngStream(131).generator()
    source = PatchSource((np.abs(rng.standard_normal((32, 32))) + 0.1,), 4)
    ds = sample_patches(source, 1000, rng)
    assert ds.samples.shape == (1000, 16)


def test_patches_uniform_coverage():
    rng = RngStream(132).generator()
    # 2 x 2 patches of a 7 x 7 image have 6 x 6 positions, each named by
    # its top-left pixel
    img = np.arange(49, dtype=float).reshape(7, 7) + 1.0
    source = PatchSource((img,), 2)
    n = 10 ** 5
    ds = sample_patches(source, n, rng)
    counts = np.array([(ds.samples[:, 0] == v).sum() for v in img[:6, :6].ravel()])
    assert counts.sum() == n
    chi2 = ((counts - n / 36) ** 2 / (n / 36)).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=35)


def _loop_patches(source, n, rng):
    """The per-patch loop sample_patches replaced: an image index per row
    first, then a row and a column draw for each patch in turn."""
    s = source.patch_size
    out = np.empty((n, s * s))
    img_idx = rng.integers(len(source.images), size=n)
    for i in range(n):
        img = source.images[img_idx[i]]
        r = int(rng.integers(img.shape[0] - s + 1))
        c = int(rng.integers(img.shape[1] - s + 1))
        out[i] = img[r : r + s, c : c + s].ravel()
    return out


@pytest.mark.parametrize("seed", range(40))
def test_patches_equal_the_per_patch_loop_bit_for_bit(seed, monkeypatch):
    bank = np.random.default_rng(seed)
    s = int(bank.integers(2, 6))
    # mixed shapes, the first image of every third bank exactly one patch high
    images = [bank.random((int(bank.integers(s, s + 12)), int(bank.integers(s, s + 12)))) + 0.1
              for _ in range(int(bank.integers(1, 7)))]
    if seed % 3 == 0:
        images[0] = images[0][:s]
    source = PatchSource(tuple(images), s)
    n = int(bank.integers(1, 400))
    if seed % 2:
        monkeypatch.setattr(pipeline, "PATCH_BLOCK", int(bank.integers(1, 50)))
    for make in (lambda: RngStream(seed).substream(22, 0, 1),
                 lambda: RngStream(seed).substream(22, 1, 0),
                 lambda: np.random.default_rng(seed)):
        rng, ref_rng = make(), make()
        ds = sample_patches(source, n, rng)
        assert np.array_equal(ds.samples, _loop_patches(source, n, ref_rng))
        # and the generator is left where the loop leaves it
        assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)


class _CountingGenerator:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def test_patches_draw_positions_in_one_pass():
    rng = RngStream(145).generator()
    source = PatchSource(tuple(rng.random((12, 9 + k)) + 0.1 for k in range(3)), 3)
    counting = _CountingGenerator(RngStream(146).generator())
    sample_patches(source, 1000, counting)
    assert counting.calls <= 2  # the per-patch loop makes 2001
    looped = _CountingGenerator(RngStream(146).generator())
    _loop_patches(source, 1000, looped)
    assert looped.calls == 2001


def test_patch_sampling_memory_stays_near_the_output():
    rng = RngStream(147).generator()
    source = PatchSource(tuple(rng.random((96, 96)) + 0.5 for _ in range(8)), 8)
    n, rng = 50000, RngStream(148).generator()
    tracemalloc.start()
    try:
        ds = sample_patches(source, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.samples.nbytes == n * 64 * 8
    assert peak <= 1.2 * ds.samples.nbytes


def test_sizes_past_max_cells_are_refused_before_drawing():
    source = PatchSource((np.ones((8, 8)),), 4)
    with pytest.raises(PipelineError, match="n = 10000000000000 rows of 16 values"):
        sample_patches(source, 10 ** 13, RngStream(149).generator())
    spec = synthetic_spec(0, dim=5)
    with pytest.raises(PipelineError, match="rows of 5 values"):
        synthesize(spec, 10 ** 13, RngStream(149).generator())
    # exactly MAX_CELLS values is still a size one may ask for
    PreprocessSpec(n_train=MAX_CELLS // 5).check_rows(spec)
    with pytest.raises(PipelineError, match="n_test"):
        PreprocessSpec(n_test=MAX_CELLS // 5 + 1).check_rows(spec)
    with pytest.raises(PipelineError, match="n_train = 4194305 rows of 256 values"):
        PreprocessSpec("images", "bank.dbni", 16, n_train=MAX_CELLS // 256 + 1).check_rows(None)


def test_building_a_dataset_checks_it_without_an_n_by_d_temporary():
    samples = RngStream(151).generator().standard_normal((50000, 64))
    tracemalloc.start()
    try:
        dataset = DataSet(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.samples is samples
    # one whole-array isfinite is an n x d bool array, 13% of the samples
    assert peak < 0.05 * samples.nbytes


def test_saving_a_dataset_writes_the_samples_without_a_copy(tmp_path):
    samples = RngStream(150).generator().standard_normal((20000, 15))
    dataset = DataSet(samples)
    tracemalloc.start()
    try:
        save_dataset(dataset, tmp_path / "x.dbds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * samples.nbytes
    # the payload is the samples' little-endian bytes, after the header
    data = (tmp_path / "x.dbds").read_bytes()
    assert data.endswith(samples.astype("<f8").tobytes())
    assert np.array_equal(load_dataset(tmp_path / "x.dbds").samples, samples)


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


def test_synthesize_full_cov_mixture_density_matches_scipy():
    spec = synthetic_spec(7, kind="full_cov_mixture", dim=5, components=3, spread=2.0)
    ds = synthesize(spec, 200, RngStream(144).generator())
    ref = logsumexp(
        [stats.multivariate_normal(np.zeros(5), cov).logpdf(ds.samples) + np.log(w)
         for cov, w in zip(spec["covariances"], spec["weights"])],
        axis=0,
    )
    np.testing.assert_allclose(ds.true_log_density(ds.samples), ref, rtol=0, atol=1e-11)


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


def test_load_images_refuses_a_container_without_a_bank(tmp_path):
    path = tmp_path / "bank.dbni"
    save_dataset(DataSet(np.ones((3, 2))), path)
    with pytest.raises(PipelineError, match="image_bank"):
        load_images(path)
    write_container(path, "image_bank", {}, {"images": np.ones((4, 5))})
    with pytest.raises(PipelineError, match="no stack of 2-D images"):
        load_images(path)


def test_whitening_matrix_is_symmetric():
    rng = RngStream(143).generator()
    out = preprocess(DataSet(np.exp(0.4 * rng.standard_normal((500, 9)))))
    matrix = next(e["matrix"] for e in out.provenance if e["kind"] == "whiten")
    assert np.array_equal(matrix, matrix.T)


@pytest.mark.parametrize(
    "kwargs",
    [{"kind": "uniform"}, {"spread": float("nan")}, {"spread": -1.0}, {"sigma": float("inf")},
     {"dim": 0}, {"kind": "grbm", "weight_scale": float("nan")}],
    ids=["unknown-kind", "spread-nan", "spread-negative", "sigma-inf", "dim-0",
         "grbm-scale-nan"],
)
def test_synthetic_spec_rejects(kwargs):
    with pytest.raises(ValueError):
        synthetic_spec(0, **kwargs)


def test_synthetic_spec_is_seeded():
    a, b = synthetic_spec(4), synthetic_spec(4)
    assert np.array_equal(a["means"], b["means"])
    assert not np.array_equal(a["means"], synthetic_spec(5)["means"])
