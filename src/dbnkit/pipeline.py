"""Data ingestion and preprocessing: patch sampling from grayscale images,
the log / center / DC-removal / whitening chain with replayable provenance,
and synthetic generators with attached ground-truth densities."""

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .models import Grbm, Rbm, binary_states, brute_force_log_partition
from .numerics import MAX_CELLS, RngStream, first_nonfinite_row, is_gaussian_scale, log_sum_exp
from .storage import StorageError, read_container, write_container
from .training import RUNAWAY
from . import baselines

logger = logging.getLogger(__name__)

PATCH_BLOCK = 4096  # patches drawn and gathered at a time: temporaries stay O(block)
# the arrays each synthetic kind draws, by the synthetic_spec keys of their axes
SYNTHETIC_SHAPES = {
    "isotropic_mixture": ("components", "dim"),
    "full_cov_mixture": ("components", "dim", "dim"),
    "grbm": ("dim", "n_hidden"),
    "rbm": ("dim", "n_hidden"),
}


class PipelineError(ValueError):
    pass


def _check_rows(n, width, key="n"):
    """Refuse ``n`` rows of ``width`` values past MAX_CELLS before any is drawn."""
    if n * width > MAX_CELLS:
        raise PipelineError(f"{key} = {n} rows of {width} values exceed the "
                            f"{MAX_CELLS} values a dataset may hold")


@dataclass
class DataSet:
    """Sample matrix plus the ordered, replayable transform provenance.

    Provenance entries are dicts with a "kind" key and whatever fitted
    parameters the transform needs to be applied again to new data.
    ``true_log_density`` is attached by the synthetic generators and never
    serialized.
    """

    samples: np.ndarray
    provenance: list = field(default_factory=list)
    true_log_density: object = None

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.shape[0] == 0:
            raise PipelineError("dataset has no rows")
        if first_nonfinite_row(self.samples) is not None:
            raise PipelineError("dataset contains non-finite values")

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def dim(self):
        return self.samples.shape[1]


@dataclass
class PatchSource:
    """Grayscale images to draw square patches from.

    A patch has at least 2 x 2 pixels: one pixel is all DC component,
    which ``preprocess`` projects out.
    """

    images: tuple
    patch_size: int
    seed: int = 0

    def __post_init__(self):
        self.images = tuple(np.asarray(img, dtype=np.float64) for img in self.images)
        if self.patch_size < 2:
            raise PipelineError("patch_size must be at least 2")
        if not self.images:
            raise PipelineError("need at least one image")
        for img in self.images:
            if img.ndim != 2:
                raise PipelineError("images must be 2-D grayscale arrays")
            if min(img.shape) < self.patch_size:
                raise PipelineError("patch does not fit inside an image")


@dataclass(frozen=True)
class PreprocessSpec:
    """``dbnkit preprocess``'s settings, and so the [preprocess] config keys:
    ``pairs`` train/test pairs of ``n_train`` and ``n_test`` rows, drawn by the
    synthetic generator or as ``patch_size`` patches of the bank at ``images``."""

    source: str = "synthetic"
    images: str = None
    patch_size: int = 4
    pairs: int = 10
    n_train: int = 50000
    n_test: int = 50000

    def __post_init__(self):
        if self.source not in ("synthetic", "images"):
            raise PipelineError(f"unknown source {self.source!r}; expected synthetic or images")
        if self.source == "images" and self.images is None:
            raise PipelineError("source = images needs an 'images' path")
        if min(self.pairs, self.n_train, self.n_test) < 1:
            raise PipelineError("pairs, n_train and n_test must be at least 1")

    def check_rows(self, synthetic):
        """Refuse ``n_train`` or ``n_test`` rows past MAX_CELLS values, by key.
        A row is a patch, or a draw of the ``synthetic_spec`` ``synthetic``."""
        width = self.patch_size ** 2 if self.source == "images" else _synthetic_dim(synthetic)
        for key in ("n_train", "n_test"):
            _check_rows(getattr(self, key), width, key)


def sample_patches(source, n, rng=None):
    """n patches at uniform random positions, flattened row-major.

    Positions are drawn in one pass: every image index, then each block's
    corners, a row and a column draw per patch in turn, so a seeded dataset
    has the same bytes at any PATCH_BLOCK."""
    if rng is None:
        rng = np.random.default_rng(source.seed)
    s, k = source.patch_size, len(source.images)
    _check_rows(n, s * s)
    out = np.empty((n, s * s))
    img_idx = rng.integers(k, size=n).astype(np.min_scalar_type(k - 1))  # narrow: radix-sorted
    free = np.array([img.shape for img in source.images]) - s + 1  # corners per axis
    windows = [sliding_window_view(img, (s, s)) for img in source.images]
    for start in range(0, n, PATCH_BLOCK):
        idx = img_idx[start : start + PATCH_BLOCK]
        r, c = rng.integers(np.take(free, idx, axis=0)).T
        order = np.argsort(idx, kind="stable")  # each image's rows, in row order
        for rows in np.split(order, np.flatnonzero(np.diff(idx[order])) + 1):
            out[start + rows] = windows[idx[rows[0]]][r[rows], c[rows]].reshape(len(rows), -1)
    return DataSet(out, [{"kind": "patches", "patch_size": s, "n": n}])


def _dc_basis(d):
    """Fixed orthonormal basis of the complement of the constant vector.

    Columns 2..D of the Householder reflection that swaps e_1 with the
    unit constant vector: deterministic and orthonormal by construction.
    """
    u = np.full(d, 1.0 / np.sqrt(d))
    v = u - np.eye(d)[0]
    h = np.eye(d) - 2.0 * np.outer(v, v) / (v @ v)
    return h[:, 1:]


def _apply(entry, data):
    kind = entry["kind"]
    if kind == "patches":
        return data
    if kind == "log":
        if np.any(data <= 0):
            raise PipelineError("log transform needs positive intensities")
        return np.log(data)
    if kind == "center":
        return data - entry["mean"]
    if kind == "dc_project":
        return data @ entry["basis"]
    if kind == "whiten":
        return data @ entry["matrix"]
    raise PipelineError(f"unknown transform {kind!r}")


def preprocess(raw):
    """Log-transform, center, project out the DC component, and whiten.

    The DC direction (the constant vector) is removed by expressing each
    point in a fixed orthonormal basis of its complement, dropping one
    dimension; the remaining coordinates are whitened symmetrically so
    their covariance is the identity on the fitting set.  Every fitted
    parameter lands in the provenance, and replaying the provenance on
    the fitting set reproduces the output bit-exactly.
    """
    data = raw.samples
    if np.any(data <= 0):
        raise PipelineError("log transform needs positive intensities")
    steps = [{"kind": "log"}]
    data = np.log(data)

    mean = data.mean(axis=0)
    steps.append({"kind": "center", "mean": mean})
    data -= mean  # in place: one n x d temporary fewer at the step's peak

    basis = _dc_basis(data.shape[1])
    steps.append({"kind": "dc_project", "basis": basis})
    data = data @ basis

    cov = data.T @ data / data.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() <= 0 or eigvals.min() / eigvals.max() < 1e-12:
        raise PipelineError("covariance is rank deficient; cannot whiten")
    logger.info("whitening condition number %.3e", eigvals.max() / eigvals.min())
    matrix = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    matrix = 0.5 * (matrix + matrix.T)  # exactly symmetric
    steps.append({"kind": "whiten", "matrix": matrix})
    data = data @ matrix

    return DataSet(data, list(raw.provenance) + steps)


def replay(provenance, data):
    """Apply already-fitted transforms to new data, refitting nothing."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    for entry in provenance:
        data = _apply(entry, data)
    return DataSet(data, list(provenance))


def synthetic_spec(seed, kind="isotropic_mixture", dim=6, components=3, sigma=0.5,
                   spread=1.0, n_hidden=6, weight_scale=0.5):
    """A ground-truth density for ``synthesize``, drawn from stream 17 of ``seed``.

    "isotropic_mixture" has ``components`` means of scale ``spread`` and a
    shared ``sigma``; "full_cov_mixture" has zero-mean components with
    random covariances of scale ``spread``; "grbm" and "rbm" are layers
    with ``n_hidden`` hidden units and weights of scale ``weight_scale``
    (and ``sigma`` for the gaussian one).  A kind whose arrays
    (``SYNTHETIC_SHAPES``) would hold more than MAX_CELLS values is refused
    before any draw.
    """
    if kind not in SYNTHETIC_SHAPES:
        raise PipelineError(f"unknown synthetic kind {kind!r}")
    if min(dim, components, n_hidden) < 1:
        raise PipelineError("dim, components and n_hidden must be at least 1")
    axes = SYNTHETIC_SHAPES[kind]
    sizes = {"dim": dim, "components": components, "n_hidden": n_hidden}
    if math.prod(sizes[axis] for axis in axes) > MAX_CELLS:
        raise PipelineError(
            f"{kind} draws {' x '.join(axes)} = {' x '.join(str(sizes[a]) for a in axes)} "
            f"values, more than the {MAX_CELLS} one array may hold")
    if not is_gaussian_scale(sigma):
        raise PipelineError("sigma must be positive, with sigma**2 finite and nonzero")
    if not (0 <= spread < math.inf):
        raise PipelineError("spread must be finite and nonnegative")
    # the bound training puts on a layer's parameters
    if not (0 <= weight_scale <= RUNAWAY):
        raise PipelineError(f"weight_scale must lie in [0, {RUNAWAY:g}]")
    rng = RngStream(seed, 17).generator()
    weights = np.full(components, 1.0 / components)
    # a scale so large that the draws overflow is refused below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "isotropic_mixture":
            spec = {"kind": kind, "means": spread * rng.standard_normal((components, dim)),
                    "sigma": sigma, "weights": weights}
        elif kind == "full_cov_mixture":
            covs = []
            for _ in range(components):
                a = rng.standard_normal((dim, dim))
                covs.append(spread * (a @ a.T) / dim + 0.05 * np.eye(dim))
            spec = {"kind": kind, "covariances": np.array(covs), "weights": weights}
        else:
            w = weight_scale * rng.standard_normal((dim, n_hidden))
            b = 0.3 * rng.standard_normal(dim)
            c = 0.3 * rng.standard_normal(n_hidden)
            model = Grbm(w, b, c, sigma) if kind == "grbm" else Rbm(w, b, c)
            return {"kind": kind, "model": model}
    if not all(np.isfinite(v).all() for v in spec.values() if isinstance(v, np.ndarray)):
        raise PipelineError("spread is so large that the mixture overflows")
    return spec


def _synthetic_dim(spec):
    """The number of components of a draw from the ``synthetic_spec`` ``spec``."""
    if "model" in spec:
        return spec["model"].n_visible
    return np.shape(spec["means"] if "means" in spec else spec["covariances"])[-1]


def synthesize(spec, n, rng):
    """IID draws from a named ground-truth density, evaluator attached.

    Supported kinds: "isotropic_mixture" (means, sigma, weights),
    "full_cov_mixture" (covariances, weights),
    "grbm" and "rbm" (exact sampling of a small model by enumeration).
    These two enumerate log Z under models.DEFAULT_ENUM_BUDGET and the
    states they draw from under ``binary_states``' default budget, not
    under [estimator] enum_budget.
    """
    kind = spec.get("kind")
    if kind not in SYNTHETIC_SHAPES:
        raise PipelineError(f"unknown generator spec {kind!r}")
    _check_rows(n, _synthetic_dim(spec))
    if kind == "isotropic_mixture":
        model = baselines.MoigModel(spec["means"], spec["sigma"], spec["weights"])
        comp = rng.choice(model.n_components, size=n, p=model.weights)
        samples = model.means[comp] + model.sigma * rng.standard_normal(
            (n, model.dim)
        )
        return DataSet(samples, [{"kind": kind}], model.log_density)
    if kind == "full_cov_mixture":
        model = baselines.MogModel(spec["covariances"], spec["weights"])
        chols = np.array([np.linalg.cholesky(c) for c in model.covariances])
        comp = rng.choice(model.n_components, size=n, p=model.weights)
        noise = rng.standard_normal((n, model.dim))
        samples = np.einsum("nij,nj->ni", chols[comp], noise)
        return DataSet(samples, [{"kind": kind}], model.log_density)
    if kind == "grbm":
        model = spec["model"]
        if not isinstance(model, Grbm):
            raise PipelineError("grbm generator needs a gaussian layer model")
        log_z = brute_force_log_partition(model)
        hs = binary_states(model.n_hidden)
        logp = model.log_unnorm_hidden(hs) - log_z
        comp = rng.choice(len(hs), size=n, p=np.exp(logp - log_sum_exp(logp)))
        samples = model.sample_visible(hs[comp], rng)
        return DataSet(
            samples, [{"kind": kind}], lambda x: model.log_unnorm_visible(x) - log_z
        )
    if kind == "rbm":
        model = spec["model"]
        if not isinstance(model, Rbm):
            raise PipelineError("rbm generator needs a binary layer model")
        log_z = brute_force_log_partition(model)
        vs = binary_states(model.n_visible)
        logp = model.log_unnorm_visible(vs) - log_z
        comp = rng.choice(len(vs), size=n, p=np.exp(logp - log_sum_exp(logp)))
        samples = vs[comp]
        return DataSet(
            samples, [{"kind": kind}], lambda x: model.log_unnorm_visible(x) - log_z
        )


def save_dataset(dataset, path):
    """Header (N, D, provenance JSON) plus row-major float64 payload."""
    arrays = {"samples": dataset.samples}
    meta_prov = []
    for i, entry in enumerate(dataset.provenance):
        stored = {}
        for key, value in entry.items():
            if isinstance(value, np.ndarray):
                name = f"prov{i}_{key}"
                arrays[name] = value
                stored[key] = {"__array__": name}
            else:
                stored[key] = value
        meta_prov.append(stored)
    meta = {
        "n": int(dataset.n_samples),
        "d": int(dataset.dim),
        "provenance": meta_prov,
    }
    write_container(path, "dataset", meta, arrays)


def load_dataset(path):
    _, meta, arrays = read_container(path, expect_kind="dataset")
    try:
        provenance = []
        for entry in meta["provenance"]:
            restored = {}
            for key, value in entry.items():
                if isinstance(value, dict) and "__array__" in value:
                    restored[key] = arrays[value["__array__"]]
                else:
                    restored[key] = value
            provenance.append(restored)
        samples = arrays["samples"]
    except KeyError as exc:
        raise StorageError(f"{path} is not a complete dataset: it has no {exc}") from exc
    try:
        return DataSet(samples, provenance)
    except PipelineError as exc:
        raise PipelineError(f"{path}: {exc}") from exc


def save_images(images, path):
    """A grayscale image bank: one (count, height, width) float64 array in an
    ``image_bank`` container."""
    images = [np.asarray(img, dtype=np.float64) for img in images]
    if not images:
        raise PipelineError("nothing to save")
    if images[0].ndim != 2 or any(img.shape != images[0].shape for img in images):
        raise PipelineError("all images in one bank must share one 2-D shape")
    write_container(path, "image_bank", {}, {"images": np.stack(images)})


def load_images(path):
    try:
        _, _, arrays = read_container(path, expect_kind="image_bank")
    except StorageError as exc:
        raise PipelineError(f"cannot read image bank: {exc}") from exc
    bank = arrays.get("images")
    if bank is None or bank.ndim != 3 or len(bank) == 0:
        raise PipelineError(f"{path} holds no stack of 2-D images")
    return list(bank)
