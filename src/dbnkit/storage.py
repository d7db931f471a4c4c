"""Self-describing binary containers for models and datasets.

Layout: 4-byte magic, uint32 little-endian header length, canonical JSON
header, then the raw little-endian float64 payload of each array in header
order.  Writing the same content always produces the same bytes, so
fixed-seed runs can be compared file-wise.
"""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .models import LAYER_CLASSES

MAGIC = b"DBNK"
FORMAT_VERSION = 1


class StorageError(ValueError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_container(path, kind, meta, arrays):
    """Write named float64 arrays with a JSON header; order is preserved.
    Each payload is written from the array's own memory (a little-endian
    contiguous one is not copied)."""
    arrays = {name: np.ascontiguousarray(arr, dtype="<f8") for name, arr in arrays.items()}
    entries = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()]
    header = canonical_json(
        {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "meta": meta,
            "arrays": entries,
        }
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for arr in arrays.values():
            fh.write(memoryview(arr))


def _read_exact(fh, n, path, what):
    # checked against the file size first, so a corrupt length cannot ask
    # for more memory than the file holds
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise StorageError(f"{path} is truncated: its {what} is short")
    return fh.read(n)


def _is_shape(shape):
    return isinstance(shape, list) and all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
    )


def _check_header(header, path):
    """Raise StorageError unless ``header`` has the fields read_container uses."""
    if not isinstance(header, dict) or header.get("format_version") != FORMAT_VERSION:
        raise StorageError(f"unsupported format version in {path}")
    entries = header.get("arrays")
    if not (
        isinstance(header.get("kind"), str)
        and isinstance(header.get("meta"), dict)
        and isinstance(entries, list)
        and all(
            isinstance(e, dict) and isinstance(e.get("name"), str) and _is_shape(e.get("shape"))
            for e in entries
        )
    ):
        raise StorageError(f"{path} has a malformed header")


def read_container(path, expect_kind=None):
    path = Path(path)
    if not path.is_file():
        raise StorageError(f"no such file: {path}")
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise StorageError(f"{path} is not a dbnkit container")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, path, "header length"))
        blob = _read_exact(fh, hlen, path, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON
            raise StorageError(f"{path} has an unreadable header: {exc}") from exc
        _check_header(header, path)
        if expect_kind is not None and header["kind"] != expect_kind:
            raise StorageError(
                f"{path} holds a {header['kind']!r} container, expected {expect_kind!r}"
            )
        arrays = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            blob = _read_exact(fh, count * 8, path, f"array {entry['name']!r}")
            arrays[entry["name"]] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
    return header["kind"], header["meta"], arrays


def write_model(path, kind, model, **extra):
    """Write a model as a ``kind`` container: its variant, ``extra`` fields and
    settings in the header, its parameter arrays in their order."""
    meta = {"variant": model.variant, **extra, **model.settings()}
    write_container(path, kind, meta, model.parameter_arrays())


def read_model(path, kind, classes, ignore=()):
    """Rebuild a model written by ``write_model`` from ``classes``, its variant
    table; header fields named in ``ignore`` are dropped.

    A constructor's refusal becomes a StorageError, so a damaged file is a
    data error whatever field it damages.
    """
    _, meta, arrays = read_container(path, expect_kind=kind)
    variant = meta.get("variant")
    if not isinstance(variant, str) or variant not in classes:
        raise StorageError(f"unknown variant {variant!r} in {path}")
    settings = {k: v for k, v in meta.items() if k != "variant" and k not in ignore}
    try:
        return classes[variant](**arrays, **settings)
    except (TypeError, ValueError) as exc:  # a missing, extra or invalid field
        what = kind.removesuffix("_model")
        raise StorageError(f"{path} does not hold a {variant} {what}: {exc}") from exc


def save_model(model, path):
    """Serialize a layer model; round-trips bit-exactly."""
    write_model(path, "layer_model", model, n_visible=model.n_visible, n_hidden=model.n_hidden)


def load_model(path):
    return read_model(path, "layer_model", LAYER_CLASSES, ignore=("n_visible", "n_hidden"))
