"""Dataset ingestion (IDX files), a synthetic fallback task, and the
evaluation-time input corruptions.

Perturbations are applied at evaluation time only; training data always
passes through untouched. The random ones read two streams per seed row by
row, so item i's corruption depends only on (seed, i).
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

PERTURBATION_KINDS = ("gaussian", "salt-pepper", "center-crop")
PERTURB_BLOCK_ROWS = 128  # items drawn at a time; bounds the draws' memory, not their values
BLOB_LOW, BLOB_HIGH = 0.2, 0.8  # synthetic_blobs' mean pixel off and on its class block


class IdxFormatError(ValueError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # [n x (width*height)], float64 in [0, 1]
    labels: np.ndarray  # [n], int64 class indices
    width: int
    height: int
    num_classes: int

    def __len__(self) -> int:
        return len(self.labels)

    def validate(self) -> None:
        if len(self.images) != len(self.labels):
            raise ValueError("image/label count mismatch")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("pixels must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must be < num_classes")


@dataclass
class PerturbationSpec:
    """kind 'gaussian' (level = noise sigma in pixel units),
    'salt-pepper' (level = corrupted-pixel fraction in [0, 1]) or
    'center-crop' (level = retained patch side length in pixels)."""

    kind: str
    level: float

    def __post_init__(self) -> None:
        self.level = float(self.level) + 0.0  # -0.0 becomes the zero level 0.0

    def validate(self, width: int, height: int) -> None:
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if not math.isfinite(self.level):
            raise ValueError(f"{self.kind} level must be finite, got {self.level}")
        if self.kind == "gaussian" and self.level < 0:
            raise ValueError("gaussian sigma must be >= 0")
        if self.kind == "salt-pepper" and not 0.0 <= self.level <= 1.0:
            raise ValueError("salt-pepper fraction must be in [0, 1]")
        if self.kind == "center-crop":
            side = int(self.level)
            if side != self.level or not 1 <= side <= min(width, height):
                raise ValueError(
                    f"crop side must be an integer in [1, {min(width, height)}], got {self.level}"
                )


def _read_idx(path, magic: int, ndim: int) -> tuple[np.ndarray, list[int]]:
    """The uint8 payload and the ndim dimensions of an IDX file, or of its
    .gz sibling, read whole. The payload is checked against the bytes the
    file holds, so a corrupt header's size is never used as a read length."""
    path = Path(path)
    found = [f for f in (path, path.with_name(path.name + ".gz")) if f.exists()]
    if not found:
        raise IdxFormatError(f"IDX file not found: {path}")
    try:
        data = found[0].read_bytes()
        if found[0].suffix == ".gz":
            data = gzip.decompress(data)
    except (EOFError, gzip.BadGzipFile, zlib.error) as err:  # a corrupt stream
        raise IdxFormatError(f"corrupt gzip file {found[0]}: {err}") from err
    except OSError as err:  # a directory, or a failing read
        raise IdxFormatError(f"cannot read IDX file {found[0]}: {err.strerror}") from err
    header = 4 * (ndim + 1)
    if len(data) < header:
        raise IdxFormatError(f"short read in {path}: wanted {header} bytes, got {len(data)}")
    kind, *dims = struct.unpack_from(f">{ndim + 1}I", data)
    if kind != magic:
        raise IdxFormatError(f"{path} is not an IDX file (magic {kind:#010x}, not {magic:#010x})")
    n = math.prod(dims)
    if len(data) - header < n:
        raise IdxFormatError(f"short read in {path}: the header declares {n} bytes, "
                             f"the file holds {len(data) - header}")
    return np.frombuffer(data, dtype=np.uint8, count=n, offset=header), dims


def load_idx_images(path) -> tuple[np.ndarray, int, int]:
    pixels, (count, rows, cols) = _read_idx(path, IDX_IMAGE_MAGIC, 3)
    return pixels.reshape(count, rows * cols) / 255.0, rows, cols  # float64, in one pass


def load_idx_labels(path) -> np.ndarray:
    return _read_idx(path, IDX_LABEL_MAGIC, 1)[0].astype(np.int64)


def load_idx(images_path, labels_path) -> Dataset:
    """MNIST-style pair of big-endian IDX files; pixels scaled to [0, 1]."""
    images, rows, cols = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise IdxFormatError(
            f"corrupt pair: {len(images)} images vs {len(labels)} labels"
        )
    if not len(labels):
        raise IdxFormatError(f"empty split: {images_path} holds no images")
    # uint8 / 255 pixels lie in [0, 1]; the labels are what can be out of range
    if labels.max() >= 10:
        raise IdxFormatError(f"{labels_path} holds label {labels.max()}, not a class 0-9")
    return Dataset(images=images, labels=labels, width=cols, height=rows, num_classes=10)


def synthetic_blobs(
    rng: np.random.Generator,
    n_per_class: int,
    classes: int,
    dim: int,
    sigma: float = 0.05,
) -> Dataset:
    """Gaussian blobs around class-dependent mean patterns, clamped to [0, 1].

    Class c's mean vector is BLOB_HIGH on its own block of ~dim/classes
    dimensions and BLOB_LOW elsewhere, so every class carries the same total
    input mass and classes differ by which dimensions are hot (a count
    readout separates patterns far more reliably than intensity levels).
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if dim < classes:
        raise ValueError(f"need dim >= classes, got dim={dim} classes={classes}")
    edges = np.linspace(0, dim, classes + 1).astype(int)
    images = np.empty((classes * n_per_class, dim))
    labels = np.empty(classes * n_per_class, dtype=np.int64)
    for c in range(classes):
        mean = np.full(dim, BLOB_LOW)
        mean[edges[c] : edges[c + 1]] = BLOB_HIGH
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        images[block] = mean + rng.normal(scale=sigma, size=(n_per_class, dim))
        labels[block] = c
    np.clip(images, 0.0, 1.0, out=images)
    side = int(round(np.sqrt(dim)))
    if side * side == dim:
        width, height = side, side
    else:
        width, height = dim, 1
    ds = Dataset(images=images, labels=labels, width=width, height=height, num_classes=classes)
    ds.validate()
    return ds


def perturb_dataset(ds: Dataset, spec: PerturbationSpec, seed: int) -> Dataset:
    """Corrupt every image of a split; the pixels stay in [0, 1].

    Gaussian and salt-pepper read the two streams of SeedSequence(seed).spawn(2)
    row by row, PERTURB_BLOCK_ROWS items at a time, so item i's corruption
    depends only on (seed, i) and no generator is built per item. Gaussian adds
    sigma times the first stream's normals and clips; salt-pepper sets each
    row's floor(level*pixels) lowest first-stream keys to 0 or 1 from the
    second. Center-crop draws nothing: it ignores the seed and crops the whole
    split in one assignment.
    """
    spec.validate(ds.width, ds.height)
    n_pixels = ds.width * ds.height
    if ds.images.shape[1:] != (n_pixels,):
        raise ValueError(
            f"expected flat {ds.width}x{ds.height} images, got shape {ds.images.shape}"
        )
    if spec.kind == "center-crop":
        # zero the border, keep the centered patch in place so the input
        # dimensionality is unchanged
        side = int(spec.level)
        r0 = (ds.height - side) // 2
        c0 = (ds.width - side) // 2
        patch = (slice(None), slice(r0, r0 + side), slice(c0, c0 + side))
        images = np.zeros((len(ds), ds.height, ds.width), dtype=ds.images.dtype)
        images[patch] = ds.images.reshape(images.shape)[patch]
        images = images.reshape(len(ds), n_pixels)
    else:
        images = ds.images.copy()
        first, second = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        k = int(np.floor(spec.level * n_pixels))
        draws = np.empty((min(len(ds), PERTURB_BLOCK_ROWS), n_pixels))
        for start in range(0, len(ds), PERTURB_BLOCK_ROWS):
            block = images[start : start + PERTURB_BLOCK_ROWS]
            drawn = draws[: len(block)]
            if spec.kind == "gaussian":
                first.standard_normal(out=drawn)
                drawn *= spec.level
                block += drawn
                np.clip(block, 0.0, 1.0, out=block)
            elif k:
                first.random(out=drawn)
                picked = np.argpartition(drawn, k - 1, axis=1)[:, :k]
                np.put_along_axis(block, picked, second.integers(0, 2, size=picked.shape), axis=1)
    return Dataset(images, ds.labels.copy(), ds.width, ds.height, ds.num_classes)
