"""Dataset ingestion (IDX files), a synthetic fallback task, and the
evaluation-time input corruptions.

Perturbations are applied at evaluation time only; training data always
passes through untouched.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

PERTURBATION_KINDS = ("gaussian", "salt-pepper", "center-crop")


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

    def validate(self, width: int, height: int) -> None:
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
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


def _open_maybe_gzip(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    if not path.exists() and path.with_name(path.name + ".gz").exists():
        return gzip.open(path.with_name(path.name + ".gz"), "rb")
    return open(path, "rb")


def _read_exact(f, n: int, path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IdxFormatError(f"short read in {path}: wanted {n} bytes, got {len(data)}")
    return data


def load_idx_images(path) -> tuple[np.ndarray, int, int]:
    path = Path(path)
    with _open_maybe_gzip(path) as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, path))
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(f"{path} is not an IDX file (image magic {magic:#010x})")
        payload = _read_exact(f, count * rows * cols, path)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    return pixels.astype(np.float64) / 255.0, rows, cols


def load_idx_labels(path) -> np.ndarray:
    path = Path(path)
    with _open_maybe_gzip(path) as f:
        magic, count = struct.unpack(">II", _read_exact(f, 8, path))
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(f"{path} is not an IDX file (label magic {magic:#010x})")
        payload = _read_exact(f, count, path)
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path) -> Dataset:
    """MNIST-style pair of big-endian IDX files; pixels scaled to [0, 1]."""
    images, rows, cols = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise IdxFormatError(
            f"corrupt pair: {len(images)} images vs {len(labels)} labels"
        )
    ds = Dataset(images=images, labels=labels, width=cols, height=rows, num_classes=10)
    ds.validate()
    return ds


def synthetic_blobs(
    rng: np.random.Generator,
    n_per_class: int,
    classes: int,
    dim: int,
    sigma: float = 0.05,
    mean_low: float = 0.2,
    mean_high: float = 0.8,
) -> Dataset:
    """Gaussian blobs around class-dependent mean patterns, clamped to [0, 1].

    Class c's mean vector is mean_high on its own block of ~dim/classes
    dimensions and mean_low elsewhere, so every class carries the same total
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
        mean = np.full(dim, mean_low)
        mean[edges[c] : edges[c + 1]] = mean_high
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


def perturb(
    x: np.ndarray, spec: PerturbationSpec, rng: np.random.Generator,
    width: int, height: int,
) -> np.ndarray:
    """Corrupt one flat width*height image; the result stays in [0, 1]."""
    spec.validate(width, height)
    if x.shape != (width * height,):
        raise ValueError(f"expected a flat {width}x{height} image, got shape {x.shape}")
    if spec.kind == "gaussian":
        return np.clip(x + rng.normal(scale=spec.level, size=x.shape), 0.0, 1.0)
    if spec.kind == "salt-pepper":
        n_corrupt = int(np.floor(spec.level * width * height))
        out = x.copy()
        if n_corrupt:
            idx = rng.choice(x.size, size=n_corrupt, replace=False)
            out[idx] = rng.integers(0, 2, size=n_corrupt).astype(np.float64)
        return out
    # center-crop: zero the border, keep the centered patch in place so the
    # input dimensionality is unchanged
    side = int(spec.level)
    out = np.zeros_like(x)
    img = x.reshape(height, width)
    r0 = (height - side) // 2
    c0 = (width - side) // 2
    view = out.reshape(height, width)
    view[r0 : r0 + side, c0 : c0 + side] = img[r0 : r0 + side, c0 : c0 + side]
    return out


def perturb_dataset(ds: Dataset, spec: PerturbationSpec, seed: int) -> Dataset:
    """Corrupt every sample with a per-sample derived seed (reproducible
    and order-independent)."""
    rng_seq = np.random.SeedSequence(seed)
    children = rng_seq.spawn(len(ds))
    images = np.empty_like(ds.images)
    for i in range(len(ds)):
        rng = np.random.Generator(np.random.PCG64(children[i]))
        images[i] = perturb(ds.images[i], spec, rng, ds.width, ds.height)
    return Dataset(images, ds.labels.copy(), ds.width, ds.height, ds.num_classes)
