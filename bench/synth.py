"""Seeded MNIST-shaped input: 28x28 uint8 images, labels 0-9, as IDX files.

Every class has one stroke template. Train and test are drawn from the same
templates, so a network trained on one generalises to the other. Each image
is its class template, shifted by up to two pixels, with pixels dropped,
scaled in brightness and overlaid by a fainter copy of another class's
template. The overlay keeps the task from saturating within a few steps.

The class templates come from a fixed seed, like the fixed digit shapes of
MNIST; the caller's seed draws the images. So every seed poses the same task
on different samples, and quality figures compare across seeds.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
CLASSES = 10
MAX_SHIFT = 2
STROKES = 3
STROKE_STEPS = 8
KEEP = 0.85
DISTRACTOR = (0.35, 0.75)
TEMPLATE_SEED = 20250818

TRAIN_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")
TEST_FILES = ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _template(rng: np.random.Generator) -> np.ndarray:
    """A few thick random-walk strokes inside the central 18x18 box."""
    img = np.zeros((SIDE, SIDE))
    lo, hi = 5, SIDE - 5
    for _ in range(STROKES):
        pos = rng.uniform(lo + 3, hi - 3, size=2)
        heading = rng.uniform(0, 2 * np.pi)
        for _ in range(STROKE_STEPS):
            heading += rng.normal(scale=0.5)
            pos = np.clip(pos + np.array([np.cos(heading), np.sin(heading)]), lo, hi - 1)
            r, c = int(pos[0]), int(pos[1])
            img[r : r + 2, c : c + 2] = 1.0
    # a soft one-pixel halo, like the anti-aliased edge of a pen stroke
    halo = np.zeros_like(img)
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        halo = np.maximum(halo, np.roll(img, (dr, dc), axis=(0, 1)))
    return np.maximum(img, 0.4 * halo)


def _shifted(templates: np.ndarray) -> np.ndarray:
    """[classes, shifts, 784]: every template at every shift in the window."""
    shifts = range(-MAX_SHIFT, MAX_SHIFT + 1)
    out = [
        [np.roll(t, (dr, dc), axis=(0, 1)).ravel() for dr in shifts for dc in shifts]
        for t in templates
    ]
    return np.asarray(out)


def make_split(rng: np.random.Generator, shifted: np.ndarray,
               n: int) -> tuple[np.ndarray, np.ndarray]:
    """n images (uint8 [n, 784]) and labels (uint8 [n]) with balanced classes."""
    n_shifts = shifted.shape[1]
    labels = rng.permutation(np.arange(n) % CLASSES)
    other = (labels + rng.integers(1, CLASSES, size=n)) % CLASSES
    main = shifted[labels, rng.integers(0, n_shifts, size=n)]
    faint = shifted[other, rng.integers(0, n_shifts, size=n)]
    gain = rng.uniform(0.7, 1.0, size=(n, 1))
    weight = rng.uniform(*DISTRACTOR, size=(n, 1))
    keep = rng.random(main.shape) < KEEP
    img = np.clip(np.maximum(gain * main * keep, weight * faint), 0.0, 1.0)
    return np.round(img * 255).astype(np.uint8), labels.astype(np.uint8)


def write_idx_images(path: Path, images: np.ndarray) -> None:
    header = struct.pack(">IIII", 0x00000803, len(images), SIDE, SIDE)
    path.write_bytes(header + images.tobytes())


def write_idx_labels(path: Path, labels: np.ndarray) -> None:
    path.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes())


def write_dataset(out_dir: Path, seed: int, n_train: int, n_test: int) -> None:
    """Write the train and t10k IDX pairs that mpsl's mnist loader expects."""
    template_rng = np.random.Generator(np.random.PCG64(TEMPLATE_SEED))
    shifted = _shifted(np.stack([_template(template_rng) for _ in range(CLASSES)]))
    rng = np.random.Generator(np.random.PCG64(seed))
    for files, n in ((TRAIN_FILES, n_train), (TEST_FILES, n_test)):
        images, labels = make_split(rng, shifted, n)
        write_idx_images(out_dir / files[0], images)
        write_idx_labels(out_dir / files[1], labels)
