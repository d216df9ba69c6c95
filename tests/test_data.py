import gzip
import hashlib
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mpsl import data
from mpsl.data import (
    Dataset,
    IdxFormatError,
    PerturbationSpec,
    load_idx,
    perturb_dataset,
    synthetic_blobs,
)
from mpsl.numerics import make_rng


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=0):
    n, rows, cols = pixels.shape
    img_path = tmp_path / "img-idx3-ubyte"
    lab_path = tmp_path / "lab-idx1-ubyte"
    blob = struct.pack(">IIII", image_magic, n, rows, cols) + pixels.astype(np.uint8).tobytes()
    if truncate_images:
        blob = blob[:-truncate_images]
    img_path.write_bytes(blob)
    lab_path.write_bytes(struct.pack(">II", label_magic, len(labels))
                         + np.asarray(labels, dtype=np.uint8).tobytes())
    return img_path, lab_path


def test_load_idx_round_trip(tmp_path):
    rng = make_rng(1)
    pixels = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
    labels = [0, 1, 2, 3, 9]
    img, lab = write_idx_pair(tmp_path, pixels, labels)
    ds = load_idx(img, lab)
    assert len(ds) == 5 and ds.width == 3 and ds.height == 4
    npt.assert_allclose(ds.images, pixels.reshape(5, 12) / 255.0, rtol=0, atol=0)
    npt.assert_array_equal(ds.labels, labels)


def test_load_idx_full_intensity_scales_to_one(tmp_path):
    pixels = np.full((1, 2, 2), 255, dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [3])
    ds = load_idx(img, lab)
    npt.assert_array_equal(ds.images, np.ones((1, 4)))


def test_load_idx_rejects_wrong_magic(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [0, 1], image_magic=0x807)
    with pytest.raises(IdxFormatError, match="not an IDX file"):
        load_idx(img, lab)
    img, lab = write_idx_pair(tmp_path, pixels, [0, 1], label_magic=0x802)
    with pytest.raises(IdxFormatError, match="not an IDX file"):
        load_idx(img, lab)


def test_load_idx_rejects_a_header_larger_than_the_file(tmp_path):
    # (2^32 - 1)(2^16 - 1)^2 bytes: more than a read length can even index
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [0, 1])
    img.write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0xFFFF, 0xFFFF) + pixels.tobytes())
    with pytest.raises(IdxFormatError, match="short read") as err:
        load_idx(img, lab)
    assert str(img) in str(err.value)


def test_load_idx_rejects_count_mismatch(tmp_path):
    pixels = np.zeros((3, 2, 2), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [0, 1])
    with pytest.raises(IdxFormatError, match="corrupt pair"):
        load_idx(img, lab)


def test_load_idx_rejects_label_outside_the_classes(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [3, 10])
    with pytest.raises(IdxFormatError, match=f"{lab}.*label 10"):
        load_idx(img, lab)


def test_load_idx_rejects_truncated_payload(tmp_path):
    pixels = np.zeros((3, 2, 2), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [0, 1, 2], truncate_images=5)
    with pytest.raises(IdxFormatError, match="short read"):
        load_idx(img, lab)


def test_load_idx_transparent_gzip(tmp_path):
    rng = make_rng(2)
    pixels = rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [1, 2, 3, 4])
    gz = img.with_name(img.name + ".gz")
    gz.write_bytes(gzip.compress(img.read_bytes()))
    img.unlink()
    ds = load_idx(img, lab)  # falls back to the .gz sibling
    assert len(ds) == 4


def test_blobs_two_class_means_and_separability():
    ds = synthetic_blobs(make_rng(3), n_per_class=200, classes=2, dim=4, sigma=0.05)
    assert len(ds) == 400
    # class patterns sit at the 0.2 / 0.8 levels on complementary blocks
    mean0 = ds.images[ds.labels == 0].mean(axis=0)
    mean1 = ds.images[ds.labels == 1].mean(axis=0)
    npt.assert_allclose(mean0, [0.8, 0.8, 0.2, 0.2], atol=0.02)
    npt.assert_allclose(mean1, [0.2, 0.2, 0.8, 0.8], atol=0.02)
    # nearest-class-mean classification is essentially perfect at sigma=0.05
    centers = np.stack([[0.8, 0.8, 0.2, 0.2], [0.2, 0.2, 0.8, 0.8]])
    predicted = np.argmin(
        ((ds.images[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1
    )
    assert (predicted == ds.labels).mean() == 1.0


def test_blobs_determinism_and_balance():
    a = synthetic_blobs(make_rng(4), 25, 10, 16)
    b = synthetic_blobs(make_rng(4), 25, 10, 16)
    npt.assert_array_equal(a.images, b.images)
    npt.assert_array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=10)
    npt.assert_array_equal(counts, np.full(10, 25))


def test_blobs_rejects_single_class():
    with pytest.raises(ValueError):
        synthetic_blobs(make_rng(0), 5, 1, 4)


def flat_split(images, width, height):
    """A split of the given flat images, all labelled class 0."""
    return Dataset(images, np.zeros(len(images), dtype=np.int64), width, height, 10)


def test_gaussian_zero_sigma_is_identity():
    x = make_rng(5).uniform(size=(3, 16))
    for level in (0.0, -0.0):  # -0.0 is the zero level, not a negative sigma
        out = perturb_dataset(flat_split(x, 4, 4), PerturbationSpec("gaussian", level), seed=6)
        npt.assert_array_equal(out.images, x)


def test_gaussian_clamps_to_unit_interval():
    x = np.full((3, 16), 0.5)
    out = perturb_dataset(flat_split(x, 4, 4), PerturbationSpec("gaussian", 5.0), seed=7)
    assert out.images.min() >= 0.0 and out.images.max() <= 1.0


def test_salt_pepper_full_corruption():
    x = make_rng(8).uniform(0.2, 0.8, size=(3, 16))
    out = perturb_dataset(flat_split(x, 4, 4), PerturbationSpec("salt-pepper", 1.0), seed=9)
    assert set(np.unique(out.images)) <= {0.0, 1.0}


def test_salt_pepper_exact_corruption_count():
    x = np.full((5, 100), 0.5)
    for seed, level in enumerate((0.05, 0.13, 0.25)):
        out = perturb_dataset(flat_split(x, 10, 10), PerturbationSpec("salt-pepper", level), seed)
        # corrupted pixels may land on 0 or 1 only; count distinct touched cells
        changed = (out.images != 0.5).sum(axis=1)
        npt.assert_array_equal(changed, int(np.floor(level * 100)))


def test_center_crop_identity_and_border_zeroing():
    x = make_rng(11).uniform(0.1, 0.9, size=(1, 16))
    out = perturb_dataset(flat_split(x, 4, 4), PerturbationSpec("center-crop", 4), seed=0)
    npt.assert_array_equal(out.images, x)
    out2 = perturb_dataset(flat_split(x, 4, 4), PerturbationSpec("center-crop", 2), seed=0)
    img = out2.images.reshape(4, 4)
    npt.assert_array_equal(img[1:3, 1:3], x.reshape(4, 4)[1:3, 1:3])
    border = img.copy()
    border[1:3, 1:3] = 0.0
    npt.assert_array_equal(border, np.zeros((4, 4)))


def test_center_crop_is_seed_free_and_equals_the_per_image_crop():
    """On 1,024 items, square and not: the bulk crop equals a crop made one
    image at a time from the definition, whatever the seed."""
    for width, height, side in ((28, 28, 16), (7, 5, 3)):
        ds = flat_split(make_rng(13).uniform(size=(1024, width * height)), width, height)
        spec = PerturbationSpec("center-crop", side)
        out = perturb_dataset(ds, spec, seed=1).images
        assert out.tobytes() == perturb_dataset(ds, spec, seed=2).images.tobytes()
        r0, c0 = (height - side) // 2, (width - side) // 2
        for i in range(len(ds)):
            expected = np.zeros((height, width))
            for r in range(r0, r0 + side):
                expected[r, c0 : c0 + side] = ds.images[i, r * width + c0 : r * width + c0 + side]
            assert out[i].tobytes() == expected.tobytes()


def test_perturb_dataset_bytes_are_pinned():
    """SHA-256 of the corrupted images at a fixed seed and level, one per kind:
    a rewrite that shifts any item's random stream changes these."""
    rng = make_rng(21)
    ds = Dataset(rng.uniform(size=(64, 30)), rng.integers(0, 10, size=64), 6, 5, 10)
    pins = {
        ("gaussian", 0.3): "e8ee532b67d40c63f1058ed8769d6533694bc5c42bd771efaa6087fc7f1cfd5f",
        ("salt-pepper", 0.15): "8bfbbeac16f98c69e439f5a6df046d83b5d833d6805920538ac2536c7321b97f",
        ("center-crop", 3): "229716850f357c58abd1bdc7517977ad69592e33e9464c2489bee31375839ff7",
    }
    for (kind, level), digest in pins.items():
        out = perturb_dataset(ds, PerturbationSpec(kind, level), seed=5)
        assert hashlib.sha256(out.images.tobytes()).hexdigest() == digest, kind


NOISE_LEVELS = (("gaussian", 0.3), ("salt-pepper", 0.15))


def three_block_split():
    """300 28x28 items with pixels away from 0 and 1, so that every pixel
    salt-pepper sets shows as changed."""
    assert 2 * data.PERTURB_BLOCK_ROWS < 300 < 3 * data.PERTURB_BLOCK_ROWS
    return flat_split(make_rng(31).uniform(0.05, 0.95, size=(300, 784)), 28, 28)


def test_each_item_depends_only_on_the_seed_and_its_index():
    """Perturbing the first n items gives the first n rows of perturbing the
    whole split, inside the first block (37) and across its edge (200)."""
    ds = three_block_split()
    assert 37 < data.PERTURB_BLOCK_ROWS < 200
    for kind, level in NOISE_LEVELS:
        spec = PerturbationSpec(kind, level)
        whole = perturb_dataset(ds, spec, seed=17).images
        for n in (37, 200):
            head = flat_split(ds.images[:n], 28, 28)
            assert perturb_dataset(head, spec, seed=17).images.tobytes() == whole[:n].tobytes(), (
                kind, n)


def test_perturbed_bytes_do_not_depend_on_the_block_size(monkeypatch):
    ds = three_block_split()
    specs = [PerturbationSpec(kind, level) for kind, level in NOISE_LEVELS]
    expected = [perturb_dataset(ds, spec, seed=17).images.tobytes() for spec in specs]
    for rows in (1, 7, 300):
        monkeypatch.setattr(data, "PERTURB_BLOCK_ROWS", rows)
        assert [perturb_dataset(ds, spec, seed=17).images.tobytes() for spec in specs] == expected, (
            rows)


def test_salt_pepper_corrupts_exactly_k_pixels_in_every_row_of_every_block():
    ds = three_block_split()
    for level in (0.15, 1.0):
        out = perturb_dataset(ds, PerturbationSpec("salt-pepper", level), seed=23).images
        npt.assert_array_equal((out != ds.images).sum(axis=1), int(np.floor(level * 784)))
        assert set(np.unique(out[out != ds.images])) <= {0.0, 1.0}


def test_noise_keeps_every_pixel_in_the_unit_interval():
    ds = three_block_split()
    for kind, level in NOISE_LEVELS + (("gaussian", 2.0),):
        out = perturb_dataset(ds, PerturbationSpec(kind, level), seed=29).images
        assert out.min() >= 0.0 and out.max() <= 1.0, (kind, level)


def test_perturb_dataset_peak_memory_is_bounded_by_its_output():
    """One call on a test-split-sized input peaks at no more than 1.5x the
    bytes it returns: the draws are held one block at a time."""
    ds = flat_split(make_rng(37).uniform(size=(1024, 784)), 28, 28)
    for kind in ("gaussian", "salt-pepper"):
        tracemalloc.start()
        try:
            out = perturb_dataset(ds, PerturbationSpec(kind, 0.2), seed=41)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.images.nbytes, (kind, peak, out.images.nbytes)


def test_center_crop_larger_than_image_is_fatal():
    with pytest.raises(ValueError):
        perturb_dataset(flat_split(np.zeros((1, 16)), 4, 4), PerturbationSpec("center-crop", 5), 0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        perturb_dataset(flat_split(np.zeros((1, 16)), 4, 4), PerturbationSpec("poisson", 0.1), 0)


def test_non_finite_levels_rejected_naming_kind_and_level():
    for kind in ("gaussian", "salt-pepper", "center-crop"):
        for level in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{kind} level must be finite, got {level}"):
                PerturbationSpec(kind, level).validate(28, 28)


def test_perturb_dataset_reproducible_and_bounded():
    ds = synthetic_blobs(make_rng(12), 10, 4, 16)
    spec = PerturbationSpec("salt-pepper", 0.25)
    a = perturb_dataset(ds, spec, seed=99)
    b = perturb_dataset(ds, spec, seed=99)
    npt.assert_array_equal(a.images, b.images)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    c = perturb_dataset(ds, spec, seed=100)
    assert not np.array_equal(a.images, c.images)
