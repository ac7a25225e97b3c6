"""Dataset generation and IDX container round trips."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathscope as ps
from pathscope import data
from pathscope.errors import ArgumentError, FormatError

from conftest import traced_peak


def write_raw_idx(images_path, labels_path, pixels: np.ndarray, labels: np.ndarray):
    n, h, w = pixels.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, h, w))
        f.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.astype(np.uint8).tobytes())


def test_load_idx_exact_pixels(tmp_path):
    pixels = np.array([[[0, 1], [128, 255]], [[255, 0], [1, 128]]], dtype=np.uint8)
    labels = np.array([3, 7], dtype=np.uint8)
    write_raw_idx(tmp_path / "im", tmp_path / "lb", pixels, labels)
    ds = ps.load_idx(tmp_path / "im", tmp_path / "lb")
    assert ds.images.shape == (2, 1, 2, 2)
    np.testing.assert_array_equal(
        ds.images[0, 0], np.array([[0, 1 / 255], [128 / 255, 1.0]], dtype=np.float32))
    np.testing.assert_array_equal(ds.labels, [3, 7])


def test_load_idx_wrong_magic(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    labels = np.zeros(1, dtype=np.uint8)
    write_raw_idx(tmp_path / "im", tmp_path / "lb", pixels, labels)
    # labels file carrying the images magic must be rejected
    with open(tmp_path / "lb2", "wb") as f:
        f.write(struct.pack(">II", 0x00000803, 1))
        f.write(labels.tobytes())
    with pytest.raises(FormatError):
        ps.load_idx(tmp_path / "im", tmp_path / "lb2")
    with pytest.raises(FormatError):
        ps.load_idx(tmp_path / "lb", tmp_path / "lb")


def test_load_idx_truncated(tmp_path):
    with open(tmp_path / "im", "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 60000, 28, 28))
        f.write(b"\x00" * 100)
    write_raw_idx(tmp_path / "im2", tmp_path / "lb", np.zeros((1, 2, 2), np.uint8),
                  np.zeros(1, np.uint8))
    with pytest.raises(FormatError):
        ps.load_idx(tmp_path / "im", tmp_path / "lb")


@pytest.mark.parametrize("name, extra", [("im", 7), ("lb", 2)])
def test_load_idx_rejects_trailing_bytes(tmp_path, name, extra):
    write_raw_idx(tmp_path / "im", tmp_path / "lb", np.zeros((2, 2, 2), np.uint8),
                  np.zeros(2, np.uint8))
    with open(tmp_path / name, "ab") as f:
        f.write(b"\xff" * extra)
    with pytest.raises(FormatError, match=f"{extra} trailing bytes"):
        ps.load_idx(tmp_path / "im", tmp_path / "lb")


def test_load_idx_count_mismatch(tmp_path):
    write_raw_idx(tmp_path / "im", tmp_path / "lb", np.zeros((2, 2, 2), np.uint8),
                  np.zeros(2, np.uint8))
    write_raw_idx(tmp_path / "im3", tmp_path / "lb3", np.zeros((3, 2, 2), np.uint8),
                  np.zeros(3, np.uint8))
    with pytest.raises(FormatError):
        ps.load_idx(tmp_path / "im", tmp_path / "lb3")


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5, dtype=np.uint8)
    write_raw_idx(tmp_path / "im", tmp_path / "lb", pixels, labels)
    ds = ps.load_idx(tmp_path / "im", tmp_path / "lb")
    ps.write_idx(ds, tmp_path / "im2", tmp_path / "lb2")
    assert (tmp_path / "im").read_bytes() == (tmp_path / "im2").read_bytes()
    assert (tmp_path / "lb").read_bytes() == (tmp_path / "lb2").read_bytes()


B = data._IDX_BLOCK


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_write_idx_quantizes_by_blocks_as_one_whole_array_would(tmp_path, n, dtype):
    rng = np.random.default_rng(n)
    images = rng.random((n, 1, 5, 4)).astype(dtype)
    flat = images.reshape(-1)
    special = np.concatenate([(np.arange(256) + 0.5) / 255,  # rounding ties
                              [-0.0, -1e-7, np.nextafter(0, -1), 1 + 1e-7,
                               np.nextafter(1, 2), 1.0, 0.0]]).astype(dtype)
    flat[:special.size] = special[:flat.size]
    labels = rng.integers(0, 10, n)
    ps.write_idx(ps.Dataset(images, labels, 10), tmp_path / "im", tmp_path / "lb")
    want = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    assert (tmp_path / "im").read_bytes() == struct.pack(">IIII", 0x803, n, 5, 4) + want.tobytes()
    assert (tmp_path / "lb").read_bytes() == (struct.pack(">II", 0x801, n)
                                              + labels.astype(np.uint8).tobytes())


def test_write_idx_holds_the_pixels_and_one_block(tmp_path):
    # No float temporary the size of the dataset and no bytes copy of the
    # pixels: the peak is the uint8 pixels plus one block's float buffer.
    ds = ps.synthetic_digits(2000, seed=1)
    _, peak = traced_peak(lambda: ps.write_idx(ds, tmp_path / "im", tmp_path / "lb"))
    assert peak < len(ds) * 28 * 28 + 2**20


def test_write_idx_rejects_a_label_past_a_byte(tmp_path):
    images = np.zeros((2, 1, 2, 2), dtype=np.float32)
    ps.write_idx(ps.Dataset(images, np.array([3, 255]), 256), tmp_path / "im", tmp_path / "lb")
    np.testing.assert_array_equal(ps.load_idx(tmp_path / "im", tmp_path / "lb").labels, [3, 255])
    with pytest.raises(ArgumentError, match="label 300"):
        ps.write_idx(ps.Dataset(images, np.array([3, 300]), 301),
                     tmp_path / "im2", tmp_path / "lb2")
    assert not (tmp_path / "im2").exists() and not (tmp_path / "lb2").exists()


def test_blobs_deterministic_and_bounded():
    a = ps.synthetic_blobs(30, classes=3, seed=5)
    b = ps.synthetic_blobs(30, classes=3, seed=5)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0


def test_blob_centroids_separated():
    ds = ps.synthetic_blobs(60, classes=2, image_hw=28, seed=1)
    grid = np.mgrid[0:28, 0:28]

    def centroid(img):
        core = img * (img > 0.5)  # suppress background noise
        mass = core.sum()
        return np.array([(grid[0] * core).sum() / mass, (grid[1] * core).sum() / mass])

    c0 = np.mean([centroid(ds.images[i, 0]) for i in range(60) if ds.labels[i] == 0], axis=0)
    c1 = np.mean([centroid(ds.images[i, 0]) for i in range(60) if ds.labels[i] == 1], axis=0)
    assert np.linalg.norm(c0 - c1) >= 28 / 4


def test_blobs_nearest_centroid_separable():
    train = ps.synthetic_blobs(100, classes=4, seed=2)
    test = ps.synthetic_blobs(100, classes=4, seed=3)
    centroids = np.stack([train.images[train.labels == c].mean(axis=0).reshape(-1)
                          for c in range(4)])
    flat = test.images.reshape(len(test), -1)
    preds = np.argmin(((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
    assert (preds == test.labels).mean() >= 0.9


def test_digits_deterministic_and_bounded():
    a = ps.synthetic_digits(50, seed=4)
    b = ps.synthetic_digits(50, seed=4)
    np.testing.assert_array_equal(a.images, b.images)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    assert a.num_classes == 10
    assert set(np.unique(a.labels)) <= set(range(10))


@pytest.mark.parametrize("scale_range", [(float("nan"), 1.0), (0.8, float("inf")),
                                         (0.0, 1.0), (-0.5, 1.0), (1.0, 0.8), (0.8, 3.0)])
def test_digits_reject_bad_scale_range(scale_range):
    with pytest.raises(ArgumentError, match="scale"):
        ps.synthetic_digits(4, seed=0, scale_range=scale_range)


def test_digits_reject_bad_small_range_only_when_used():
    ps.synthetic_digits(4, seed=0, small_range=(1.0, 0.5))
    with pytest.raises(ArgumentError, match="scale"):
        ps.synthetic_digits(4, seed=0, small_fraction=0.5, small_range=(1.0, 0.5))


@pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
def test_digits_reject_small_fraction_outside_unit_interval(fraction):
    with pytest.raises(ArgumentError, match="small fraction"):
        ps.synthetic_digits(4, seed=0, small_fraction=fraction)


def test_digits_small_fraction_bounds_are_allowed():
    for fraction in (0.0, 1.0):
        assert len(ps.synthetic_digits(4, seed=0, small_fraction=fraction)) == 4


def test_digit_box_may_fill_but_not_exceed_the_image():
    # scale 1.4 draws a 28x17 box: it fits 28x28 exactly, but not 27x27
    ds = ps.synthetic_digits(20, seed=0, scale_range=(1.4, 1.4))
    assert ds.images.shape == (20, 1, 28, 28)
    with pytest.raises(ArgumentError, match="larger than the 27x27 image"):
        ps.synthetic_digits(20, seed=0, image_hw=27, scale_range=(1.4, 1.4))
    # the smallest box is 6x4, whatever the scale
    with pytest.raises(ArgumentError, match="larger than"):
        ps.synthetic_digits(4, seed=0, image_hw=5, scale_range=(0.1, 0.1))


def test_digits_classes_distinguishable_by_shape():
    from pathscope.data import _digit_mask

    masks = [_digit_mask(d, 20, 12) for d in range(10)]
    for a in range(10):
        for b in range(a + 1, 10):
            assert not np.array_equal(masks[a], masks[b]), (a, b)


def _digit_mask_oracle(digit, box_h, box_w, rng, thickness_jitter):
    """The generator's segment mask as first written, np.clip on scalars."""
    mask = np.zeros((box_h, box_w), dtype=np.float32)
    for seg in data._DIGIT_SEGMENTS[digit]:
        r0f, r1f, c0f, c1f = data._SEGMENTS[seg]
        factor = rng.uniform(1.0 - thickness_jitter, 1.0 + thickness_jitter)
        if r1f - r0f < 0.5:
            mid, half = (r0f + r1f) / 2, (r1f - r0f) / 2 * factor
            r0f, r1f = np.clip(mid - half, 0, 1), np.clip(mid + half, 0, 1)
        else:
            mid, half = (c0f + c1f) / 2, (c1f - c0f) / 2 * factor
            c0f, c1f = np.clip(mid - half, 0, 1), np.clip(mid + half, 0, 1)
        r0 = int(round(r0f * box_h))
        r1 = max(r0 + 1, int(round(r1f * box_h)))
        c0 = int(round(c0f * box_w))
        c1 = max(c0 + 1, int(round(c1f * box_w)))
        mask[r0:min(r1, box_h), c0:min(c1, box_w)] = 1.0
    return mask


def _shear_rows_oracle(mask, shear):
    """Row-by-row shear with slices, as first written."""
    box_h, box_w = mask.shape
    out = np.zeros_like(mask)
    for r in range(box_h):
        off = int(round(shear * (r - box_h / 2)))
        src = mask[r, max(0, off):box_w + min(0, off)]
        if src.size:
            out[r, max(0, -off):max(0, -off) + src.size] = src
    return out


def synthetic_digits_oracle(n, seed, image_hw=28, scale_range=data.DEFAULT_SCALE_RANGE,
                            noise=0.0, small_fraction=0.0, small_range=data.DEFAULT_SMALL_RANGE):
    """The digit generator as first written: one image at a time, each
    built in its own array and clipped on its own."""
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % 10).astype(np.int64)
    rng.shuffle(labels)
    images = np.zeros((n, 1, image_hw, image_hw), dtype=np.float32)
    for i in range(n):
        if small_fraction > 0.0 and rng.uniform() < small_fraction:
            s = rng.uniform(small_range[0], small_range[1])
        else:
            s = rng.uniform(scale_range[0], scale_range[1])
        box_h, box_w = data._digit_box(s)
        mask = _digit_mask_oracle(int(labels[i]), box_h, box_w, rng, data._THICKNESS_JITTER)
        mask = _shear_rows_oracle(mask, rng.uniform(-data._SHEAR_MAX, data._SHEAR_MAX))
        top = int(np.clip((image_hw - box_h) // 2 + rng.integers(-data._JITTER, data._JITTER + 1),
                          0, image_hw - box_h))
        left = int(np.clip((image_hw - box_w) // 2 + rng.integers(-data._JITTER, data._JITTER + 1),
                           0, image_hw - box_w))
        img = np.zeros((image_hw, image_hw), dtype=np.float32)
        img[top:top + box_h, left:left + box_w] = mask * rng.uniform(0.75, 1.0)
        if noise > 0:
            img += rng.normal(0.0, noise, img.shape).astype(np.float32)
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return images, labels


@pytest.mark.parametrize("n, seed, kwargs", [
    (60, 0, {}),
    (61, 1, {"small_fraction": 0.15}),
    (40, 2, {"small_fraction": 1.0}),
    (40, 3, {"small_fraction": 0.15, "small_range": (0.3, 0.4)}),
    (50, 4, {"noise": 0.05}),
    (40, 5, {"scale_range": (1.0, 1.0), "noise": 0.3}),
    (50, 6, {"image_hw": 12, "scale_range": (0.3, 0.6)}),
    (50, 7, {"image_hw": 20, "scale_range": (0.5, 1.0), "small_fraction": 0.15}),
    (30, 8, {"image_hw": 40, "scale_range": (1.2, 1.9), "small_fraction": 0.5, "noise": 0.1}),
    (30, 9, {"image_hw": 28, "scale_range": (1.4, 1.4)}),
])
def test_digits_equal_the_first_generator_byte_for_byte(n, seed, kwargs):
    # The generator draws from the rng in the oracle's order and computes
    # every pixel from the same float32 operations: shifting rows by one
    # gather, clipping with min/max and clipping all images at once at the
    # end must leave image and label bytes unchanged.
    ds = ps.synthetic_digits(n, seed, **kwargs)
    images, labels = synthetic_digits_oracle(n, seed, **kwargs)
    assert ds.images.dtype == images.dtype and ds.images.tobytes() == images.tobytes()
    assert ds.labels.dtype == labels.dtype and ds.labels.tobytes() == labels.tobytes()


def test_digits_nearest_centroid_beats_chance():
    # placement is random, so raw-pixel centroids are weak — but they must
    # still clear chance (0.1) on the shape signal alone
    train = ps.synthetic_digits(500, seed=6, scale_range=(0.9, 1.0), noise=0.02)
    test = ps.synthetic_digits(200, seed=7, scale_range=(0.9, 1.0), noise=0.02)
    centroids = np.stack([train.images[train.labels == c].mean(axis=0).reshape(-1)
                          for c in range(10)])
    flat = test.images.reshape(len(test), -1)
    preds = np.argmin(((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
    assert (preds == test.labels).mean() >= 0.15


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_subsample_deterministic(seed):
    ds = ps.synthetic_blobs(40, classes=4, image_hw=8, seed=0)
    a = ps.subsample(ds, 10, seed)
    b = ps.subsample(ds, 10, seed)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_subsample_full_size_is_permutation():
    ds = ps.synthetic_blobs(20, classes=4, image_hw=8, seed=0)
    sub = ps.subsample(ds, 20, seed=9)
    assert sorted(sub.labels.tolist()) == sorted(ds.labels.tolist())
    sums = sorted(float(im.sum()) for im in ds.images)
    sums2 = sorted(float(im.sum()) for im in sub.images)
    np.testing.assert_allclose(sums, sums2)


def test_subsample_too_large():
    ds = ps.synthetic_blobs(10, classes=2, image_hw=8, seed=0)
    with pytest.raises(ArgumentError):
        ps.subsample(ds, 11, 0)


def test_subsample_negative_count():
    ds = ps.synthetic_blobs(10, classes=2, image_hw=8, seed=0)
    with pytest.raises(ArgumentError):
        ps.subsample(ds, -1, 0)


def test_subsample_balanced_within_tolerance():
    ds = ps.synthetic_digits(10000, seed=8)
    sub = ps.subsample(ds, 1000, seed=1)
    fractions = np.bincount(sub.labels, minlength=10) / 1000
    assert np.all(np.abs(fractions - 0.1) <= 0.05)


def test_dataset_invariants():
    with pytest.raises(ArgumentError):
        ps.Dataset(np.zeros((2, 1, 2, 2), np.float32), np.zeros(3, np.int64), 2)
    with pytest.raises(ArgumentError):
        ps.Dataset(np.zeros((2, 1, 2, 2), np.float32), np.array([0, 5]), 2)


def test_mean_pixel():
    ds = ps.Dataset(np.full((2, 1, 2, 2), 0.25, np.float32), np.zeros(2, np.int64), 2)
    assert ps.mean_pixel(ds) == pytest.approx(0.25)
