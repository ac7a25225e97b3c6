"""Dataset loading and generation.

Images are a single float32 array [N,C,H,W] with values in [0,1]; labels are
int64 class indices. The IDX reader/writer round-trips byte-exact pixel
values (load scales by /255, write inverts it). The writer quantizes the
images a block at a time into the uint8 pixels, so it holds no float array
the size of the dataset.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, FormatError

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801

#: Default digit size range, as a fraction of the nominal 20x12 bounding box.
DEFAULT_SCALE_RANGE = (0.8, 1.0)
#: Scale-augmentation tail used when *training*: fraction of images drawn at
#: the low-scale range. The generator itself defaults to no tail so that
#: evaluation sets stay on the clean size distribution.
TRAIN_SMALL_FRACTION = 0.15
DEFAULT_SMALL_RANGE = (0.45, 0.55)
# Handwriting-like variability of every generated digit: placement jitter in
# pixels, relative stroke-thickness jitter, and maximum horizontal shear.
_JITTER = 4
_THICKNESS_JITTER = 0.35
_SHEAR_MAX = 0.25


def _digit_box(scale: float) -> tuple[int, int]:
    """Height and width of a digit drawn at `scale` of the nominal 20x12 box."""
    return max(6, int(round(20 * scale))), max(4, int(round(12 * scale)))


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # [N,C,H,W] float32 in [0,1]
    labels: np.ndarray  # [N] int64
    num_classes: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ArgumentError(f"images must be [N,C,H,W], got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ArgumentError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ArgumentError(f"labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, indices) -> "Dataset":
        return Dataset(self.images[indices], self.labels[indices], self.num_classes)


def _read_exact(f, n: int, what: str, path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"{path}: truncated while reading {what} ({len(data)}/{n} bytes)")
    return data


def _read_rest(f, n: int, what: str, path) -> bytes:
    """The file's remaining bytes, which must be exactly `n`. They are read
    whole and then measured, so a header's claim sizes no read: a count past
    what the file holds is a FormatError, not an allocation of that size."""
    data = f.read()
    if len(data) < n:
        raise FormatError(f"{path}: truncated while reading {what} ({len(data)}/{n} bytes)")
    if len(data) > n:
        raise FormatError(f"{path}: {len(data) - n} trailing bytes after {what}")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair (big-endian, unsigned bytes). Each
    file must end where its data ends."""
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "magic", images_path))
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}")
        n, h, w = struct.unpack(">III", _read_exact(f, 12, "dimensions", images_path))
        raw = _read_rest(f, n * h * w, f"{n} images of {h}x{w}", images_path)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, h, w)
    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "magic", labels_path))
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(f"{labels_path}: magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}")
        (n_labels,) = struct.unpack(">I", _read_exact(f, 4, "count", labels_path))
        raw = _read_rest(f, n_labels, f"{n_labels} labels", labels_path)
    if n_labels != n:
        raise FormatError(f"{images_path} has {n} images but {labels_path} has {n_labels} labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    images = (pixels.astype(np.float32) / np.float32(255.0))
    return Dataset(images, labels, int(labels.max()) + 1 if n else 10)


# Images quantized at a time by write_idx: its float buffer holds this many.
_IDX_BLOCK = 256


def write_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Inverse of load_idx; pixels are quantized with round(v*255), clipped to
    [0, 255], and a NaN pixel is an ArgumentError. The images are quantized
    one block at a time through one float buffer of the images' arithmetic
    dtype into the uint8 pixels, whose buffer is written as it is."""
    images = dataset.images
    n, c, h, w = images.shape
    if c != 1:
        raise ArgumentError(f"IDX stores single-channel images, got {c} channels")
    if dataset.labels.max(initial=0) > 255:
        raise ArgumentError(f"IDX stores labels as bytes, got label {dataset.labels.max()}")
    pixels = np.empty((n, h, w), dtype=np.uint8)
    block = np.empty((min(n, _IDX_BLOCK), h, w), dtype=np.result_type(images.dtype, 255.0))
    for start in range(0, n, _IDX_BLOCK):
        b = block[:min(_IDX_BLOCK, n - start)]
        np.multiply(images[start:start + len(b), 0], 255.0, out=b)
        if np.isnan(b.max()):
            raise ArgumentError(f"image {start + int(np.isnan(b).any(axis=(1, 2)).argmax())} "
                                "has a NaN pixel, which IDX cannot store")
        np.rint(b, out=b)
        np.clip(b, 0, 255, out=b)
        pixels[start:start + len(b)] = b
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, h, w))
        f.write(pixels)
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", _IDX_LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8))


def synthetic_blobs(n: int, classes: int = 10, image_hw: int = 28, seed: int = 0) -> Dataset:
    """Bright Gaussian blob at a class-specific grid location, plus noise."""
    if n < classes:
        raise ArgumentError(f"need at least {classes} samples for {classes} classes")
    if classes > 12:
        raise ArgumentError("blob generator supports at most 12 classes")
    rng = np.random.default_rng(seed)
    margin = image_hw // 5
    xs = np.linspace(margin, image_hw - 1 - margin, 3)
    ys = np.linspace(margin, image_hw - 1 - margin, 4)
    centers = [(ys[c // 3], xs[c % 3]) for c in range(classes)]
    labels = (np.arange(n) % classes).astype(np.int64)
    grid_i, grid_j = np.mgrid[0:image_hw, 0:image_hw]
    sigma = image_hw / 10.0
    images = np.empty((n, 1, image_hw, image_hw), dtype=np.float32)
    for i in range(n):
        cy, cx = centers[labels[i]]
        cy += rng.uniform(-1.0, 1.0)
        cx += rng.uniform(-1.0, 1.0)
        blob = np.exp(-((grid_i - cy) ** 2 + (grid_j - cx) ** 2) / (2 * sigma**2))
        img = blob * rng.uniform(0.8, 1.0) + rng.normal(0.0, 0.05, blob.shape)
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return Dataset(images, labels, classes)


# Seven-segment layout: each segment is a rectangle in unit coordinates of the
# digit bounding box (r0, r1, c0, c1).
_SEGMENTS = {
    "top": (0.00, 0.15, 0.0, 1.0),
    "mid": (0.425, 0.575, 0.0, 1.0),
    "bot": (0.85, 1.00, 0.0, 1.0),
    "tl": (0.0, 0.5, 0.00, 0.25),
    "tr": (0.0, 0.5, 0.75, 1.00),
    "bl": (0.5, 1.0, 0.00, 0.25),
    "br": (0.5, 1.0, 0.75, 1.00),
}

_DIGIT_SEGMENTS = {
    0: ("top", "tl", "tr", "bl", "br", "bot"),
    1: ("tr", "br"),
    2: ("top", "tr", "mid", "bl", "bot"),
    3: ("top", "tr", "mid", "br", "bot"),
    4: ("tl", "tr", "mid", "br"),
    5: ("top", "tl", "mid", "br", "bot"),
    6: ("top", "tl", "mid", "bl", "br", "bot"),
    7: ("top", "tr", "br"),
    8: ("top", "tl", "tr", "mid", "bl", "br", "bot"),
    9: ("top", "tl", "tr", "mid", "br", "bot"),
}


def _digit_mask(digit: int, box_h: int, box_w: int, rng=None,
                thickness_jitter: float = 0.0) -> np.ndarray:
    """Binary segment mask; a nonzero thickness_jitter varies each segment's
    cross-section by the given relative amount (one rng draw per segment)."""
    mask = np.zeros((box_h, box_w), dtype=np.float32)
    for seg in _DIGIT_SEGMENTS[digit]:
        r0f, r1f, c0f, c1f = _SEGMENTS[seg]
        if thickness_jitter > 0.0:
            factor = rng.uniform(1.0 - thickness_jitter, 1.0 + thickness_jitter)
            if r1f - r0f < 0.5:  # horizontal bar: vary its height
                mid, half = (r0f + r1f) / 2, (r1f - r0f) / 2 * factor
                r0f, r1f = max(mid - half, 0.0), min(mid + half, 1.0)
            else:  # vertical bar: vary its width
                mid, half = (c0f + c1f) / 2, (c1f - c0f) / 2 * factor
                c0f, c1f = max(mid - half, 0.0), min(mid + half, 1.0)
        r0 = int(round(r0f * box_h))
        r1 = max(r0 + 1, int(round(r1f * box_h)))
        c0 = int(round(c0f * box_w))
        c1 = max(c0 + 1, int(round(c1f * box_w)))
        mask[r0:min(r1, box_h), c0:min(c1, box_w)] = 1.0
    return mask


def _shear_rows(mask: np.ndarray, shear: float) -> np.ndarray:
    """Shift each row horizontally by shear * (row - center), zero-filled."""
    box_h, box_w = mask.shape
    off = np.round(shear * (np.arange(box_h) - box_h / 2)).astype(np.int64)
    src = np.arange(box_w) + off[:, None]  # out[r, c] = mask[r, c + off[r]]
    inside = (src >= 0) & (src < box_w)
    return np.take_along_axis(mask, np.clip(src, 0, box_w - 1), axis=1) * inside


def synthetic_digits(
    n: int,
    seed: int = 0,
    image_hw: int = 28,
    scale_range: tuple[float, float] = DEFAULT_SCALE_RANGE,
    noise: float = 0.0,
    small_fraction: float = 0.0,
    small_range: tuple[float, float] = DEFAULT_SMALL_RANGE,
) -> Dataset:
    """Seven-segment digit shapes with handwriting-like variability: random
    stroke thickness per segment, horizontal shear, size scale, placement
    jitter around the center, and stroke intensity. The background is exactly
    zero unless additive noise is requested.

    A `small_fraction` of images is drawn at `small_range` scale instead of
    `scale_range` — scale-robustness augmentation so that models trained on
    this set also recognize digits downscaled into composite tiles. Training
    pipelines pass TRAIN_SMALL_FRACTION; the generator default is no tail,
    keeping evaluation sets on the clean size distribution.

    Classes are shape-coded (not position-coded), so a digit is still
    recognizable after downscaling into a tile of a composite image.
    """
    if n < 1:
        raise ArgumentError("need at least one sample")
    if not 0.0 <= small_fraction <= 1.0:
        raise ArgumentError(f"small fraction must be in [0, 1], got {small_fraction}")
    for lo, hi in [scale_range] + ([small_range] if small_fraction > 0.0 else []):
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo <= hi):
            raise ArgumentError(f"scale range ({lo}, {hi}) must be finite with 0 < min <= max")
        box_h, box_w = _digit_box(hi)
        if box_h > image_hw or box_w > image_hw:
            raise ArgumentError(f"scale {hi} draws a {box_h}x{box_w} digit, larger than "
                                f"the {image_hw}x{image_hw} image")
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % 10).astype(np.int64)
    rng.shuffle(labels)
    images = np.zeros((n, 1, image_hw, image_hw), dtype=np.float32)
    for i in range(n):
        if small_fraction > 0.0 and rng.uniform() < small_fraction:
            s = rng.uniform(small_range[0], small_range[1])
        else:
            s = rng.uniform(scale_range[0], scale_range[1])
        box_h, box_w = _digit_box(s)
        mask = _digit_mask(int(labels[i]), box_h, box_w, rng, _THICKNESS_JITTER)
        mask = _shear_rows(mask, rng.uniform(-_SHEAR_MAX, _SHEAR_MAX))
        top = (image_hw - box_h) // 2 + int(rng.integers(-_JITTER, _JITTER + 1))
        top = min(max(top, 0), image_hw - box_h)
        left = (image_hw - box_w) // 2 + int(rng.integers(-_JITTER, _JITTER + 1))
        left = min(max(left, 0), image_hw - box_w)
        img = images[i, 0]
        img[top:top + box_h, left:left + box_w] = mask * rng.uniform(0.75, 1.0)
        if noise > 0:
            img += rng.normal(0.0, noise, img.shape).astype(np.float32)
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images, labels, 10)


def subsample(dataset: Dataset, n: int, seed: int = 0) -> Dataset:
    """Uniform sample without replacement; deterministic by seed."""
    if n < 0:
        raise ArgumentError(f"sample count must be >= 0, got {n}")
    if n > len(dataset):
        raise ArgumentError(f"cannot take {n} of {len(dataset)} samples")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(dataset))[:n]
    return dataset.take(idx)


def mean_pixel(dataset: Dataset) -> float:
    return float(dataset.images.mean())
