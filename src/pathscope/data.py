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

from .errors import ArgumentError, FormatError, require_int

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


# Images quantized at a time by write_idx (its float buffer holds this many),
# and noiseless digits drawn at a time by synthetic_digits.
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
    for value, what in ((n, "n"), (classes, "classes"), (image_hw, "image_hw")):
        require_int(value, what, ArgumentError)
    if classes < 2:
        raise ArgumentError(f"need at least 2 classes, got {classes}")
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

    Every digit is decoded from PCG64 words read a block of _IDX_BLOCK digits
    at a time (see _block_read_ahead), into the bytes that drawing it through
    the Generator's uniform, integers and normal methods gives. With noise a
    block is one digit, as each digit's noise follows its own draws.
    """
    for value, what in ((n, "n"), (image_hw, "image_hw")):
        require_int(value, what, ArgumentError)
    if n < 1:
        raise ArgumentError("need at least one sample")
    if not 0.0 <= small_fraction <= 1.0:
        raise ArgumentError(f"small fraction must be in [0, 1], got {small_fraction}")
    if not (np.isfinite(noise) and noise >= 0.0):
        raise ArgumentError(f"noise must be finite and >= 0, got {noise}")
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
    buffered = _half_word(rng)
    block = 1 if noise else _IDX_BLOCK
    for start in range(0, n, block):
        buffered = _block_read_ahead(rng, labels[start:start + block], images[start:start + block],
                                     buffered, scale_range, small_fraction, small_range)
        if noise:
            img = images[start, 0]
            np.clip(img + rng.normal(0.0, noise, img.shape).astype(np.float32), 0.0, 1.0, out=img)
    return Dataset(images, labels, 10)


def _half_word(rng) -> np.ndarray:
    """The 32-bit half word that PCG64 holds for its next 32-bit draw, as an
    array of zero or one draws."""
    state = rng.bit_generator.state
    return np.array([state["uinteger"]] if state["has_uint32"] else [], np.uint32)


# _DIGIT_SEGMENTS as arrays: each digit's segment count, and its segments'
# unit boxes (r0, r1, c0, c1) padded with empty slots to the largest count.
_SEG_COUNT = np.array([len(_DIGIT_SEGMENTS[d]) for d in range(10)])
_SEG_BOX = np.array([[_SEGMENTS[name] for name in _DIGIT_SEGMENTS[d]]
                     + [(0.0, 0.0, 0.0, 0.0)] * (_SEG_COUNT.max() - _SEG_COUNT[d])
                     for d in range(10)])
# rng.integers(-_JITTER, _JITTER + 1) draws a 32-bit u and returns
# ((u * span) >> 32) - _JITTER, Lemire's method, unless the low 32 bits of
# u * span fall below 2**32 % span: then it rejects u and draws again.
_SPAN = 2 * _JITTER + 1


def _jitter(draws: np.ndarray) -> np.ndarray | None:
    """rng.integers(-_JITTER, _JITTER + 1) for each 32-bit draw, or None if it
    would reject one of them."""
    m = draws.astype(np.int64) * _SPAN
    high = m >> 32
    if (m - (high << 32) < 2**32 % _SPAN).any():
        return None
    return high - _JITTER


def _uniform(lo, hi, d):
    """rng.uniform(lo, hi) of the double d that rng.uniform() would return."""
    lo, hi = float(lo), float(hi)
    return lo + (hi - lo) * d


def _block_read_ahead(rng, labels, images, buffered, scale_range, small_fraction,
                      small_range) -> np.ndarray:
    """Draw the digits of `labels` into `images` from the PCG64 words that
    drawing them one at a time through the Generator takes, read with one
    random_raw call; returns the 32-bit half word left buffered after them.

    Each digit takes, in order: its small-fraction double (only if
    small_fraction > 0), scale, one thickness double per segment, shear, one
    word for its two jitter integers, and intensity. A double is
    (word >> 11) * 2**-53. The jitter integers are 32-bit halves, low half
    first; the `buffered` half comes first of all, so each digit's second
    integer and the next digit's first then share a word. A rejected jitter
    draw (about one in 10**9) takes words that are not known ahead: then the
    block is drawn again through the Generator's methods into the same slots.
    """
    image_hw = images.shape[-1]
    extra = int(small_fraction > 0.0)
    nseg = _SEG_COUNT[labels]
    end = np.cumsum(nseg + extra + 4)
    first = end - (nseg + extra + 4)
    scale_at = first + extra
    after_segments = scale_at + 1 + nseg  # shear, jitter word, intensity
    state = rng.bit_generator.state
    words = rng.bit_generator.random_raw(int(end[-1]))
    d = (words >> 11) * 2.0**-53
    # each word's 32-bit halves, low half first
    halves = words[after_segments + 1].astype("<u8", copy=False).view("<u4")
    draws = np.concatenate([buffered, halves])
    jitter, leftover = _jitter(draws[:2 * len(labels)]), draws[2 * len(labels):]
    if jitter is None:
        # buffered holds 0 or 1 halves, so its sum is the half or 0
        rng.bit_generator.state = {**state, "has_uint32": len(buffered),
                                   "uinteger": int(buffered.sum())}
        jitter = []
        for k, is_jitter in enumerate(np.isin(np.arange(len(d)), after_segments + 1)):
            if is_jitter:
                jitter += [rng.integers(-_JITTER, _JITTER + 1) for _ in range(2)]
            else:
                d[k] = rng.random()
        jitter, leftover = np.array(jitter), _half_word(rng)
    s = _uniform(*scale_range, d[scale_at])
    if extra:
        s = np.where(d[first] < small_fraction, _uniform(*small_range, d[scale_at]), s)
    box_h = np.maximum(6, np.rint(20 * s)).astype(np.int64)  # _digit_box
    box_w = np.maximum(4, np.rint(12 * s)).astype(np.int64)
    thickness = np.take(d, scale_at[:, None] + 1 + np.arange(_SEG_BOX.shape[1]), mode="clip")
    bounds = _segment_bounds(labels, thickness, box_h, box_w)
    shear = _uniform(-_SHEAR_MAX, _SHEAR_MAX, d[after_segments])
    # (image_hw - box) // 2 as a shift: every box fits the image
    top = np.clip(((image_hw - box_h) >> 1) + jitter[0::2], 0, image_hw - box_h)
    left = np.clip(((image_hw - box_w) >> 1) + jitter[1::2], 0, image_hw - box_w)
    intensity = _uniform(0.75, 1.0, d[after_segments + 2]).astype(np.float32)
    boxes = _raster(*bounds, shear, box_h, int(box_w.max())) * intensity[:, None, None]
    for img, box, t, l, h, w in zip(images, boxes, *(
            a.tolist() for a in (top, left, box_h, box_w))):
        img[0, t:t + h, l:l + w] = box[:h, :w]
    return leftover


def _segment_bounds(labels, thickness, box_h, box_w):
    """Pixel bounds r0, r1, c0, c1 of each [B, slots] segment, drawn with
    `thickness` doubles: the jitter factor widens or narrows the
    cross-section (a horizontal bar's rows, a vertical bar's columns), and
    each bound is rounded, at least one pixel wide and inside the box."""
    factor = _uniform(1.0 - _THICKNESS_JITTER, 1.0 + _THICKNESS_JITTER, thickness)
    r0f, r1f, c0f, c1f = np.moveaxis(_SEG_BOX[labels], -1, 0)
    horizontal = r1f - r0f < 0.5
    lo, hi = np.where(horizontal, r0f, c0f), np.where(horizontal, r1f, c1f)
    mid, half = (lo + hi) / 2, (hi - lo) / 2 * factor
    lo, hi = np.maximum(mid - half, 0.0), np.minimum(mid + half, 1.0)
    r0, r1 = _pixel_bounds(np.where(horizontal, lo, r0f), np.where(horizontal, hi, r1f), box_h)
    c0, c1 = _pixel_bounds(np.where(horizontal, c0f, lo), np.where(horizontal, c1f, hi), box_w)
    r1[np.arange(r1.shape[1]) >= _SEG_COUNT[labels][:, None]] = 0  # empty slots
    return r0, r1, c0, c1


def _pixel_bounds(f0, f1, size):
    """[e0, e1) in pixels of unit bounds [f0, f1) in a box `size` wide."""
    e0 = np.rint(f0 * size[:, None])
    return e0, np.minimum(np.maximum(e0 + 1, np.rint(f1 * size[:, None])), size[:, None])


def _raster(r0, r1, c0, c1, shear, box_h, width) -> np.ndarray:
    """[B, max(box_h), width] bool boxes, set on each digit's sheared
    segments; only each digit's own [:box_h, :box_w] corner is its box.

    Segments are the boxes [r0, r1) x [c0, c1) of each [B, slots] row, and
    row r is shifted left by round(shear * (r - box_h / 2)), zero-filled.
    """
    b, height = len(box_h), int(box_h.max())
    rows = np.arange(height)
    shift = np.rint(shear[:, None] * (rows - box_h[:, None] / 2))
    pad = int(np.abs(shift).max())
    shift = shift.astype(np.int64)
    cols = np.arange(-pad, width + pad)
    # a pixel of the unsheared box, `pad` empty columns on either side, is
    # set where its row and its column share a segment: a bool matmul
    on_row = (r0[:, None] <= rows[:, None]) & (rows[:, None] < r1[:, None])
    on_col = (c0[..., None] <= cols) & (cols < c1[..., None])
    unsheared = np.matmul(on_row, on_col)
    # out[r, c] = unsheared[r, c + shift[r]]: each row reads its window
    windows = np.lib.stride_tricks.sliding_window_view(unsheared, width, axis=2)
    return windows[np.arange(b)[:, None], rows, shift + pad]


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
