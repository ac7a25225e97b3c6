"""Gradient-weighted class activation maps and their evaluation.

`saliency_map` is the single saliency entry point: it reads the forward
trace its caller already holds. CAM variants differ only in the feature term
weighted by the channel gradients: the activation itself ("act"), its binary
on/off pattern ("onoff"), or its path counts ("pathcount"), counted with a
`pathcount_plan` in the default clip: the clip acts only on fc weights, and
every fc layer follows the last conv block's ReLU, which a CAM reads.
"uniform" and "random" stubs serve as baselines. Two evaluation protocols:
pixel-perturbation degradation (most/least relevant first) and target
matching on 2x2 tiled composites.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, mean_pixel
from .errors import ArgumentError
from .model import (
    ForwardTrace,
    ModelSpec,
    check_dataset,
    forward,
    gemm_operands,
    gradient_wrt_layer,
    layer_index,
    layer_names,
    resolve,
)
from .parallel import pmap
from .pathcount import PathCountPlan, pathcount_forward, pathcount_plan

CAM_VARIANTS = ("act", "onoff", "pathcount")
STUB_VARIANTS = ("uniform", "random")


def cam_layer(spec: ModelSpec) -> str:
    """The ReLU output of the last conv block — where CAMs are extracted."""
    name = None
    prev_kind = ""
    for r in resolve(spec):
        if r.spec.kind == "relu" and prev_kind == "conv":
            name = r.name
        prev_kind = r.spec.kind
    if name is None:
        raise ArgumentError("model has no conv+relu block to extract a CAM from")
    return name


def bilinear_resize(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear interpolation with half-pixel-aligned sample centers."""
    h, w = src.shape
    if (h, w) == (out_h, out_w):
        return src.astype(np.float64, copy=True)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    s = src.astype(np.float64)
    return ((1 - wy) * (1 - wx) * s[np.ix_(y0, x0)] + (1 - wy) * wx * s[np.ix_(y0, x1)]
            + wy * (1 - wx) * s[np.ix_(y1, x0)] + wy * wx * s[np.ix_(y1, x1)])


def _normalize(sal: np.ndarray) -> np.ndarray:
    m = float(sal.max(initial=0.0))
    return sal / m if m > 0 else sal


def saliency_map(weights, spec, trace: ForwardTrace, target_class: int, variant: str,
                 rng: np.random.Generator | None = None, *,
                 plan: PathCountPlan | None = None) -> np.ndarray:
    """Saliency map [H,W] of the input `trace` was taken on.

    CAM variants: relu of the gradient-weighted feature terms at the last conv
    ReLU, bilinearly upsampled and max-normalized to [0,1]. Stubs: "uniform"
    (constant map, all ties) and "random" (noise drawn from `rng`, the
    uninformative baseline). The "pathcount" variant counts with `plan`, the
    weights' pathcount_plan, which it requires.
    """
    if variant == "uniform":
        return np.ones(spec.input_shape[1:], dtype=np.float64)
    if variant == "random":
        if rng is None:
            raise ArgumentError("random saliency needs an rng")
        return rng.random(spec.input_shape[1:])
    layer = cam_layer(spec)
    feats = trace.output(layer)
    if variant == "act":
        terms = feats.astype(np.float64)
    elif variant == "onoff":
        terms = (feats > 0).astype(np.float64)
    elif variant == "pathcount":
        if plan is None:
            raise ArgumentError("pathcount saliency needs a pathcount_plan")
        terms = pathcount_forward(plan, trace).layer(layer)
    else:
        raise ArgumentError(
            f"unknown variant {variant!r}; choose from {CAM_VARIANTS + STUB_VARIANTS}")
    grad = gradient_wrt_layer(weights, spec, trace, layer, target_class)
    alpha = grad.astype(np.float64).mean(axis=(1, 2))
    cam = np.maximum((alpha[:, None, None] * terms).sum(axis=0), 0.0)
    up = bilinear_resize(cam, spec.input_shape[1], spec.input_shape[2])
    return _normalize(np.maximum(up, 0.0))


def perturb(x: np.ndarray, saliency: np.ndarray, fraction: float, order: str,
            fill: float) -> np.ndarray:
    """Replace a fraction of pixels by `fill`, most relevant first ("morf") or
    least relevant first ("lerf"); saliency ties break by flat pixel index."""
    if not 0.0 <= fraction <= 1.0:
        raise ArgumentError(f"fraction must be in [0,1], got {fraction}")
    if order not in ("morf", "lerf"):
        raise ArgumentError(f"order must be 'morf' or 'lerf', got {order!r}")
    if saliency.shape != x.shape[1:]:
        raise ArgumentError(f"saliency {saliency.shape} does not match input {x.shape}")
    flat = saliency.reshape(-1)
    key = -flat if order == "morf" else flat
    ranked = np.argsort(key, kind="stable")
    k = int(round(fraction * flat.size))
    out = x.copy()
    if k:
        rows, cols = np.unravel_index(ranked[:k], saliency.shape)
        out[:, rows, cols] = fill
    return out


def _plan_for(weights, spec, variant) -> PathCountPlan | None:
    """The pathcount_plan of the stored weights when `variant` counts paths:
    the workers run on float64 operands, which must not make the plan. Its
    layers stop at the CAM layer, the last count a CAM reads."""
    if variant != "pathcount":
        return None
    plan = pathcount_plan(weights, spec)
    stop = layer_index(layer_names(spec), cam_layer(spec))
    return replace(plan, resolved=plan.resolved[:stop + 1])


def _degrade_one(item, *, weights, spec, variant, fractions, fill, seed, plan):
    """Per-image worker: correctness under each (order, fraction). `plan` is
    the weights' pathcount_plan for the "pathcount" variant, else None."""
    i, x, label = item
    trace = forward(weights, spec, x)
    target = int(np.argmax(trace.logits))
    rng = np.random.default_rng((seed, i)) if variant == "random" else None
    sal = saliency_map(weights, spec, trace, target, variant, rng=rng, plan=plan)
    correct = np.zeros((2, len(fractions)), dtype=np.float64)
    for oi, order in enumerate(("morf", "lerf")):
        for fi, f in enumerate(fractions):
            xp = perturb(x, sal, f, order, fill)
            pred = int(np.argmax(forward(weights, spec, xp).logits))
            correct[oi, fi] = float(pred == label)
    return correct


def degradation_score(
    weights: dict[str, np.ndarray],
    spec: ModelSpec,
    dataset: Dataset,
    variant: str = "act",
    steps: int = 10,
    workers: int = 1,
    seed: int = 0,
):
    """Accuracy curves at fractions {0, 1/steps, ..., 1} under both orders and
    the trapezoidal area between them (LeRF minus MoRF). Perturbed pixels take
    the dataset's mean pixel value."""
    if steps < 2:
        raise ArgumentError(f"need at least 2 perturbation steps, got {steps}")
    check_dataset(dataset, spec, "degrade")
    fractions = np.linspace(0.0, 1.0, steps + 1)
    worker = functools.partial(_degrade_one, weights=gemm_operands(weights), spec=spec,
                               variant=variant, fractions=fractions,
                               fill=mean_pixel(dataset), seed=seed,
                               plan=_plan_for(weights, spec, variant))
    items = [(i, dataset.images[i], int(dataset.labels[i])) for i in range(len(dataset))]
    results = pmap(worker, items, workers=workers)
    acc = np.zeros((2, len(fractions)))
    for r in results:
        acc += r
    acc /= len(results)
    morf, lerf = acc[0], acc[1]
    area = float(np.trapezoid(lerf - morf, fractions))
    return morf, lerf, area


@dataclass(frozen=True)
class TiledSample:
    """2x2 composite of four downscaled constituents. Tile t sits at grid
    (t//2, t%2); labels[t] is the class of the image in tile t."""

    image: np.ndarray  # [C,H,W]
    labels: tuple[int, int, int, int]
    tile_hw: tuple[int, int]


def _downscale2(x: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def make_tiled(dataset: Dataset, n_samples: int, seed: int = 0) -> list[TiledSample]:
    """Compose 2x2 grids of four images of pairwise-distinct classes, each
    downscaled 2x by area averaging, matching the source image size."""
    if len(dataset) < 4:
        raise ArgumentError("need at least 4 images to tile")
    _, c, h, w = dataset.images.shape
    if h % 2 or w % 2:
        raise ArgumentError(f"image size {h}x{w} must be even to tile")
    by_class = {int(k): np.nonzero(dataset.labels == k)[0] for k in np.unique(dataset.labels)}
    classes = sorted(by_class)
    if len(classes) < 4:
        raise ArgumentError(f"tiling needs >= 4 distinct classes, got {len(classes)}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        picked = rng.choice(len(classes), size=4, replace=False)
        labels = []
        composite = np.zeros((c, h, w), dtype=dataset.images.dtype)
        for t, ci in enumerate(picked):
            cls = classes[ci]
            idx = by_class[cls][rng.integers(0, len(by_class[cls]))]
            tile = _downscale2(dataset.images[idx]).astype(dataset.images.dtype)
            r, col = divmod(t, 2)
            composite[:, r * (h // 2):(r + 1) * (h // 2),
                      col * (w // 2):(col + 1) * (w // 2)] = tile
            labels.append(cls)
        out.append(TiledSample(composite, tuple(labels), (h // 2, w // 2)))
    return out


def _tile_means(sal: np.ndarray, tile_hw: tuple[int, int]) -> np.ndarray:
    th, tw = tile_hw
    return np.array([sal[r * th:(r + 1) * th, c * tw:(c + 1) * tw].mean()
                     for r in (0, 1) for c in (0, 1)])


def _tilematch_one(item, *, weights, spec, variant, plan):
    """Per-composite worker: for each constituent label as CAM target, the
    tile with maximal mean saliency, or -1 on a tie. Random saliency is
    seeded by (composite index, tile), so each composite gets its own noise
    and every pass over the same composites scores the same maps. `plan` is
    as in `_degrade_one`."""
    i, sample = item
    trace = forward(weights, spec, sample.image)
    inferred = []
    for t in range(4):
        rng = np.random.default_rng((i, t)) if variant == "random" else None
        sal = saliency_map(weights, spec, trace, sample.labels[t], variant, rng=rng,
                           plan=plan)
        means = _tile_means(sal, sample.tile_hw)
        best = float(means.max())
        winners = np.nonzero(means == best)[0]
        inferred.append(int(winners[0]) if len(winners) == 1 else -1)
    return inferred


def target_matching_accuracy(
    weights: dict[str, np.ndarray],
    spec: ModelSpec,
    tiled: list[TiledSample],
    variant: str = "act",
    workers: int = 1,
    target_shuffle_seed: int | None = None,
) -> float:
    """Fraction of (composite, target label) cases whose maximal-saliency tile
    is the tile holding the target; ties count as incorrect. Passing
    target_shuffle_seed scores against per-sample shuffled tile assignments —
    the chance-level control."""
    if not tiled:
        raise ArgumentError("no tiled samples given")
    worker = functools.partial(_tilematch_one, weights=gemm_operands(weights), spec=spec,
                               variant=variant, plan=_plan_for(weights, spec, variant))
    results = pmap(worker, list(enumerate(tiled)), workers=workers)
    shuffle_rng = (np.random.default_rng(target_shuffle_seed)
                   if target_shuffle_seed is not None else None)
    correct = 0
    for inferred in results:
        perm = shuffle_rng.permutation(4) if shuffle_rng is not None else np.arange(4)
        for t in range(4):
            if inferred[t] == int(perm[t]):
                correct += 1
    return correct / (4 * len(tiled))
