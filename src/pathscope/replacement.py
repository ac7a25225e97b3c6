"""Activation replacement: swap a layer's output for a rescaled On-Off
pattern or path-count map, finish inference unchanged, measure accuracy.

Both scaled forms preserve the layer's total activation mass: the replaced
tensor sums to the same value as the activation it displaces. No weights are
touched and nothing is fine-tuned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset
from .errors import ArgumentError
from .model import (
    ForwardTrace,
    ModelSpec,
    check_dataset,
    forward,
    forward_from_layer,
    gemm_operands,
    layer_index,
    layer_names,
    model_digest,
    resolve,
)
from .parallel import pmap
from .pathcount import ClipConfig, PathCountMap, pathcount_forward, pathcount_plan


def _rescale(activation: np.ndarray, m: np.ndarray) -> np.ndarray:
    """`m` rescaled so its sum equals the activation's sum; zeros if `m` sums to 0."""
    if activation.shape != m.shape:
        raise ArgumentError(f"shape mismatch: {activation.shape} vs {m.shape}")
    mu_m = float(m.sum(dtype=np.float64))
    if mu_m == 0.0:
        return np.zeros_like(activation, dtype=np.float64)
    mu_a = float(activation.sum(dtype=np.float64))
    return m.astype(np.float64) * (mu_a / mu_m)


def scaled_onoff(activation: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Binary pattern rescaled so its sum equals the activation's sum.

    With mu_a the activation total and mu_o the number of on neurons, the
    output is pattern * mu_a/mu_o; an all-off layer maps to all zeros.
    """
    return _rescale(activation, pattern)


def scaled_pathcount(activation: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Path counts rescaled so their sum equals the activation's sum."""
    return _rescale(activation, counts)


def signed_scaled_pathcount(pre_activation: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """scaled_pathcount of |pre-activation|, re-signed entry by entry."""
    return np.sign(pre_activation) * scaled_pathcount(np.abs(pre_activation), counts)


class _Kind(NamedTuple):
    sites: tuple[str, ...] | None  # layer kinds it may replace; None: any layer
    sites_text: str  # how the wrong-site error names them
    needs_counts: bool  # reads the trace's path counts
    replace: Callable  # (activation, the layer's path counts or None) -> replacement


# The lambdas look the public functions up per call, so wrappers set on the module see them.
_KINDS = {
    "identity": _Kind(None, "", False, lambda a, c: a),
    "scaled_onoff": _Kind(("relu",), "ReLU outputs only", False,
                          lambda a, c: scaled_onoff(a, (a > 0).astype(np.float64))),
    "scaled_pathcount": _Kind(("relu",), "ReLU outputs only", True,
                              lambda a, c: scaled_pathcount(a, c)),
    "signed_scaled_pathcount": _Kind(("relu", "conv"), "ReLU or conv outputs", True,
                                     lambda a, c: signed_scaled_pathcount(a, c)),
}
REPLACEMENT_KINDS = tuple(_KINDS)


def replaceable_layers(spec: ModelSpec) -> list[str]:
    """Layers the sweep covers: every ReLU output."""
    return [r.name for r in resolve(spec) if r.spec.kind == "relu"]


def _check_kind(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ArgumentError(f"unknown replacement kind {kind!r}; choose from {REPLACEMENT_KINDS}")
    return _KINDS[kind]


def replace_and_infer(
    weights: dict[str, np.ndarray],
    spec: ModelSpec,
    trace: ForwardTrace,
    layer: str,
    kind: str,
    counts: PathCountMap | None = None,
) -> np.ndarray:
    """Resume inference from `trace` with `layer`'s output substituted per
    `kind`. The path-count kinds read `counts`, the trace's pathcount_forward."""
    k = _check_kind(kind)
    lk = resolve(spec)[layer_index(layer_names(spec), layer)].spec.kind
    if k.sites is not None and lk not in k.sites:
        raise ArgumentError(f"{kind} replaces {k.sites_text}; {layer} is a {lk} layer")
    if k.needs_counts and counts is None:
        raise ArgumentError(f"{kind} needs the path counts of the trace")
    act = trace.output(layer)
    replaced = k.replace(act, counts.layer(layer) if k.needs_counts else None)
    return forward_from_layer(weights, spec, layer, replaced.astype(act.dtype))


@dataclass(frozen=True)
class SweepRow:
    layer: str
    kind: str
    accuracy: float
    baseline_accuracy: float
    mean_on_ratio: float


@dataclass(frozen=True)
class SweepReport:
    rows: list[SweepRow]
    metadata: dict

    def row(self, layer: str, kind: str) -> SweepRow:
        for r in self.rows:
            if r.layer == layer and r.kind == kind:
                return r
        raise ArgumentError(f"no sweep row for ({layer}, {kind})")


def _sweep_one(x, *, weights, spec, layers, kinds, plan):
    """Per-image worker: baseline prediction, per-(layer, kind) prediction,
    per-layer on-ratio. `plan` is the weights' pathcount_plan, or None when
    no kind reads path counts."""
    trace = forward(weights, spec, x)
    base_pred = int(np.argmax(trace.logits))
    counts = pathcount_forward(plan, trace) if plan is not None else None
    preds = {}
    for layer in layers:
        for kind in kinds:
            logits = replace_and_infer(weights, spec, trace, layer, kind, counts)
            preds[(layer, kind)] = int(np.argmax(logits))
    ratios = {layer: float((trace.output(layer) > 0).mean()) for layer in layers}
    return base_pred, preds, ratios


def sweep(
    weights: dict[str, np.ndarray],
    spec: ModelSpec,
    dataset: Dataset,
    kinds=REPLACEMENT_KINDS,
    clip: ClipConfig = ClipConfig(),
    workers: int = 1,
) -> SweepReport:
    """Replacement accuracy for every ReLU layer and every requested kind."""
    check_dataset(dataset, spec, "sweep")
    kinds = tuple(kinds)
    if not kinds:
        raise ArgumentError("no replacement kinds given")
    repeated = sorted({k for k in kinds if kinds.count(k) > 1})
    if repeated:
        raise ArgumentError(f"replacement kind given more than once: {', '.join(repeated)}")
    for kind in kinds:  # every sweep layer is a ReLU, which takes every kind
        _check_kind(kind)
    layers = replaceable_layers(spec)
    if not layers:
        raise ArgumentError("model has no ReLU layer to replace")
    needs_counts = any(_KINDS[k].needs_counts for k in kinds)
    worker = functools.partial(
        _sweep_one, weights=gemm_operands(weights), spec=spec, layers=layers, kinds=kinds,
        plan=pathcount_plan(weights, spec, clip) if needs_counts else None
    )
    results = pmap(worker, list(dataset.images), workers=workers)
    n = len(dataset)
    labels = dataset.labels
    base_acc = sum(int(r[0] == labels[i]) for i, r in enumerate(results)) / n
    rows = []
    for layer in layers:
        ratio = sum(r[2][layer] for r in results) / n
        for kind in kinds:
            correct = sum(int(r[1][(layer, kind)] == labels[i]) for i, r in enumerate(results))
            rows.append(SweepRow(layer, kind, correct / n, base_acc, ratio))
    meta = {
        "model_sha256": model_digest(weights, spec),
        "samples": n,
        "kinds": list(kinds),
        "clip_mode": clip.mode,
        "clip_threshold": clip.threshold,
        "layers": layers,
    }
    return SweepReport(rows, meta)


SWEEP_CSV_HEADER = ["layer_name", "kind", "accuracy", "baseline_accuracy", "mean_on_ratio"]


def sweep_csv_rows(report: SweepReport) -> list[list]:
    return [[r.layer, r.kind, r.accuracy, r.baseline_accuracy, r.mean_on_ratio]
            for r in report.rows]
