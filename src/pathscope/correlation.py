"""Tie-corrected Kendall rank correlation between layer representations and
their path counts.

tau-b = (C - D) / sqrt((n0 - n1)(n0 - n2)) over all index pairs, where C/D
count concordant/discordant pairs, n0 = n(n-1)/2, and n1/n2 count tied pairs
within each vector. The heavy zero-tie structure at ReLU layers is exactly
why the tie-corrected variant is used.

The pair counts are computed as exact integers and combined in a single
final division, so small hand-checkable inputs give bit-exact ratios like
4/5 = 0.8. After a lexsort by (x, y), the discordant pairs are the
inversions of y (Knight, JASA 1966), counted by a loop-free numpy pass per
bit of y's dense rank: O(n log n log k) for k distinct values, and path
counts have few. NaN has no rank, so NaN input raises NumericalError.

One tau per image over all neurons of a layer, then mean +/- std across
images; multiple models (training seeds) aggregate across reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ArgumentError, NumericalError, UndefinedCorrelationError
from .model import ModelSpec, forward, model_digest, resolve
from .parallel import pmap
from .pathcount import ClipConfig, pathcount_forward


def _tied_pairs(sorted_v: np.ndarray) -> int:
    """Number of index pairs with equal value; input must be sorted."""
    boundaries = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1], True])
    lengths = np.diff(boundaries)
    return int((lengths * (lengths - 1) // 2).sum())


def _inversions(a: np.ndarray) -> int:
    """Number of pairs i<j with a[i] > a[j].

    On dense ranks r, an inverted pair's ranks agree above their highest
    differing bit b, where the earlier element has a 1 and the later a 0. So
    for each bit, grouping by r >> (b + 1) in original order and counting the
    1s before each 0 within its group counts every inversion exactly once:
    one numpy pass per bit of the largest rank.
    """
    ranks = np.unique(np.asarray(a, dtype=np.float64).reshape(-1), return_inverse=True)[1]
    n = ranks.size
    inv = 0
    for b in reversed(range(int(ranks.max(initial=0)).bit_length())):
        group = ranks >> (b + 1)
        order = np.argsort(group, kind="stable")
        group, bit = group[order], (ranks[order] >> b) & 1
        ones = np.cumsum(bit)
        starts = np.r_[True, group[1:] != group[:-1]]
        first = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
        # at a 0, `ones` counts only earlier 1s; subtract those before its group
        inv += int((ones - ones[first] + bit[first])[bit == 0].sum())
    return inv


def kendall_tau_b(x, y) -> float:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ArgumentError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ArgumentError(f"need at least 2 observations, got {x.size}")
    if np.isnan(x).any() or np.isnan(y).any():
        raise NumericalError("tau-b input contains NaN")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedCorrelationError("tau-b undefined when a vector is all ties")
    n = int(x.size)
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    n0 = n * (n - 1) // 2
    n1 = _tied_pairs(xs)
    n2 = _tied_pairs(np.sort(y, kind="stable"))
    joint = np.flatnonzero(np.r_[True, (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]), True])
    n3 = int((np.diff(joint) * (np.diff(joint) - 1) // 2).sum())
    # x-tied pairs are y-sorted by the lexsort, so every inversion of ys is a
    # strictly-discordant pair and vice versa
    disc = _inversions(ys)
    conc_minus_disc = (n0 - n1 - n2 + n3) - 2 * disc
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    tau = conc_minus_disc / denom
    if not math.isfinite(tau):
        raise NumericalError(f"tau-b evaluated to {tau}")
    return tau


@dataclass(frozen=True)
class TauRow:
    layer: str
    tau_raw_mean: float
    tau_raw_std: float
    tau_abs_mean: float
    tau_abs_std: float
    skipped_images: int


@dataclass(frozen=True)
class TauReport:
    rows: list[TauRow]
    metadata: dict

    def row(self, layer: str) -> TauRow:
        for r in self.rows:
            if r.layer == layer:
                return r
        raise ArgumentError(f"no tau row for layer {layer!r}")


def correlated_layers(spec: ModelSpec) -> list[str]:
    """Value-carrying layers reported on: conv pre-activations, ReLU
    activations, and fc outputs (pool/dropout/flatten are pass-through)."""
    return [r.name for r in resolve(spec) if r.spec.kind in ("conv", "relu", "fc")]


def _tau_one(x, *, weights, spec, layers, clip):
    """Per-image worker: (tau_raw, tau_abs) per layer, or None where the
    correlation is undefined (all-ties on either side)."""
    trace = forward(weights, spec, x)
    counts = pathcount_forward(weights, spec, trace, clip)
    out = {}
    for layer in layers:
        rep = trace.output(layer).reshape(-1).astype(np.float64)
        pc = counts.layer(layer).reshape(-1)
        try:
            tau_raw = kendall_tau_b(rep, pc)
            tau_abs = kendall_tau_b(np.abs(rep), pc)
        except UndefinedCorrelationError:
            out[layer] = None
            continue
        out[layer] = (tau_raw, tau_abs)
    return out


def layerwise_tau(
    weights: dict[str, np.ndarray],
    spec: ModelSpec,
    sample: Dataset,
    clip: ClipConfig = ClipConfig(),
    workers: int = 1,
) -> TauReport:
    """Per-image tau between each layer's representation (raw and absolute)
    and its path counts; mean/std across images, skipped images counted."""
    if len(sample) == 0:
        raise ArgumentError("cannot correlate on an empty sample")
    layers = correlated_layers(spec)
    worker = functools.partial(_tau_one, weights=weights, spec=spec, layers=layers, clip=clip)
    results = pmap(worker, list(sample.images), workers=workers)
    rows = []
    for layer in layers:
        taus = [r[layer] for r in results if r[layer] is not None]
        skipped = len(results) - len(taus)
        if taus:
            raw = np.array([t[0] for t in taus])
            ab = np.array([t[1] for t in taus])
            rows.append(TauRow(layer, float(raw.mean()), float(raw.std()),
                               float(ab.mean()), float(ab.std()), skipped))
        else:
            rows.append(TauRow(layer, float("nan"), float("nan"),
                               float("nan"), float("nan"), skipped))
    meta = {
        "model_sha256": model_digest(weights, spec),
        "samples": len(sample),
        "clip_mode": clip.mode,
        "clip_threshold": clip.threshold,
    }
    return TauReport(rows, meta)


def aggregate_tau(reports: list[TauReport]) -> TauReport:
    """Across-model aggregation (e.g. several training seeds): mean/std of the
    per-model tau means; skipped counts summed."""
    if not reports:
        raise ArgumentError("no reports to aggregate")
    layers = [r.layer for r in reports[0].rows]
    for rep in reports[1:]:
        if [r.layer for r in rep.rows] != layers:
            raise ArgumentError("reports cover different layer sets")
    rows = []
    for layer in layers:
        raws = np.array([rep.row(layer).tau_raw_mean for rep in reports])
        abss = np.array([rep.row(layer).tau_abs_mean for rep in reports])
        skipped = sum(rep.row(layer).skipped_images for rep in reports)
        rows.append(TauRow(layer, float(raws.mean()), float(raws.std()),
                           float(abss.mean()), float(abss.std()), skipped))
    meta = {"models": [rep.metadata.get("model_sha256") for rep in reports],
            "samples": sum(rep.metadata.get("samples", 0) for rep in reports)}
    return TauReport(rows, meta)


TAU_CSV_HEADER = ["layer", "tau_raw_mean", "tau_raw_std", "tau_abs_mean",
                  "tau_abs_std", "skipped_images"]


def tau_csv_rows(report: TauReport) -> list[list]:
    return [[r.layer, r.tau_raw_mean, r.tau_raw_std, r.tau_abs_mean,
             r.tau_abs_std, r.skipped_images] for r in report.rows]
