"""Tie-corrected Kendall rank correlation between layer representations and
their path counts.

tau-b = (C - D) / sqrt((n0 - n1)(n0 - n2)) over all index pairs, where C/D
count concordant/discordant pairs, n0 = n(n-1)/2, and n1/n2 count tied pairs
within each vector. The heavy zero-tie structure at ReLU layers is exactly
why the tie-corrected variant is used.

The pair counts are computed as exact integers and combined in a single
final division, so small hand-checkable inputs give bit-exact ratios like
4/5 = 0.8. One sort of y gives its tied pairs n2 and its dense ranks r; a
stable sort of x over that order sorts by x with ties by y, and its run
boundaries give n1 and the jointly tied pairs n3. In that order the
discordant pairs are the inversions of r (Knight, JASA 1966), counted two
bits of r per pass: a stable group sort by the bits above the digit and one
int64 cumsum that packs the three counters "digit >= 1, 2, 3". That is
O(n log n * ceil(log2(k) / 2)) for k distinct values of y, and path counts
have few. Ranks are uint16 while k <= 65,536, so the group sorts are radix
sorts. NaN has no rank, so NaN input raises NumericalError. The sort of y
need not be stable: values tied in y share a rank, so their order changes
no run and no inversion.

Most of a ReLU layer is one block Z = {x == 0}: off neurons have x = 0 and
count 0, and so does a conv window whose inputs are all off (0.86-0.91 of
each ReLU layer and 0.55-0.65 of conv2/conv3 on the desk model). When y is
one constant c on all of Z, only Z's complement is sorted. Pairs inside Z
are joint ties. A pair across Z is never tied in x, and its sign is
sign(x_j) * sign(y_j - c), taken by comparison because inf - inf is NaN;
it is tied in y exactly when y_j == c, for the q such j. So with z = |Z|
and primes for the complement's counts, n1 = C(z,2) + n1',
n2 = C(z,2) + z*q + n2' and C - D = (C - D)' + z * sum_j sign(x_j) *
sign(y_j - c). These are the same integers as the whole vector's counts,
and the one final division is unchanged, so the float is the same. On
conv1 the zero block's counts differ at the padded borders, so the whole
vector is sorted there.

One tau per image over all neurons of a layer, then mean +/- std across
images; multiple models (training seeds) aggregate across reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .data import Dataset
from .errors import ArgumentError, NumericalError, UndefinedCorrelationError
from .model import ModelSpec, forward, gemm_operands, model_digest, resolve
from .parallel import pmap
from .pathcount import ClipConfig, pathcount_forward, pathcount_plan


def _tied_pairs(change: np.ndarray) -> int:
    """Pairs of equal values in a sorted vector, from its run boundaries
    `change = v[1:] != v[:-1]`."""
    lengths = np.diff(np.concatenate(([-1], np.flatnonzero(change), [change.size])))
    return int((lengths * (lengths - 1)).sum()) // 2


def _dense_ranks(v: np.ndarray):
    """(argsort of v, its run boundaries in that order, v's dense ranks, the
    number of distinct values). The argsort is numpy's default, not stable:
    the order of equal values changes no rank and no count. Ranks are uint16
    while they fit, so a stable argsort of them is numpy's radix sort."""
    order = np.argsort(v)
    vs = v[order]
    change = vs[1:] != vs[:-1]
    k = int(np.count_nonzero(change)) + (v.size > 0)
    dtype = np.uint16 if k <= 1 << 16 else np.intp
    in_order = np.zeros(v.size, dtype)
    np.cumsum(change, dtype=dtype, out=in_order[1:])
    ranks = np.empty(v.size, dtype)
    ranks[order] = in_order
    return order, change, ranks, k


def _digit_tables(w: int):
    """Tables for w-bit digits, whose 2**w - 1 counters "digit >= m" share
    one int64 as fields of 63 // (2**w - 1) bits: each digit's packed
    increment, each digit's shift to the field that counts larger digits,
    and the field mask."""
    width = 63 // ((1 << w) - 1)
    digits = np.arange(1 << w)
    step = sum((digits >= m).astype(np.int64) << width * (m - 1) for m in range(1, 1 << w))
    return step, digits * width, (1 << width) - 1


# Two-bit digits pack three 21-bit counters, so they need n < 2**21; longer
# vectors take one bit per pass.
_PACKED_LIMIT = 1 << 21
_DIGITS = {w: _digit_tables(w) for w in (1, 2)}


def _rank_inversions(ranks: np.ndarray, bits: int) -> int:
    """Number of pairs i<j with ranks[i] > ranks[j], for ranks below 2**bits.

    An inverted pair's ranks agree above some w-bit digit, where the earlier
    element's digit is the larger. So for each digit position, from the top,
    stably grouping by the bits above it and counting, for each element, the
    earlier elements of its group with a larger digit counts every inversion
    exactly once. One int64 cumsum holds the 2**w - 1 counters "digit >= m"
    side by side; the top digit's group is the whole vector.
    """
    n = ranks.size
    w = 2 if n < _PACKED_LIMIT else 1
    step, shift, mask = _DIGITS[w]
    top = (bits - 1) // w * w
    inv = 0
    for b in range(top, -1, -w):
        rs = ranks if b == top else ranks[np.argsort(ranks >> (b + w), kind="stable")]
        d = (rs >> b) & ((1 << w) - 1)
        counts = np.cumsum(step.take(d))
        if b != top:
            group = rs >> (b + w)
            starts = np.flatnonzero(group[1:] != group[:-1]) + 1
            if starts.size:
                # no field borrows: each counter is at least what it carried in
                counts[starts[0]:] -= np.repeat(counts[starts - 1], np.diff(starts, append=n))
        inv += int(((counts >> shift.take(d)) & mask).sum())
    return inv


def _inversions(a: np.ndarray) -> int:
    """Number of pairs i<j with a[i] > a[j]."""
    _, _, ranks, k = _dense_ranks(np.asarray(a, dtype=np.float64).reshape(-1))
    return _rank_inversions(ranks, max(k - 1, 0).bit_length())


def _tau_counts(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int]:
    """(pairs tied in x, pairs tied in y, concordant minus discordant pairs)."""
    n = int(x.size)
    oy, ychange, ranks, k = _dense_ranks(y)
    # by x, ties by y: a stable sort of the y-sorted order
    order = oy[np.argsort(x[oy], kind="stable")]
    xs, r = x[order], ranks[order]
    xchange = xs[1:] != xs[:-1]
    n1 = _tied_pairs(xchange)
    n2 = _tied_pairs(ychange)
    n3 = _tied_pairs(xchange | (r[1:] != r[:-1]))
    # x-tied pairs are in y order, so every inversion of r is a
    # strictly-discordant pair and vice versa
    disc = _rank_inversions(r, (k - 1).bit_length())
    return n1, n2, (n * (n - 1) // 2 - n1 - n2 + n3) - 2 * disc


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
    zero = x == 0
    yz = y[zero]
    if yz.size and (yz == yz[0]).all():
        # x's zero block, on which y is the constant c: only its complement
        # is sorted
        z, c = int(yz.size), yz[0]
        x, y = x[~zero], y[~zero]
        n1, n2, conc_minus_disc = _tau_counts(x, y)
        pos, above, below = x > 0, y > c, y < c
        ups, downs = int(np.count_nonzero(above)), int(np.count_nonzero(below))
        # a cross pair is never tied in x, is tied in y where y_j == c, and
        # has the sign sign(x_j) * sign(y_j - c)
        conc_minus_disc += z * (2 * int(np.count_nonzero(pos & above)) - ups
                                - 2 * int(np.count_nonzero(pos & below)) + downs)
        block = z * (z - 1) // 2
        n1 += block
        n2 += block + z * (x.size - ups - downs)
    else:
        n1, n2, conc_minus_disc = _tau_counts(x, y)
    n0 = n * (n - 1) // 2
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


def _tau_one(x, *, weights, spec, layers, plan):
    """Per-image worker: (tau_raw, tau_abs) per layer, or None where the
    correlation is undefined (all-ties on either side). `plan` is the
    weights' pathcount_plan."""
    trace = forward(weights, spec, x)
    counts = pathcount_forward(plan, trace)
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
    worker = functools.partial(_tau_one, weights=gemm_operands(weights), spec=spec,
                               layers=layers, plan=pathcount_plan(weights, spec, clip))
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


TAU_CSV_HEADER = [f.name for f in fields(TauRow)]


def tau_csv_rows(report: TauReport) -> list[list]:
    return [list(astuple(r)) for r in report.rows]
