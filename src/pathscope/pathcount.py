"""On-Off patterns and active-path counting.

A neuron is "on" iff its post-ReLU activation is strictly positive. The path
count of a neuron is the number of active paths reaching it from all input
elements, where a path is active iff every intermediate neuron it visits is
on and every weight it crosses is nonzero (fully-connected weights must
additionally survive the clip threshold).

`pathcount_forward(plan, trace)` computes all counts at once: the model's own
forward pass of an all-ones input over binarized weights, where only ReLU
(gated, as its gradient is, by the traced on/off pattern) and max-pool
(routed by the traced argmax) read the trace. `pathcount_bruteforce` enumerates complete paths one
by one (no memoization) and exists to cross-check the forward recurrence.

The weight-only part is a `PathCountPlan`, `pathcount_plan(weights, spec,
clip)`, which an analysis builds once and shares across its images; every
count goes through one. It holds the resolved layers, each conv and fc
layer's binary mask, or a mark that every weight survives ("dense"), and the
read-only counts of the layers before the first ReLU or pool, which read no
trace. A dense layer takes a closed form in place of a matmul against its
mask. A dense conv layer's counts are, in every output channel, the k x k
box sum at the layer's stride and padding of the channel sum of its input
counts. A dense fc layer gives every output the one sum of its inputs. A
trained float32 weight is practically never exactly 0, so in practice every
conv mask is dense, and so is the fc mask in the default absolute clip of 0.
The clip reads only fc weights, and every fc layer follows every conv layer,
so no conv or conv-ReLU count depends on it.

Counts are float64, integer-exact below 2**53; `exact` says whether every
count is at most 2**53. Counts are nonnegative integers, so every partial
sum of a conv or fc output is at most that output. While `exact` holds, any
summation order therefore gives the same float64, and the closed forms give
the bytes of the matmuls. Past 2**53 the bytes may differ. There a dense fc
layer's counts are exactly tied, where each output of a matmul would round
its own sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ArgumentError, SizeError
from .model import ForwardTrace, ModelSpec, ResolvedLayer, _layer_forward, layer_index, resolve

_EXACT_LIMIT = float(2**53)


@dataclass(frozen=True)
class ClipConfig:
    """Threshold test applied to fully-connected weights during counting.

    mode "absolute": keep |w| > threshold.
    mode "mean": keep |w| > mean(|w|) of that layer; `threshold` is ignored.
    Convolution weights are never clipped (plain |w| > 0 test).
    """

    mode: str = "absolute"
    threshold: float = 0.0

    def __post_init__(self):
        if self.mode not in ("absolute", "mean"):
            raise ArgumentError(f"clip mode must be 'absolute' or 'mean', got {self.mode!r}")
        if not (np.isfinite(self.threshold) and self.threshold >= 0):
            raise ArgumentError(f"clip threshold must be finite and >= 0, got {self.threshold}")


@dataclass(frozen=True)
class PathCountMap:
    """Per-layer path counts in float64; `exact` is False once any count
    exceeds 2**53 (float64 can no longer represent it exactly)."""

    layers: dict[str, np.ndarray]
    exact: bool

    def layer(self, name: str) -> np.ndarray:
        layer_index(list(self.layers), name)
        return self.layers[name]


def extract_onoff(trace: ForwardTrace) -> dict[str, np.ndarray]:
    """Per layer, float64 1 where the traced value is strictly positive, 0 elsewhere."""
    return {name: (out > 0).astype(np.float64) for name, out in trace.outputs.items()}


def clip_fc_weights(weights: np.ndarray, clip: ClipConfig) -> np.ndarray:
    """Binary mask of fully-connected weights surviving the clip threshold."""
    tau = float(np.abs(weights).mean()) if clip.mode == "mean" else clip.threshold
    return (np.abs(weights) > tau).astype(np.float64)


@dataclass(frozen=True)
class PathCountPlan:
    """The part of path counting that reads only the weights, built once for
    one (weights, spec, clip) and shared by every trace counted with them.

    `resolved` is `resolve(spec)`, or a prefix of it that keeps every leading
    layer: `pathcount_forward` counts only these layers, so a caller that
    reads no later count may cut them. `masks` maps each conv and fc layer to
    its float64 binary mask, or to None when every weight survives ("dense").
    `leading` holds the read-only counts of the layers before the first ReLU
    or pool, which read no trace, and `exact` says whether they are exact."""

    resolved: tuple[ResolvedLayer, ...]
    masks: dict[str, np.ndarray | None]
    leading: dict[str, np.ndarray]
    exact: bool


def pathcount_plan(
    weights: dict[str, np.ndarray], spec: ModelSpec, clip: ClipConfig = ClipConfig()
) -> PathCountPlan:
    """The weight-only part of `pathcount_forward`. Build it from the stored
    float32 weights: the mean clip's threshold is their float32 mean."""
    resolved = resolve(spec)
    binary = {r.name: clip_fc_weights(weights[r.name], clip) if r.spec.kind == "fc"
              else (np.abs(weights[r.name]) > 0).astype(np.float64)
              for r in resolved if r.spec.kind in ("conv", "fc")}
    masks = {name: None if m.all() else m for name, m in binary.items()}  # None: dense
    n = next((i for i, r in enumerate(resolved) if r.spec.kind in ("relu", "maxpool")),
             len(resolved))
    leading: dict[str, np.ndarray] = {}
    exact = _propagate(resolved[:n], masks, np.ones((1, *spec.input_shape)), None, leading)
    for c in leading.values():
        c.flags.writeable = False
    return PathCountPlan(resolved, masks, leading, exact)


def pathcount_forward(plan: PathCountPlan, trace: ForwardTrace) -> PathCountMap:
    """All-ones propagation: every input element contributes one path.

    Conv/fc layers sum counts over surviving weights (padding contributes
    nothing; dropout and flatten are identity); ReLU layers zero the counts
    of off neurons; pools forward the argmax winner's count. `plan` is the
    weights' `pathcount_plan`; the counts of its leading layers are returned
    as the plan's own read-only arrays."""
    counts = dict(plan.leading)
    n = len(counts)
    cur = (counts[plan.resolved[n - 1].name][None] if n
           else np.ones((1, *plan.resolved[0].in_shape)))
    exact = _propagate(plan.resolved[n:], plan.masks, cur, trace, counts)
    return PathCountMap(counts, exact and plan.exact)


def _propagate(layers, masks, cur, trace, counts: dict) -> bool:
    """Carry the batch-of-one counts `cur` through `layers`, storing each
    layer's counts in `counts`; return whether every conv and fc count is at
    most 2**53. ReLU gating and pool routing never raise a count, and dropout
    and flatten copy them, so no other layer is checked."""
    exact = True
    for r in layers:
        kind = r.spec.kind
        if kind == "relu":
            cur = ops.relu_backward(trace.outputs[r.name], cur)
        elif kind == "maxpool":
            cur = np.take(cur.reshape(-1), trace.routings[r.name])[None]
        elif kind == "conv" and masks[r.name] is None:
            cur = _dense_conv(r, cur)
        elif kind == "fc" and masks[r.name] is None:
            cur = np.full((1, *r.out_shape), cur.sum())
        else:
            cur, _ = _layer_forward(r, masks, cur)
        if kind in ("conv", "fc"):
            exact = exact and float(cur.max(initial=0.0)) <= _EXACT_LIMIT
        counts[r.name] = cur[0]
    return exact


def _dense_conv(r, cur: np.ndarray) -> np.ndarray:
    """Counts of a conv layer whose mask is all ones: in every output channel,
    the k x k box sum at the layer's stride and padding of the channel sum of
    the input counts, taken as a row pass and then a column pass."""
    (_, h, w), (c_out, oh, ow) = r.in_shape, r.out_shape
    k, s, p = r.spec.kernel, r.spec.stride, r.spec.padding
    plane = np.zeros((h + 2 * p, w + 2 * p))
    plane[p:p + h, p:p + w] = cur[0].sum(axis=0)
    rows = plane[:, :s * (ow - 1) + 1:s]
    for i in range(1, k):
        rows = rows + plane[:, i:i + s * (ow - 1) + 1:s]
    box = rows[:s * (oh - 1) + 1:s]
    for i in range(1, k):
        box = box + rows[i:i + s * (oh - 1) + 1:s]
    out = np.empty((1, c_out, oh, ow))
    out[...] = box
    return out


_PATH_LIMIT = 10_000_000
_VISIT_LIMIT = 50_000_000


def pathcount_bruteforce(
    weights: dict[str, np.ndarray],
    spec: ModelSpec,
    trace: ForwardTrace,
    clip: ClipConfig,
    target: tuple[str, int],
) -> int:
    """Depth-first enumeration of complete active paths to one neuron.

    Deliberately unmemoized — every complete path is walked individually —
    so it is an independent oracle for pathcount_forward. Guards against
    blowup with SizeError once 10^7 paths (or 5x10^7 expansions) are seen.
    """
    resolved = resolve(spec)
    names = [r.name for r in resolved]
    layer_name, neuron = target
    li = layer_index(names, layer_name)
    if not 0 <= neuron < int(np.prod(resolved[li].out_shape)):
        raise ArgumentError(f"neuron {neuron} out of range for {layer_name} {resolved[li].out_shape}")

    fc_masks = {r.name: clip_fc_weights(weights[r.name], clip) > 0
                for r in resolved if r.spec.kind == "fc"}
    on = {name: (out > 0).reshape(-1) for name, out in trace.outputs.items()}

    paths = 0
    visits = 0

    def walk(i: int, idx: int) -> None:
        # Count complete paths from layer i's output neuron `idx` back to input.
        nonlocal paths, visits
        visits += 1
        if visits > _VISIT_LIMIT:
            raise SizeError(f"path enumeration exceeded {_VISIT_LIMIT} expansions")
        if i < 0:
            paths += 1
            if paths > _PATH_LIMIT:
                raise SizeError(f"more than {_PATH_LIMIT} paths to {layer_name}[{neuron}]")
            return
        r = resolved[i]
        s = r.spec
        if s.kind == "conv":
            co, oy, ox = np.unravel_index(idx, r.out_shape)
            c_in, h_in, w_in = r.in_shape
            w = weights[r.name]
            for ci in range(c_in):
                for ky in range(s.kernel):
                    iy = oy * s.stride - s.padding + ky
                    if not 0 <= iy < h_in:
                        continue
                    for kx in range(s.kernel):
                        ix = ox * s.stride - s.padding + kx
                        if not 0 <= ix < w_in:
                            continue
                        if w[co, ci, ky, kx] != 0:
                            walk(i - 1, int(ci * h_in * w_in + iy * w_in + ix))
        elif s.kind == "relu":
            if on[r.name][idx]:
                walk(i - 1, idx)
        elif s.kind == "maxpool":
            walk(i - 1, int(trace.routings[r.name].reshape(-1)[idx]))
        elif s.kind == "fc":
            row = fc_masks[r.name][idx]
            for k in np.nonzero(row)[0]:
                walk(i - 1, int(k))
        else:  # dropout / flatten: same flat position
            walk(i - 1, idx)

    walk(li, int(neuron))
    return paths
