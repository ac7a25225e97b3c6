"""Bias-free ReLU convnets: architecture specs, tracing, training, persistence.

A model is a ModelSpec (ordered layer list) plus a dict of float32 weight
tensors keyed by layer name. Names follow the conv1.conv / conv1.relu /
fc1 scheme so analysis reports read naturally layer by layer.

Forward tracing never applies dropout; dropout is a training-only layer.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, get_type_hints

import numpy as np

from . import ops
from .errors import ArgumentError, FormatError, NumericalError, ShapeError, SpecError

_MAGIC = b"NPSC"
_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network; unused fields stay at their zero defaults."""

    kind: str  # conv | relu | maxpool | dropout | flatten | fc
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    window: int = 0
    out_features: int = 0
    rate: float = 0.0


def conv(out_channels: int, kernel: int = 3, stride: int = 1, padding: int = 1) -> LayerSpec:
    return LayerSpec("conv", out_channels=out_channels, kernel=kernel, stride=stride, padding=padding)


def relu() -> LayerSpec:
    return LayerSpec("relu")


def maxpool(window: int = 2, stride: int = 2) -> LayerSpec:
    return LayerSpec("maxpool", window=window, stride=stride)


def dropout(rate: float = 0.25) -> LayerSpec:
    return LayerSpec("dropout", rate=rate)


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def fc(out_features: int) -> LayerSpec:
    return LayerSpec("fc", out_features=out_features)


@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple[int, int, int]  # [C,H,W]
    num_classes: int
    layers: tuple[LayerSpec, ...]

    @functools.cached_property
    def _resolved(self) -> tuple[ResolvedLayer, ...]:
        # kept in the instance dict, outside the fields that eq, hash and repr
        # read; a SpecError is raised again on every access, never cached
        return _resolve(self)


class ResolvedLayer(NamedTuple):
    spec: LayerSpec
    name: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]


def resolve(spec: ModelSpec) -> tuple[ResolvedLayer, ...]:
    """Assign names and propagate shapes; raises SpecError if layers don't compose.
    Resolved once per spec object and kept on it."""
    return spec._resolved


def _resolve(spec: ModelSpec) -> tuple[ResolvedLayer, ...]:
    if len(spec.input_shape) != 3 or any(d < 1 for d in spec.input_shape):
        raise SpecError(f"input shape must be [C,H,W] positive, got {spec.input_shape}")
    if spec.num_classes < 2:
        raise SpecError(f"need at least 2 classes, got {spec.num_classes}")
    counters = {"conv": 0, "maxpool": 0, "dropout": 0, "flatten": 0, "fc": 0, "relu": 0}
    out: list[ResolvedLayer] = []
    shape: tuple[int, ...] = spec.input_shape
    prev_name = ""
    prev_kind = ""
    for layer in spec.layers:
        k = layer.kind
        if k == "conv":
            if len(shape) != 3:
                raise SpecError(f"conv needs a [C,H,W] input, got {shape}")
            if layer.out_channels < 1 or layer.kernel < 1 or layer.stride < 1 or layer.padding < 0:
                raise SpecError(f"bad conv geometry: {layer}")
            oh, ow = ops.conv_output_hw(shape[1], shape[2], layer.kernel, layer.stride, layer.padding)
            if oh < 1 or ow < 1:
                raise SpecError(f"conv collapses {shape} to {(layer.out_channels, oh, ow)}")
            counters["conv"] += 1
            name = f"conv{counters['conv']}.conv"
            new_shape: tuple[int, ...] = (layer.out_channels, oh, ow)
        elif k == "relu":
            if prev_kind == "conv":
                name = prev_name.replace(".conv", ".relu")
            elif prev_kind == "fc":
                name = f"{prev_name}.relu"
            else:
                counters["relu"] += 1
                name = f"relu{counters['relu']}"
            new_shape = shape
        elif k == "maxpool":
            if len(shape) != 3:
                raise SpecError(f"maxpool needs a [C,H,W] input, got {shape}")
            if layer.window < 1 or layer.stride < 1 or layer.window > min(shape[1], shape[2]):
                raise SpecError(f"pool window {layer.window}, stride {layer.stride} do not fit {shape}")
            oh = (shape[1] - layer.window) // layer.stride + 1
            ow = (shape[2] - layer.window) // layer.stride + 1
            counters["maxpool"] += 1
            name = f"pool{counters['maxpool']}"
            new_shape = (shape[0], oh, ow)
        elif k == "dropout":
            if not 0.0 <= layer.rate < 1.0:
                raise SpecError(f"dropout rate must be in [0,1), got {layer.rate}")
            counters["dropout"] += 1
            name = f"dropout{counters['dropout']}"
            new_shape = shape
        elif k == "flatten":
            counters["flatten"] += 1
            name = f"flatten{counters['flatten']}"
            new_shape = (int(np.prod(shape)),)
        elif k == "fc":
            if len(shape) != 1:
                raise SpecError(f"fc needs a flat input, got {shape}; add a flatten layer")
            if layer.out_features < 1:
                raise SpecError(f"bad fc width: {layer}")
            counters["fc"] += 1
            name = f"fc{counters['fc']}"
            new_shape = (layer.out_features,)
        else:
            raise SpecError(f"unknown layer kind {layer.kind!r}")
        out.append(ResolvedLayer(layer, name, shape, new_shape))
        shape = new_shape
        prev_name, prev_kind = name, k
    if not out:
        raise SpecError("model has no layers")
    if shape != (spec.num_classes,):
        raise SpecError(f"final layer produces {shape}, expected ({spec.num_classes},)")
    return tuple(out)


def layer_names(spec: ModelSpec) -> list[str]:
    return [r.name for r in resolve(spec)]


def layer_index(names: list[str], name: str) -> int:
    """Position of `name` in `names`; ArgumentError listing the known names otherwise."""
    if name not in names:
        raise ArgumentError(f"no layer named {name!r}; known: {', '.join(names)}")
    return names.index(name)


def _param_shape(r: ResolvedLayer) -> tuple[int, ...] | None:
    if r.spec.kind == "conv":
        return (r.spec.out_channels, r.in_shape[0], r.spec.kernel, r.spec.kernel)
    if r.spec.kind == "fc":
        return (r.spec.out_features, r.in_shape[0])
    return None


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    return {r.name: s for r in resolve(spec) if (s := _param_shape(r)) is not None}


def build_model(spec: ModelSpec, seed: int) -> dict[str, np.ndarray]:
    """He-style init: zero-mean normal with std sqrt(2/fan_in), float32."""
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(spec).items():
        fan_in = int(np.prod(shape[1:]))
        std = math.sqrt(2.0 / fan_in)
        weights[name] = rng.normal(0.0, std, size=shape).astype(np.float32)
    return weights


def _check_weights(weights: dict[str, np.ndarray], spec: ModelSpec) -> None:
    expected = param_shapes(spec)
    got = {k: tuple(v.shape) for k, v in weights.items()}
    if got != expected:
        raise ShapeError(f"weight shapes {got} do not match spec {expected}")


@dataclass
class ForwardTrace:
    """Every layer's output (dropout inactive), pool routings, and the input."""

    input: np.ndarray
    names: list[str]
    outputs: dict[str, np.ndarray]
    routings: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def logits(self) -> np.ndarray:
        return self.outputs[self.names[-1]]

    def output(self, name: str) -> np.ndarray:
        layer_index(self.names, name)
        return self.outputs[name]

    def pre_activation(self, name: str) -> np.ndarray:
        """The tensor that fed the named layer (the previous layer's output)."""
        i = layer_index(self.names, name)
        return self.input if i == 0 else self.outputs[self.names[i - 1]]


class Workspace:
    """The arrays that one train_sgd, predict_batch or evaluate_accuracy call
    writes its layers' outputs and gradients into, reused by every batch. It
    lives as long as the call, so no batch frees memory that the next one
    must fault in again, and no memory is held between calls.

    Every array has a leading batch axis. A smaller batch, such as the last
    partial one, gets its own shape as the leading rows of the same array."""

    def __init__(self):
        self._arrays: dict = {}

    def array(self, key, shape, dtype, avoid=None):
        """A [shape] array of `dtype` kept under `key`, or a second one when
        the first shares memory with `avoid`."""
        pair = self._arrays.setdefault((key, shape[1:], np.dtype(dtype)), [])
        for i, a in enumerate(pair):
            if avoid is None or not np.may_share_memory(a, avoid):
                if len(a) < shape[0]:
                    a = pair[i] = np.empty(shape, dtype)
                return a[:shape[0]]
        pair.append(np.empty(shape, dtype))
        return pair[-1]


# Layer kinds whose output, once written, no cache entry holds: each entry
# keeps its layer's input. A ReLU or dropout that follows one of them may
# overwrite that output in place.
_UNHELD_OUTPUT = ("conv", "maxpool", "fc")


def _layer_forward(r: ResolvedLayer, weights, x, drop_rng=None, ws=None, inplace=False):
    """One layer on a batch, training exactly when given a `drop_rng` for its
    dropout mask; returns (output, aux), aux being the pool routing, the
    dropout mask, or None.

    Each output goes into a new array, or with a Workspace `ws` into one of
    its arrays: a training forward keeps one set per layer, which the cache
    holds until the reverse sweep; an inference forward, which keeps nothing,
    takes for each output one of two arrays per shape, the one its input is
    not in. `inplace` lets a ReLU or dropout overwrite its input."""
    s = r.spec
    train = drop_rng is not None

    def out(role="out", dtype=x.dtype):
        shape = (len(x), *r.out_shape)
        if ws is None:
            return np.empty(shape, dtype)
        return ws.array((r.name, role), shape, dtype) if train else ws.array(role, shape, dtype, x)

    if s.kind == "conv":
        return ops.conv2d_forward_batch(x, weights[r.name], s.stride, s.padding, out=out()), None
    if s.kind == "relu":
        return ops.relu_forward(x, out=x if inplace else out()), None
    if s.kind == "maxpool":
        return ops.maxpool_forward_batch(x, s.window, s.stride, out=(out(), out("routing", np.int64)))
    if s.kind == "dropout":
        if train and s.rate > 0.0:
            mask = out("mask")
            np.greater_equal(drop_rng.random(x.shape), s.rate, out=mask)
            mask /= np.float32(1.0 - s.rate)
            return np.multiply(x, mask, out=x if inplace else out()), mask
        return x, None
    if s.kind == "flatten":
        return x.reshape(x.shape[0], -1), None
    return ops.fc_forward_batch(x, weights[r.name], out=out()), None


def _layer_backward(r: ResolvedLayer, weights, x_in, aux, g, input_grad=True, weight_grad=True,
                    ws=None):
    """Reverse of _layer_forward for upstream grad `g`; returns
    (grad wrt x_in, weight grad summed over the batch or None). A conv layer
    given input_grad=False skips its input gradient and returns None for it,
    and an fc layer given weight_grad=False its weight gradient.

    With the Workspace of a training forward, whose entries nothing reads
    once popped, the gradient goes into one of two "grad" arrays per shape,
    the one `g` is not in. A ReLU writes it over its own cached output and a
    dropout over `g`, each of which it alone still reads."""
    s = r.spec

    def out():
        return None if ws is None else ws.array("grad", x_in.shape, g.dtype, g)

    if s.kind == "conv":
        return ops.conv2d_backward_batch(x_in, weights[r.name], s.stride, s.padding, g,
                                         input_grad=input_grad, out=out() if input_grad else None)
    if s.kind == "relu":
        return ops.relu_backward(x_in, g, out=None if ws is None else x_in), None
    if s.kind == "maxpool":
        return ops.maxpool_backward_batch(x_in.shape, aux, g, out=out()), None
    if s.kind == "dropout":
        return (g if aux is None else np.multiply(g, aux, out=None if ws is None else g)), None
    if s.kind == "flatten":
        return g.reshape(x_in.shape), None
    return ops.fc_backward_batch(x_in, weights[r.name], g, weight_grad=weight_grad, out=out())


def _forward_batch(weights, layers, xb, drop_rng=None, ws=None):
    """Run batch `xb` through `layers`, any slice of resolve(spec); returns
    (output, cache), one (layer, its input, its _layer_forward aux) entry per
    layer, which _backward_batch reverses. The forward trains exactly when it
    is given a `drop_rng`, which draws its dropout masks.

    A training forward caches each ReLU's output in place of its input, so a
    pre-activation is freed as soon as its ReLU has run: relu_backward reads
    only where its argument is > 0, and relu(x) > 0 exactly where x > 0. Its
    dropout entries keep no input, since dropout's reverse step reads only
    the mask.

    An inference forward raises NumericalError when its output is not
    finite: finite weights can still overflow float32, and argmax over inf
    or NaN logits would score the model as if it had predicted. numpy's
    overflow and invalid-value warnings are off in the layer loop, since
    that check (or, in training, train_sgd's loss check) reports it.

    With a Workspace `ws` every layer writes into its arrays (_layer_forward);
    an inference forward, whose next layers reuse them, then keeps no cache
    and returns None for it. No forward writes xb."""
    if layers and xb.shape[1:] != layers[0].in_shape:
        raise ShapeError(f"input shape {xb.shape[1:]} != {layers[0].name} input {layers[0].in_shape}")
    train = drop_rng is not None
    kept = [] if train or ws is None else None
    cur = xb
    prev = None
    with np.errstate(over="ignore", invalid="ignore"):
        for r in layers:
            y, aux = _layer_forward(r, weights, cur, drop_rng, ws,
                                    inplace=ws is not None and prev in _UNHELD_OUTPUT)
            if kept is not None:
                held = {"relu": y, "dropout": None}.get(r.spec.kind, cur) if train else cur
                kept.append((r, held, aux))
            cur, prev = y, r.spec.kind
    if not train and not np.isfinite(cur).all():
        raise NumericalError(f"non-finite logits: {int(np.sum(~np.isfinite(cur)))} of "
                             f"{cur.size} values are inf or NaN")
    return cur, kept


def _backward_batch(weights, cache, g, train, ws=None):
    """Reverse sweep over a _forward_batch cache for upstream grad `g`,
    releasing each entry once its layer's gradient is taken, so the cache
    ends empty; returns (grad wrt the first cached input, parameter gradients
    summed over the batch). A training step (train=True) needs no image
    gradient, so a leading conv layer skips it and the first element is None;
    otherwise no fc layer computes its weight gradient. `ws` is the Workspace
    of the training forward that made the cache, if it had one."""
    grads: dict[str, np.ndarray] = {}
    while cache:
        r, x_in, aux = cache.pop()
        g, gw = _layer_backward(r, weights, x_in, aux, g, not train or bool(cache), train, ws)
        if gw is not None:
            grads[r.name] = gw
    return g, grads


def forward(weights: dict[str, np.ndarray], spec: ModelSpec, x: np.ndarray) -> ForwardTrace:
    """Trace a single [C,H,W] input through the network (dropout inactive)."""
    resolved = resolve(spec)
    _check_weights(weights, spec)
    x = np.asarray(x)
    out, cache = _forward_batch(weights, resolved, x[None])
    names = [r.name for r in resolved]
    outputs = [x_in[0] for _, x_in, _ in cache[1:]] + [out[0]]
    routings = {r.name: aux[0] for r, _, aux in cache if aux is not None}
    return ForwardTrace(x, names, dict(zip(names, outputs)), routings)


def forward_from_layer(
    weights: dict[str, np.ndarray], spec: ModelSpec, layer: str, activation: np.ndarray
) -> np.ndarray:
    """Resume inference just after `layer`, using `activation` as its output."""
    resolved = resolve(spec)
    i = layer_index(layer_names(spec), layer)
    cur = np.asarray(activation)
    # checked here too: resuming after the last layer runs an empty slice
    if tuple(cur.shape) != resolved[i].out_shape:
        raise ShapeError(f"activation shape {cur.shape} != {layer} output {resolved[i].out_shape}")
    out, _ = _forward_batch(weights, resolved[i + 1:], cur[None])
    return out[0]


def gradient_wrt_layer(
    weights: dict[str, np.ndarray],
    spec: ModelSpec,
    trace: ForwardTrace,
    layer: str,
    class_index: int,
) -> np.ndarray:
    """d(logit of class_index) / d(output of `layer`), via reverse sweep."""
    resolved = resolve(spec)
    stop = layer_index(layer_names(spec), layer)
    if not 0 <= class_index < spec.num_classes:
        raise ArgumentError(f"class {class_index} out of range for {spec.num_classes} classes")
    g = np.zeros((1, spec.num_classes), dtype=trace.logits.dtype)
    g[0, class_index] = 1
    cache = [(r, trace.pre_activation(r.name)[None],
              trace.routings[r.name][None] if r.name in trace.routings else None)
             for r in resolved[stop + 1:]]
    g, _ = _backward_batch(weights, cache, g, train=False)
    return g[0]


def gemm_operands(weights: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Float64 copies of the weights: the dtype every conv and fc matmul in
    `ops` computes in, so given these the ops cast nothing. An analysis builds
    them once and runs its per-image passes on them; every result is bit for
    bit that of the float32 weights. Digests and path-count plans read the
    stored float32 weights."""
    return {name: w.astype(np.float64) for name, w in weights.items()}


# --- training and batched prediction ---

def check_dataset(dataset, spec: ModelSpec, task: str) -> None:
    """ArgumentError if `dataset` is empty or has a label the model has no class for."""
    labels = dataset.labels
    if len(labels) == 0:
        raise ArgumentError(f"cannot {task} an empty dataset")
    if labels.max() >= spec.num_classes:
        raise ArgumentError(f"label {labels.max()} out of range for {spec.num_classes} classes")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ArgumentError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ArgumentError(f"epochs/batch size must be >= 1, got {self.epochs}/{self.batch_size}")


def train_sgd(weights, spec, dataset, config: TrainConfig):
    """Plain SGD over shuffled minibatches; returns (new weights, epoch mean losses).

    Deterministic given config.seed. Aborts with NumericalError on NaN loss.
    """
    _check_weights(weights, spec)
    images, labels = dataset.images, dataset.labels
    n = len(labels)
    check_dataset(dataset, spec, "train on")
    w = {k: v.copy() for k, v in weights.items()}
    shuffle_rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)
    lr = config.learning_rate
    ws = Workspace()
    history = []
    for _epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            xb = ws.array("input", (len(idx), *images.shape[1:]), images.dtype)
            np.take(images, idx, axis=0, out=xb, mode="clip")  # in range; "raise" would buffer out
            logits, cache = _forward_batch(w, resolve(spec), xb, drop_rng, ws)
            with np.errstate(over="ignore", invalid="ignore"):  # checked next
                losses, grad_logits = ops.softmax_cross_entropy_batch(logits, labels[idx])
                loss = float(losses.mean())
            if not math.isfinite(loss):
                raise NumericalError(f"non-finite loss {loss} at epoch {_epoch}, sample offset {start}")
            epoch_loss += loss * len(idx)
            _, grads = _backward_batch(w, cache, grad_logits / np.float32(len(idx)), train=True,
                                       ws=ws)
            for name, gw in grads.items():
                w[name] -= np.float32(lr) * gw
        history.append(epoch_loss / n)
    return w, history


# The training batch. Inference keeps no cache, so it holds about two layers'
# activations of one batch at a time. Each image is its own conv matmul, so a
# batch of a few dozen images already spreads the per-layer call overhead,
# and a larger batch runs no faster, only holds more.
_PREDICT_BATCH = 64


def predict_batch(weights, spec, images) -> np.ndarray:
    """Argmax class per image; ties break to the lowest class index."""
    preds = []
    ws = Workspace()
    for start in range(0, len(images), _PREDICT_BATCH):
        logits, _ = _forward_batch(weights, resolve(spec), images[start:start + _PREDICT_BATCH],
                                   ws=ws)
        preds.append(np.argmax(logits, axis=1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def evaluate_accuracy(weights, spec, dataset) -> float:
    preds = predict_batch(weights, spec, dataset.images)  # a shape error outranks a label error
    check_dataset(dataset, spec, "evaluate on")
    return float(np.mean(preds == dataset.labels))


# --- persistence ---

# The LayerSpec fields each layer kind persists in the model header; each is
# written and read back with the type LayerSpec declares for it, so that
# dropout(0) saves as the 0.0 it loads as.
_LAYER_FIELDS = {
    "conv": ("out_channels", "kernel", "stride", "padding"),
    "relu": (),
    "maxpool": ("window", "stride"),
    "dropout": ("rate",),
    "flatten": (),
    "fc": ("out_features",),
}
_FIELD_TYPES = get_type_hints(LayerSpec)


def _layer_to_json(layer: LayerSpec) -> dict:
    return {"kind": layer.kind,
            **{f: _FIELD_TYPES[f](getattr(layer, f)) for f in _LAYER_FIELDS[layer.kind]}}


def _header(spec: ModelSpec) -> bytes:
    """The model header: compact JSON with sorted keys, whose tensor table is
    param_shapes(spec) in layer order. save_model writes it and load_model
    accepts only it."""
    header = {
        "input_shape": list(spec.input_shape),
        "num_classes": spec.num_classes,
        "layers": [_layer_to_json(l) for l in spec.layers],
        "tensors": [{"name": n, "shape": list(s)} for n, s in param_shapes(spec).items()],
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def serialize_model(weights: dict[str, np.ndarray], spec: ModelSpec) -> bytes:
    """NPSC container: magic, version byte, u32-LE length-prefixed JSON header,
    then each tensor as raw little-endian float32 in layer (declaration) order."""
    _check_weights(weights, spec)
    blob = _header(spec)
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(bytes([_VERSION]))
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    for n in param_shapes(spec):
        buf.write(np.ascontiguousarray(weights[n], dtype="<f4").tobytes())
    return buf.getvalue()


def save_model(weights: dict[str, np.ndarray], spec: ModelSpec, path) -> None:
    data = serialize_model(weights, spec)
    with open(path, "wb") as f:
        f.write(data)


def load_model(path) -> tuple[ModelSpec, dict[str, np.ndarray]]:
    """Loads a file only in the form save_model writes, so its sha256 is the
    model_digest of what it loads as."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 9 or data[:4] != _MAGIC:
        raise FormatError(f"{path}: not a model file (bad magic)")
    if data[4] != _VERSION:
        raise FormatError(f"{path}: unsupported model version {data[4]}")
    (hlen,) = struct.unpack("<I", data[5:9])
    if 9 + hlen > len(data):
        raise FormatError(f"{path}: truncated header")
    blob = data[9:9 + hlen]
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: unreadable header: {e}") from e
    try:
        spec = ModelSpec(
            input_shape=tuple(int(v) for v in header["input_shape"]),
            num_classes=int(header["num_classes"]),
            layers=tuple(LayerSpec(l["kind"], **{f: _FIELD_TYPES[f](l[f])
                                                 for f in _LAYER_FIELDS[l["kind"]]})
                         for l in header["layers"]),
        )
        canonical = _header(spec)
    except (KeyError, TypeError, ValueError, OverflowError, SpecError) as e:
        raise FormatError(f"{path}: malformed header: {e}") from e
    if blob != canonical:
        raise FormatError(f"{path}: header is not what save_model writes for its spec")
    weights: dict[str, np.ndarray] = {}
    off = 9 + hlen
    for name, shape in param_shapes(spec).items():
        nbytes = int(np.prod(shape)) * 4
        if off + nbytes > len(data):
            raise FormatError(f"{path}: truncated tensor {name}")
        weights[name] = np.frombuffer(data[off:off + nbytes], dtype="<f4").reshape(shape).copy()
        if not np.isfinite(weights[name]).all():
            raise FormatError(f"{path}: tensor {name} has non-finite values")
        off += nbytes
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes after tensors")
    return spec, weights


def model_digest(weights: dict[str, np.ndarray], spec: ModelSpec) -> str:
    return hashlib.sha256(serialize_model(weights, spec)).hexdigest()


# --- stock architectures ---

def reference_spec(in_channels: int = 1, image_hw: int = 28, num_classes: int = 10) -> ModelSpec:
    """Five 32-channel 3x3 same-padding conv blocks, one 2x2 pool, dropout, one fc head."""
    layers = []
    for _ in range(5):
        layers += [conv(32), relu()]
    layers += [maxpool(2, 2), dropout(0.25), flatten(), fc(num_classes)]
    return ModelSpec((in_channels, image_hw, image_hw), num_classes, tuple(layers))


def desk_spec(in_channels: int = 1, image_hw: int = 28, num_classes: int = 10) -> ModelSpec:
    """Small profile for laptop-scale runs: three 8-channel conv blocks, same head."""
    layers = []
    for _ in range(3):
        layers += [conv(8), relu()]
    layers += [maxpool(2, 2), dropout(0.25), flatten(), fc(num_classes)]
    return ModelSpec((in_channels, image_hw, image_hw), num_classes, tuple(layers))


def desk_train_config(seed: int = 0) -> TrainConfig:
    return TrainConfig(learning_rate=0.06, epochs=10, batch_size=64, seed=seed)


def reference_train_config(seed: int = 0) -> TrainConfig:
    return TrainConfig(learning_rate=0.001, epochs=100, batch_size=64, seed=seed)
