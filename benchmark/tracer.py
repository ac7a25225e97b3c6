"""Span tracer that wraps pathscope's public functions from outside the package.

`Tracer.install()` replaces every binding of each traced function in the
loaded `pathscope` modules with a wrapper that records one span per call:
name, start, end, parent span, and the command the call belongs to.  A
function imported by name (`from .model import forward`) has one binding per
importing module, and each of them is wrapped.  `uninstall()` puts the
original function objects back, so untraced runs execute unwrapped code.

Spans stay in memory until `write_spans()`.  In forked `pmap` workers the
wrappers still run, but their spans live in the child's memory and are lost:
a trace of a multi-worker command sees only the parent process.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time

PACKAGE = "pathscope"

# Public functions traced, per pathscope module.
TARGETS = {
    "ops": ("conv2d_forward_batch", "conv2d_backward_batch", "maxpool_forward_batch",
            "maxpool_backward_batch", "fc_forward_batch", "fc_backward_batch",
            "relu_forward", "relu_backward", "softmax_cross_entropy_batch"),
    "model": ("forward", "forward_from_layer", "gradient_wrt_layer", "train_sgd",
              "evaluate_accuracy", "load_model", "save_model"),
    "pathcount": ("pathcount_forward", "extract_onoff"),
    "replacement": ("sweep", "scaled_onoff", "scaled_pathcount", "signed_scaled_pathcount"),
    "correlation": ("layerwise_tau", "kendall_tau_b"),
    "cam": ("degradation_score", "target_matching_accuracy", "perturb", "bilinear_resize",
            "make_tiled"),
    "data": ("load_idx", "subsample"),
    "reports": ("write_csv", "write_json", "write_pgm"),
    "parallel": ("pmap",),
    "cli": ("main",),
}

# Traced functions that call other traced functions; they also get `.incl_s`.
NON_LEAF = frozenset({
    "model.forward", "model.forward_from_layer", "model.gradient_wrt_layer",
    "model.train_sgd", "model.evaluate_accuracy", "pathcount.pathcount_forward",
    "replacement.sweep", "replacement.signed_scaled_pathcount", "correlation.layerwise_tau",
    "cam.degradation_score", "cam.target_matching_accuracy", "parallel.pmap", "cli.main",
})


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _conv_flop(x, kernels, stride, padding):
    n, c, h, w = x.shape
    o, _, k, _ = kernels.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    return 2 * n * o * ho * wo * c * k * k


def _conv_forward_counts(args, kwargs, error):
    x, kernels = args[0], args[1]
    flop = _conv_flop(x, kernels, _arg(args, kwargs, 2, "stride", 1),
                      _arg(args, kwargs, 3, "padding", 0))
    return {"items": x.shape[0], "gflop": flop / 1e9,
            "channels": f"{kernels.shape[1]}->{kernels.shape[0]}"}


def _conv_backward_counts(args, kwargs, error):
    x, kernels = args[0], args[1]
    # grad wrt input and grad wrt kernels each cost one forward's flops
    flop = 2 * _conv_flop(x, kernels, _arg(args, kwargs, 2, "stride"),
                          _arg(args, kwargs, 3, "padding"))
    return {"items": x.shape[0], "gflop": flop / 1e9}


def _fc_forward_counts(args, kwargs, error):
    x, weights = args[0], args[1]
    return {"items": x.shape[0], "gflop": 2 * x.shape[0] * weights.size / 1e9}


def _tau_counts(args, kwargs, error):
    x = args[0]
    return {"n": int(x.size if hasattr(x, "size") else len(x)),
            "undefined": int(error == "UndefinedCorrelationError")}


def _pmap_counts(args, kwargs, error):
    items = _arg(args, kwargs, 1, "items")
    return {"items": len(items)} if hasattr(items, "__len__") else {}


def _report_counts(args, kwargs, error):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path)} if error is None else {}


# Extra per-call counts, computed from arguments (and for reports, the file
# written) after the call returns; never inside the span's own interval.
# Only the keys in COUNTER_UNITS are summed into metrics; the others label
# the span.
COUNTERS = {
    "ops.conv2d_forward_batch": _conv_forward_counts,
    "ops.conv2d_backward_batch": _conv_backward_counts,
    "ops.fc_forward_batch": _fc_forward_counts,
    "correlation.kendall_tau_b": _tau_counts,
    "parallel.pmap": _pmap_counts,
    "reports.write_csv": _report_counts,
    "reports.write_json": _report_counts,
    "reports.write_pgm": _report_counts,
}

COUNTER_UNITS = {
    "ops.conv2d_forward_batch": {"items": "count", "gflop": "gflop_computed"},
    "ops.conv2d_backward_batch": {"items": "count", "gflop": "gflop_computed"},
    "ops.fc_forward_batch": {"items": "count", "gflop": "gflop_computed"},
    "correlation.kendall_tau_b": {"n": "count", "undefined": "count"},
    "parallel.pmap": {"items": "count"},
}


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        # span: (name, start, end, parent index or -1, command id, counts, error)
        self.spans: list = []
        self.commands: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_command(self, name: str) -> None:
        """Attribute the spans that follow to a new command invocation."""
        self.commands.append(name)

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                counts = counter(args, kwargs, error) if counter else None
                spans[idx] = (name, start, end, parent, len(tracer.commands) - 1, counts, error)

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every binding of every traced function in the loaded package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding to its original function object."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def bindings(self) -> list[tuple[str, str]]:
        """(module name, attribute) of each patched binding."""
        return [(m.__name__, a) for m, a, _ in self._patched]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, (name, start, end, parent, cmd, counts, error) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "command_id": cmd,
                    "command": self.commands[cmd] if cmd >= 0 else None,
                    "counts": counts, "error": error}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans are recorded from one thread, so a span's children never overlap
    and their union is the sum of their durations."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer_names(commands) -> dict[str, str]:
    """Name -> unit of every metric `summarize` returns."""
    names = {}
    for name in function_names():
        names[f"{name}.calls"] = "count"
        names[f"{name}.self_s"] = "s"
        if name in NON_LEAF:
            names[f"{name}.incl_s"] = "s"
    for name, counts in COUNTER_UNITS.items():
        for key, unit in counts.items():
            names[f"{name}.{key}"] = unit
    names["reports.bytes"] = "bytes"
    for command in commands:
        names[f"cli.main.{command}.incl_s"] = "s"
    return names




def summarize(spans, commands: list[str], all_commands, only: str | None = None
              ) -> dict[str, float]:
    """Per-function calls, self and inclusive seconds, and summed counts,
    with zeros for functions and commands that did not run.  `only` limits
    the sums to the spans of one command name."""
    own = self_times(spans)
    out = {name: 0 for name in per_layer_names(all_commands)}
    for i, (name, start, end, _parent, cmd, counts, _error) in enumerate(spans):
        command = commands[cmd] if cmd >= 0 else None
        if only is not None and command != only:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[i]
        if name in NON_LEAF:
            out[f"{name}.incl_s"] += end - start
        if name == "cli.main" and command is not None:
            out[f"cli.main.{command}.incl_s"] += end - start
        for key, value in (counts or {}).items():
            if key == "bytes":
                out["reports.bytes"] += value
            elif key in COUNTER_UNITS.get(name, ()):
                out[f"{name}.{key}"] += value
    return out
