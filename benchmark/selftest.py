#!/usr/bin/env python3
"""Tracer self-test at minimal sizes.

    python3 benchmark/selftest.py

Checks, from the root of a checkout:

- while installed, the tracer wraps every binding of each traced function,
  including each module that imported it by name;
- traced call counts per item equal the counts the program performs (the
  table below, which describes the program as of the benchmark's
  introduction; a change that batches or caches work changes them on
  purpose and updates the table with it);
- after teardown every binding is the original function object again, and
  untraced calls record no spans.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile

import run

N = 2  # images or composites per analysis command

# Bindings a `from ... import name` creates, each of which must be wrapped.
NAMED_BINDINGS = {
    ("model", "forward"): ("model", "replacement", "correlation", "cam", "cli"),
    ("pathcount", "pathcount_forward"): ("pathcount", "replacement", "correlation", "cam",
                                         "cli"),
    ("parallel", "pmap"): ("parallel", "replacement", "correlation", "cam"),
}

# (command, function counted, calls per item, or None for "at least one")
EXPECTED = [
    ("replace-sweep", "model.forward.calls", 1),
    ("replace-sweep", "model.forward_from_layer.calls", 12),
    ("replace-sweep", "pathcount.pathcount_forward.calls", 1),
    ("degrade", "model.forward.calls", 23),
    ("tilematch", "model.gradient_wrt_layer.calls", 8),
    ("tilematch", "pathcount.pathcount_forward.calls", 8),
    ("correlate", "correlation.kendall_tau_b.calls", 13),
    ("correlate", "correlation.kendall_tau_b.undefined", 1),
    ("train", "ops.conv2d_backward_batch.calls", None),
    ("replace-sweep", "ops.conv2d_backward_batch.calls", 0),
    ("degrade", "ops.conv2d_backward_batch.calls", 0),
    ("tilematch", "ops.conv2d_backward_batch.calls", 0),
]


def main() -> int:
    pkg = run.import_program()
    import tracer as tracer_mod
    from pathscope import data

    failures = []
    modules = {name.split(".")[-1]: m for name, m in sys.modules.items()
               if name.startswith("pathscope.")}
    originals = {}
    for mod_name, fns in tracer_mod.TARGETS.items():
        for fn in fns:
            target = getattr(modules[mod_name], fn)
            originals[(mod_name, fn)] = [(m, attr) for m in [pkg, *modules.values()]
                                         for attr, v in vars(m).items() if v is target]

    work = tempfile.mkdtemp(prefix="selftest-", dir=_work_root())
    try:
        def idx(name, n, **kw):
            paths = [os.path.join(work, f"{name}-{part}.idx") for part in ("images", "labels")]
            data.write_idx(data.synthetic_digits(n, 0, **kw), *paths)
            return ["--data-images", paths[0], "--data-labels", paths[1]]

        pool = idx("pool", 20)
        tiles = idx("tiles", 20, scale_range=(1.0, 1.0))
        train = idx("train", 40, small_fraction=data.TRAIN_SMALL_FRACTION)
        model = ["--model", run.MODEL_PATH]
        argvs = {
            "replace-sweep": ["replace-sweep", *model, *pool, "--sample", str(N)],
            "degrade": ["degrade", *model, *pool, "--sample", str(N), "--variant", "act"],
            "tilematch": ["tilematch", *model, *tiles, "--tiles", str(N),
                          "--variant", "pathcount"],
            "correlate": ["correlate", *model, *pool, "--sample", str(N)],
            "train": ["train", *train, "--epochs", "1"],
        }

        tracer = tracer_mod.Tracer()
        with tracer:
            wrapped = set(tracer.bindings())
            for (mod_name, fn), sites in NAMED_BINDINGS.items():
                for site in sites:
                    if (f"pathscope.{site}", fn) not in wrapped:
                        failures.append(f"{mod_name}.{fn} not wrapped in pathscope.{site}")
            for (mod_name, fn), bindings in originals.items():
                for m, attr in bindings:
                    if (m.__name__, attr) not in wrapped:
                        failures.append(f"{m.__name__}.{attr} ({mod_name}.{fn}) not wrapped")
            for name, argv in argvs.items():
                tracer.begin_command(name)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = pkg.cli.main([*argv, "--out", os.path.join(work, name)])
                if code != 0:
                    failures.append(f"{name} exited {code}")

        for mod_name, fn in originals:
            for m, attr in originals[(mod_name, fn)]:
                if getattr(m, attr) is not getattr(sys.modules[f"pathscope.{mod_name}"], fn) \
                        or getattr(m, attr).__code__.co_name == "traced":
                    failures.append(f"{m.__name__}.{attr} not restored")
        seen = len(tracer.spans)
        with contextlib.redirect_stdout(io.StringIO()):
            pkg.cli.main([*argvs["correlate"], "--out", os.path.join(work, "untraced")])
        if len(tracer.spans) != seen:
            failures.append("untraced run recorded spans")

        per_command = {name: tracer_mod.summarize(tracer.spans, tracer.commands, argvs, name)
                       for name in argvs}
        for command, metric, per_item in EXPECTED:
            got = per_command[command][metric]
            if per_item is None:
                ok, want = got > 0, "> 0"
            else:
                ok, want = got == per_item * N, per_item * N
            print(f"{'ok  ' if ok else 'FAIL'} {command:14s} {metric:40s} {got} (want {want})")
            if not ok:
                failures.append(f"{command} {metric} = {got}, want {want}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "passed" if not failures else f"failed ({len(failures)})")
    return 0 if not failures else 1


def _work_root() -> str:
    root = os.path.join(run.HERE, ".work")
    os.makedirs(root, exist_ok=True)
    return root


if __name__ == "__main__":
    sys.exit(main())
