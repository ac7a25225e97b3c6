#!/usr/bin/env python3
"""pathscope benchmark: CLI workloads run in-process, checked and timed.

    python3 benchmark/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  Setup
generates the workload's synthetic digits from `--seed`, writes them as IDX
files, and loads and digest-checks the fixed model in `benchmark/assets/`.
Then the workload's command sequence (one "pass") repeats through
`pathscope.cli.main` until `--seconds` have elapsed, each command waiting
for the previous one.  Every command's reports are checked after every pass.

`--trace 0` prints the end-to-end metrics.  `--trace 1` makes the same
untraced passes and then one traced pass, and prints the per-layer metrics
derived from its spans.  The last line of standard output is the result
object; the line before it is the provenance block.  Spans and a results
file go to `benchmark/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODEL_PATH = os.path.join(HERE, "assets", "desk_model.npsc")
MODEL_DIGEST_PATH = MODEL_PATH + ".sha256"
SETUP_REPEATS = 3  # before the passes; one more follows each pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import pathscope from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pathscope", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/pathscope")
    sys.path.insert(0, SRC)
    import pathscope.cli  # noqa: F401  (loads every pathscope module)

    location = os.path.dirname(os.path.abspath(sys.modules["pathscope"].__file__))
    if location != os.path.join(SRC, "pathscope"):
        raise SystemExit(f"error: pathscope imported from {location}, not {SRC}")
    return sys.modules["pathscope"]


def blas_info(np) -> dict:
    """BLAS name and version from numpy's build config, and the thread count
    the loaded OpenBLAS uses (read from the library itself when it can be)."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": None, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        import ctypes
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def expected_digest() -> str:
    with open(MODEL_DIGEST_PATH) as f:
        return f.read().split()[0]


def setup(workload: str, seed: int, data_dir: str) -> float:
    """Generate and write the workload's IDX sets; load and check the model.
    Returns the elapsed seconds.  Raises on a digest mismatch."""
    from pathscope import data, model

    start = time.perf_counter()
    for ds in workloads.datasets(workload, data.TRAIN_SMALL_FRACTION):
        kwargs = {"small_fraction": ds.small_fraction}
        if ds.scale_range is not None:
            kwargs["scale_range"] = ds.scale_range
        generated = data.synthetic_digits(ds.n, seed + ds.seed_offset, **kwargs)
        data.write_idx(generated, os.path.join(data_dir, f"{ds.name}-images.idx"),
                       os.path.join(data_dir, f"{ds.name}-labels.idx"))
    with open(MODEL_PATH, "rb") as f:
        file_digest = hashlib.sha256(f.read()).hexdigest()
    spec, weights = model.load_model(MODEL_PATH)
    want = expected_digest()
    if file_digest != want or model.model_digest(weights, spec) != want:
        raise RuntimeError(f"fixed model digest {file_digest} does not match {want}")
    return time.perf_counter() - start


class Runner:
    """Runs commands in-process and keeps the tally of checks."""

    def __init__(self):
        self.cli = sys.modules["pathscope.cli"]
        self.attempted = 0
        self.failed = 0
        self.first_reports: dict[str, dict[str, bytes]] = {}

    def fail(self, msg: str) -> None:
        self.failed += 1
        print(f"check failed: {msg}", file=sys.stderr)

    def run(self, command, tracer=None) -> float | None:
        """Run one command and check its reports; returns its wall seconds."""
        self.attempted += 1
        shutil.rmtree(command.out, ignore_errors=True)
        captured = io.StringIO()
        if tracer is not None:
            tracer.begin_command(command.name)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.cli.main(list(command.argv))
        except Exception:
            self.fail(f"{command.name} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(f"{command.name} exited {code}: {captured.getvalue()}")
            return None
        try:
            reports = workloads.read_reports(command.out)
            problems = workloads.check(command, reports)
        except (OSError, KeyError, ValueError) as e:
            problems = [f"{command.name}: unreadable reports: {e!r}"]
        first = self.first_reports.setdefault(command.out, reports)
        if reports != first:
            problems.append(f"{command.name}: report bytes differ from the first pass")
        if problems:
            self.fail("; ".join(problems))
            return None
        return elapsed


def run_pass(runner, cmds, tracer=None):
    """Run the commands in order; returns (summed command seconds, per command).
    Report checks between commands are not counted."""
    times = {c.name: runner.run(c, tracer) for c in cmds}
    return sum(t or 0.0 for t in times.values()), times


def check_worker_invariance(runner, workload, seed, data_dir, out_dir):
    """Reports of a multi-worker pass must equal the one-worker reports byte
    for byte (the config sidecar, which records the worker count, aside)."""
    ref_dir = os.path.join(out_dir, "workers1")
    for parallel, serial in zip(workloads.commands(workload, seed, MODEL_PATH, data_dir, out_dir),
                                workloads.commands(workload, seed, MODEL_PATH, data_dir, ref_dir,
                                                   workers=1)):
        if runner.run(serial) is None:
            continue
        ours = workloads.deterministic_reports(runner.first_reports[parallel.out])
        ref = workloads.deterministic_reports(workloads.read_reports(serial.out))
        if ours != ref:
            runner.fail(f"{parallel.name}: reports differ between worker counts: "
                        f"{sorted(k for k in set(ours) | set(ref) if ours.get(k) != ref.get(k))}")


def baseline_rows(tracer, cmds) -> list[dict]:
    """The ROADMAP baseline-table units, as measured in the traced pass."""
    groups: dict[str, list[float]] = {}
    cmd_seconds = {}
    for name, start, end, parent, cmd, counts, error in tracer.spans:
        dur = end - start
        if name == "cli.main" and parent < 0:
            cmd_seconds[tracer.commands[cmd]] = dur
        elif name == "model.forward":
            groups.setdefault("forward (1 image, single-sample path)", []).append(dur)
        elif name == "ops.conv2d_forward_batch":
            groups.setdefault(f"conv2d_forward_batch, batch {counts['items']}, "
                              f"{counts['channels']} ch", []).append(dur)
        elif name == "pathcount.pathcount_forward":
            groups.setdefault("pathcount_forward (1 image)", []).append(dur)
        elif name == "correlation.kendall_tau_b" and error is None:
            groups.setdefault(f"kendall_tau_b, n = {counts['n']}", []).append(dur)
    rows = [{"unit": k, "calls": len(v), "median_ms": 1e3 * statistics.median(v)}
            for k, v in sorted(groups.items())]
    for c in cmds:
        if cmd_seconds.get(c.name):
            rows.append({"unit": f"{c.name} per item (command wall / {c.items})",
                         "calls": c.items, "median_ms": 1e3 * cmd_seconds[c.name] / c.items})
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work_root = os.path.join(HERE, ".work")
    results_dir = os.path.join(HERE, "results")
    os.makedirs(work_root, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        return measure(args, pkg, work, results_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, pkg, work, results_dir) -> int:
    import numpy as np

    data_dir = os.path.join(work, "data")
    out_dir = os.path.join(work, "out")
    os.makedirs(data_dir)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "pathscope": pkg.__version__, "blas": blas_info(np), "git_commit": git_commit(),
        "model_sha256": expected_digest(), "load": "closed loop, one process, one command at a time",
        "workers": workloads.FANOUT_WORKERS if args.workload == "fanout" else 1,
    }
    runner = Runner()
    setup_times = []

    def set_up(repeats):
        for _ in range(repeats):
            setup_times.append(setup(args.workload, args.seed, data_dir))

    try:
        set_up(SETUP_REPEATS)
    except (RuntimeError, OSError, pkg.PathscopeError) as e:
        print(f"setup failed: {e}", file=sys.stderr)
        print(json.dumps({"provenance": provenance}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    cmds = workloads.commands(args.workload, args.seed, MODEL_PATH, data_dir, out_dir)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(run_pass(runner, cmds))
        # one more set-up after each pass samples the machine at another
        # moment of the run; it rewrites byte-identical inputs
        set_up(1)
        if time.perf_counter() >= deadline or runner.failed:
            break
    wall_s = statistics.median(p[0] for p in passes)
    cmd_seconds = {c.name: statistics.median(p[1][c.name] for p in passes)
                   if all(p[1][c.name] for p in passes) else None for c in cmds}

    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            traced_wall, _ = run_pass(runner, cmds, tracer)
        spans_path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
        tracer.write_spans(spans_path)
        metrics = tracing.summarize(tracer.spans, tracer.commands, workloads.COMMAND_THROUGHPUT)
        # against the last untraced pass, the nearest in time: on a shared
        # host, CPU speed drifts over tens of seconds
        last_wall = passes[-1][0]
        metrics["trace_overhead"] = traced_wall / last_wall if last_wall else 0.0
        for key in workloads.COMMAND_THROUGHPUT.values():
            metrics[key] = 0.0  # the command is not part of this workload
        for c in cmds:
            if cmd_seconds[c.name]:
                metrics[workloads.COMMAND_THROUGHPUT[c.name]] = c.items / cmd_seconds[c.name]
        provenance["baseline"] = baseline_rows(tracer, cmds)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    if args.workload == "fanout" and not runner.failed:
        check_worker_invariance(runner, args.workload, args.seed, data_dir, out_dir)

    units = _declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    provenance.update(passes=len(passes), pass_wall_s=[p[0] for p in passes],
                      setup_s=setup_times,
                      command_s={c.name: [p[1][c.name] for p in passes] for c in cmds})
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=2, sort_keys=True)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def _declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
