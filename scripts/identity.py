#!/usr/bin/env python3
"""Check that this working tree reproduces a parent's reports and models byte for byte.

    python3 scripts/identity.py --parent REV [--full] [--expect-diff GLOB ...]

Exports the committed tree of REV into a temporary directory with
`git archive`, and runs the same battery on it and on this working tree, each
command in its own process with that tree's `src` on PYTHONPATH:

- `scripts/run_desk_experiments.py --quick`: all eight commands and every
  cam/degrade/tilematch variant on a freshly trained model, in the default
  absolute clip mode;
- its tau report again on that model with --clip-mode mean. The clip acts
  only on fc weights, and tau is the battery's one report that reads the
  counts of an fc layer (the desk head), so it is the one that can tell the
  clip modes apart;
- the desk train (600 digits x 2 epochs, seed 0) and the reference train
  (150 digits x 1 epoch);
- tau reports on the trained reference model (4 digits), and the battery's
  tau as a two-model aggregate of the quick desk model and the desk train,
  which also writes each model's `tau_model<i>.csv`. With the quick desk
  report, these cover tau-b on the desk profile, on the reference profile
  and across models;
- the benchmark's train path: 1000 digits exported to an IDX pair by
  `scripts/export_synthetic_idx.py` (with the training tail of small digits),
  a desk train on that pair (its 90/10 split, 2 epochs) and an eval of the
  model on it;
- with --full, also the full desk train (8000 digits x 10 epochs).

The analyses are those `run_desk_experiments.analyses` declares. On the
working tree only, the ones that take --workers then run again on its model
with --workers 1 and with --workers 2, and those reports are compared with
each other.

Prints one line per file: its status, its path and both sha256 values. The
`*_config.json` sidecars record absolute paths, so they are compared with their
path keys removed (and, between worker counts, without `workers`); their sha256
is that of the remaining keys. Exits 0 when every file is identical or its
difference matches an --expect-diff glob (matched against the printed path);
1 on any other difference, a file found on one side only, or a glob that
matches no differing file (a stale declaration); 2 when the revision does not
resolve, a command fails or an output cannot be read.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from run_desk_experiments import analyses

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI = ["-c", "from pathscope.cli import entrypoint; entrypoint()"]
PATH_KEYS = ("out", "model", "data_images", "data_labels")

TRAINS = {
    "train_desk": ["--profile", "desk", "--synthetic", "--synthetic-n", "600",
                   "--epochs", "2", "--seed", "0"],
    "train_reference": ["--profile", "reference", "--synthetic", "--synthetic-n", "150",
                        "--epochs", "1", "--seed", "0"],
}
FULL_TRAIN = {"train_desk_full": ["--profile", "desk", "--synthetic", "--synthetic-n", "8000",
                                  "--epochs", "10", "--seed", "0"]}
IDX_EXPORT = ["--n", "1000", "--small-fraction", "0.15", "--seed", "0"]
IDX_STEM = "digits-1000-seed0"

QUICK = analyses(quick=True)
MEAN_CLIP = {"tau_mean": [*QUICK["tau"], "--clip-mode", "mean"]}
TAU_REFERENCE = {"tau_reference": ["correlate", "--synthetic", "--synthetic-n", "8",
                                   "--sample", "4"]}
TAU_AGGREGATE = {"tau_aggregate": QUICK["tau"]}
# The commands that map their images over --workers processes.
PARALLEL = ("replace-sweep", "correlate", "degrade", "tilematch")


class Failed(Exception):
    pass


def _git(*args: str) -> bytes:
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True)
    if proc.returncode != 0:
        raise Failed(f"git {' '.join(args)}: {proc.stderr.decode().strip()}")
    return proc.stdout


def export(rev: str, dest: str) -> str:
    """Write REV's committed tree to `dest`; return the full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    os.makedirs(dest)
    proc = subprocess.run(["tar", "-x", "-C", dest], input=_git("archive", commit),
                          capture_output=True)
    if proc.returncode != 0:
        raise Failed(f"tar -x -C {dest}: {proc.stderr.decode().strip()}")
    return commit


def run(tree: str, argv: list[str], log: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    with open(log, "a") as f:
        f.write(f"== {' '.join(argv)}\n")
        f.flush()
        code = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                              stdout=f, stderr=subprocess.STDOUT).returncode
    if code != 0:
        with open(log) as f:
            tail = "".join(f.readlines()[-20:])
        raise Failed(f"exit {code} in {tree}: {' '.join(argv)}\n{tail}")


def analyse(tree: str, commands: dict[str, list[str]], model: str, out: str,
            log: str, extra: tuple[str, ...] = ()) -> None:
    for name, args in commands.items():
        run(tree, [*CLI, *args, *extra, "--model", model, "--out", os.path.join(out, name)], log)


def battery(tree: str, out: str, full: bool) -> None:
    log = out + ".log"
    run(tree, ["scripts/run_desk_experiments.py", "--quick", "--outdir",
               os.path.join(out, "desk")], log)
    model = os.path.join(out, "desk", "train", "model.npsc")
    analyse(tree, MEAN_CLIP, model, os.path.join(out, "mean"), log)
    for name, args in {**TRAINS, **(FULL_TRAIN if full else {})}.items():
        run(tree, [*CLI, "train", *args, "--out", os.path.join(out, name)], log)
    analyse(tree, TAU_REFERENCE, os.path.join(out, "train_reference", "model.npsc"), out, log)
    analyse(tree, TAU_AGGREGATE, f"{model},{os.path.join(out, 'train_desk', 'model.npsc')}",
            out, log)
    idx = os.path.join(out, "idx")
    run(tree, ["scripts/export_synthetic_idx.py", *IDX_EXPORT, "--outdir", idx], log)
    data = ["--data-images", os.path.join(idx, f"{IDX_STEM}-images.idx"),
            "--data-labels", os.path.join(idx, f"{IDX_STEM}-labels.idx")]
    run(tree, [*CLI, "train", "--profile", "desk", *data, "--epochs", "2", "--seed", "0",
               "--out", os.path.join(out, "train_idx")], log)
    run(tree, [*CLI, "eval", "--model", os.path.join(out, "train_idx", "model.npsc"), *data,
               "--out", os.path.join(out, "eval_idx")], log)


def digest(path: str, drop: tuple[str, ...]) -> str:
    with open(path, "rb") as f:
        data = f.read()
    if path.endswith("_config.json"):
        cfg = {k: v for k, v in json.loads(data).items() if k not in drop}
        data = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def files(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), top) for d, _, fs in os.walk(top) for f in fs}


def compare(a: str, b: str, prefix: str, drop: tuple[str, ...],
            expected: list[str]) -> list[tuple[str, str]]:
    """Print one line per file under either directory; return (path, status) pairs."""
    results = []
    fa, fb = files(a), files(b)
    for rel in sorted(fa | fb):
        name = os.path.join(prefix, rel)
        da = digest(os.path.join(a, rel), drop) if rel in fa else "-"
        db = digest(os.path.join(b, rel), drop) if rel in fb else "-"
        if da == db:
            status = "same"
        elif any(fnmatch.fnmatch(name, g) for g in expected):
            status = "expected"
        else:
            status = "DIFF" if "-" not in (da, db) else "MISSING"
        results.append((name, status))
        print(f"{status:<8} {name}  {da}  {db}")
    return results


def check(args: argparse.Namespace, work: str) -> int:
    parent_tree = os.path.join(work, "parent")
    print(f"parent {export(args.parent, parent_tree)}\nchange working tree {ROOT}", flush=True)
    battery(parent_tree, os.path.join(work, "out_parent"), args.full)
    battery(ROOT, os.path.join(work, "out_change"), args.full)
    model = os.path.join(work, "out_change", "desk", "train", "model.npsc")
    parallel = {name: a for name, a in {**QUICK, **MEAN_CLIP}.items() if a[0] in PARALLEL}
    for workers in ("1", "2"):
        analyse(ROOT, parallel, model, os.path.join(work, "out_workers", f"workers{workers}"),
                os.path.join(work, "out_workers.log"), ("--workers", workers))

    print(f"note: *_config.json compared without the keys {', '.join(PATH_KEYS)}")
    print("== parent against change")
    results = compare(os.path.join(work, "out_parent"), os.path.join(work, "out_change"),
                      "", PATH_KEYS, args.expect_diff)
    print("== change, --workers 1 against --workers 2 (configs also without workers)")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        print("note: one usable CPU, so --workers 2 maps serially")
    results += compare(os.path.join(work, "out_workers", "workers1"),
                       os.path.join(work, "out_workers", "workers2"), "workers",
                       PATH_KEYS + ("workers",), args.expect_diff)

    stale = [g for g in args.expect_diff
             if not any(st == "expected" and fnmatch.fnmatch(name, g) for name, st in results)]
    for g in stale:
        print(f"STALE    --expect-diff {g}: matches no differing file")
    bad = sum(st in ("DIFF", "MISSING") for _, st in results)
    if bad or stale:
        print(f"{bad} undeclared difference(s), {len(stale)} stale declaration(s); "
              f"outputs kept in {work}")
        return 1
    declared = sum(st == "expected" for _, st in results)
    print(f"identical apart from {declared} declared difference(s)" if declared else "identical")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision whose outputs the change must equal")
    ap.add_argument("--full", action="store_true", help="also the full desk train (8000 x 10)")
    ap.add_argument("--expect-diff", action="append", default=[], metavar="GLOB",
                    help="a printed path that may differ (repeatable)")
    args = ap.parse_args()

    work = tempfile.mkdtemp(prefix="identity-")
    code = 2
    try:
        code = check(args, work)
    except (Failed, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
    finally:
        if code != 1:
            shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
