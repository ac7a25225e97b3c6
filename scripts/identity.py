#!/usr/bin/env python3
"""Check that this working tree reproduces a parent's reports and models byte for byte.

    python3 scripts/identity.py --parent REV [--full] [--expect-diff GLOB ...]

Exports the committed tree of REV into a temporary directory with
`git archive`, and runs the same battery on it and on this working tree, each
command in its own process with that tree's `src` on PYTHONPATH. Both trees
write into the same absolute directory, one after the other, and the
parent's outputs are moved aside in between. So every file, each
`*_config.json` sidecar with its paths included, is compared by the sha256
of its bytes. The battery:

- `scripts/run_desk_experiments.py --quick`: a desk train (800 digits x 2
  epochs, seed 0), then every analysis it declares on that model, every
  cam/degrade/tilematch variant included, in the default absolute clip mode;
- its tau report again on that model with --clip-mode mean. The clip acts
  only on fc weights, and tau is the battery's one report that reads the
  counts of an fc layer (the desk head), so it is the one that can tell the
  clip modes apart;
- the desk train (600 digits x 2 epochs, seed 0) and the reference train
  (150 digits x 1 epoch: batches of 64, 64 and 22);
- on the reference model, a tau report (4 digits) and an eval (64 digits);
- the battery's tau as a two-model aggregate of the quick desk model and the
  desk train, which also writes each model's `tau_model<i>.csv`;
- 50 digits exported to an IDX pair by `scripts/export_synthetic_idx.py` with
  its defaults, and an eval of the quick desk model on that pair. The
  script's defaults are the digit generator's, so a drift between the two
  changes these bytes;
- the benchmark's train path: 1000 digits exported with the training tail of
  small digits, a desk train on that pair (its 90/10 split, 2 epochs) and an
  eval of the model on it;
- with --full, also the full desk train (8000 digits x 10 epochs).

On the working tree only, the analyses that take --workers then run again
on the quick desk model with --workers 1 and with --workers 2, and a 2-image
replace-sweep with --workers 1 and with --workers 3: the one run where
workers outnumber images, so a forked share holds one image. Both counts
write into one directory in turn, and their reports are compared with each
other, without the `*_config.json` sidecars, which record the worker count.

Prints one line per file: its status, its path and both sha256 values.
Exits 0 when every file is identical or its difference matches an
--expect-diff glob (matched against the printed path); 1 on any other
difference, a file found on one side only, or a glob that matches no
differing file (a stale declaration); 2 when the revision does not resolve,
a command fails or an output cannot be read.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

from run_desk_experiments import analyses

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI = ["-c", "from pathscope.cli import entrypoint; entrypoint()"]

TRAINS = {
    "train_desk": ["--profile", "desk", "--synthetic", "--synthetic-n", "600",
                   "--epochs", "2", "--seed", "0"],
    "train_reference": ["--profile", "reference", "--synthetic", "--synthetic-n", "150",
                        "--epochs", "1", "--seed", "0"],
}
FULL_TRAIN = {"train_desk_full": ["--profile", "desk", "--synthetic", "--synthetic-n", "8000",
                                  "--epochs", "10", "--seed", "0"]}

QUICK = analyses(quick=True)
MEAN_CLIP = {"tau_mean": [*QUICK["tau"], "--clip-mode", "mean"]}
REFERENCE = {"tau_reference": ["correlate", "--synthetic", "--synthetic-n", "8", "--sample", "4"],
             "eval_reference": ["eval", "--synthetic", "--synthetic-n", "64"]}
TAU_AGGREGATE = {"tau_aggregate": QUICK["tau"]}
# The analyses that map their images over --workers processes, each with the
# worker count its reports are compared at against --workers 1.
PARALLEL = {name: (args, "2") for name, args in {**QUICK, **MEAN_CLIP}.items()
            if args[0] in ("replace-sweep", "correlate", "degrade", "tilematch")}
PARALLEL["sweep_2img"] = (["replace-sweep", "--synthetic", "--synthetic-n", "20",
                           "--sample", "2", "--seed", "1"], "3")


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


def analyse(tree: str, commands: dict[str, list[str]], model: str, out: str, log: str) -> None:
    for name, args in commands.items():
        run(tree, [*CLI, *args, "--model", model, "--out", os.path.join(out, name)], log)


def export_idx(tree: str, argv: list[str], stem: str, out: str, log: str) -> list[str]:
    """Export an IDX pair into `out`; return the flags that read it."""
    run(tree, ["scripts/export_synthetic_idx.py", *argv, "--outdir", out], log)
    return ["--data-images", os.path.join(out, f"{stem}-images.idx"),
            "--data-labels", os.path.join(out, f"{stem}-labels.idx")]


def battery(tree: str, out: str, log: str, full: bool) -> None:
    run(tree, ["scripts/run_desk_experiments.py", "--quick", "--outdir",
               os.path.join(out, "desk")], log)
    model = os.path.join(out, "desk", "train", "model.npsc")
    analyse(tree, MEAN_CLIP, model, os.path.join(out, "mean"), log)
    for name, args in {**TRAINS, **(FULL_TRAIN if full else {})}.items():
        run(tree, [*CLI, "train", *args, "--out", os.path.join(out, name)], log)
    analyse(tree, REFERENCE, os.path.join(out, "train_reference", "model.npsc"), out, log)
    analyse(tree, TAU_AGGREGATE, f"{model},{os.path.join(out, 'train_desk', 'model.npsc')}",
            out, log)
    idx = os.path.join(out, "idx")
    data = export_idx(tree, ["--n", "50"], "digits-50-seed0", idx, log)
    run(tree, [*CLI, "eval", "--model", model, *data, "--out", os.path.join(out, "eval_idx50")],
        log)
    data = export_idx(tree, ["--n", "1000", "--small-fraction", "0.15", "--seed", "0"],
                      "digits-1000-seed0", idx, log)
    run(tree, [*CLI, "train", "--profile", "desk", *data, "--epochs", "2", "--seed", "0",
               "--out", os.path.join(out, "train_idx")], log)
    run(tree, [*CLI, "eval", "--model", os.path.join(out, "train_idx", "model.npsc"), *data,
               "--out", os.path.join(out, "eval_idx")], log)


def digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def files(top: str, skip: str | None) -> set[str]:
    found = {os.path.relpath(os.path.join(d, f), top) for d, _, fs in os.walk(top) for f in fs}
    return {rel for rel in found if not (skip and fnmatch.fnmatch(rel, skip))}


def compare(a: str, b: str, prefix: str, expected: list[str],
            skip: str | None = None) -> list[tuple[str, str]]:
    """Print one line per file under either directory, but those matching the
    glob `skip`; return (path, status) pairs."""
    results = []
    fa, fb = files(a, skip), files(b, skip)
    for rel in sorted(fa | fb):
        name = os.path.join(prefix, rel)
        da = digest(os.path.join(a, rel)) if rel in fa else "-"
        db = digest(os.path.join(b, rel)) if rel in fb else "-"
        if da == db:
            status = "same"
        elif any(fnmatch.fnmatch(name, g) for g in expected):
            status = "expected"
        else:
            status = "DIFF" if "-" not in (da, db) else "MISSING"
        results.append((name, status))
        print(f"{status:<8} {name}  {da}  {db}")
    return results


def verdict(results: list[tuple[str, str]], expected: list[str]) -> int:
    """Print the summary of compare's results; return the exit code."""
    stale = [g for g in expected
             if not any(st == "expected" and fnmatch.fnmatch(name, g) for name, st in results)]
    for g in stale:
        print(f"STALE    --expect-diff {g}: matches no differing file")
    bad = sum(st in ("DIFF", "MISSING") for _, st in results)
    if bad or stale:
        print(f"{bad} undeclared difference(s), {len(stale)} stale declaration(s)")
        return 1
    declared = sum(st == "expected" for _, st in results)
    print(f"identical apart from {declared} declared difference(s)" if declared else "identical")
    return 0


def check(args: argparse.Namespace, work: str) -> int:
    parent_tree = os.path.join(work, "tree")
    print(f"parent {export(args.parent, parent_tree)}\nchange working tree {ROOT}", flush=True)
    out, shares = os.path.join(work, "out"), os.path.join(work, "workers")
    battery(parent_tree, out, os.path.join(work, "parent.log"), args.full)
    os.rename(out, os.path.join(work, "parent"))
    battery(ROOT, out, os.path.join(work, "change.log"), args.full)
    model, log = os.path.join(out, "desk", "train", "model.npsc"), os.path.join(work, "workers.log")
    analyse(ROOT, {name: [*a, "--workers", "1"] for name, (a, _) in PARALLEL.items()},
            model, shares, log)
    os.rename(shares, shares + "1")
    analyse(ROOT, {name: [*a, "--workers", w] for name, (a, w) in PARALLEL.items()},
            model, shares, log)

    print("== parent against change")
    results = compare(os.path.join(work, "parent"), out, "", args.expect_diff)
    print("== change, --workers 1 against --workers 2 (3 for sweep_2img), without configs")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        print("note: one usable CPU, so every worker count maps serially")
    results += compare(shares + "1", shares, "workers", args.expect_diff, "*_config.json")
    code = verdict(results, args.expect_diff)
    if code:
        print(f"outputs kept in {work}")
    return code


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
