#!/usr/bin/env python3
"""Check that this working tree reproduces a parent's reports and models byte for byte.

    python3 scripts/identity.py --parent REV [--full] [--expect-diff GLOB ...]

Exports the committed tree of REV into a temporary directory with
`git archive`, and runs the same battery on it and on this working tree, each
command in its own process with that tree's `src` on PYTHONPATH. Both trees
write into the same absolute directory, one after the other, and the
parent's outputs are moved aside in between. So every file, each
`*_config.json` sidecar with its paths included, is compared by the sha256
of its bytes. The battery, in the order of BATTERY:

- `scripts/run_desk_experiments.py --quick`: the quick desk train (800
  synthetic digits x 2 epochs, seed 0, 1000 held-out digits, a last partial
  batch) and every analysis it declares on that model, in the default clip;
- its tau again with --clip-mode mean: tau is the one analysis that reads an
  fc layer's counts (the desk head), and the clip acts only on fc weights;
- on that model, a 2-image replace-sweep and one digit's path counts in both
  clip modes (the only reports that write raw path counts);
- the reference train (150 digits x 1 epoch: batches of 64, 64 and 22), and
  on that 32-channel model the same path counts, a 2-image replace-sweep, a
  2-composite tilematch of the pathcount CAM, a tau (4 digits) and an eval;
- 50 digits exported by `scripts/export_synthetic_idx.py` with its defaults,
  which are the digit generator's, and an eval of the quick model on them;
- the benchmark's train path: 1000 digits exported with the training tail of
  small digits, a desk train on that pair (its 90/10 split, 2 epochs) and an
  eval of the model on it;
- the two-model tau aggregate of the quick and the IDX-trained model, which
  also writes each model's `tau_model<i>.csv`;
- with --full, also the full desk train (8000 digits x 10 epochs).

On the working tree only, every analysis above that takes --workers then
runs again with --workers 2, and the 2-image sweep with --workers 3, the one
run where workers outnumber images. Each rerun's reports are compared with
the battery's own, without the `*_config.json` sidecars, which record the
worker count.

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

QUICK = analyses(quick=True)
MODEL = "{out}/desk/train/model.npsc"
REFERENCE = "{out}/train_reference/model.npsc"
IDX_MODEL = "{out}/train_idx/model.npsc"
PATHCOUNT = ["pathcount", "--synthetic", "--synthetic-n", "16", "--sample", "3", "--seed", "1"]


def idx(n: int) -> list[str]:
    """The flags that read the pair an `--n <n>` export writes into idx<n>."""
    stem = f"{{out}}/idx{n}/digits-{n}-seed0"
    return ["--data-images", f"{stem}-images.idx", "--data-labels", f"{stem}-labels.idx"]


# The battery in run order: each entry's directory and its arguments, in which
# "{out}" stands for the battery's output directory. An entry that names a
# script runs it with --outdir; any other runs that pathscope command with --out.
BATTERY = {
    "desk": ["scripts/run_desk_experiments.py", "--quick"],
    "mean/tau_mean": [*QUICK["tau"], "--clip-mode", "mean", "--model", MODEL],
    "sweep_2img": ["replace-sweep", "--synthetic", "--synthetic-n", "20", "--sample", "2",
                   "--seed", "1", "--model", MODEL],
    "pathcount": [*PATHCOUNT, "--model", MODEL],
    "pathcount_mean": [*PATHCOUNT, "--clip-mode", "mean", "--model", MODEL],
    "train_reference": ["train", "--profile", "reference", "--synthetic", "--synthetic-n", "150",
                        "--epochs", "1", "--seed", "0"],
    "pathcount_reference": [*PATHCOUNT, "--model", REFERENCE],
    "sweep_reference": ["replace-sweep", "--synthetic", "--synthetic-n", "20", "--sample", "2",
                        "--seed", "1", "--model", REFERENCE],
    "tilematch_reference": ["tilematch", "--synthetic", "--synthetic-n", "20", "--tiles", "2",
                            "--variant", "pathcount", "--seed", "1", "--model", REFERENCE],
    "tau_reference": ["correlate", "--synthetic", "--synthetic-n", "8", "--sample", "4",
                      "--model", REFERENCE],
    "eval_reference": ["eval", "--synthetic", "--synthetic-n", "64", "--model", REFERENCE],
    "idx50": ["scripts/export_synthetic_idx.py", "--n", "50"],
    "eval_idx50": ["eval", "--model", MODEL, *idx(50)],
    "idx1000": ["scripts/export_synthetic_idx.py", "--n", "1000", "--small-fraction", "0.15",
                "--seed", "0"],
    "train_idx": ["train", "--profile", "desk", *idx(1000), "--epochs", "2", "--seed", "0"],
    "eval_idx": ["eval", "--model", IDX_MODEL, *idx(1000)],
    "tau_aggregate": [*QUICK["tau"], "--model", f"{MODEL},{IDX_MODEL}"],
}
FULL = {"train_desk_full": ["train", "--profile", "desk", "--synthetic", "--synthetic-n", "8000",
                            "--epochs", "10", "--seed", "0"]}
# The battery's analyses that map their images over --workers processes, the
# quick script's included, each with its rerun's worker count.
PARALLEL = {name: [*args, "--workers", "3" if name == "sweep_2img" else "2"]
            for name, args in {**{f"desk/{n}": [*a, "--model", MODEL] for n, a in QUICK.items()},
                               **BATTERY}.items()
            if args[0] in ("replace-sweep", "correlate", "degrade", "tilematch")}


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


def command(args: list[str], out: str, dest: str) -> list[str]:
    """The argv of a table entry, "{out}" read as `out`, writing into `dest`."""
    args = [a.replace("{out}", out) for a in args]
    if args[0].startswith("scripts/"):
        return [*args, "--outdir", dest]
    return [*CLI, *args, "--out", dest]


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


def battery(tree: str, table: dict[str, list[str]], out: str, dest: str, log: str) -> None:
    """Run each entry of `table` in order, into its directory under `dest`."""
    for name, args in table.items():
        run(tree, command(args, out, os.path.join(dest, name)), log)


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
    table = {**BATTERY, **(FULL if args.full else {})}
    battery(parent_tree, table, out, out, os.path.join(work, "parent.log"))
    os.rename(out, os.path.join(work, "parent"))
    battery(ROOT, table, out, out, os.path.join(work, "change.log"))
    battery(ROOT, PARALLEL, out, shares, os.path.join(work, "workers.log"))

    print("== parent against change")
    results = compare(os.path.join(work, "parent"), out, "", args.expect_diff)
    print("== change, one worker against --workers 2 (3 for sweep_2img), without configs")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        print("note: one usable CPU, so every worker count maps serially")
    for name in PARALLEL:
        results += compare(os.path.join(out, name), os.path.join(shares, name),
                           os.path.join("workers", name), args.expect_diff, "*_config.json")
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
