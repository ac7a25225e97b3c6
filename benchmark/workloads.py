"""Workload definitions: the generated inputs, the command sequence of one
pass, and the invariants every command's reports must satisfy.

Workloads (closed loop, one command at a time, one process):

- train: `train --profile desk` on IDX digits, then `eval` of the fixed
  model.  Batch-64 forward/backward and batch-256 inference; no per-image
  analysis, path counting or tau-b.  The flat control for analysis-side
  changes.
- analyze: `replace-sweep`, `degrade --variant act` and `tilematch --variant
  pathcount` on the fixed model with one worker.  Batch-1 forward, resume,
  CAM gradients and path counting dominate; no training, no tau-b.
- correlate: `correlate` with one worker.  Kendall tau-b is nearly all of
  the time; the only workload where tau-b work shows.
- fanout: the analyze commands plus correlate, same sizes and seeds, with
  two workers: the only workload where `parallel.pmap` forks, pickles and
  chunks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
from dataclasses import dataclass

# Sizes of one pass.  Commands receive only IDX files, as with real MNIST.
TRAIN_N = 1000           # IDX digits given to `train` (it holds out 10%)
TRAIN_EPOCHS = 2
EVAL_N = 2000
POOL_N = 400             # analysis set; commands subsample it with --sample
SWEEP_N = 120
DEGRADE_N = 40
DEGRADE_STEPS = 10       # the CLI default
TILES_N = 60
TILE_SOURCE_N = 200
CORRELATE_N = 6
FANOUT_WORKERS = 2       # never more than the 2 CPUs the benchmark was sized on

WORKLOADS = ("train", "analyze", "correlate", "fanout")

# Commands the benchmark runs, with the unit counted for their throughput.
COMMAND_THROUGHPUT = {
    "train": "train_img_per_s",
    "eval": "eval_img_per_s",
    "replace-sweep": "sweep_img_per_s",
    "degrade": "degrade_img_per_s",
    "tilematch": "tilematch_tiles_per_s",
    "correlate": "correlate_img_per_s",
}


@dataclass(frozen=True)
class DatasetSpec:
    """One generated set, written as an IDX pair named `name`."""

    name: str
    n: int
    seed_offset: int
    scale_range: tuple[float, float] | None = None   # None: generator default
    small_fraction: float = 0.0


@dataclass(frozen=True)
class Command:
    name: str          # CLI subcommand
    argv: tuple[str, ...]
    out: str           # output directory
    items: int         # images (composites for tilematch) processed


def datasets(workload: str, train_small_fraction: float) -> list[DatasetSpec]:
    """The sets a workload needs, generated as the CLI would for each command:
    the training set keeps the small-digit tail, evaluation and analysis sets
    use the clean scale range, and the tilematch source is at scale 1.0."""
    if workload == "train":
        return [DatasetSpec("train", TRAIN_N, 0, small_fraction=train_small_fraction),
                DatasetSpec("eval", EVAL_N, 1)]
    pool = DatasetSpec("pool", POOL_N, 0)
    if workload == "correlate":
        return [pool]
    return [pool, DatasetSpec("tiles", TILE_SOURCE_N, 0, scale_range=(1.0, 1.0))]


def commands(workload: str, seed: int, model: str, data_dir: str, out_dir: str,
             workers: int | None = None) -> list[Command]:
    """One pass of `workload`.  `workers` overrides the workload's count."""
    if workers is None:
        workers = FANOUT_WORKERS if workload == "fanout" else 1

    def data(name):
        return ("--data-images", os.path.join(data_dir, f"{name}-images.idx"),
                "--data-labels", os.path.join(data_dir, f"{name}-labels.idx"))

    def cmd(name, items, *args, parallel=True):
        out = os.path.join(out_dir, name)
        extra = ("--workers", str(workers)) if parallel else ()
        return Command(name, (name, *args, *extra, "--seed", str(seed), "--out", out), out, items)

    if workload == "train":
        train_images = int(TRAIN_N * 0.9) * TRAIN_EPOCHS  # the CLI's 90/10 split
        return [
            cmd("train", train_images, *data("train"), "--profile", "desk",
                "--epochs", str(TRAIN_EPOCHS), parallel=False),
            cmd("eval", EVAL_N, "--model", model, *data("eval"), parallel=False),
        ]
    analyze = [
        cmd("replace-sweep", SWEEP_N, "--model", model, *data("pool"),
            "--sample", str(SWEEP_N)),
        cmd("degrade", DEGRADE_N, "--model", model, *data("pool"), "--variant", "act",
            "--sample", str(DEGRADE_N), "--steps", str(DEGRADE_STEPS)),
        cmd("tilematch", TILES_N, "--model", model, *data("tiles"), "--variant", "pathcount",
            "--tiles", str(TILES_N)),
    ]
    correlate = [cmd("correlate", CORRELATE_N, "--model", model, *data("pool"),
                     "--sample", str(CORRELATE_N))]
    if workload == "analyze":
        return analyze
    if workload == "correlate":
        return correlate
    if workload == "fanout":
        return analyze + correlate
    raise ValueError(f"unknown workload {workload!r}")


def read_reports(out: str) -> dict[str, bytes]:
    """Every file a command wrote, by name."""
    return {p.name: p.read_bytes() for p in sorted(pathlib.Path(out).iterdir())}


def _json(reports, name):
    return json.loads(reports[name])


def _csv(reports, name):
    lines = reports[name].decode("ascii").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _in_unit(v: float) -> bool:
    return 0.0 <= v <= 1.0


def check(command: Command, reports: dict[str, bytes]) -> list[str]:
    """Invariants any correct program keeps; returns the violations found."""
    bad = []
    name = command.name
    if name == "train":
        # Two epochs leave a correct program near chance on some seeds (0.13
        # to 0.32 held-out accuracy over 14 seeds, 0.08 once after three
        # epochs), so accuracy is not gated here; `eval` of the fully trained
        # fixed model is.
        m = _json(reports, "train_metrics.json")
        if not math.isfinite(m["final_loss"]):
            bad.append(f"train: final_loss {m['final_loss']} is not finite")
        if not (_in_unit(m["train_acc"]) and _in_unit(m["test_acc"])):
            bad.append(f"train: accuracy outside [0, 1]: {m}")
        if hashlib.sha256(reports.get("model.npsc", b"")).hexdigest() != m["model_sha256"]:
            bad.append("train: model.npsc does not match the digest in train_metrics.json")
    elif name == "eval":
        # the fixed model scores 0.996 on held-out digits; a correct forward
        # pass keeps it far above chance on clean digits of any seed
        m = _json(reports, "eval_metrics.json")
        if not 0.9 < m["accuracy"] <= 1.0 or m["samples"] != command.items:
            bad.append(f"eval: accuracy {m['accuracy']} over {m['samples']} samples")
    elif name == "replace-sweep":
        rows = _csv(reports, "sweep.csv")
        if len(rows) != 12:  # three ReLU layers x four kinds
            bad.append(f"replace-sweep: {len(rows)} rows, expected 12")
        for r in rows:
            if not (_in_unit(float(r["accuracy"])) and _in_unit(float(r["mean_on_ratio"]))):
                bad.append(f"replace-sweep: value outside [0, 1] in {r}")
            if r["kind"] == "identity" and r["accuracy"] != r["baseline_accuracy"]:
                bad.append(f"replace-sweep: identity row differs from baseline: {r}")
        if _json(reports, "sweep.json")["metadata"]["samples"] != command.items:
            bad.append("replace-sweep: wrong sample count")
    elif name == "degrade":
        rows = _csv(reports, "degradation.csv")
        morf = [float(r["morf_accuracy"]) for r in rows]
        lerf = [float(r["lerf_accuracy"]) for r in rows]
        if len(rows) != DEGRADE_STEPS + 1:
            bad.append(f"degrade: {len(rows)} curve points, expected {DEGRADE_STEPS + 1}")
        if not all(_in_unit(v) for v in morf + lerf):
            bad.append("degrade: curve value outside [0, 1]")
        if morf[0] != lerf[0] or morf[-1] != lerf[-1]:
            bad.append("degrade: MoRF and LeRF differ at fraction 0 or 1")
        if _json(reports, "degradation.json")["samples"] != command.items:
            bad.append("degrade: wrong sample count")
    elif name == "tilematch":
        m = _json(reports, "tilematch.json")
        if not (_in_unit(m["accuracy"]) and _in_unit(m["shuffled_control_accuracy"])):
            bad.append(f"tilematch: accuracy or control outside [0, 1]: {m}")
        if m["tiles"] != command.items:
            bad.append("tilematch: wrong composite count")
    elif name == "correlate":
        rows = _json(reports, "tau.json")["rows"]
        if not rows:
            bad.append("correlate: no rows")
        for r in rows:
            taus = (r["tau_raw_mean"], r["tau_abs_mean"])
            if r["skipped_images"] == command.items:
                continue  # undefined on every image: the means are NaN by contract
            if not all(-1.0 <= t <= 1.0 for t in taus):
                bad.append(f"correlate: tau outside [-1, 1] in {r}")
    return bad


def deterministic_reports(reports: dict[str, bytes]) -> dict[str, bytes]:
    """Reports that must not depend on the worker count: all but the config
    sidecar, which records the worker count itself."""
    return {k: v for k, v in reports.items() if not k.endswith("_config.json")}
