#!/usr/bin/env python3
"""Run the full desk-scale experiment battery into one output directory.

Trains the small three-conv-block profile on synthetic digits, then chains
every report the CLI offers: evaluation, activation-replacement sweep,
layerwise rank correlation, CAM exports, MoRF/LeRF degradation for each
saliency variant, and tiled target matching.  Results land in
<outdir>/{train,eval,sweep,tau,cam_*,degrade_*,tilematch_*}/.

Roughly 15 minutes on one CPU; --quick cuts sample sizes for a smoke run.
"""

import argparse
import json
import sys
from pathlib import Path

from pathscope.cli import main as cli


def step(outdir: Path, name: str, args: list[str]) -> Path:
    sub = outdir / name
    print(f"== {name}: pathscope {' '.join(args)}", flush=True)
    code = cli(args + ["--out", str(sub)])
    if code != 0:
        print(f"step {name} failed with exit code {code}", file=sys.stderr)
        raise SystemExit(code)
    return sub


def show(path: Path, keys: tuple[str, ...]) -> None:
    report = json.loads(path.read_text())
    print("   " + ", ".join(f"{k}={report[k]}" for k in keys if k in report), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="runs/desk", help="directory for all reports")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true", help="small samples, 2 epochs")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = str(args.seed)
    n_train = "800" if args.quick else "8000"
    n_eval = "200" if args.quick else "2000"
    n_sweep = "100" if args.quick else "500"
    n_degrade = "40" if args.quick else "200"
    n_tiles = "50" if args.quick else "500"
    epochs = ["--epochs", "2"] if args.quick else []

    train = step(outdir, "train", ["train", "--synthetic", "digits", "--synthetic-n",
                                   n_train, "--profile", "desk", "--seed", seed] + epochs)
    model = str(train / "model.npsc")
    show(train / "train_metrics.json", ("train_acc", "test_acc", "epochs"))

    ev = step(outdir, "eval", ["eval", "--model", model, "--synthetic", "digits",
                               "--synthetic-n", n_eval, "--seed", "1"])
    show(ev / "eval_metrics.json", ("accuracy", "samples"))

    sw = step(outdir, "sweep", ["replace-sweep", "--model", model, "--synthetic",
                                "--synthetic-n", n_eval, "--sample", n_sweep,
                                "--seed", "1"])
    print((sw / "sweep.csv").read_text().rstrip(), flush=True)

    step(outdir, "tau", ["correlate", "--model", model, "--synthetic",
                         "--synthetic-n", n_eval, "--sample",
                         "20" if args.quick else "50", "--seed", "1"])

    for variant in ("act", "onoff", "pathcount"):
        step(outdir, f"cam_{variant}", ["cam", "--model", model, "--synthetic",
                                        "--synthetic-n", "16", "--sample", "0",
                                        "--variant", variant, "--seed", "1"])

    for variant in ("act", "onoff", "pathcount", "random", "uniform"):
        d = step(outdir, f"degrade_{variant}",
                 ["degrade", "--model", model, "--synthetic", "--synthetic-n", n_eval,
                  "--sample", n_degrade, "--variant", variant, "--seed", "1"])
        show(d / "degradation.json", ("variant", "area"))

    for variant in ("act", "onoff", "pathcount"):
        t = step(outdir, f"tilematch_{variant}",
                 ["tilematch", "--model", model, "--synthetic", "--synthetic-n", n_eval,
                  "--tiles", n_tiles, "--variant", variant, "--seed", "1"])
        show(t / "tilematch.json", ("variant", "accuracy", "shuffled_control_accuracy"))

    print(f"all reports under {outdir}/", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
