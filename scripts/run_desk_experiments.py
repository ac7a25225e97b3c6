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
import sys
from pathlib import Path


def analyses(quick: bool) -> dict[str, list[str]]:
    """The battery's analysis commands, by report directory, without --model
    and --out. scripts/identity.py reruns them, so they are stated only here."""
    pool = ["--synthetic", "--synthetic-n", "200" if quick else "2000", "--seed", "1"]
    steps = {
        "eval": ["eval", *pool],
        "sweep": ["replace-sweep", *pool, "--sample", "100" if quick else "500"],
        "tau": ["correlate", *pool, "--sample", "20" if quick else "50"],
    }
    for variant in ("act", "onoff", "pathcount"):
        steps[f"cam_{variant}"] = ["cam", "--synthetic", "--synthetic-n", "16", "--sample",
                                   "0", "--variant", variant, "--seed", "1"]
    for variant in ("act", "onoff", "pathcount", "random", "uniform"):
        steps[f"degrade_{variant}"] = ["degrade", *pool, "--sample", "40" if quick else "200",
                                       "--variant", variant]
    for variant in ("act", "onoff", "pathcount"):
        steps[f"tilematch_{variant}"] = ["tilematch", *pool, "--tiles",
                                         "50" if quick else "500", "--variant", variant]
    return steps


def step(outdir: Path, name: str, args: list[str]) -> Path:
    # Imported here so that scripts/identity.py can read analyses() without
    # pathscope on its path.
    from pathscope.cli import main as cli

    sub = outdir / name
    print(f"== {name}: pathscope {' '.join(args)}", flush=True)
    code = cli(args + ["--out", str(sub)])
    if code != 0:
        print(f"step {name} failed with exit code {code}", file=sys.stderr)
        raise SystemExit(code)
    return sub


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="runs/desk", help="directory for all reports")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true", help="small samples, 2 epochs")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    epochs = ["--epochs", "2"] if args.quick else []

    train = step(outdir, "train", ["train", "--synthetic", "digits", "--synthetic-n",
                                   "800" if args.quick else "8000", "--profile", "desk",
                                   "--seed", str(args.seed)] + epochs)
    model = str(train / "model.npsc")

    for name, argv in analyses(args.quick).items():
        step(outdir, name, [*argv, "--model", model])

    print(f"all reports under {outdir}/", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
