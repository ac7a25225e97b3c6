#!/usr/bin/env python3
"""Write a synthetic dataset to an IDX image/label file pair.

The files use the classic big-endian IDX layout (magic 0x803 for images,
0x801 for labels, unsigned bytes), so they are interchangeable with real
MNIST files: anything exported here can be fed back through the CLI's
--data-images/--data-labels flags, and vice versa. Bad values print
`error: ...` and exit 2 before any file is written, as the CLI does.
"""

import argparse
import sys
from pathlib import Path

from pathscope import synthetic_blobs, synthetic_digits, write_idx
from pathscope.data import DEFAULT_SCALE_RANGE
from pathscope.errors import PathscopeError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("digits", "blobs"), default="digits")
    ap.add_argument("--n", type=int, default=8000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale-min", type=float, default=DEFAULT_SCALE_RANGE[0],
                    help="digit generator: minimum size factor")
    ap.add_argument("--scale-max", type=float, default=DEFAULT_SCALE_RANGE[1],
                    help="digit generator: maximum size factor")
    ap.add_argument("--small-fraction", type=float, default=0.0,
                    help="digit generator: fraction drawn at the low-scale range")
    ap.add_argument("--outdir", default="data")
    args = ap.parse_args()

    try:
        if args.kind == "digits":
            ds = synthetic_digits(args.n, seed=args.seed, scale_range=(args.scale_min, args.scale_max),
                                  small_fraction=args.small_fraction)
        else:
            ds = synthetic_blobs(args.n, seed=args.seed)

        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.kind}-{args.n}-seed{args.seed}"
        images = outdir / f"{stem}-images.idx"
        labels = outdir / f"{stem}-labels.idx"
        write_idx(ds, images, labels)
    except (PathscopeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"wrote {images} and {labels} ({len(ds)} samples, {ds.num_classes} classes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
