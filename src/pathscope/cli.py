"""Command-line entry point.

Eight subcommands: train, eval, pathcount, replace-sweep, correlate, cam,
degrade, tilematch. Options come from flags and/or a flat key=value config
file (--config); flags override the file. Every run writes its resolved
configuration as JSON next to its outputs, so reports are reproducible from
the sidecar alone.

Exit codes: 0 success, 2 input/format/argument error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import cam as cam_mod
from . import correlation, data, replacement, reports
from .data import load_idx, mean_pixel, subsample, synthetic_blobs, synthetic_digits
from .errors import ArgumentError, NumericalError, PathscopeError, UndefinedCorrelationError
from .model import (
    build_model,
    desk_spec,
    desk_train_config,
    evaluate_accuracy,
    forward,
    layer_index,
    layer_names,
    load_model,
    model_digest,
    reference_spec,
    reference_train_config,
    save_model,
    train_sgd,
)
from .pathcount import ClipConfig, pathcount_forward

_TYPES = {
    "data_images": str, "data_labels": str, "synthetic": str, "synthetic_n": int,
    "scale_min": float, "scale_max": float, "small_fraction": float,
    "model": str, "out": str, "seed": int,
    "layer": str, "kinds": str, "clip_mode": str, "clip_threshold": float,
    "sample": int, "steps": int, "variant": str, "tiles": int, "workers": int,
    "epochs": int, "batch_size": int, "lr": float, "profile": str,
    "target_class": int,
}

_ALL_KINDS = ",".join(replacement.REPLACEMENT_KINDS)

_DATASET_KEYS = {"data_images": None, "data_labels": None, "synthetic": None,
                 "synthetic_n": 2000, "scale_min": data.DEFAULT_SCALE_RANGE[0],
                 "scale_max": data.DEFAULT_SCALE_RANGE[1], "small_fraction": 0.0}
_CLIP_KEYS = {"clip_mode": "absolute", "clip_threshold": 0.0}

_DEFAULTS: dict[str, dict] = {
    "train": {**_DATASET_KEYS, "synthetic_n": 8000, "out": "train_out", "seed": 0,
              "small_fraction": data.TRAIN_SMALL_FRACTION,
              "profile": "desk", "epochs": None, "batch_size": None, "lr": None},
    "eval": {**_DATASET_KEYS, "model": None, "out": "eval_out", "seed": 0},
    "pathcount": {**_DATASET_KEYS, **_CLIP_KEYS, "model": None, "out": "pathcount_out",
                  "seed": 0, "sample": 0, "layer": None},
    "replace-sweep": {**_DATASET_KEYS, **_CLIP_KEYS, "model": None, "out": "sweep_out",
                      "seed": 0, "kinds": _ALL_KINDS, "sample": 1000, "workers": 1},
    "correlate": {**_DATASET_KEYS, **_CLIP_KEYS, "model": None, "out": "correlate_out",
                  "seed": 0, "sample": 1000, "workers": 1},
    "cam": {**_DATASET_KEYS, **_CLIP_KEYS, "model": None, "out": "cam_out", "seed": 0,
            "sample": 0, "variant": "act", "target_class": None},
    "degrade": {**_DATASET_KEYS, **_CLIP_KEYS, "model": None, "out": "degrade_out",
                "seed": 0, "variant": "act", "steps": 10, "sample": 200, "workers": 1},
    "tilematch": {**_DATASET_KEYS, **_CLIP_KEYS, "model": None, "out": "tilematch_out",
                  "seed": 0, "variant": "act", "tiles": 500, "workers": 1,
                  "scale_min": 1.0, "scale_max": 1.0},
}


def _parse_config_file(path: str, defaults: dict) -> dict:
    out = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise ArgumentError(f"cannot read config file {path}: {e}") from e
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ArgumentError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in defaults:
            raise ArgumentError(f"{path}:{ln}: unknown key {key!r} for this command")
        try:
            out[key] = _TYPES[key](value.strip())
        except ValueError as e:
            raise ArgumentError(f"{path}:{ln}: bad value for {key}: {e}") from e
    return out


def _opt(parser, *names, **kwargs):
    parser.add_argument(*names, default=argparse.SUPPRESS, **kwargs)


def _add_dataset_flags(p):
    _opt(p, "--data-images", help="IDX image file")
    _opt(p, "--data-labels", help="IDX label file")
    _opt(p, "--synthetic", nargs="?", const="digits", choices=["digits", "blobs"],
         help="use a generated dataset (default kind: digits)")
    _opt(p, "--synthetic-n", type=int, help="generated dataset size")
    _opt(p, "--scale-min", type=float, help="digit generator: minimum scale")
    _opt(p, "--scale-max", type=float, help="digit generator: maximum scale")
    _opt(p, "--small-fraction", type=float,
         help="digit generator: fraction drawn at the low-scale augmentation range")


def _add_clip_flags(p):
    _opt(p, "--clip-mode", choices=["absolute", "mean"], help="fc weight clip mode")
    _opt(p, "--clip-threshold", type=float, help="fc weight clip threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathscope")
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, **kw):
        p = sub.add_parser(name, **kw)
        _opt(p, "--config", help="flat key=value config file; flags override it")
        _opt(p, "--out", help="output directory")
        _opt(p, "--seed", type=int)
        return p

    p = new("train", help="train a model and save it")
    _add_dataset_flags(p)
    _opt(p, "--profile", choices=["desk", "reference"])
    _opt(p, "--epochs", type=int)
    _opt(p, "--batch-size", type=int)
    _opt(p, "--lr", type=float)

    p = new("eval", help="accuracy of a saved model on a dataset")
    _add_dataset_flags(p)
    _opt(p, "--model")

    p = new("pathcount", help="path counts of one input, layer by layer")
    _add_dataset_flags(p)
    _add_clip_flags(p)
    _opt(p, "--model")
    _opt(p, "--sample", type=int, help="dataset index of the input to trace")
    _opt(p, "--layer", help="restrict the report to one layer")

    p = new("replace-sweep", help="replacement accuracy per layer and kind")
    _add_dataset_flags(p)
    _add_clip_flags(p)
    _opt(p, "--model")
    _opt(p, "--kinds", help=f"comma list from: {_ALL_KINDS}")
    _opt(p, "--sample", type=int, help="number of images")
    _opt(p, "--workers", type=int)

    p = new("correlate", help="rank correlation of representations vs path counts")
    _add_dataset_flags(p)
    _add_clip_flags(p)
    _opt(p, "--model", help="model file, or comma list to aggregate over seeds")
    _opt(p, "--sample", type=int, help="number of images")
    _opt(p, "--workers", type=int)

    p = new("cam", help="saliency map for one input")
    _add_dataset_flags(p)
    _add_clip_flags(p)
    _opt(p, "--model")
    _opt(p, "--sample", type=int, help="dataset index of the input")
    _opt(p, "--variant", choices=list(cam_mod.CAM_VARIANTS))
    _opt(p, "--target-class", type=int, help="CAM target (default: predicted class)")

    p = new("degrade", help="MoRF/LeRF perturbation curves and area")
    _add_dataset_flags(p)
    _add_clip_flags(p)
    _opt(p, "--model")
    _opt(p, "--variant", choices=list(cam_mod.CAM_VARIANTS + cam_mod.STUB_VARIANTS))
    _opt(p, "--steps", type=int)
    _opt(p, "--sample", type=int, help="number of images")
    _opt(p, "--workers", type=int)

    p = new("tilematch", help="target-matching accuracy on tiled composites")
    _add_dataset_flags(p)
    _add_clip_flags(p)
    _opt(p, "--model")
    _opt(p, "--variant", choices=list(cam_mod.CAM_VARIANTS + cam_mod.STUB_VARIANTS))
    _opt(p, "--tiles", type=int)
    _opt(p, "--workers", type=int)

    return parser


def _merge_config(command: str, flags: dict) -> dict:
    cfg = dict(_DEFAULTS[command])
    config_path = flags.pop("config", None)
    if config_path:
        cfg.update(_parse_config_file(config_path, cfg))
    cfg.update(flags)
    if cfg.get("workers", 1) < 1:
        raise ArgumentError(f"--workers must be >= 1, got {cfg['workers']}")
    return cfg


def _resolve_dataset(cfg: dict):
    if cfg.get("data_images") or cfg.get("data_labels"):
        if not (cfg.get("data_images") and cfg.get("data_labels")):
            raise ArgumentError("pass both --data-images and --data-labels")
        return load_idx(cfg["data_images"], cfg["data_labels"])
    if cfg.get("synthetic"):
        kind = cfg["synthetic"]
        if kind == "digits":
            return synthetic_digits(cfg["synthetic_n"], cfg["seed"],
                                    scale_range=(cfg["scale_min"], cfg["scale_max"]),
                                    small_fraction=cfg["small_fraction"])
        if kind == "blobs":
            return synthetic_blobs(cfg["synthetic_n"], seed=cfg["seed"])
        raise ArgumentError(f"unknown synthetic kind {kind!r}")
    raise ArgumentError("no dataset: pass --synthetic or --data-images/--data-labels")


def _clip(cfg: dict) -> ClipConfig:
    return ClipConfig(cfg["clip_mode"], cfg["clip_threshold"])


def _load_model(cfg: dict):
    if not cfg.get("model"):
        raise ArgumentError("this command needs --model")
    return load_model(cfg["model"])


def _outdir(cfg: dict, command: str) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    reports.write_json(os.path.join(out, f"{command}_config.json"),
                       {"command": command, **cfg})
    return out


def _index_sample(dataset, index: int):
    if not 0 <= index < len(dataset):
        raise ArgumentError(f"--sample {index} out of range for {len(dataset)} images")
    return dataset.images[index], int(dataset.labels[index])


def cmd_train(cfg: dict) -> int:
    seed = cfg["seed"]
    if cfg.get("synthetic") or not cfg.get("data_images"):
        train_ds = _resolve_dataset(cfg)
        test_n = max(1000, cfg["synthetic_n"] // 5)
        if cfg.get("synthetic") == "blobs":
            test_ds = synthetic_blobs(test_n, seed=seed + 1)
        else:
            # held-out set stays on the clean size distribution: the low-scale
            # tail is training augmentation, not part of the task
            test_ds = synthetic_digits(test_n, seed + 1,
                                       scale_range=(cfg["scale_min"], cfg["scale_max"]),
                                       small_fraction=0.0)
    else:
        full = _resolve_dataset(cfg)
        perm = np.random.default_rng(seed).permutation(len(full))
        cut = max(1, int(len(full) * 0.9))
        train_ds, test_ds = full.take(perm[:cut]), full.take(perm[cut:])
    c, h, w = train_ds.images.shape[1:]
    if h != w:
        raise ArgumentError(f"stock profiles expect square images, got {h}x{w}")
    if cfg["profile"] == "reference":
        spec = reference_spec(in_channels=c, image_hw=h, num_classes=train_ds.num_classes)
        tconf = reference_train_config(seed)
    else:
        spec = desk_spec(in_channels=c, image_hw=h, num_classes=train_ds.num_classes)
        tconf = desk_train_config(seed)
    overrides = {k: cfg[a] for k, a in
                 [("epochs", "epochs"), ("batch_size", "batch_size"), ("learning_rate", "lr")]
                 if cfg.get(a) is not None}
    if overrides:
        tconf = dataclasses.replace(tconf, **overrides)
    out = _outdir(cfg, "train")
    weights = build_model(spec, seed)
    weights, losses = train_sgd(weights, spec, train_ds, tconf)
    train_acc = evaluate_accuracy(weights, spec, train_ds)
    test_acc = evaluate_accuracy(weights, spec, test_ds)
    model_path = os.path.join(out, "model.npsc")
    save_model(weights, spec, model_path)
    reports.write_json(os.path.join(out, "train_metrics.json"), {
        "train_acc": train_acc, "test_acc": test_acc, "epochs": tconf.epochs,
        "seed": seed, "final_loss": losses[-1], "model_sha256": model_digest(weights, spec),
    })
    print(f"model={model_path} train_acc={train_acc:.4f} test_acc={test_acc:.4f}")
    return 0


def cmd_eval(cfg: dict) -> int:
    spec, weights = _load_model(cfg)
    dataset = _resolve_dataset(cfg)
    out = _outdir(cfg, "eval")
    acc = evaluate_accuracy(weights, spec, dataset)
    reports.write_json(os.path.join(out, "eval_metrics.json"), {
        "accuracy": acc, "samples": len(dataset),
        "model_sha256": model_digest(weights, spec),
    })
    print(f"accuracy={acc:.4f} n={len(dataset)}")
    return 0


def cmd_pathcount(cfg: dict) -> int:
    spec, weights = _load_model(cfg)
    dataset = _resolve_dataset(cfg)
    x, _ = _index_sample(dataset, cfg["sample"])
    names = layer_names(spec)
    layers = names if cfg.get("layer") is None else [cfg["layer"]]
    for layer in layers:
        layer_index(names, layer)
    trace = forward(weights, spec, x)
    counts = pathcount_forward(weights, spec, trace, _clip(cfg))
    out = _outdir(cfg, "pathcount")
    rows = []
    for layer in layers:
        flat = counts.layer(layer).reshape(-1)
        rows += [[layer, i, flat[i]] for i in range(flat.size)]
    reports.write_csv(os.path.join(out, "pathcount.csv"),
                      ["layer", "neuron_index", "count"], rows)
    reports.write_json(os.path.join(out, "pathcount.json"), {
        "exact": counts.exact, "sample": cfg["sample"],
        "layers": {layer: counts.layer(layer).reshape(-1) for layer in layers},
    })
    print(f"layers={len(layers)} exact={counts.exact}")
    return 0


def cmd_replace_sweep(cfg: dict) -> int:
    spec, weights = _load_model(cfg)
    dataset = _resolve_dataset(cfg)
    if cfg["sample"] < len(dataset):
        dataset = subsample(dataset, cfg["sample"], cfg["seed"])
    kinds = tuple(k.strip() for k in cfg["kinds"].split(",") if k.strip())
    report = replacement.sweep(weights, spec, dataset, kinds, _clip(cfg), cfg["workers"])
    out = _outdir(cfg, "replace-sweep")
    reports.write_csv(os.path.join(out, "sweep.csv"), replacement.SWEEP_CSV_HEADER,
                      replacement.sweep_csv_rows(report))
    reports.write_json(os.path.join(out, "sweep.json"), {
        "metadata": report.metadata,
        "rows": [dataclasses.asdict(r) for r in report.rows],
    })
    for r in report.rows:
        print(f"{r.layer} {r.kind} acc={r.accuracy:.4f} base={r.baseline_accuracy:.4f}")
    return 0


def cmd_correlate(cfg: dict) -> int:
    if not cfg.get("model"):
        raise ArgumentError("this command needs --model")
    paths = [p.strip() for p in cfg["model"].split(",") if p.strip()]
    dataset = _resolve_dataset(cfg)
    if cfg["sample"] < len(dataset):
        dataset = subsample(dataset, cfg["sample"], cfg["seed"])
    out = _outdir(cfg, "correlate")
    per_model = []
    for i, path in enumerate(paths):
        spec, weights = load_model(path)
        rep = correlation.layerwise_tau(weights, spec, dataset, _clip(cfg), cfg["workers"])
        per_model.append(rep)
        if len(paths) > 1:
            reports.write_csv(os.path.join(out, f"tau_model{i}.csv"),
                              correlation.TAU_CSV_HEADER, correlation.tau_csv_rows(rep))
    report = per_model[0] if len(per_model) == 1 else correlation.aggregate_tau(per_model)
    reports.write_csv(os.path.join(out, "tau.csv"), correlation.TAU_CSV_HEADER,
                      correlation.tau_csv_rows(report))
    reports.write_json(os.path.join(out, "tau.json"), {
        "metadata": report.metadata,
        "rows": [dataclasses.asdict(r) for r in report.rows],
    })
    for r in report.rows:
        print(f"{r.layer} tau_raw={r.tau_raw_mean:.3f} tau_abs={r.tau_abs_mean:.3f}")
    return 0


def cmd_cam(cfg: dict) -> int:
    spec, weights = _load_model(cfg)
    dataset = _resolve_dataset(cfg)
    x, label = _index_sample(dataset, cfg["sample"])
    trace = forward(weights, spec, x)
    target = cfg["target_class"]
    if target is None:
        target = int(np.argmax(trace.logits))
    sal = cam_mod.grad_cam(weights, spec, x, target, cfg["variant"], _clip(cfg))
    out = _outdir(cfg, "cam")
    reports.write_pgm(os.path.join(out, "cam.pgm"), sal)
    reports.write_csv(os.path.join(out, "cam.csv"),
                      [f"c{j}" for j in range(sal.shape[1])], sal.tolist())
    reports.write_json(os.path.join(out, "cam.json"), {
        "variant": cfg["variant"], "target_class": target, "label": label,
        "sample": cfg["sample"], "layer": cam_mod.cam_layer(spec),
    })
    print(f"target={target} layer={cam_mod.cam_layer(spec)} max_at="
          f"{np.unravel_index(int(sal.argmax()), sal.shape)}")
    return 0


def cmd_degrade(cfg: dict) -> int:
    spec, weights = _load_model(cfg)
    dataset = _resolve_dataset(cfg)
    if cfg["sample"] < len(dataset):
        dataset = subsample(dataset, cfg["sample"], cfg["seed"])
    morf, lerf, area = cam_mod.degradation_score(
        weights, spec, dataset, cfg["variant"], cfg["steps"], _clip(cfg),
        workers=cfg["workers"], seed=cfg["seed"])
    fractions = np.linspace(0.0, 1.0, cfg["steps"] + 1)
    out = _outdir(cfg, "degrade")
    reports.write_csv(os.path.join(out, "degradation.csv"),
                      ["fraction", "morf_accuracy", "lerf_accuracy"],
                      [[fractions[i], morf[i], lerf[i]] for i in range(len(fractions))])
    reports.write_json(os.path.join(out, "degradation.json"), {
        "area": area, "variant": cfg["variant"], "steps": cfg["steps"],
        "samples": len(dataset), "fill": mean_pixel(dataset),
    })
    print(f"variant={cfg['variant']} area={area:.4f}")
    return 0


def cmd_tilematch(cfg: dict) -> int:
    spec, weights = _load_model(cfg)
    dataset = _resolve_dataset(cfg)
    tiled = cam_mod.make_tiled(dataset, cfg["tiles"], cfg["seed"])
    acc = cam_mod.target_matching_accuracy(
        weights, spec, tiled, cfg["variant"], _clip(cfg), cfg["workers"])
    control = cam_mod.target_matching_accuracy(
        weights, spec, tiled, cfg["variant"], _clip(cfg), cfg["workers"],
        target_shuffle_seed=cfg["seed"] + 1)
    out = _outdir(cfg, "tilematch")
    reports.write_csv(os.path.join(out, "tilematch.csv"),
                      ["variant", "accuracy", "shuffled_control_accuracy", "tiles"],
                      [[cfg["variant"], acc, control, len(tiled)]])
    reports.write_json(os.path.join(out, "tilematch.json"), {
        "variant": cfg["variant"], "accuracy": acc,
        "shuffled_control_accuracy": control, "tiles": len(tiled),
    })
    print(f"variant={cfg['variant']} accuracy={acc:.4f} control={control:.4f}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "pathcount": cmd_pathcount,
    "replace-sweep": cmd_replace_sweep,
    "correlate": cmd_correlate,
    "cam": cmd_cam,
    "degrade": cmd_degrade,
    "tilematch": cmd_tilematch,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = vars(args)
    command = flags.pop("command")
    try:
        cfg = _merge_config(command, flags)
        return _COMMANDS[command](cfg)
    except (NumericalError, UndefinedCorrelationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (PathscopeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
