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
from typing import Callable, NamedTuple

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

_ALL_KINDS = ",".join(replacement.REPLACEMENT_KINDS)

# Every option once: its argparse keywords, whose `type` also types the
# option's value when it comes from a --config file.
_OPTIONS: dict[str, dict] = {
    "out": dict(type=str, help="output directory"),
    "seed": dict(type=int),
    "data_images": dict(type=str, help="IDX image file"),
    "data_labels": dict(type=str, help="IDX label file"),
    "synthetic": dict(type=str, nargs="?", const="digits", choices=["digits", "blobs"],
                      help="use a generated dataset (default kind: digits)"),
    "synthetic_n": dict(type=int, help="generated dataset size"),
    "scale_min": dict(type=float, help="digit generator: minimum scale"),
    "scale_max": dict(type=float, help="digit generator: maximum scale"),
    "small_fraction": dict(type=float, help="digit generator: fraction drawn at the "
                                            "low-scale augmentation range"),
    "clip_mode": dict(type=str, choices=["absolute", "mean"], help="fc weight clip mode"),
    "clip_threshold": dict(type=float, help="fc weight clip threshold"),
    "model": dict(type=str),
    "profile": dict(type=str, choices=["desk", "reference"]),
    "epochs": dict(type=int),
    "batch_size": dict(type=int),
    "lr": dict(type=float),
    "sample": dict(type=int, help="number of images"),
    "layer": dict(type=str, help="restrict the report to one layer"),
    "kinds": dict(type=str, help=f"comma list from: {_ALL_KINDS}"),
    "workers": dict(type=int),
    "variant": dict(type=str, choices=list(cam_mod.CAM_VARIANTS + cam_mod.STUB_VARIANTS)),
    "target_class": dict(type=int, help="CAM target (default: predicted class)"),
    "steps": dict(type=int),
    "tiles": dict(type=int),
}

_DATASET_KEYS = {"data_images": None, "data_labels": None, "synthetic": None,
                 "synthetic_n": 2000, "scale_min": data.DEFAULT_SCALE_RANGE[0],
                 "scale_max": data.DEFAULT_SCALE_RANGE[1], "small_fraction": 0.0}


def _analysis_keys(out: str, **keys) -> dict:
    """Defaults shared by the commands that analyse a saved model."""
    return {"out": out, "seed": 0, **_DATASET_KEYS, "clip_mode": "absolute",
            "clip_threshold": 0.0, "model": None, **keys}


def _option(command: str, key: str) -> dict:
    """Argparse keywords of `key` as `command` declares it."""
    return {**_OPTIONS[key], **_COMMANDS[command].overrides.get(key, {})}


def _parse_config_file(path: str, command: str) -> dict:
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
        if key not in _COMMANDS[command].defaults:
            raise ArgumentError(f"{path}:{ln}: unknown key {key!r} for this command")
        option = _option(command, key)
        try:
            out[key] = option["type"](value.strip())
        except ValueError as e:
            raise ArgumentError(f"{path}:{ln}: bad value for {key}: {e}") from e
        if "choices" in option and out[key] not in option["choices"]:
            raise ArgumentError(f"{path}:{ln}: bad value for {key}: {out[key]!r}; "
                                f"choose from {', '.join(option['choices'])}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathscope")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="flat key=value config file; flags override it")
        for key in command.defaults:
            p.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                           **_option(name, key))
    return parser


def _merge_config(command: str, flags: dict) -> dict:
    cfg = dict(_COMMANDS[command].defaults)
    config_path = flags.pop("config", None)
    if config_path:
        cfg.update(_parse_config_file(config_path, command))
    cfg.update(flags)
    if cfg.get("workers", 1) < 1:
        raise ArgumentError(f"--workers must be >= 1, got {cfg['workers']}")
    if cfg["seed"] < 0:
        raise ArgumentError(f"--seed must be >= 0, got {cfg['seed']}")
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


def _sampled_dataset(cfg: dict):
    """The dataset, cut to a seeded subsample of --sample images when smaller."""
    dataset = _resolve_dataset(cfg)
    if cfg["sample"] < len(dataset):
        dataset = subsample(dataset, cfg["sample"], cfg["seed"])
    return dataset


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
    weights = build_model(spec, seed)
    weights, losses = train_sgd(weights, spec, train_ds, tconf)
    train_acc = evaluate_accuracy(weights, spec, train_ds)
    test_acc = evaluate_accuracy(weights, spec, test_ds)
    out = _outdir(cfg, "train")  # after the work: a failed run writes nothing
    model_path = os.path.join(out, "model.npsc")
    save_model(weights, spec, model_path)
    reports.write_json(os.path.join(out, "train_metrics.json"), {
        "train_acc": train_acc, "test_acc": test_acc, "epochs": tconf.epochs,
        "seed": seed, "final_loss": losses[-1], "loss_history": losses,
        "model_sha256": model_digest(weights, spec),
    })
    print(f"model={model_path} train_acc={train_acc:.4f} test_acc={test_acc:.4f}")
    return 0


def cmd_eval(cfg: dict) -> int:
    spec, weights = _load_model(cfg)
    dataset = _resolve_dataset(cfg)
    acc = evaluate_accuracy(weights, spec, dataset)
    out = _outdir(cfg, "eval")
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
    dataset = _sampled_dataset(cfg)
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
    paths = [p.strip() for p in (cfg.get("model") or "").split(",") if p.strip()]
    if not paths:
        raise ArgumentError("this command needs --model")
    # every check before any tau, and every file after the last one: a failed
    # run writes nothing
    models = [load_model(path) for path in paths]
    layers = [correlation.correlated_layers(spec) for spec, _ in models]
    for path, other in zip(paths[1:], layers[1:]):
        if other != layers[0]:
            raise ArgumentError(f"{path} correlates different layers than {paths[0]}: "
                                f"{other} vs {layers[0]}")
    dataset = _sampled_dataset(cfg)
    per_model = [correlation.layerwise_tau(weights, spec, dataset, _clip(cfg), cfg["workers"])
                 for spec, weights in models]
    report = per_model[0] if len(per_model) == 1 else correlation.aggregate_tau(per_model)
    out = _outdir(cfg, "correlate")
    if len(per_model) > 1:
        for i, rep in enumerate(per_model):
            reports.write_csv(os.path.join(out, f"tau_model{i}.csv"),
                              correlation.TAU_CSV_HEADER, correlation.tau_csv_rows(rep))
    reports.write_csv(os.path.join(out, "tau.csv"), correlation.TAU_CSV_HEADER,
                      correlation.tau_csv_rows(report))
    reports.write_json(os.path.join(out, "tau.json"), {
        "metadata": report.metadata,
        "rows": [dataclasses.asdict(r) for r in report.rows],
    })
    for r in report.rows:
        print(f"{r.layer} tau_raw={r.tau_raw_mean:.3f} tau_abs={r.tau_abs_mean:.3f}")
    for r in report.rows:
        if r.skipped_images:
            print(f"{r.layer}: tau-b undefined on {r.skipped_images}/{report.metadata['samples']}"
                  " images (a vector is all ties)", file=sys.stderr)
    return 0


def cmd_cam(cfg: dict) -> int:
    spec, weights = _load_model(cfg)
    dataset = _resolve_dataset(cfg)
    x, label = _index_sample(dataset, cfg["sample"])
    trace = forward(weights, spec, x)
    target = cfg["target_class"]
    if target is None:
        target = int(np.argmax(trace.logits))
    sal = cam_mod.saliency_map(weights, spec, trace, target, cfg["variant"], _clip(cfg))
    out = _outdir(cfg, "cam")
    reports.write_pgm(os.path.join(out, "cam.pgm"), sal)
    reports.write_csv(os.path.join(out, "cam.csv"),
                      [f"c{j}" for j in range(sal.shape[1])], sal.tolist())
    reports.write_json(os.path.join(out, "cam.json"), {
        "variant": cfg["variant"], "target_class": target, "label": label,
        "sample": cfg["sample"], "layer": cam_mod.cam_layer(spec),
    })
    print(f"target={target} layer={cam_mod.cam_layer(spec)} max_at="
          f"{divmod(int(sal.argmax()), sal.shape[1])}")
    return 0


def cmd_degrade(cfg: dict) -> int:
    spec, weights = _load_model(cfg)
    dataset = _sampled_dataset(cfg)
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


class _Command(NamedTuple):
    run: Callable[[dict], int]
    help: str
    defaults: dict  # option -> default; also the command's config-file keys
    overrides: dict = {}  # option -> argparse keywords that differ for this command


_COMMANDS = {
    "train": _Command(cmd_train, "train a model and save it", {
        "out": "train_out", "seed": 0, **_DATASET_KEYS, "synthetic_n": 8000,
        "small_fraction": data.TRAIN_SMALL_FRACTION,
        "profile": "desk", "epochs": None, "batch_size": None, "lr": None}),
    "eval": _Command(cmd_eval, "accuracy of a saved model on a dataset", {
        "out": "eval_out", "seed": 0, **_DATASET_KEYS, "model": None}),
    "pathcount": _Command(
        cmd_pathcount, "path counts of one input, layer by layer",
        _analysis_keys("pathcount_out", sample=0, layer=None),
        {"sample": {"help": "dataset index of the input to trace"}}),
    "replace-sweep": _Command(
        cmd_replace_sweep, "replacement accuracy per layer and kind",
        _analysis_keys("sweep_out", kinds=_ALL_KINDS, sample=1000, workers=1)),
    "correlate": _Command(
        cmd_correlate, "rank correlation of representations vs path counts",
        _analysis_keys("correlate_out", sample=1000, workers=1),
        {"model": {"help": "model file, or comma list to aggregate over seeds"}}),
    "cam": _Command(
        cmd_cam, "saliency map for one input",
        _analysis_keys("cam_out", sample=0, variant="act", target_class=None),
        {"sample": {"help": "dataset index of the input"},
         "variant": {"choices": list(cam_mod.CAM_VARIANTS)}}),
    "degrade": _Command(
        cmd_degrade, "MoRF/LeRF perturbation curves and area",
        _analysis_keys("degrade_out", variant="act", steps=10, sample=200, workers=1)),
    "tilematch": _Command(
        cmd_tilematch, "target-matching accuracy on tiled composites",
        _analysis_keys("tilematch_out", variant="act", tiles=500, workers=1,
                       scale_min=1.0, scale_max=1.0)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = vars(args)
    command = flags.pop("command")
    try:
        cfg = _merge_config(command, flags)
        return _COMMANDS[command].run(cfg)
    except (NumericalError, UndefinedCorrelationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (PathscopeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
