"""End-to-end CLI checks: every command is run in-process through main(),
asserting on exit codes, emitted files, and reproducibility."""

import argparse
import hashlib
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import pathscope
from pathscope import (
    Dataset,
    ModelSpec,
    conv,
    fc,
    flatten,
    maxpool,
    relu,
    save_model,
    write_idx,
)
from pathscope import reports
from pathscope.cli import _merge_config, build_parser, main
from pathscope.model import build_model, desk_spec, reference_spec


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as f:
        rows = [line.rstrip("\n").split(",") for line in f]
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def fc_fixture(tmp_path_factory):
    """A 2-input/2-hidden/2-output all-ones net plus a one-image IDX pair;
    every hidden unit is on, so each output neuron keeps 4 paths."""
    d = tmp_path_factory.mktemp("fcnet")
    spec = ModelSpec((1, 1, 2), 2, (flatten(), fc(2), relu(), fc(2)))
    weights = {"fc1": np.ones((2, 2), dtype=np.float32),
               "fc2": np.ones((2, 2), dtype=np.float32)}
    model = str(d / "model.npsc")
    save_model(weights, spec, model)
    ds = Dataset(np.full((1, 1, 1, 2), 0.5, dtype=np.float32),
                 np.zeros(1, dtype=np.int64), 2)
    images, labels = str(d / "img.idx"), str(d / "lbl.idx")
    write_idx(ds, images, labels)
    return model, images, labels


@pytest.fixture(scope="module")
def conv_fixture(tmp_path_factory):
    """A small random conv net and a matching 8-image IDX dataset."""
    d = tmp_path_factory.mktemp("convnet")
    spec = ModelSpec((1, 6, 6), 3, (conv(2), relu(), maxpool(), flatten(), fc(3)))
    model = str(d / "model.npsc")
    save_model(build_model(spec, seed=5), spec, model)
    rng = np.random.default_rng(17)
    ds = Dataset(rng.random((8, 1, 6, 6), dtype=np.float32),
                 rng.integers(0, 3, 8).astype(np.int64), 3)
    images, labels = str(d / "img.idx"), str(d / "lbl.idx")
    write_idx(ds, images, labels)
    return model, images, labels


@pytest.fixture(scope="module")
def digits_idx(tmp_path_factory):
    """Three IDX pairs of the same 40 digits: as generated, reshaped to 14x56
    (the pixel count of 28x28), and relabelled 5-14."""
    d = tmp_path_factory.mktemp("digits")
    ds = pathscope.synthetic_digits(40, seed=0)
    variants = {"digits": ds, "wide": Dataset(ds.images.reshape(40, 1, 14, 56), ds.labels, 10),
                "relabelled": Dataset(ds.images, ds.labels + 5, 15)}
    pairs = {}
    for name, variant in variants.items():
        pairs[name] = (str(d / f"{name}-img.idx"), str(d / f"{name}-lbl.idx"))
        write_idx(variant, *pairs[name])
    return pairs


@pytest.fixture(scope="module")
def desk_fixture(tmp_path_factory):
    """An untrained desk-profile model for 28x28 synthetic datasets."""
    d = tmp_path_factory.mktemp("desknet")
    spec = desk_spec()
    model = str(d / "model.npsc")
    save_model(build_model(spec, seed=1), spec, model)
    return model


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_is_deterministic(tmp_path):
    args = ["train", "--synthetic", "blobs", "--synthetic-n", "60",
            "--epochs", "1", "--seed", "7"]
    assert run(*args, "--out", str(tmp_path / "a")) == 0
    assert run(*args, "--out", str(tmp_path / "b")) == 0
    digest = lambda p: hashlib.sha256(open(p, "rb").read()).hexdigest()
    assert digest(tmp_path / "a" / "model.npsc") == digest(tmp_path / "b" / "model.npsc")
    ma = json.load(open(tmp_path / "a" / "train_metrics.json"))
    mb = json.load(open(tmp_path / "b" / "train_metrics.json"))
    assert ma == mb
    assert set(ma) == {"train_acc", "test_acc", "epochs", "seed", "final_loss",
                       "loss_history", "model_sha256"}


def test_train_on_idx_pair_is_deterministic(digits_idx, tmp_path):
    images, labels = digits_idx["digits"]
    for out in ("a", "b"):
        assert run("train", "--data-images", images, "--data-labels", labels,
                   "--epochs", "1", "--out", str(tmp_path / out)) == 0
    model = lambda out: (tmp_path / out / "model.npsc").read_bytes()
    assert model("a") == model("b")
    # the held-out set is the last 10% of the shuffled pair: 4 of 40 images
    test_acc = json.load(open(tmp_path / "a" / "train_metrics.json"))["test_acc"]
    assert test_acc * 4 == round(test_acc * 4)


def test_train_records_loss_history(tmp_path):
    assert run("train", "--synthetic", "blobs", "--synthetic-n", "40",
               "--epochs", "3", "--out", str(tmp_path)) == 0
    m = json.load(open(tmp_path / "train_metrics.json"))
    assert len(m["loss_history"]) == 3
    assert m["loss_history"][-1] == m["final_loss"]


def test_train_model_independent_of_blas_threads(tmp_path):
    # The kernel gradient is one BLAS product per image; the thread count
    # OpenBLAS splits it over must not change the trained model. Exactly two
    # processes, one per thread count.
    src = os.path.dirname(os.path.dirname(pathscope.__file__))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", "from pathscope.cli import entrypoint; entrypoint()",
                        "train", "--profile", "desk", "--synthetic", "--synthetic-n", "200",
                        "--epochs", "1", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        digests.append(hashlib.sha256((out / "model.npsc").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_train_writes_config_sidecar(tmp_path):
    out = tmp_path / "run"
    assert run("train", "--synthetic", "blobs", "--synthetic-n", "40",
               "--epochs", "1", "--out", str(out)) == 0
    cfg = json.load(open(out / "train_config.json"))
    assert cfg["command"] == "train"
    assert cfg["synthetic"] == "blobs"
    assert cfg["synthetic_n"] == 40
    assert cfg["epochs"] == 1
    assert cfg["seed"] == 0  # default filled in


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exploding_training_exits_3(tmp_path):
    code = run("train", "--synthetic", "blobs", "--synthetic-n", "40",
               "--epochs", "4", "--lr", "1e12", "--out", str(tmp_path / "x"))
    assert code == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_training_exits_3_without_writing(tmp_path):
    # train computes before it writes: a loss that goes to NaN leaves no
    # train_config.json (or any other file) behind
    assert run("train", "--synthetic", "blobs", "--synthetic-n", "40", "--epochs", "4",
               "--lr", "1e12", "--out", str(tmp_path / "o")) == 3
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_batch_divergence_exits_3_without_writing(tmp_path, capsys):
    # one batch per epoch: the loss check sees only the loss from before the
    # update, so the overflowing model is caught when train scores it
    assert run("train", "--synthetic", "--synthetic-n", "20", "--epochs", "1",
               "--lr", "1e30", "--out", str(tmp_path / "o")) == 3
    assert "non-finite logits" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def overflowing_model(tmp_path_factory):
    """A desk model whose weights are finite but whose logits overflow float32."""
    spec = desk_spec()
    model = str(tmp_path_factory.mktemp("overflow") / "model.npsc")
    save_model({k: v * np.float32(1e12) for k, v in build_model(spec, seed=1).items()},
               spec, model)
    return model


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, args", [
    ("eval", []), ("replace-sweep", ["--sample", "2"]), ("degrade", ["--sample", "2"]),
    ("correlate", ["--sample", "2"]), ("tilematch", ["--tiles", "2"]), ("cam", []),
    ("pathcount", []),
])
def test_overflowing_logits_exit_3_without_writing(overflowing_model, tmp_path, capsys,
                                                    command, args):
    assert run(command, "--model", overflowing_model, "--synthetic", "--synthetic-n", "10",
               *args, "--out", str(tmp_path / "o")) == 3
    assert "non-finite logits" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"),
    ("--small-fraction", "-0.1"), ("--small-fraction", "1.5"), ("--small-fraction", "nan"),
])
def test_bad_train_value_exits_2_before_writing(tmp_path, capsys, flag, value):
    assert run("train", "--synthetic", "--synthetic-n", "50", "--epochs", "1", flag, value,
               "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# dataset and model resolution failures
# ---------------------------------------------------------------------------


def test_no_dataset_exits_2(conv_fixture, tmp_path, capsys):
    model, _, _ = conv_fixture
    assert run("eval", "--model", model, "--out", str(tmp_path / "o")) == 2
    assert "dataset" in capsys.readouterr().err


def test_half_an_idx_pair_exits_2(conv_fixture, tmp_path):
    model, images, _ = conv_fixture
    assert run("eval", "--model", model, "--data-images", images,
               "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("command", ["train", "eval"])
def test_both_dataset_sources_exit_2_without_writing(digits_idx, desk_fixture, tmp_path, capsys,
                                                      command):
    images, labels = digits_idx["digits"]
    model = ["--model", desk_fixture] if command == "eval" else ["--epochs", "1"]
    assert run(command, *model, "--synthetic", "--data-images", images,
               "--data-labels", labels, "--out", str(tmp_path / "o")) == 2
    assert "not both" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_images_of_another_shape_exit_2_without_writing(digits_idx, desk_fixture, tmp_path,
                                                        capsys):
    # 14x56 images hold as many pixels as the desk model's 28x28 input
    images, labels = digits_idx["wide"]
    assert run("eval", "--model", desk_fixture, "--data-images", images,
               "--data-labels", labels, "--out", str(tmp_path / "o")) == 2
    assert "(1, 14, 56) != conv1.conv input (1, 28, 28)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, args", [
    ("eval", []), ("replace-sweep", ["--kinds", "identity"]), ("degrade", ["--steps", "2"]),
])
def test_labels_outside_model_classes_exit_2_without_writing(digits_idx, desk_fixture, tmp_path,
                                                             capsys, command, args):
    images, labels = digits_idx["relabelled"]  # labels 5-14 against 10 classes
    assert run(command, "--model", desk_fixture, "--data-images", images,
               "--data-labels", labels, *args, "--out", str(tmp_path / "o")) == 2
    assert "label 14 out of range for 10 classes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_model_flag_exits_2(tmp_path, capsys):
    assert run("eval", "--synthetic", "--out", str(tmp_path / "o")) == 2
    assert "--model" in capsys.readouterr().err


def test_nonexistent_model_file_exits_2(tmp_path):
    assert run("eval", "--synthetic", "--model", str(tmp_path / "ghost.npsc"),
               "--out", str(tmp_path / "o")) == 2


def test_corrupt_model_file_exits_2(conv_fixture, tmp_path):
    _, images, labels = conv_fixture
    bad = tmp_path / "bad.npsc"
    bad.write_bytes(b"NOT-A-MODEL" + bytes(64))
    assert run("eval", "--model", str(bad), "--data-images", images,
               "--data-labels", labels, "--out", str(tmp_path / "o")) == 2


def test_model_header_with_a_coerced_value_exits_2_without_writing(conv_fixture, tmp_path,
                                                                     capsys):
    # a coerced "kernel": 3.9 would run a 3x3 conv under a model_sha256 that
    # is not the file's
    model, images, labels = conv_fixture
    blob = open(model, "rb").read()
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = blob[9:9 + hlen].replace(b'"kernel":3,', b'"kernel":3.9,')
    assert header != blob[9:9 + hlen]
    bad = tmp_path / "bad.npsc"
    bad.write_bytes(blob[:5] + struct.pack("<I", len(header)) + header + blob[9 + hlen:])
    assert run("eval", "--model", str(bad), "--data-images", images,
               "--data-labels", labels, "--out", str(tmp_path / "o")) == 2
    assert "not what save_model writes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_finite_model_weights_exit_2(conv_fixture, tmp_path, capsys):
    _, images, labels = conv_fixture
    spec = ModelSpec((1, 6, 6), 3, (conv(2), relu(), maxpool(), flatten(), fc(3)))
    weights = build_model(spec, seed=5)
    weights["fc1"][0, 0] = np.nan
    bad = tmp_path / "nan.npsc"
    save_model(weights, spec, bad)
    assert run("eval", "--model", str(bad), "--data-images", images,
               "--data-labels", labels, "--out", str(tmp_path / "o")) == 2
    assert "fc1" in capsys.readouterr().err


def test_corrupt_idx_exits_2(conv_fixture, tmp_path):
    model, _, _ = conv_fixture
    img = tmp_path / "junk.idx"
    lbl = tmp_path / "junk2.idx"
    img.write_bytes(b"\x13\x37\x00\x00garbage")
    lbl.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x02\x00\x01")
    assert run("eval", "--model", model, "--data-images", str(img),
               "--data-labels", str(lbl), "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("which, header", [
    ("images", struct.pack(">IIII", 0x803, 2**32 - 1, 65535, 65535)),
    ("labels", struct.pack(">II", 0x801, 2**32 - 1)),
], ids=["images", "labels"])
def test_idx_header_claiming_more_than_the_file_exits_2(conv_fixture, tmp_path, capsys,
                                                        which, header):
    model, images, labels = conv_fixture
    bad = tmp_path / "claims.idx"
    bad.write_bytes(header + bytes(64))
    pair = {"images": images, "labels": labels, which: str(bad)}
    assert run("eval", "--model", model, "--data-images", pair["images"],
               "--data-labels", pair["labels"], "--out", str(tmp_path / "o")) == 2
    assert "truncated" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mismatched_input_shape_exits_2(conv_fixture, tmp_path):
    model, _, _ = conv_fixture  # expects 6x6 input, gets 28x28 digits
    assert run("eval", "--model", model, "--synthetic",
               "--synthetic-n", "4", "--out", str(tmp_path / "o")) == 2


def test_failed_eval_exits_2_without_writing(conv_fixture, tmp_path, capsys):
    model, _, _ = conv_fixture  # its fc expects a 6x6 input's features
    assert run("eval", "--model", model, "--synthetic", "--synthetic-n", "4",
               "--out", str(tmp_path / "o")) == 2
    assert "(1, 28, 28) != conv1.conv input (1, 6, 6)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# eval / pathcount
# ---------------------------------------------------------------------------


def test_eval_reports_accuracy(conv_fixture, tmp_path, capsys):
    model, images, labels = conv_fixture
    out = tmp_path / "o"
    assert run("eval", "--model", model, "--data-images", images,
               "--data-labels", labels, "--out", str(out)) == 0
    metrics = json.load(open(out / "eval_metrics.json"))
    assert metrics["samples"] == 8
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert "accuracy=" in capsys.readouterr().out


def test_pathcount_emits_fixture_counts(fc_fixture, tmp_path):
    model, images, labels = fc_fixture
    out = tmp_path / "o"
    assert run("pathcount", "--model", model, "--data-images", images,
               "--data-labels", labels, "--sample", "0", "--layer", "fc2",
               "--out", str(out)) == 0
    header, rows = read_csv(out / "pathcount.csv")
    assert header == ["layer", "neuron_index", "count"]
    assert rows == [["fc2", "0", "4"], ["fc2", "1", "4"]]
    blob = json.load(open(out / "pathcount.json"))
    assert blob["exact"] is True
    assert blob["layers"]["fc2"] == [4.0, 4.0]


def test_pathcount_all_layers_by_default(fc_fixture, tmp_path):
    model, images, labels = fc_fixture
    out = tmp_path / "o"
    assert run("pathcount", "--model", model, "--data-images", images,
               "--data-labels", labels, "--out", str(out)) == 0
    _, rows = read_csv(out / "pathcount.csv")
    layers = [r[0] for r in rows]
    assert layers == ["flatten1"] * 2 + ["fc1"] * 2 + ["fc1.relu"] * 2 + ["fc2"] * 2


def test_pathcount_csv_writes_exact_counts_in_full(tmp_path):
    # positive weights on a positive input keep every unit on: six 16-channel
    # blocks take fc1 past 10**12, where %.12g would drop digits, and below 2**53
    spec = ModelSpec((1, 6, 6), 2, (*[l for _ in range(6) for l in (conv(16), relu())],
                                    flatten(), fc(2)))
    model = str(tmp_path / "model.npsc")
    save_model({k: np.abs(v) for k, v in build_model(spec, seed=0).items()}, spec, model)
    images, labels = str(tmp_path / "img.idx"), str(tmp_path / "lbl.idx")
    write_idx(Dataset(np.full((1, 1, 6, 6), 0.5, dtype=np.float32),
                      np.zeros(1, dtype=np.int64), 2), images, labels)
    out = tmp_path / "o"
    assert run("pathcount", "--model", model, "--data-images", images,
               "--data-labels", labels, "--out", str(out)) == 0
    blob = json.load(open(out / "pathcount.json"))
    assert blob["exact"] is True
    assert 10**12 < max(blob["layers"]["fc1"]) <= 2**53
    _, rows = read_csv(out / "pathcount.csv")
    expected = [(layer, i, int(v)) for layer, values in blob["layers"].items()
                for i, v in enumerate(values)]
    assert sorted((layer, int(i), int(c)) for layer, i, c in rows) == sorted(expected)


@pytest.mark.parametrize("command", ["cam", "degrade", "tilematch"])
def test_clip_options_exit_2_where_no_fc_count_is_read(tmp_path, capsys, command):
    # a CAM reads the last conv block's ReLU, which every fc layer follows
    with pytest.raises(SystemExit) as flag_exit:
        run(command, "--clip-mode", "mean")
    assert flag_exit.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clip_threshold = 0.5\n")
    assert run(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "unknown key 'clip_threshold'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_csv_columns_give_the_text_of_their_rows():
    # pathcount.csv is written as columns: each numpy column's formatter is
    # picked once from its dtype, and must give every cell's format_value
    columns = [np.array(["conv1.conv", "fc1", "fc1"]), np.arange(3),
               np.array([1 / 3, 3830753763468.0, np.nan]),
               np.array([0.5, -0.0, np.inf], dtype=np.float32),
               np.array([True, False, True]), np.array([7, 0, 255], dtype=np.uint8),
               ["x", 2, 0.25]]
    header = [f"c{i}" for i in range(len(columns))]
    rows = [list(row) for row in zip(*columns)]
    assert reports.csv_text(header, columns=columns) == reports.csv_text(header, rows)
    assert reports.csv_text(header, columns=columns).splitlines()[1] == \
        "conv1.conv,0,0.333333333333,0.5,true,7,x"
    with pytest.raises(pathscope.ArgumentError, match="do not match header"):
        reports.csv_text(header, columns=[c[:2] for c in columns[:-1]] + [columns[-1]])


def test_pathcount_unknown_layer_exits_2(fc_fixture, tmp_path, capsys):
    model, images, labels = fc_fixture
    assert run("pathcount", "--model", model, "--data-images", images,
               "--data-labels", labels, "--layer", "fc9",
               "--out", str(tmp_path / "o")) == 2
    assert "fc9" in capsys.readouterr().err


def test_pathcount_sample_out_of_range_exits_2(fc_fixture, tmp_path):
    model, images, labels = fc_fixture
    assert run("pathcount", "--model", model, "--data-images", images,
               "--data-labels", labels, "--sample", "5",
               "--out", str(tmp_path / "o")) == 2


# ---------------------------------------------------------------------------
# replace-sweep / correlate
# ---------------------------------------------------------------------------


def test_sweep_rows_and_identity_baseline(conv_fixture, tmp_path):
    model, images, labels = conv_fixture
    out = tmp_path / "o"
    assert run("replace-sweep", "--model", model, "--data-images", images,
               "--data-labels", labels, "--kinds", "identity,scaled_onoff",
               "--out", str(out)) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["layer_name", "kind", "accuracy", "baseline_accuracy",
                      "mean_on_ratio"]
    assert [(r[0], r[1]) for r in rows] == [("conv1.relu", "identity"),
                                            ("conv1.relu", "scaled_onoff")]
    for layer, kind, acc, base, _ in rows:
        if kind == "identity":
            assert acc == base


@pytest.mark.parametrize("command, report", [("replace-sweep", "sweep.json"),
                                             ("correlate", "tau.json")])
def test_reports_record_the_digest_of_the_stored_weights(desk_fixture, tmp_path, command,
                                                         report):
    # the analyses run on float64 copies of the weights; the digest is the file's
    assert run(command, "--model", desk_fixture, "--synthetic", "--synthetic-n", "10",
               "--sample", "2", "--out", str(tmp_path)) == 0
    spec, weights = pathscope.load_model(desk_fixture)
    metadata = json.loads((tmp_path / report).read_text())["metadata"]
    assert metadata["model_sha256"] == pathscope.model_digest(weights, spec)


def test_sweep_worker_count_does_not_change_bytes(conv_fixture, tmp_path):
    model, images, labels = conv_fixture
    args = ["replace-sweep", "--model", model, "--data-images", images,
            "--data-labels", labels, "--kinds", "identity,scaled_pathcount"]
    assert run(*args, "--workers", "1", "--out", str(tmp_path / "w1")) == 0
    assert run(*args, "--workers", "2", "--out", str(tmp_path / "w2")) == 0
    assert (tmp_path / "w1" / "sweep.csv").read_bytes() == \
           (tmp_path / "w2" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command, args", [
    ("degrade", ["--variant", "act", "--sample", "6", "--steps", "2"]),
    ("degrade", ["--variant", "random", "--sample", "6", "--steps", "2"]),
    ("tilematch", ["--variant", "random", "--tiles", "4"]),
    ("correlate", ["--sample", "3"]),
], ids=["degrade-act", "degrade-random", "tilematch-random", "correlate"])
def test_worker_count_does_not_change_reports(desk_fixture, tmp_path, command, args):
    argv = [command, "--model", desk_fixture, "--synthetic", "blobs", "--synthetic-n", "16",
            *args]
    assert run(*argv, "--workers", "1", "--out", str(tmp_path / "w1")) == 0
    assert run(*argv, "--workers", "2", "--out", str(tmp_path / "w2")) == 0
    # the config sidecars differ in `out` and `workers`; every report must not
    reports = lambda d: {p.name: p.read_bytes() for p in d.iterdir()
                         if not p.name.endswith("_config.json")}
    w1 = reports(tmp_path / "w1")
    assert w1 and w1 == reports(tmp_path / "w2")


@pytest.mark.parametrize("command", ["replace-sweep", "correlate", "degrade"])
def test_negative_sample_exits_2(conv_fixture, tmp_path, capsys, command):
    model, images, labels = conv_fixture
    assert run(command, "--model", model, "--data-images", images,
               "--data-labels", labels, "--sample", "-1",
               "--out", str(tmp_path / "o")) == 2
    assert "-1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exits_2(conv_fixture, tmp_path, capsys, workers):
    model, images, labels = conv_fixture
    assert run("replace-sweep", "--model", model, "--data-images", images,
               "--data-labels", labels, "--workers", workers,
               "--out", str(tmp_path / "o")) == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "eval", "pathcount", "replace-sweep",
                                     "correlate", "cam", "degrade", "tilematch"])
def test_negative_seed_exits_2(conv_fixture, tmp_path, capsys, command):
    model, images, labels = conv_fixture
    model_args = [] if command == "train" else ["--model", model]
    assert run(command, *model_args, "--data-images", images, "--data-labels", labels,
               "--seed", "-1", "--out", str(tmp_path / "o")) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, args", [
    ("eval", ["--synthetic", "--scale-max", "3"]),
    ("eval", ["--synthetic", "--scale-min", "nan"]),
    ("eval", ["--synthetic", "--scale-min", "1.0", "--scale-max", "0.9"]),
    ("replace-sweep", ["--clip-threshold", "nan"]),
    ("replace-sweep", ["--kinds", ","]),
    # the mean clip takes no threshold, so none is recorded in a report
    ("pathcount", ["--clip-mode", "mean", "--clip-threshold", "0.5"]),
    ("replace-sweep", ["--clip-mode", "mean", "--clip-threshold", "0.5"]),
    ("correlate", ["--clip-mode", "mean", "--clip-threshold", "0.5"]),
])
def test_bad_numeric_or_empty_value_exits_2(conv_fixture, desk_fixture, tmp_path, capsys,
                                            command, args):
    model, images, labels = conv_fixture
    if "--synthetic" in args:  # 28x28 digits need the desk model
        inputs = ["--model", desk_fixture, "--synthetic-n", "4"]
    else:
        inputs = ["--model", model, "--data-images", images, "--data-labels", labels]
    assert run(command, *inputs, *args, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_sweep_bad_kind_exits_2(conv_fixture, tmp_path):
    model, images, labels = conv_fixture
    assert run("replace-sweep", "--model", model, "--data-images", images,
               "--data-labels", labels, "--kinds", "identity,bogus",
               "--out", str(tmp_path / "o")) == 2


def test_sweep_repeated_kind_exits_2_without_writing(conv_fixture, tmp_path, capsys):
    # A repeated kind would write each of its rows twice, and SweepReport.row
    # would find only the first.
    model, images, labels = conv_fixture
    assert run("replace-sweep", "--model", model, "--data-images", images,
               "--data-labels", labels, "--kinds", "identity,scaled_onoff,identity",
               "--out", str(tmp_path / "o")) == 2
    assert "identity" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep.csv").exists()


def test_sweep_without_relu_layers_exits_2_without_writing(tmp_path, capsys):
    spec = ModelSpec((1, 1, 2), 2, (flatten(), fc(2)))
    model = str(tmp_path / "model.npsc")
    save_model(build_model(spec, seed=0), spec, model)
    ds = Dataset(np.full((2, 1, 1, 2), 0.5, dtype=np.float32), np.array([0, 1]), 2)
    images, labels = str(tmp_path / "img.idx"), str(tmp_path / "lbl.idx")
    write_idx(ds, images, labels)
    assert run("replace-sweep", "--model", model, "--data-images", images,
               "--data-labels", labels, "--out", str(tmp_path / "o")) == 2
    assert "no ReLU layer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_correlate_single_model(conv_fixture, tmp_path):
    model, images, labels = conv_fixture
    out = tmp_path / "o"
    assert run("correlate", "--model", model, "--data-images", images,
               "--data-labels", labels, "--out", str(out)) == 0
    header, rows = read_csv(out / "tau.csv")
    assert header == ["layer", "tau_raw_mean", "tau_raw_std", "tau_abs_mean",
                      "tau_abs_std", "skipped_images"]
    assert [r[0] for r in rows] == ["conv1.conv", "conv1.relu", "fc1"]
    assert not (out / "tau_model0.csv").exists()


def test_correlate_reports_undefined_layers_on_stderr(tmp_path, capsys):
    # fc2's two rows keep the same input edges, so its path counts are all
    # tied on every image; fc1 and fc1.relu stay defined.
    spec = ModelSpec((1, 1, 4), 2, (flatten(), fc(4), relu(), fc(2)))
    weights = {"fc1": np.tril(np.ones((4, 4), dtype=np.float32)),
               "fc2": np.array([[1, 1, 0, 0], [1, 1, 0, 0]], dtype=np.float32)}
    model = str(tmp_path / "model.npsc")
    save_model(weights, spec, model)
    images, labels = str(tmp_path / "img.idx"), str(tmp_path / "lbl.idx")
    write_idx(Dataset(np.ones((3, 1, 1, 4), dtype=np.float32),
                      np.zeros(3, dtype=np.int64), 2), images, labels)
    out = tmp_path / "o"
    assert run("correlate", "--model", model, "--data-images", images,
               "--data-labels", labels, "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert err == "fc2: tau-b undefined on 3/3 images (a vector is all ties)\n"
    _, rows = read_csv(out / "tau.csv")
    assert [(r[0], r[-1]) for r in rows] == [("fc1", "0"), ("fc1.relu", "0"), ("fc2", "3")]


def test_correlate_aggregates_model_list(conv_fixture, tmp_path):
    model, images, labels = conv_fixture
    out = tmp_path / "o"
    assert run("correlate", "--model", f"{model},{model}", "--data-images", images,
               "--data-labels", labels, "--out", str(out)) == 0
    assert (out / "tau_model0.csv").exists()
    assert (out / "tau_model1.csv").exists()
    blob = json.load(open(out / "tau.json"))
    assert len(blob["metadata"]["models"]) == 2


@pytest.mark.parametrize("models, named", [("{model},ghost.npsc", "ghost.npsc"),
                                           (",", "--model")],
                         ids=["missing-file", "empty-list"])
def test_correlate_bad_model_list_exits_2_without_writing(conv_fixture, tmp_path, capsys,
                                                          models, named):
    model, images, labels = conv_fixture
    assert run("correlate", "--model", models.format(model=model),
               "--data-images", images, "--data-labels", labels,
               "--out", str(tmp_path / "o")) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_correlate_mismatched_layers_exit_2_before_any_tau(desk_fixture, tmp_path, capsys,
                                                           monkeypatch):
    reference = str(tmp_path / "reference.npsc")
    save_model(build_model(reference_spec(), seed=0), reference_spec(), reference)
    taus = []
    real = pathscope.correlation.kendall_tau_b
    monkeypatch.setattr(pathscope.correlation, "kendall_tau_b",
                        lambda x, y: taus.append(x.size) or real(x, y))
    data = ["--synthetic", "--synthetic-n", "2"]
    assert run("correlate", "--model", f"{desk_fixture},{reference}", *data,
               "--out", str(tmp_path / "o")) == 2
    assert "different layers" in capsys.readouterr().err
    assert taus == []
    assert not (tmp_path / "o").exists()
    # the spy does see the taus of a model list that matches
    assert run("correlate", "--model", f"{desk_fixture},{desk_fixture}", *data,
               "--out", str(tmp_path / "same")) == 0
    assert taus


# ---------------------------------------------------------------------------
# cam / degrade / tilematch
# ---------------------------------------------------------------------------


def test_cam_outputs(conv_fixture, tmp_path):
    model, images, labels = conv_fixture
    out = tmp_path / "o"
    assert run("cam", "--model", model, "--data-images", images,
               "--data-labels", labels, "--sample", "1", "--variant", "onoff",
               "--target-class", "2", "--out", str(out)) == 0
    pgm = (out / "cam.pgm").read_bytes()
    assert pgm.startswith(b"P5\n6 6\n255\n")
    assert len(pgm) == len(b"P5\n6 6\n255\n") + 36
    header, rows = read_csv(out / "cam.csv")
    assert header == [f"c{j}" for j in range(6)]
    assert len(rows) == 6
    blob = json.load(open(out / "cam.json"))
    assert blob["target_class"] == 2
    assert blob["variant"] == "onoff"
    assert blob["layer"] == "conv1.relu"


def test_cam_prints_plain_ints(conv_fixture, tmp_path, capsys):
    model, images, labels = conv_fixture
    assert run("cam", "--model", model, "--data-images", images,
               "--data-labels", labels, "--out", str(tmp_path / "o")) == 0
    out = capsys.readouterr().out
    assert "np." not in out
    assert re.search(r"max_at=\(\d+, \d+\)$", out.strip())


def test_cam_defaults_to_predicted_class(conv_fixture, tmp_path):
    model, images, labels = conv_fixture
    out = tmp_path / "o"
    assert run("cam", "--model", model, "--data-images", images,
               "--data-labels", labels, "--out", str(out)) == 0
    blob = json.load(open(out / "cam.json"))
    assert 0 <= blob["target_class"] < 3


def test_degrade_uniform_has_zero_area(conv_fixture, tmp_path):
    model, images, labels = conv_fixture
    out = tmp_path / "o"
    assert run("degrade", "--model", model, "--data-images", images,
               "--data-labels", labels, "--variant", "uniform", "--steps", "2",
               "--out", str(out)) == 0
    header, rows = read_csv(out / "degradation.csv")
    assert header == ["fraction", "morf_accuracy", "lerf_accuracy"]
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["0", "0.5", "1"]
    blob = json.load(open(out / "degradation.json"))
    assert blob["area"] == 0.0


def test_tilematch_uniform_scores_zero(desk_fixture, tmp_path, capsys):
    out = tmp_path / "o"
    assert run("tilematch", "--model", desk_fixture, "--synthetic", "blobs",
               "--synthetic-n", "16", "--variant", "uniform", "--tiles", "3",
               "--out", str(out)) == 0
    blob = json.load(open(out / "tilematch.json"))
    assert blob["accuracy"] == 0.0
    assert blob["shuffled_control_accuracy"] == 0.0
    assert blob["tiles"] == 3
    assert "accuracy=0.0000" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_override(conv_fixture, desk_fixture,
                                                          tmp_path):
    model, images, labels = conv_fixture
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# dataset settings\n"
        "\n"
        f"data-images = {images}\n"
        f"data_labels = {labels}\n"
    )
    out1 = tmp_path / "o1"
    assert run("eval", "--model", model, "--config", str(cfg), "--out", str(out1)) == 0
    assert json.load(open(out1 / "eval_metrics.json"))["samples"] == 8
    # flags beat the same keys from the file (blank strings clear the IDX pair)
    out2 = tmp_path / "o2"
    assert run("eval", "--model", desk_fixture, "--config", str(cfg),
               "--synthetic", "blobs", "--synthetic-n", "12",
               "--data-images", "", "--data-labels", "",
               "--out", str(out2)) == 0
    assert json.load(open(out2 / "eval_metrics.json"))["samples"] == 12


def test_config_file_unknown_key_exits_2(conv_fixture, tmp_path, capsys):
    model, _, _ = conv_fixture
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n")
    assert run("eval", "--model", model, "--config", str(cfg),
               "--out", str(tmp_path / "o")) == 2
    assert "wibble" in capsys.readouterr().err


def test_config_file_bad_value_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synthetic-n = lots\n")
    assert run("eval", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


def test_config_file_bad_line_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this is not a key value pair\n")
    assert run("eval", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert run("eval", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")) == 2


def _command_parsers():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _sample_value(action) -> str:
    if action.choices:
        return action.choices[-1]
    return {int: "3", float: "0.25"}.get(action.type, "x")


@pytest.mark.parametrize("command", sorted(_command_parsers()))
def test_every_flag_is_a_config_key_with_the_same_value(tmp_path, command):
    parser = build_parser()
    actions = [a for a in _command_parsers()[command]._actions
               if a.dest not in ("help", "config")]
    assert {a.dest for a in actions} == set(_merge_config(command, {}))
    for action in actions:
        value = _sample_value(action)
        cfg_file = tmp_path / f"{action.dest}.cfg"
        cfg_file.write_text(f"{action.option_strings[0][2:]} = {value}\n")
        resolved = []
        for argv in ([command, action.option_strings[0], value],
                     [command, "--config", str(cfg_file)]):
            flags = vars(parser.parse_args(argv))
            flags.pop("command")
            resolved.append({k: (type(v), v) for k, v in _merge_config(command, flags).items()})
        assert resolved[0] == resolved[1], action.dest
        assert resolved[0][action.dest][1] != _merge_config(command, {})[action.dest]


def _choice_cases():
    """(command, key, value) for every option with choices, each value outside
    that command's choices: a nonsense word, plus any value another command
    allows for the same key."""
    parsers = _command_parsers()
    allowed = {}
    for parser in parsers.values():
        for a in parser._actions:
            if a.choices:
                allowed.setdefault(a.dest, set()).update(a.choices)
    return [(command, a.dest, value)
            for command, parser in sorted(parsers.items()) for a in parser._actions
            if a.choices
            for value in ["huge", *sorted(allowed[a.dest] - set(a.choices))]]


@pytest.mark.parametrize("command, key, value", _choice_cases())
def test_config_value_outside_choices_exits_2(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(SystemExit) as flag_exit:
        run(command, "--" + key.replace("_", "-"), value)
    assert flag_exit.value.code == 2


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [["--scale-min", "0"], ["--n", "0"],
                                  ["--small-fraction", "2"]])
def test_export_script_bad_value_exits_2_without_writing(tmp_path, args):
    # 0 is a given value, not a missing flag: rejected, never replaced by the default
    src = os.path.dirname(os.path.dirname(pathscope.__file__))
    script = os.path.join(os.path.dirname(src), "scripts", "export_synthetic_idx.py")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "idx"
    proc = subprocess.run([sys.executable, script, "--n", "5", *args, "--outdir", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not out.exists()
