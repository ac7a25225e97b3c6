"""Acceptance gate: nine end-to-end behaviors, one test (and one verdict
line) each.

1. Path counting equals brute-force path enumeration on 100 random nets.
2. Kendall tau-b matches a definitional all-pairs oracle on 1,000 vectors.
3. Analytic gradients match central finite differences on 50 instances.
4. Scaled replacements preserve activation mass; identity is bitwise inert.
5. On a trained model, activation and path-count zero sets coincide.
6. The stock small profile trains to >= 0.95 test accuracy and the scaled
   on/off replacement keeps >= 85% of baseline accuracy at the last ReLU,
   with the characteristic final-layer rebound.
7. Activation-CAM degradation beats a random-saliency baseline.
8. CAM target matching on tiled composites clearly beats chance.
9. Training, reports, and the model format are deterministic; malformed
   inputs exit with code 2.

Run with -v for the per-criterion pass/fail lines.
"""

import math
import time

import numpy as np
import pytest

from pathscope import (
    ClipConfig,
    ModelSpec,
    build_model,
    conv,
    degradation_score,
    evaluate_accuracy,
    fc,
    flatten,
    forward,
    forward_from_layer,
    gradient_wrt_layer,
    kendall_tau_b,
    load_model,
    make_tiled,
    maxpool,
    pathcount_bruteforce,
    pathcount_forward,
    pathcount_plan,
    relu,
    replace_and_infer,
    save_model,
    scaled_onoff,
    scaled_pathcount,
    subsample,
    synthetic_digits,
    target_matching_accuracy,
    train_sgd,
)
from pathscope.cli import main as cli_main
from pathscope.data import TRAIN_SMALL_FRACTION
from pathscope.model import desk_spec, desk_train_config, dropout, resolve
from pathscope.replacement import sweep


# ---------------------------------------------------------------------------
# shared trained model (criteria 5-9 reuse it)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    spec = desk_spec()
    train_ds = synthetic_digits(8000, seed=0, small_fraction=TRAIN_SMALL_FRACTION)
    test_ds = synthetic_digits(2000, seed=1)
    weights = build_model(spec, seed=0)
    t0 = time.time()
    weights, _ = train_sgd(weights, spec, train_ds, desk_train_config(0))
    elapsed = time.time() - t0
    test_acc = evaluate_accuracy(weights, spec, test_ds)
    path = str(tmp_path_factory.mktemp("desk") / "model.npsc")
    save_model(weights, spec, path)
    return {"spec": spec, "weights": weights, "test_ds": test_ds,
            "train_seconds": elapsed, "test_acc": test_acc, "path": path}


# ---------------------------------------------------------------------------
# criterion 1: path-count oracle equivalence
# ---------------------------------------------------------------------------


def _random_counting_net(rng):
    """2-4 weight layers, <= 12 units per layer, mixing 1-D convs (rows of
    height 1, so the 3x3 kernel acts on 3 horizontal taps) with fc layers."""
    depth = int(rng.integers(2, 5))
    n_conv = int(rng.integers(0, min(depth, 3)))
    width = int(rng.integers(4, 13))
    layers = []
    for _ in range(n_conv):
        layers += [conv(int(rng.integers(1, 3))), relu()]
    layers.append(flatten())
    for _ in range(depth - n_conv - 1):
        layers += [fc(int(rng.integers(2, 9))), relu()]
    layers.append(fc(int(rng.integers(2, 5))))
    spec = ModelSpec((1, 1, width), layers[-1].out_features, tuple(layers))
    weights = {}
    for r in resolve(spec):
        if r.spec.kind == "conv":
            shape = (r.spec.out_channels, r.in_shape[0], 3, 3)
        elif r.spec.kind == "fc":
            shape = (r.spec.out_features, int(np.prod(r.in_shape)))
        else:
            continue
        weights[r.name] = rng.normal(size=shape).astype(np.float32)
    return spec, weights


def test_criterion_1_pathcount_matches_bruteforce_on_100_nets():
    t0 = time.time()
    checked = 0
    for i in range(100):
        rng = np.random.default_rng(i)
        spec, weights = _random_counting_net(rng)
        x = rng.normal(size=spec.input_shape).astype(np.float32)
        trace = forward(weights, spec, x)
        for clip in (ClipConfig(), ClipConfig("absolute", float(rng.uniform(0.2, 1.0)))):
            fast = pathcount_forward(pathcount_plan(weights, spec, clip), trace)
            assert fast.exact
            for r in resolve(spec):
                flat = fast.layer(r.name).reshape(-1)
                for j in range(flat.size):
                    slow = pathcount_bruteforce(weights, spec, trace, clip, (r.name, j))
                    assert flat[j] == float(slow), (i, r.name, j, clip)
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"criterion 1 PASS: {checked} neuron counts equal brute force "
          f"on 100 nets x 2 clips in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: tau-b against the definitional oracle
# ---------------------------------------------------------------------------


def _tau_b_all_pairs(x, y):
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(len(x), 1)
    dx, dy = dx[iu], dy[iu]
    ties_x = int((dx == 0).sum())
    ties_y = int((dy == 0).sum())
    both = (dx != 0) & (dy != 0)
    conc = int(((dx == dy) & both).sum())
    disc = int(both.sum()) - conc
    n0 = dx.size
    return (conc - disc) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def test_criterion_2_tau_b_matches_all_pairs_oracle():
    assert kendall_tau_b([1, 2, 3], [1, 2, 3]) == 1.0
    assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == -1.0
    assert kendall_tau_b([1, 2, 2, 3], [1, 2, 3, 3]) == 0.8
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        alphabet = int(rng.integers(2, 13))
        while True:
            x = rng.integers(0, alphabet, n).astype(np.float64)
            y = rng.integers(0, alphabet, n).astype(np.float64)
            if len(np.unique(x)) > 1 and len(np.unique(y)) > 1:
                break
        err = abs(kendall_tau_b(x, y) - _tau_b_all_pairs(x, y))
        worst = max(worst, err)
        assert err <= 1e-12
    print(f"criterion 2 PASS: 1000 tied vectors (n<=200), worst |delta|={worst:.2e}; "
          f"hand values 1.0/-1.0/0.8 exact")


# ---------------------------------------------------------------------------
# criterion 3: gradients vs central finite differences
# ---------------------------------------------------------------------------


_GRAD_TEMPLATES = (
    ModelSpec((1, 6, 6), 3, (conv(2), relu(), maxpool(), flatten(), fc(3))),
    ModelSpec((1, 5, 5), 3, (conv(2), relu(), conv(2), relu(), flatten(), fc(3))),
    ModelSpec((1, 2, 4), 3, (flatten(), fc(6), relu(), dropout(0.25), fc(3))),
)


def _kink_margins(spec, weights, trace):
    """Distance of the trace from every ReLU and max-pool decision boundary."""
    resolved = resolve(spec)
    margin = np.inf
    for i, r in enumerate(resolved):
        if r.spec.kind == "relu":
            pre = trace.output(resolved[i - 1].name) if i else trace.input
            margin = min(margin, float(np.abs(pre).min()))
        elif r.spec.kind == "maxpool":
            a = trace.output(resolved[i - 1].name) if i else trace.input
            c, h, w = a.shape
            win = a.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4)
            win = np.sort(win.reshape(c, h // 2, w // 2, 4), axis=-1)
            margin = min(margin, float((win[..., 3] - win[..., 2]).min()))
    return margin


def test_criterion_3_gradients_match_finite_differences():
    h = 1e-6
    worst = 0.0
    kinds_seen = set()
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        spec = _GRAD_TEMPLATES[i % len(_GRAD_TEMPLATES)]
        weights = {k: v.astype(np.float64)
                   for k, v in build_model(spec, seed=int(rng.integers(1 << 30))).items()}
        for _ in range(20):  # redraw inputs that sit on a kink
            x = rng.normal(size=spec.input_shape)
            trace = forward(weights, spec, x)
            if _kink_margins(spec, weights, trace) > 1e-3:
                break
        else:
            pytest.fail("could not find an input clear of ReLU/pool kinks")
        kinds_seen |= {r.spec.kind for r in resolve(spec)}
        target = int(rng.integers(spec.num_classes))
        layers = [r.name for r in resolve(spec)][:-1]  # all but the logits
        for layer in layers:
            act = trace.output(layer)
            grad = gradient_wrt_layer(weights, spec, trace, layer, target)
            flat = act.reshape(-1)
            for j in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                bumped = flat.copy()
                bumped[j] += h
                up = forward_from_layer(weights, spec, layer, bumped.reshape(act.shape))
                bumped[j] -= 2 * h
                down = forward_from_layer(weights, spec, layer, bumped.reshape(act.shape))
                fd = (up[target] - down[target]) / (2 * h)
                an = grad.reshape(-1)[j]
                rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
                worst = max(worst, rel)
                assert rel < 1e-3, (i, layer, int(j), an, fd)
    assert {"conv", "relu", "maxpool", "flatten", "fc", "dropout"} <= kinds_seen
    print(f"criterion 3 PASS: 50 instances over {sorted(kinds_seen)}; "
          f"worst relative error {worst:.2e} < 1e-3")


# ---------------------------------------------------------------------------
# criterion 4: mass preservation and identity transparency
# ---------------------------------------------------------------------------


def test_criterion_4_scaled_replacements_preserve_mass():
    rng = np.random.default_rng(4)
    for i in range(1000):
        shape = tuple(rng.integers(1, 9, size=int(rng.integers(1, 4))))
        act = np.maximum(rng.normal(size=shape), 0.0)
        if i % 20 == 0:
            act[:] = 0.0  # degenerate all-off layer
        counts = rng.integers(0, 60, size=shape).astype(np.float64)
        onoff = scaled_onoff(act, (act > 0).astype(np.float64))
        total = float(act.sum())
        assert abs(float(onoff.sum()) - total) <= 1e-5 * max(1.0, abs(total))
        pc = scaled_pathcount(act, counts)
        if counts.sum() == 0:
            assert not pc.any()
        else:
            assert abs(float(pc.sum()) - total) <= 1e-5 * max(1.0, abs(total))

    transparent = 0
    for i in range(15):
        rng = np.random.default_rng(400 + i)
        spec = _GRAD_TEMPLATES[i % len(_GRAD_TEMPLATES)]
        weights = build_model(spec, seed=i)
        x = rng.normal(size=spec.input_shape).astype(np.float32)
        base = forward(weights, spec, x).logits
        trace = forward(weights, spec, x)
        for r in resolve(spec):
            out = replace_and_infer(weights, spec, trace, r.name, "identity")
            assert out.dtype == base.dtype
            assert np.array_equal(out, base), r.name
            transparent += 1
    print(f"criterion 4 PASS: mass preserved on 1000 layers (tol 1e-5); "
          f"identity bitwise at {transparent} sites")


# ---------------------------------------------------------------------------
# criterion 5: zero sets of activation and path count coincide
# ---------------------------------------------------------------------------


def test_criterion_5_zero_sets_coincide_on_trained_model(desk):
    spec, weights = desk["spec"], desk["weights"]
    images = subsample(desk["test_ds"], 100, seed=13).images
    relu_layers = [r.name for r in resolve(spec) if r.spec.kind == "relu"]
    for x in images:
        trace = forward(weights, spec, x)
        counts = pathcount_forward(pathcount_plan(weights, spec), trace)
        for layer in relu_layers:
            act_zero = trace.output(layer) == 0
            count_zero = counts.layer(layer) == 0
            assert np.array_equal(act_zero, count_zero), layer
    print(f"criterion 5 PASS: zero sets equal at {relu_layers} on 100 images")


# ---------------------------------------------------------------------------
# criterion 6: small-profile training and last-ReLU replacement retention
# ---------------------------------------------------------------------------


def test_criterion_6_training_and_last_relu_retention(desk):
    assert desk["train_seconds"] < 1800, "training exceeded 30 minutes"
    assert desk["test_acc"] >= 0.95, f"test accuracy {desk['test_acc']:.4f}"
    report = sweep(desk["weights"], desk["spec"], desk["test_ds"],
                   kinds=("scaled_onoff",))
    accs = {r.layer: r.accuracy for r in report.rows}
    base = report.rows[0].baseline_accuracy
    last = accs["conv3.relu"]
    mid_min = min(accs["conv1.relu"], accs["conv2.relu"])
    assert last >= 0.85 * base, f"last-ReLU retention {last / base:.3f}"
    assert last > mid_min, f"no final-layer rebound: {accs}"
    print(f"criterion 6 PASS: test_acc={desk['test_acc']:.4f} "
          f"({desk['train_seconds']:.0f}s); on/off retention "
          f"{last / base:.2%} of baseline {base:.4f}; rebound {mid_min:.4f} -> {last:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: degradation beats random saliency
# ---------------------------------------------------------------------------


def test_criterion_7_act_cam_degradation_beats_random(desk):
    sample = subsample(desk["test_ds"], 150, seed=7)
    morf, lerf, act_area = degradation_score(desk["weights"], desk["spec"], sample,
                                             "act", steps=10, seed=0)
    assert morf[0] == lerf[0] and morf[-1] == lerf[-1]
    _, _, rand_area = degradation_score(desk["weights"], desk["spec"], sample,
                                        "random", steps=10, seed=0)
    assert act_area > 0.0
    assert act_area - rand_area >= 0.05, (act_area, rand_area)
    print(f"criterion 7 PASS: act area {act_area:.3f} vs random {rand_area:.3f} "
          f"(margin {act_area - rand_area:.3f} >= 0.05); curves meet at 0 and 1")


# ---------------------------------------------------------------------------
# criterion 8: target matching on tiled composites
# ---------------------------------------------------------------------------


def test_criterion_8_tiled_target_matching(desk):
    source = synthetic_digits(2000, seed=31, scale_range=(1.0, 1.0))
    tiles = make_tiled(source, 500, seed=3)
    scores = {}
    for variant in ("act", "onoff"):
        acc = target_matching_accuracy(desk["weights"], desk["spec"], tiles, variant)
        ctrl = target_matching_accuracy(desk["weights"], desk["spec"], tiles, variant,
                                        target_shuffle_seed=11)
        assert acc >= 0.5, (variant, acc)
        assert abs(ctrl - 0.25) <= 0.07, (variant, ctrl)
        scores[variant] = (acc, ctrl)
    print("criterion 8 PASS: " + "; ".join(
        f"{v} acc={a:.3f} (>=0.5), shuffled {c:.3f} (0.25 +/- 0.07)"
        for v, (a, c) in scores.items()))


# ---------------------------------------------------------------------------
# criterion 9: determinism and format rejection
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_and_format(desk, tmp_path):
    # same seed, same bytes
    args = ["train", "--synthetic", "blobs", "--synthetic-n", "60", "--epochs", "1",
            "--seed", "3"]
    assert cli_main(args + ["--out", str(tmp_path / "t1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "t2")]) == 0
    b1 = (tmp_path / "t1" / "model.npsc").read_bytes()
    b2 = (tmp_path / "t2" / "model.npsc").read_bytes()
    assert b1 == b2

    # reports do not depend on the worker count
    sweep_args = ["replace-sweep", "--model", desk["path"], "--synthetic",
                  "--synthetic-n", "60", "--sample", "30", "--seed", "1"]
    assert cli_main(sweep_args + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert cli_main(sweep_args + ["--workers", "4", "--out", str(tmp_path / "w4")]) == 0
    assert (tmp_path / "w1" / "sweep.csv").read_bytes() == \
           (tmp_path / "w4" / "sweep.csv").read_bytes()

    # save -> load -> save reproduces the file bitwise
    spec, weights = load_model(desk["path"])
    again = tmp_path / "again.npsc"
    save_model(weights, spec, str(again))
    assert again.read_bytes() == open(desk["path"], "rb").read()

    # malformed inputs exit 2
    bad_model = tmp_path / "bad.npsc"
    bad_model.write_bytes(b"XXXX" + bytes(32))
    assert cli_main(["eval", "--model", str(bad_model), "--synthetic",
                     "--synthetic-n", "4", "--out", str(tmp_path / "e1")]) == 2
    bad_img, bad_lbl = tmp_path / "bad.idx", tmp_path / "bad2.idx"
    bad_img.write_bytes(b"\x00\x00\x07\x07\x00\x00\x00\x01")
    bad_lbl.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x01\x00")
    assert cli_main(["eval", "--model", desk["path"], "--data-images", str(bad_img),
                     "--data-labels", str(bad_lbl), "--out", str(tmp_path / "e2")]) == 2
    print("criterion 9 PASS: seed-stable training, worker-stable CSVs, "
          "bitwise round trip, malformed files exit 2")
