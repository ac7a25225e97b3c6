"""Model construction, tracing, training, and persistence."""

from __future__ import annotations

import json
import pickle
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathscope as ps
from pathscope import model, ops
from pathscope.errors import ArgumentError, FormatError, NumericalError, ShapeError, SpecError
from pathscope.model import (
    _forward_batch,
    desk_spec,
    param_shapes,
    predict_batch,
    resolve,
    serialize_model,
)

from conftest import make_tiny_weights, traced_peak


def test_layer_naming_desk():
    names = ps.layer_names(desk_spec())
    assert names == ["conv1.conv", "conv1.relu", "conv2.conv", "conv2.relu",
                     "conv3.conv", "conv3.relu", "pool1", "dropout1", "flatten1", "fc1"]


def test_reference_spec_shapes():
    spec = ps.reference_spec()
    shapes = param_shapes(spec)
    assert shapes["conv1.conv"] == (32, 1, 3, 3)
    for i in range(2, 6):
        assert shapes[f"conv{i}.conv"] == (32, 32, 3, 3)
    assert shapes["fc1"] == (10, 32 * 14 * 14)


def test_build_model_deterministic():
    spec = desk_spec()
    w1 = ps.build_model(spec, 42)
    w2 = ps.build_model(spec, 42)
    for k in w1:
        np.testing.assert_array_equal(w1[k], w2[k])
    w3 = ps.build_model(spec, 43)
    assert any(not np.array_equal(w1[k], w3[k]) for k in w1)


def test_build_model_he_scaling():
    spec = ps.reference_spec()
    w = ps.build_model(spec, 0)
    kern = w["conv2.conv"]  # fan_in = 32*3*3 = 288
    expected = np.sqrt(2.0 / 288)
    assert abs(kern.std() / expected - 1) < 0.2
    assert abs(kern.mean()) < 0.01


def test_spec_errors():
    # fc before flatten
    with pytest.raises(SpecError):
        ps.layer_names(ps.ModelSpec((1, 4, 4), 2, (ps.fc(2),)))
    # final shape mismatch
    with pytest.raises(SpecError):
        ps.layer_names(ps.ModelSpec((1, 4, 4), 2, (ps.flatten(), ps.fc(3))))
    # pool window too large
    with pytest.raises(SpecError):
        ps.layer_names(ps.ModelSpec((1, 4, 4), 2, (ps.maxpool(5, 5), ps.flatten(), ps.fc(2))))
    # conv stride or padding, pool stride out of range
    for bad in (ps.conv(1, 3, 0, 1), ps.conv(1, 3, 1, -1), ps.maxpool(2, 0)):
        with pytest.raises(SpecError):
            ps.layer_names(ps.ModelSpec((1, 4, 4), 2, (bad, ps.flatten(), ps.fc(2))))


def test_resolve_is_kept_on_the_spec():
    spec = desk_spec()
    assert resolve(spec) is resolve(spec)
    twin = desk_spec()
    assert twin is not spec and twin == spec and hash(twin) == hash(spec)
    assert resolve(twin) == resolve(spec)
    assert repr(twin) == repr(spec)  # the kept resolution is no field
    for before in (desk_spec(), spec):  # pickled unresolved, and resolved
        clone = pickle.loads(pickle.dumps(before))
        assert clone == spec and hash(clone) == hash(spec)
        assert resolve(clone) == resolve(spec)


def test_bad_spec_raises_on_every_resolve():
    bad = ps.ModelSpec((1, 4, 4), 2, (ps.fc(2),))
    for _ in range(3):
        with pytest.raises(SpecError):
            resolve(bad)
    with pytest.raises(SpecError):
        ps.layer_names(bad)


def test_forward_zero_input_is_all_zero(small_conv_model):
    spec, weights = small_conv_model
    trace = ps.forward(weights, spec, np.zeros(spec.input_shape, dtype=np.float32))
    for name in trace.names:
        assert np.all(trace.output(name) == 0), name
    assert np.all(trace.logits == 0)


def test_forward_shape_mismatch(small_conv_model):
    spec, weights = small_conv_model
    with pytest.raises(ShapeError):
        ps.forward(weights, spec, np.zeros((1, 5, 5), dtype=np.float32))


def test_forward_matches_op_composition(small_conv_model):
    spec, weights = small_conv_model
    rng = np.random.default_rng(3)
    x = rng.random(spec.input_shape).astype(np.float32)
    trace = ps.forward(weights, spec, x)
    h = ops.conv2d_forward_batch(x[None], weights["conv1.conv"], 1, 1)[0]
    np.testing.assert_array_equal(trace.output("conv1.conv"), h)
    h = ops.relu_forward(h)
    np.testing.assert_array_equal(trace.output("conv1.relu"), h)
    h, _ = ops.maxpool_forward_batch(h[None], 2, 2)
    h = h[0]
    np.testing.assert_array_equal(trace.output("pool1"), h)
    logits = ops.fc_forward_batch(h.reshape(1, -1), weights["fc1"])[0]
    np.testing.assert_array_equal(trace.logits, logits)


@given(st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_positive_homogeneity(c):
    spec = ps.ModelSpec((1, 6, 6), 3, (ps.conv(2, 3, 1, 1), ps.relu(), ps.maxpool(2, 2),
                                       ps.flatten(), ps.fc(3)))
    weights = ps.build_model(spec, 11)
    x = np.random.default_rng(5).standard_normal((1, 6, 6))
    base = ps.forward(weights, spec, x).logits
    scaled = ps.forward(weights, spec, c * x).logits
    np.testing.assert_allclose(scaled, c * base, rtol=1e-5, atol=1e-9)


def test_first_conv_scales_linearly(small_conv_model):
    spec, weights = small_conv_model
    x = np.random.default_rng(6).standard_normal(spec.input_shape)
    a = ps.forward(weights, spec, x).output("conv1.conv")
    b = ps.forward(weights, spec, 3.0 * x).output("conv1.conv")
    np.testing.assert_allclose(b, 3.0 * a, rtol=1e-6)


def test_pre_activation_accessor(small_conv_model):
    spec, weights = small_conv_model
    x = np.random.default_rng(8).random(spec.input_shape).astype(np.float32)
    trace = ps.forward(weights, spec, x)
    np.testing.assert_array_equal(trace.pre_activation("conv1.conv"), x)
    np.testing.assert_array_equal(
        trace.output("conv1.relu"), np.maximum(trace.pre_activation("conv1.relu"), 0))


def test_gradient_wrt_layer_matches_finite_difference():
    # Tail from the probed layer is conv -> relu -> flatten -> fc; finite
    # differences are valid away from the relu kink, so guard the margin.
    spec = ps.ModelSpec((1, 5, 5), 3,
                        (ps.conv(2, 3, 1, 1), ps.relu(), ps.conv(2, 3, 1, 1), ps.relu(),
                         ps.flatten(), ps.fc(3)))
    weights = ps.build_model(spec, 19)
    x = np.random.default_rng(13).standard_normal(spec.input_shape)
    trace = ps.forward(weights, spec, x)
    layer = "conv1.relu"
    h = 1e-6
    kink_margin = np.abs(trace.output("conv2.conv")).min()
    assert kink_margin > 100 * h  # probe steps cannot flip any downstream relu
    grad = ps.gradient_wrt_layer(weights, spec, trace, layer, class_index=1)
    act = trace.output(layer).astype(np.float64)
    fd = np.zeros_like(act)
    flat = act.reshape(-1)
    fdflat = fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = ps.forward_from_layer(weights, spec, layer, act)[1]
        flat[i] = orig - h
        dn = ps.forward_from_layer(weights, spec, layer, act)[1]
        flat[i] = orig
        fdflat[i] = (up - dn) / (2 * h)
    denom = max(np.abs(fd).max(), 1e-12)
    assert np.abs(grad - fd).max() / denom < 1e-3


def test_gradient_wrt_layer_checks_args(small_conv_model):
    spec, weights = small_conv_model
    trace = ps.forward(weights, spec, np.zeros(spec.input_shape, dtype=np.float32))
    with pytest.raises(ArgumentError):
        ps.gradient_wrt_layer(weights, spec, trace, "nope", 0)
    with pytest.raises(ArgumentError):
        ps.gradient_wrt_layer(weights, spec, trace, "conv1.relu", 99)


def test_forward_from_layer_identity_resume(small_conv_model):
    spec, weights = small_conv_model
    x = np.random.default_rng(14).random(spec.input_shape).astype(np.float32)
    trace = ps.forward(weights, spec, x)
    for name in trace.names:
        resumed = ps.forward_from_layer(weights, spec, name, trace.output(name))
        np.testing.assert_array_equal(resumed, trace.logits)


def test_train_lr_zero_like_no_change():
    # lr must be > 0 by contract; a single tiny step changes weights
    spec = ps.ModelSpec((1, 4, 4), 2, (ps.flatten(), ps.fc(2)))
    weights = ps.build_model(spec, 0)
    ds = ps.Dataset(np.random.default_rng(0).random((8, 1, 4, 4)).astype(np.float32),
                    np.array([0, 1] * 4, dtype=np.int64), 2)
    with pytest.raises(ArgumentError):
        ps.TrainConfig(learning_rate=0.0)
    w2, hist = ps.train_sgd(weights, spec, ds, ps.TrainConfig(1e-12, 1, 8, 0))
    np.testing.assert_allclose(w2["fc1"], weights["fc1"], atol=1e-9)
    assert len(hist) == 1


def test_train_separable_blobs_reaches_95():
    ds = ps.synthetic_blobs(200, classes=2, image_hw=12, seed=0)
    spec = ps.ModelSpec((1, 12, 12), 2,
                        (ps.conv(4, 3, 1, 1), ps.relu(), ps.maxpool(2, 2),
                         ps.flatten(), ps.fc(2)))
    weights = ps.build_model(spec, 1)
    w2, hist = ps.train_sgd(weights, spec, ds, ps.TrainConfig(0.05, 20, 32, 0))
    assert ps.evaluate_accuracy(w2, spec, ds) >= 0.95
    assert hist[-1] < hist[0]


def test_train_deterministic():
    ds = ps.synthetic_blobs(60, classes=3, image_hw=10, seed=3)
    spec = ps.ModelSpec((1, 10, 10), 3,
                        (ps.conv(2, 3, 1, 1), ps.relu(), ps.dropout(0.25),
                         ps.flatten(), ps.fc(3)))
    weights = ps.build_model(spec, 5)
    w_a, _ = ps.train_sgd(weights, spec, ds, ps.TrainConfig(0.05, 2, 16, 9))
    w_b, _ = ps.train_sgd(weights, spec, ds, ps.TrainConfig(0.05, 2, 16, 9))
    assert ps.model_digest(w_a, spec) == ps.model_digest(w_b, spec)


def test_train_nan_aborts():
    spec = ps.ModelSpec((1, 2, 2), 2, (ps.flatten(), ps.fc(2)))
    weights = {"fc1": np.full((2, 4), np.nan, dtype=np.float32)}
    ds = ps.Dataset(np.ones((4, 1, 2, 2), dtype=np.float32),
                    np.array([0, 1, 0, 1], dtype=np.int64), 2)
    with pytest.raises(NumericalError):
        ps.train_sgd(weights, spec, ds, ps.TrainConfig(0.1, 1, 4, 0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_logits_raise_on_inference_only():
    # finite weights whose logits overflow: every inference forward refuses
    # them, and a training step keeps its own non-finite loss message
    spec = ps.ModelSpec((1, 2, 2), 2, (ps.flatten(), ps.fc(2)))
    weights = {"fc1": np.full((2, 4), 3e38, dtype=np.float32)}
    x = np.ones((1, 2, 2), dtype=np.float32)
    for infer in (lambda: ps.forward(weights, spec, x),
                  lambda: predict_batch(weights, spec, x[None]),
                  lambda: ps.forward_from_layer(weights, spec, "flatten1", x.reshape(4))):
        with pytest.raises(NumericalError, match="^non-finite logits: 2 of 2 values"):
            infer()
    ds = ps.Dataset(np.ones((4, 1, 2, 2), dtype=np.float32),
                    np.array([0, 1, 0, 1], dtype=np.int64), 2)
    with pytest.raises(NumericalError, match="^non-finite loss .* at epoch 0, sample offset 0$"):
        ps.train_sgd(weights, spec, ds, ps.TrainConfig(0.1, 1, 4, 0))


def test_evaluate_accuracy_contracts(small_conv_model):
    spec, weights = small_conv_model
    with pytest.raises(ArgumentError):
        ps.evaluate_accuracy(weights, spec, ps.Dataset(
            np.zeros((0, 1, 6, 6), dtype=np.float32), np.zeros(0, dtype=np.int64), 3))
    rng = np.random.default_rng(2)
    images = rng.random((40, 1, 6, 6)).astype(np.float32)
    preds = predict_batch(weights, spec, images)
    ds = ps.Dataset(images, preds, 3)
    assert ps.evaluate_accuracy(weights, spec, ds) == 1.0


def test_random_model_chance_level():
    spec = desk_spec()
    weights = ps.build_model(spec, 123)
    ds = ps.synthetic_digits(400, seed=17)
    acc = ps.evaluate_accuracy(weights, spec, ds)
    assert 0.0 <= acc <= 0.35  # chance is 0.1; untrained models sit near it


def test_eval_via_traces_matches_batched(small_conv_model):
    spec, weights = small_conv_model
    rng = np.random.default_rng(21)
    # 16 images fit one batch; 2*64+3 cross two batch boundaries into a remainder
    for n in (16, 2 * model._PREDICT_BATCH + 3):
        images = rng.random((n, 1, 6, 6)).astype(np.float32)
        batched = predict_batch(weights, spec, images)
        solo = np.array([int(np.argmax(ps.forward(weights, spec, img).logits))
                         for img in images])
        np.testing.assert_array_equal(batched, solo)


def test_desk_batch_logits_equal_single_image_logits_bitwise():
    # batch 64, the predict and training batch, against 64 batch-1 passes
    spec = desk_spec()
    weights = ps.build_model(spec, 0)
    images = ps.synthetic_digits(64, seed=5).images
    batched, _ = _forward_batch(weights, resolve(spec), images)
    solo = np.concatenate([_forward_batch(weights, resolve(spec), images[i:i + 1])[0]
                           for i in range(64)])
    assert batched.tobytes() == solo.tobytes()


def test_input_shape_is_checked_on_every_batched_path():
    # 14x56 has the pixels of 28x28, and the desk layers would run on it
    # without complaint; the first layer's input shape alone tells them apart
    spec = desk_spec()
    weights = ps.build_model(spec, 0)
    digits = ps.synthetic_digits(8, seed=0)
    wide = ps.Dataset(digits.images.reshape(8, 1, 14, 56), digits.labels, 10)
    with pytest.raises(ShapeError, match=r"\(1, 14, 56\) != conv1.conv input \(1, 28, 28\)"):
        predict_batch(weights, spec, wide.images)
    with pytest.raises(ShapeError):
        ps.evaluate_accuracy(weights, spec, wide)
    with pytest.raises(ShapeError):
        ps.train_sgd(weights, spec, wide, ps.TrainConfig(0.05, 1, 4, 0))


def test_labels_outside_the_model_classes_are_rejected(small_conv_model):
    spec, weights = small_conv_model  # 3 classes
    ds = ps.Dataset(np.zeros((4, 1, 6, 6), dtype=np.float32),
                    np.array([0, 1, 2, 3], dtype=np.int64), 4)
    with pytest.raises(ArgumentError, match="label 3 out of range for 3 classes"):
        ps.evaluate_accuracy(weights, spec, ds)
    with pytest.raises(ArgumentError, match="label 3 out of range for 3 classes"):
        ps.train_sgd(weights, spec, ds, ps.TrainConfig(0.05, 1, 4, 0))


def test_predict_peak_stays_below_training_step():
    # Inference holds no more than one training step: the reverse-sweep cache
    # of a larger batch would be memory that nothing reads.
    spec = desk_spec()
    weights = ps.build_model(spec, 0)
    ds = ps.synthetic_digits(256, seed=3)
    predict_batch(weights, spec, ds.images[:4])  # both peaks without the kept conv buffers
    _, train_peak = traced_peak(lambda: ps.train_sgd(
        weights, spec, ps.subsample(ds, 128), ps.TrainConfig(0.01, 1, 64, 0)))
    _, predict_peak = traced_peak(lambda: predict_batch(weights, spec, ds.images))
    assert predict_peak < train_peak


def test_training_step_holds_nothing_into_the_next():
    # Each step's reverse sweep releases its cache, so four steps of 64 peak
    # where one does. A step may still hold its batch of images and one set of
    # weight gradients (accumulated in float64) into the next.
    spec = desk_spec()
    weights = ps.build_model(spec, 0)
    ds = ps.synthetic_digits(256, seed=3)
    config = ps.TrainConfig(0.01, 1, 64, 0)
    ps.train_sgd(weights, spec, ps.subsample(ds, 4), config)  # the kept conv buffers
    one = ps.subsample(ds, 64)
    _, one_peak = traced_peak(lambda: ps.train_sgd(weights, spec, one, config))
    _, four_peak = traced_peak(lambda: ps.train_sgd(weights, spec, ds, config))
    slack = one.images.nbytes + 2 * sum(w.nbytes for w in weights.values())
    assert four_peak <= one_peak + slack


def test_predict_keeps_no_cache():
    # A cache of one batch would hold every conv and ReLU output of its
    # images; inference holds only a layer's input, its output and the
    # layer's scratch at a time.
    spec = desk_spec()
    weights = ps.build_model(spec, 0)
    images = ps.synthetic_digits(256, seed=3).images
    predict_batch(weights, spec, images[:4])  # the kept conv buffers
    _, peak = traced_peak(lambda: predict_batch(weights, spec, images))
    one_cache = sum(model._PREDICT_BATCH * images.itemsize * int(np.prod(r.out_shape))
                    for r in resolve(spec) if r.spec.kind in ("conv", "relu"))
    assert peak < one_cache


def test_training_cache_holds_no_pre_activation_and_backward_empties_it():
    spec = desk_spec()
    weights = ps.build_model(spec, 0)
    x = ps.synthetic_digits(8, seed=1).images
    logits, cache = _forward_batch(weights, resolve(spec), x, np.random.default_rng(0))
    # each ReLU's entry is its output, the array the next layer reads
    relus = [i for i, (r, _, _) in enumerate(cache) if r.spec.kind == "relu"]
    assert relus and all(cache[i][1] is cache[i + 1][1] for i in relus)
    model._backward_batch(weights, cache, np.ones_like(logits), train=True)
    assert cache == []


def test_training_dropout_entry_holds_only_its_mask():
    # Dropout's reverse step reads only the mask, so its training entry keeps
    # no activation and the pool output is freed once dropout has run.
    spec = desk_spec()
    weights = ps.build_model(spec, 0)
    x = ps.synthetic_digits(8, seed=1).images
    logits, cache = _forward_batch(weights, resolve(spec), x, np.random.default_rng(0))
    (r, held, mask), = [e for e in cache if e[0].spec.kind == "dropout"]
    assert held is None and mask.shape == (8, *r.in_shape)
    model._backward_batch(weights, cache, np.ones_like(logits), train=True)
    assert cache == []


@pytest.mark.parametrize("first", [ps.relu(), ps.dropout(0.5), ps.conv(2)])
def test_forward_batch_modes_keep_their_input_and_their_cache(first):
    # A forward trains exactly when it gets a drop_rng, and keeps a cache
    # unless it is an inference forward into a workspace. No mode writes its
    # input batch, even where the first layer could act in place.
    spec = ps.ModelSpec((1, 4, 4), 3, (first, ps.conv(2), ps.relu(), ps.dropout(0.5),
                                       ps.flatten(), ps.fc(3)))
    weights = ps.build_model(spec, 0)
    x = np.random.default_rng(0).standard_normal((5, 1, 4, 4)).astype(np.float32)
    before = x.tobytes()
    for drop_rng in (None, np.random.default_rng(1)):
        for ws in (None, model.Workspace()):
            _, cache = _forward_batch(weights, resolve(spec), x, drop_rng, ws)
            assert x.tobytes() == before
            assert (cache is None) == (drop_rng is None and ws is not None)
    _, cache = _forward_batch(weights, resolve(spec), x, np.random.default_rng(1))
    assert [r for r, _, _ in cache] == list(resolve(spec))
    for i, (r, held, aux) in enumerate(cache):
        if r.spec.kind == "relu":  # its output, recomputed from what fed it
            pre = x if i == 0 else model._layer_forward(cache[i - 1][0], weights,
                                                        cache[i - 1][1])[0]
            assert held.tobytes() == ops.relu_forward(pre).tobytes()
        elif r.spec.kind == "dropout":
            assert held is None and aux.shape == (5, *r.in_shape)


@st.composite
def trainable_stacks(draw):
    """A small random stack: conv, ReLU, pool and dropout layers in any order
    on a [C,H,W] input, then flatten, fc, ReLU and dropout layers in any
    order, then an fc head. So a ReLU or dropout follows every kind of layer,
    and a conv or fc layer may follow another with nothing between."""
    shape = (draw(st.integers(1, 2)), draw(st.integers(3, 7)), draw(st.integers(3, 7)))
    _, h, w = shape
    layers = []
    for kind in draw(st.lists(st.sampled_from(["conv", "conv", "relu", "maxpool", "dropout"]),
                              max_size=6)):
        if kind == "conv":
            p = draw(st.integers(0, 1))
            k = draw(st.integers(1, min(3, h + 2 * p, w + 2 * p)))
            s = draw(st.integers(1, 2))
            layers.append(ps.conv(draw(st.integers(1, 3)), kernel=k, stride=s, padding=p))
            h, w = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        elif kind == "maxpool":
            window, stride = draw(st.integers(1, min(2, h, w))), draw(st.integers(1, 2))
            layers.append(ps.maxpool(window, stride))
            h, w = (h - window) // stride + 1, (w - window) // stride + 1
        else:
            layers.append(ps.relu() if kind == "relu"
                          else ps.dropout(draw(st.sampled_from([0.0, 0.25, 0.5]))))
    layers.append(ps.flatten())
    for kind in draw(st.lists(st.sampled_from(["fc", "relu", "dropout"]), max_size=3)):
        layers.append(ps.fc(draw(st.integers(1, 5))) if kind == "fc"
                      else ps.relu() if kind == "relu" else ps.dropout(0.5))
    return ps.ModelSpec(shape, 3, (*layers, ps.fc(3)))


def train_fresh(weights, spec, dataset, config):
    """train_sgd's loop with fresh arrays: _forward_batch and _backward_batch
    without a workspace, each op allocating what it returns."""
    w = {k: v.copy() for k, v in weights.items()}
    shuffle_rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)
    n, history = len(dataset), []
    for _ in range(config.epochs):
        perm, epoch_loss = shuffle_rng.permutation(n), 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            logits, cache = _forward_batch(w, resolve(spec), dataset.images[idx], drop_rng)
            losses, grad_logits = ops.softmax_cross_entropy_batch(logits, dataset.labels[idx])
            epoch_loss += float(losses.mean()) * len(idx)
            _, grads = model._backward_batch(w, cache, grad_logits / np.float32(len(idx)), True)
            for name, gw in grads.items():
                w[name] -= np.float32(config.learning_rate) * gw
        history.append(epoch_loss / n)
    return w, history


@given(trainable_stacks(), st.integers(2, 6), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_workspace_training_and_inference_equal_fresh_arrays_bitwise(spec, batch, full, data):
    # Every batch size leaves a partial last batch, which works in the
    # leading rows of the full batch's arrays, in both epochs.
    n = full * batch + data.draw(st.integers(1, batch - 1))
    rng = np.random.default_rng(n * 7 + batch)
    ds = ps.Dataset(rng.random((n, *spec.input_shape), dtype=np.float32),
                    rng.integers(0, 3, n), 3)
    weights = ps.build_model(spec, seed=n)
    config = ps.TrainConfig(0.05, 2, batch, seed=batch)
    got, got_history = ps.train_sgd(weights, spec, ds, config)
    want, want_history = train_fresh(weights, spec, ds, config)
    assert got_history == want_history
    assert serialize_model(got, spec) == serialize_model(want, spec)

    def logits(ws):
        return [_forward_batch(got, resolve(spec), ds.images[s:s + batch], ws=ws)[0].tobytes()
                for s in range(0, n, batch)]
    assert logits(model.Workspace()) == logits(None)
    fresh = [np.argmax(_forward_batch(got, resolve(spec), ds.images[s:s + model._PREDICT_BATCH])[0],
                       axis=1)
             for s in range(0, n, model._PREDICT_BATCH)]
    np.testing.assert_array_equal(predict_batch(got, spec, ds.images), np.concatenate(fresh))


def test_training_and_evaluation_keep_nothing_after_they_return():
    # The workspace lives as long as one call: afterwards only the returned
    # weights (and small Python objects) remain of what the call allocated.
    spec = desk_spec()
    weights = ps.build_model(spec, 0)
    ds = ps.synthetic_digits(100, seed=3)  # batches of 64 and 36
    config = ps.TrainConfig(0.01, 1, 64, 0)
    ps.train_sgd(weights, spec, ps.subsample(ds, 4), config)  # the kept conv buffers
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trained, _ = ps.train_sgd(weights, spec, ds, config)
        kept = tracemalloc.get_traced_memory()[0] - before
        assert kept < sum(w.nbytes for w in trained.values()) + 2**14
        before = tracemalloc.get_traced_memory()[0]
        ps.evaluate_accuracy(trained, spec, ds)
        assert tracemalloc.get_traced_memory()[0] - before < 2**14
    finally:
        tracemalloc.stop()


def test_dropout_training_only():
    spec = ps.ModelSpec((1, 4, 4), 2,
                        (ps.dropout(0.5), ps.flatten(), ps.fc(2)))
    weights = ps.build_model(spec, 0)
    x = np.ones((3, 1, 4, 4), dtype=np.float32)
    eval_logits, _ = _forward_batch(weights, resolve(spec), x)
    rng = np.random.default_rng(0)
    train_logits, _ = _forward_batch(weights, resolve(spec), x, rng)
    assert not np.array_equal(eval_logits, train_logits)
    eval_again, _ = _forward_batch(weights, resolve(spec), x)
    np.testing.assert_array_equal(eval_logits, eval_again)


# --- persistence ---

def test_save_load_round_trip(tmp_path, small_conv_model):
    spec, weights = small_conv_model
    p = tmp_path / "m.npsc"
    ps.save_model(weights, spec, p)
    spec2, weights2 = ps.load_model(p)
    assert spec2 == spec
    for k in weights:
        np.testing.assert_array_equal(weights[k], weights2[k])
    ps.save_model(weights2, spec2, tmp_path / "m2.npsc")
    assert (tmp_path / "m.npsc").read_bytes() == (tmp_path / "m2.npsc").read_bytes()


def test_loaded_model_reproduces_logits(tmp_path, small_conv_model):
    spec, weights = small_conv_model
    x = np.random.default_rng(31).random(spec.input_shape).astype(np.float32)
    base = ps.forward(weights, spec, x).logits
    p = tmp_path / "m.npsc"
    ps.save_model(weights, spec, p)
    spec2, weights2 = ps.load_model(p)
    np.testing.assert_array_equal(ps.forward(weights2, spec2, x).logits, base)


def test_load_rejects_bad_magic(tmp_path, small_conv_model):
    spec, weights = small_conv_model
    p = tmp_path / "m.npsc"
    ps.save_model(weights, spec, p)
    data = bytearray(p.read_bytes())
    data[:4] = b"XXXX"
    bad = tmp_path / "bad.npsc"
    bad.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        ps.load_model(bad)


def test_load_rejects_truncation(tmp_path, small_conv_model):
    spec, weights = small_conv_model
    p = tmp_path / "m.npsc"
    ps.save_model(weights, spec, p)
    data = p.read_bytes()
    bad = tmp_path / "short.npsc"
    bad.write_bytes(data[:-5])
    with pytest.raises(FormatError):
        ps.load_model(bad)


def test_load_rejects_trailing_garbage(tmp_path, small_conv_model):
    spec, weights = small_conv_model
    p = tmp_path / "m.npsc"
    ps.save_model(weights, spec, p)
    bad = tmp_path / "long.npsc"
    bad.write_bytes(p.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError):
        ps.load_model(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_weights(tmp_path, small_conv_model, value):
    spec, weights = small_conv_model
    bad = {k: v.copy() for k, v in weights.items()}
    bad["conv1.conv"][0, 0, 1, 1] = value
    p = tmp_path / "m.npsc"
    ps.save_model(bad, spec, p)
    with pytest.raises(FormatError, match="conv1.conv"):
        ps.load_model(p)


def test_digest_changes_with_weights(tiny_spec):
    w = make_tiny_weights()
    d1 = ps.model_digest(w, tiny_spec)
    w2 = {k: v.copy() for k, v in w.items()}
    w2["fc1"][0, 0] += 1.0
    assert ps.model_digest(w2, tiny_spec) != d1
    assert len(d1) == 64


def test_serialize_header_is_json(tiny_spec):
    import json
    import struct
    blob = serialize_model(make_tiny_weights(), tiny_spec)
    assert blob[:4] == b"NPSC" and blob[4] == 1
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9:9 + hlen])
    assert header["num_classes"] == 2
    assert [t["name"] for t in header["tensors"]] == ["fc1", "fc2"]


def test_desk_asset_round_trips_to_its_own_bytes():
    path = Path(__file__).resolve().parent.parent / "benchmark" / "assets" / "desk_model.npsc"
    spec, weights = ps.load_model(path)
    assert serialize_model(weights, spec) == path.read_bytes()


def _with_layer(blob: bytes, entry, index: int = 0) -> bytes:
    """`blob` with its header's layer entry `index` replaced by `entry`."""
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9:9 + hlen])
    header["layers"][index] = entry
    new = json.dumps(header).encode("utf-8")
    return blob[:5] + struct.pack("<I", len(new)) + new + blob[9 + hlen:]


@pytest.mark.parametrize("entry", [
    {"kind": 3},
    {"kind": ["conv"]},
    {"kind": "pool"},
    {},
    7,
    {"kind": "conv", "kernel": 3, "stride": 1, "padding": 1},
    {"kind": "conv", "out_channels": "two", "kernel": 3, "stride": 1, "padding": 1},
    {"kind": "conv", "out_channels": None, "kernel": 3, "stride": 1, "padding": 1},
])
def test_load_rejects_bad_layer_entry(tmp_path, small_conv_model, entry):
    spec, weights = small_conv_model
    bad = tmp_path / "bad.npsc"
    bad.write_bytes(_with_layer(serialize_model(weights, spec), entry))
    with pytest.raises(FormatError):
        ps.load_model(bad)


@pytest.mark.parametrize("index, entry", [
    (0, {"kind": "conv", "out_channels": 8, "kernel": 3, "stride": 0, "padding": 1}),
    (0, {"kind": "conv", "out_channels": 8, "kernel": 3, "stride": 1, "padding": -1}),
    (6, {"kind": "maxpool", "window": 2, "stride": 0}),
])
def test_load_rejects_bad_stride_or_padding(tmp_path, index, entry):
    # the header is outside input: bad geometry is a FormatError, never a crash
    spec = desk_spec()
    bad = tmp_path / "bad.npsc"
    bad.write_bytes(_with_layer(serialize_model(ps.build_model(spec, 0), spec), entry, index))
    with pytest.raises(FormatError):
        ps.load_model(bad)


def test_train_skips_only_the_first_conv_input_gradient(monkeypatch):
    # The image needs no gradient: the first conv layer is asked for its
    # kernel gradient alone, every later conv layer for both.
    asked = []
    real = ops.conv2d_backward_batch

    def spy(x, kernels, stride, padding, grad_out, input_grad=True, out=None):
        asked.append((kernels.shape[1], input_grad))
        return real(x, kernels, stride, padding, grad_out, input_grad=input_grad, out=out)

    monkeypatch.setattr(ops, "conv2d_backward_batch", spy)
    spec = ps.ModelSpec((1, 8, 8), 2,
                        (ps.conv(3, 3, 1, 1), ps.relu(), ps.conv(4, 3, 1, 1), ps.relu(),
                         ps.maxpool(2, 2), ps.conv(2, 3, 1, 1), ps.flatten(), ps.fc(2)))
    ds = ps.synthetic_blobs(12, classes=2, image_hw=8, seed=0)
    ps.train_sgd(ps.build_model(spec, 0), spec, ds, ps.TrainConfig(0.05, 1, 4, 0))
    assert asked == [(4, True), (3, True), (1, False)] * 3  # 12 images, batch 4


def test_gradient_wrt_layer_asks_no_fc_weight_gradient(monkeypatch):
    # Analysis reads only the gradient wrt a layer's output, so every fc layer
    # it crosses skips its weight gradient; training still asks for it.
    asked = []
    real = ops.fc_backward_batch

    def spy(x, weights, grad_out, weight_grad=True, out=None):
        asked.append(weight_grad)
        gx, gw = real(x, weights, grad_out, weight_grad=weight_grad, out=out)
        assert (gw is None) == (not weight_grad)
        np.testing.assert_array_equal(gx, real(x, weights, grad_out)[0])
        return gx, gw

    monkeypatch.setattr(ops, "fc_backward_batch", spy)
    spec = ps.ModelSpec((1, 4, 4), 3, (ps.flatten(), ps.fc(5), ps.relu(), ps.fc(3)))
    weights = ps.build_model(spec, 0)
    x = np.random.default_rng(0).standard_normal((1, 4, 4)).astype(np.float32)
    ps.gradient_wrt_layer(weights, spec, ps.forward(weights, spec, x), "flatten1", 1)
    assert asked == [False, False]
    ds = ps.synthetic_blobs(4, classes=3, image_hw=4, seed=0)
    ps.train_sgd(weights, spec, ds, ps.TrainConfig(0.05, 1, 4, 0))
    assert asked == [False, False, True, True]


@pytest.mark.parametrize("profile", [desk_spec, model.reference_spec])
def test_float64_gemm_operands_give_the_float32_results_bitwise(profile):
    spec = profile()
    weights = ps.build_model(spec, 3)
    wide = ps.gemm_operands(weights)
    assert all(w.dtype == np.float64 for w in wide.values())
    for x in ps.synthetic_digits(2, seed=4).images:
        trace = ps.forward(weights, spec, x)
        wide_trace = ps.forward(wide, spec, x)
        for name in trace.names:
            assert wide_trace.outputs[name].tobytes() == trace.outputs[name].tobytes()
            assert wide_trace.outputs[name].dtype == trace.outputs[name].dtype
            resumed = ps.forward_from_layer(weights, spec, name, trace.outputs[name])
            assert ps.forward_from_layer(wide, spec, name, trace.outputs[name]).tobytes() \
                == resumed.tobytes()
        for name, routing in trace.routings.items():
            assert np.array_equal(wide_trace.routings[name], routing)
        target = int(np.argmax(trace.logits))
        for name in trace.names[:-1]:
            grad = ps.gradient_wrt_layer(weights, spec, trace, name, target)
            wide_grad = ps.gradient_wrt_layer(wide, spec, trace, name, target)
            assert wide_grad.dtype == grad.dtype and wide_grad.tobytes() == grad.tobytes()
