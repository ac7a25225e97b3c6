"""Activation replacement: scaling identities, eligibility rules, sweeps.

Checked invariants: every scaled replacement preserves the layer's activation
total; identity replacement reproduces plain inference bit for bit; sweeps
cover the ReLU-layer x kind grid without mutating weights.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pathscope import (
    ArgumentError,
    ClipConfig,
    Dataset,
    ModelSpec,
    REPLACEMENT_KINDS,
    conv,
    fc,
    flatten,
    forward,
    maxpool,
    model_digest,
    pathcount_forward,
    pathcount_plan,
    relu,
    replace_and_infer,
    replaceable_layers,
    scaled_onoff,
    scaled_pathcount,
    signed_scaled_pathcount,
    sweep,
)
from pathscope import replacement
from pathscope.model import build_model, desk_spec, reference_spec, resolve
from pathscope.replacement import SWEEP_CSV_HEADER, sweep_csv_rows


@pytest.fixture(scope="module")
def small_net():
    spec = ModelSpec((1, 6, 6), 3,
                     (conv(2), relu(), maxpool(), flatten(), fc(4), relu(), fc(3)))
    return spec, build_model(spec, seed=12)


@pytest.fixture(scope="module")
def small_batch():
    rng = np.random.default_rng(3)
    images = rng.random((12, 1, 6, 6), dtype=np.float32)
    labels = rng.integers(0, 3, size=12).astype(np.int64)
    return Dataset(images, labels, 3)


# ---------------------------------------------------------------------------
# the three scaling rules, on worked examples
# ---------------------------------------------------------------------------


def test_scaled_onoff_example():
    act = np.array([0.0, 2.0, 4.0])
    out = scaled_onoff(act, (act > 0).astype(np.float64))
    np.testing.assert_allclose(out, [0.0, 3.0, 3.0])


def test_scaled_pathcount_example():
    out = scaled_pathcount(np.array([2.0, 4.0]), np.array([1.0, 3.0]))
    np.testing.assert_allclose(out, [1.5, 4.5])


def test_signed_scaled_pathcount_example():
    out = signed_scaled_pathcount(np.array([-2.0, 4.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [-3.0, 3.0])


def test_all_off_layer_maps_to_zeros():
    act = np.zeros(5)
    np.testing.assert_array_equal(scaled_onoff(act, np.zeros(5)), np.zeros(5))
    np.testing.assert_array_equal(scaled_pathcount(act, np.zeros(5)), np.zeros(5))
    # zero-count map zeroes the replacement even if activations are not zero
    np.testing.assert_array_equal(scaled_pathcount(np.array([1.0, 2.0]), np.zeros(2)),
                                  np.zeros(2))


def test_shape_mismatch_rejected():
    with pytest.raises(ArgumentError):
        scaled_onoff(np.zeros(3), np.zeros(4))
    with pytest.raises(ArgumentError):
        scaled_pathcount(np.zeros((2, 2)), np.zeros(4))


@given(hnp.arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(0, 100, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_scaled_onoff_preserves_total(act):
    out = scaled_onoff(act, (act > 0).astype(np.float64))
    assert abs(out.sum() - act.sum()) <= 1e-5 * max(1.0, abs(act.sum()))
    # a rescaled binary pattern takes at most two values: 0 and the scale
    assert len(np.unique(out)) <= 2


@given(
    hnp.arrays(np.float64, 17, elements=st.floats(0, 50, allow_nan=False)),
    hnp.arrays(np.float64, 17, elements=st.integers(0, 1000).map(float)),
)
@settings(max_examples=60, deadline=None)
def test_scaled_pathcount_preserves_total(act, counts):
    out = scaled_pathcount(act, counts)
    if counts.sum() == 0:
        np.testing.assert_array_equal(out, np.zeros_like(act))
    else:
        assert abs(out.sum() - act.sum()) <= 1e-5 * max(1.0, abs(act.sum()))


@given(
    hnp.arrays(np.float64, 9, elements=st.floats(0.001, 50, allow_nan=False)),
    hnp.arrays(np.bool_, 9),
    hnp.arrays(np.float64, 9, elements=st.integers(0, 1000).map(float)),
)
@settings(max_examples=60, deadline=None)
def test_signed_variant_preserves_absolute_total_and_signs(mag, neg, counts):
    pre = np.where(neg, -mag, mag)
    out = signed_scaled_pathcount(pre, counts)
    if counts.sum() > 0:
        assert abs(np.abs(out).sum() - np.abs(pre).sum()) <= 1e-5 * max(1.0, np.abs(pre).sum())
    nz = out != 0
    assert np.all(np.sign(out[nz]) == np.sign(pre[nz]))


def _fc_relu_spec():
    return ModelSpec((1, 6, 6), 3, (conv(2), relu(), maxpool(), flatten(), fc(4), relu(), fc(3)))


@pytest.mark.parametrize("make_spec", [desk_spec, reference_spec, _fc_relu_spec],
                         ids=["desk", "reference", "fc_relu"])
def test_signed_kind_equals_unsigned_on_relu_layers(make_spec):
    # A ReLU output is never negative (np.maximum(-0.0, 0) is +0.0) and its
    # path counts vanish wherever the neuron is off, so re-signing changes no
    # byte: on ReLU layers the signed kind repeats the unsigned one.
    spec = make_spec()
    for seed in range(6):
        weights = build_model(spec, seed=seed)
        x = np.random.default_rng(seed).random(spec.input_shape, dtype=np.float32)
        trace = forward(weights, spec, x)
        counts = pathcount_forward(pathcount_plan(weights, spec), trace)
        for layer in replaceable_layers(spec):
            act, c = trace.output(layer), counts.layer(layer)
            assert not np.signbit(act).any()
            assert signed_scaled_pathcount(act, c).tobytes() == scaled_pathcount(act, c).tobytes()
            np.testing.assert_array_equal(
                replace_and_infer(weights, spec, trace, layer, "signed_scaled_pathcount", counts),
                replace_and_infer(weights, spec, trace, layer, "scaled_pathcount", counts))


# ---------------------------------------------------------------------------
# replace-and-resume inference
# ---------------------------------------------------------------------------


def test_identity_replacement_is_bitwise_transparent(small_net):
    spec, weights = small_net
    x = np.random.default_rng(0).random((1, 6, 6), dtype=np.float32)
    base = forward(weights, spec, x).logits
    trace = forward(weights, spec, x)
    for r_name in [r.name for r in resolve(spec)]:
        out = replace_and_infer(weights, spec, trace, r_name, "identity")
        np.testing.assert_array_equal(out, base)


def test_scaled_onoff_changes_logits_in_general(small_net):
    spec, weights = small_net
    x = np.random.default_rng(1).random((1, 6, 6), dtype=np.float32)
    base = forward(weights, spec, x).logits
    out = replace_and_infer(weights, spec, forward(weights, spec, x), "conv1.relu",
                            "scaled_onoff")
    assert out.shape == base.shape
    assert not np.array_equal(out, base)


def test_replacement_site_rules(small_net):
    spec, weights = small_net
    x = np.zeros((1, 6, 6), dtype=np.float32)
    trace = forward(weights, spec, x)
    counts = pathcount_forward(pathcount_plan(weights, spec), trace)
    with pytest.raises(ArgumentError, match="ReLU"):
        replace_and_infer(weights, spec, trace, "conv1.conv", "scaled_onoff")
    with pytest.raises(ArgumentError, match="ReLU"):
        replace_and_infer(weights, spec, trace, "pool1", "scaled_pathcount", counts)
    with pytest.raises(ArgumentError):
        replace_and_infer(weights, spec, trace, "pool1", "signed_scaled_pathcount", counts)
    # the signed variant may target conv pre-activations
    out = replace_and_infer(weights, spec, trace, "conv1.conv", "signed_scaled_pathcount",
                            counts)
    assert out.shape == (3,)
    with pytest.raises(ArgumentError, match="unknown replacement kind"):
        replace_and_infer(weights, spec, trace, "conv1.relu", "negated")
    with pytest.raises(ArgumentError, match="no layer named"):
        replace_and_infer(weights, spec, trace, "conv7.relu", "identity")


@pytest.mark.parametrize("kind", ["scaled_pathcount", "signed_scaled_pathcount"])
def test_pathcount_kinds_need_counts(small_net, kind):
    spec, weights = small_net
    trace = forward(weights, spec, np.ones((1, 6, 6), dtype=np.float32))
    with pytest.raises(ArgumentError, match="path counts"):
        replace_and_infer(weights, spec, trace, "conv1.relu", kind)


def test_replacement_leaves_the_trace_unchanged(small_net):
    spec, weights = small_net
    x = np.random.default_rng(2).random((1, 6, 6), dtype=np.float32)
    trace = forward(weights, spec, x)
    before = {k: v.copy() for k, v in trace.outputs.items()}
    counts = pathcount_forward(pathcount_plan(weights, spec), trace)
    for kind in REPLACEMENT_KINDS:
        replace_and_infer(weights, spec, trace, "conv1.relu", kind, counts)
    for k, v in before.items():
        np.testing.assert_array_equal(trace.outputs[k], v)


def test_dead_input_keeps_zero_logits_zero(small_net):
    spec, weights = small_net
    x = np.zeros((1, 6, 6), dtype=np.float32)  # no bias terms: everything stays 0
    trace = forward(weights, spec, x)
    counts = pathcount_forward(pathcount_plan(weights, spec), trace)
    for kind in REPLACEMENT_KINDS:
        out = replace_and_infer(weights, spec, trace, "conv1.relu", kind, counts)
        np.testing.assert_array_equal(out, np.zeros(3, dtype=np.float32))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_covers_relu_layers_times_kinds(small_net, small_batch):
    spec, weights = small_net
    report = sweep(weights, spec, small_batch)
    layers = replaceable_layers(spec)
    assert layers == ["conv1.relu", "fc1.relu"]
    assert len(report.rows) == len(layers) * len(REPLACEMENT_KINDS)
    seen = {(r.layer, r.kind) for r in report.rows}
    assert seen == {(l, k) for l in layers for k in REPLACEMENT_KINDS}
    for r in report.rows:
        assert 0.0 <= r.accuracy <= 1.0
        assert 0.0 <= r.mean_on_ratio <= 1.0
        assert r.baseline_accuracy == report.rows[0].baseline_accuracy


def test_identity_rows_match_baseline(small_net, small_batch):
    spec, weights = small_net
    report = sweep(weights, spec, small_batch, kinds=("identity",))
    for r in report.rows:
        assert r.accuracy == r.baseline_accuracy


def test_sweep_does_not_mutate_weights(small_net, small_batch):
    spec, weights = small_net
    before = model_digest(weights, spec)
    sweep(weights, spec, small_batch, kinds=("identity", "scaled_onoff"))
    assert model_digest(weights, spec) == before


def test_sweep_rejects_empty_dataset(small_net):
    spec, weights = small_net
    empty = Dataset(np.zeros((0, 1, 6, 6), dtype=np.float32),
                    np.zeros(0, dtype=np.int64), 3)
    with pytest.raises(ArgumentError):
        sweep(weights, spec, empty)


def test_sweep_rejects_bad_kind(small_net, small_batch):
    spec, weights = small_net
    with pytest.raises(ArgumentError):
        sweep(weights, spec, small_batch, kinds=("identity", "negated"))
    with pytest.raises(ArgumentError, match="no replacement kinds"):
        sweep(weights, spec, small_batch, kinds=())


def test_sweep_rejects_bad_kind_without_relu_layers():
    # no layer to replace, so no (layer, kind) pair to check: the kind is
    # checked on its own
    spec = ModelSpec((1, 2, 2), 2, (flatten(), fc(2)))
    ds = Dataset(np.zeros((2, 1, 2, 2), dtype=np.float32), np.array([0, 1]), 2)
    with pytest.raises(ArgumentError, match="unknown replacement kind 'bogus'"):
        sweep(build_model(spec, 0), spec, ds, kinds=("bogus",))


def test_sweep_without_relu_layers_raises_before_any_forward(monkeypatch):
    spec = ModelSpec((1, 2, 2), 2, (flatten(), fc(2)))
    ds = Dataset(np.zeros((2, 1, 2, 2), dtype=np.float32), np.array([0, 1]), 2)

    def no_forward(*args, **kwargs):
        raise AssertionError("sweep ran a forward pass")

    monkeypatch.setattr(replacement, "forward", no_forward)
    with pytest.raises(ArgumentError, match="no ReLU layer"):
        sweep(build_model(spec, 0), spec, ds)


def test_sweep_is_worker_count_invariant(small_net, small_batch):
    spec, weights = small_net
    solo = sweep(weights, spec, small_batch, kinds=("identity", "scaled_onoff"))
    duo = sweep(weights, spec, small_batch, kinds=("identity", "scaled_onoff"), workers=2)
    assert sweep_csv_rows(solo) == sweep_csv_rows(duo)


def test_sweep_clip_config_is_recorded_and_applied(small_net, small_batch):
    spec, weights = small_net
    loose = sweep(weights, spec, small_batch, kinds=("scaled_pathcount",))
    tight = sweep(weights, spec, small_batch, kinds=("scaled_pathcount",),
                  clip=ClipConfig("mean"))
    assert loose.metadata["clip_mode"] == "absolute"
    assert tight.metadata["clip_mode"] == "mean"
    # mean-clip prunes fc edges; on images with two or more live fc units the
    # renormalized count map (and hence the resumed logits) must shift
    diffs = []
    for x in small_batch.images:
        trace = forward(weights, spec, x)
        a = replace_and_infer(weights, spec, trace, "fc1.relu", "scaled_pathcount",
                              pathcount_forward(pathcount_plan(weights, spec), trace))
        b = replace_and_infer(
            weights, spec, trace, "fc1.relu", "scaled_pathcount",
            pathcount_forward(pathcount_plan(weights, spec, ClipConfig("mean")), trace))
        diffs.append(not np.array_equal(a, b))
    assert any(diffs)


def test_sweep_report_row_lookup(small_net, small_batch):
    spec, weights = small_net
    report = sweep(weights, spec, small_batch, kinds=("identity",))
    row = report.row("fc1.relu", "identity")
    assert row.layer == "fc1.relu"
    with pytest.raises(ArgumentError):
        report.row("fc1.relu", "scaled_onoff")


def test_csv_rows_align_with_header(small_net, small_batch):
    spec, weights = small_net
    report = sweep(weights, spec, small_batch, kinds=("identity",))
    rows = sweep_csv_rows(report)
    assert SWEEP_CSV_HEADER == ["layer_name", "kind", "accuracy",
                                "baseline_accuracy", "mean_on_ratio"]
    assert all(len(r) == len(SWEEP_CSV_HEADER) for r in rows)
