"""Path counting: hand-computed fixtures, clipping, and the brute-force oracle.

The load-bearing check is oracle equivalence: `pathcount_forward` (ones
propagation) must agree exactly with `pathcount_bruteforce` (unmemoized DFS
over complete paths) at every neuron of every layer, across FC and conv/pool
architectures and across clip settings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathscope.pathcount as pc_mod
from pathscope import (
    ArgumentError,
    ClipConfig,
    ForwardTrace,
    ModelSpec,
    SizeError,
    cam_layer,
    clip_fc_weights,
    conv,
    extract_onoff,
    fc,
    flatten,
    forward,
    maxpool,
    pathcount_bruteforce,
    pathcount_forward,
    pathcount_plan,
    relu,
)
from pathscope.model import _layer_forward, build_model, dropout, resolve


def tiny_fc_spec():
    # 2 inputs -> 2 hidden (ReLU) -> 2 outputs; we reason about output 0.
    return ModelSpec((1, 1, 2), 2, (flatten(), fc(2), relu(), fc(2)))


def tiny_fc_weights(hidden):
    return {
        "fc1": np.asarray(hidden, dtype=np.float32),
        "fc2": np.ones((2, 2), dtype=np.float32),
    }


def all_counts(weights, spec, trace, clip=ClipConfig()):
    """Brute-force every neuron of every layer into a PathCountMap-shaped dict."""
    out = {}
    for r in resolve(spec):
        n = int(np.prod(r.out_shape))
        flat = np.array(
            [pathcount_bruteforce(weights, spec, trace, clip, (r.name, i)) for i in range(n)],
            dtype=np.float64,
        )
        out[r.name] = flat.reshape(r.out_shape)
    return out


# ---------------------------------------------------------------------------
# hand-computed fixtures
# ---------------------------------------------------------------------------


def test_both_hidden_on_gives_four_paths():
    spec = tiny_fc_spec()
    weights = tiny_fc_weights([[1.0, 1.0], [1.0, 1.0]])
    trace = forward(weights, spec, np.full((1, 1, 2), 0.5, dtype=np.float32))
    counts = pathcount_forward(pathcount_plan(weights, spec), trace)
    np.testing.assert_array_equal(counts.layer("flatten1"), [1.0, 1.0])
    np.testing.assert_array_equal(counts.layer("fc1"), [2.0, 2.0])
    np.testing.assert_array_equal(counts.layer("fc1.relu"), [2.0, 2.0])
    np.testing.assert_array_equal(counts.layer("fc2"), [4.0, 4.0])
    assert counts.exact


def test_one_hidden_off_gives_two_paths():
    spec = tiny_fc_spec()
    weights = tiny_fc_weights([[1.0, 1.0], [-1.0, -1.0]])  # second unit off on positive input
    trace = forward(weights, spec, np.full((1, 1, 2), 0.5, dtype=np.float32))
    counts = pathcount_forward(pathcount_plan(weights, spec), trace)
    np.testing.assert_array_equal(counts.layer("fc1"), [2.0, 2.0])  # pre-gate
    np.testing.assert_array_equal(counts.layer("fc1.relu"), [2.0, 0.0])
    np.testing.assert_array_equal(counts.layer("fc2"), [2.0, 2.0])


def test_conv_center_sees_nine_paths_corners_four():
    spec = ModelSpec((1, 5, 5), 2, (conv(1), relu(), flatten(), fc(2)))
    weights = build_model(spec, seed=0)
    weights["conv1.conv"] = np.ones((1, 1, 3, 3), dtype=np.float32)
    trace = forward(weights, spec, np.full((1, 5, 5), 0.3, dtype=np.float32))
    counts = pathcount_forward(pathcount_plan(weights, spec), trace).layer("conv1.conv")[0]
    assert counts[2, 2] == 9.0  # interior: full 3x3 window
    assert counts[0, 0] == counts[0, 4] == counts[4, 0] == counts[4, 4] == 4.0
    assert counts[0, 2] == 6.0  # edge: one row padded away
    # padding never contributes a path: totals match the valid-tap counts exactly
    assert counts.sum() == sum(
        sum(1 for ky in range(3) for kx in range(3)
            if 0 <= y - 1 + ky < 5 and 0 <= x - 1 + kx < 5)
        for y in range(5) for x in range(5)
    )


def test_zero_weight_taps_are_not_paths():
    spec = ModelSpec((1, 5, 5), 2, (conv(1), relu(), flatten(), fc(2)))
    weights = build_model(spec, seed=0)
    kernel = np.ones((1, 1, 3, 3), dtype=np.float32)
    kernel[0, 0, 1, 1] = 0.0  # knock out the center tap
    weights["conv1.conv"] = kernel
    trace = forward(weights, spec, np.full((1, 5, 5), 0.3, dtype=np.float32))
    counts = pathcount_forward(pathcount_plan(weights, spec), trace).layer("conv1.conv")[0]
    assert counts[2, 2] == 8.0


def test_pool_forwards_the_winning_count():
    spec = ModelSpec((1, 4, 4), 2, (conv(1), relu(), maxpool(), flatten(), fc(2)))
    weights = build_model(spec, seed=1)
    weights["conv1.conv"] = np.ones((1, 1, 3, 3), dtype=np.float32)
    x = np.zeros((1, 4, 4), dtype=np.float32)
    x[0, 0, 0] = 1.0  # top-left corner dominates the first window
    trace = forward(weights, spec, x)
    counts = pathcount_forward(pathcount_plan(weights, spec), trace)
    conv_counts = counts.layer("conv1.relu")[0]
    routing = trace.routings["pool1"].reshape(-1)
    np.testing.assert_array_equal(
        counts.layer("pool1").reshape(-1),
        counts.layer("conv1.relu").reshape(-1)[routing],
    )
    # the (0,0) window's max is at (0,0) itself: count 4 survives the pool
    assert trace.outputs["conv1.relu"][0].argmax() == 0
    assert counts.layer("pool1")[0, 0, 0] == conv_counts[0, 0]


def test_dropout_and_flatten_pass_counts_through():
    spec = ModelSpec((1, 1, 3), 2, (flatten(), fc(3), relu(), dropout(0.25), fc(2)))
    weights = build_model(spec, seed=3)
    trace = forward(weights, spec, np.full((1, 1, 3), 0.2, dtype=np.float32))
    counts = pathcount_forward(pathcount_plan(weights, spec), trace)
    np.testing.assert_array_equal(counts.layer("dropout1"), counts.layer("fc1.relu"))
    np.testing.assert_array_equal(counts.layer("flatten1"), np.ones(3))


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------


def test_clip_zero_threshold_keeps_all_nonzero_weights():
    w = np.array([[0.5, -0.5], [0.0, 1e-9]], dtype=np.float32)
    np.testing.assert_array_equal(clip_fc_weights(w, ClipConfig()), [[1, 1], [0, 1]])


def test_clip_is_strictly_greater_than():
    w = np.array([[0.5, -0.5], [0.2, 0.8]])
    mask = clip_fc_weights(w, ClipConfig("absolute", 0.5))
    np.testing.assert_array_equal(mask, [[0, 0], [0, 1]])


def test_clip_mean_mode_on_equal_magnitudes_is_all_zero():
    w = np.full((3, 4), -0.7)
    mask = clip_fc_weights(w, ClipConfig("mean"))
    np.testing.assert_array_equal(mask, np.zeros((3, 4)))


def test_clip_mean_mode_ignores_threshold_field():
    w = np.array([[1.0, 3.0], [-2.0, 2.0]])  # mean |w| = 2
    expected = [[0, 1], [0, 0]]
    np.testing.assert_array_equal(clip_fc_weights(w, ClipConfig("mean")), expected)
    np.testing.assert_array_equal(clip_fc_weights(w, ClipConfig("mean", 99.0)), expected)


def test_clip_config_validation():
    with pytest.raises(ArgumentError):
        ClipConfig("median")
    with pytest.raises(ArgumentError):
        ClipConfig("absolute", -0.1)
    # nan < 0 is False, so a plain sign check would let nan through and clip
    # every fc weight away
    for threshold in (float("nan"), float("inf")):
        for mode in ("absolute", "mean"):
            with pytest.raises(ArgumentError, match="finite"):
                ClipConfig(mode, threshold)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_raising_the_threshold_never_raises_a_count(seed, t1, t2):
    lo, hi = sorted((t1, t2))
    spec = ModelSpec((1, 1, 4), 2, (flatten(), fc(3), relu(), fc(2)))
    weights = build_model(spec, seed=seed % 1000)
    x = np.random.default_rng(seed).random((1, 1, 4)).astype(np.float32)
    trace = forward(weights, spec, x)
    loose = pathcount_forward(pathcount_plan(weights, spec, ClipConfig("absolute", lo)), trace)
    tight = pathcount_forward(pathcount_plan(weights, spec, ClipConfig("absolute", hi)), trace)
    for name in loose.layers:
        assert np.all(tight.layer(name) <= loose.layer(name))


# ---------------------------------------------------------------------------
# on-off patterns
# ---------------------------------------------------------------------------


def test_extract_onoff_is_strict_positive_indicator():
    spec = tiny_fc_spec()
    weights = tiny_fc_weights([[1.0, 1.0], [-1.0, -1.0]])
    trace = forward(weights, spec, np.full((1, 1, 2), 0.5, dtype=np.float32))
    pattern = extract_onoff(trace)
    np.testing.assert_array_equal(pattern["fc1.relu"], [1.0, 0.0])
    assert pattern["fc1.relu"].mean() == 0.5
    # exactly-zero values are off, not on
    assert pattern["fc1.relu"][1] == 0.0


def test_pattern_accessor_rejects_unknown_layer():
    spec = tiny_fc_spec()
    weights = tiny_fc_weights([[1.0, 1.0], [1.0, 1.0]])
    trace = forward(weights, spec, np.full((1, 1, 2), 0.5, dtype=np.float32))
    with pytest.raises(ArgumentError):
        pathcount_forward(pathcount_plan(weights, spec), trace).layer("fc9")


def test_counts_vanish_exactly_where_pattern_is_off():
    spec = ModelSpec((1, 4, 4), 2,
                     (conv(2), relu(), maxpool(), flatten(), fc(2)))
    for seed in range(5):
        weights = build_model(spec, seed=seed)
        x = np.random.default_rng(seed).normal(size=(1, 4, 4)).astype(np.float32)
        trace = forward(weights, spec, x)
        counts = pathcount_forward(pathcount_plan(weights, spec), trace)
        off = extract_onoff(trace)["conv1.relu"] == 0
        assert np.all(counts.layer("conv1.relu")[off] == 0)


def test_counts_depend_on_trace_only_through_pattern_and_routing():
    spec = ModelSpec((1, 4, 4), 2, (conv(2), relu(), maxpool(), flatten(), fc(2)))
    weights = build_model(spec, seed=9)
    x = np.random.default_rng(9).normal(size=(1, 4, 4)).astype(np.float32)
    trace = forward(weights, spec, x)
    # same signs and routings, wildly different magnitudes
    rescaled = ForwardTrace(
        input=trace.input,
        names=trace.names,
        outputs={k: v * 1000.0 for k, v in trace.outputs.items()},
        routings=trace.routings,
    )
    a = pathcount_forward(pathcount_plan(weights, spec), trace)
    b = pathcount_forward(pathcount_plan(weights, spec), rescaled)
    for name in a.layers:
        np.testing.assert_array_equal(a.layer(name), b.layer(name))


# ---------------------------------------------------------------------------
# oracle equivalence: ones-propagation vs unmemoized path enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "clip",
    [ClipConfig(), ClipConfig("absolute", 0.3), ClipConfig("mean")],
    ids=["tau0", "tau0.3", "mean"],
)
def test_fc_counts_match_bruteforce(seed, clip):
    spec = ModelSpec((1, 1, 4), 2, (flatten(), fc(3), relu(), fc(2)))
    weights = build_model(spec, seed=seed)
    x = np.random.default_rng(seed).normal(size=(1, 1, 4)).astype(np.float32)
    trace = forward(weights, spec, x)
    fast = pathcount_forward(pathcount_plan(weights, spec, clip), trace)
    slow = all_counts(weights, spec, trace, clip)
    for name, expected in slow.items():
        np.testing.assert_array_equal(fast.layer(name), expected)


@pytest.mark.parametrize("seed", [0, 1])
def test_conv_pool_counts_match_bruteforce(seed):
    spec = ModelSpec((1, 4, 4), 2,
                     (conv(2), relu(), conv(2), relu(), maxpool(), flatten(), fc(2)))
    weights = build_model(spec, seed=seed)
    x = np.random.default_rng(seed + 100).normal(size=(1, 4, 4)).astype(np.float32)
    trace = forward(weights, spec, x)
    fast = pathcount_forward(pathcount_plan(weights, spec), trace)
    slow = all_counts(weights, spec, trace)
    for name, expected in slow.items():
        np.testing.assert_array_equal(fast.layer(name), expected)


def test_strided_unpadded_conv_counts_match_bruteforce():
    spec = ModelSpec((2, 5, 5), 2,
                     (conv(2, kernel=3, stride=2, padding=0), relu(), flatten(), fc(2)))
    weights = build_model(spec, seed=4)
    x = np.random.default_rng(4).normal(size=(2, 5, 5)).astype(np.float32)
    trace = forward(weights, spec, x)
    fast = pathcount_forward(pathcount_plan(weights, spec), trace)
    slow = all_counts(weights, spec, trace)
    for name, expected in slow.items():
        np.testing.assert_array_equal(fast.layer(name), expected)


def test_sparse_kernel_counts_match_bruteforce():
    spec = ModelSpec((1, 4, 4), 2, (conv(2), relu(), flatten(), fc(2)))
    weights = build_model(spec, seed=5)
    kernel = weights["conv1.conv"].copy()
    kernel[np.abs(kernel) < np.median(np.abs(kernel))] = 0.0  # half the taps gone
    weights["conv1.conv"] = kernel
    x = np.random.default_rng(5).normal(size=(1, 4, 4)).astype(np.float32)
    trace = forward(weights, spec, x)
    fast = pathcount_forward(pathcount_plan(weights, spec), trace)
    slow = all_counts(weights, spec, trace)
    for name, expected in slow.items():
        np.testing.assert_array_equal(fast.layer(name), expected)


_LAYER_MIXES = {
    "dropout_between_conv_blocks": ((1, 4, 4), (conv(2), relu(), dropout(0.5), conv(2), relu(),
                                                maxpool(), flatten(), fc(2))),
    "overlapping_pool": ((1, 5, 5), (conv(2), relu(), maxpool(3, 1), flatten(), fc(2))),
    "padding_0_conv": ((2, 5, 5), (conv(2, kernel=2, stride=1, padding=0), relu(), conv(2),
                                   relu(), maxpool(), flatten(), fc(2))),
    "fc_hidden_layer": ((1, 4, 4), (conv(2), relu(), maxpool(), flatten(), fc(5), relu(),
                                    dropout(0.25), fc(2))),
}


@pytest.mark.parametrize("clip", [ClipConfig(), ClipConfig("mean")], ids=["absolute", "mean"])
@pytest.mark.parametrize("mix", sorted(_LAYER_MIXES))
def test_layer_mixes_match_bruteforce(mix, clip):
    # every kind pathcount_forward runs through the model's own layer step
    # (conv, fc, flatten, dropout) between the two that read the trace
    shape, layers = _LAYER_MIXES[mix]
    spec = ModelSpec(shape, 2, layers)
    weights = build_model(spec, seed=6)
    x = np.random.default_rng(6).normal(size=shape).astype(np.float32)
    trace = forward(weights, spec, x)
    fast = pathcount_forward(pathcount_plan(weights, spec, clip), trace)
    slow = all_counts(weights, spec, trace, clip)
    assert fast.layers.keys() == slow.keys()
    for name, expected in slow.items():
        np.testing.assert_array_equal(fast.layer(name), expected)


# ---------------------------------------------------------------------------
# exactness flag and enumeration guards
# ---------------------------------------------------------------------------


def test_exact_flag_trips_past_float64_integer_range():
    # 9 fc layers of width 60 with every weight kept: counts reach 60**9 > 2**53.
    width, depth = 60, 9
    layers = [flatten()]
    for _ in range(depth):
        layers += [fc(width), relu()]
    layers += [fc(2)]
    spec = ModelSpec((1, 1, width), 2, tuple(layers))
    weights = {f"fc{i + 1}": np.full(s, 0.5, dtype=np.float32)
               for i, s in enumerate([(width, width)] * depth + [(2, width)])}
    trace = forward(weights, spec, np.full((1, 1, width), 0.1, dtype=np.float32))
    counts = pathcount_forward(pathcount_plan(weights, spec), trace)
    assert not counts.exact
    assert float(counts.layer(f"fc{depth}").max()) == float(width) ** depth


def test_small_networks_are_exact():
    spec = tiny_fc_spec()
    weights = tiny_fc_weights([[1.0, 1.0], [1.0, 1.0]])
    trace = forward(weights, spec, np.full((1, 1, 2), 0.5, dtype=np.float32))
    assert pathcount_forward(pathcount_plan(weights, spec), trace).exact


def test_bruteforce_refuses_blowup(monkeypatch):
    spec = ModelSpec((1, 1, 4), 2, (flatten(), fc(4), relu(), fc(2)))
    weights = {
        "fc1": np.ones((4, 4), dtype=np.float32),
        "fc2": np.ones((2, 4), dtype=np.float32),
    }
    trace = forward(weights, spec, np.full((1, 1, 4), 0.5, dtype=np.float32))
    monkeypatch.setattr(pc_mod, "_PATH_LIMIT", 10)  # 16 paths reach fc2[0]
    with pytest.raises(SizeError):
        pathcount_bruteforce(weights, spec, trace, ClipConfig(), ("fc2", 0))


def test_bruteforce_target_validation():
    spec = tiny_fc_spec()
    weights = tiny_fc_weights([[1.0, 1.0], [1.0, 1.0]])
    trace = forward(weights, spec, np.full((1, 1, 2), 0.5, dtype=np.float32))
    with pytest.raises(ArgumentError):
        pathcount_bruteforce(weights, spec, trace, ClipConfig(), ("nope", 0))
    with pytest.raises(ArgumentError):
        pathcount_bruteforce(weights, spec, trace, ClipConfig(), ("fc2", 5))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_fc_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec((1, 1, 3), 2, (flatten(), fc(3), relu(), fc(2)))
    weights = {
        "fc1": rng.normal(size=(3, 3)).astype(np.float32),
        "fc2": rng.normal(size=(2, 3)).astype(np.float32),
    }
    x = rng.normal(size=(1, 1, 3)).astype(np.float32)
    trace = forward(weights, spec, x)
    clip = ClipConfig("absolute", float(rng.uniform(0, 1.5)))
    fast = pathcount_forward(pathcount_plan(weights, spec, clip), trace)
    for i in range(2):
        slow = pathcount_bruteforce(weights, spec, trace, clip, ("fc2", i))
        assert fast.layer("fc2")[i] == float(slow)



# ---------------------------------------------------------------------------
# the plan: dense layers in closed form, against an all-GEMM oracle
# ---------------------------------------------------------------------------


def gemm_counts(weights, spec, trace, clip):
    """Every conv and fc layer through the model's own layer step on its
    float64 binary mask, dense or not."""
    masks = {r.name: clip_fc_weights(weights[r.name], clip) if r.spec.kind == "fc"
             else (np.abs(weights[r.name]) > 0).astype(np.float64)
             for r in resolve(spec) if r.spec.kind in ("conv", "fc")}
    cur = np.ones((1, *spec.input_shape))
    out = {}
    for r in resolve(spec):
        if r.spec.kind == "relu":
            cur = cur * (trace.outputs[r.name] > 0)
        elif r.spec.kind == "maxpool":
            cur = np.take(cur.reshape(-1), trace.routings[r.name])[None]
        else:
            cur, _ = _layer_forward(r, masks, cur)
        out[r.name] = cur[0]
    return out


@st.composite
def architectures(draw):
    """A valid random stack: conv blocks of kernel 1-5, stride 1-3 and
    padding 0-2, each maybe followed by a pool that may overlap, and maybe
    an fc-ReLU head."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    _, h, w = shape
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.integers(0, 2))
        k = draw(st.integers(1, min(5, h + 2 * p, w + 2 * p)))
        s = draw(st.integers(1, 3))
        layers += [conv(draw(st.integers(1, 4)), kernel=k, stride=s, padding=p), relu()]
        h, w = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        if draw(st.booleans()):
            window, stride = draw(st.integers(1, min(3, h, w))), draw(st.integers(1, 3))
            layers.append(maxpool(window, stride))
            h, w = (h - window) // stride + 1, (w - window) // stride + 1
    layers.append(flatten())
    if draw(st.booleans()):
        layers += [fc(draw(st.integers(1, 6))), relu()]
    return ModelSpec(shape, 2, (*layers, fc(2)))


@given(architectures())
@settings(max_examples=100, deadline=None)
def test_every_fc_layer_follows_the_cam_layer(spec):
    # so the fc clip, the only clip, never reaches a CAM's counts
    names = [r.name for r in resolve(spec)]
    cam_at = names.index(cam_layer(spec))
    assert all(i > cam_at for i, r in enumerate(resolve(spec)) if r.spec.kind == "fc")


@given(architectures(), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([ClipConfig(), ClipConfig("absolute", 0.3), ClipConfig("mean")]))
@settings(max_examples=80, deadline=None)
def test_plan_counts_equal_all_gemm_counts_bytewise(spec, seed, zero_tap, clip):
    weights = build_model(spec, seed=seed % 1000)
    if zero_tap:  # one conv kernel tap gone: that layer's mask is not dense
        rng = np.random.default_rng(seed)
        name = f"conv{rng.integers(1, sum(l.kind == 'conv' for l in spec.layers) + 1)}.conv"
        weights[name][tuple(rng.integers(0, d) for d in weights[name].shape)] = 0.0
    rng = np.random.default_rng(seed)
    plan = pathcount_plan(weights, spec, clip)
    for _ in range(2):  # one plan serves every trace
        trace = forward(weights, spec, rng.normal(size=spec.input_shape).astype(np.float32))
        counts = pathcount_forward(plan, trace)
        assert counts.exact
        oracle = gemm_counts(weights, spec, trace, clip)
        assert counts.layers.keys() == oracle.keys()
        for name, expected in oracle.items():
            got = counts.layer(name)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes(), name


def test_plan_marks_dense_layers_and_keeps_the_leading_counts_read_only():
    spec = ModelSpec((1, 5, 5), 2, (conv(2), relu(), flatten(), fc(3), relu(), fc(2)))
    weights = build_model(spec, seed=0)
    weights["fc2"][0, 0] = 0.0
    plan = pathcount_plan(weights, spec)
    assert plan.masks["conv1.conv"] is None and plan.masks["fc1"] is None
    np.testing.assert_array_equal(plan.masks["fc2"], np.abs(weights["fc2"]) > 0)
    assert list(plan.leading) == ["conv1.conv"] and plan.exact
    assert plan.resolved == resolve(spec)
    trace = forward(weights, spec, np.full((1, 5, 5), 0.3, dtype=np.float32))
    counts = pathcount_forward(plan, trace)
    assert counts.layer("conv1.conv") is plan.leading["conv1.conv"]
    with pytest.raises(ValueError, match="read-only"):
        counts.layer("conv1.conv")[0, 0, 0] = 1.0


def test_mean_clip_plan_reads_the_float32_mean():
    # the middle weight equals the float64 mean of the three, but lies above
    # their float32 mean: only the float32 weights keep it
    w = np.array([[0.7423169016838074, 0.8132702112197876, 0.8842235207557678]],
                 dtype=np.float32)
    spec = ModelSpec((1, 1, 3), 2, (flatten(), fc(1), relu(), fc(2)))
    weights = {"fc1": w, "fc2": np.ones((2, 1), dtype=np.float32)}
    mask = pathcount_plan(weights, spec, ClipConfig("mean")).masks["fc1"]
    np.testing.assert_array_equal(mask, [[0, 1, 1]])
    np.testing.assert_array_equal(clip_fc_weights(w.astype(np.float64), ClipConfig("mean")),
                                  [[0, 0, 1]])
