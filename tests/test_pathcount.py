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
    clip_fc_weights,
    conv,
    extract_onoff,
    fc,
    flatten,
    forward,
    maxpool,
    pathcount_bruteforce,
    pathcount_forward,
    relu,
)
from pathscope.model import build_model, dropout, resolve


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
    counts = pathcount_forward(weights, spec, trace)
    np.testing.assert_array_equal(counts.layer("flatten1"), [1.0, 1.0])
    np.testing.assert_array_equal(counts.layer("fc1"), [2.0, 2.0])
    np.testing.assert_array_equal(counts.layer("fc1.relu"), [2.0, 2.0])
    np.testing.assert_array_equal(counts.layer("fc2"), [4.0, 4.0])
    assert counts.exact


def test_one_hidden_off_gives_two_paths():
    spec = tiny_fc_spec()
    weights = tiny_fc_weights([[1.0, 1.0], [-1.0, -1.0]])  # second unit off on positive input
    trace = forward(weights, spec, np.full((1, 1, 2), 0.5, dtype=np.float32))
    counts = pathcount_forward(weights, spec, trace)
    np.testing.assert_array_equal(counts.layer("fc1"), [2.0, 2.0])  # pre-gate
    np.testing.assert_array_equal(counts.layer("fc1.relu"), [2.0, 0.0])
    np.testing.assert_array_equal(counts.layer("fc2"), [2.0, 2.0])


def test_conv_center_sees_nine_paths_corners_four():
    spec = ModelSpec((1, 5, 5), 2, (conv(1), relu(), flatten(), fc(2)))
    weights = build_model(spec, seed=0)
    weights["conv1.conv"] = np.ones((1, 1, 3, 3), dtype=np.float32)
    trace = forward(weights, spec, np.full((1, 5, 5), 0.3, dtype=np.float32))
    counts = pathcount_forward(weights, spec, trace).layer("conv1.conv")[0]
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
    counts = pathcount_forward(weights, spec, trace).layer("conv1.conv")[0]
    assert counts[2, 2] == 8.0


def test_pool_forwards_the_winning_count():
    spec = ModelSpec((1, 4, 4), 2, (conv(1), relu(), maxpool(), flatten(), fc(2)))
    weights = build_model(spec, seed=1)
    weights["conv1.conv"] = np.ones((1, 1, 3, 3), dtype=np.float32)
    x = np.zeros((1, 4, 4), dtype=np.float32)
    x[0, 0, 0] = 1.0  # top-left corner dominates the first window
    trace = forward(weights, spec, x)
    counts = pathcount_forward(weights, spec, trace)
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
    counts = pathcount_forward(weights, spec, trace)
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
    loose = pathcount_forward(weights, spec, trace, ClipConfig("absolute", lo))
    tight = pathcount_forward(weights, spec, trace, ClipConfig("absolute", hi))
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
        pathcount_forward(weights, spec, trace).layer("fc9")


def test_counts_vanish_exactly_where_pattern_is_off():
    spec = ModelSpec((1, 4, 4), 2,
                     (conv(2), relu(), maxpool(), flatten(), fc(2)))
    for seed in range(5):
        weights = build_model(spec, seed=seed)
        x = np.random.default_rng(seed).normal(size=(1, 4, 4)).astype(np.float32)
        trace = forward(weights, spec, x)
        counts = pathcount_forward(weights, spec, trace)
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
    a = pathcount_forward(weights, spec, trace)
    b = pathcount_forward(weights, spec, rescaled)
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
    fast = pathcount_forward(weights, spec, trace, clip)
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
    fast = pathcount_forward(weights, spec, trace)
    slow = all_counts(weights, spec, trace)
    for name, expected in slow.items():
        np.testing.assert_array_equal(fast.layer(name), expected)


def test_strided_unpadded_conv_counts_match_bruteforce():
    spec = ModelSpec((2, 5, 5), 2,
                     (conv(2, kernel=3, stride=2, padding=0), relu(), flatten(), fc(2)))
    weights = build_model(spec, seed=4)
    x = np.random.default_rng(4).normal(size=(2, 5, 5)).astype(np.float32)
    trace = forward(weights, spec, x)
    fast = pathcount_forward(weights, spec, trace)
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
    fast = pathcount_forward(weights, spec, trace)
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
    fast = pathcount_forward(weights, spec, trace, clip)
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
    counts = pathcount_forward(weights, spec, trace)
    assert not counts.exact
    assert float(counts.layer(f"fc{depth}").max()) == float(width) ** depth


def test_small_networks_are_exact():
    spec = tiny_fc_spec()
    weights = tiny_fc_weights([[1.0, 1.0], [1.0, 1.0]])
    trace = forward(weights, spec, np.full((1, 1, 2), 0.5, dtype=np.float32))
    assert pathcount_forward(weights, spec, trace).exact


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
    fast = pathcount_forward(weights, spec, trace, clip)
    for i in range(2):
        slow = pathcount_bruteforce(weights, spec, trace, clip, ("fc2", i))
        assert fast.layer("fc2")[i] == float(slow)
