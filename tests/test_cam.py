"""Saliency maps and their two evaluation protocols.

The delta-kernel + averaging-head fixture makes the channel weight alpha and
the resulting map analytically known, so the CAM pipeline is checked end to
end without reference to any training run.
"""

import numpy as np
import pytest

import pathscope.cam as cam_mod
from pathscope import (
    ArgumentError,
    ClipConfig,
    Dataset,
    ModelSpec,
    bilinear_resize,
    cam_layer,
    conv,
    degradation_score,
    fc,
    flatten,
    forward,
    gradient_wrt_layer,
    make_tiled,
    maxpool,
    pathcount_forward,
    pathcount_plan,
    perturb,
    relu,
    saliency_map,
    target_matching_accuracy,
)
from pathscope.model import build_model


def delta_net(h=4, w=4):
    """conv whose kernel is a centered delta (output == input), then a head
    that averages the feature map into logit 0 and negates it into logit 1."""
    spec = ModelSpec((1, h, w), 2, (conv(1), relu(), flatten(), fc(2)))
    kernel = np.zeros((1, 1, 3, 3), dtype=np.float32)
    kernel[0, 0, 1, 1] = 1.0
    head = np.vstack([np.full(h * w, 1.0 / (h * w)), np.full(h * w, -1.0 / (h * w))])
    return spec, {"conv1.conv": kernel, "fc1": head.astype(np.float32)}


@pytest.fixture(scope="module")
def conv_net():
    spec = ModelSpec((1, 8, 8), 4,
                     (conv(2), relu(), conv(3), relu(), maxpool(), flatten(), fc(4)))
    return spec, build_model(spec, seed=21)


# ---------------------------------------------------------------------------
# CAM extraction
# ---------------------------------------------------------------------------


def test_cam_layer_is_last_conv_relu(conv_net):
    spec, _ = conv_net
    assert cam_layer(spec) == "conv2.relu"
    fc_only = ModelSpec((1, 1, 4), 2, (flatten(), fc(4), relu(), fc(2)))
    with pytest.raises(ArgumentError):
        cam_layer(fc_only)


def test_averaging_head_weights_channel_by_inverse_area():
    spec, weights = delta_net()
    x = np.random.default_rng(0).random((1, 4, 4), dtype=np.float32)
    trace = forward(weights, spec, x)
    grad = gradient_wrt_layer(weights, spec, trace, "conv1.relu", 0)
    np.testing.assert_allclose(grad, np.full((1, 4, 4), 1.0 / 16), atol=1e-7)
    # alpha = mean(grad) = 1/(H*W); the act-CAM is then the activation itself,
    # rescaled to peak at 1
    cam = saliency_map(weights, spec, trace, 0, "act")
    np.testing.assert_allclose(cam, x[0] / x[0].max(), atol=1e-6)
    assert cam.argmax() == x[0].argmax()


def test_negative_alpha_gives_all_zero_map():
    spec, weights = delta_net()
    x = np.random.default_rng(1).random((1, 4, 4), dtype=np.float32)
    trace = forward(weights, spec, x)
    cam = saliency_map(weights, spec, trace, 1, "act")  # head row 1 is negative
    np.testing.assert_array_equal(cam, np.zeros((4, 4)))


def test_onoff_variant_is_binary_for_single_channel():
    spec, weights = delta_net()
    x = np.random.default_rng(2).normal(size=(1, 4, 4)).astype(np.float32)
    trace = forward(weights, spec, x)
    cam = saliency_map(weights, spec, trace, 0, "onoff")
    assert set(np.unique(cam)) <= {0.0, 1.0}
    np.testing.assert_array_equal(cam, (x[0] > 0).astype(np.float64))


def test_pathcount_variant_on_delta_kernel_is_flat():
    spec, weights = delta_net()
    x = np.random.default_rng(3).random((1, 4, 4), dtype=np.float32) + 0.1
    trace = forward(weights, spec, x)
    # every feature position keeps exactly one active path (its own pixel)
    cam = saliency_map(weights, spec, trace, 0, "pathcount", plan=pathcount_plan(weights, spec))
    np.testing.assert_array_equal(cam, np.ones((4, 4)))


def test_cam_is_normalized_and_input_sized(conv_net):
    spec, weights = conv_net
    x = np.random.default_rng(4).random((1, 8, 8), dtype=np.float32)
    trace = forward(weights, spec, x)
    plan = pathcount_plan(weights, spec)
    for variant in ("act", "onoff", "pathcount"):
        cam = saliency_map(weights, spec, trace, 2, variant, plan=plan)
        assert cam.shape == (8, 8)
        assert cam.min() >= 0.0
        assert cam.max() == pytest.approx(1.0) or cam.max() == 0.0


def test_variant_and_class_validation(conv_net):
    spec, weights = conv_net
    x = np.zeros((1, 8, 8), dtype=np.float32)
    trace = forward(weights, spec, x)
    with pytest.raises(ArgumentError):
        saliency_map(weights, spec, trace, 4, "act")
    with pytest.raises(ArgumentError):
        saliency_map(weights, spec, trace, -1, "act")
    with pytest.raises(ArgumentError):
        saliency_map(weights, spec, trace, 0, "gradient")
    with pytest.raises(ArgumentError):
        saliency_map(weights, spec, trace, 0, "random")  # rng is mandatory
    with pytest.raises(ArgumentError, match="pathcount_plan"):
        saliency_map(weights, spec, trace, 0, "pathcount")  # so is the plan
    with pytest.raises(ArgumentError):
        saliency_map(weights, spec, trace, 0, "blur")


def test_pathcount_cam_is_the_same_under_every_fc_clip():
    # the clip acts on fc weights only, and fc1 follows the CAM layer conv2.relu
    spec = ModelSpec((1, 8, 8), 4, (conv(2), relu(), conv(3), relu(), maxpool(), flatten(),
                                    fc(6), relu(), fc(4)))
    weights = build_model(spec, seed=21)
    absolute = pathcount_plan(weights, spec)
    mean = pathcount_plan(weights, spec, ClipConfig("mean"))
    assert absolute.masks["fc1"] is None and not mean.masks["fc1"].all()
    rng = np.random.default_rng(8)
    fc_counts_differ = False
    for _ in range(4):
        trace = forward(weights, spec, rng.random((1, 8, 8), dtype=np.float32))
        fc_counts_differ |= not np.array_equal(pathcount_forward(absolute, trace).layer("fc1"),
                                               pathcount_forward(mean, trace).layer("fc1"))
        for target in range(4):
            a = saliency_map(weights, spec, trace, target, "pathcount", plan=absolute)
            b = saliency_map(weights, spec, trace, target, "pathcount", plan=mean)
            assert a.tobytes() == b.tobytes()
    assert fc_counts_differ


def test_cam_plan_stops_at_the_cam_layer(conv_net):
    # A CAM reads the counts of its layer only, so its plan counts no further,
    # and the maps equal those of the whole plan byte for byte.
    spec, weights = conv_net
    plan = cam_mod._plan_for(weights, spec, "pathcount")
    assert plan.resolved[-1].name == cam_layer(spec) == "conv2.relu"
    assert cam_mod._plan_for(weights, spec, "act") is None
    whole = pathcount_plan(weights, spec)
    rng = np.random.default_rng(3)
    for _ in range(3):
        trace = forward(weights, spec, rng.random((1, 8, 8), dtype=np.float32))
        assert list(pathcount_forward(plan, trace).layers)[-1] == "conv2.relu"
        for target in range(4):
            assert (saliency_map(weights, spec, trace, target, "pathcount", plan=plan).tobytes()
                    == saliency_map(weights, spec, trace, target, "pathcount",
                                    plan=whole).tobytes())


def test_saliency_stubs(conv_net):
    spec, weights = conv_net
    x = np.zeros((1, 8, 8), dtype=np.float32)
    trace = forward(weights, spec, x)
    np.testing.assert_array_equal(saliency_map(weights, spec, trace, 0, "uniform"),
                                  np.ones((8, 8)))
    rng = np.random.default_rng(5)
    r1 = saliency_map(weights, spec, trace, 0, "random", rng=np.random.default_rng(5))
    r2 = saliency_map(weights, spec, trace, 0, "random", rng=np.random.default_rng(5))
    np.testing.assert_array_equal(r1, r2)
    assert r1.shape == (8, 8)


# ---------------------------------------------------------------------------
# bilinear upsampling
# ---------------------------------------------------------------------------


def test_resize_same_size_is_identity_copy():
    src = np.arange(16, dtype=np.float64).reshape(4, 4)
    out = bilinear_resize(src, 4, 4)
    np.testing.assert_array_equal(out, src)
    out[0, 0] = 99.0
    assert src[0, 0] == 0.0


def test_resize_constant_stays_constant():
    src = np.full((3, 5), 2.5)
    np.testing.assert_allclose(bilinear_resize(src, 9, 11), np.full((9, 11), 2.5))


def test_resize_two_by_two_hand_values():
    src = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = bilinear_resize(src, 4, 4)
    assert out[0, 0] == 0.0 and out[3, 3] == 3.0  # corners clamp to originals
    assert out[0, 3] == 1.0 and out[3, 0] == 2.0
    assert out[1, 1] == pytest.approx(0.75)
    assert out[2, 2] == pytest.approx(2.25)
    assert out.min() >= src.min() and out.max() <= src.max()


def test_resize_preserves_value_bounds():
    rng = np.random.default_rng(6)
    src = rng.random((5, 7))
    out = bilinear_resize(src, 13, 4)
    assert out.min() >= src.min() - 1e-12
    assert out.max() <= src.max() + 1e-12


# ---------------------------------------------------------------------------
# pixel perturbation
# ---------------------------------------------------------------------------


def test_perturb_extreme_fractions():
    x = np.random.default_rng(7).random((2, 3, 3), dtype=np.float32)
    sal = np.random.default_rng(8).random((3, 3))
    same = perturb(x, sal, 0.0, "morf", 0.5)
    np.testing.assert_array_equal(same, x)
    assert same is not x  # a defensive copy, not the caller's array
    gone = perturb(x, sal, 1.0, "lerf", 0.5)
    np.testing.assert_array_equal(gone, np.full_like(x, 0.5))


def test_perturb_rank_order_and_tie_break():
    x = np.zeros((2, 2, 2), dtype=np.float32)
    sal = np.array([[1.0, 1.0], [0.0, 2.0]])
    morf = perturb(x, sal, 0.5, "morf", 9.0)
    # highest first: pixel (1,1); then the tie at value 1 breaks toward (0,0)
    expected = np.zeros((2, 2))
    expected[1, 1] = 9.0
    expected[0, 0] = 9.0
    np.testing.assert_array_equal(morf[0], expected)
    np.testing.assert_array_equal(morf[1], expected)  # all channels together
    lerf = perturb(x, sal, 0.25, "lerf", 9.0)
    only_min = np.zeros((2, 2))
    only_min[1, 0] = 9.0
    np.testing.assert_array_equal(lerf[0], only_min)


def test_perturb_validation():
    x = np.zeros((1, 2, 2), dtype=np.float32)
    sal = np.zeros((2, 2))
    with pytest.raises(ArgumentError):
        perturb(x, sal, 1.5, "morf", 0.0)
    with pytest.raises(ArgumentError):
        perturb(x, sal, 0.5, "best", 0.0)
    with pytest.raises(ArgumentError):
        perturb(x, np.zeros((3, 3)), 0.5, "morf", 0.0)


# ---------------------------------------------------------------------------
# degradation curves
# ---------------------------------------------------------------------------


def small_dataset(spec, n=8, seed=9):
    rng = np.random.default_rng(seed)
    images = rng.random((n, *spec.input_shape), dtype=np.float32)
    labels = rng.integers(0, spec.num_classes, n).astype(np.int64)
    return Dataset(images, labels, spec.num_classes)


def test_uniform_saliency_gives_identical_curves(conv_net):
    spec, weights = conv_net
    ds = small_dataset(spec)
    morf, lerf, area = degradation_score(weights, spec, ds, "uniform", steps=4)
    np.testing.assert_array_equal(morf, lerf)
    assert area == 0.0


def test_curves_coincide_at_zero_and_full_perturbation(conv_net):
    spec, weights = conv_net
    ds = small_dataset(spec)
    morf, lerf, _ = degradation_score(weights, spec, ds, "act", steps=5)
    assert len(morf) == len(lerf) == 6
    assert morf[0] == lerf[0]
    assert morf[-1] == lerf[-1]
    assert np.all((morf >= 0) & (morf <= 1)) and np.all((lerf >= 0) & (lerf <= 1))


def test_degradation_area_matches_trapezoid_of_curves(conv_net):
    spec, weights = conv_net
    ds = small_dataset(spec)
    morf, lerf, area = degradation_score(weights, spec, ds, "random", steps=4, seed=3)
    fractions = np.linspace(0, 1, 5)
    assert area == pytest.approx(float(np.trapezoid(lerf - morf, fractions)), abs=1e-15)


def test_degradation_is_seeded_and_worker_invariant(conv_net):
    spec, weights = conv_net
    ds = small_dataset(spec)
    a = degradation_score(weights, spec, ds, "random", steps=3, seed=5)
    b = degradation_score(weights, spec, ds, "random", steps=3, seed=5)
    c = degradation_score(weights, spec, ds, "random", steps=3, seed=5, workers=2)
    for i in range(3):
        np.testing.assert_array_equal(a[i] if i < 2 else [a[2]],
                                      b[i] if i < 2 else [b[2]])
        np.testing.assert_array_equal(a[i] if i < 2 else [a[2]],
                                      c[i] if i < 2 else [c[2]])


def test_degradation_validation(conv_net):
    spec, weights = conv_net
    ds = small_dataset(spec)
    with pytest.raises(ArgumentError):
        degradation_score(weights, spec, ds, "act", steps=1)
    empty = Dataset(np.zeros((0, *spec.input_shape), dtype=np.float32),
                    np.zeros(0, dtype=np.int64), spec.num_classes)
    with pytest.raises(ArgumentError):
        degradation_score(weights, spec, empty, "act")


# ---------------------------------------------------------------------------
# tiled composites and target matching
# ---------------------------------------------------------------------------


def class_coded_dataset(n_classes=6, per_class=3, hw=8):
    """Image of class c is constant c/10 — quadrant means reveal the layout."""
    images = np.concatenate([
        np.full((per_class, 1, hw, hw), c / 10, dtype=np.float32)
        for c in range(n_classes)
    ])
    labels = np.repeat(np.arange(n_classes), per_class).astype(np.int64)
    return Dataset(images, labels, n_classes)


def test_downscale_is_block_mean():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    out = cam_mod._downscale2(x)
    np.testing.assert_array_equal(out[0], [[2.5, 4.5], [10.5, 12.5]])


def test_tiled_geometry_and_labels():
    ds = class_coded_dataset()
    tiles = make_tiled(ds, 10, seed=0)
    assert len(tiles) == 10
    for s in tiles:
        assert s.image.shape == (1, 8, 8)
        assert s.tile_hw == (4, 4)
        assert len(set(s.labels)) == 4  # pairwise-distinct classes
        for t in range(4):
            r, c = divmod(t, 2)
            quadrant = s.image[0, r * 4:(r + 1) * 4, c * 4:(c + 1) * 4]
            np.testing.assert_allclose(quadrant, s.labels[t] / 10, atol=1e-7)


def test_tiled_is_deterministic():
    ds = class_coded_dataset()
    a = make_tiled(ds, 5, seed=3)
    b = make_tiled(ds, 5, seed=3)
    for s, t in zip(a, b):
        assert s.labels == t.labels
        np.testing.assert_array_equal(s.image, t.image)
    c = make_tiled(ds, 5, seed=4)
    assert any(s.labels != t.labels for s, t in zip(a, c))


def test_tiled_validation():
    few_classes = class_coded_dataset(n_classes=3)
    with pytest.raises(ArgumentError, match="4 distinct classes"):
        make_tiled(few_classes, 1)
    odd = Dataset(np.zeros((8, 1, 7, 7), dtype=np.float32),
                  np.arange(8, dtype=np.int64) % 5, 5)
    with pytest.raises(ArgumentError, match="even"):
        make_tiled(odd, 1)
    tiny = Dataset(np.zeros((3, 1, 8, 8), dtype=np.float32),
                   np.arange(3, dtype=np.int64), 5)
    with pytest.raises(ArgumentError, match="at least 4"):
        make_tiled(tiny, 1)


def test_uniform_saliency_never_matches(conv_net):
    spec, weights = conv_net
    ds = small_dataset(spec, n=12)
    tiles = make_tiled(ds, 6, seed=1)
    # constant maps tie across tiles, and ties score as incorrect
    assert target_matching_accuracy(weights, spec, tiles, "uniform") == 0.0


def test_perfect_localizer_scores_one(conv_net, monkeypatch):
    spec, weights = conv_net
    ds = small_dataset(spec, n=16)
    tiles = make_tiled(ds, 8, seed=2)
    control_tiles = make_tiled(ds, 120, seed=5)

    def oracle_cam(weights, spec, trace, target_class, variant, rng=None, *, plan=None):
        sample = next(s for s in tiles + control_tiles
                      if np.array_equal(s.image, trace.input))
        t = sample.labels.index(target_class)
        sal = np.zeros(spec.input_shape[1:])
        r, c = divmod(t, 2)
        sal[r * 4:(r + 1) * 4, c * 4:(c + 1) * 4] = 1.0
        return sal

    monkeypatch.setattr(cam_mod, "saliency_map", oracle_cam)
    assert target_matching_accuracy(weights, spec, tiles, "act") == 1.0
    # the shuffled-target control degrades the same oracle to chance level
    control = target_matching_accuracy(weights, spec, control_tiles,
                                       "act", target_shuffle_seed=7)
    assert 0.1 < control < 0.4


def random_stub_choices(weights, spec, tiles):
    return [tuple(cam_mod._tilematch_one((i, s), weights=weights, spec=spec,
                                         variant="random", plan=None))
            for i, s in enumerate(tiles)]


def test_random_stub_varies_across_composites(conv_net):
    spec, weights = conv_net
    tiles = make_tiled(small_dataset(spec, n=16), 30, seed=1)
    choices = random_stub_choices(weights, spec, tiles)
    assert len(set(choices)) > 1
    # every tile position is chosen for some composite and target
    assert set(t for c in choices for t in c) == {0, 1, 2, 3}
    # seeded by composite index: a rerun scores the very same maps
    assert random_stub_choices(weights, spec, tiles) == choices


def test_random_stub_accuracy_is_chance(conv_net):
    spec, weights = conv_net
    tiles = make_tiled(small_dataset(spec, n=16), 100, seed=2)
    n = 4 * len(tiles)
    # each of the n (composite, target) cases picks the right tile with
    # probability 1/4, independently; allow 4 binomial standard deviations
    band = 4 * np.sqrt(0.25 * 0.75 / n)
    acc = target_matching_accuracy(weights, spec, tiles, "random")
    control = target_matching_accuracy(weights, spec, tiles, "random", target_shuffle_seed=3)
    assert abs(acc - 0.25) < band
    assert abs(control - 0.25) < band


def test_tilematch_worker_invariance(conv_net):
    spec, weights = conv_net
    ds = small_dataset(spec, n=12)
    tiles = make_tiled(ds, 6, seed=6)
    solo = target_matching_accuracy(weights, spec, tiles, "act", workers=1)
    duo = target_matching_accuracy(weights, spec, tiles, "act", workers=2)
    assert solo == duo


def test_tilematch_rejects_empty(conv_net):
    spec, weights = conv_net
    with pytest.raises(ArgumentError):
        target_matching_accuracy(weights, spec, [], "act")
