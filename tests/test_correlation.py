"""Tie-corrected Kendall correlation: definitional oracle, hand values,
and the layerwise representation-vs-counts pipeline.

`tau_b_naive` recomputes tau-b straight from its definition — every pair,
O(n^2) — and pins the production implementation to it on tie-heavy vectors;
the discordant-pair count `_inversions` is pinned to an all-pairs count too,
and at layer sizes to a merge-sort count.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathscope import (
    ArgumentError,
    ClipConfig,
    Dataset,
    ModelSpec,
    NumericalError,
    UndefinedCorrelationError,
    aggregate_tau,
    conv,
    fc,
    flatten,
    forward,
    kendall_tau_b,
    layerwise_tau,
    maxpool,
    relu,
)
from pathscope import correlation
from pathscope.correlation import (
    TAU_CSV_HEADER,
    _dense_ranks,
    _inversions,
    correlated_layers,
    tau_csv_rows,
)
from pathscope.model import build_model
from pathscope.pathcount import pathcount_forward, pathcount_plan


def tau_b_naive(x, y):
    """Definitional tau-b: scan all pairs, count concordant/discordant/tied."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    conc = disc = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = np.sign(x[j] - x[i])
            dy = np.sign(y[j] - y[i])
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx != 0 and dy != 0:
                if dx == dy:
                    conc += 1
                else:
                    disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


# ---------------------------------------------------------------------------
# scalar tau-b
# ---------------------------------------------------------------------------


def test_perfect_agreement_is_one():
    assert kendall_tau_b([1, 2, 3], [10, 20, 30]) == 1.0
    assert kendall_tau_b([1, 1, 2, 3], [1, 1, 2, 3]) == 1.0  # ties on both sides


def test_perfect_reversal_is_minus_one():
    assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == -1.0


def test_point_eight_hand_cases_exact():
    # 9 concordant pairs, 1 discordant, no ties: (9 - 1) / 10
    assert kendall_tau_b([1, 2, 3, 4, 5], [1, 2, 3, 5, 4]) == 0.8
    # 6 pairs: C=4, D=0, one tied pair each side: 4 / sqrt(5 * 5)
    assert kendall_tau_b([1, 2, 2, 3], [1, 2, 3, 3]) == 0.8


def test_matches_naive_on_tie_heavy_fixture():
    x = [12, 2, 1, 12, 2]
    y = [1, 4, 7, 1, 0]
    assert kendall_tau_b(x, y) == pytest.approx(tau_b_naive(x, y), abs=1e-12)


def test_all_ties_is_undefined():
    with pytest.raises(UndefinedCorrelationError):
        kendall_tau_b([2, 2, 2], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        kendall_tau_b([1, 2, 3], [0, 0, 0])


def test_argument_validation():
    with pytest.raises(ArgumentError):
        kendall_tau_b([1, 2], [1, 2, 3])
    with pytest.raises(ArgumentError):
        kendall_tau_b([1], [2])
    with pytest.raises(ArgumentError):
        kendall_tau_b([], [])


def test_nan_input_raises_and_infinities_are_ordered():
    with pytest.raises(NumericalError, match="NaN"):
        kendall_tau_b([1, 2, math.nan, 4], [1, 2, 3, 4])
    with pytest.raises(NumericalError, match="NaN"):
        kendall_tau_b([1, 2, 3, 4], [1, math.nan, 3, 4])
    inf = math.inf
    assert kendall_tau_b([-inf, -1e300, 0.0, 1e300, inf], [1, 2, 3, 4, 5]) == 1.0
    assert kendall_tau_b([inf, 1.0, -inf], [1, 2, 3]) == -1.0


# a few values per draw so ties are common; -0.0 and 0.0 are one value
_TIE_PRONE = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 1e300, -1e300,
                              np.nextafter(1e300, 0.0), math.inf, -math.inf])
_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.one_of(_TIE_PRONE, _ANY_FINITE), max_size=300),
       st.sampled_from(["as drawn", "sorted", "reversed", "all equal"]))
@settings(max_examples=200, deadline=None)
def test_inversions_match_pair_count(values, arrangement):
    a = np.array(values, dtype=np.float64)
    if arrangement == "sorted":
        a = np.sort(a)
    elif arrangement == "reversed":
        a = np.sort(a)[::-1]
    elif arrangement == "all equal" and a.size:
        a = np.full(a.size, a[0])
    i, j = np.triu_indices(a.size, 1)
    assert _inversions(a) == int((a[i] > a[j]).sum())


def merge_inversions(a):
    """Pairs i<j with a[i] > a[j], by bottom-up merge sort: each element
    taken from a right run passes every element still waiting in the left
    run, and those are strictly larger. Equal values are taken left first."""
    runs = [[v] for v in np.asarray(a).tolist()]
    inv = 0
    while len(runs) > 1:
        merged = []
        for left, right in zip(runs[::2], runs[1::2]):
            out, i, j = [], 0, 0
            while i < len(left) and j < len(right):
                if right[j] < left[i]:
                    inv += len(left) - i
                    out.append(right[j])
                    j += 1
                else:
                    out.append(left[i])
                    i += 1
            merged.append(out + left[i:] + right[j:])
        runs = merged + runs[len(merged) * 2:]
    return inv


def test_merge_oracle_matches_pair_count():
    a = np.random.default_rng(30).integers(0, 4, 301).astype(np.float64)
    i, j = np.triu_indices(a.size, 1)
    assert merge_inversions(a) == int((a[i] > a[j]).sum())


@pytest.mark.parametrize("k", [2, 200, 6272], ids=["k2", "k200", "k-n"])
def test_inversions_match_merge_count_at_desk_size(k):
    rng = np.random.default_rng(31)
    n = 6272
    a = rng.permutation(n) if k == n else rng.integers(0, k, n)
    a = a.astype(np.float64)
    assert len(np.unique(a)) == k
    assert _dense_ranks(a)[2].dtype == np.uint16
    assert _inversions(a) == merge_inversions(a)


def test_inversions_match_merge_count_with_wide_ranks():
    rng = np.random.default_rng(32)
    a = rng.standard_normal(70_000)
    a[::50] = a[1::50]  # ties, and still over 65,536 distinct values
    assert len(np.unique(a)) > 1 << 16
    assert _dense_ranks(a)[2].dtype != np.uint16
    assert _inversions(a) == merge_inversions(a)


def test_one_bit_digits_count_the_same(monkeypatch):
    # vectors too long for three packed counters take one bit per pass
    a = np.random.default_rng(33).integers(0, 300, 6272).astype(np.float64)
    want = merge_inversions(a)
    assert _inversions(a) == want
    monkeypatch.setattr(correlation, "_PACKED_LIMIT", 0)
    assert _inversions(a) == want


def test_permutation_and_swap_are_exact_at_desk_size():
    # n = 8 channels x 28 x 28; float32 representations with ReLU's zero ties
    rng = np.random.default_rng(34)
    n = 6272
    for _ in range(3):
        rep = rng.standard_normal(n).astype(np.float32).astype(np.float64)
        relu_rep = np.maximum(rep, 0.0)
        counts = np.where(relu_rep > 0, rng.integers(1, 50, n), 0).astype(np.float64)
        for x, y in [(relu_rep, counts), (rep, counts), (np.round(rep, 1), relu_rep)]:
            tau = kendall_tau_b(x, y)
            p = rng.permutation(n)
            assert kendall_tau_b(x[p], y[p]) == tau
            assert kendall_tau_b(y, x) == tau

@given(st.lists(st.integers(0, 4), min_size=2, max_size=25),
       st.data())
@settings(max_examples=150, deadline=None)
def test_matches_naive_on_random_tied_vectors(xs, data):
    ys = data.draw(st.lists(st.integers(0, 4), min_size=len(xs), max_size=len(xs)))
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    assert kendall_tau_b(xs, ys) == pytest.approx(tau_b_naive(xs, ys), abs=1e-12)


def _dense(v):
    """v's dense ranks. Tau-b reads only the order, and the all-pairs oracle
    subtracts, which would turn inf - inf into NaN."""
    return np.unique(v, return_inverse=True)[1]


_NONZERO = st.sampled_from([1.0, -1.0, 2.0, 1e300, -1e300, math.inf, -math.inf])
_Y_VALUES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, math.inf, -math.inf])


@given(st.integers(1, 12), st.integers(0, 12), _Y_VALUES,
       st.sampled_from(["y at its minimum on the block", "any y", "y not constant on the block"]),
       st.data())
@settings(max_examples=300, deadline=None)
def test_zero_block_split_matches_naive(z, m, c, case, data):
    # x's zero block (0.0 beside -0.0) where y is c; a complement of m
    # elements with ties, and with y == c there too
    assume(z + m >= 2)
    xs = data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=z, max_size=z))
    xs += data.draw(st.lists(_NONZERO, min_size=m, max_size=m))
    rest = data.draw(st.lists(st.one_of(st.just(c), _Y_VALUES), min_size=m, max_size=m))
    if case == "y at its minimum on the block":
        rest = [max(v, c) for v in rest]
    ys = [c] * z + rest
    if case == "y not constant on the block":
        assume(z > 1)
        ys[0] = data.draw(_Y_VALUES.filter(lambda v: v != c))
    p = data.draw(st.permutations(range(z + m)))
    x, y = np.array(xs)[p], np.array(ys)[p]
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        with pytest.raises(UndefinedCorrelationError):
            kendall_tau_b(x, y)
    else:
        assert kendall_tau_b(x, y) == tau_b_naive(_dense(x), _dense(y))


@pytest.mark.parametrize("x, y", [
    ([0.0, -0.0, 0.0, 1.0, math.nan], [0.0, 0.0, 0.0, 1.0, 2.0]),
    ([0.0, -0.0, 0.0, 1.0, 2.0], [5.0, 5.0, 5.0, math.nan, 2.0]),
    ([0.0, 0.0, math.nan], [1.0, 1.0, 1.0]),
], ids=["x", "y", "all-ties-and-nan"])
def test_nan_beside_a_zero_block_raises(x, y):
    with pytest.raises(NumericalError, match="NaN"):
        kendall_tau_b(x, y)


def test_zero_block_leaves_only_the_nonzero_complement_to_sort(monkeypatch):
    # a ReLU layer's shape: n = 8 x 28 x 28, most neurons off with count 0
    rng = np.random.default_rng(35)
    n = 6272
    rep = np.maximum(rng.standard_normal(n) - 1.2, 0.0)
    counts = np.where(rep > 0, rng.integers(0, 40, n), 0).astype(np.float64)
    on = rep > 0
    n0 = n * (n - 1) // 2
    n1, n2, conc_minus_disc = correlation._tau_counts(rep, counts)
    whole = conc_minus_disc / math.sqrt((n0 - n1) * (n0 - n2))
    seen = []
    tau_counts = correlation._tau_counts

    def spy(x, y):
        seen.append((x.copy(), y.copy()))
        return tau_counts(x, y)

    monkeypatch.setattr(correlation, "_tau_counts", spy)
    assert kendall_tau_b(rep, counts) == whole
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0][0], rep[on])
    np.testing.assert_array_equal(seen[0][1], counts[on])
    # counts that differ on the zero block (conv1's padded borders): no split
    counts[~on] = rng.integers(0, 3, n - on.sum())
    kendall_tau_b(rep, counts)
    assert seen[1][0].size == n


def test_matches_scipy_on_long_tied_vectors():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 500))
        x = rng.integers(0, 6, n).astype(np.float64)
        y = rng.integers(0, 6, n).astype(np.float64)
        if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
            continue
        ref = float(scipy_stats.kendalltau(x, y, variant="b").statistic)
        assert kendall_tau_b(x, y) == pytest.approx(ref, abs=1e-12)


def test_matches_scipy_at_desk_layer_size():
    # n = 8 channels x 28 x 28, the desk model's conv1 layer
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(21)
    n = 6272
    rep = rng.standard_normal(n)
    untied = rep + rng.standard_normal(n)
    relu_rep = np.maximum(rep, 0.0)  # about half the entries tie at zero
    counts = np.where(relu_rep > 0, rng.integers(1, 6, n), 0).astype(np.float64)
    for x, y in [(rep, untied), (relu_rep, counts)]:
        ref = float(scipy_stats.kendalltau(x, y, variant="b").statistic)
        assert kendall_tau_b(x, y) == pytest.approx(ref, abs=1e-12)


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=15),
       st.data())
@settings(max_examples=60, deadline=None)
def test_symmetry_and_negation(xs, data):
    ys = data.draw(st.lists(st.integers(-5, 5), min_size=len(xs), max_size=len(xs)))
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    t = kendall_tau_b(xs, ys)
    assert kendall_tau_b(ys, xs) == pytest.approx(t, abs=1e-12)
    assert kendall_tau_b(xs, [-y for y in ys]) == pytest.approx(-t, abs=1e-12)


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=15),
       st.data())
@settings(max_examples=60, deadline=None)
def test_monotone_transform_invariance(xs, data):
    ys = data.draw(st.lists(st.integers(-5, 5), min_size=len(xs), max_size=len(xs)))
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    stretched = [2.0 * y + 1.0 for y in ys]  # strictly increasing, tie-preserving
    assert kendall_tau_b(xs, stretched) == pytest.approx(kendall_tau_b(xs, ys), abs=1e-12)


# ---------------------------------------------------------------------------
# layerwise correlation pipeline
# ---------------------------------------------------------------------------


def monotone_fixture():
    """A net whose fc representations equal their own path counts, so every
    reported tau is exactly 1. Row i of fc1 keeps i+1 input edges; with a
    constant-one input the pre-activation of unit i is also i+1."""
    spec = ModelSpec((1, 1, 4), 2, (flatten(), fc(4), relu(), fc(2)))
    fc1 = np.tril(np.ones((4, 4), dtype=np.float32))
    fc2 = np.array([[1, 0, 0, 0], [1, 1, 0, 0]], dtype=np.float32)
    weights = {"fc1": fc1, "fc2": fc2}
    images = np.ones((3, 1, 1, 4), dtype=np.float32)
    labels = np.zeros(3, dtype=np.int64)
    return spec, weights, Dataset(images, labels, 2)


def test_monotone_fixture_gives_tau_one_everywhere():
    spec, weights, ds = monotone_fixture()
    report = layerwise_tau(weights, spec, ds)
    assert [r.layer for r in report.rows] == ["fc1", "fc1.relu", "fc2"]
    for row in report.rows:
        assert row.tau_raw_mean == 1.0
        assert row.tau_raw_std == 0.0
        assert row.tau_abs_mean == 1.0
        assert row.skipped_images == 0


def test_relu_rows_have_equal_raw_and_abs_tau():
    spec = ModelSpec((1, 5, 5), 3, (conv(2), relu(), maxpool(), flatten(), fc(3)))
    weights = build_model(spec, seed=2)
    rng = np.random.default_rng(7)
    ds = Dataset(rng.random((6, 1, 5, 5), dtype=np.float32),
                 rng.integers(0, 3, 6).astype(np.int64), 3)
    report = layerwise_tau(weights, spec, ds)
    row = report.row("conv1.relu")
    assert row.tau_raw_mean == row.tau_abs_mean
    assert row.tau_raw_std == row.tau_abs_std


def test_reduction_matches_per_image_taus():
    spec = ModelSpec((1, 5, 5), 3, (conv(2), relu(), maxpool(), flatten(), fc(3)))
    weights = build_model(spec, seed=4)
    rng = np.random.default_rng(11)
    ds = Dataset(rng.random((5, 1, 5, 5), dtype=np.float32),
                 rng.integers(0, 3, 5).astype(np.int64), 3)
    report = layerwise_tau(weights, spec, ds)
    for layer in correlated_layers(spec):
        per_image = []
        for x in ds.images:
            trace = forward(weights, spec, x)
            counts = pathcount_forward(pathcount_plan(weights, spec), trace)
            rep = trace.output(layer).reshape(-1)
            try:
                per_image.append(kendall_tau_b(rep, counts.layer(layer).reshape(-1)))
            except UndefinedCorrelationError:
                pass
        row = report.row(layer)
        assert row.skipped_images == len(ds) - len(per_image)
        if per_image:
            assert row.tau_raw_mean == pytest.approx(np.mean(per_image), abs=1e-15)
            assert row.tau_raw_std == pytest.approx(np.std(per_image), abs=1e-15)


def test_undefined_images_are_skipped_not_averaged():
    spec, weights, ds = monotone_fixture()
    dead = np.zeros((1, 1, 1, 4), dtype=np.float32)  # all-zero trace: tau undefined
    mixed = Dataset(np.concatenate([ds.images, dead]),
                    np.zeros(4, dtype=np.int64), 2)
    report = layerwise_tau(weights, spec, mixed)
    for row in report.rows:
        assert row.skipped_images == 1
        assert row.tau_raw_mean == 1.0


def test_all_images_undefined_yields_nan_row():
    spec, weights, _ = monotone_fixture()
    dead = Dataset(np.zeros((2, 1, 1, 4), dtype=np.float32),
                   np.zeros(2, dtype=np.int64), 2)
    report = layerwise_tau(weights, spec, dead)
    for row in report.rows:
        assert row.skipped_images == 2
        assert math.isnan(row.tau_raw_mean)
        assert math.isnan(row.tau_abs_std)


def test_layerwise_rejects_empty_sample():
    spec, weights, _ = monotone_fixture()
    empty = Dataset(np.zeros((0, 1, 1, 4), dtype=np.float32),
                    np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ArgumentError):
        layerwise_tau(weights, spec, empty)


def test_layerwise_is_worker_count_invariant():
    spec = ModelSpec((1, 5, 5), 3, (conv(2), relu(), maxpool(), flatten(), fc(3)))
    weights = build_model(spec, seed=5)
    rng = np.random.default_rng(13)
    ds = Dataset(rng.random((6, 1, 5, 5), dtype=np.float32),
                 rng.integers(0, 3, 6).astype(np.int64), 3)
    solo = layerwise_tau(weights, spec, ds, workers=1)
    duo = layerwise_tau(weights, spec, ds, workers=2)
    np.testing.assert_equal(tau_csv_rows(solo), tau_csv_rows(duo))  # NaN-tolerant


def test_clip_feeds_through_to_counts():
    spec, _, ds = monotone_fixture()
    # plain counts [4, 3, 2, 1] track the pre-activations [4, .3, .2, .1]
    # perfectly; the mean clip (tau = 0.2875) prunes every 0.1 edge, collapsing
    # rows 1-3 to tied zero counts while their representations stay distinct
    fc1 = np.array([[1.0, 1.0, 1.0, 1.0],
                    [0.1, 0.1, 0.1, 0.0],
                    [0.1, 0.1, 0.0, 0.0],
                    [0.1, 0.0, 0.0, 0.0]], dtype=np.float32)
    weights = {"fc1": fc1, "fc2": np.array([[1, 0, 0, 0], [1, 1, 0, 0]], dtype=np.float32)}
    plain = layerwise_tau(weights, spec, ds)
    strict = layerwise_tau(weights, spec, ds, clip=ClipConfig("mean"))
    assert strict.metadata["clip_mode"] == "mean"
    assert plain.row("fc1").tau_raw_mean == 1.0
    assert strict.row("fc1").tau_raw_mean == pytest.approx(3 / math.sqrt(18), abs=1e-12)


def test_aggregate_means_of_means():
    spec, weights, ds = monotone_fixture()
    r1 = layerwise_tau(weights, spec, ds)
    r2 = layerwise_tau(weights, spec, ds)
    agg = aggregate_tau([r1, r2])
    for row in agg.rows:
        assert row.tau_raw_mean == 1.0
        assert row.tau_raw_std == 0.0  # identical reports: zero spread
        assert row.skipped_images == 0
    assert agg.metadata["samples"] == 6


def test_aggregate_validates_input():
    spec, weights, ds = monotone_fixture()
    r1 = layerwise_tau(weights, spec, ds)
    conv_spec = ModelSpec((1, 4, 4), 2, (conv(2), relu(), flatten(), fc(2)))
    rng = np.random.default_rng(0)
    conv_ds = Dataset(rng.random((2, 1, 4, 4), dtype=np.float32),
                      np.zeros(2, dtype=np.int64), 2)
    r2 = layerwise_tau(build_model(conv_spec, seed=0), conv_spec, conv_ds)
    with pytest.raises(ArgumentError):
        aggregate_tau([])
    with pytest.raises(ArgumentError):
        aggregate_tau([r1, r2])


def test_csv_rows_align_with_header():
    spec, weights, ds = monotone_fixture()
    rows = tau_csv_rows(layerwise_tau(weights, spec, ds))
    assert TAU_CSV_HEADER == ["layer", "tau_raw_mean", "tau_raw_std",
                              "tau_abs_mean", "tau_abs_std", "skipped_images"]
    assert all(len(r) == len(TAU_CSV_HEADER) for r in rows)
