"""Layer op correctness against naive loop oracles and finite differences.

The oracles here are deliberately dumb: six-loop convolution, window-scan
pooling, double-loop matmul. Gradients are checked with central differences
on float64 inputs (the ops preserve dtype, so float64 in means float64
through the whole chain).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pathscope as ps
from pathscope import model, ops
from pathscope.errors import ArgumentError, ShapeError

from conftest import traced_peak as _traced_peak


def conv2d_naive(x, kernels, stride, padding):
    c_in, h, w = x.shape
    c_out, _, k, _ = kernels.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    y = np.zeros((c_out, oh, ow), dtype=np.float64)
    for co in range(c_out):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            acc += float(xp[ci, oy * stride + ky, ox * stride + kx]) \
                                * float(kernels[co, ci, ky, kx])
                y[co, oy, ox] = acc
    return y


def maxpool_naive(x, window, stride):
    c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    y = np.zeros((c, oh, ow), dtype=x.dtype)
    routing = np.zeros((c, oh, ow), dtype=np.int64)
    for ci in range(c):
        for oy in range(oh):
            for ox in range(ow):
                best = -np.inf
                best_idx = -1
                for ky in range(window):
                    for kx in range(window):
                        iy, ix = oy * stride + ky, ox * stride + kx
                        v = x[ci, iy, ix]
                        if v > best:  # strict: first occurrence wins ties
                            best = v
                            best_idx = ci * h * w + iy * w + ix
                y[ci, oy, ox] = best
                routing[ci, oy, ox] = best_idx
    return y, routing


def conv2d_grad_w_naive(x, kernels, stride, padding, g_out):
    """Kernel gradient by definition: one sum over batch and output grid per weight."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    c_out, c_in, k, _ = kernels.shape
    oh, ow = g_out.shape[2:]
    gw = np.zeros(kernels.shape, dtype=np.float64)
    for co in range(c_out):
        for ci in range(c_in):
            for ky in range(k):
                for kx in range(k):
                    win = xp[:, ci, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride]
                    gw[co, ci, ky, kx] = float((win * g_out[:, co]).sum())
    return gw


def maxpool_backward_naive(x_shape, routing, g_out):
    """Loop scatter-add: every output adds its gradient at its routed input."""
    b = x_shape[0]
    gx = np.zeros((b, int(np.prod(x_shape[1:]))), dtype=np.float64)
    r = routing.reshape(b, -1)
    g = g_out.reshape(b, -1)
    for i in range(b):
        for j in range(r.shape[1]):
            gx[i, r[i, j]] += float(g[i, j])
    return gx.reshape(x_shape)


def fc_naive(x, weights):
    m, n = weights.shape
    y = np.zeros(m, dtype=np.float64)
    for i in range(m):
        for j in range(n):
            y[i] += float(weights[i, j]) * float(x[j])
    return y


def central_diff(f, x, h=1e-5):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


@pytest.mark.parametrize("seed", range(6))
def test_conv_forward_matches_naive(seed):
    rng = np.random.default_rng(seed)
    c_in, c_out = rng.integers(1, 4), rng.integers(1, 4)
    k = int(rng.choice([1, 2, 3]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.choice([0, 1]))
    h = int(rng.integers(k, 8))
    w = int(rng.integers(k, 8))
    x = rng.standard_normal((c_in, h, w))
    kernels = rng.standard_normal((c_out, c_in, k, k))
    got = ops.conv2d_forward_batch(x[None], kernels, stride, padding)[0]
    want = conv2d_naive(x, kernels, stride, padding)
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_maxpool_matches_naive(seed):
    rng = np.random.default_rng(100 + seed)
    c = int(rng.integers(1, 4))
    h = int(rng.integers(2, 9))
    w = int(rng.integers(2, 9))
    window = int(rng.integers(1, min(h, w) + 1))
    stride = int(rng.choice([1, 2]))
    x = rng.standard_normal((c, h, w))
    y, routing = ops.maxpool_forward_batch(x[None], window, stride)
    y, routing = y[0], routing[0]
    y_want, routing_want = maxpool_naive(x, window, stride)
    np.testing.assert_array_equal(y, y_want)
    np.testing.assert_array_equal(routing, routing_want)


def test_maxpool_tie_takes_lowest_flat_index():
    x = np.zeros((1, 1, 2, 2))
    _, routing = ops.maxpool_forward_batch(x, 2, 2)
    assert routing[0, 0, 0, 0] == 0
    x = np.array([[[[0.0, 1.0], [1.0, 0.0]]]])
    _, routing = ops.maxpool_forward_batch(x, 2, 2)
    assert routing[0, 0, 0, 0] == 1  # first 1.0 in row-major order


def test_maxpool_first_element_value_on_ties():
    # Equal maxima and signed zeros compare equal, so the window's first one
    # wins: its value (sign bit included) and its flat index.
    x = np.array([[[[-0.0, 0.0, 0.0, -0.0],
                    [0.0, 0.0, -0.0, -0.0]],
                   [[5.0, 5.0, -1.0, -0.0],
                    [5.0, 5.0, 0.0, -0.0]]]])
    y, routing = ops.maxpool_forward_batch(x, 2, 2)
    np.testing.assert_array_equal(routing[0], [[[0, 2]], [[8, 11]]])
    np.testing.assert_array_equal(np.signbit(y[0]), [[[True, False]], [[False, True]]])
    np.testing.assert_array_equal(y[0], [[[0.0, 0.0]], [[5.0, 0.0]]])


def test_maxpool_first_nan_wins_window():
    x = np.array([[[[1.0, np.nan, 3.0, 2.0],
                    [np.nan, 4.0, 1.0, 0.5]]]])
    y, routing = ops.maxpool_forward_batch(x, 2, 2)
    np.testing.assert_array_equal(routing[0, 0, 0], [1, 2])
    assert np.isnan(y[0, 0, 0, 0]) and y[0, 0, 0, 1] == 3.0


@pytest.mark.parametrize("window", [2, 3])
def test_maxpool_backward_overlapping_windows_matches_naive(window):
    # Stride 1 < window: one input can win several windows, and each of them
    # must add its gradient there.
    rng = np.random.default_rng(300 + window)
    x = rng.standard_normal((3, 2, 7, 6))
    y, routing = ops.maxpool_forward_batch(x, window, 1)
    assert max(np.bincount(r).max() for r in routing.reshape(3, -1)) > 1
    g_out = rng.standard_normal(y.shape)
    got = ops.maxpool_backward_batch(x.shape, routing, g_out)
    np.testing.assert_array_equal(got, maxpool_backward_naive(x.shape, routing, g_out))


def test_maxpool_backward_rejects_routing_outside_sample():
    # An index past one sample's [C,H,W] block would land in the next sample.
    g_out = np.ones((2, 1, 1, 1))
    for bad in (4, -1):
        routing = np.array([0, bad]).reshape(2, 1, 1, 1)
        with pytest.raises(ShapeError):
            ops.maxpool_backward_batch((2, 1, 2, 2), routing, g_out)


def test_maxpool_backward_rejects_grad_of_another_shape():
    # A scatter-add broadcasts: a (1,1,1,1) grad would land on every route.
    routing = np.array([0, 3, 1, 2]).reshape(1, 1, 2, 2)
    for g_out in (np.ones((1, 1, 1, 1)), np.ones((1, 1, 2, 1)), np.ones((1, 4))):
        with pytest.raises(ShapeError, match="upstream grad shape"):
            ops.maxpool_backward_batch((1, 1, 4, 4), routing, g_out)
    # routing and grad agree, but not with the input's batch
    with pytest.raises(ShapeError, match="upstream grad shape"):
        ops.maxpool_backward_batch((2, 1, 4, 4), routing, np.ones((1, 1, 2, 2)))


@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 3), c=st.integers(1, 3),
       oh=st.integers(1, 4), ow=st.integers(2, 4), window=st.integers(1, 3),
       extra_stride=st.integers(0, 2), data=st.data())
@settings(max_examples=60, deadline=None)
def test_maxpool_backward_float32_disjoint_windows_equals_float64(
        seed, b, c, oh, ow, window, extra_stride, data):
    # Stride >= window routes at most one gradient to each input, so the
    # float32 scatter-add is 0 + g rounded once: the bits of the float64
    # loop cast back, -0.0 -> +0.0, infinities and NaN included.
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
    assume(b * c * oh * ow >= len(specials))
    stride = window + extra_stride
    rng = np.random.default_rng(seed)
    # any height and width with oh x ow windows, the trailing rows and columns
    # that no window covers included
    h = window + (oh - 1) * stride + int(rng.integers(0, stride))
    w = window + (ow - 1) * stride + int(rng.integers(0, stride))
    x = rng.standard_normal((b, c, h, w)).astype(np.float32)
    _, routing = ops.maxpool_forward_batch(x, window, stride)
    floats = st.floats(width=32, allow_nan=True, allow_subnormal=True)
    g_out = data.draw(arrays(np.float32, routing.shape, elements=floats))
    g_out.reshape(-1)[rng.permutation(g_out.size)[:len(specials)]] = specials
    got = ops.maxpool_backward_batch(x.shape, routing, g_out)
    want = maxpool_backward_naive(x.shape, routing, g_out).astype(np.float32)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("window", [2, 3])
def test_maxpool_backward_overlapping_float32_adds_in_routing_order(window):
    # Overlapping windows can route three or more gradients to one input; in
    # float32 each addition is rounded, in routing order.
    rng = np.random.default_rng(310 + window)
    x = rng.standard_normal((3, 2, 7, 6)).astype(np.float32)
    y, routing = ops.maxpool_forward_batch(x, window, 1)
    assert max(np.bincount(r).max() for r in routing.reshape(3, -1)) >= 3
    g_out = rng.standard_normal(y.shape).astype(np.float32)
    want = np.zeros((3, 2 * 7 * 6), dtype=np.float32)
    for i in range(3):
        for j, g in zip(routing[i].reshape(-1), g_out[i].reshape(-1)):
            want[i, j] = want[i, j] + g
    got = ops.maxpool_backward_batch(x.shape, routing, g_out)
    assert got.tobytes() == want.reshape(x.shape).tobytes()


def test_maxpool_backward_peak_is_its_result_and_routes():
    # A batch-64 desk pool backward holds its float32 result and the batch's
    # flat routes, and no float64 copy of either.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 8, 28, 28)).astype(np.float32)
    y, routing = ops.maxpool_forward_batch(x, 2, 2)
    g_out = rng.standard_normal(y.shape).astype(np.float32)
    gx, peak = _traced_peak(lambda: ops.maxpool_backward_batch(x.shape, routing, g_out))
    assert peak < gx.nbytes + routing.nbytes + 64 * 2**10


@pytest.mark.parametrize("seed", range(4))
def test_fc_matches_naive(seed):
    rng = np.random.default_rng(200 + seed)
    n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
    x = rng.standard_normal(n)
    w = rng.standard_normal((m, n))
    assert rel_err(ops.fc_forward_batch(x[None], w)[0], fc_naive(x, w)) < 1e-12


def test_conv_shape_errors():
    x = np.zeros((1, 2, 4, 4))
    with pytest.raises(ShapeError):
        ops.conv2d_forward_batch(x, np.zeros((1, 3, 3, 3)))  # channel mismatch
    with pytest.raises(ShapeError):
        ops.conv2d_forward_batch(x, np.zeros((1, 2, 3, 2)))  # non-square kernel
    with pytest.raises(ShapeError):
        ops.conv2d_forward_batch(x, np.zeros((1, 2, 9, 9)), padding=0)  # kernel too big
    with pytest.raises(ArgumentError):
        ops.conv2d_forward_batch(x, np.zeros((1, 2, 3, 3)), stride=0)


def test_dtype_preserved():
    x32 = np.ones((1, 1, 4, 4), dtype=np.float32)
    k32 = np.ones((2, 1, 3, 3), dtype=np.float32)
    assert ops.conv2d_forward_batch(x32, k32, 1, 1).dtype == np.float32
    x64 = x32.astype(np.float64)
    k64 = k32.astype(np.float64)
    assert ops.conv2d_forward_batch(x64, k64, 1, 1).dtype == np.float64
    assert ops.fc_forward_batch(np.ones((1, 3), np.float32),
                                np.ones((2, 3), np.float32)).dtype == np.float32


# --- gradients ---

def test_conv_gradients_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(8):
        c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        k = int(rng.choice([1, 2, 3]))
        stride = int(rng.choice([1, 2]))
        padding = int(rng.choice([0, 1]))
        h = int(rng.integers(k, 6))
        w = int(rng.integers(k, 6))
        x = rng.standard_normal((c_in, h, w))
        kernels = rng.standard_normal((c_out, c_in, k, k))
        g_out = rng.standard_normal(
            ops.conv2d_forward_batch(x[None], kernels, stride, padding)[0].shape)

        def loss():
            return float((ops.conv2d_forward_batch(x[None], kernels, stride, padding)[0]
                          * g_out).sum())

        gx, gw = ops.conv2d_backward_batch(x[None], kernels, stride, padding, g_out[None])
        gx = gx[0]
        assert rel_err(gx, central_diff(loss, x)) < 1e-6
        assert rel_err(gw, central_diff(loss, kernels)) < 1e-6


def test_fc_gradients_finite_difference():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(7)
    w = rng.standard_normal((4, 7))
    g_out = rng.standard_normal(4)

    def loss():
        return float((ops.fc_forward_batch(x[None], w)[0] * g_out).sum())

    gx, gw = ops.fc_backward_batch(x[None], w, g_out[None])
    gx = gx[0]
    assert rel_err(gx, central_diff(loss, x)) < 1e-8
    assert rel_err(gw, central_diff(loss, w)) < 1e-8


def test_maxpool_gradient_finite_difference():
    rng = np.random.default_rng(9)
    # Distinct values keep the argmax stable under the probe step.
    x = rng.permutation(36).astype(np.float64).reshape(1, 6, 6)
    g_out = rng.standard_normal((1, 3, 3))
    _, routing = ops.maxpool_forward_batch(x[None], 2, 2)

    def loss():
        y, _ = ops.maxpool_forward_batch(x[None], 2, 2)
        return float((y[0] * g_out).sum())

    gx = ops.maxpool_backward_batch((1, *x.shape), routing, g_out[None])[0]
    assert rel_err(gx, central_diff(loss, x, h=1e-3)) < 1e-8


def test_relu_gradient():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    g = np.ones_like(x)
    np.testing.assert_array_equal(ops.relu_backward(x, g), [0, 0, 0, 1, 1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_relu_backward_reads_its_output_as_its_input(dtype, data):
    # A training forward caches each ReLU's output for the reverse step in
    # place of its input, which is exact only if relu(x) > 0 where x > 0.
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny], dtype=dtype)
    floats = st.floats(width=np.finfo(dtype).bits, allow_nan=True, allow_subnormal=True)
    x = np.concatenate([specials, data.draw(arrays(dtype, st.integers(0, 32), elements=floats))])
    g = data.draw(arrays(dtype, x.shape, elements=st.one_of(floats, st.sampled_from(specials))))
    with np.errstate(invalid="ignore"):  # an infinite grad times a closed gate is NaN
        want = ops.relu_backward(x, g).tobytes()
        y = ops.relu_forward(x)
        assert ops.relu_backward(y, g).tobytes() == want
        # written over the cached output, as a workspace's reverse sweep does
        assert ops.relu_backward(y, g, out=y) is y and y.tobytes() == want


@pytest.mark.parametrize("xtype", [np.float32, np.float64])
@pytest.mark.parametrize("gtype", [np.float32, np.float64])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_relu_backward_is_the_bool_gate_bit_for_bit(xtype, gtype, data):
    # The reverse sweep and the path count gate a ReLU through this one op,
    # which must give the bytes of the product with a bool mask however it
    # is called. A float32 trace gating float64 counts is the path count's use.
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0]
    x = np.concatenate([np.array(specials, xtype), data.draw(arrays(
        xtype, st.integers(0, 32), elements=st.floats(width=np.finfo(xtype).bits)))])
    g = data.draw(arrays(gtype, x.shape, elements=st.one_of(
        st.floats(width=np.finfo(gtype).bits), st.sampled_from(specials))))
    with np.errstate(invalid="ignore"):  # an infinite grad times a closed gate is NaN
        want = (g * (x > 0)).tobytes()
        assert ops.relu_backward(x, g).tobytes() == want
        out = np.empty_like(g)
        assert ops.relu_backward(x, g, out=out) is out and out.tobytes() == want
        if xtype is gtype:  # over its own input, as a workspace's reverse sweep does
            xc = x.copy()
            assert ops.relu_backward(xc, g, out=xc) is xc and xc.tobytes() == want
        # a [C,H,W] trace output onto [1,C,H,W] counts
        gated = ops.relu_backward(x.reshape(1, 1, -1), g.reshape(1, 1, 1, -1))
        assert gated.shape == (1, 1, 1, len(x)) and gated.tobytes() == want


@pytest.mark.parametrize("stride, padding, window", [(1, 1, 2), (2, 0, 3), (1, 2, 1)])
def test_ops_write_into_out_what_they_return(stride, padding, window):
    rng = np.random.default_rng(stride * 10 + padding)
    x = rng.standard_normal((3, 2, 7, 6)).astype(np.float32)
    x[0, 0, :2, :2] = 0.0  # ties
    x[1, 1, 3, 3] = -0.0
    kernels = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    g = rng.standard_normal(ops.conv2d_forward_batch(x, kernels, stride, padding).shape)
    g = g.astype(np.float32)
    w = rng.standard_normal((5, x[0].size)).astype(np.float32)
    flat = x.reshape(3, -1)

    def same(fresh, out, written):
        assert written is out and written.tobytes() == fresh.tobytes()

    out = np.full(g.shape, np.nan, np.float32)
    same(ops.conv2d_forward_batch(x, kernels, stride, padding), out,
         ops.conv2d_forward_batch(x, kernels, stride, padding, out=out))
    out = np.full(x.shape, np.nan, np.float32)
    (gx, gw), (gx_out, gw_out) = (ops.conv2d_backward_batch(x, kernels, stride, padding, g),
                                  ops.conv2d_backward_batch(x, kernels, stride, padding, g,
                                                            out=out))
    same(gx, out, gx_out)
    assert gw.tobytes() == gw_out.tobytes()
    y, routing = ops.maxpool_forward_batch(x, window, 2)
    outs = np.full(y.shape, np.nan, np.float32), np.full(y.shape, -1, np.int64)
    y_out, routing_out = ops.maxpool_forward_batch(x, window, 2, out=outs)
    same(y, outs[0], y_out)
    same(routing, outs[1], routing_out)
    out = np.full(x.shape, np.nan, np.float32)
    same(ops.maxpool_backward_batch(x.shape, routing, y), out,
         ops.maxpool_backward_batch(x.shape, routing, y, out=out))
    out = np.full(x.shape, np.nan, np.float32)
    same(ops.relu_forward(x), out, ops.relu_forward(x, out=out))
    out = np.full((3, 5), np.nan, np.float32)
    same(ops.fc_forward_batch(flat, w), out, ops.fc_forward_batch(flat, w, out=out))
    out = np.full(flat.shape, np.nan, np.float32)
    g_fc = rng.standard_normal((3, 5)).astype(np.float32)
    (gx, gw), (gx_out, gw_out) = (ops.fc_backward_batch(flat, w, g_fc),
                                  ops.fc_backward_batch(flat, w, g_fc, out=out))
    same(gx, out, gx_out)
    assert gw.tobytes() == gw_out.tobytes()
    with pytest.raises(ShapeError, match="out is float64"):
        ops.relu_backward(x, x, out=np.empty(x.shape))  # no silent cast
    with pytest.raises(ShapeError, match="out is float32 \\(3, 2, 7, 5\\)"):
        ops.conv2d_forward_batch(x, kernels, 1, 1, out=np.empty((3, 2, 7, 5), np.float32))


def test_softmax_cross_entropy_gradient():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal(5)
    label = 2

    def loss():
        l, _ = ops.softmax_cross_entropy_batch(logits[None], [label])
        return float(l[0])

    _, grad = ops.softmax_cross_entropy_batch(logits[None], [label])
    grad = grad[0]
    assert rel_err(grad, central_diff(loss, logits)) < 1e-8


def test_softmax_cross_entropy_stable_at_large_logits():
    losses, grad = ops.softmax_cross_entropy_batch(np.array([[1000.0, 0.0]]), [0])
    loss = float(losses[0])
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_softmax_label_out_of_range():
    with pytest.raises(ArgumentError):
        ops.softmax_cross_entropy_batch(np.zeros((1, 3)), [3])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_conv_equals_per_sample(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 2, 5, 5))
    kernels = rng.standard_normal((2, 2, 3, 3))
    batched = ops.conv2d_forward_batch(x, kernels, 1, 1)
    for i in range(3):
        single = ops.conv2d_forward_batch(x[i][None], kernels, 1, 1)[0]
        np.testing.assert_array_equal(batched[i], single)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_pool_equals_per_sample(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 2, 6, 6))
    yb, rb = ops.maxpool_forward_batch(x, 2, 2)
    for i in range(3):
        y, r = ops.maxpool_forward_batch(x[i][None], 2, 2)
        y, r = y[0], r[0]
        np.testing.assert_array_equal(yb[i], y)
        np.testing.assert_array_equal(rb[i], r)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3 * 4 + 1))
@settings(max_examples=25, deadline=None)
def test_conv_rows_independent_of_batch(seed, batch):
    # Batches of up to 13 images: every image's output and input gradient
    # must equal its batch-of-one result bit for bit.
    rng = np.random.default_rng(seed)
    c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.choice([1, 2, 3]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.choice([0, 1]))
    h = int(rng.integers(k, 8))
    w = int(rng.integers(k, 8))
    x = rng.standard_normal((batch, c_in, h, w))
    kernels = rng.standard_normal((c_out, c_in, k, k))
    y = ops.conv2d_forward_batch(x, kernels, stride, padding)
    g_out = rng.standard_normal(y.shape)
    gx, gw = ops.conv2d_backward_batch(x, kernels, stride, padding, g_out)
    for i in range(batch):
        np.testing.assert_array_equal(
            y[i], ops.conv2d_forward_batch(x[i:i + 1], kernels, stride, padding)[0])
        gx_one, _ = ops.conv2d_backward_batch(x[i:i + 1], kernels, stride, padding, g_out[i:i + 1])
        np.testing.assert_array_equal(gx[i], gx_one[0])
    assert rel_err(gw, conv2d_grad_w_naive(x, kernels, stride, padding, g_out)) < 1e-12


def conv2d_grad_w_einsum(x, kernels, padding, g_out):
    """The kernel gradient as one einsum over receptive-field rows
    [B, OH*OW, C*k*k], in the summation order its strides give; stride 1."""
    c_out, c_in, k, _ = kernels.shape
    b, _, oh, ow = g_out.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    rows = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, c_in * k * k).astype(np.float64)
    g = g_out.reshape(b, c_out, oh * ow).astype(np.float64)
    gw = np.einsum("bnc,bnk->ck", g.transpose(0, 2, 1), rows)
    return gw.reshape(kernels.shape).astype(kernels.dtype)


@pytest.mark.parametrize("c_in,c_out", [(1, 8), (8, 8), (1, 32), (32, 32)])
@pytest.mark.parametrize("seed", range(3))
def test_conv_grad_w_equals_einsum_at_stock_shapes(c_in, c_out, seed):
    # The stock profiles' conv shapes at the training batch: the per-image
    # GEMM's float32 kernel gradient equals the einsum's bit for bit, which
    # is what keeps retrained models byte-identical.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((64, c_in, 28, 28)).astype(np.float32)
    kernels = (rng.standard_normal((c_out, c_in, 3, 3)) * np.sqrt(2 / (9 * c_in))).astype(np.float32)
    g_out = (rng.standard_normal((64, c_out, 28, 28)) * 1e-3).astype(np.float32)
    gx, gw = ops.conv2d_backward_batch(x, kernels, 1, 1, g_out)
    assert gw.dtype == np.float32 and gx.shape == x.shape
    np.testing.assert_array_equal(gw, conv2d_grad_w_einsum(x, kernels, 1, g_out))
    none, gw_only = ops.conv2d_backward_batch(x, kernels, 1, 1, g_out, input_grad=False)
    assert none is None
    np.testing.assert_array_equal(gw_only, gw)


def _im2col_windows(x, k, stride, padding):
    """[B,C,k,k,OH,OW] sliding_window_view of the zero-padded input."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.transpose(0, 1, 4, 5, 2, 3)


def conv2d_im2col_forward(x, kernels, stride, padding):
    """The cropped-width lowering: float64 columns [C*k*k, OH*OW] per image
    from a sliding_window_view of the padded input, then `W @ cols`."""
    c_out = kernels.shape[0]
    win = _im2col_windows(x, kernels.shape[2], stride, padding)
    b, oh, ow = x.shape[0], win.shape[4], win.shape[5]
    wm = kernels.reshape(c_out, -1).astype(np.float64)
    y = np.stack([wm @ np.ascontiguousarray(wi, dtype=np.float64).reshape(-1, oh * ow) for wi in win])
    return y.reshape(b, c_out, oh, ow).astype(x.dtype)


def conv2d_im2col_grad_input(x, kernels, stride, padding, g_out):
    """The cropped-width grad-input: `W.T @ grad` per image, added back one
    (ky, kx) slice at a time into a float64 padded image, then cropped."""
    c_out, c_in, k, _ = kernels.shape
    b, _, oh, ow = g_out.shape
    h, w = x.shape[2:]
    wm_t = kernels.reshape(c_out, -1).astype(np.float64).T
    gxp = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding))
    for img, gi in zip(gxp, g_out.reshape(b, c_out, oh * ow).astype(np.float64)):
        grad_cols = (wm_t @ gi).reshape(c_in, k, k, oh, ow)
        for ky in range(k):
            for kx in range(k):
                img[:, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride] += grad_cols[:, ky, kx]
    return gxp[:, :, padding:padding + h, padding:padding + w].astype(x.dtype)


def conv2d_grad_input_naive(x_shape, kernels, stride, padding, g_out):
    """Loop scatter-add: every output adds kernel times its gradient over the
    padded inputs its window read."""
    b, c_in, h, w = x_shape
    c_out, _, k, _ = kernels.shape
    gxp = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding))
    for i in range(b):
        for co in range(c_out):
            for oy in range(g_out.shape[2]):
                for ox in range(g_out.shape[3]):
                    ys, xs = oy * stride, ox * stride
                    gxp[i, :, ys:ys + k, xs:xs + k] += kernels[co] * g_out[i, co, oy, ox]
    return gxp[:, :, padding:padding + h, padding:padding + w]


@pytest.mark.parametrize("c_in,c_out", [(1, 8), (8, 8), (1, 32), (32, 32)])
@pytest.mark.parametrize("seed", range(3))
def test_conv_equals_im2col_at_stock_shapes(c_in, c_out, seed):
    # The stock profiles' conv geometry: the padded-width lowering's forward
    # and grad-input equal the cropped-width lowering's bit for bit, which is
    # what keeps every report and retrained model byte-identical.
    rng = np.random.default_rng(seed)
    kernels = (rng.standard_normal((c_out, c_in, 3, 3)) * np.sqrt(2 / (9 * c_in))).astype(np.float32)
    for batch in [1, 7, 64] + ([256] if c_in == 8 else []):
        x = rng.standard_normal((batch, c_in, 28, 28)).astype(np.float32)
        for dtype in (np.float32, np.float64):
            xd, kd = x.astype(dtype), kernels.astype(dtype)
            y = ops.conv2d_forward_batch(xd, kd, 1, 1)
            assert y.dtype == dtype
            np.testing.assert_array_equal(y, conv2d_im2col_forward(xd, kd, 1, 1))
        if batch in (1, 64):
            g_out = (rng.standard_normal((batch, c_out, 28, 28)) * 1e-3).astype(np.float32)
            gx, _ = ops.conv2d_backward_batch(x, kernels, 1, 1, g_out)
            assert gx.dtype == np.float32
            np.testing.assert_array_equal(gx, conv2d_im2col_grad_input(x, kernels, 1, 1, g_out))


@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 2 * 4 + 1),
       stride=st.integers(1, 3), padding=st.integers(0, 2), k=st.integers(1, 4),
       h=st.integers(1, 8), w=st.integers(1, 8))
@example(seed=0, batch=4 + 1, stride=3, padding=1, k=2, h=5, w=6)  # Wp % stride == 2
@example(seed=1, batch=4 + 2, stride=2, padding=2, k=4, h=3, w=7)  # Wp % stride == 1
@settings(max_examples=40, deadline=None)
def test_conv_padded_width_geometry_matches_naive(seed, batch, stride, padding, k, h, w):
    # Strides, paddings and kernels past the stock 1/1/3 and non-square
    # inputs: the columns past OW, which wrap into the next padded row or the
    # buffer's tail, must never reach the output or the input gradient.
    assume(h != w and k <= h + 2 * padding and k <= w + 2 * padding)
    rng = np.random.default_rng(seed)
    c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    x = rng.standard_normal((batch, c_in, h, w))
    kernels = rng.standard_normal((c_out, c_in, k, k))
    y = ops.conv2d_forward_batch(x, kernels, stride, padding)
    want = np.stack([conv2d_naive(xi, kernels, stride, padding) for xi in x])
    assert y.shape == want.shape
    assert rel_err(y, want) < 1e-12
    g_out = rng.standard_normal(y.shape)
    gx, _ = ops.conv2d_backward_batch(x, kernels, stride, padding, g_out)
    assert gx.shape == x.shape
    assert rel_err(gx, conv2d_grad_input_naive(x.shape, kernels, stride, padding, g_out)) < 1e-12


@pytest.mark.parametrize("k,stride,padding,h,w", [
    (1, 1, 1, 5, 4),  # p > k-1: the upstream grad is cropped, not padded
    (2, 1, 2, 4, 6),
    (1, 2, 2, 6, 8),  # cropped and dilated
    (3, 2, 1, 6, 8),  # (H+2p-k) mod s == 1 in each axis
    (2, 3, 0, 7, 9),  # mod 3: 2 rows, 1 column
    (4, 3, 1, 9, 7),  # mod 3: 1 row, 2 columns
])
def test_conv_grad_input_geometry_cases(k, stride, padding, h, w):
    # The grad-input correlation's dilation, extension and crop, each in a
    # fixed case on non-square inputs in a batch of five.
    rng = np.random.default_rng(k * 100 + stride * 10 + padding)
    x = rng.standard_normal((4 + 1, 2, h, w))
    kernels = rng.standard_normal((3, 2, k, k))
    oh, ow = ops.conv_output_hw(h, w, k, stride, padding)
    assert stride == 1 or ((h + 2 * padding - k) % stride and (w + 2 * padding - k) % stride)
    g_out = rng.standard_normal((len(x), 3, oh, ow))
    gx, _ = ops.conv2d_backward_batch(x, kernels, stride, padding, g_out)
    want = conv2d_grad_input_naive(x.shape, kernels, stride, padding, g_out)
    assert gx.dtype == np.float64 and gx.shape == x.shape
    assert rel_err(gx, want) < 1e-12
    gx32, _ = ops.conv2d_backward_batch(x.astype(np.float32), kernels.astype(np.float32),
                                        stride, padding, g_out.astype(np.float32))
    assert gx32.dtype == np.float32
    assert rel_err(gx32, want) < 1e-5


@pytest.mark.parametrize("profile,n", [("desk", 200), ("reference", 64)])
def test_training_with_im2col_grad_input_is_byte_identical(monkeypatch, profile, n):
    # One epoch of each stock profile, trained once with the real kernels and
    # once with the cropped-width add-back oracle's input gradient: the saved
    # models are equal byte for byte on whatever BLAS runs the test.
    spec = getattr(model, f"{profile}_spec")()
    config = dataclasses.replace(getattr(model, f"{profile}_train_config")(seed=3), epochs=1)
    data = ps.synthetic_digits(n, seed=5, small_fraction=0.15)

    def train():
        weights, _ = ps.train_sgd(ps.build_model(spec, seed=3), spec, data, config)
        return model.serialize_model(weights, spec)

    real = ops.conv2d_backward_batch
    oracle_calls = []

    def oracle(x, kernels, stride, padding, grad_out, input_grad=True, out=None):
        _, gw = real(x, kernels, stride, padding, grad_out, input_grad=False)
        if not input_grad:
            return None, gw
        oracle_calls.append(len(x))
        return conv2d_im2col_grad_input(x, kernels, stride, padding, grad_out), gw

    want = train()
    monkeypatch.setattr(ops, "conv2d_backward_batch", oracle)
    got = train()
    convs = sum(layer.kind == "conv" for layer in spec.layers)
    batches = -(-n // config.batch_size)
    assert len(oracle_calls) == (convs - 1) * batches  # every conv layer but the first
    assert got == want


def test_conv_working_set_is_per_block():
    # At batch 256 the lowering's buffers are per image: the peak beyond the
    # returned arrays stays under 4 MB, where whole-batch float64 columns,
    # outputs or padded copies take tens of MB.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 8, 28, 28)).astype(np.float32)
    kernels = (rng.standard_normal((8, 8, 3, 3)) * 0.1).astype(np.float32)
    g_out = (rng.standard_normal((256, 8, 28, 28)) * 1e-3).astype(np.float32)
    slack = 4 * 2**20
    y, peak = _traced_peak(lambda: ops.conv2d_forward_batch(x, kernels, 1, 1))
    assert peak < y.nbytes + slack
    (gx, gw), peak = _traced_peak(lambda: ops.conv2d_backward_batch(x, kernels, 1, 1, g_out))
    assert peak < gx.nbytes + gw.nbytes + slack


def test_conv_kept_buffers_hold_one_image():
    # A fresh geometry's kept lowering is one image's padded copy and
    # columns (484 KB of float64 columns for 8 channels at 28x28), plus one
    # image's matmul result per call: under 1 MiB beyond the returned array,
    # where buffers for a block of four images take more than 2 MiB.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 8, 28, 28)).astype(np.float32)
    kernels = (rng.standard_normal((8, 8, 3, 3)) * 0.1).astype(np.float32)
    ops._lowering.cache_clear()
    y, peak = _traced_peak(lambda: ops.conv2d_forward_batch(x, kernels, 1, 1))
    assert peak < y.nbytes + 2**20


def test_pool_window_starts_cache_is_not_shared_with_callers():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 6, 8))
    _, routing = ops.maxpool_forward_batch(x, 2, 2)
    starts = ops._window_starts(3, 6, 8, 3, 4, 2)
    assert starts is ops._window_starts(3, 6, 8, 3, 4, 2)
    assert not starts.flags.writeable
    with pytest.raises(ValueError):
        starts[0, 0, 0] = 1
    assert routing.flags.writeable and not np.shares_memory(routing, starts)
    kept = routing.copy()
    ops.maxpool_forward_batch(rng.standard_normal((1, 2, 5, 7)), 3, 1)  # another geometry
    np.testing.assert_array_equal(routing, kept)
    routing += 1  # a caller's writes stay in its own routing
    np.testing.assert_array_equal(ops.maxpool_forward_batch(x, 2, 2)[1], kept)


def _conv_pass(x, kernels, stride, padding, seed):
    g = np.random.default_rng(seed).standard_normal(
        (len(x), len(kernels), *ops.conv_output_hw(*x.shape[2:], kernels.shape[2], stride, padding)))
    y = ops.conv2d_forward_batch(x, kernels, stride, padding)
    gx, gw = ops.conv2d_backward_batch(x, kernels, stride, padding, g.astype(x.dtype))
    return y, gx, gw


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride, padding", [(1, 1), (2, 0)])
def test_conv_kept_lowering_gives_exact_results(dtype, stride, padding):
    # The per-geometry buffers carry nothing from one call into the next:
    # results are bit-identical before and after calls of other batch sizes
    # and of the same geometry on large-magnitude data.
    rng = np.random.default_rng(13)
    kernels = rng.standard_normal((4, 4, 3, 3)).astype(dtype)
    xs = {b: rng.standard_normal((b, 4, 7, 9)).astype(dtype) for b in (1, 3, 5, 6, 4, 2)}
    ops._lowering.cache_clear()
    first = {b: _conv_pass(xs[b], kernels, stride, padding, b) for b in (3, 1)}
    for b in (5, 6, 1, 4, 2):
        _conv_pass(xs[b], kernels, stride, padding, b)
        _conv_pass(xs[b] * dtype(1e30), kernels, stride, padding, b)
    for b, before in first.items():
        for a, c in zip(before, _conv_pass(xs[b], kernels, stride, padding, b)):
            assert a.dtype == c.dtype and a.tobytes() == c.tobytes()


def test_conv_results_do_not_share_the_kept_lowering():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
    kernels = rng.standard_normal((3, 3, 3, 3)).astype(np.float32)
    y, gx, gw = _conv_pass(x, kernels, 1, 1, 0)
    # one geometry serves the forward, the grad-input and the kernel gradient
    hits = ops._lowering.cache_info().hits
    pad, _, _, cols = ops._lowering(3, 6, 7, 3, 1, 1)
    assert ops._lowering.cache_info().hits == hits + 1  # the buffers those calls used
    for out in (y, gx, gw):
        assert not np.shares_memory(out, pad) and not np.shares_memory(out, cols)
    kept = [a.copy() for a in (y, gx, gw)]
    _conv_pass(rng.standard_normal(x.shape).astype(np.float32) * 1e30, kernels, 1, 1, 1)
    for a, b in zip((y, gx, gw), kept):
        np.testing.assert_array_equal(a, b)
    # the padding border and the tail past the last row are never written
    border = np.ones((6 + 2, 7 + 2), dtype=bool)
    border[1:-1, 1:-1] = False
    assert not pad[:, :8 * 9].reshape(3, 8, 9)[:, border].any()
    assert not pad[:, 8 * 9:].any()
