"""Dense layer operations with exact reverse-mode gradients.

Everything here is a pure function on numpy arrays. Weights and activations
are float32 in normal use; matmul-heavy ops accumulate in float64 and cast
the result back to the input dtype, so a float64 input stays float64 end to
end (the finite-difference tests rely on that shadow path).

Every tensor op takes a leading batch axis; a single sample is a batch of
one (`x[None]` in, `[0]` out), so per-sample analyses and training share
the same kernels.

Convolution is lowered channel-major (im2col in the layout cuDNN uses),
one image at a time, so the columns of a batch-64 8-channel 28x28 layer
(484 KB) stay in cache while their matmul reads them. The lowering's
buffers are kept per geometry (_lowering), not built per call; building
them was most of a batch-1 call's setup. They are per-process scratch: two
live _columns of one geometry would clobber each other, so backward runs
its grad-input lowering to the end before the kernel gradient's starts.
Each image is copied into the geometry's float64 zero buffer, each channel
the zero-padded Hp x Wp image flattened row-major. A strided window view
[C,k,k,OH,OWp] of it gives columns with rows in (c, ky, kx) order, matching
`kernels.reshape(C_out, -1)`. The columns span the whole padded row
(OWp = ceil(Wp / stride)), so at stride 1 each row is one contiguous slice;
the extra OWp - OW output columns are cropped. Forward is `W @ cols` per
image, written cropped into the output. Backward pads the upstream gradient
with zero columns to OWp. The kernel gradient is a GEMM over the same
columns (Chellapilla, Puri and Simard, 2006): `grad @ cols.T` per image,
accumulated in float64 in image order and cast once at the end. Grad-input
is the same lowering run on the upstream gradient at stride 1 and padding
k-1-p, with kernels flipped in both spatial axes and swapped in channels:
the transposed convolution (Dumoulin and Visin, arXiv:1603.07285). At
stride s it first gets s-1 zeros between entries; at p > k-1 it is cropped
instead of padded. Every image is its own matmul, so a row's result does
not depend on the batch it came in.

Max pooling walks the window offsets over strided views. An element takes
its window when it is strictly greater than the running maximum, or is the
window's first NaN (np.argmax's rule), so ties, 0.0 beside -0.0 included,
keep the first element in row-major window order; the values are gathered
through the routing, so the winner's sign survives. The flat index of each
window's first element is cached per geometry. Pool backward is a
scatter-add (np.add.at) of the routed gradients into a zero array of the
gradient's dtype, in routing order, so overlapping windows (stride < window)
that route two outputs to one input add both. This gives the bits of a
float64 sum cast back to the dtype wherever an input receives at most two
gradients: one is 0 + g, exact (-0.0 turning +0.0, NaN staying NaN), and two
float32 addends rounded once in float32 match their float64 sum rounded twice,
as 53 >= 2*24 + 2 bits. So any pool with stride >= window is exact. Only
float32 pools with overlapping windows, where an input can receive three or
more gradients, round after each addition.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ArgumentError, ShapeError

def conv_output_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    """Spatial output extents of a cross-correlation with zero padding."""
    return (h + 2 * padding - kernel) // stride + 1, (w + 2 * padding - kernel) // stride + 1


@functools.lru_cache(maxsize=16)
def _lowering(c, h, w, kernel, stride, padding):
    """Float64 scratch of one conv geometry for one image:
    (padded buffer, its interior view, the window view, column buffer).
    Per channel the buffer holds the Hp x Wp image row-major, plus the k-1
    tail that the last window's extra columns read; its border and tail are
    never written, so they stay zero."""
    hp, wp = h + 2 * padding, w + 2 * padding
    pad = np.zeros((c, hp * wp + kernel - 1))
    e = pad.itemsize
    win = as_strided(pad, (c, kernel, kernel, (hp - kernel) // stride + 1, -(-wp // stride)),
                     (pad.strides[0], wp * e, e, stride * wp * e, stride * e))
    interior = pad[:, :hp * wp].reshape(c, hp, wp)[:, padding:padding + h, padding:padding + w]
    return pad, interior, win, np.empty(win.shape)


def _columns(x, kernel, stride, padding):
    """Yield each image's float64 columns [C*k*k, OH*OWp] in turn, through
    the geometry's _lowering buffers."""
    _, interior, win, buf = _lowering(*x.shape[1:], kernel, stride, padding)
    cols = buf.reshape(-1, win.shape[3] * win.shape[4])
    for xi in x:
        interior[...] = xi
        buf[...] = win
        yield cols


def _check_conv_shapes(x, kernels, stride, padding):
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/kernels, got {x.shape} and {kernels.shape}")
    if kernels.shape[2] != kernels.shape[3]:
        raise ShapeError(f"conv2d kernels must be square, got {kernels.shape}")
    if x.shape[1] != kernels.shape[1]:
        raise ShapeError(
            f"input channels {x.shape[1]} do not match kernel channels {kernels.shape[1]}"
        )
    if stride < 1 or padding < 0:
        raise ArgumentError(f"invalid stride={stride} / padding={padding}")
    k = kernels.shape[2]
    if k > x.shape[2] + 2 * padding or k > x.shape[3] + 2 * padding:
        raise ShapeError(
            f"kernel {k} larger than padded input {x.shape[2:]} with padding {padding}"
        )


def _result(out, shape, dtype):
    """`out`, checked to be a [shape] array of `dtype`, or a new one when None."""
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != shape or out.dtype != dtype:
        raise ShapeError(f"out is {out.dtype} {out.shape}, expected {np.dtype(dtype)} {shape}")
    return out


def _conv(x, wm, k, stride, padding, out=None):
    """Cross-correlation of [B,C,H,W] with float64 kernels wm [C_out, C*k*k]
    into `out`, or a new [B,C_out,OH,OW] array of x's dtype."""
    c_out = len(wm)
    oh, ow = conv_output_hw(x.shape[2], x.shape[3], k, stride, padding)
    y = _result(out, (len(x), c_out, oh, ow), x.dtype)
    yi = None  # the first matmul allocates it, the rest write into it
    for i, cols in enumerate(_columns(x, k, stride, padding)):
        yi = np.matmul(wm, cols, out=yi)
        y[i] = yi.reshape(c_out, oh, -1)[..., :ow]
    return y


def conv2d_forward_batch(x, kernels, stride: int = 1, padding: int = 0, out=None):
    """Bias-free cross-correlation of [B,C,H,W] with [C_out,C,k,k] kernels,
    into `out` when given."""
    _check_conv_shapes(x, kernels, stride, padding)
    wm = kernels.reshape(len(kernels), -1).astype(np.float64, copy=False)
    return _conv(x, wm, kernels.shape[2], stride, padding, out)


def _dilated(g, h, w, k, stride, padding):
    """g with s-1 zeros between entries, extended to H+2p-k+1 rows and columns,
    less p-(k-1) on each side when p > k-1; g itself at stride 1, p <= k-1."""
    if stride == 1 and padding <= k - 1:
        return g
    full = np.zeros((*g.shape[:2], h + 2 * padding - k + 1, w + 2 * padding - k + 1), dtype=g.dtype)
    full[:, :, ::stride, ::stride] = g
    crop = max(padding - (k - 1), 0)
    return full[:, :, crop:full.shape[2] - crop, crop:full.shape[3] - crop]


def conv2d_backward_batch(x, kernels, stride, padding, grad_out, input_grad=True, out=None):
    """Gradients of conv2d wrt input and kernels for an upstream [B,C_out,OH,OW]
    grad, the input gradient into `out` when given; with input_grad=False it
    is skipped and comes back None."""
    _check_conv_shapes(x, kernels, stride, padding)
    c_out, c, k, _ = kernels.shape
    b, _, h, w = x.shape
    oh, ow = conv_output_hw(h, w, k, stride, padding)
    if grad_out.shape != (b, c_out, oh, ow):
        raise ShapeError(f"upstream grad shape {grad_out.shape} != {(b, c_out, oh, ow)}")
    gx = None
    if input_grad:  # to its end first: both lowerings can share one geometry's buffers
        flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        g = _dilated(grad_out, h, w, k, stride, padding)
        gx = _conv(g, flipped.astype(np.float64, copy=False), k, 1, max(k - 1 - padding, 0), out)
        gx = gx.astype(x.dtype, copy=False)
    grad_w = np.zeros((c_out, c * k * k))
    # one image's upstream grad, zero past column OW to the lowering's OWp columns
    g = np.zeros((c_out, oh, -(-(w + 2 * padding) // stride)))
    for gi, cols in zip(grad_out, _columns(x, k, stride, padding)):
        g[..., :ow] = gi
        grad_w += g.reshape(c_out, -1) @ cols.T
    return gx, grad_w.reshape(kernels.shape).astype(kernels.dtype, copy=False)


def relu_forward(x, out=None):
    return np.maximum(x, 0, out=_result(out, x.shape, x.dtype))


def relu_backward(x, grad_out, out=None):
    """grad_out where x > 0, else grad_out * 0, into `out` (which may be x but
    not grad_out) when given; x broadcasts onto grad_out. The mask is written
    as the 1s and 0s numpy casts a bool to: the bits of grad_out * (x > 0)."""
    out = _result(out, grad_out.shape, grad_out.dtype)
    np.greater(x, 0, out=out)
    return np.multiply(grad_out, out, out=out)


@functools.lru_cache(maxsize=32)
def _window_starts(c, h, w, oh, ow, stride):
    """Read-only flat [C, OH, OW] index of each pooling window's first element."""
    starts = ((np.arange(c) * (h * w))[:, None, None]
              + (np.arange(oh) * (stride * w))[:, None] + np.arange(ow) * stride)
    starts.flags.writeable = False
    return starts


def maxpool_forward_batch(x, window: int, stride: int, out=None):
    """Per-window maxima of [B,C,H,W] plus argmax routing, into the pair
    `out` = (maxima, int64 routing) when given.

    Routing entries are flat indices into each sample's [C,H,W] block; ties
    resolve to the lowest flat index (first occurrence in row-major window
    order), which keeps path routing deterministic. As with np.argmax, the
    first NaN in a window wins it.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool expects 4-d input, got {x.shape}")
    if window < 1 or stride < 1:
        raise ArgumentError(f"invalid window={window} / stride={stride}")
    b, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(f"window {window} larger than input {h}x{w}")
    oh, ow = (h - window) // stride + 1, (w - window) // stride + 1

    def at(ky, kx):  # [B,C,OH,OW] view of each window's (ky, kx) element
        return x[:, :, ky:ky + stride * (oh - 1) + 1:stride, kx:kx + stride * (ow - 1) + 1:stride]

    y, routing = out or (None, None)
    y = _result(y, (b, c, oh, ow), x.dtype)
    routing = _result(routing, y.shape, np.int64)
    # y holds the running maximum, which compares like the maximum but may
    # differ from it in the sign of a zero; routing holds each window's offset
    y[...] = at(0, 0)
    routing.fill(0)
    for ky in range(window):
        for kx in range(window):
            if ky or kx:
                v = at(ky, kx)
                # strictly greater, or the first NaN: np.argmax's rule; offsets
                # only grow in window order, so a win sets the offset outright
                wins = ~(v <= y) & (y == y)
                np.maximum(y, v, out=y)
                np.putmask(routing, wins, ky * w + kx)
    routing += _window_starts(c, h, w, oh, ow, stride)
    # the maxima themselves, gathered through routing offset to each sample
    batch = (np.arange(b) * (c * h * w)).reshape(b, 1, 1, 1)
    routing += batch
    np.take(x, routing, out=y, mode="clip")  # in range; "raise" would buffer out
    routing -= batch
    return y, routing


def maxpool_backward_batch(x_shape, routing, grad_out, out=None):
    """Route upstream gradient to each window's argmax position, into `out`
    when given.

    Overlapping windows can route several outputs to one input; those
    gradients are added in routing order, in the gradient's dtype.
    """
    b, c, h, w = x_shape
    size = c * h * w
    if grad_out.shape != routing.shape or routing.shape[0] != b:
        raise ShapeError(f"upstream grad shape {grad_out.shape} != routing {routing.shape} "
                         f"of a batch of {b}")
    if routing.size and (routing.min() < 0 or routing.max() >= size):
        raise ShapeError(f"routing indexes outside a [{c},{h},{w}] sample")
    flat = (routing + (np.arange(b) * size).reshape(b, 1, 1, 1)).reshape(-1)
    gx = _result(out, tuple(x_shape), grad_out.dtype)
    gx.fill(0)
    np.add.at(gx.reshape(-1), flat, grad_out.reshape(-1))
    return gx


def fc_forward_batch(x, weights, out=None):
    """Bias-free matrix product of [B,N] inputs with [M,N] weights, into `out`
    when given."""
    if x.ndim != 2 or weights.ndim != 2:
        raise ShapeError(f"fc expects 2-d input/weights, got {x.shape} and {weights.shape}")
    if x.shape[1] != weights.shape[1]:
        raise ShapeError(f"fc inner dims disagree: input {x.shape} vs weights {weights.shape}")
    y = x.astype(np.float64, copy=False) @ weights.astype(np.float64, copy=False).T
    return _cast(y, x.dtype, out)


def _cast(a, dtype, out):
    """a as `dtype`, copied into `out` when given, else into a new array."""
    out = _result(out, a.shape, dtype)
    out[...] = a
    return out


def fc_backward_batch(x, weights, grad_out, weight_grad=True, out=None):
    """Gradients wrt input, into `out` when given, and weights; the latter is
    None with weight_grad=False."""
    if grad_out.shape != (x.shape[0], weights.shape[0]):
        raise ShapeError(f"upstream grad shape {grad_out.shape} != {(x.shape[0], weights.shape[0])}")
    g = grad_out.astype(np.float64, copy=False)
    grad_x = _cast(g @ weights.astype(np.float64, copy=False), x.dtype, out)
    if not weight_grad:
        return grad_x, None
    return grad_x, (g.T @ x.astype(np.float64, copy=False)).astype(weights.dtype, copy=False)


def softmax_cross_entropy_batch(logits, labels):
    """Stabilized softmax cross-entropy over [B,K] logits.

    Returns per-sample float64 losses and per-sample gradients
    (softmax probabilities minus the one-hot labels) in the logits dtype.
    """
    if logits.ndim != 2:
        raise ShapeError(f"expected [B,K] logits, got {logits.shape}")
    labels = np.asarray(labels)
    k = logits.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ArgumentError(f"labels out of range for {k} classes")
    z = logits.astype(np.float64, copy=False)
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    losses = lse - z[np.arange(z.shape[0]), labels]
    grads = np.exp(z - lse[:, None])
    grads[np.arange(z.shape[0]), labels] -= 1.0
    return losses, grads.astype(logits.dtype, copy=False)

