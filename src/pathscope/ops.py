"""Dense layer operations with exact reverse-mode gradients.

Everything here is a pure function on numpy arrays. Weights and activations
are float32 in normal use; matmul-heavy ops accumulate in float64 and cast
the result back to the input dtype, so a float64 input stays float64 end to
end (the finite-difference tests rely on that shadow path).

Every tensor op takes a leading batch axis; a single sample is a batch of
one (`x[None]` in, `[0]` out), so per-sample analyses and training share
the same kernels.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, ShapeError


def conv_output_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    """Spatial output extents of a cross-correlation with zero padding."""
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    return oh, ow


def _im2col(x_padded, kernel, stride):
    # [B,C,Hp,Wp] -> ([B, OH*OW, C*k*k], OH, OW); each row is one receptive field.
    win = sliding_window_view(x_padded, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    b, c, oh, ow = win.shape[:4]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, c * kernel * kernel)
    return cols, oh, ow


def _col2im(cols, padded_shape, kernel, stride):
    # Scatter-add receptive-field columns back onto the padded image grid.
    b, c, hp, wp = padded_shape
    oh = (hp - kernel) // stride + 1
    ow = (wp - kernel) // stride + 1
    img = np.zeros(padded_shape, dtype=np.float64)
    patches = cols.reshape(b, oh, ow, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    for ky in range(kernel):
        for kx in range(kernel):
            img[:, :, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride] += patches[:, :, ky, kx]
    return img


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


def conv2d_forward_batch(x, kernels, stride: int = 1, padding: int = 0):
    """Bias-free cross-correlation of [B,C,H,W] with [C_out,C,k,k] kernels."""
    _check_conv_shapes(x, kernels, stride, padding)
    k = kernels.shape[2]
    c_out = kernels.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    cols, oh, ow = _im2col(xp, k, stride)
    wm = kernels.reshape(c_out, -1).astype(np.float64, copy=False)
    y = cols.astype(np.float64, copy=False) @ wm.T
    y = y.transpose(0, 2, 1).reshape(x.shape[0], c_out, oh, ow)
    return np.ascontiguousarray(y).astype(x.dtype, copy=False)


def conv2d_backward_batch(x, kernels, stride, padding, grad_out):
    """Gradients of conv2d wrt input and kernels for an upstream [B,C_out,OH,OW] grad."""
    _check_conv_shapes(x, kernels, stride, padding)
    k = kernels.shape[2]
    c_out = kernels.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    cols, oh, ow = _im2col(xp, k, stride)
    if grad_out.shape != (x.shape[0], c_out, oh, ow):
        raise ShapeError(f"upstream grad shape {grad_out.shape} != {(x.shape[0], c_out, oh, ow)}")
    g = grad_out.reshape(x.shape[0], c_out, oh * ow).transpose(0, 2, 1).astype(np.float64, copy=False)
    cols64 = cols.astype(np.float64, copy=False)
    grad_w = np.einsum("bnc,bnk->ck", g, cols64).reshape(kernels.shape).astype(kernels.dtype, copy=False)
    wm = kernels.reshape(c_out, -1).astype(np.float64, copy=False)
    grad_cols = g @ wm
    gxp = _col2im(grad_cols, xp.shape, k, stride)
    if padding:
        gxp = gxp[:, :, padding:-padding, padding:-padding]
    return gxp.astype(x.dtype, copy=False), grad_w


def relu_forward(x):
    return np.maximum(x, 0)


def relu_backward(x, grad_out):
    return grad_out * (x > 0)


def maxpool_forward_batch(x, window: int, stride: int):
    """Per-window maxima of [B,C,H,W] plus argmax routing.

    Routing entries are flat indices into each sample's [C,H,W] block; ties
    resolve to the lowest flat index (first occurrence in row-major window
    order), which keeps path routing deterministic.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool expects 4-d input, got {x.shape}")
    if window < 1 or stride < 1:
        raise ArgumentError(f"invalid window={window} / stride={stride}")
    _, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(f"window {window} larger than input {h}x{w}")
    win = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    b, _, oh, ow = win.shape[:4]
    flat = win.reshape(b, c, oh, ow, window * window)
    arg = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    wi, wj = np.divmod(arg, window)
    ii = (np.arange(oh) * stride)[:, None] + wi
    jj = (np.arange(ow) * stride)[None, :] + wj
    routing = (np.arange(c) * (h * w))[None, :, None, None] + ii * w + jj
    return np.ascontiguousarray(y), routing.astype(np.int64)


def maxpool_backward_batch(x_shape, routing, grad_out):
    """Route upstream gradient to each window's argmax position (scatter-add)."""
    b, c, h, w = x_shape
    gx = np.zeros((b, c * h * w), dtype=np.float64)
    np.add.at(
        gx,
        (np.arange(b)[:, None], routing.reshape(b, -1)),
        grad_out.reshape(b, -1).astype(np.float64, copy=False),
    )
    return gx.reshape(x_shape).astype(grad_out.dtype, copy=False)


def fc_forward_batch(x, weights):
    """Bias-free matrix product of [B,N] inputs with [M,N] weights."""
    if x.ndim != 2 or weights.ndim != 2:
        raise ShapeError(f"fc expects 2-d input/weights, got {x.shape} and {weights.shape}")
    if x.shape[1] != weights.shape[1]:
        raise ShapeError(f"fc inner dims disagree: input {x.shape} vs weights {weights.shape}")
    y = x.astype(np.float64, copy=False) @ weights.astype(np.float64, copy=False).T
    return y.astype(x.dtype, copy=False)


def fc_backward_batch(x, weights, grad_out):
    if grad_out.shape != (x.shape[0], weights.shape[0]):
        raise ShapeError(f"upstream grad shape {grad_out.shape} != {(x.shape[0], weights.shape[0])}")
    g = grad_out.astype(np.float64, copy=False)
    grad_x = (g @ weights.astype(np.float64, copy=False)).astype(x.dtype, copy=False)
    grad_w = (g.T @ x.astype(np.float64, copy=False)).astype(weights.dtype, copy=False)
    return grad_x, grad_w


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

