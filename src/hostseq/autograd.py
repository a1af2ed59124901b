"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just enough machinery to express dense, convolutional and attention
classifiers in float64 with deterministic, schedule-independent results.
Each operation builds one graph node holding a closure that routes the
output gradient to its parents.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def backward(self, grad=None) -> None:
        """Accumulate gradients of this node into every reachable parent."""
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = (np.ones_like(self.data) if grad is None
                     else np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = grad if t.grad is None else t.grad + grad


def _needs(*tensors) -> bool:
    return any(t.requires_grad for t in tensors)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, _needs(a, b), (a, b))

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))
    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, _needs(a, b), (a, b))

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
    out._backward = backward
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, a.requires_grad, (a,))

    def backward(g):
        _accumulate(a, g * s)
    out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting over leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, _needs(a, b), (a, b))

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))
    out._backward = backward
    return out


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map y = x @ w + b."""
    return add(matmul(x, w), b)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0), x.requires_grad, (x,))

    def backward(g):
        _accumulate(x, g * mask)
    out._backward = backward
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape), x.requires_grad, (x,))

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))
    out._backward = backward
    return out


def transpose(x: Tensor, axes) -> Tensor:
    out = Tensor(x.data.transpose(axes), x.requires_grad, (x,))
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(x, g.transpose(inverse))
    out._backward = backward
    return out


def mean(x: Tensor, axis: int) -> Tensor:
    out = Tensor(x.data.mean(axis=axis), x.requires_grad, (x,))
    n = x.data.shape[axis]

    def backward(g):
        _accumulate(x, np.expand_dims(g, axis).repeat(n, axis=axis) / n)
    out._backward = backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(p, x.requires_grad, (x,))

    def backward(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(x, p * (g - inner))
    out._backward = backward
    return out


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class.

    labels: int array of shape (batch,) with values in [0, n_classes).
    """
    labels = np.asarray(labels)
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()
    out = Tensor(loss, logits.requires_grad, (logits,))

    def backward(g):
        p = np.exp(log_probs)
        p[np.arange(n), labels] -= 1.0
        _accumulate(logits, g * p / n)
    out._backward = backward
    return out


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: ids (batch, length) -> (batch, length, dim).

    The gradient accumulates only into looked-up rows. Padding rows take
    part like any other row; whether to mask them is the model's call.
    """
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise ValueError(f"token id out of range [0, {table.data.shape[0]})")
    out = Tensor(table.data[ids], table.requires_grad, (table,))

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, gt)
    out._backward = backward
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid (no padding) convolution along the sequence axis.

    x: (batch, length, in_ch); w: (kernel, in_ch, out_ch); b: (out_ch,).
    Output length is length - kernel + 1.

    Forward and input gradient add one batched product per kernel tap.
    Tap i's weight gradient is one (in_ch, l_out) @ (l_out, out_ch)
    product per sample, summed over the batch. It is deliberately not one
    GEMM over batch * l_out rows: OpenBLAS runs a product that large on
    all its threads, which spin against the other nested-CV worker on a
    2-core machine and left whole fits no faster, while the per-sample
    products stay single-threaded.
    """
    k = w.data.shape[0]
    length = x.data.shape[1]
    if length < k:
        raise ValueError(f"sequence length {length} shorter than kernel {k}")
    l_out = length - k + 1
    y = np.tile(b.data, (x.data.shape[0], l_out, 1))
    for i in range(k):
        y += x.data[:, i:i + l_out, :] @ w.data[i]
    out = Tensor(y, _needs(x, w, b), (x, w, b))

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for i in range(k):
                gx[:, i:i + l_out, :] += g @ w.data[i].T
            _accumulate(x, gx)
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for i in range(k):
                gw[i] = (np.swapaxes(x.data[:, i:i + l_out, :], 1, 2)
                         @ g).sum(axis=0)
            _accumulate(w, gw)
        _accumulate(b, g.sum(axis=(0, 1)))
    out._backward = backward
    return out


def maxpool1d(x: Tensor, width: int = 2) -> Tensor:
    """Per-window maxima along the sequence axis, stride = width.

    A trailing remainder window narrower than `width` is dropped.
    """
    batch, length, ch = x.data.shape
    l_out = length // width
    if l_out < 1:
        raise ValueError(f"sequence length {length} shorter than pool width {width}")
    windows = x.data[:, :l_out * width, :].reshape(batch, l_out, width, ch)
    amax = windows.argmax(axis=2)
    out = Tensor(windows.max(axis=2), x.requires_grad, (x,))

    def backward(g):
        gw = np.zeros((batch, l_out, width, ch))
        np.put_along_axis(gw, amax[:, :, None, :], g[:, :, None, :], axis=2)
        gx = np.zeros_like(x.data)
        gx[:, :l_out * width, :] = gw.reshape(batch, l_out * width, ch)
        _accumulate(x, gx)
    out._backward = backward
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then apply
    a learned affine rescale."""
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(gamma.data * xhat + beta.data, _needs(x, gamma, beta),
                 (x, gamma, beta))

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accumulate(beta, g.sum(axis=reduce_axes))
        _accumulate(gamma, (g * xhat).sum(axis=reduce_axes))
        if x.requires_grad:
            gh = g * gamma.data
            gx = inv / d * (d * gh
                            - gh.sum(axis=-1, keepdims=True)
                            - xhat * (gh * xhat).sum(axis=-1, keepdims=True))
            _accumulate(x, gx)
    out._backward = backward
    return out


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor):
    """softmax(q k^T / sqrt(d_k)) v over the last two axes.

    Returns (output, weights); weight rows sum to 1.
    """
    d_k = q.data.shape[-1]
    if k.data.shape[-1] != d_k:
        raise ValueError("query and key dimensions disagree")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ValueError("key and value sequence lengths disagree")
    scores = scale(matmul(q, transpose(k, _swap_last(k.data.ndim))),
                   1.0 / np.sqrt(d_k))
    weights = softmax(scores, axis=-1)
    return matmul(weights, v), weights


def _swap_last(ndim: int):
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)
