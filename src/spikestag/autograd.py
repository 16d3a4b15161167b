"""Reverse-mode automatic differentiation over dense numpy tensors.

A `Tensor` wraps a numpy array (float32 by default) and, when any input of an
operation requires gradients, the operation records a node on a tape so that
`backward` can later push gradients to every reachable leaf.  Leaf gradients
(parameters and inputs) accumulate additively across fan-out and across
backward calls, and are cleared only by an explicit `zero_grad`.  Interior
gradients and the buffers a node saved for its backward are released as
backward passes the node, so a tape is single-use: run the forward again
before a second backward.

The op set is deliberately small, one code path per op: `add`, `sub`,
`mul`, `matmul`, `affine`, `sigmoid`, `softmax`, `concat`, `tsum`, the
gathers `take` and `gather_sum`, `reshape`, `transpose` and
`broadcast_to`.  A slice along an axis is a `take` of an index range, and
a mean is `tsum` times one over the count.  `affine` (a @ w with an optional
bias) is the one flattened-GEMM kernel; `matmul` hands it every 2-d right
operand and itself runs only the batched product.  `gather_sum` adds its k
gathered slots into the output one slot at a time, so it never holds the
(..., n, k, ...) array of all of them.  There is no general
broadcasting engine; binary ops allow the usual numpy broadcast and
un-broadcast the gradient by summing over expanded axes, which covers bias
addition and scalar scaling.  A python scalar operand of `add`, `sub` or
`mul`, on either side, is taken in the dtype of the tensor operand (float32
for spikes) and is not a tape parent: the node's parents are the operands
passed in as Tensors.

Spikes are `bool` Tensors, one byte per spike: every LIF layer outputs
them.  A `bool` Tensor's gradient is float32.  `matmul`, `affine` and
`gather_sum` cast a `bool` operand to float32 where they do arithmetic on
it (`as_float`), forward and backward, keeping its memory layout, so their
float operations are those of the same 0/1 values stored as float32;
`take`, `reshape` and `transpose` pass spikes on as `bool`.

Modules with a hand-written multi-step backward (the fused LIF and LSTM
recurrences) build their node with `_result` and test `is_recording` first,
so that without a tape they keep no buffers for the backward.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

# Toggled by no_grad(); ops skip tape recording while this is False.
_GRAD_ENABLED = True

# Optional instrumentation hook, installed by `set_observer` (the energy
# module's op counter, while counting).  It receives only the spikes, from
# the two LIF kernels that make them: `spiking.lif_linear` and
# `spiking.encode_sequence` pass each output to `observe_spikes`, which calls
# `.spikes(layer, tensor)` with the layer name the kernel was given.
_OBSERVER = None


class no_grad:
    """Context manager that disables tape recording (used for evaluation)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """Dense value array with an optional gradient record.

    `data` is a numpy array: float32 or float64, or `bool` for spikes
    (given `dtype=bool`, or made by a LIF layer).  The constructor stores
    it row-major (C-contiguous); an op's result may be a strided view of
    its input instead (`transpose` returns one, and `reshape` may), so code
    that needs a layout makes it.  `grad` is lazily allocated during
    backward and has the shape of `data` and its dtype, float32 for `bool`
    data.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        if arr.dtype not in (np.float32, np.float64, np.bool_):
            arr = arr.astype(DEFAULT_DTYPE)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    # gradient accumulation helpers used by backward closures

    def _accum(self, g) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=float_dtype(self.data), copy=True)
        else:
            self.grad += g

    def _accum_own(self, g) -> None:
        # for freshly allocated gradient arrays only (no aliasing possible)
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def _grad_buffer(self):
        if self.grad is None:
            self.grad = np.zeros(self.data.shape, dtype=float_dtype(self.data))
        return self.grad


def float_dtype(arr: np.ndarray):
    """The float dtype arithmetic on `arr` runs in: float32 for spikes, else its own."""
    return DEFAULT_DTYPE if arr.dtype == np.bool_ else arr.dtype


def as_float(arr: np.ndarray) -> np.ndarray:
    """`arr` itself, or a float32 copy of it in its own memory layout if it
    holds spikes (`bool`), so a transposed view casts to a transposed view
    and a product gets the operand layout it gets from float32 spikes."""
    return arr.astype(DEFAULT_DTYPE, order="K") if arr.dtype == np.bool_ else arr


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = float_dtype(like.data) if like is not None else DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


def is_recording(*parents: Tensor) -> bool:
    """True if an op on `parents` records a tape node (grad on, some parent needs it)."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def observe_spikes(layer: str, tensor: Tensor) -> None:
    """Report the spike output of the named layer to the observer, if one is installed."""
    if _OBSERVER is not None:
        _OBSERVER.spikes(layer, tensor)


def _result(data, parents: tuple, backward_fn, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    if is_recording(*parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g, shape):
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise arithmetic -----------------------------------------------


def _operands(a, b) -> tuple:
    """(a, b, parents) of a binary op.

    A python scalar (or array) operand, on either side, becomes a constant of
    the other operand's float dtype; only operands passed in as Tensors are
    parents.
    """
    parents = tuple(x for x in (a, b) if isinstance(x, Tensor))
    like = parents[0] if parents else None
    return _as_tensor(a, like), _as_tensor(b, like), parents


def add(a, b) -> Tensor:
    a, b, parents = _operands(a, b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _result(data, parents, bw, "add")


def sub(a, b) -> Tensor:
    a, b, parents = _operands(a, b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError("sub", a.shape, b.shape)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum_own(_unbroadcast(-g, b.data.shape))

    return _result(data, parents, bw, "sub")


def mul(a, b) -> Tensor:
    a, b, parents = _operands(a, b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape)
    ad, bd = a.data, b.data

    def bw(g):
        if a.requires_grad:
            a._accum_own(_unbroadcast(g * bd, ad.shape))
        if b.requires_grad:
            b._accum_own(_unbroadcast(g * ad, bd.shape))

    return _result(data, parents, bw, "mul")


# -- matmul ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul semantics: 2-d matrices or stacked matrices on leading axes.

    A 2-d right operand is a weight product, computed by `affine` (no bias)
    as one GEMM over the flattened leading axes of `a`.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 1 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    if bd.ndim == 2:
        return affine(a, b)
    try:
        data = np.matmul(as_float(ad), as_float(bd))
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape)

    def bw(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(as_float(bd), -1, -2))
            a._accum_own(_unbroadcast(ga, ad.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(as_float(ad), -1, -2), g)
            b._accum_own(_unbroadcast(gb, bd.shape))

    return _result(data, (a, b), bw, "matmul")


def affine(a: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """a @ w (+ b) as one node, for a 2-d weight `w` and an optional bias `b`
    of width w.shape[1].

    The leading axes of `a` are flattened into one GEMM, forward and
    backward.  Same float operations and gradients as `add(matmul(a, w), b)`,
    but the bias is added in place, so the bias-free product is never a
    second array.
    """
    ad, wd = a.data, w.data
    if ad.ndim < 1 or wd.ndim != 2 or ad.shape[-1] != wd.shape[0]:
        raise ShapeError("affine", a.shape, w.shape)
    if b is not None and b.data.shape != (wd.shape[1],):
        raise ShapeError("affine", w.shape, b.shape)
    k, n = wd.shape
    data = (as_float(ad).reshape(-1, k) @ as_float(wd)).reshape(ad.shape[:-1] + (n,))
    if b is not None:
        data += b.data

    def bw(g):
        g2 = g.reshape(-1, n)
        if a.requires_grad:
            a._accum_own((g2 @ as_float(wd).T).reshape(ad.shape))
        if w.requires_grad:
            w._accum_own(as_float(ad).reshape(-1, k).T @ g2)
        if b is not None and b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _result(data, (a, w) if b is None else (a, w, b), bw, "affine")


# -- smooth nonlinearities --------------------------------------------------


def sigmoid(a: Tensor) -> Tensor:
    # stable for any magnitude: sigma(x) = (tanh(x/2) + 1) / 2
    half = np.asarray(0.5, dtype=a.data.dtype)
    out = np.tanh(a.data * half) * half + half

    def bw(g):
        a._accum_own(g * (out * (1.0 - out)))

    return _result(out, (a,), bw, "sigmoid")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Row-wise softmax along `axis` (max-shifted for stability)."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        a._accum_own(out * (g - dot))

    return _result(out, (a,), bw, "softmax")


# -- shape plumbing ---------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    src = a.data.shape

    def bw(g):
        a._accum(g.reshape(src))

    return _result(data, (a,), bw, "reshape")


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = np.transpose(a.data, axes)

    def bw(g):
        a._accum(np.transpose(g, inv))

    return _result(data, (a,), bw, "transpose")


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = np.broadcast_to(a.data, shape).copy()
    src = a.data.shape

    def bw(g):
        a._accum(_unbroadcast(g, src))

    return _result(data, (a,), bw, "broadcast_to")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    base = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(base) or any(
            i != (axis % len(base)) and s[i] != base[i] for i in range(len(base))
        ):
            raise ShapeError("concat", base, s)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        start = 0
        for t, n in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + n)
            if t.requires_grad:
                t._accum(g[tuple(idx)])
            start += n

    return _result(data, tuple(tensors), bw, "concat")


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)
    data = np.asarray(data, dtype=a.data.dtype)
    src_shape = a.data.shape

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, src_shape))

    return _result(data, (a,), bw, "sum")


# -- gathers and masking ------------------------------------------------------


def take(a: Tensor, indices, axis: int) -> Tensor:
    """Index-select along `axis` with an integer array (gather rows).

    Output shape is a.shape[:axis] + indices.shape + a.shape[axis+1:].
    """
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size and (indices.min() < -a.data.shape[axis] or indices.max() >= a.data.shape[axis]):
        raise ContractError(
            f"take: index out of range for axis {axis} of extent {a.data.shape[axis]}"
        )
    data = np.take(a.data, indices, axis=axis)
    ax = axis % a.data.ndim

    def bw(g):
        buf = a._grad_buffer()
        buf_m = np.moveaxis(buf, ax, 0)
        # move the index axes of g to the front so fancy add.at lines up
        g_m = np.moveaxis(g, tuple(range(ax, ax + indices.ndim)), tuple(range(indices.ndim)))
        np.add.at(buf_m, indices, g_m)

    return _result(data, (a,), bw, "take")


def gather_sum(a: Tensor, indices, valid, axis: int) -> Tensor:
    """Sum of gathered slices: out[..., i, :] = sum_j valid[i,j] * a[..., idx[i,j], :].

    `indices` has shape (n, k) and selects along `axis`; `valid` is a {0,1}
    mask of the same shape (padding rows of ragged neighbor sets).  The
    forward loops over the k slots: it gathers one slot, scales it by that
    slot's `valid` column and adds it into the zero-started output, in slot
    order, the order in which a sum over the gathered (..., n, k, ...) array
    adds them.  So it holds one gathered slot at a time, never the whole
    gathered array nor a dense n-by-n product.
    """
    indices = np.asarray(indices, dtype=np.intp)
    dtype = float_dtype(a.data)
    valid = np.asarray(valid, dtype=dtype)
    if indices.shape != valid.shape or indices.ndim != 2:
        raise ShapeError("gather_sum", indices.shape, valid.shape)
    if indices.size and (indices.min() < 0 or indices.max() >= a.data.shape[axis]):
        raise ContractError(
            f"gather_sum: index out of range for axis {axis} of extent {a.data.shape[axis]}"
        )
    ax = axis % a.data.ndim
    vshape = [1] * a.data.ndim
    vshape[ax] = indices.shape[0]
    data = np.zeros(a.data.shape[:ax] + (indices.shape[0],) + a.data.shape[ax + 1:],
                    dtype=dtype)
    for j in range(indices.shape[1]):
        slot = as_float(np.take(a.data, indices[:, j], axis=ax))   # (..., n, ...)
        slot *= valid[:, j].reshape(vshape)
        data += slot

    def bw(g):
        # scatter with the transposed 0/1 mask, a small dense matmul on the
        # node axis only, formed here so that an untaped call never builds it
        mask = np.zeros((indices.shape[0], a.data.shape[ax]), dtype=dtype)
        rows = np.repeat(np.arange(indices.shape[0]), indices.shape[1])
        np.add.at(mask, (rows, indices.reshape(-1)), valid.reshape(-1))
        g_m = np.moveaxis(g, ax, -2)  # (..., n_out, feat)
        contrib = np.matmul(np.swapaxes(mask, 0, 1), g_m)  # (..., n_src, feat)
        a._accum(np.moveaxis(contrib, -2, ax))

    return _result(data, (a,), bw, "gather_sum")


# -- backward pass ------------------------------------------------------------


def _topo_order(root: Tensor) -> list:
    order: list = []
    visited: set = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        nid = id(node)
        if nid in visited:
            continue
        visited.add(nid)
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _consumed(g) -> None:
    """Backward of a node whose tape an earlier `backward` has already walked."""
    raise ContractError("backward: tape already consumed by an earlier backward; "
                        "run the forward again")


def backward(loss: Tensor) -> None:
    """Accumulate dloss/dleaf into `.grad` of every requires_grad leaf of a scalar loss.

    The tape is released as the walk passes it: once a node's backward has
    run, its gradient is dropped and its closure, with every buffer it saved,
    is replaced by `_consumed`.  Leaves (parameters and inputs) keep their
    accumulated `.grad`.  A tape is therefore single-use: a second backward
    through any consumed node raises ContractError before any gradient moves.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = _topo_order(loss)
    if any(node._backward is _consumed for node in order):
        _consumed(None)
    loss._accum(np.ones_like(loss.data))
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._backward = _consumed


def set_observer(obs):
    """Install `obs` (None: none) as the observer; returns the one it replaces."""
    global _OBSERVER
    prev, _OBSERVER = _OBSERVER, obs
    return prev
