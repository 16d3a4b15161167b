"""Reverse-mode automatic differentiation over dense numpy tensors.

A `Tensor` wraps a numpy array (float32 by default) and, when any input of an
operation requires gradients, the operation records a node on a tape so that
`backward` can later push gradients to every reachable leaf.  Gradients
accumulate additively across fan-out and are cleared only by an explicit
`zero_grad`.

The op set is deliberately small: matmul, affine (matmul plus bias as one
node), elementwise arithmetic, sigmoid, tanh, concatenation, row-wise
softmax, reductions, gathers (`take` / `select_index` / `gather_sum`),
`narrow`, `masked_fill`, reshape and transpose.  There is no general
broadcasting engine; binary ops allow the usual numpy broadcast and
un-broadcast the gradient by summing over expanded axes, which covers bias
addition and scalar scaling.

Modules with a hand-written multi-step backward (the fused LIF and LSTM
recurrences) build their node with `_result` and test `is_recording` first,
so that without a tape they keep no buffers for the backward.  Nodes whose
backward is a surrogate rather than the true derivative are flagged custom,
so that `grad_check` can refuse to finite-difference through them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

# Toggled by no_grad(); ops skip tape recording while this is False.
_GRAD_ENABLED = True

# Optional instrumentation hook, installed by `set_observer` (the energy
# module's op counter, while counting).  It receives only the spikes:
# `.spikes(layer, tensor)` for every spiking layer's output.
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

    `data` is always a numpy array in row-major order.  `grad` is lazily
    allocated during backward and has the same shape and dtype as `data`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op", "_custom")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"
        self._custom = False

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

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad, dtype=dtype)

    def zero_grad(self) -> None:
        self.grad = None

    # gradient accumulation helpers used by backward closures

    def _accum(self, g) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
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
            self.grad = np.zeros_like(self.data)
        return self.grad

    def backward(self) -> None:
        backward(self)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


def is_recording(*parents: Tensor) -> bool:
    """True if an op on `parents` records a tape node (grad on, some parent needs it)."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def observe_spikes(layer: str, tensor: Tensor) -> None:
    """Report the spike output of the named layer to the observer, if one is installed."""
    if _OBSERVER is not None:
        _OBSERVER.spikes(layer, tensor)


def _result(data, parents: tuple, backward_fn, op: str, custom: bool = False) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    out._custom = custom
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


def add(a, b) -> Tensor:
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        c = np.asarray(b, dtype=a.data.dtype)

        def bw_c(g):
            a._accum(g)

        return _result(a.data + c, (a,), bw_c, "add")
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _result(data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    if isinstance(b, Tensor) and isinstance(a, (int, float)):
        c = np.asarray(a, dtype=b.data.dtype)

        def bw_c(g):
            b._accum_own(-g)

        return _result(c - b.data, (b,), bw_c, "sub")
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        c = np.asarray(b, dtype=a.data.dtype)

        def bw_c2(g):
            a._accum(g)

        return _result(a.data - c, (a,), bw_c2, "sub")
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError("sub", a.shape, b.shape)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.data.shape))

    return _result(data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    """Elementwise (or scalar) multiply."""
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        return scale(a, b)
    if isinstance(b, Tensor) and isinstance(a, (int, float)):
        return scale(b, a)
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
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

    return _result(data, (a, b), bw, "mul")


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar."""
    s = float(s)

    def bw(g):
        a._accum_own(g * s)

    return _result(a.data * np.asarray(s, dtype=a.data.dtype), (a,), bw, "scale")


# -- matmul ----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul semantics: 2-d matrices or stacked matrices on leading axes.

    The common stacked-by-2d case collapses to a single GEMM by flattening
    the leading axes, both forward and backward.
    """
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    ad, bd = a.data, b.data
    if ad.ndim < 1 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    flat = bd.ndim == 2 and ad.ndim >= 2
    try:
        if flat:
            k = ad.shape[-1]
            data = (ad.reshape(-1, k) @ bd).reshape(ad.shape[:-1] + (bd.shape[1],))
        else:
            data = np.matmul(ad, bd)
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape)

    def bw(g):
        if flat:
            g2 = g.reshape(-1, bd.shape[1])
            if a.requires_grad:
                a._accum_own((g2 @ bd.T).reshape(ad.shape))
            if b.requires_grad:
                b._accum_own(ad.reshape(-1, ad.shape[-1]).T @ g2)
        else:
            if a.requires_grad:
                ga = np.matmul(g, np.swapaxes(bd, -1, -2))
                a._accum_own(_unbroadcast(ga, ad.shape))
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(ad, -1, -2), g)
                b._accum_own(_unbroadcast(gb, bd.shape))

    return _result(data, (a, b), bw, "matmul")


def affine(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """a @ w + b as one node, for a 2-d weight `w` and a bias `b` of width w.shape[1].

    Same float operations and gradients as `add(matmul(a, w), b)`, but the
    bias is added in place, so the bias-free product is never a second array.
    """
    ad, wd, bd = a.data, w.data, b.data
    if ad.ndim < 1 or wd.ndim != 2 or ad.shape[-1] != wd.shape[0]:
        raise ShapeError("affine", a.shape, w.shape)
    if bd.shape != (wd.shape[1],):
        raise ShapeError("affine", w.shape, b.shape)
    k, n = wd.shape
    data = (ad.reshape(-1, k) @ wd).reshape(ad.shape[:-1] + (n,))
    data += bd

    def bw(g):
        g2 = g.reshape(-1, n)
        if a.requires_grad:
            a._accum_own((g2 @ wd.T).reshape(ad.shape))
        if w.requires_grad:
            w._accum_own(ad.reshape(-1, k).T @ g2)
        if b.requires_grad:
            b._accum(_unbroadcast(g, bd.shape))

    return _result(data, (a, w, b), bw, "affine")


# -- smooth nonlinearities --------------------------------------------------


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    # stable for any magnitude: sigma(x) = (tanh(x/2) + 1) / 2
    half = np.asarray(0.5, dtype=a.data.dtype)
    out = np.tanh(a.data * half) * half + half

    def bw(g):
        a._accum_own(g * (out * (1.0 - out)))

    return _result(out, (a,), bw, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def bw(g):
        a._accum_own(g * (1.0 - out * out))

    return _result(out, (a,), bw, "tanh")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Row-wise softmax along `axis` (max-shifted for stability)."""
    a = _as_tensor(a)
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
    tensors = [_as_tensor(t) for t in tensors]
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


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx].copy()

    def bw(g):
        buf = a._grad_buffer()
        buf[idx] += g

    return _result(data, (a,), bw, "narrow")


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    data = np.asarray(data, dtype=a.data.dtype)
    src_shape = a.data.shape

    def bw(g):
        if axis is None:
            a._accum(np.broadcast_to(g, src_shape))
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            gg = g
            if not keepdims:
                for ax in sorted(ax % len(src_shape) for ax in axes):
                    gg = np.expand_dims(gg, ax)
            a._accum(np.broadcast_to(gg, src_shape))

    return _result(data, (a,), bw, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    s = tsum(a, axis=axis, keepdims=keepdims)
    return scale(s, 1.0 / count)


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


def select_index(a: Tensor, i: int, axis: int) -> Tensor:
    """Pick a single slice along `axis`, dropping that axis (cheap frame access)."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = int(i)
    idx = tuple(idx)
    data = a.data[idx].copy()

    def bw(g):
        buf = a._grad_buffer()
        buf[idx] += g

    return _result(data, (a,), bw, "select_index")


def gather_sum(a: Tensor, indices, valid, axis: int) -> Tensor:
    """Sum of gathered slices: out[..., i, :] = sum_j valid[i,j] * a[..., idx[i,j], :].

    `indices` has shape (n, k) and selects along `axis`; `valid` is a {0,1}
    mask of the same shape (padding rows of ragged neighbor sets).  The
    forward pass gathers then sums; it never forms a dense n-by-n product.
    """
    indices = np.asarray(indices, dtype=np.intp)
    valid = np.asarray(valid, dtype=a.data.dtype)
    if indices.shape != valid.shape or indices.ndim != 2:
        raise ShapeError("gather_sum", indices.shape, valid.shape)
    if indices.size and (indices.min() < 0 or indices.max() >= a.data.shape[axis]):
        raise ContractError(
            f"gather_sum: index out of range for axis {axis} of extent {a.data.shape[axis]}"
        )
    ax = axis % a.data.ndim
    gathered = np.take(a.data, indices, axis=ax)  # (..., n, k, ...)
    vshape = [1] * gathered.ndim
    vshape[ax] = indices.shape[0]
    vshape[ax + 1] = indices.shape[1]
    data = (gathered * valid.reshape(vshape)).sum(axis=ax + 1)

    # backward scatters with the transposed 0/1 mask; small dense matmul on
    # the node axis only, off the forward path
    n = a.data.shape[ax]
    mask = np.zeros((indices.shape[0], n), dtype=a.data.dtype)
    rows = np.repeat(np.arange(indices.shape[0]), indices.shape[1])
    np.add.at(mask, (rows, indices.reshape(-1)), valid.reshape(-1))

    def bw(g):
        g_m = np.moveaxis(g, ax, -2)  # (..., n_out, feat)
        contrib = np.matmul(np.swapaxes(mask, 0, 1), g_m)  # (..., n_src, feat)
        a._accum(np.moveaxis(contrib, -2, ax))

    return _result(data, (a,), bw, "gather_sum")


def masked_fill(a: Tensor, mask, value: float) -> Tensor:
    """Replace entries where `mask` is truthy with `value` (no grad through them)."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, np.asarray(value, dtype=a.data.dtype), a.data)

    def bw(g):
        a._accum_own(np.where(mask, 0.0, g).astype(a.data.dtype, copy=False))

    return _result(data, (a,), bw, "masked_fill")


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


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every requires_grad ancestor of a scalar loss."""
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = _topo_order(loss)
    loss._accum(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def graph_has_custom(root: Tensor) -> bool:
    """True if any node reachable from `root` carries a custom (surrogate) backward."""
    return any(n._custom for n in _topo_order(root))


# -- gradient checking --------------------------------------------------------


class GradCheckReport:
    """Outcome of a finite-difference comparison."""

    __slots__ = ("max_rel_err", "tol", "passed")

    def __init__(self, max_rel_err: float, tol: float):
        self.max_rel_err = float(max_rel_err)
        self.tol = float(tol)
        self.passed = self.max_rel_err < tol

    def __repr__(self):
        return f"GradCheckReport(max_rel_err={self.max_rel_err:.3e}, tol={self.tol:.1e}, passed={self.passed})"


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-3,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare the analytic gradient of scalar-valued `f` at `x` against
    central finite differences.

    The check runs on float64 copies so the difference quotient resolves the
    stated tolerance; the op implementations are dtype-generic, so this
    exercises the same code path the float32 model uses.  Functions containing
    a custom-gradient (surrogate) node are rejected: finite differences are
    meaningless across a step discontinuity.
    """
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True, dtype=np.float64)
    y = f(x64)
    if graph_has_custom(y):
        raise ContractError("grad_check: function contains a custom-gradient (surrogate) node")
    if y.data.size != 1:
        raise ContractError("grad_check: f must return a scalar")
    backward(y)
    analytic = x64.grad.copy() if x64.grad is not None else np.zeros_like(x64.data)

    numeric = np.zeros_like(x64.data)
    flat = x64.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        with no_grad():
            fp = f(x64).item()
        flat[i] = orig - h
        with no_grad():
            fm = f(x64).item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    return GradCheckReport(rel.max() if rel.size else 0.0, tol)


def set_observer(obs):
    """Install `obs` (None: none) as the observer; returns the one it replaces."""
    global _OBSERVER
    prev, _OBSERVER = _OBSERVER, obs
    return prev
