"""Leaky integrate-and-fire dynamics and the spike alignment encoder.

The neuron follows the discrete update

    U[t] = I[t] + H[t-1]
    S[t] = step(U[t] - u_th)
    H[t] = beta * U[t] * (1 - S[t]) + u_reset * S[t]

with step(0) = 1 (firing exactly at threshold counts) and H[-1] = 0.  During
backward the step function uses the arctan-family surrogate derivative

    g(x) = alpha / (2 * (1 + ((pi/2) * alpha * x)^2))

which is bounded, even, peaks at alpha/2 and integrates to 1, i.e. it is the
derivative of a sigmoid-shaped function.  The reset path keeps its (1 - S)
factor inside the graph, so gradients flow through the surrogate there too.

Every LIF layer runs multi-step: one call loops over all frames in numpy and
records a single "lif" tape node, whose backward uses the surrogate.  A
layer driven by a spike projection, `lif_linear(s, W)`, is one node on s and
W: it forms the input current I = s W for one block of frames at a time, in
a buffer the next block reuses, and fires the block before forming the
next.  With a tape the node keeps the membrane potentials U and the spikes
S, never I; with no tape it keeps nothing.  W may come as column blocks with
a name each, as Q, K and V do: one GEMM, one frame loop and one backward
for all of them, the spikes of each block reported under its name.

Spikes are `bool`, one byte each, and U and H stay float.  A layer fed
spikes casts them to float32 only for its products (`autograd.as_float`),
so its float operations are those of float32 0/1 spikes; the gradient a
layer passes back to its spikes is float32.  The loop allocates its state
buffers once per call, and each frame writes into them in place:

    U = I[t] + H;  fired = U >= u_th;  S[t] = fired;  keep = not fired
    H = beta * U;  H *= keep;  H += u_reset * S   (only if u_reset != 0)

These are the float32 operations of the update above in the same order, so
spikes, U and H are bit-identical to it, with one exception: at u_reset == 0
the skipped `+ 0 * S` would turn a -0.0 in H into +0.0, so H, and through it
U, may hold -0.0 where the update above has +0.0.  That sign cannot reach a
spike, a prediction or a gradient: H only feeds U, and U only feeds the
threshold comparison and the surrogate and reset factors of the backward,
each of which reads -0.0 and +0.0 alike.

The node's backward is closed-form backpropagation through time.  With
gh[t] = dL/dH[t] (gh[T-1] = 0) and g_t = g(U[t] - u_th),

    gh[t-1] = dL/dU[t] = dL/dI[t] = a_t * gh[t] + b_t
    a_t = beta * (1 - S[t]) + (u_reset - beta * U[t]) * g_t
    b_t = dL/dS[t] * g_t

The backward walks the frames in cache-sized blocks, last first, and forms
a_t and b_t of a block just before the recurrence enters it, with the float
operations that whole-array passes would apply, in their order, so it gets
their bits (`_input_grad`).

A no-grad forward may feed a `lif_linear` layer its frames in chunks: given
a `Carry`, which keeps H under the layer's name, each call starts from the
state the previous chunk left, so the chunks' spikes are those of one call
over the whole sequence, bit for bit.  `Carry.get` is the one place a
carried state is made (zeros on first use) and checked against the shape
and dtype the calling layer expects.

`encode_sequence` aligns each series step with `ts` SNN sub-steps by driving
a fresh LIF neuron with the step's constant value for `ts` sub-steps, one
binary frame per sub-step, so a window of length T becomes T*ts frames.  The
frames come out in time order (all sub-steps of step 0, then of step 1, ...),
written there by the same single node; spikes are `bool` Tensors throughout.

`lif_linear` and `encode_sequence` are the model's only spike sources, and
each reports its output to the autograd observer (`autograd.observe_spikes`,
the energy counter while counting) under the `layer` name its caller gives,
a `lif_linear` of column blocks each block under its own name;
`lif_linear` keeps its carried state under that name too (the names joined
by "+").  No other code reports spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, ShapeError


@dataclass(frozen=True)
class LifParams:
    """Neuron constants: decay in (0,1], finite threshold above finite reset,
    finite surrogate sharpness > 0."""

    beta: float = 0.5
    u_th: float = 1.0
    u_reset: float = 0.0
    alpha: float = 2.0

    def __post_init__(self):
        for name in ("u_th", "u_reset", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"LifParams: {name} must be finite, got {getattr(self, name)}")
        # beta == 1.0 (no leak) is allowed for encoder-style accumulation
        if not 0.0 < self.beta <= 1.0:
            raise ContractError(f"LifParams: beta must be in (0, 1], got {self.beta}")
        if not self.u_th > self.u_reset:
            raise ContractError("LifParams: u_th must exceed u_reset")
        if not self.alpha > 0:
            raise ContractError("LifParams: alpha must be positive")


# `bench/spans.py` imports this name; spikes are `bool` Tensors
SpikeTrain = Tensor


def surrogate_grad(x: np.ndarray, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """Closed-form surrogate derivative g(x), formed in one new array like
    `x`, or in `out` (which may be `x`)."""
    y = np.multiply(x, (math.pi / 2.0) * alpha, out=np.empty_like(x) if out is None else out)
    np.square(y, out=y)
    y += 1.0
    return np.divide(alpha / 2.0, y, out=y)


def _fire(inputs, shape: tuple, dtype, lif: LifParams, carry: np.ndarray | None,
          u_all: np.ndarray | None) -> np.ndarray:
    """The LIF frame loop: `bool` spikes of shape `shape` (frames along axis
    -3) for the frames (or sub-steps) `inputs` yields, in order; the state
    is of the float `dtype`.

    H starts at zero, or at `carry` (of the state's shape and dtype, as
    `Carry.get` makes it), which the call leaves holding the final H.  Given
    `u_all` (of `shape`), each frame's U is written into it.
    """
    axis = len(shape) - 3
    spikes = np.empty(shape, dtype=bool)
    s_frames = np.moveaxis(spikes, axis, 0)
    u_frames = None if u_all is None else np.moveaxis(u_all, axis, 0)
    state = s_frames.shape[1:]
    u = np.empty(state, dtype=dtype)
    h = np.zeros(state, dtype=dtype) if carry is None else carry
    keep = np.empty(state, dtype=dtype)
    fired = np.empty(state, dtype=bool)
    for t, i_t in enumerate(inputs):
        np.add(i_t, h, out=u)
        np.greater_equal(u, lif.u_th, out=fired)
        s_frames[t] = fired
        if u_frames is not None:
            u_frames[t] = u
        np.logical_not(fired, out=keep)
        np.multiply(u, lif.beta, out=h)
        h *= keep
        if lif.u_reset != 0.0:
            # u_reset * S, formed in U's buffer: U is spent for this frame
            np.multiply(fired, lif.u_reset, out=u, dtype=dtype)
            h += u
    return spikes


# Bytes of one block buffer of the LIF kernels: `lif_linear` forms its
# input currents, and `_input_grad` its surrogate and recurrence factors, in
# blocks of as many frames (with `steps`, series steps) as fit, and
# `lif_linear` adds its later ds products as many rows at a time, so the
# passes over a block run in cache.  Of 128 KiB to 1 MiB, 512 KiB was the
# fastest, or within 5% of it, at every benchmark shape, per-frame and
# `steps` mode alike: 14-39% faster than whole-array passes where the rows
# are wide (32-96 channels) and as fast where they are narrow, as the
# encoder's 9 are, which a fixed 16-frame block made 37-51% slower (a sweep
# of `_input_grad` at those shapes on a 2-core x86 host).
LIF_BLOCK_BYTES = 2**19


def _block_length(shape: tuple, axis: int, itemsize: int) -> int:
    """Indices along `axis` of an array of `shape` per block: as many as fit
    in `LIF_BLOCK_BYTES` at `itemsize` bytes per entry, at least one."""
    return max(1, LIF_BLOCK_BYTES // (itemsize * math.prod(shape[:axis] + shape[axis + 1:])))


def _flush(x: np.ndarray, scratch: np.ndarray, mask: np.ndarray) -> None:
    """Set the subnormal entries of `x` to zero; `scratch` (float) and `mask`
    (`bool`) are contiguous buffers of at least `x`'s size."""
    t = scratch.reshape(-1)[:x.size].reshape(x.shape)
    m = mask.reshape(-1)[:x.size].reshape(x.shape)
    np.less(np.abs(x, out=t), np.finfo(x.dtype).tiny, out=m)
    np.copyto(x, 0.0, where=m)


def _input_grad(g_s: np.ndarray, u_all: np.ndarray, spikes: np.ndarray, lif: LifParams,
                steps: int | None = None) -> np.ndarray:
    """dL/dI of the LIF frames from dL/dS, U and S, all of `spikes`' shape
    (frames along axis -3).  With `steps`, those frames are the sub-steps of
    each step's fresh neuron (steps along axis -4), and dL/dI sums over them.

    dU_t = a_t * dU_{t+1} + b_t, with a = (u_reset - beta U) g + beta (1 - S)
    and b = dL/dS g.  The frames go in blocks, last first, as many as fit in
    `LIF_BLOCK_BYTES` (with `steps`, blocks of steps, each with all its
    sub-steps).  Per block, g and a are formed in two block buffers and b
    over the block's dL/dS, which is spent once read (the tape is
    single-use), and the recurrence runs back through the block, reading the
    first frame of the block after it.  Where the incoming gradient is zero
    for many frames, dU decays through the subnormal range; flushing it to
    zero changes nothing representable at normal precision but keeps the
    BLAS kernels that consume it at full speed (subnormal operands are very
    slow).  A frame is flushed once the frame before it has read it.  So
    every frame gets the float operations of whole-array passes followed by
    one flush, in their order, and their bits, and no whole-array temporary
    exists.  U is only read.  Returns `g_s`, holding dU, or with `steps` a
    new array of the sums over sub-steps.
    """
    axis = spikes.ndim - 3
    outer = axis if steps is None else axis - 1     # the axis the blocks run along
    n = spikes.shape[outer]
    block = lambda t0, t1: (slice(None),) * outer + (slice(t0, t1),)
    frames = lambda arr: np.moveaxis(arr, axis, 0)
    # block buffers in the layout of the blocks they hold, so every pass
    # runs over the same long contiguous stretches of all its operands
    size = min(_block_length(spikes.shape, outer, u_all.itemsize), n)
    sg = np.empty(spikes.shape[:outer] + (size,) + spikes.shape[outer + 1:], dtype=u_all.dtype)
    a, mask = np.empty_like(sg), np.empty(sg.shape, dtype=bool)
    du_f = frames(g_s)
    if steps is not None:
        du_x = np.empty(spikes.shape[:axis] + spikes.shape[axis + 1:], dtype=u_all.dtype)
    for t1 in range(n, 0, -size):
        t0 = max(t1 - size, 0)
        here, head = block(t0, t1), block(0, t1 - t0)
        u, g_t, a_t = u_all[here], sg[head], a[head]
        surrogate_grad(np.subtract(u, lif.u_th, out=g_t), lif.alpha, out=g_t)
        np.multiply(u, -lif.beta, out=a_t)
        a_t += lif.u_reset
        a_t *= g_t
        du = np.multiply(g_t, g_s[here], out=g_s[here])     # b, over the spent dL/dS
        np.subtract(1.0, spikes[here], out=g_t, dtype=u_all.dtype)
        g_t *= lif.beta
        a_t += g_t
        a_f = frames(a_t)
        if steps is None:
            for t in range(t1 - 1, t0 - 1, -1):
                if t + 1 < n:
                    np.multiply(a_f[t - t0], du_f[t + 1], out=a_f[t - t0])
                    du_f[t] += a_f[t - t0]
            _flush(g_s[block(t0 + 1, t1 + 1)], sg, mask)    # each read by the frame before it
        else:
            sub = frames(du)
            for k in range(len(sub) - 2, -1, -1):
                np.multiply(a_f[k], sub[k + 1], out=a_f[k])
                sub[k] += a_f[k]
            np.sum(du, axis=axis, out=du_x[here])
            _flush(du_x[here], sg, mask)
    if steps is not None:
        return du_x
    _flush(g_s[block(0, 1)], sg, mask)
    return g_s


def _lif(x: Tensor, lif: LifParams, steps: int | None = None) -> Tensor:
    """Multi-step LIF, recorded as one "lif" tape node.

    With `steps` None, `x` is (..., T, N, d) per-frame input and the output has
    the same shape.  Otherwise each of the T frames of `x` is a constant input
    driving a fresh neuron for `steps` sub-steps, and the output is (...,
    T * steps, N, d) with frame t * steps + k holding sub-step k of step t.
    The state H starts at zero, and U and H are in `x`'s float dtype, float32
    for `bool` spikes.
    The forward (`_fire`) writes each frame (or sub-step) into U, H, keep and
    fired buffers allocated once per call, with the float32 operations of the
    per-step update, so spikes are bit-identical to it; only the sign of a
    zero in H may differ at u_reset == 0, which nothing downstream reads
    (see the module docstring).  The recorded node keeps U (and the spike
    output) for the backward, which sums dU over each step's sub-steps.  The
    backward writes dU over the gradient it is handed, so it can run only
    once (see `autograd.backward`).
    """
    xd = x.data
    dtype = ag.float_dtype(xd)
    if steps is None:
        shape = out_shape = xd.shape
        inputs = np.moveaxis(xd, xd.ndim - 3, 0)
    else:
        # sub-steps are written into a (..., T, steps, N, d) buffer, so the
        # frame-ordered output is a free reshape of it
        shape = xd.shape[:-2] + (steps,) + xd.shape[-2:]
        out_shape = xd.shape[:-3] + (xd.shape[-3] * steps,) + xd.shape[-2:]
        inputs = (xd,) * steps
    u_all = np.empty(shape, dtype=dtype) if ag.is_recording(x) else None
    spikes = _fire(inputs, shape, dtype, lif, None, u_all)

    def bw(g_s):
        x._accum_own(_input_grad(g_s.reshape(shape), u_all, spikes, lif, steps))

    return ag._result(spikes.reshape(out_shape), (x,), bw, "lif")


class Carry:
    """The state a no-grad forward carries from one chunk of frames to the
    next: each recurrence's state under its layer name, and `frames`, the
    frame count of the whole window."""

    def __init__(self, frames: int):
        self.frames = frames
        self.states: dict = {}

    def get(self, layer: str, shape: tuple, dtype) -> np.ndarray:
        """The state carried under `layer`: zeros of `shape` and `dtype` on
        first use, else the entry, which must have that shape and dtype
        (ContractError naming the layer otherwise)."""
        if layer not in self.states:
            self.states[layer] = np.zeros(shape, dtype=dtype)
        state = self.states[layer]
        if (state.shape, state.dtype) != (tuple(shape), np.dtype(dtype)):
            raise ContractError(f"{layer}: carried state is {state.dtype}{state.shape}, "
                                f"expected {np.dtype(dtype)}{tuple(shape)}")
        return state


def lif_linear(s: Tensor, w: Tensor | tuple, lif: LifParams, carry: Carry | None = None,
               layer: str | tuple = "") -> Tensor:
    """LIF spikes of the projection s @ w across the frame axis (-3), as one
    "lif" tape node on s and the weights.

    `s` is (..., T, N, k), `bool` spikes or float gather sums, and `w` a
    (k, d) weight, or a tuple of (k, d_i) weights whose column blocks make
    one layer, d = sum d_i, with `layer` then a tuple of their names.  The
    output is (..., T, N, d) `bool` spikes, the neuron state (..., N, d)
    starting from zero.  The spikes of each block are reported under its
    name (`autograd.observe_spikes`).  Given `carry`, the state starts from
    and is left in its entry under the names joined by "+", so the frames
    may come in chunks (no tape; ContractError otherwise).

    The potentials s @ w are formed one block of frames at a time, as many
    as fit in `LIF_BLOCK_BYTES`: the block's s, cast to float32, and its
    product go into two buffers that each block reuses, and the frame loop
    of `_lif` fires the block before the next is formed.  Each entry is the
    dot product one GEMM over all the flattened leading axes would form, as
    `autograd.affine` forms it.  With a tape, each frame's U goes into a
    buffer the node keeps, with the spikes; the potentials are never a
    Tensor.  The backward forms dU over the incoming gradient
    (`_input_grad`) and frees U, then dw = s^T dU, one GEMM whose column
    blocks go to the weights, and ds = sum_i dU_i w_i^T, the products added
    in block order, as the backwards of one layer per block, run in that
    order, add them.  So spikes and gradients are bit-identical to one
    `_lif(matmul(s, w_i))` per block.  It forms dw first, so the float32
    copy of `bool` s it needs is freed before ds exists, and adds the later
    blocks' products for as many rows at a time as fit in `LIF_BLOCK_BYTES`,
    so no second ds-sized array exists.
    """
    ws = (w,) if isinstance(w, Tensor) else tuple(w)
    names = (layer,) if isinstance(layer, str) else tuple(layer)
    sd = s.data
    if (sd.ndim < 3 or len(names) != len(ws)
            or any(wi.data.ndim != 2 or wi.shape[0] != sd.shape[-1] for wi in ws)):
        raise ShapeError("lif_linear", s.shape, sum((wi.shape for wi in ws), ()))
    k = sd.shape[-1]
    ends = np.cumsum([wi.shape[1] for wi in ws])
    cols = [slice(e - wi.shape[1], e) for e, wi in zip(ends, ws)]
    wd = np.concatenate([wi.data for wi in ws], axis=1)
    d = wd.shape[1]
    shape = sd.shape[:-1] + (d,)
    axis = len(shape) - 3
    dtype = np.result_type(ag.float_dtype(sd), wd.dtype)
    record = ag.is_recording(s, *ws)
    h = None
    if carry is not None:
        if record:
            raise ContractError("lif_linear: a carried state needs a call that records no tape")
        h = carry.get("+".join(names), shape[:-3] + shape[-2:], dtype)

    def currents():
        # I = s W of one block of frames at a time, into two buffers that
        # the block after it reuses once its frames have fired
        size = min(_block_length(shape, axis, np.dtype(dtype).itemsize), shape[axis])
        per_block = sd.shape[:axis] + (size,) + sd.shape[axis + 1:]
        x_buf = np.empty(per_block, dtype=ag.float_dtype(sd))
        i_buf = np.empty(per_block[:-1] + (d,), dtype=dtype)
        for t0 in range(0, shape[axis], size):
            block = sd[(slice(None),) * axis + (slice(t0, t0 + size),)]
            x, i_t = (buf.reshape(-1)[:math.prod(block.shape[:-1]) * buf.shape[-1]]
                      for buf in (x_buf, i_buf))
            np.copyto(x.reshape(block.shape), block)
            np.matmul(x.reshape(-1, k), wd, out=i_t.reshape(-1, d))
            yield from np.moveaxis(i_t.reshape(block.shape[:-1] + (d,)), axis, 0)

    u_all = np.empty(shape, dtype=dtype) if record else None
    spikes = _fire(currents(), shape, dtype, lif, h, u_all)

    def bw(g_s):
        nonlocal u_all
        du = _input_grad(g_s, u_all, spikes, lif).reshape(-1, d)
        u_all = None        # read: free it before the products
        # dw first: its float copy of `bool` spikes goes before ds is formed
        if any(wi.requires_grad for wi in ws):
            dw = ag.as_float(sd).reshape(-1, k).T @ du
            for wi, c in zip(ws, cols):
                if wi.requires_grad:
                    wi._accum_own(np.ascontiguousarray(dw[:, c]))
        if s.requires_grad:
            ds = du[:, cols[0]] @ ws[0].data.T
            if len(ws) > 1:
                rows = min(_block_length(ds.shape, 0, ds.itemsize), len(ds))
                prod = np.empty((rows, k), dtype=ds.dtype)
                for r0 in range(0, len(ds), len(prod)):
                    r1 = min(r0 + len(prod), len(ds))
                    for wi, c in zip(ws[1:], cols[1:]):
                        ds[r0:r1] += np.matmul(du[r0:r1, c], wi.data.T, out=prod[:r1 - r0])
            s._accum_own(ds.reshape(sd.shape))

    out = ag._result(spikes, (s, *ws), bw, "lif")
    if len(ws) == 1:
        ag.observe_spikes(names[0], out)
    else:
        for name, c in zip(names, cols):
            ag.observe_spikes(name, ag.take(out, np.arange(c.start, c.stop), -1))
    return out


def encode_sequence(x: Tensor, ts: int, params: LifParams, layer: str = "") -> Tensor:
    """Encode a (..., T, N, f) step sequence into (..., T*ts, N, f) spike frames,
    reported as the spikes of `layer`.

    Each series step drives a fresh neuron with its constant value for `ts`
    sub-steps, so all steps run in parallel; frame t*ts + k is sub-step k of
    step t.  One tape node, whose input gradient is the sum of dL/dI over
    each step's sub-steps.
    """
    if ts < 1:
        raise ContractError(f"encode_sequence: ts must be >= 1, got {ts}")
    out = _lif(x, params, steps=ts)
    ag.observe_spikes(layer, out)
    return out
