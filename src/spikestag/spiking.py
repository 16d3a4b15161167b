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
records a single "lif" tape node, whose backward uses the surrogate.  The
node keeps the membrane potentials U and the spikes S; with no tape it keeps
nothing.  The loop allocates its state buffers once per call, and each frame
writes into them in place:

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

where a_t and b_t are computed for all frames before the backward loop.

A no-grad forward may feed a layer its frames in chunks: given a carried H
(`_lif`'s `carry`, or a `Carry` keyed by layer), each call starts from the
state the previous chunk left, so the chunks' spikes are those of one call
over the whole sequence, bit for bit.

`encode_sequence` aligns each series step with `ts` SNN sub-steps by driving
a fresh LIF neuron with the step's constant value for `ts` sub-steps, one
binary frame per sub-step, so a window of length T becomes T*ts frames.  The
frames come out in time order (all sub-steps of step 0, then of step 1, ...),
written there by the same single node; spikes are plain Tensors throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError


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


# `bench/spans.py` imports this name; spikes are plain Tensors
SpikeTrain = Tensor


def surrogate_grad(x: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form surrogate derivative g(x), formed in one new array like `x`."""
    y = np.multiply(x, (math.pi / 2.0) * alpha, out=np.empty_like(x))
    np.square(y, out=y)
    y += 1.0
    return np.divide(alpha / 2.0, y, out=y)


def _lif(x: Tensor, lif: LifParams, steps: int | None = None,
         carry: np.ndarray | None = None) -> Tensor:
    """Multi-step LIF, recorded as one "lif" tape node.

    With `steps` None, `x` is (..., T, N, d) per-frame input and the output has
    the same shape.  Otherwise each of the T frames of `x` is a constant input
    driving a fresh neuron for `steps` sub-steps, and the output is (...,
    T * steps, N, d) with frame t * steps + k holding sub-step k of step t.
    The state H starts at zero, or, in frame mode, at `carry`, an (..., N, d)
    array that the call leaves holding the final H: so a sequence run in
    pieces with one carry gives the spikes of one call over all of it.  A
    carry needs a call that records no tape (the backward has no state
    gradient); otherwise it raises ContractError.
    The forward writes each frame (or sub-step) into U, H, keep and fired
    buffers allocated once per call, with the float32 operations of the
    per-step update, so spikes are bit-identical to it; only the sign of a
    zero in H may differ at u_reset == 0, which nothing downstream reads
    (see the module docstring).  The recorded node keeps U (and the spike
    output) for the backward, which sums dU over each step's sub-steps.  The
    backward reuses U's buffer for its recurrence factors, so it can run
    only once (see `autograd.backward`).
    """
    xd = x.data
    if steps is None:
        shape = out_shape = xd.shape
        inputs = np.moveaxis(xd, xd.ndim - 3, 0)
    else:
        # sub-steps are written into a (..., T, steps, N, d) buffer, so the
        # frame-ordered output is a free reshape of it
        shape = xd.shape[:-2] + (steps,) + xd.shape[-2:]
        out_shape = xd.shape[:-3] + (xd.shape[-3] * steps,) + xd.shape[-2:]
        inputs = (xd,) * steps
    axis = len(shape) - 3
    record = ag.is_recording(x)
    if carry is not None and (record or steps is not None):
        raise ContractError("_lif: a carried state needs frame mode and no tape")
    spikes = np.empty(shape, dtype=xd.dtype)
    u_all = np.empty(shape, dtype=xd.dtype) if record else None
    s_frames = np.moveaxis(spikes, axis, 0)
    u_frames = np.moveaxis(u_all, axis, 0) if record else None
    state = s_frames.shape[1:]
    if carry is not None and (carry.shape, carry.dtype) != (state, xd.dtype):
        raise ContractError(f"_lif: carried state is {carry.dtype}{carry.shape}, "
                            f"expected {xd.dtype}{state}")
    u = np.empty(state, dtype=xd.dtype)
    h = np.zeros(state, dtype=xd.dtype) if carry is None else carry
    keep = np.empty(state, dtype=xd.dtype)
    fired = np.empty(state, dtype=bool)
    for t, i_t in enumerate(inputs):
        np.add(i_t, h, out=u)
        np.greater_equal(u, lif.u_th, out=fired)
        s_frames[t] = fired
        if record:
            u_frames[t] = u
        np.logical_not(fired, out=keep)
        np.multiply(u, lif.beta, out=h)
        h *= keep
        if lif.u_reset != 0.0:
            # u_reset * S, formed in U's buffer: U is spent for this frame
            np.multiply(s_frames[t], lif.u_reset, out=u)
            h += u

    def bw(g_s):
        # dU_t = a_t * dU_{t+1} + b_t, every factor computed before the loop;
        # the tape is single-use, so a = (u_reset - beta U) g + beta (1 - S)
        # is built in U's buffer and dU in the surrogate's
        sg = surrogate_grad(u_all - lif.u_th, lif.alpha)
        a = u_all
        a *= -lif.beta
        a += lif.u_reset
        a *= sg
        keep = 1.0 - spikes
        keep *= lif.beta
        a += keep
        del keep
        du = sg
        du *= g_s.reshape(shape)
        del sg
        a_frames, du_frames = np.moveaxis(a, axis, 0), np.moveaxis(du, axis, 0)
        for t in range(len(du_frames) - 2, -1, -1):
            np.multiply(a_frames[t], du_frames[t + 1], out=a_frames[t])
            du_frames[t] += a_frames[t]
        du_x = du if steps is None else du.sum(axis=axis)
        # where the incoming gradient is zero for many frames, dU decays
        # through the subnormal range; flushing it to zero changes nothing
        # representable at normal precision but keeps the BLAS kernels that
        # consume it at full speed (subnormal operands are very slow)
        du_x[np.abs(du_x) < np.finfo(du_x.dtype).tiny] = 0.0
        x._accum_own(du_x)

    return ag._result(spikes.reshape(out_shape), (x,), bw, "lif")


class Carry:
    """The state a no-grad forward carries from one chunk of frames to the
    next: each recurrence's state under its layer name, zero on first use,
    and `frames`, the frame count of the whole window."""

    def __init__(self, frames: int):
        self.frames = frames
        self.states: dict = {}

    def get(self, layer: str, shape: tuple, dtype=np.float32) -> np.ndarray:
        if layer not in self.states:
            self.states[layer] = np.zeros(shape, dtype=dtype)
        return self.states[layer]


def lif_over_frames(potentials: Tensor, lif: LifParams, carry: Carry | None = None,
                    layer: str = "") -> Tensor:
    """Run an LIF layer across the frame axis (axis -3 is time here).

    `potentials` is (..., T_frames, N, d); the neuron state is (..., N, d) and
    carries across the whole sequence starting from zero.  Given `carry`, the
    state starts from and is left in its `layer` entry, so the frames may come
    in chunks (no tape; see `_lif`).
    """
    h = None
    if carry is not None:
        h = carry.get(layer, potentials.shape[:-3] + potentials.shape[-2:], potentials.dtype)
    return _lif(potentials, lif, carry=h)


def encode_sequence(x: Tensor, ts: int, params: LifParams) -> Tensor:
    """Encode a (..., T, N, f) step sequence into (..., T*ts, N, f) spike frames.

    Each series step drives a fresh neuron with its constant value for `ts`
    sub-steps, so all steps run in parallel; frame t*ts + k is sub-step k of
    step t.  One tape node, whose input gradient is the sum of dL/dI over
    each step's sub-steps.
    """
    if ts < 1:
        raise ContractError(f"encode_sequence: ts must be >= 1, got {ts}")
    return _lif(x, params, steps=ts)
