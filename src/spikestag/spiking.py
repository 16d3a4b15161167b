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
records a single tape node (flagged custom, since its backward is a
surrogate).  The node keeps the membrane potentials U and the spikes S; with
no tape it keeps nothing.  Its backward is closed-form backpropagation
through time.  With gh[t] = dL/dH[t] (gh[T-1] = 0) and g_t = g(U[t] - u_th),

    gh[t-1] = dL/dU[t] = dL/dI[t] = a_t * gh[t] + b_t
    a_t = beta * (1 - S[t]) + (u_reset - beta * U[t]) * g_t
    b_t = dL/dS[t] * g_t

where a_t and b_t are computed for all frames before the backward loop.

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
    """Neuron constants: decay in (0,1), threshold above reset, surrogate sharpness > 0."""

    beta: float = 0.5
    u_th: float = 1.0
    u_reset: float = 0.0
    alpha: float = 2.0

    def __post_init__(self):
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
    """Closed-form surrogate derivative g(x)."""
    c = (math.pi / 2.0) * alpha
    return (alpha / 2.0) / (1.0 + (c * x) ** 2)


def _lif(x: Tensor, lif: LifParams, steps: int | None = None) -> Tensor:
    """Multi-step LIF from a zero state, recorded as one custom tape node.

    With `steps` None, `x` is (..., T, N, d) per-frame input and the output has
    the same shape.  Otherwise each of the T frames of `x` is a constant input
    driving a fresh neuron for `steps` sub-steps, and the output is (...,
    T * steps, N, d) with frame t * steps + k holding sub-step k of step t.
    The forward repeats the float32 operations of the per-step update, so
    spikes are bit-identical to it; the recorded node keeps U (and the spike
    output) for the backward, which sums dU over each step's sub-steps.
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
    spikes = np.empty(shape, dtype=xd.dtype)
    u_all = np.empty(shape, dtype=xd.dtype) if record else None
    s_frames = np.moveaxis(spikes, axis, 0)
    u_frames = np.moveaxis(u_all, axis, 0) if record else None
    h = np.zeros(s_frames.shape[1:], dtype=xd.dtype)
    for t, i_t in enumerate(inputs):
        u = i_t + h
        s = (u >= lif.u_th).astype(u.dtype)
        h = (lif.beta * u) * (1.0 - s) + lif.u_reset * s
        s_frames[t] = s
        if record:
            u_frames[t] = u

    def bw(g_s):
        # dU_t = a_t * dU_{t+1} + b_t, every factor computed before the loop;
        # a = (u_reset - beta U) g + beta (1 - S) is built in place
        sg = surrogate_grad(u_all - lif.u_th, lif.alpha).astype(u_all.dtype, copy=False)
        a = u_all * -lif.beta
        a += lif.u_reset
        a *= sg
        keep = 1.0 - spikes
        keep *= lif.beta
        a += keep
        del keep
        du = g_s.reshape(shape) * sg
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

    return ag._result(spikes.reshape(out_shape), (x,), bw, "lif", custom=True)


def lif_over_frames(potentials: Tensor, lif: LifParams) -> Tensor:
    """Run an LIF layer across the frame axis (axis -3 is time here).

    `potentials` is (..., T_frames, N, d); the neuron state is (..., N, d) and
    carries across the whole sequence starting from zero.
    """
    return _lif(potentials, lif)


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
