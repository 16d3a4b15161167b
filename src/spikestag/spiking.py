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

`spike_encode` aligns one series step with `ts` SNN sub-steps by driving a
fresh LIF neuron with the constant hidden value for `ts` steps, emitting one
binary frame per sub-step (so a window of length T becomes T*ts frames);
its input gradient is the sum of dL/dI over the sub-steps.
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


class SpikeTrain:
    """Binary tensor indexed (snn-step, ..., node, feature); entries are exactly 0 or 1."""

    __slots__ = ("values",)

    def __init__(self, values: Tensor):
        self.values = values

    @property
    def shape(self):
        return self.values.shape

    def check_binary(self) -> bool:
        d = self.values.data
        return bool(np.all((d == 0.0) | (d == 1.0)))


def surrogate_grad(x: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form surrogate derivative g(x)."""
    c = (math.pi / 2.0) * alpha
    return (alpha / 2.0) / (1.0 + (c * x) ** 2)


def _lif(x: Tensor, lif: LifParams, steps: int | None = None) -> Tensor:
    """Multi-step LIF from a zero state, recorded as one custom tape node.

    With `steps` None, `x` is (..., T, N, d) per-frame input and the output has
    the same shape; otherwise `x` is a constant input repeated for `steps`
    frames and the output gains a leading frame axis.  The forward repeats the
    float32 operations of the per-step update, so spikes are bit-identical to
    it; the recorded node keeps U (and the spike output) for the backward.
    """
    xd = x.data
    if steps is None:
        axis = xd.ndim - 3
        out_shape = xd.shape
        inputs = np.moveaxis(xd, axis, 0)
    else:
        axis = 0
        out_shape = (steps,) + xd.shape
        inputs = (xd,) * steps
    record = ag.is_recording(x)
    spikes = np.empty(out_shape, dtype=xd.dtype)
    u_all = np.empty(out_shape, dtype=xd.dtype) if record else None
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
        du = g_s * sg
        del sg
        a_frames, du_frames = np.moveaxis(a, axis, 0), np.moveaxis(du, axis, 0)
        for t in range(len(du_frames) - 2, -1, -1):
            np.multiply(a_frames[t], du_frames[t + 1], out=a_frames[t])
            du_frames[t] += a_frames[t]
        du_x = du if steps is None else du.sum(axis=0)
        # where the incoming gradient is zero for many frames, dU decays
        # through the subnormal range; flushing it to zero changes nothing
        # representable at normal precision but keeps the BLAS kernels that
        # consume it at full speed (subnormal operands are very slow)
        du_x[np.abs(du_x) < np.finfo(du_x.dtype).tiny] = 0.0
        x._accum_own(du_x)

    return ag._result(spikes, (x,), bw, "lif", custom=True)


def lif_over_frames(potentials: Tensor, lif: LifParams) -> Tensor:
    """Run an LIF layer across the frame axis (axis -3 is time here).

    `potentials` is (..., T_frames, N, d); the neuron state is (..., N, d) and
    carries across the whole sequence starting from zero.
    """
    return _lif(potentials, lif)


def spike_encode(h: Tensor, ts: int, params: LifParams) -> SpikeTrain:
    """Encode one series step into `ts` binary frames (leading axis = sub-step).

    The neuron starts from a zero state and receives the constant input `h`
    at every sub-step, so a window step maps to exactly `ts` SNN steps.
    """
    if ts < 1:
        raise ContractError(f"spike_encode: ts must be >= 1, got {ts}")
    return SpikeTrain(_lif(h, params, steps=ts))


def encode_sequence(x: Tensor, ts: int, params: LifParams) -> SpikeTrain:
    """Encode a (..., T, N, f) step sequence into (..., T*ts, N, f) spike frames.

    Each series step is encoded independently (fresh neuron state), so all
    steps run in parallel; the sub-step axis is interleaved after each step.
    """
    if ts < 1:
        raise ContractError(f"encode_sequence: ts must be >= 1, got {ts}")
    train = spike_encode(x, ts, params)  # (ts, ..., T, N, f)
    v = train.values
    nd = v.data.ndim
    # (ts, ..., T, N, f) -> (..., T, ts, N, f) -> (..., T*ts, N, f)
    axes = tuple(range(1, nd - 2)) + (0, nd - 2, nd - 1)
    v = ag.transpose(v, axes)
    shape = list(v.shape)
    merged = shape[:-4] + [shape[-4] * shape[-3]] + shape[-2:]
    return SpikeTrain(ag.reshape(v, merged))
