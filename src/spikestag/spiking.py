"""Leaky integrate-and-fire dynamics and the spike alignment encoder.

The neuron follows the discrete update

    U[t] = I[t] + H[t-1]
    S[t] = step(U[t] - u_th)
    H[t] = beta * U[t] * (1 - S[t]) + u_reset * S[t]

with step(0) = 1 (firing exactly at threshold counts).  During backward the
step function uses the arctan-family surrogate derivative

    g(x) = alpha / (2 * (1 + ((pi/2) * alpha * x)^2))

which is bounded, even, peaks at alpha/2 and integrates to 1, i.e. it is the
derivative of a sigmoid-shaped function.  The reset path keeps its (1 - S)
factor inside the graph, so gradients flow through the surrogate there too.

`spike_encode` aligns one series step with `ts` SNN sub-steps by driving a
fresh LIF neuron with the constant hidden value for `ts` steps, emitting one
binary frame per sub-step (so a window of length T becomes T*ts frames).
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


@dataclass
class LifState:
    """Carried membrane internal state H, same shape as the input current."""

    h: Tensor

    @classmethod
    def zeros(cls, shape, dtype=np.float32) -> "LifState":
        return cls(Tensor(np.zeros(shape, dtype=dtype), dtype=dtype))


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


def heaviside_surrogate(x: Tensor, alpha: float = 2.0, shift: float = 0.0) -> Tensor:
    """Step function forward (step(0) = 1), surrogate derivative backward.

    With `shift` the op computes step(x - shift) in one node, which the LIF
    update uses to avoid materializing the shifted membrane tensor.
    """

    def fwd(arr):
        return (arr >= shift).astype(arr.dtype)

    def grad(arr):
        return surrogate_grad(arr - shift, alpha).astype(arr.dtype)

    return ag.custom_unary(x, fwd, grad, "heaviside")


def _reset_blend(u: Tensor, s: Tensor, beta: float, u_reset: float) -> Tensor:
    """Fused H = beta * u * (1 - s) + u_reset * s with the matching backward.

    Identical chain rule to the unfused composition; gradients flow into the
    spike tensor (and through its surrogate) exactly as the printed dynamics
    dictate.
    """
    ud, sd = u.data, s.data
    keep = 1.0 - sd
    data = (beta * ud) * keep + u_reset * sd

    def bw(g):
        if u.requires_grad:
            u._accum_own(g * (beta * keep))
        if s.requires_grad:
            s._accum_own(g * (u_reset - beta * ud))

    return ag._result(data, (u, s), bw, "lif_reset")


def lif_step(params: LifParams, state: LifState, input_current: Tensor):
    """One membrane update; returns (binary spike tensor, next state)."""
    if input_current.shape != state.h.shape:
        raise ShapeError("lif_step", input_current.shape, state.h.shape)
    u = ag.add(input_current, state.h)
    s = heaviside_surrogate(u, alpha=params.alpha, shift=params.u_th)
    h_next = _reset_blend(u, s, params.beta, params.u_reset)
    return s, LifState(h_next)


def lif_over_frames(potentials: Tensor, lif: LifParams) -> Tensor:
    """Run an LIF layer across the frame axis (axis -3 is time here).

    `potentials` is (..., T_frames, N, d); the neuron state is (..., N, d) and
    carries across the whole sequence starting from zero.
    """
    t_frames = potentials.shape[-3]
    state = LifState.zeros(potentials.shape[:-3] + potentials.shape[-2:],
                           dtype=potentials.data.dtype)
    frames = []
    time_axis = potentials.data.ndim - 3
    for t in range(t_frames):
        s, state = lif_step(lif, state, ag.select_index(potentials, t, axis=time_axis))
        frames.append(s)
    return ag.stack(frames, axis=time_axis)


def spike_encode(h: Tensor, ts: int, params: LifParams) -> SpikeTrain:
    """Encode one series step into `ts` binary frames (leading axis = sub-step).

    The neuron starts from a zero state and receives the constant input `h`
    at every sub-step, so a window step maps to exactly `ts` SNN steps.
    """
    if ts < 1:
        raise ContractError(f"spike_encode: ts must be >= 1, got {ts}")
    state = LifState(Tensor(np.zeros_like(h.data), dtype=h.data.dtype))
    frames = []
    for _ in range(ts):
        s, state = lif_step(params, state, h)
        frames.append(s)
    return SpikeTrain(ag.stack(frames, axis=0))


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
