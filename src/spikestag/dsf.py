"""Dual-path fusion: LSTM recovery of continuous states, spiking
self-attention over re-encoded spikes, and a learnable gate blending the two.

The LSTM runs over the flattened spike frame sequence per node.  The
self-attention branch projects binary frames through LIF neurons to get
binary Q/K/V, scores them with QK^T/sqrt(d_k), applies a row softmax and
reads out the score-weighted V as continuous (membrane-valued) features.
The gate G = sigmoid(W [h_lstm ; h_ssa] + b) mixes the branches entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ShapeError
from .spiking import LifParams, SpikeTrain, lif_over_frames


@dataclass
class LstmParams:
    """Gate weights for input width d_in and hidden width h_dim.

    Stored per gate (input, forget, cell, output); the forward fuses them into
    a single (d_in, 4h) / (h, 4h) pair so the recurrence does one matmul per
    step.
    """

    w_xi: Tensor
    w_xf: Tensor
    w_xg: Tensor
    w_xo: Tensor
    w_hi: Tensor
    w_hf: Tensor
    w_hg: Tensor
    w_ho: Tensor
    b_i: Tensor
    b_f: Tensor
    b_g: Tensor
    b_o: Tensor

    @classmethod
    def init(cls, d_in: int, h_dim: int, rng: np.random.Generator) -> "LstmParams":
        s = 1.0 / math.sqrt(h_dim)
        def w(rows):
            return Tensor((rng.uniform(-s, s, size=(rows, h_dim))).astype(np.float32),
                          requires_grad=True)
        def b(fill=0.0):
            return Tensor(np.full(h_dim, fill, dtype=np.float32), requires_grad=True)
        # forget bias starts at 1 so early training keeps memory open
        return cls(w(d_in), w(d_in), w(d_in), w(d_in),
                   w(h_dim), w(h_dim), w(h_dim), w(h_dim),
                   b(), b(1.0), b(), b())

    @property
    def hidden(self) -> int:
        return self.w_hi.shape[0]

    def tensors(self) -> dict:
        return {k: getattr(self, k) for k in
                ("w_xi", "w_xf", "w_xg", "w_xo", "w_hi", "w_hf", "w_hg", "w_ho",
                 "b_i", "b_f", "b_g", "b_o")}


@dataclass
class SsaParams:
    """Spike projections for attention; all inputs of width f_in map to d_k."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    d_k: int

    @classmethod
    def init(cls, f_in: int, d_k: int, rng: np.random.Generator) -> "SsaParams":
        s = 2.0 / math.sqrt(f_in)
        mk = lambda: Tensor((rng.standard_normal((f_in, d_k)) * s).astype(np.float32),
                            requires_grad=True)
        return cls(mk(), mk(), mk(), d_k)

    def tensors(self) -> dict:
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v}


@dataclass
class GateParams:
    """Fusion gate over concatenated branch features: w_g is (2h, h), bias (h,)."""

    w_g: Tensor
    bias: Tensor

    @classmethod
    def init(cls, h_dim: int, rng: np.random.Generator) -> "GateParams":
        s = 1.0 / math.sqrt(2 * h_dim)
        w = Tensor((rng.uniform(-s, s, size=(2 * h_dim, h_dim))).astype(np.float32),
                   requires_grad=True)
        # positive bias opens the gate toward the recurrent branch at the start,
        # so fusion begins near the LSTM solution and learns to blend in the
        # attention summary where it helps
        b = Tensor(np.full(h_dim, 2.0, dtype=np.float32), requires_grad=True)
        return cls(w, b)

    def tensors(self) -> dict:
        return {"w_g": self.w_g, "bias": self.bias}


def lstm_forward(s: SpikeTrain | Tensor, params: LstmParams, counter=None,
                 layer: str = "lstm") -> Tensor:
    """Standard LSTM recurrence over (..., T_frames, N, d_in) spike frames.

    Hidden and cell states start at zero; returns hidden states for every
    frame, shape (..., T_frames, N, h_dim).
    """
    x = s.values if isinstance(s, SpikeTrain) else s
    t_frames = x.shape[-3]
    h_dim = params.hidden
    time_axis = x.data.ndim - 3

    wx = ag.concat([params.w_xi, params.w_xf, params.w_xg, params.w_xo], axis=-1)
    wh = ag.concat([params.w_hi, params.w_hf, params.w_hg, params.w_ho], axis=-1)
    b = ag.concat([params.b_i, params.b_f, params.b_g, params.b_o], axis=-1)

    gates_x = ag.add(ag.matmul(x, wx), b)  # (..., T, N, 4h)

    state_shape = x.shape[:-3] + (x.shape[-2], h_dim)
    h = Tensor(np.zeros(state_shape, dtype=x.data.dtype), dtype=x.data.dtype)
    c = Tensor(np.zeros(state_shape, dtype=x.data.dtype), dtype=x.data.dtype)
    outs = []
    for t in range(t_frames):
        g = ag.add(ag.select_index(gates_x, t, axis=time_axis), ag.matmul(h, wh))
        i_g = ag.sigmoid(ag.narrow(g, -1, 0, h_dim))
        f_g = ag.sigmoid(ag.narrow(g, -1, h_dim, h_dim))
        g_g = ag.tanh(ag.narrow(g, -1, 2 * h_dim, h_dim))
        o_g = ag.sigmoid(ag.narrow(g, -1, 3 * h_dim, h_dim))
        c = ag.add(ag.mul(f_g, c), ag.mul(i_g, g_g))
        h = ag.mul(o_g, ag.tanh(c))
        outs.append(h)
    if counter is not None:
        d_in = x.shape[-1]
        positions = int(np.prod(x.data.shape[:-1]))
        counter.add_spike_proj(layer + ".input", event_count=float(x.data.sum()),
                               fanout=4 * h_dim, dense_positions=positions,
                               dense_in=d_in, dense_out=4 * h_dim)
        counter.observe_spikes(layer + ".input", x.data)
        counter.add_dense(layer + ".recurrent", macs=positions * h_dim * 4 * h_dim)
    return ag.stack(outs, axis=time_axis)


def attention_core(q: Tensor, k: Tensor, v: Tensor, d_k: int) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V over the frame axis, per node.

    Inputs are (..., T, N, d); attention runs across T separately for every
    node.  This smooth core is shared by ssa_forward and the gradient checks.
    """
    nd = q.data.ndim
    perm = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)  # (..., N, T, d)
    qt, kt, vt = (ag.transpose(t, perm) for t in (q, k, v))
    scores = ag.scale(ag.matmul(qt, ag.transpose(kt, tuple(range(nd - 2)) + (nd - 1, nd - 2))),
                      1.0 / math.sqrt(d_k))
    attn = ag.softmax(scores, axis=-1)
    out = ag.matmul(attn, vt)  # (..., N, T, d)
    return ag.transpose(out, perm)  # back to (..., T, N, d)


def ssa_forward(s: SpikeTrain, params: SsaParams, lif: LifParams, counter=None,
                layer: str = "ssa") -> Tensor:
    """Spiking self-attention; returns continuous membrane-valued features.

    Q/K/V are binary (LIF of the projected input spikes); scores use the
    standard scaled dot product with a row softmax, and the output keeps the
    pre-threshold (continuous) weighted sum of V.
    """
    x = s.values
    projections = {}
    for name, w in (("q", params.w_q), ("k", params.w_k), ("v", params.w_v)):
        pot = ag.matmul(x, w)
        projections[name] = lif_over_frames(pot, lif)
        if counter is not None:
            counter.add_spike_proj(f"{layer}.{name}", event_count=float(x.data.sum()),
                                   fanout=params.d_k,
                                   dense_positions=int(np.prod(x.data.shape[:-1])),
                                   dense_in=x.shape[-1], dense_out=params.d_k)
            counter.add_lif(f"{layer}.{name}", neurons_steps=projections[name].data.size)
            counter.observe_spikes(f"{layer}.{name}", projections[name].data)
    q, k, v = projections["q"], projections["k"], projections["v"]
    out = attention_core(q, k, v, params.d_k)
    if counter is not None:
        counter.add_spike_attention(layer, q.data, k.data, v.data, params.d_k)
    return out


def gate_fuse(h_lstm: Tensor, h_ssa: Tensor, params: GateParams, counter=None) -> Tensor:
    """G * h_lstm + (1 - G) * h_ssa with G = sigmoid(W [h_lstm ; h_ssa] + b)."""
    if h_lstm.shape != h_ssa.shape:
        raise ShapeError("gate_fuse", h_lstm.shape, h_ssa.shape)
    joint = ag.concat([h_lstm, h_ssa], axis=-1)
    g = ag.sigmoid(ag.add(ag.matmul(joint, params.w_g), params.bias))
    fused = ag.add(ag.mul(g, h_lstm), ag.mul(ag.sub(1.0, g), h_ssa))
    if counter is not None:
        positions = int(np.prod(h_lstm.data.shape[:-1]))
        counter.add_dense("gate", macs=positions * params.w_g.shape[0] * params.w_g.shape[1])
    return fused
