"""Dual-path fusion: LSTM recovery of continuous states, spiking
self-attention over re-encoded spikes, and a learnable gate blending the two.

The LSTM runs over the flattened spike frame sequence per node.  The
self-attention branch projects binary frames through LIF neurons to get
binary Q/K/V, scores them with QK^T/sqrt(d_k), applies a row softmax and
reads out the score-weighted V as continuous (membrane-valued) features.
The gate G = sigmoid(W [h_lstm ; h_ssa] + b) mixes the branches entrywise.

The forecast head reads only the final frame, so the attention readout is
formed for that frame alone: its query is scored against all T' = T * ts key
frames, O(T') per node instead of the O(T'^2) of scoring every frame, and
the gate runs on the final frame of both branches.  Q/K/V still run their
LIF recurrence over every frame, and report their spikes
(`autograd.observe_spikes`) for the energy module to count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ShapeError
from .spiking import LifParams, lif_over_frames


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


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> None:
    """out = sigmoid(x) with the float operations of `autograd.sigmoid`."""
    half = np.asarray(0.5, dtype=x.dtype)
    np.multiply(x, half, out=out)
    np.tanh(out, out=out)
    out *= half
    out += half


def _gate_blocks(arr: np.ndarray, h_dim: int) -> list:
    """Views of the (i, f, g, o) blocks along the last axis of a (..., 4h) array."""
    return [arr[..., k * h_dim:(k + 1) * h_dim] for k in range(4)]


def _lstm(gates_x: Tensor, wh: Tensor) -> Tensor:
    """LSTM recurrence over the frame axis (-3) as one tape node.

    `gates_x` holds the input-side pre-activations x W_x + b, (..., T, N, 4h)
    in gate order (i, f, g, o); `wh` is the fused (h, 4h) recurrent weight.
    States start at zero.  The forward repeats the float operations of the
    per-frame cell, so hidden states are bit-identical to it.  The recorded
    node keeps the gate activations, the cell states and the output; with no
    tape it keeps only the output.  The backward runs one dG W_h^T product
    per frame and forms dW_h as a single H_prev^T dG product over all frames.
    """
    gx = gates_x.data
    axis = gx.ndim - 3
    h_dim = wh.shape[0]
    whd = wh.data
    record = ag.is_recording(gates_x, wh)
    hidden = np.empty(gx.shape[:-1] + (h_dim,), dtype=gx.dtype)
    acts = np.empty_like(gx) if record else None
    cells = np.empty_like(hidden) if record else None
    frames = lambda arr: np.moveaxis(arr, axis, 0)
    gx_f, h_f = frames(gx), frames(hidden)
    acts_f = frames(acts) if record else None
    cells_f = frames(cells) if record else None
    state_shape = h_f.shape[1:]
    h = np.zeros(state_shape, dtype=gx.dtype)
    c = np.zeros(state_shape, dtype=gx.dtype)
    for t in range(len(gx_f)):
        g = gx_f[t] + (h.reshape(-1, h_dim) @ whd).reshape(state_shape[:-1] + (4 * h_dim,))
        act = acts_f[t] if record else np.empty_like(g)
        _sigmoid_into(g[..., :2 * h_dim], act[..., :2 * h_dim])
        np.tanh(g[..., 2 * h_dim:3 * h_dim], out=act[..., 2 * h_dim:3 * h_dim])
        _sigmoid_into(g[..., 3 * h_dim:], act[..., 3 * h_dim:])
        i_g, f_g, g_g, o_g = _gate_blocks(act, h_dim)
        c = f_g * c + i_g * g_g
        h = o_g * np.tanh(c)
        h_f[t] = h
        if record:
            cells_f[t] = c

    def bw(g_h):
        # per frame, so each frame's gates stay in cache while all of their
        # factors are formed (full-array passes were slower, being bound by
        # memory bandwidth)
        d_gates = np.empty_like(acts)
        dg = np.empty(state_shape[:-1] + (4 * h_dim,), dtype=gx.dtype)
        dg_flat = dg.reshape(-1, 4 * h_dim)
        dg_ifg = dg.reshape(state_shape[:-1] + (4, h_dim))[..., :3, :]
        d_i, d_f, d_g, d_o = _gate_blocks(dg, h_dim)
        tmp = np.empty(state_shape, dtype=gx.dtype)
        dh = np.zeros(state_shape, dtype=gx.dtype)   # carries dG_{t+1} W_h^T
        dc = np.zeros(state_shape, dtype=gx.dtype)   # carries dc_{t+1} * f_{t+1}
        g_h_f, dg_f = frames(g_h), frames(d_gates)
        wh_t = whd.T
        for t in range(len(dg_f) - 1, -1, -1):
            act = acts_f[t]
            i_a, f_a, g_a, o_a = _gate_blocks(act, h_dim)
            tanh_c = np.tanh(cells_f[t])
            dh += g_h_f[t]
            np.multiply(tanh_c, tanh_c, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            tmp *= o_a
            tmp *= dh
            dc += tmp
            # local derivatives: sigmoid' = s (1 - s) on i, f, o; tanh' = 1 - g^2
            np.subtract(1.0, act, out=dg)
            dg *= act
            np.multiply(g_a, g_a, out=d_g)
            np.subtract(1.0, d_g, out=d_g)
            d_i *= g_a
            d_g *= i_a
            if t > 0:
                d_f *= cells_f[t - 1]
            else:
                d_f[...] = 0.0
            dg_ifg *= dc[..., None, :]
            d_o *= tanh_c
            d_o *= dh
            dg_f[t] = dg
            dh = (dg_flat @ wh_t).reshape(state_shape)
            dc *= f_a
        if wh.requires_grad:
            h_prev = np.zeros_like(hidden)
            frames(h_prev)[1:] = h_f[:-1]
            wh._accum_own(h_prev.reshape(-1, h_dim).T @ d_gates.reshape(-1, 4 * h_dim))
        if gates_x.requires_grad:
            gates_x._accum_own(d_gates)

    return ag._result(hidden, (gates_x, wh), bw, "lstm")


def lstm_forward(x: Tensor, params: LstmParams) -> Tensor:
    """Standard LSTM recurrence over (..., T_frames, N, d_in) spike frames.

    Hidden and cell states start at zero; returns hidden states for every
    frame, shape (..., T_frames, N, h_dim).
    """
    wx = ag.concat([params.w_xi, params.w_xf, params.w_xg, params.w_xo], axis=-1)
    wh = ag.concat([params.w_hi, params.w_hf, params.w_hg, params.w_ho], axis=-1)
    b = ag.concat([params.b_i, params.b_f, params.b_g, params.b_o], axis=-1)
    return _lstm(ag.affine(x, wx, b), wh)  # input-side gates (..., T, N, 4h)


def attention_core(q: Tensor, k: Tensor, v: Tensor, d_k: int) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V over the frame axis, per node.

    Inputs are (..., T, N, d); attention runs across T separately for every
    node.  The query may hold fewer frames than the keys and values, (..., Tq,
    N, d) against (..., Tk, N, d), giving (..., Tq, N, d).  This smooth core
    is shared by ssa_forward and the gradient checks.
    """
    nd = q.data.ndim
    perm = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)  # (..., N, T, d)
    qt, kt, vt = (ag.transpose(t, perm) for t in (q, k, v))
    scores = ag.scale(ag.matmul(qt, ag.transpose(kt, tuple(range(nd - 2)) + (nd - 1, nd - 2))),
                      1.0 / math.sqrt(d_k))
    attn = ag.softmax(scores, axis=-1)
    out = ag.matmul(attn, vt)  # (..., N, T, d)
    return ag.transpose(out, perm)  # back to (..., T, N, d)


def qkv_spikes(s: Tensor, params: SsaParams, lif: LifParams) -> tuple:
    """Binary Q, K and V: LIF spikes of the projected input over every frame,
    reported as the spikes of `ssa.q`, `ssa.k` and `ssa.v`."""
    out = []
    for name, w in (("q", params.w_q), ("k", params.w_k), ("v", params.w_v)):
        spikes = lif_over_frames(ag.matmul(s, w), lif)
        ag.observe_spikes(f"ssa.{name}", spikes)
        out.append(spikes)
    return tuple(out)


def ssa_forward(s: Tensor, params: SsaParams, lif: LifParams) -> Tensor:
    """Spiking self-attention read out at the final frame; continuous features.

    Q/K/V are binary (LIF of the projected input spikes, run over every frame
    because the recurrence needs them); the final frame's query is scored
    against all T' key frames with the standard scaled dot product and a row
    softmax, and the output keeps the pre-threshold (continuous) weighted sum
    of V.  Returns shape (..., 1, N, d_k): the one frame the forecast head
    reads, at O(T') score cost per node instead of O(T'^2).
    """
    q, k, v = qkv_spikes(s, params, lif)
    t_axis = q.data.ndim - 3
    q_last = ag.narrow(q, t_axis, q.shape[t_axis] - 1, 1)
    return attention_core(q_last, k, v, params.d_k)


def gate_fuse(h_lstm: Tensor, h_ssa: Tensor, params: GateParams) -> Tensor:
    """G * h_lstm + (1 - G) * h_ssa with G = sigmoid(W [h_lstm ; h_ssa] + b)."""
    if h_lstm.shape != h_ssa.shape:
        raise ShapeError("gate_fuse", h_lstm.shape, h_ssa.shape)
    joint = ag.concat([h_lstm, h_ssa], axis=-1)
    g = ag.sigmoid(ag.affine(joint, params.w_g, params.bias))
    return ag.add(ag.mul(g, h_lstm), ag.mul(ag.sub(1.0, g), h_ssa))
