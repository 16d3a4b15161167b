"""Dual-path fusion: LSTM recovery of continuous states, spiking
self-attention over re-encoded spikes, and a learnable gate blending the two.

Spikes arrive and leave as `bool` Tensors (see `spiking`); the layers cast
them to float32 only where they do arithmetic on them, and the gradients
they pass back to spikes are float32.

The LSTM runs over the flattened spike frame sequence per node, as one tape
node with its input projection folded in, reading its weights as they are
stored: fused, in (i, f, g, o) column blocks (`LstmParams` says why that
order is fixed).  It forms the input-side gate pre-activations `LSTM_CHUNK`
frames at a time and returns only the frames its caller reads, every
`stride`-th: every ts-th frame for the re-encoder (W3/W4), the last alone
for W1.  So without a tape it never holds a (..., T', N, 4h) array; with
one it keeps the gate activations and cells of every frame for the
backward, which rebuilds the hidden states from them.  Its forward is
gate-major (states and gates hold one row per gate unit and one column per
node and batch entry, so each gate block is contiguous) and folds the
inner 1/2 of each sigmoid into copies of the i, f and o weights, so one
tanh covers all four gates.  It saves for the backward in the row layout (..., N, 4h),
which fixes the gradient bits (see `_lstm`).

The self-attention branch projects binary frames through LIF neurons to get
binary Q/K/V, scores them with QK^T/sqrt(d_k), applies a row softmax and
reads out the score-weighted V as continuous (membrane-valued) features.
The gate G = sigmoid(W [h_lstm ; h_ssa] + b) mixes the branches entrywise.

The forecast head reads only the final frame, so the attention readout is
formed for that frame alone: its query is scored against all T' = T * ts key
frames, O(T') per node instead of the O(T'^2) of scoring every frame, and
the gate runs on the final frame of both branches.  Q/K/V still run their
LIF recurrence over every frame, and report their spikes
(`autograd.observe_spikes`) for the energy module to count.

Without a tape the model feeds this block its frames in chunks (see
`ForecastModel.forward`).  The LSTM and the Q/K/V LIF layers then carry
their states from chunk to chunk in a `spiking.Carry`, each sizing its own
state and `Carry.get` checking it, and attention keeps only the final query
frame and the K and V spikes of every frame, as bool, reading out once the
window's last chunk is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, ShapeError
from .spiking import Carry, LifParams, lif_linear


@dataclass
class LstmParams:
    """Gate weights for input width d_in and hidden width h_dim, stored fused
    in the layout `_lstm` reads: `wx` (d_in, 4h), `wh` (h, 4h) and `b` (4h,),
    each a row of column blocks in gate order (input, forget, cell, output).

    The order stays (i, f, g, o).  Any order gives the same forward bits, but
    the backward's dG W_h^T sums over the 4h columns in their stored order,
    so another order changes the gradient bits: (o, i, f, g) was measured to.
    """

    wx: Tensor
    wh: Tensor
    b: Tensor

    @classmethod
    def init(cls, d_in: int, h_dim: int, rng: np.random.Generator) -> "LstmParams":
        s = 1.0 / math.sqrt(h_dim)
        # one draw per gate block, in gate order, input side first: a seed
        # gives the values it gave when each gate was a tensor of its own
        w = lambda rows: np.concatenate(
            [rng.uniform(-s, s, size=(rows, h_dim)).astype(np.float32) for _ in range(4)], axis=-1)
        wx, wh = w(d_in), w(h_dim)
        b = np.zeros(4 * h_dim, dtype=np.float32)
        # forget bias starts at 1 so early training keeps memory open
        b[h_dim:2 * h_dim] = 1.0
        return cls(*(Tensor(a, requires_grad=True) for a in (wx, wh, b)))


@dataclass
class SsaParams:
    """Spike projections for attention, each (f_in, f_out): inputs of width
    f_in map to the key width f_out."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor

    @classmethod
    def init(cls, f_in: int, f_out: int, rng: np.random.Generator) -> "SsaParams":
        s = 2.0 / math.sqrt(f_in)
        mk = lambda: Tensor((rng.standard_normal((f_in, f_out)) * s).astype(np.float32),
                            requires_grad=True)
        return cls(mk(), mk(), mk())


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


def _gate_blocks(arr: np.ndarray, h_dim: int) -> list:
    """Views of the (i, f, g, o) blocks along the last axis of a (..., 4h) array."""
    return [arr[..., k * h_dim:(k + 1) * h_dim] for k in range(4)]


# Frames whose input-side gate pre-activations x W_x + b are formed at once:
# that buffer is (LSTM_CHUNK, 4h, rows) whatever the sequence length.
LSTM_CHUNK = 32


def _lstm(x: Tensor, wx: Tensor, b: Tensor, wh: Tensor, stride: int,
          carry: Carry | None = None) -> Tensor:
    """LSTM recurrence over the frame axis (-3) of `x` as one tape node.

    `x` is (..., T', N, d_in); `wx` (d_in, 4h), `b` (4h,) and `wh` (h, 4h)
    are the fused weights in gate order (i, f, g, o).  States start at zero,
    or, given `carry`, at its `lstm.h` and `lstm.c` entries: gate-major
    (h, rows) arrays, rows = (..., N) flattened, which the call leaves
    holding the final states.  A carry needs a call that records no tape
    (ContractError otherwise).  Returns the hidden states of frames
    stride-1, 2*stride-1, ..., shape (..., T' // stride, N, h).

    The forward is gate-major over rows = (..., N): h and c are (h, rows)
    and each frame's gates (4h, rows), formed as W_h'^T h^T plus the frame's
    input gates into buffers allocated once, so every gate block and every
    cell operation is one contiguous pass.  The input gates W_x'^T x^T + b'
    are formed `LSTM_CHUNK` frames at a time by one batched product over the
    chunk, transposed once into a reused buffer, so no (..., T', N, 4h)
    array of them exists.  W_x', b' and W_h' are copies of the weights with
    the i, f and o columns halved.  Since sigmoid(z) = tanh(z/2)/2 + 1/2
    and halving is exact (barring subnormals), one tanh over all 4h rows and
    a t/2 + 1/2 pass over the i, f and o rows repeat the float operations of
    `autograd.sigmoid`.  Each entry of W'^T x^T sums the same products in
    the same order as x W' does, so hidden states are bit-identical to the
    per-frame row-major cell; that rests on the BLAS (numpy 2.4's bundled
    OpenBLAS gives it; `tools/fingerprint.py` records which BLAS ran).

    The recorded node keeps the gate activations and the cell states of
    every frame, written back transposed into (..., T', N, ·) buffers: the
    backward's bulk dW_h, dW_x and dx products reduce over all rows of all
    frames, so their row order fixes the gradient bits.  It keeps no hidden
    states: the backward rebuilds h_t = o_t tanh(c_t), with the float
    operations of the forward, from values it reads anyway.  With no tape
    the node keeps only the returned frames.  The backward runs one dG W_h^T
    product per frame, writing each frame's dG over its gate activations
    and h_t over the spent c_{t+1}, then forms dW_h (from those h_{t-1}),
    dW_x and dx as single products over all frames and db as one sum.
    Reusing those buffers means the backward can run only once (see
    `autograd.backward`).
    """
    xd, wxd, bd, whd = x.data, wx.data, b.data, wh.data
    axis = xd.ndim - 3
    h_dim = whd.shape[0]
    dtype = np.result_type(xd, wxd)
    record = ag.is_recording(x, wx, b, wh)
    if carry is not None and record:
        raise ContractError("_lstm: a carried state needs a call that records no tape")
    frames = lambda arr: np.moveaxis(arr, axis, 0)
    x_f = frames(xd)
    t_frames, d_in = len(x_f), xd.shape[-1]
    state_shape = x_f.shape[1:-1] + (h_dim,)
    gate_shape = state_shape[:-1] + (4 * h_dim,)
    rows = math.prod(state_shape[:-1])
    out = np.empty(xd.shape[:axis] + (t_frames // stride,) + state_shape[-2:], dtype=dtype)
    out_f = frames(out)
    if record:
        acts = np.empty(xd.shape[:-1] + (4 * h_dim,), dtype=dtype)
        cells = np.empty(xd.shape[:-1] + (h_dim,), dtype=dtype)
        acts_f, cells_f = frames(acts), frames(cells)
    # halve the i, f and o columns: the inner 1/2 of each sigmoid
    fold = np.full(4 * h_dim, 0.5, dtype=dtype)
    fold[2 * h_dim:3 * h_dim] = 1.0
    wx_fold, wh_fold, b_fold = (wxd * fold).T, (whd * fold).T, (bd * fold)[:, None]
    chunk = min(LSTM_CHUNK, t_frames)
    x_buf = np.empty((chunk, d_in, rows), dtype=xd.dtype)
    gx_buf = np.empty((chunk, 4 * h_dim, rows), dtype=dtype)
    gates = np.empty((4 * h_dim, rows), dtype=dtype)
    i_g, f_g, g_g, o_g = gates.reshape(4, h_dim, rows)
    states = Carry(t_frames) if carry is None else carry
    h, c = (states.get(f"lstm.{name}", (h_dim, rows), dtype) for name in "hc")
    tmp = np.empty_like(h)
    row_major = lambda arr: arr.T.reshape(state_shape[:-1] + (len(arr),))  # (k, rows) -> (..., N, k)
    for t0 in range(0, t_frames, LSTM_CHUNK):
        x_c = x_f[t0:t0 + LSTM_CHUNK]
        xt = x_buf[:len(x_c)]
        np.copyto(xt.reshape(xt.shape[:2] + state_shape[:-1]), np.moveaxis(x_c, -1, 1))
        gx = gx_buf[:len(x_c)]
        # `bool` spikes are transposed in bool and then cast, contiguous: a
        # casting copy from the strided frames is several times slower
        np.matmul(wx_fold, ag.as_float(xt), out=gx)
        gx += b_fold
        for t in range(t0, t0 + len(x_c)):
            np.matmul(wh_fold, h, out=gates)
            gates += gx[t - t0]
            np.tanh(gates, out=gates)
            for block in (gates[:2 * h_dim], o_g):
                block *= 0.5
                block += 0.5
            c *= f_g
            np.multiply(i_g, g_g, out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            np.multiply(o_g, tmp, out=h)
            if record:
                acts_f[t] = row_major(gates)
                cells_f[t] = row_major(c)
            if (t + 1) % stride == 0:
                out_f[t // stride] = row_major(h)

    def bw(g_out):
        # per frame, so each frame's gates stay in cache while all of their
        # factors are formed (full-array passes were slower, being bound by
        # memory bandwidth); the tape is single-use, so each frame's dG
        # overwrites its gate activations once they are read, and h_t =
        # o_t tanh(c_t) overwrites c_{t+1}, spent once frame t+1 is done
        dg = np.empty(gate_shape, dtype=dtype)
        dg_flat = dg.reshape(-1, 4 * h_dim)
        dg_ifg = dg.reshape(state_shape[:-1] + (4, h_dim))[..., :3, :]
        d_i, d_f, d_g, d_o = _gate_blocks(dg, h_dim)
        tmp = np.empty(state_shape, dtype=dtype)
        tanh_c = np.empty(state_shape, dtype=dtype)
        dh = np.zeros(state_shape, dtype=dtype)   # carries dG_{t+1} W_h^T
        dh_flat = dh.reshape(-1, h_dim)
        dc = np.zeros(state_shape, dtype=dtype)   # carries dc_{t+1} * f_{t+1}
        g_out_f = frames(g_out)
        wh_t = whd.T
        for t in range(t_frames - 1, -1, -1):
            act = acts_f[t]
            i_a, f_a, g_a, o_a = _gate_blocks(act, h_dim)
            np.tanh(cells_f[t], out=tanh_c)
            if t + 1 < t_frames:
                np.multiply(o_a, tanh_c, out=cells_f[t + 1])
            if (t + 1) % stride == 0:
                dh += g_out_f[t // stride]
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
            dc *= f_a                   # f_a is a view into act: use it first
            act[...] = dg
            np.matmul(dg_flat, wh_t, out=dh_flat)
        d_gates = acts                  # now dG of every frame
        d_flat = d_gates.reshape(-1, 4 * h_dim)
        if wh.requires_grad:
            h_prev = cells              # now h_{t-1} of every frame t
            cells_f[0] = 0.0
            wh._accum_own(h_prev.reshape(-1, h_dim).T @ d_flat)
        # dW_x first: its float copy of `bool` spikes goes before dx is formed
        if wx.requires_grad:
            wx._accum_own(ag.as_float(xd).reshape(-1, xd.shape[-1]).T @ d_flat)
        if x.requires_grad:
            x._accum_own((d_flat @ wxd.T).reshape(xd.shape))
        if b.requires_grad:
            b._accum(ag._unbroadcast(d_gates, bd.shape))

    return ag._result(out, (x, wx, b, wh), bw, "lstm")


def lstm_forward(x: Tensor, params: LstmParams, stride: int = 1,
                 carry: Carry | None = None) -> Tensor:
    """Standard LSTM recurrence over (..., T', N, d_in) spike frames.

    Hidden and cell states start at zero, or, given `carry` (no tape), at
    its `lstm.h` and `lstm.c` entries, which the call leaves holding the
    final states.  Returns the hidden states of every `stride`-th frame,
    frames stride-1, 2*stride-1, ..., shape (..., T' // stride, N, h_dim):
    all of them at stride 1, the last alone at stride T'.  The recurrence
    streams its input gates (see `_lstm`), so without a tape its largest
    buffers are one chunk of gates and the returned frames.
    """
    return _lstm(x, params.wx, params.b, params.wh, stride, carry)


def attention_core(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V over the frame axis, per node, where the
    key width d_k is the last axis of Q.

    Inputs are (..., T, N, d); attention runs across T separately for every
    node.  The query may hold fewer frames than the keys and values, (..., Tq,
    N, d) against (..., Tk, N, d), giving (..., Tq, N, d).  This smooth core
    is shared by ssa_forward and the gradient checks.
    """
    nd = q.data.ndim
    perm = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)  # (..., N, T, d)
    qt, kt, vt = (ag.transpose(t, perm) for t in (q, k, v))
    scores = ag.mul(ag.matmul(qt, ag.transpose(kt, tuple(range(nd - 2)) + (nd - 1, nd - 2))),
                    1.0 / math.sqrt(q.shape[-1]))
    attn = ag.softmax(scores, axis=-1)
    out = ag.matmul(attn, vt)  # (..., N, T, d)
    return ag.transpose(out, perm)  # back to (..., T, N, d)


def qkv_spikes(s: Tensor, params: SsaParams, lif: LifParams, carry: Carry | None = None) -> tuple:
    """Binary Q, K and V: LIF spikes of the projected input over every frame,
    reported as the spikes of `ssa.q`, `ssa.k` and `ssa.v` (their LIF states
    carried under those names, given `carry`)."""
    if not ag.is_recording(s, params.w_q, params.w_k, params.w_v):
        # one float32 copy of `bool` spikes for the three projections; a tape
        # keeps the spikes as they are, so a taped call casts them per use
        s = Tensor(ag.as_float(s.data))
    out = []
    for name, w in (("q", params.w_q), ("k", params.w_k), ("v", params.w_v)):
        spikes = lif_linear(s, w, lif, carry, f"ssa.{name}")
        ag.observe_spikes(f"ssa.{name}", spikes)
        out.append(spikes)
    return tuple(out)


def ssa_forward(s: Tensor, params: SsaParams, lif: LifParams,
                carry: Carry | None = None) -> Tensor | None:
    """Spiking self-attention read out at the final frame; continuous features.

    Q/K/V are binary (LIF of the projected input spikes, run over every frame
    because the recurrence needs them); the final frame's query is scored
    against all T' key frames with the standard scaled dot product and a row
    softmax, and the output keeps the pre-threshold (continuous) weighted sum
    of V.  Returns shape (..., 1, N, d_k): the one frame the forecast head
    reads, at O(T') score cost per node instead of O(T'^2).

    Given `carry` (no tape), `s` is one chunk of the `carry.frames` frames of
    a (B, T', N, f) window, taken in order.  The Q/K/V LIF states carry over,
    and the `bool` K and V spikes are copied as they are into stores of
    every frame.  The call returns None until the chunk that ends
    the window, which it reads out against the stores one batch row at a
    time (`attention_core` on that row's K and V cast to float32), so each
    (b, n) product has the shape it has without chunks and the readout is
    bit-identical.
    """
    q, k, v = qkv_spikes(s, params, lif, carry)
    q_last = ag.take(q, [-1], q.data.ndim - 3)
    if carry is None:
        return attention_core(q_last, k, v)
    shape = k.shape[:1] + (carry.frames,) + k.shape[2:]
    k_all, v_all = carry.get("ssa.k_all", shape, bool), carry.get("ssa.v_all", shape, bool)
    done = carry.states.get("ssa.frames", 0)
    end = carry.states["ssa.frames"] = done + k.shape[1]
    k_all[:, done:end] = k.data
    v_all[:, done:end] = v.data
    del q, k, v
    if end < carry.frames:
        return None
    rows = [attention_core(Tensor(q_last.data[i:i + 1]), Tensor(k_all[i:i + 1]),
                           Tensor(v_all[i:i + 1])).data
            for i in range(len(k_all))]
    return Tensor(np.concatenate(rows))


def gate_fuse(h_lstm: Tensor, h_ssa: Tensor, params: GateParams) -> Tensor:
    """G * h_lstm + (1 - G) * h_ssa with G = sigmoid(W [h_lstm ; h_ssa] + b)."""
    if h_lstm.shape != h_ssa.shape:
        raise ShapeError("gate_fuse", h_lstm.shape, h_ssa.shape)
    joint = ag.concat([h_lstm, h_ssa], axis=-1)
    g = ag.sigmoid(ag.affine(joint, params.w_g, params.bias))
    return ag.add(ag.mul(g, h_lstm), ag.mul(ag.sub(1.0, g), h_ssa))
