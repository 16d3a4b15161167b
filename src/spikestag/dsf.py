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
for W1.  So it never holds a (..., T', N, 4h) array.  With a tape it keeps
only the (h, c) entering each chunk, and its backward re-runs one chunk at
a time from that state, repeating the forward's float operations in their
order, so the re-run carries the forward's bits.  Forward and backward are
gate-major (states and gates hold one row per gate unit and one column per
node and batch entry, so each gate block is contiguous) and fold the inner
1/2 of each sigmoid into copies of the i, f and o weights, so one tanh
covers all four gates.  The gradient of x has the bits of one
row-layout product over all frames; the weight and bias gradients sum
frame by frame (see `_lstm`).

The self-attention branch projects binary frames through LIF neurons to get
binary Q/K/V, scores them with QK^T/sqrt(d_k), applies a row softmax and
reads out the score-weighted V as continuous (membrane-valued) features.
The gate G = sigmoid(W [h_lstm ; h_ssa] + b) mixes the branches entrywise.

The forecast head reads only the final frame, so the attention readout is
formed for that frame alone: its query is scored against all T' = T * ts key
frames, O(T') per node instead of the O(T'^2) of scoring every frame, and
the gate runs on the final frame of both branches.  Q/K/V still run their
LIF recurrence over every frame, as `spiking.lif_linear` layers named
`ssa.q`, `ssa.k` and `ssa.v`, which report their spikes for the energy
module to count.

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
    the backward's W_h dG and dG^T W_x^T (the gradients of h_{t-1} and of x)
    sum over the 4h gate units in their stored order, so another order changes
    the gradient bits: (o, i, f, g) was measured to.
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


# Frames per chunk of the recurrence: the input-side gate pre-activations
# x W_x + b are formed for one chunk at a time, into a (LSTM_CHUNK, 4h, rows)
# buffer, and a taped call keeps (h, c) only where a chunk begins.  At 8 the
# backward's re-run of one chunk (~1 MB of activations at the default model's
# train step) stays in cache: 32-frame chunks made the backward 1-17% slower
# at every benchmark shape (`tools/kernels.py`, 2-core x86 host).
LSTM_CHUNK = 8


def _folded(wxd: np.ndarray, bd: np.ndarray, whd: np.ndarray, dtype) -> tuple:
    """W_x'^T, b' (a column) and W_h'^T: copies of the fused weights with the
    i, f and o columns halved, the inner 1/2 of each sigmoid."""
    fold = np.full(len(bd), 0.5, dtype=dtype)
    h_dim = len(bd) // 4
    fold[2 * h_dim:3 * h_dim] = 1.0
    return (wxd * fold).T, (bd * fold)[:, None], (whd * fold).T


def _chunk_buffers(x_f: np.ndarray, n_gates: int, dtype) -> tuple:
    """Buffers for `_input_gates` over the frames `x_f` (T', ..., N, d_in):
    a chunk of frames transposed to (d_in, rows), in x's dtype, and their
    gates."""
    chunk, rows = min(LSTM_CHUNK, len(x_f)), math.prod(x_f.shape[1:-1])
    return (np.empty((chunk, x_f.shape[-1], rows), dtype=x_f.dtype),
            np.empty((chunk, n_gates, rows), dtype=dtype))


def _input_gates(x_c: np.ndarray, wx_fold: np.ndarray, b_fold: np.ndarray, bufs: tuple) -> tuple:
    """W_x'^T x^T + b' of the frames `x_c` (n, ..., N, d_in), by one batched
    product over the chunk.  Returns the frames transposed to (n, d_in,
    rows), in x's dtype, and their gates (n, 4h, rows): views of the
    `_chunk_buffers` `bufs`."""
    x_t, gx = (buf[:len(x_c)] for buf in bufs)
    # `bool` spikes are transposed in bool and then cast, contiguous: a
    # casting copy from the strided frames is several times slower
    np.copyto(x_t.reshape(x_t.shape[:2] + x_c.shape[1:-1]), np.moveaxis(x_c, -1, 1))
    np.matmul(wx_fold, ag.as_float(x_t), out=gx)
    gx += b_fold
    return x_t, gx


def _cell_gates(wh_fold: np.ndarray, h: np.ndarray, gx_t: np.ndarray, gates: np.ndarray) -> None:
    """One frame's gate activations into `gates` (4h, rows): W_h'^T h + gx_t,
    one tanh over all 4h rows, then t/2 + 1/2 over the i, f and o rows."""
    np.matmul(wh_fold, h, out=gates)
    gates += gx_t
    np.tanh(gates, out=gates)
    h_dim = len(gates) // 4
    for block in (gates[:2 * h_dim], gates[3 * h_dim:]):
        block *= 0.5
        block += 0.5


def _cell(gates: np.ndarray, c_prev: np.ndarray, c: np.ndarray, tanh_c: np.ndarray,
          h: np.ndarray, tmp: np.ndarray) -> None:
    """One frame's cell from its gates (4h, rows): c = f c_prev + i g into
    `c`, tanh c into `tanh_c` and h = o tanh c into `h`, all (h, rows).
    `c` may be `c_prev`, and `tanh_c` may be the scratch `tmp`."""
    i_g, f_g, g_g, o_g = gates.reshape(4, len(c), -1)
    np.multiply(c_prev, f_g, out=c)
    np.multiply(i_g, g_g, out=tmp)
    c += tmp
    np.tanh(c, out=tanh_c)
    np.multiply(o_g, tanh_c, out=h)


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
    and each frame's gates (4h, rows) (`_cell_gates`, `_cell`), so every
    gate block and every cell operation is one contiguous pass, in place on
    one h and one c.  The input gates W_x'^T x^T + b' are formed
    `LSTM_CHUNK` frames at a time (`_input_gates`), so no (..., T', N, 4h)
    array of them exists.  W_x', b' and W_h' are copies of the weights with
    the i, f and o columns halved (`_folded`).  Since sigmoid(z) =
    tanh(z/2)/2 + 1/2 and halving is exact (barring subnormals), one tanh
    over all 4h rows and a t/2 + 1/2 pass over the i, f and o rows repeat
    the float operations of `autograd.sigmoid`.  Each entry of W'^T x^T sums
    the same products in the same order as x W' does, so hidden states are
    bit-identical to the per-frame row-major cell; that rests on the BLAS
    (numpy 2.4's bundled OpenBLAS gives it; `tools/fingerprint.py` records
    which BLAS ran).

    The recorded node keeps only the (h, c) that enters each chunk, in two
    (ceil(T' / LSTM_CHUNK), h, rows) arrays, and no per-frame state or gate
    activations; with no tape it keeps only the returned frames.  The
    backward walks the chunks last first.  For each it forms the chunk's
    input gates again from x and re-runs the chunk forward from its
    boundary state with the same helpers, filling one chunk of activations,
    c, tanh c and h.  Every float operation of the forward repeats in the
    same order on the same operands, so these carry the forward's bits, and
    so do the gradients.  Then it walks the chunk back frame by frame.  Per
    frame it forms dG on one (4h, rows) buffer, passes W_h dG back to
    h_{t-1}, writes dG^T W_x^T into frame t of x's row-layout gradient, and
    adds h_{t-1} dG^T to dW_h, x_t dG^T to dW_x and the row sum of dG to db.
    Both products sum over the 4h gate units in their stored order, as one
    row-layout product over the dG of all frames does, so x's gradient has
    that product's bits (on the BLAS noted above).  dW_h, dW_x and db sum
    over the rows of a frame, then over the frames, last first.  The
    backward keeps no dG of more than one frame and no state of more than
    one chunk, and casts no copy of all of x.
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
    t_frames, d_in, lead = len(x_f), xd.shape[-1], x_f.shape[1:-1]   # lead = (..., N)
    rows = math.prod(lead)
    starts = range(0, t_frames, LSTM_CHUNK)
    # what the call keeps is allocated before its scratch buffers, and the
    # backward does the same, so the scratch is freed as one block and
    # leaves no holes between kept arrays: the allocator then serves a warm
    # step from the heap it already holds (see `spikestag`)
    if record:
        h_in, c_in = (np.empty((len(starts), h_dim, rows), dtype=dtype) for _ in "hc")
    out = np.empty(xd.shape[:axis] + (t_frames // stride,) + xd.shape[-2:-1] + (h_dim,),
                   dtype=dtype)
    out_f = frames(out)
    row_major = lambda arr: arr.T.reshape(lead + (len(arr),))  # (k, rows) -> (..., N, k)
    wx_fold, b_fold, wh_fold = _folded(wxd, bd, whd, dtype)
    bufs = _chunk_buffers(x_f, 4 * h_dim, dtype)
    gates = np.empty((4 * h_dim, rows), dtype=dtype)
    states = Carry(t_frames) if carry is None else carry
    h, c = (states.get(f"lstm.{name}", (h_dim, rows), dtype) for name in "hc")
    tmp = np.empty_like(h)
    for k, t0 in enumerate(starts):
        if record:
            h_in[k], c_in[k] = h, c
        _, gx = _input_gates(x_f[t0:t0 + LSTM_CHUNK], wx_fold, b_fold, bufs)
        for t in range(t0, t0 + len(gx)):
            _cell_gates(wh_fold, h, gx[t - t0], gates)
            _cell(gates, c, c, tmp, h, tmp)
            if (t + 1) % stride == 0:
                out_f[t // stride] = row_major(h)

    def bw(g_out):
        # per frame, so each frame's gates stay in cache while all of their
        # factors are formed (full-array passes were slower, being bound by
        # memory bandwidth); the gradients are allocated first, as above
        dx, dwx, db, dwh = (np.zeros(p.shape, dtype=dtype) if p.requires_grad else None
                            for p in (x, wx, b, wh))
        g_out_f, dx_f = frames(g_out), frames(dx) if dx is not None else None
        wx_fold, b_fold, wh_fold = _folded(wxd, bd, whd, dtype)
        bufs = _chunk_buffers(x_f, 4 * h_dim, dtype)
        # one chunk of the forward's activations, c, tanh c and h
        acts = np.empty((len(bufs[1]), 4 * h_dim, rows), dtype=dtype)
        cs, tanh_cs, hs = (np.empty((len(acts), h_dim, rows), dtype=dtype) for _ in "cth")
        dg = np.empty_like(acts[0])
        d_i, d_f, d_g, d_o = dg.reshape(4, h_dim, rows)
        d_ifg = dg[:3 * h_dim].reshape(3, h_dim, rows)
        tmp = np.empty_like(cs[0])
        dh = np.zeros_like(tmp)         # carries W_h dG_{t+1}
        dc = np.zeros_like(tmp)         # carries dc_{t+1} * f_{t+1}
        dh_lead = dh.reshape((h_dim,) + lead)
        prod = np.empty((max(d_in, h_dim), 4 * h_dim), dtype=dtype)
        dx_t = np.empty((rows, d_in), dtype=dtype)
        for k, t0 in reversed(list(enumerate(starts))):
            x_t, gx = _input_gates(x_f[t0:t0 + LSTM_CHUNK], wx_fold, b_fold, bufs)
            h_prev, c_prev = h_in[k], c_in[k]
            for j in range(len(gx)):
                _cell_gates(wh_fold, h_prev, gx[j], acts[j])
                _cell(acts[j], c_prev, cs[j], tanh_cs[j], hs[j], tmp)
                h_prev, c_prev = hs[j], cs[j]
            for j in reversed(range(len(gx))):
                t = t0 + j
                act, tanh_c = acts[j], tanh_cs[j]
                i_a, f_a, g_a, o_a = act.reshape(4, h_dim, rows)
                h_prev, c_prev = (hs[j - 1], cs[j - 1]) if j else (h_in[k], c_in[k])
                if (t + 1) % stride == 0:
                    dh_lead += np.moveaxis(g_out_f[t // stride], -1, 0)
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
                if t:
                    d_f *= c_prev
                else:
                    d_f[...] = 0.0
                d_ifg *= dc
                d_o *= tanh_c
                d_o *= dh
                dc *= f_a
                if dwh is not None and t:       # h_{-1} = 0 adds nothing
                    dwh += np.matmul(h_prev, dg.T, out=prod[:h_dim])
                if dwx is not None:
                    dwx += np.matmul(ag.as_float(x_t[j]), dg.T, out=prod[:d_in])
                if db is not None:
                    db += dg.sum(axis=1)
                if dx is not None:
                    np.matmul(dg.T, wxd.T, out=dx_t)
                    dx_f[t] = dx_t.reshape(lead + (d_in,))
                if t:
                    np.matmul(whd, dg, out=dh)
        for p, g in ((x, dx), (wx, dwx), (b, db), (wh, dwh)):
            if g is not None:
                p._accum_own(g)

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
    from `lif_linear` layers named `ssa.q`, `ssa.k` and `ssa.v`, which report
    their spikes and, given `carry`, carry their LIF states under those names."""
    if not ag.is_recording(s, params.w_q, params.w_k, params.w_v):
        # one float32 copy of `bool` spikes for the three projections; a tape
        # keeps the spikes as they are, so a taped call casts them per use
        s = Tensor(ag.as_float(s.data))
    # a loop, not a generator: a generator's frame would sit on the traced
    # heap through all three layers, at the no-grad forward's peak
    out = []
    for name, w in (("q", params.w_q), ("k", params.w_k), ("v", params.w_v)):
        out.append(lif_linear(s, w, lif, carry, f"ssa.{name}"))
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
