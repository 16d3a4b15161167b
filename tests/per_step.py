"""Per-step reference implementations of the LIF and LSTM recurrences, and
the full-sequence form of the dual-path fusion tail.

The recurrences are the frame-by-frame forms the fused multi-step kernels
replaced: every frame records its own tape nodes (take, add, Heaviside,
reset blend, stack; gate slices, sigmoids and products for the LSTM).  Tests
use them as oracles: the fused kernels must reproduce their spikes and hidden
states bit for bit and their gradients within float32 tolerance.
`lif_kernel`, `lif_linear` and `lstm_recurrence` take the arguments of
`spiking._lif`, `spiking.lif_linear` and `dsf._lstm`, so a test can patch
them in for the fused kernels.  `input_grad` is the LIF backward in
whole-array passes, the oracle of the blocked `spiking._input_grad`.

`full_sequence_forward` is the model forward that runs spiking attention,
the gate and the attention projection over every frame and then selects the
final one; the model computes that final frame alone.

`stack` is the tape op the per-frame forms assemble their frames with,
`tanh` the one the per-frame LSTM applies to its cell,
`index_mask_aggregate` / `dense_oracle_aggregate` are the one-node and dense
mask-matmul forms of the MSSA neighborhood aggregation, and `gathered_sum`
is the gather-everything form of `autograd.gather_sum`'s slot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.dsf import attention_core, gate_fuse, lstm_forward, qkv_spikes
from spikestag.errors import ContractError, ShapeError
from spikestag.mssa import mssa_forward
from spikestag.obs import obs_forward
from spikestag.spiking import LifParams, encode_sequence, surrogate_grad


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """np.stack as a tape node."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def bw(g):
        slices = [slice(None)] * g.ndim
        for i, t in enumerate(tensors):
            if t.requires_grad:
                slices[axis] = i
                t._accum(g[tuple(slices)])

    return ag._result(data, tuple(tensors), bw, "stack")


def tanh(a: Tensor) -> Tensor:
    """Elementwise tanh as a tape node."""
    out = np.tanh(a.data)

    def bw(g):
        a._accum_own(g * (1.0 - out * out))

    return ag._result(out, (a,), bw, "tanh")


def index_mask_aggregate(x_bin: Tensor, sample_set, w: Tensor) -> Tensor:
    """m_i = (sum_{j in S_i} x_j) W for one node: gather rows, sum, project.

    `x_bin` is (N, F) with {0,1} entries, `w` is (F, D).  An empty sample set
    yields the zero vector.
    """
    n, f = x_bin.shape
    if w.shape[0] != f:
        raise ContractError(
            f"index_mask_aggregate: weight rows {w.shape[0]} != feature width {f}"
        )
    for j in sample_set:
        if not 0 <= j < n:
            raise ContractError(f"index_mask_aggregate: index {j} out of range for {n} nodes")
    if len(sample_set) == 0:
        return Tensor(np.zeros(w.shape[1], dtype=x_bin.data.dtype), dtype=x_bin.data.dtype)
    idx = np.asarray(sorted(sample_set), dtype=np.intp)
    gathered = ag.take(x_bin, idx, axis=0)       # (k, F)
    summed = ag.tsum(gathered, axis=0)           # (F,)
    return ag.reshape(ag.matmul(ag.reshape(summed, (1, f)), w), (w.shape[1],))


def dense_oracle_aggregate(x_bin, mask_matrix, w) -> np.ndarray:
    """Reference (M x_bin) w via dense products; testing oracle only."""
    x = x_bin.data if isinstance(x_bin, Tensor) else np.asarray(x_bin)
    m = np.asarray(mask_matrix, dtype=x.dtype)
    ww = w.data if isinstance(w, Tensor) else np.asarray(w)
    return (m @ x) @ ww


@dataclass
class LifState:
    """Carried membrane internal state H, same shape as the input current."""

    h: Tensor

    @classmethod
    def zeros(cls, shape, dtype=np.float32) -> "LifState":
        return cls(Tensor(np.zeros(shape, dtype=dtype), dtype=dtype))


def heaviside_surrogate(x: Tensor, alpha: float = 2.0, shift: float = 0.0) -> Tensor:
    """step(x - shift) forward (step(0) = 1), surrogate derivative backward."""
    arr = x.data
    data = (arr >= shift).astype(arr.dtype)

    def bw(g):
        x._accum_own(g * surrogate_grad(arr - shift, alpha).astype(arr.dtype))

    return ag._result(data, (x,), bw, "heaviside")


def _reset_blend(u: Tensor, s: Tensor, beta: float, u_reset: float) -> Tensor:
    """H = beta * u * (1 - s) + u_reset * s as one node, gradients into u and s."""
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
    """LIF across the frame axis (-3) from a zero state, one `lif_step` per frame."""
    time_axis = potentials.data.ndim - 3
    state = LifState.zeros(potentials.shape[:-3] + potentials.shape[-2:],
                           dtype=potentials.data.dtype)
    frames = []
    for t in range(potentials.shape[-3]):
        s, state = lif_step(lif, state, ag.take(potentials, t, axis=time_axis))
        frames.append(s)
    return stack(frames, axis=time_axis)


def encode_steps(x: Tensor, ts: int, params: LifParams) -> Tensor:
    """(..., T, N, f) steps to (..., T*ts, N, f) frames, frame t*ts + k being
    sub-step k of a fresh neuron driven by the constant input of step t."""
    if ts < 1:
        raise ContractError(f"encode_steps: ts must be >= 1, got {ts}")
    state = LifState(Tensor(np.zeros_like(x.data), dtype=x.data.dtype))
    frames = []
    for _ in range(ts):
        s, state = lif_step(params, state, x)
        frames.append(s)
    sub_steps = stack(frames, axis=x.data.ndim - 2)    # (..., T, ts, N, f)
    shape = x.shape[:-3] + (x.shape[-3] * ts,) + x.shape[-2:]
    return ag.reshape(sub_steps, shape)


def _no_carry(carry) -> None:
    if carry is not None:
        raise ContractError("the per-step oracles start from zero states only")


def lif_kernel(x: Tensor, lif: LifParams, steps: int | None = None, carry=None) -> Tensor:
    """Per-step stand-in for `spiking._lif` (no carried state)."""
    _no_carry(carry)
    if steps is None:
        return lif_over_frames(x, lif)
    return encode_steps(x, steps, lif)


def lif_linear(s: Tensor, w, lif: LifParams, carry=None, layer="") -> Tensor:
    """Per-step stand-in for `spiking.lif_linear` (no carried state): the
    projection as its own `matmul` node (of the weights' `concat` for a
    tuple of column blocks), then one `lif_step` per frame; the spikes are
    reported under `layer`, or each block under its name, as the kernel
    reports them."""
    _no_carry(carry)
    if isinstance(w, Tensor):
        out = lif_over_frames(ag.matmul(s, w), lif)
        ag.observe_spikes(layer, out)
        return out
    out = lif_over_frames(ag.matmul(s, ag.concat(w, axis=-1)), lif)
    start = 0
    for name, block in zip(layer, w):
        ag.observe_spikes(name, ag.take(out, np.arange(start, start + block.shape[1]), -1))
        start += block.shape[1]
    return out


def input_grad(g_s: np.ndarray, u_all: np.ndarray, spikes: np.ndarray, lif: LifParams,
               steps: int | None = None, flush: bool = True) -> np.ndarray:
    """`spiking._input_grad` in whole-array passes: every factor of dU_t =
    a_t * dU_{t+1} + b_t formed for all frames before the backward loop,
    the sum over sub-steps (with `steps`) and, unless `flush` is False, the
    subnormal flush after it.  Writes a into `u_all`; returns a new array."""
    axis = spikes.ndim - 3
    sg = surrogate_grad(u_all - lif.u_th, lif.alpha)
    a = u_all
    a *= -lif.beta
    a += lif.u_reset
    a *= sg
    keep = np.subtract(1.0, spikes, dtype=u_all.dtype)
    keep *= lif.beta
    a += keep
    du = sg
    du *= g_s
    a_frames, du_frames = np.moveaxis(a, axis, 0), np.moveaxis(du, axis, 0)
    for t in range(len(du_frames) - 2, -1, -1):
        np.multiply(a_frames[t], du_frames[t + 1], out=a_frames[t])
        du_frames[t] += a_frames[t]
    du_x = du if steps is None else du.sum(axis=axis)
    if flush:
        du_x[np.abs(du_x) < np.finfo(du_x.dtype).tiny] = 0.0
    return du_x


def lstm_recurrence(x: Tensor, wx: Tensor, b: Tensor, wh: Tensor, stride: int,
                    carry=None) -> Tensor:
    """Per-frame stand-in for `dsf._lstm` (no carried state): the input
    `affine` over all frames, one cell per frame from zero states (gate order
    i, f, g, o), then a `take` of frames stride-1, 2*stride-1, ..."""
    _no_carry(carry)
    gates_x = ag.affine(x, wx, b)
    h_dim = wh.shape[0]
    time_axis = gates_x.data.ndim - 3
    state_shape = gates_x.shape[:-3] + (gates_x.shape[-2], h_dim)
    dtype = gates_x.data.dtype
    h = Tensor(np.zeros(state_shape, dtype=dtype), dtype=dtype)
    c = Tensor(np.zeros(state_shape, dtype=dtype), dtype=dtype)
    outs = []
    for t in range(gates_x.shape[-3]):
        g = ag.add(ag.take(gates_x, t, axis=time_axis), ag.matmul(h, wh))
        i_g, f_g, g_g, o_g = (ag.take(g, np.arange(k * h_dim, (k + 1) * h_dim), axis=-1)
                              for k in range(4))
        i_g, f_g, g_g, o_g = ag.sigmoid(i_g), ag.sigmoid(f_g), tanh(g_g), ag.sigmoid(o_g)
        c = ag.add(ag.mul(f_g, c), ag.mul(i_g, g_g))
        h = ag.mul(o_g, tanh(c))
        outs.append(h)
    frames = np.arange(stride - 1, len(outs), stride, dtype=np.intp)
    return ag.take(stack(outs, axis=time_axis), frames, axis=time_axis)


def gathered_sum(a: np.ndarray, indices, valid, axis: int) -> np.ndarray:
    """`autograd.gather_sum`'s forward as one gather of every slot, a mask
    product and a sum over the slot axis."""
    indices = np.asarray(indices, dtype=np.intp)
    axis %= a.ndim
    gathered = np.take(a, indices, axis=axis)      # (..., n, k, ...)
    vshape = [1] * gathered.ndim
    vshape[axis:axis + 2] = indices.shape
    return (gathered * np.asarray(valid, dtype=a.dtype).reshape(vshape)).sum(axis=axis + 1)


def ssa_forward_full(s: Tensor, params, lif: LifParams) -> Tensor:
    """Spiking self-attention read out at every frame, (..., T', N, d_k)."""
    q, k, v = qkv_spikes(s, params, lif)
    return attention_core(q, k, v)


def full_sequence_forward(model, batch, counter=None) -> Tensor:
    """`ForecastModel.forward` with the fusion tail over all T' frames.

    Attention, the attention projection and the gate produce every frame,
    the head reads the final one; the attention readout is scaled by
    `model.ssa_readout.gain` at every frame.  A `counter` is entered and
    counts the forward as in `ForecastModel.forward`.
    """
    if counter is not None:
        with counter:
            pred = full_sequence_forward(model, batch)
            counter.count_forward(model, *batch.inputs.shape[:2])
        return pred
    cfg = model.config
    lif = cfg.lif()
    z = Tensor(batch.normalized_inputs())
    x = model.embed_inputs(z, batch.input_times)
    graph = model.graph
    x_obs = obs_forward(x, graph.local, model.obs_params)
    s_mssa = mssa_forward(x_obs, graph, model.hop_weights, lif, cfg.ts)

    t_frames = x.shape[1] * cfg.ts
    time_axis = x.data.ndim - 3
    ab = cfg.ablation
    readout = model.ssa_readout
    if ab == "W2":
        ssa_out = ag.mul(ssa_forward_full(s_mssa, model.ssa_params, lif), readout.gain)
        feat_seq = ag.matmul(ssa_out, readout.proj)
    else:
        h_lstm = lstm_forward(s_mssa, model.lstm_params)
        if ab == "W1":
            feat_seq = h_lstm
        else:
            boundary = np.arange(cfg.ts - 1, t_frames, cfg.ts, dtype=np.intp)
            re_encoded = encode_sequence(ag.take(h_lstm, boundary, axis=time_axis), cfg.ts, lif,
                                         "dsf.encoder")
            ssa_out = ag.mul(ssa_forward_full(re_encoded, model.ssa_params, lif), readout.gain)
            h_ssa = ag.matmul(ssa_out, readout.proj)
            feat_seq = h_ssa if ab == "W3" else gate_fuse(h_lstm, h_ssa, model.gate_params)

    final = ag.take(feat_seq, t_frames - 1, axis=time_axis)
    pred = ag.add(ag.matmul(final, model.head.w), model.head.b)
    return ag.transpose(pred, (0, 2, 1))
