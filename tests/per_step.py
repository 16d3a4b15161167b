"""Per-step reference implementations of the LIF and LSTM recurrences, and
the full-sequence form of the dual-path fusion tail.

The recurrences are the frame-by-frame forms the fused multi-step kernels
replaced: every frame records its own tape nodes (select, add, Heaviside,
reset blend, stack; gate slices, sigmoids and products for the LSTM).  Tests
use them as oracles: the fused kernels must reproduce their spikes and hidden
states bit for bit and their gradients within float32 tolerance.
`lif_kernel` and `lstm_recurrence` take the arguments of `spiking._lif` and
`dsf._lstm`, so a test can patch them in for the fused kernels.

`full_sequence_forward` is the model forward that runs spiking attention,
the gate and the attention projection over every frame and then selects the
final one; the model computes that final frame alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.dsf import attention_core, gate_fuse, lstm_forward
from spikestag.errors import ContractError, ShapeError
from spikestag.mssa import mssa_forward
from spikestag.obs import obs_forward
from spikestag.spiking import LifParams, SpikeTrain, encode_sequence, surrogate_grad
from spikestag.spiking import lif_over_frames as fused_lif_over_frames


@dataclass
class LifState:
    """Carried membrane internal state H, same shape as the input current."""

    h: Tensor

    @classmethod
    def zeros(cls, shape, dtype=np.float32) -> "LifState":
        return cls(Tensor(np.zeros(shape, dtype=dtype), dtype=dtype))


def heaviside_surrogate(x: Tensor, alpha: float = 2.0, shift: float = 0.0) -> Tensor:
    """step(x - shift) forward (step(0) = 1), surrogate derivative backward; flagged custom."""
    arr = x.data
    data = (arr >= shift).astype(arr.dtype)

    def bw(g):
        x._accum_own(g * surrogate_grad(arr - shift, alpha).astype(arr.dtype))

    return ag._result(data, (x,), bw, "heaviside", custom=True)


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
        s, state = lif_step(lif, state, ag.select_index(potentials, t, axis=time_axis))
        frames.append(s)
    return ag.stack(frames, axis=time_axis)


def spike_encode(h: Tensor, ts: int, params: LifParams) -> SpikeTrain:
    """`ts` frames of a fresh neuron driven by the constant input `h` (leading frame axis)."""
    if ts < 1:
        raise ContractError(f"spike_encode: ts must be >= 1, got {ts}")
    state = LifState(Tensor(np.zeros_like(h.data), dtype=h.data.dtype))
    frames = []
    for _ in range(ts):
        s, state = lif_step(params, state, h)
        frames.append(s)
    return SpikeTrain(ag.stack(frames, axis=0))


def lif_kernel(x: Tensor, lif: LifParams, steps: int | None = None) -> Tensor:
    """Per-step stand-in for `spiking._lif`."""
    if steps is None:
        return lif_over_frames(x, lif)
    return spike_encode(x, steps, lif).values


def lstm_recurrence(gates_x: Tensor, wh: Tensor) -> Tensor:
    """Per-frame stand-in for `dsf._lstm`: zero initial states, gate order (i, f, g, o)."""
    h_dim = wh.shape[0]
    time_axis = gates_x.data.ndim - 3
    state_shape = gates_x.shape[:-3] + (gates_x.shape[-2], h_dim)
    dtype = gates_x.data.dtype
    h = Tensor(np.zeros(state_shape, dtype=dtype), dtype=dtype)
    c = Tensor(np.zeros(state_shape, dtype=dtype), dtype=dtype)
    outs = []
    for t in range(gates_x.shape[-3]):
        g = ag.add(ag.select_index(gates_x, t, axis=time_axis), ag.matmul(h, wh))
        i_g = ag.sigmoid(ag.narrow(g, -1, 0, h_dim))
        f_g = ag.sigmoid(ag.narrow(g, -1, h_dim, h_dim))
        g_g = ag.tanh(ag.narrow(g, -1, 2 * h_dim, h_dim))
        o_g = ag.sigmoid(ag.narrow(g, -1, 3 * h_dim, h_dim))
        c = ag.add(ag.mul(f_g, c), ag.mul(i_g, g_g))
        h = ag.mul(o_g, ag.tanh(c))
        outs.append(h)
    return ag.stack(outs, axis=time_axis)


def ssa_forward_full(s: SpikeTrain, params, lif: LifParams, counter=None,
                     layer: str = "ssa") -> Tensor:
    """Spiking self-attention read out at every frame, (..., T', N, d_k)."""
    x = s.values
    projections = {}
    for name, w in (("q", params.w_q), ("k", params.w_k), ("v", params.w_v)):
        projections[name] = fused_lif_over_frames(ag.matmul(x, w), lif)
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


def full_sequence_forward(model, batch, counter=None) -> Tensor:
    """`ForecastModel.forward` with the fusion tail over all T' frames.

    Attention, the attention projection and the gate produce every frame,
    the head reads the final one.  An unset `model.ssa_scale` is calibrated
    over all frames of the attention readout.
    """
    cfg = model.config
    lif = cfg.lif()
    z = Tensor(batch.normalized_inputs())
    x = model.embed_inputs(z, batch.input_times)
    b, t, n, f = x.shape
    graph = model.build_graph()
    if counter is not None:
        counter.add_dense("adjacency", macs=n * n * cfg.emb_dim)
        s1_sizes = sum(len(s) for s in graph.samples_local)
        counter.add_dense("obs", macs=b * t * (3 * n * f * f + 2 * s1_sizes * f))
    x_obs = obs_forward(x, graph.samples_local, model.obs_params)
    s_mssa = mssa_forward(x_obs, graph, model.hop_weights, lif, cfg.ts, counter=counter)

    t_frames = t * cfg.ts
    time_axis = x.data.ndim - 3
    ab = cfg.ablation
    if ab == "W2":
        ssa_out = model._scaled_ssa(ssa_forward_full(s_mssa, model.ssa_params, lif, counter))
        feat_seq = ag.matmul(ssa_out, model.ssa_proj)
        if counter is not None:
            counter.add_dense("ssa.proj", macs=b * t_frames * n * cfg.d_k * cfg.h_dim)
    else:
        h_lstm = lstm_forward(s_mssa, model.lstm_params, counter=counter)
        if ab == "W1":
            feat_seq = h_lstm
        else:
            boundary = np.arange(cfg.ts - 1, t_frames, cfg.ts, dtype=np.intp)
            re_encoded = encode_sequence(ag.take(h_lstm, boundary, axis=time_axis), cfg.ts, lif)
            if counter is not None:
                counter.add_lif("dsf.encoder", neurons_steps=re_encoded.values.data.size)
                counter.observe_spikes("dsf.encoder", re_encoded.values.data)
            ssa_out = model._scaled_ssa(ssa_forward_full(re_encoded, model.ssa_params, lif, counter))
            h_ssa = ag.matmul(ssa_out, model.ssa_proj)
            if counter is not None:
                counter.add_dense("ssa.proj", macs=b * t_frames * n * cfg.d_k * cfg.h_dim)
            if ab == "W3":
                feat_seq = h_ssa
            else:
                feat_seq = gate_fuse(h_lstm, h_ssa, model.gate_params)
                if counter is not None:
                    counter.add_dense("gate", macs=b * t_frames * n * 2 * cfg.h_dim * cfg.h_dim)

    final = ag.select_index(feat_seq, t_frames - 1, axis=time_axis)
    pred = ag.add(ag.matmul(final, model.head_w), model.head_b)
    if counter is not None:
        counter.add_dense("head", macs=b * n * cfg.h_dim * cfg.horizon)
    return ag.transpose(pred, (0, 2, 1))
