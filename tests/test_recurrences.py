"""Fused multi-step LIF and LSTM recurrences against their per-step oracles.

Forward results (spikes, hidden states) must be bit-identical to the per-step
forms in `per_step.py`.  Gradients are the same chain rule summed in another
order, so they are compared in float32 within a stated tolerance, relative to
the largest gradient entry of the oracle.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import per_step
from gradcheck import fd_error
from spikestag import autograd as ag
from spikestag import dsf, spiking
from spikestag.autograd import Tensor
from spikestag.data import make_windows, synth_generate
from spikestag.dsf import LstmParams, lstm_forward
from spikestag.errors import ContractError
from spikestag.model import ForecastModel, ModelConfig, mse_loss
from spikestag.spiking import LifParams, encode_sequence, lif_over_frames

# float32 gradient agreement, |fused - oracle| / max|oracle|.  Observed maxima
# over these tests: LIF 2.8e-7, LSTM 3.5e-7, a whole default-config model step
# (up to seven LIF layers, the LSTM and attention chained) 8.7e-7.
LIF_GRAD_TOL = 1e-5
LSTM_GRAD_TOL = 3e-5
MODEL_GRAD_TOL = 3e-5


def rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


def random_lif(rng, beta=None, u_reset=None):
    u_reset = float(rng.uniform(-0.3, 0.3)) if u_reset is None else u_reset
    return LifParams(beta=float(rng.uniform(0.2, 0.95)) if beta is None else beta,
                     u_th=u_reset + float(rng.uniform(0.2, 1.2)),
                     u_reset=u_reset, alpha=float(rng.uniform(1.0, 4.0)))


def forward_backward(fn, x, weight):
    """fn(x) and d(sum(out * weight))/dx for a fresh leaf copy of x."""
    leaf = Tensor(x.copy(), requires_grad=True)
    out = fn(leaf)
    ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
    return out.data, leaf.grad


LIF_SHAPES = [(7, 3, 2), (2, 9, 4, 5), (3, 2, 16, 6, 3)]
LIF_PARAMS = [
    {},
    {"beta": 1.0},
    {"u_reset": 0.2},
    {"u_reset": -0.25, "beta": 1.0},
]


# the kinds of LIF input entry: a drawn value, or an edge value that the
# in-place update must treat exactly as the per-step oracle does
DRAWN, POS_ZERO, NEG_ZERO, POS_SUBNORMAL, NEG_SUBNORMAL, AT_TH, AT_TH_MINUS_H = range(7)
SUBNORMAL = float(np.finfo(np.float32).smallest_subnormal)


def edge_inputs(kinds, values, lif, steps):
    """Float32 LIF input with one entry per (..., T, N, d) kind code and drawn value.

    An AT_TH_MINUS_H entry of frame t is u_th - H[t-1] for the state the
    neuron carries into that frame, so U[t] lands on the threshold up to the
    rounding of the sum.  With `steps` every step drives a fresh neuron, so
    such an entry is u_th / (1 + beta) instead: the second sub-step without a
    spike, U = x + beta x, lands there.
    """
    x = values.copy()
    for kind, value in ((POS_ZERO, 0.0), (NEG_ZERO, -0.0), (POS_SUBNORMAL, SUBNORMAL),
                        (NEG_SUBNORMAL, -SUBNORMAL), (AT_TH, lif.u_th)):
        x[kinds == kind] = value
    at = kinds == AT_TH_MINUS_H
    if steps is not None:
        x[at] = np.float32(lif.u_th) / np.float32(1.0 + lif.beta)
        return x
    h = np.zeros(x.shape[:-3] + x.shape[-2:], dtype=np.float32)
    for x_t, at_t in zip(np.moveaxis(x, -3, 0), np.moveaxis(at, -3, 0)):
        x_t[at_t] = (np.float32(lif.u_th) - h)[at_t]
        u = x_t + h
        s = (u >= lif.u_th).astype(np.float32)
        h = (lif.beta * u) * (1.0 - s) + lif.u_reset * s
    return x


class TestFusedLif:
    @pytest.mark.parametrize("steps", [None, 3])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("u_reset", [0.0, -0.0, 0.2, -0.25])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_edge_inputs_match_per_step_oracle(self, u_reset, beta, steps, data):
        """No-grad, taped and per-step spikes are bit-equal on ±0, subnormal
        and at-threshold inputs; the gradient agrees within LIF_GRAD_TOL."""
        lif = LifParams(beta=beta, u_th=data.draw(st.sampled_from([0.25, 1.0])),
                        u_reset=u_reset)
        shape = (data.draw(st.sampled_from([(), (2,)]))
                 + tuple(data.draw(st.integers(1, n)) for n in (6, 3, 3)))
        kinds = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(DRAWN, AT_TH_MINUS_H)))
        values = data.draw(hnp.arrays(np.float32, shape,
                                      elements=st.floats(-1.0, 2.0, width=32)))
        x = edge_inputs(kinds, values, lif, steps)
        out_shape = shape if steps is None else shape[:-3] + (shape[-3] * steps,) + shape[-2:]
        weight = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
            out_shape).astype(np.float32)
        with ag.no_grad():
            s_no_grad = spiking._lif(Tensor(x), lif, steps).data
        s, gx = forward_backward(lambda t: spiking._lif(t, lif, steps), x, weight)
        s_ref, gx_ref = forward_backward(lambda t: per_step.lif_kernel(t, lif, steps), x, weight)
        np.testing.assert_array_equal(s_no_grad, s_ref)
        np.testing.assert_array_equal(s, s_ref)
        assert rel_err(gx, gx_ref) < LIF_GRAD_TOL

    @pytest.mark.parametrize("shape", LIF_SHAPES)
    @pytest.mark.parametrize("overrides", LIF_PARAMS)
    def test_frames_match_per_step_oracle(self, shape, overrides):
        rng = np.random.default_rng(len(shape) * 10 + len(overrides))
        for _ in range(5):
            lif = random_lif(rng, **overrides)
            x = rng.uniform(-1.0, 2.0, size=shape).astype(np.float32)
            weight = rng.standard_normal(shape).astype(np.float32)
            s, gx = forward_backward(lambda t: lif_over_frames(t, lif), x, weight)
            s_ref, gx_ref = forward_backward(lambda t: per_step.lif_over_frames(t, lif), x, weight)
            np.testing.assert_array_equal(s, s_ref)
            assert rel_err(gx, gx_ref) < LIF_GRAD_TOL

    @pytest.mark.parametrize("overrides", LIF_PARAMS)
    def test_constant_input_matches_per_step_oracle(self, overrides):
        rng = np.random.default_rng(40 + len(overrides))
        for ts in (1, 2, 5, 8):
            lif = random_lif(rng, **overrides)
            shape = (3, 4, 6, 2)
            x = rng.uniform(-1.0, 2.0, size=shape).astype(np.float32)
            weight = rng.standard_normal((3, 4 * ts, 6, 2)).astype(np.float32)
            s, gx = forward_backward(lambda t: encode_sequence(t, ts, lif), x, weight)
            s_ref, gx_ref = forward_backward(
                lambda t: per_step.encode_steps(t, ts, lif), x, weight)
            np.testing.assert_array_equal(s, s_ref)
            assert rel_err(gx, gx_ref) < LIF_GRAD_TOL

    @pytest.mark.parametrize("shape", LIF_SHAPES)
    @pytest.mark.parametrize("overrides", LIF_PARAMS)
    def test_carry_splits_the_sequence_bit_for_bit(self, shape, overrides):
        """Two calls with one carried H give the spikes and the final H of
        one call over the whole sequence, wherever the cut falls."""
        rng = np.random.default_rng(70 + len(shape) * 10 + len(overrides))
        lif = random_lif(rng, **overrides)
        x = rng.uniform(-1.0, 2.0, size=shape).astype(np.float32)
        t_axis = len(shape) - 3
        state = shape[:t_axis] + shape[t_axis + 1:]
        h_whole = np.zeros(state, dtype=np.float32)
        with ag.no_grad():
            s_whole = spiking._lif(Tensor(x), lif, carry=h_whole).data
            np.testing.assert_array_equal(spiking._lif(Tensor(x), lif).data, s_whole)
            for cut in range(1, shape[t_axis]):
                h = np.zeros(state, dtype=np.float32)
                parts = [spiking._lif(Tensor(part), lif, carry=h).data
                         for part in np.split(x, [cut], axis=t_axis)]
                assert np.concatenate(parts, axis=t_axis).tobytes() == s_whole.tobytes()
                assert h.tobytes() == h_whole.tobytes()

    def test_carry_refused_on_taped_or_sub_step_call(self):
        x = Tensor(np.full((3, 2, 4), 0.6, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError, match="carried state"):
            spiking._lif(x, LifParams(), carry=np.zeros((2, 4), dtype=np.float32))
        with ag.no_grad(), pytest.raises(ContractError, match="carried state"):
            spiking._lif(x, LifParams(), steps=2, carry=np.zeros((2, 4), dtype=np.float32))
        with ag.no_grad(), pytest.raises(ContractError, match="carried state"):
            spiking._lif(x, LifParams(), carry=np.zeros((4, 2), dtype=np.float32))

    def test_grad_check_refuses_fused_node(self):
        x = Tensor(np.array([[[0.3, -0.2]], [[0.9, 0.1]]], dtype=np.float32), requires_grad=True)
        for fn in (lambda t: lif_over_frames(t, LifParams()),
                   lambda t: encode_sequence(t, 3, LifParams())):
            assert fn(x)._op == "lif"
            with pytest.raises(ContractError, match="lif"):
                fd_error(lambda t: ag.tsum(fn(t)), x)

    def test_input_gradient_has_no_subnormals(self):
        # a gradient only at the last frame decays by about beta per frame
        # on the way back, through the subnormal range
        x = Tensor(np.full((400, 2, 3), 0.1, dtype=np.float32), requires_grad=True)
        weight = np.zeros((400, 2, 3), dtype=np.float32)
        weight[-1] = 1.0
        ag.backward(ag.tsum(ag.mul(lif_over_frames(x, LifParams(u_th=1.0)), Tensor(weight))))
        tiny = np.finfo(np.float32).tiny
        assert np.abs(x.grad[-1]).min() > tiny
        assert np.all((x.grad == 0.0) | (np.abs(x.grad) >= tiny))

    def test_no_grad_keeps_no_membrane_buffer(self):
        rng = np.random.default_rng(50)
        x = Tensor(rng.uniform(-1, 2, size=(4, 64, 8, 16)).astype(np.float32), requires_grad=True)
        out_bytes = x.data.nbytes
        with ag.no_grad():
            peak_off, out = traced_peak(lambda: lif_over_frames(x, LifParams()))
        assert out._backward is None
        peak_on, _ = traced_peak(lambda: lif_over_frames(x, LifParams()))
        assert peak_off < 1.25 * out_bytes      # the spikes plus per-frame temporaries
        assert peak_on >= 2 * out_bytes         # the spikes plus U for the backward

    def test_chain_backward_frees_each_layer(self):
        # each layer's gradient and U go once its backward has run, so the
        # peak stays near three arrays of this size (the top layer's gradient
        # and two working arrays); keeping every layer's gradient until
        # backward returns costs about seven
        rng = np.random.default_rng(52)
        x = Tensor(rng.uniform(-1, 2, size=(4, 64, 8, 16)).astype(np.float32), requires_grad=True)

        def chain():
            s = x
            for _ in range(4):
                s = lif_over_frames(s, LifParams())
            assert 0.0 < s.data.mean() < 1.0
            return ag.tsum(s)

        assert backward_peak(chain) < 3.5 * x.data.nbytes

    def test_encoding_holds_spikes_and_membrane_only(self):
        # the frames are written in time order, so no reordered copy is kept
        rng = np.random.default_rng(51)
        x = Tensor(rng.uniform(-1, 2, size=(4, 32, 8, 16)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = encode_sequence(x, 4, LifParams())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert held < 2.5 * out.data.nbytes


def traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def backward_peak(build_loss):
    """Peak traced during the backward of `build_loss()`, above the level its forward left."""
    tracemalloc.start()
    try:
        loss = build_loss()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ag.backward(loss)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def lstm_weights(rng, d_in, h_dim):
    """Fused (wx, b, wh) arrays in gate order (i, f, g, o)."""
    wx = (rng.standard_normal((d_in, 4 * h_dim)) / np.sqrt(d_in)).astype(np.float32)
    b = (rng.standard_normal(4 * h_dim) * 0.5).astype(np.float32)
    wh = (rng.standard_normal((h_dim, 4 * h_dim)) / np.sqrt(h_dim)).astype(np.float32)
    return wx, b, wh


class TestFusedLstm:
    # T' = 70 crosses two boundaries of the LSTM_CHUNK-frame gate buffer
    @pytest.mark.parametrize("lead,t_frames,n,d_in,h_dim", [
        ((), 6, 3, 2, 4),
        ((2,), 9, 5, 3, 7),
        ((3,), 1, 2, 4, 5),
        ((2, 2), 5, 4, 6, 16),
        ((2,), 70, 3, 5, 6),
    ])
    def test_matches_per_frame_oracle(self, lead, t_frames, n, d_in, h_dim):
        assert 70 > dsf.LSTM_CHUNK
        rng = np.random.default_rng(t_frames * 100 + h_dim)
        x = (rng.standard_normal(lead + (t_frames, n, d_in)) * 1.5).astype(np.float32)
        arrays = (x,) + lstm_weights(rng, d_in, h_dim)
        for stride in (1, 3, t_frames):
            weight = rng.standard_normal(
                lead + (t_frames // stride, n, h_dim)).astype(np.float32)
            results = []
            for kernel in (dsf._lstm, per_step.lstm_recurrence):
                leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
                out = kernel(*leaves, stride)
                ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
                results.append((out.data, [leaf.grad for leaf in leaves]))
                # the sigmoid fold halves copies of the weights, never the weights
                for leaf, a in zip(leaves, arrays):
                    assert leaf.data.tobytes() == a.tobytes()
            with ag.no_grad():
                leaves = [Tensor(a.copy()) for a in arrays]
                h_no_grad = dsf._lstm(*leaves, stride).data
            for leaf, a in zip(leaves, arrays):
                assert leaf.data.tobytes() == a.tobytes()
            (h, grads), (h_ref, grads_ref) = results
            np.testing.assert_array_equal(h, h_ref)
            np.testing.assert_array_equal(h_no_grad, h_ref)
            for name, g, g_ref in zip(("x", "wx", "b", "wh"), grads, grads_ref):
                assert rel_err(g, g_ref) < LSTM_GRAD_TOL, (stride, name)

    @pytest.mark.parametrize("stride", [1, 5])
    def test_carry_splits_the_sequence_bit_for_bit(self, stride):
        """Two calls with one carried (h, c) give the hidden states and the
        final (h, c) of one call, for cuts on and across LSTM_CHUNK."""
        rng = np.random.default_rng(63 + stride)
        n, d_in, h_dim = 3, 5, 6
        x = (rng.random((2, 70, n, d_in)) < 0.4).astype(np.float32)
        weights = [Tensor(a) for a in lstm_weights(rng, d_in, h_dim)]

        def run(parts):
            state = tuple(np.zeros((h_dim, 2 * n), dtype=np.float32) for _ in range(2))
            outs = [dsf._lstm(Tensor(part), *weights, stride, state).data for part in parts]
            return np.concatenate(outs, axis=1), state

        with ag.no_grad():
            out, (h, c) = run([x])
            np.testing.assert_array_equal(dsf._lstm(Tensor(x), *weights, stride).data, out)
            # the carried h is the last hidden state, gate-major
            last = dsf._lstm(Tensor(x), *weights, 70).data
            assert h.T.tobytes() == last.reshape(2 * n, h_dim).tobytes()
            # a cut falls on a stride boundary, as the model's chunks do
            for cut in (c for c in (5, dsf.LSTM_CHUNK, 35, 40, 65) if c % stride == 0):
                out_cut, (h_cut, c_cut) = run(np.split(x, [cut], axis=1))
                assert out_cut.tobytes() == out.tobytes(), cut
                assert h_cut.tobytes() == h.tobytes() and c_cut.tobytes() == c.tobytes(), cut

    def test_carry_refused_on_taped_call(self):
        rng = np.random.default_rng(64)
        wx, b, wh = lstm_weights(rng, 2, 3)
        x = Tensor(np.ones((1, 4, 2, 2), dtype=np.float32))
        state = (np.zeros((3, 2), dtype=np.float32), np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(ContractError, match="carried state"):
            dsf._lstm(x, Tensor(wx, requires_grad=True), Tensor(b), Tensor(wh), 1, state)
        with ag.no_grad(), pytest.raises(ContractError, match="carried state"):
            dsf._lstm(x, Tensor(wx), Tensor(b), Tensor(wh), 1, (state[0], state[1].T))

    def test_lstm_forward_parameter_grads_match_oracle(self, monkeypatch):
        rng = np.random.default_rng(60)
        params = LstmParams.init(5, 8, rng)
        x = (rng.random((2, 12, 3, 5)) < 0.4).astype(np.float32)
        for stride in (1, 4):
            grads = []
            for kernel in (dsf._lstm, per_step.lstm_recurrence):
                monkeypatch.setattr(dsf, "_lstm", kernel)
                for t in params.tensors().values():
                    t.zero_grad()
                out = lstm_forward(Tensor(x), params, stride)
                ag.backward(ag.tsum(ag.mul(out, out)))
                grads.append({k: t.grad.copy() for k, t in params.tensors().items()})
            for name in grads[0]:
                assert rel_err(grads[0][name], grads[1][name]) < LSTM_GRAD_TOL, (stride, name)

    def test_no_grad_keeps_no_gate_buffer(self):
        rng = np.random.default_rng(61)
        params = LstmParams.init(16, 32, rng)
        x = Tensor((rng.random((4, 256, 8, 16)) < 0.4).astype(np.float32), requires_grad=True)
        gates_bytes = x.data.size // 16 * 4 * 32 * 4      # (4, 256, 8, 4h) float32
        with ag.no_grad():
            peak_off, out = traced_peak(lambda: lstm_forward(x, params, 4))
        assert out._backward is None and out.shape == (4, 64, 8, 32)
        assert peak_off < gates_bytes / 4
        # the tape keeps the four gate activations, the cells and the hidden states
        peak_on, out = traced_peak(lambda: lstm_forward(x, params, 4))
        assert out._backward is not None
        assert peak_on >= 1.5 * gates_bytes

    def test_backward_reuses_gate_buffer(self):
        # dG is written over the gate activations and h_{t-1} over the cells,
        # so the backward allocates no (..., T', N, 4h) array of its own
        rng = np.random.default_rng(62)
        params = LstmParams.init(16, 32, rng)
        x = Tensor((rng.random((4, 256, 8, 16)) < 0.4).astype(np.float32), requires_grad=True)
        gates_bytes = x.data.size // 16 * 4 * 32 * 4      # (4, 256, 8, 4h) float32
        peak = backward_peak(lambda: ag.tsum(lstm_forward(x, params, 4)))
        assert x.grad is not None and params.w_hi.grad is not None
        assert peak < gates_bytes / 2


def small_batch(cfg, size=2):
    ds = synth_generate(cfg.n_nodes, cfg.t_in + cfg.horizon + 40, cfg.seed)
    windows = make_windows(ds, cfg.t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    return model, windows.batch(windows.train_starts[:size])


def train_step(model, batch):
    pred = model.forward(batch)
    loss = mse_loss(pred, batch.normalized_targets())
    model.zero_grad()
    ag.backward(loss)
    return pred, loss


class TestModelStep:
    def test_default_config_matches_per_step_oracles(self, monkeypatch):
        """Predictions, every spike train and every parameter gradient of one
        default-config train step, fused kernels against per-step ones."""
        runs = []
        for lif_kernel, lstm_kernel in ((spiking._lif, dsf._lstm),
                                        (per_step.lif_kernel, per_step.lstm_recurrence)):
            spikes = []

            def recorded(*args, _kernel=lif_kernel, **kwargs):
                out = _kernel(*args, **kwargs)
                spikes.append(out.data.copy())
                return out

            monkeypatch.setattr(spiking, "_lif", recorded)
            monkeypatch.setattr(dsf, "_lstm", lstm_kernel)
            model, batch = small_batch(ModelConfig())
            pred, _ = train_step(model, batch)
            grads = {k: t.grad for k, t in model.parameters().items()}
            runs.append((pred.data, spikes, grads))
        (pred, spikes, grads), (pred_ref, spikes_ref, grads_ref) = runs
        np.testing.assert_array_equal(pred, pred_ref)
        assert len(spikes) == len(spikes_ref) == 7
        for s, s_ref in zip(spikes, spikes_ref):
            np.testing.assert_array_equal(s, s_ref)
        assert grads.keys() == grads_ref.keys()
        assert [k for k, g in grads.items() if g is None] == []
        for name, g in grads.items():
            if g is not None:
                assert rel_err(g, grads_ref[name]) < MODEL_GRAD_TOL, name

    def test_tape_size_independent_of_frame_count(self):
        cfg = ModelConfig(n_nodes=6, horizon=2, ts=2, d1=8, d2=8, h_dim=8, d_k=8,
                          emb_dim=8, batch_size=2)
        counts = []
        for t_in in (8, 16):
            model, batch = small_batch(ModelConfig(**{**cfg.__dict__, "t_in": t_in}))
            _, loss = train_step(model, batch)
            counts.append(len(ag._topo_order(loss)))
        assert counts[0] == counts[1]

    def test_default_step_tape_size(self):
        # each spike encoder is one node on its input, and the LSTM one node
        # on its spikes and fused weights that returns the frames read
        model, batch = small_batch(ModelConfig())
        _, loss = train_step(model, batch)
        assert len(ag._topo_order(loss)) == 98
