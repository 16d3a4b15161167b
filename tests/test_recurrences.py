"""Fused multi-step LIF and LSTM recurrences against their per-step oracles.

Forward results (spikes, hidden states) must be bit-identical to the per-step
forms in `per_step.py`.  Gradients are the same chain rule summed in another
order, so they are compared in float32 within a stated tolerance, relative to
the largest gradient entry of the oracle.
"""

import tracemalloc

import numpy as np
import pytest

import per_step
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


class TestFusedLif:
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

    def test_grad_check_refuses_fused_node(self):
        x = Tensor(np.array([[[0.3, -0.2]], [[0.9, 0.1]]], dtype=np.float32), requires_grad=True)
        for fn in (lambda t: lif_over_frames(t, LifParams()),
                   lambda t: encode_sequence(t, 3, LifParams())):
            assert ag.graph_has_custom(fn(x))
            with pytest.raises(ContractError):
                ag.grad_check(lambda t: ag.tsum(fn(t)), x)

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


class TestFusedLstm:
    @pytest.mark.parametrize("lead,t_frames,n,d_in,h_dim", [
        ((), 6, 3, 2, 4),
        ((2,), 9, 5, 3, 7),
        ((3,), 1, 2, 4, 5),
        ((2, 2), 5, 4, 6, 16),
    ])
    def test_matches_per_frame_oracle(self, lead, t_frames, n, d_in, h_dim):
        rng = np.random.default_rng(t_frames * 100 + h_dim)
        shape = lead + (t_frames, n, 4 * h_dim)
        gx = (rng.standard_normal(shape) * 1.5).astype(np.float32)
        wh = (rng.standard_normal((h_dim, 4 * h_dim)) / np.sqrt(h_dim)).astype(np.float32)
        weight = rng.standard_normal(lead + (t_frames, n, h_dim)).astype(np.float32)
        results = []
        for kernel in (dsf._lstm, per_step.lstm_recurrence):
            g_leaf = Tensor(gx.copy(), requires_grad=True)
            w_leaf = Tensor(wh.copy(), requires_grad=True)
            out = kernel(g_leaf, w_leaf)
            ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
            results.append((out.data, g_leaf.grad, w_leaf.grad))
        (h, d_gx, d_wh), (h_ref, d_gx_ref, d_wh_ref) = results
        np.testing.assert_array_equal(h, h_ref)
        assert rel_err(d_gx, d_gx_ref) < LSTM_GRAD_TOL
        assert rel_err(d_wh, d_wh_ref) < LSTM_GRAD_TOL

    def test_lstm_forward_parameter_grads_match_oracle(self, monkeypatch):
        rng = np.random.default_rng(60)
        params = LstmParams.init(5, 8, rng)
        x = (rng.random((2, 12, 3, 5)) < 0.4).astype(np.float32)
        grads = []
        for kernel in (dsf._lstm, per_step.lstm_recurrence):
            monkeypatch.setattr(dsf, "_lstm", kernel)
            for t in params.tensors().values():
                t.zero_grad()
            out = lstm_forward(Tensor(x), params)
            ag.backward(ag.tsum(ag.mul(out, out)))
            grads.append({k: t.grad.copy() for k, t in params.tensors().items()})
        for name in grads[0]:
            assert rel_err(grads[0][name], grads[1][name]) < LSTM_GRAD_TOL, name

    def test_no_grad_keeps_no_gate_buffer(self):
        rng = np.random.default_rng(61)
        gx = Tensor(rng.standard_normal((4, 256, 8, 64)).astype(np.float32), requires_grad=True)
        wh = Tensor((rng.standard_normal((16, 64)) * 0.2).astype(np.float32), requires_grad=True)
        out_bytes = gx.data.nbytes // 4
        with ag.no_grad():
            peak_off, out = traced_peak(lambda: dsf._lstm(gx, wh))
        assert out._backward is None
        peak_on, _ = traced_peak(lambda: dsf._lstm(gx, wh))
        assert peak_off < 1.25 * out_bytes      # the hidden states plus per-frame temporaries
        assert peak_on >= 6 * out_bytes         # plus four gate activations and the cells


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
        # each spike encoder is one node on its input
        model, batch = small_batch(ModelConfig())
        _, loss = train_step(model, batch)
        assert len(ag._topo_order(loss)) == 100
