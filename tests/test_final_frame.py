"""The fusion tail computed at the final frame against the full-sequence oracle.

`ForecastModel.forward` runs spiking attention, the attention projection and
the gate only for the frame the head reads; `per_step.full_sequence_forward`
runs them over every frame and then selects that frame.  Spikes and op
counts must be identical.  The attention readout is the same sum formed by
a smaller matrix product, so predictions and gradients are compared in
float32 within a stated tolerance; W1 has no attention and must match bit
for bit.
"""

import numpy as np
import pytest

import per_step
from spikestag import autograd as ag
from spikestag import model as model_module
from spikestag import spiking
from spikestag.data import make_windows, synth_generate
from spikestag.energy import OpCounter
from spikestag.model import ForecastModel, ModelConfig, mse_loss

# |final frame - full sequence|: predictions absolute, gradients relative to
# the largest entry of the oracle's gradient.  Observed maxima over these
# tests: predictions 3.6e-6, gradients 1.0e-6.
PRED_TOL = 1e-5
GRAD_TOL = 1e-5
SSA_SCALE = 3.0
FUSED_LIF = spiking._lif


def rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


def make_model(ablation, ts):
    cfg = ModelConfig(t_in=24, ts=ts, ablation=ablation)
    ds = synth_generate(cfg.n_nodes, cfg.t_in + cfg.horizon + 40, cfg.seed)
    windows = make_windows(ds, cfg.t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    if ablation != "W1":
        model.ssa_scale = SSA_SCALE
    return model, windows.batch(windows.train_starts[:3])


def run(forward, ablation, ts, monkeypatch):
    """Predictions, spike trains and parameter gradients of one train step,
    then the spike trains and per-layer op counts of one counted no-grad
    forward.

    A no-grad forward may run its LIF layers chunk by chunk, every layer once
    per chunk in the order of the taped forward; each layer's chunks are
    joined on the frame axis, so every frame is compared.
    """
    spikes = []

    def recorded(*args, **kwargs):
        out = FUSED_LIF(*args, **kwargs)
        spikes.append(out.data.copy())
        return out

    monkeypatch.setattr(spiking, "_lif", recorded)
    model, batch = make_model(ablation, ts)
    pred = forward(model, batch)
    model.zero_grad()
    ag.backward(mse_loss(pred, batch.normalized_targets()))
    grads = {k: t.grad for k, t in model.parameters().items()}
    n_layers = len(spikes)
    counter = OpCounter()
    with counter, ag.no_grad():
        forward(model, batch, counter=counter)
    layers = {name: vars(lc) for name, lc in counter.counts.layers.items()}
    chunks = spikes[n_layers:]
    assert len(chunks) % n_layers == 0
    spikes[n_layers:] = [np.concatenate(chunks[i::n_layers], axis=-3) for i in range(n_layers)]
    return pred.data, spikes, grads, layers


@pytest.mark.parametrize("ts", [4, 8])
@pytest.mark.parametrize("ablation", ["W1", "W2", "W3", "W4"])
def test_matches_full_sequence_oracle(ablation, ts, monkeypatch):
    pred, spikes, grads, layers = run(ForecastModel.forward, ablation, ts, monkeypatch)
    pred_ref, spikes_ref, grads_ref, layers_ref = run(
        per_step.full_sequence_forward, ablation, ts, monkeypatch)
    assert len(spikes) == len(spikes_ref) > 0
    for s, s_ref in zip(spikes, spikes_ref):
        np.testing.assert_array_equal(s, s_ref)
    assert layers == layers_ref
    assert grads.keys() == grads_ref.keys()
    if ablation == "W1":
        np.testing.assert_array_equal(pred, pred_ref)
    else:
        assert np.abs(pred - pred_ref).max() < PRED_TOL
    for name, g in grads.items():
        g_ref = grads_ref[name]
        assert (g is None) == (g_ref is None), name
        if g is None:
            continue
        if ablation == "W1":
            np.testing.assert_array_equal(g, g_ref, err_msg=name)
        else:
            assert rel_err(g, g_ref) < GRAD_TOL, name


def test_scale_calibrated_on_final_frame_readout(monkeypatch):
    readouts = []
    ssa_forward = model_module.ssa_forward

    def captured(*args, **kwargs):
        out = ssa_forward(*args, **kwargs)
        if out is not None:     # a chunked forward reads out after its last chunk
            readouts.append(out.data)
        return out

    monkeypatch.setattr(model_module, "ssa_forward", captured)
    model, batch = make_model("W3", 4)
    model.ssa_scale = None
    with ag.no_grad():
        model.forward(batch)
    (readout,) = readouts
    cfg = model.config
    assert readout.shape == (batch.batch_size, 1, cfg.n_nodes, cfg.d_k)
    assert model.ssa_scale == float(1.0 / (readout.std() + 1e-6))
