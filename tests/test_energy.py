"""Per-layer operation counts of a counted forward, and the energy model."""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from spikestag import autograd as ag
from spikestag import dsf, mssa, obs, spiking
from spikestag import model as model_module
from spikestag.autograd import Tensor
from spikestag.data import make_windows, synth_generate
from spikestag.energy import OpCounter, OpCounts, estimate_energy
from spikestag.errors import ContractError
from spikestag.model import ForecastModel, ModelConfig

TINY_W4 = ModelConfig(n_nodes=6, t_in=12, horizon=2, ts=2, d1=8, d2=8, h_dim=12, d_k=8,
                      emb_dim=8, seed=1)
BATCH = 3

# (MAC, AC) per layer for one counted forward of TINY_W4 on the first three
# training windows of the seed-1 synthetic series.  Recorded from the model
# that ran attention, the gate and the attention projection over every frame;
# the counts describe that full-sequence fusion, so they must not move when
# the kernels compute less.
PINNED = {
    "adjacency": (288, 0),
    "obs": (60912, 0),
    "mssa.encoder": (0, 3888),
    "mssa.hop1": (0, 22848),
    "mssa.hop2": (0, 16808),
    "lstm.input": (0, 68160),
    "lstm.recurrent": (248832, 0),
    "dsf.encoder": (0, 5184),
    "ssa.q": (0, 11976),
    "ssa.k": (0, 11976),
    "ssa.v": (0, 11976),
    "ssa": (0, 57782),
    "ssa.proj": (41472, 0),
    "gate": (124416, 0),
    "head": (432, 0),
}


def _without(*names):
    return {k: v for k, v in PINNED.items() if k not in names}


# The other variants, as differences from W4.  W2's attention reads the hop-2
# spikes instead of re-encoded LSTM states, so its attention counts differ.
PINNED_VARIANTS = {
    "W1": _without("dsf.encoder", "ssa.q", "ssa.k", "ssa.v", "ssa", "ssa.proj", "gate"),
    "W2": {**_without("lstm.input", "lstm.recurrent", "dsf.encoder", "gate"),
           "ssa.q": (0, 14816), "ssa.k": (0, 14816), "ssa.v": (0, 14816), "ssa": (0, 39029)},
    "W3": _without("gate"),
}


def model_and_batch(cfg=TINY_W4):
    windows = make_windows(synth_generate(cfg.n_nodes, 80, seed=1), cfg.t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    return model, windows.batch(windows.train_starts[:BATCH])


def counted_forward(cfg):
    """Counts of one forward, counted as the benchmark does: inside its own
    `with counter`, which the forward enters a second time."""
    model, batch = model_and_batch(cfg)
    counter = OpCounter()
    with counter, ag.no_grad():
        model.forward(batch, counter=counter)
    assert ag.set_observer(None) is None
    return counter.counts


def mac_ac(counts):
    return {name: (lc.mac_ops, lc.ac_ops) for name, lc in counts.layers.items()}


@pytest.fixture(scope="module")
def counts():
    return counted_forward(TINY_W4)


def test_per_layer_counts_pinned(counts):
    assert mac_ac(counts) == PINNED


@pytest.mark.parametrize("ablation", sorted(PINNED_VARIANTS))
def test_per_layer_counts_pinned_other_variants(ablation):
    assert mac_ac(counted_forward(replace(TINY_W4, ablation=ablation))) == PINNED_VARIANTS[ablation]


@pytest.mark.parametrize("graph", ["model", "partly_empty", "all_empty"])
def test_hop_events_count_every_gathered_spike(graph, monkeypatch):
    """Hop ACs are (spikes summed over every sample set) * width + one per LIF
    neuron; an empty set contributes nothing, and an all-empty graph counts."""
    model, batch = model_and_batch(replace(TINY_W4, ablation="W1"))
    n = model.config.n_nodes
    if graph != "model":
        local = [[] if graph == "all_empty" or i % 2 else [(i + 1) % n, (i + 3) % n]
                 for i in range(n)]
        model.graph = replace(model.graph, samples_local=local,
                              samples_semiglobal=[[] for _ in range(n)])
    reported = {}
    observe = OpCounter.spikes

    def record(self, layer, tensor):
        reported.setdefault(layer, []).append(tensor.data.copy())
        return observe(self, layer, tensor)

    monkeypatch.setattr(OpCounter, "spikes", record)
    counter = OpCounter()
    with ag.no_grad():
        model.forward(batch, counter=counter)
    # every frame a layer reported, its chunks joined on the frame axis
    seen = {layer: np.concatenate(chunks, axis=chunks[0].ndim - 3)
            for layer, chunks in reported.items()}
    for layer, src, sets, width in (
            ("mssa.hop1", "mssa.encoder", model.graph.samples_local, model.config.d1),
            ("mssa.hop2", "mssa.hop1", model.graph.samples_semiglobal, model.config.d2)):
        events = sum(float(seen[src][..., j, :].sum()) for s in sets for j in s)
        assert counter.counts.layers[layer].ac_ops == events * width + seen[layer].size


@pytest.mark.parametrize("kernel", ["lif_linear", "encode_sequence"])
def test_spiking_kernel_reports_its_output_once(kernel, monkeypatch):
    reported = []
    monkeypatch.setattr(OpCounter, "spikes",
                        lambda self, layer, tensor: reported.append((layer, tensor)))
    x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 3, 4)))
    lif = spiking.LifParams(u_th=0.5)
    with OpCounter():
        if kernel == "lif_linear":
            out = spiking.lif_linear(x, Tensor(np.ones((4, 2))), lif, layer="x")
        else:
            out = spiking.encode_sequence(x, 3, lif, "x")
    assert len(reported) == 1
    assert reported[0][0] == "x" and reported[0][1] is out


def test_parts_not_the_ablation_letter_decide_the_forward():
    """A W4 model whose config is swapped to W1 after construction still
    predicts and counts as the W4 model it holds the parts of."""
    model, batch = model_and_batch()

    def predict_and_count():
        counter = OpCounter()
        with ag.no_grad():
            model.forward(batch, counter=counter)
        return model.predict(batch), [(k, vars(lc)) for k, lc in counter.counts.layers.items()]

    pred, layers = predict_and_count()
    model.config = replace(model.config, ablation="W1")
    pred_w1, layers_w1 = predict_and_count()
    np.testing.assert_array_equal(pred_w1, pred)
    assert layers_w1 == layers and "gate" in dict(layers)


def test_a_counter_counts_one_forward():
    model, batch = model_and_batch()
    counter = OpCounter()
    with ag.no_grad():
        model.forward(batch, counter=counter)
        once = mac_ac(counter.counts)
        with pytest.raises(ContractError, match="counts one forward"):
            model.forward(batch, counter=counter)
    assert mac_ac(counter.counts) == once and counter.counts.batch_elements == BATCH
    assert ag.set_observer(None) is None


def test_dense_fusion_macs_by_hand(counts):
    cfg = TINY_W4
    positions = BATCH * cfg.t_in * cfg.ts * cfg.n_nodes      # every frame of every node
    assert counts.layers["gate"].mac_ops == positions * (2 * cfg.h_dim) * cfg.h_dim
    assert counts.layers["ssa.proj"].mac_ops == positions * cfg.d_k * cfg.h_dim
    assert counts.layers["head"].mac_ops == BATCH * cfg.n_nodes * cfg.h_dim * cfg.horizon


def test_counted_forward_needs_no_caller_setup():
    model, batch = model_and_batch()
    by_hand = OpCounter()
    by_hand.counts.param_count = model.param_count()
    by_hand.counts.batch_elements = batch.batch_size
    with by_hand, ag.no_grad():
        model.forward(batch, counter=by_hand)
    bare = OpCounter()
    with ag.no_grad():
        model.forward(batch, counter=bare)
    assert bare.counts.batch_elements == BATCH
    assert bare.counts.param_count == model.param_count() > 0
    assert estimate_energy(bare.counts) == estimate_energy(by_hand.counts)


def test_nested_entry_restores_no_observer():
    counter = OpCounter()
    with counter:
        with counter:
            pass
        assert ag.set_observer(counter) is counter      # the inner exit kept it
    assert ag.set_observer(None) is None


def test_raising_forward_leaves_no_observer(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("layer failed")

    monkeypatch.setattr(model_module, "lstm_forward", broken)
    model, batch = model_and_batch()
    counter = OpCounter()
    with pytest.raises(RuntimeError, match="layer failed"):
        with counter, ag.no_grad():
            model.forward(batch, counter=counter)
    assert ag.set_observer(None) is None


def test_uncounted_forward_reports_to_nobody(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("observer called with no counter installed")

    monkeypatch.setattr(OpCounter, "spikes", refuse)
    model, batch = model_and_batch()
    OpCounter()                     # a counter not entered installs nothing
    model.forward(batch)


@pytest.mark.parametrize("module", [mssa, dsf, obs])
def test_no_layer_takes_a_counter(module):
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if fn.__module__ == module.__name__:
            assert "counter" not in inspect.signature(fn).parameters, name


def test_energy_is_linear_in_counts():
    counts = OpCounts(batch_elements=2)
    counts.layer("a").mac_ops = 10.0
    counts.layer("a").twin_mac_ops = 30.0
    counts.layer("b").ac_ops = 100.0
    counts.layer("b").twin_mac_ops = 70.0
    report = estimate_energy(counts, e_mac=4.0, e_ac=1.0)
    # per window: (10 * 4 + 100 * 1) / 2 pJ spiking, 100 * 4 / 2 pJ twin
    assert report.total_mj == pytest.approx(70e-9)
    assert report.twin_total_mj == pytest.approx(200e-9)
    assert report.reduction_pct == pytest.approx(65.0)
    assert report.per_layer["b"]["ac_ops"] == 50.0
    with pytest.raises(ValueError):
        estimate_energy(counts, e_mac=0.0)
