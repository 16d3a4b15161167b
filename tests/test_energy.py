"""Per-layer operation counts of a counted forward, and the energy model."""

import inspect
from dataclasses import replace

import pytest

from spikestag import autograd as ag
from spikestag import dsf, mssa, obs
from spikestag import model as model_module
from spikestag.data import make_windows, synth_generate
from spikestag.energy import OpCounter, OpCounts, estimate_energy
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
    seen = {}
    count_forward = OpCounter.count_forward

    def snapshot(self, *args):
        seen.update(self._spikes)
        return count_forward(self, *args)

    monkeypatch.setattr(OpCounter, "count_forward", snapshot)
    counter = OpCounter()
    with ag.no_grad():
        model.forward(batch, counter=counter)
    for layer, src, sets, width in (
            ("mssa.hop1", "mssa.encoder", model.graph.samples_local, model.config.d1),
            ("mssa.hop2", "mssa.hop1", model.graph.samples_semiglobal, model.config.d2)):
        events = sum(float(seen[src][..., j, :].sum()) for s in sets for j in s)
        assert counter.counts.layers[layer].ac_ops == events * width + seen[layer].size


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
