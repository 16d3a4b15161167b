"""Per-layer operation counts of a counted forward, and the energy model."""

import numpy as np
import pytest

from spikestag import autograd as ag
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


@pytest.fixture(scope="module")
def counts():
    cfg = TINY_W4
    windows = make_windows(synth_generate(cfg.n_nodes, 80, seed=1), cfg.t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    counter = OpCounter()
    with counter, ag.no_grad():
        model.forward(windows.batch(windows.train_starts[:BATCH]), counter=counter)
    return counter.counts


def test_per_layer_counts_pinned(counts):
    got = {name: (lc.mac_ops, lc.ac_ops) for name, lc in counts.layers.items()}
    assert got == PINNED


def test_dense_fusion_macs_by_hand(counts):
    cfg = TINY_W4
    positions = BATCH * cfg.t_in * cfg.ts * cfg.n_nodes      # every frame of every node
    assert counts.layers["gate"].mac_ops == positions * (2 * cfg.h_dim) * cfg.h_dim
    assert counts.layers["ssa.proj"].mac_ops == positions * cfg.d_k * cfg.h_dim
    assert counts.layers["head"].mac_ops == BATCH * cfg.n_nodes * cfg.h_dim * cfg.horizon


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
