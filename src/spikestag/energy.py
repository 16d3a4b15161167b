"""Theoretical energy estimation via operation counting on 45nm coefficients.

Every counting rule lives here.  The model's layers only report their spikes:
the autograd observer receives the output of each spiking layer
(`mssa.encoder`, `mssa.hop1`, `mssa.hop2`, `dsf.encoder`, `ssa.q`, `ssa.k`,
`ssa.v`).  `OpCounter.count_forward` then derives every layer's tallies from
the model's config, its graph and those spikes.

Counting rules:
  * dense layers: input_width * output_width multiply-accumulates per
    position (MACs), from the config's shapes,
  * spike-driven projections: one accumulate per active input spike per
    output unit (ACs = active_spikes * fanout, measured on the batch),
  * LIF updates: one accumulate per neuron per sub-step,
  * spike attention: exact event counts for Q K^T (additions wherever a
    query bit and a key bit coincide on a channel) and for the score-weighted
    V readout (one accumulate per active V bit per query position).
Softmax and other elementwise bookkeeping are excluded, as is everything on
the testing-oracle path.

Counts describe the network the paper specifies, in which spiking attention,
the attention projection and the fusion gate produce every frame, not the
work of the numpy kernels: those compute the fusion tail only for the final
frame, which is all the head reads.  So attention counts every query frame
against every key frame, and the `ssa.proj` and `gate` MACs count all
T * ts frames.  Likewise every counted forward pays the `adjacency` MACs of
E E^T (N * N * emb_dim), although the model builds A only once, at
construction or load, and its forward reuses that graph.

Every layer also records what a structurally identical non-spiking twin would
spend: the same projection shapes counted as all-MAC, with the neighborhood
aggregation expanded to its dense matrix form.  The report compares the two.

Default coefficients are the conventional 45nm values E_mac = 4.6 pJ and
E_ac = 0.9 pJ; both are configurable and the acceptance checks depend only on
the relative reduction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag

E_MAC_PJ = 4.6
E_AC_PJ = 0.9


@dataclass
class LayerCount:
    mac_ops: float = 0.0
    ac_ops: float = 0.0
    twin_mac_ops: float = 0.0
    spike_total: float = 0.0
    spike_active: float = 0.0

    @property
    def spike_rate(self) -> float:
        return self.spike_active / self.spike_total if self.spike_total else 0.0


@dataclass
class OpCounts:
    """Per-layer op tallies for one counted forward pass."""

    layers: dict = field(default_factory=dict)
    param_count: int = 0
    batch_elements: int = 1

    def layer(self, name: str) -> LayerCount:
        return self.layers.setdefault(name, LayerCount())

    @property
    def total_mac(self) -> float:
        return sum(l.mac_ops for l in self.layers.values())

    @property
    def total_ac(self) -> float:
        return sum(l.ac_ops for l in self.layers.values())

    @property
    def total_twin_mac(self) -> float:
        return sum(l.twin_mac_ops for l in self.layers.values())


class OpCounter:
    """Counts the operations of a model forward into `counts`.

    Entered as a context manager it is the autograd observer (nesting is
    safe; leaving restores the previous one) and keeps the spikes each layer
    reports.  `ForecastModel.forward(batch, counter=...)` enters it and then
    calls `count_forward`.
    """

    def __init__(self):
        self.counts = OpCounts()
        self._spikes = {}      # layer -> spike array of the current forward
        self._prev = []        # observers to restore, one per open entry

    def __enter__(self):
        self._prev.append(ag.set_observer(self))
        return self

    def __exit__(self, *exc):
        ag.set_observer(self._prev.pop())
        return False

    # observer interface -----------------------------------------------------

    def spikes(self, layer: str, tensor) -> None:
        self._spikes[layer] = tensor.data

    # counting rules ---------------------------------------------------------

    def count_forward(self, model, b: int, t: int) -> OpCounts:
        """Add the tallies of the forward just run, on `b` windows of `t` steps.

        Reads `model.config`, `model.graph` and the reported spikes, which it
        then drops; also sets `batch_elements` and `param_count`.
        """
        cfg, graph, spikes = model.config, model.graph, self._spikes
        n, f, h = cfg.n_nodes, cfg.feature_width, cfg.h_dim
        positions = b * t * cfg.ts * n          # every frame of every node
        self._dense("adjacency", n * n * cfg.emb_dim)
        s1_sizes = sum(len(s) for s in graph.samples_local)
        self._dense("obs", b * t * (3 * n * f * f + 2 * s1_sizes * f))
        self._fire("mssa.encoder")
        x = spikes["mssa.encoder"]
        for layer, sets, width in (("mssa.hop1", graph.samples_local, cfg.d1),
                                   ("mssa.hop2", graph.samples_semiglobal, cfg.d2)):
            # node j's spikes are summed once per set that holds j
            in_degree = np.bincount(np.fromiter((j for s in sets for j in s), dtype=np.intp),
                                    minlength=n).astype(np.float64)
            per_node = x.sum(axis=-1, dtype=np.float64).reshape(-1, n).sum(axis=0)
            self._spike_proj(layer, float(per_node @ in_degree), x, width, n_nodes=n)
            self._fire(layer)
            x = spikes[layer]
        ab = cfg.ablation
        if ab != "W2":
            self._spike_proj("lstm.input", float(x.sum()), x, 4 * h)
            self._tally("lstm.input", x)
            self._dense("lstm.recurrent", positions * h * 4 * h)
        if ab in ("W3", "W4"):
            self._fire("dsf.encoder")
            x = spikes["dsf.encoder"]
        if ab != "W1":
            for layer in ("ssa.q", "ssa.k", "ssa.v"):
                self._spike_proj(layer, float(x.sum()), x, cfg.d_k)
                self._fire(layer)
            self._spike_attention("ssa", spikes["ssa.q"], spikes["ssa.k"], spikes["ssa.v"],
                                  cfg.d_k)
            self._dense("ssa.proj", positions * cfg.d_k * h)
        if ab == "W4":
            self._dense("gate", positions * 2 * h * h)
        self._dense("head", b * n * h * cfg.horizon)
        self.counts.batch_elements = b
        self.counts.param_count = model.param_count()
        self._spikes = {}
        return self.counts

    def _dense(self, layer: str, macs: float) -> None:
        lc = self.counts.layer(layer)
        lc.mac_ops += macs
        lc.twin_mac_ops += macs

    def _spike_proj(self, layer: str, events: float, x: np.ndarray, fanout: int,
                    n_nodes: int | None = None) -> None:
        """Event-driven projection of the spikes `x`: ACs for the spiking
        model, full MACs for the twin.

        `events` is the number of active input spikes feeding the projection.
        When `n_nodes` is given the layer is a neighborhood aggregation and
        the twin additionally pays the dense n-by-n product.
        """
        lc = self.counts.layer(layer)
        positions, width = int(np.prod(x.shape[:-1])), x.shape[-1]
        lc.ac_ops += events * fanout
        lc.twin_mac_ops += positions * width * fanout
        if n_nodes is not None:
            lc.twin_mac_ops += positions * n_nodes * width

    def _fire(self, layer: str) -> None:
        """The layer's LIF updates, one accumulate per neuron per frame, and
        its spike tallies."""
        self.counts.layer(layer).ac_ops += self._spikes[layer].size
        self._tally(layer, self._spikes[layer])

    def _tally(self, layer: str, spikes: np.ndarray) -> None:
        lc = self.counts.layer(layer)
        lc.spike_total += spikes.size
        lc.spike_active += float(spikes.sum())

    def _spike_attention(self, layer: str, q: np.ndarray, k: np.ndarray,
                         v: np.ndarray, d_k: int) -> None:
        """Exact event counts for binary-Q/K scoring and score-weighted V readout.

        Q, K and V hold every frame; every query frame is counted against
        every key frame, as in the full-sequence attention of the paper,
        whatever frames the attention kernel actually scores.
        """
        lc = self.counts.layer(layer)
        nd = q.ndim
        # per (leading..., node, channel): active count across frames
        q_counts = np.moveaxis(q, nd - 3, nd - 1).sum(axis=nd - 1)  # (..., N, d_k) frames summed
        k_counts = np.moveaxis(k, nd - 3, nd - 1).sum(axis=nd - 1)
        lc.ac_ops += float((q_counts * k_counts).sum())
        t_frames = q.shape[nd - 3]
        lc.ac_ops += float(v.sum()) * t_frames
        # twin: dense scores plus dense readout at the same shapes
        leading = int(np.prod(q.shape[:nd - 3], dtype=np.int64)) if nd > 3 else 1
        n_nodes = q.shape[nd - 2]
        lc.twin_mac_ops += 2.0 * leading * n_nodes * t_frames * t_frames * d_k


@dataclass
class EnergyReport:
    """Energy summary for a counted batch, per inference window."""

    total_mj: float
    twin_total_mj: float
    reduction_pct: float
    param_millions: float
    ops_g: float
    twin_ops_g: float
    per_layer: dict            # name -> dict(mac, ac, twin_mac, spike_rate, energy_mj)
    e_mac_pj: float
    e_ac_pj: float


def estimate_energy(counts: OpCounts, e_mac: float = E_MAC_PJ, e_ac: float = E_AC_PJ) -> EnergyReport:
    """Linear energy model over the counted ops, normalized per batch element."""
    if e_mac <= 0 or e_ac <= 0:
        raise ValueError("energy coefficients must be positive")
    b = max(counts.batch_elements, 1)
    per_layer = {}
    total_pj = 0.0
    twin_pj = 0.0
    for name, lc in sorted(counts.layers.items()):
        mac = lc.mac_ops / b
        acc = lc.ac_ops / b
        twin = lc.twin_mac_ops / b
        e = mac * e_mac + acc * e_ac
        per_layer[name] = {
            "mac_ops": mac,
            "ac_ops": acc,
            "twin_mac_ops": twin,
            "spike_rate": lc.spike_rate,
            "energy_mj": e / 1e9,
        }
        total_pj += e
        twin_pj += twin * e_mac
    reduction = 100.0 * (twin_pj - total_pj) / twin_pj if twin_pj > 0 else 0.0
    return EnergyReport(
        total_mj=total_pj / 1e9,
        twin_total_mj=twin_pj / 1e9,
        reduction_pct=reduction,
        param_millions=counts.param_count / 1e6,
        ops_g=(counts.total_mac + counts.total_ac) / b / 1e9,
        twin_ops_g=counts.total_twin_mac / b / 1e9,
        per_layer=per_layer,
        e_mac_pj=e_mac,
        e_ac_pj=e_ac,
    )


def write_report_text(report: EnergyReport, path) -> None:
    lines = [
        f"param_millions: {report.param_millions:.6f}",
        f"ops_g: {report.ops_g:.6f}",
        f"twin_ops_g: {report.twin_ops_g:.6f}",
        f"energy_mj: {report.total_mj:.9f}",
        f"twin_energy_mj: {report.twin_total_mj:.9f}",
        f"energy_reduction_pct: {report.reduction_pct:.4f}",
        f"e_mac_pj: {report.e_mac_pj}",
        f"e_ac_pj: {report.e_ac_pj}",
    ]
    for name, row in report.per_layer.items():
        lines.append(f"layer.{name}.spike_rate: {row['spike_rate']:.6f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_csv(report: EnergyReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "mac_ops", "ac_ops", "spike_rate", "energy_mj"])
        for name, row in report.per_layer.items():
            writer.writerow([name, f"{row['mac_ops']:.1f}", f"{row['ac_ops']:.1f}",
                             f"{row['spike_rate']:.6f}", f"{row['energy_mj']:.9f}"])
