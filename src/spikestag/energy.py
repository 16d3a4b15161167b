"""Theoretical energy estimation via operation counting on 45nm coefficients.

Counting rules:
  * dense layers: input_width * output_width multiply-accumulates per
    position (MACs),
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
frame, which is all the head reads.  So `add_spike_attention` counts every
query frame against every key frame, and the `ssa.proj` and `gate` MACs
count all T * ts frames.  Likewise every counted forward pays the `adjacency`
MACs of E E^T (N * N * emb_dim), although the model builds A only once, at
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
    matmul_log: list = field(default_factory=list)  # (scope, shape_a, shape_b)
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
    """Instrumentation pass collector; attach to a model forward to fill OpCounts.

    The autograd matmul observer additionally logs every raw matmul shape with
    the active scope so tests can assert that no dense node-by-node product
    runs on the aggregation path.
    """

    def __init__(self):
        self.counts = OpCounts()
        self._scope = ""

    # scope management -----------------------------------------------------

    def scope(self, name: str):
        counter = self

        class _Scope:
            def __enter__(self_inner):
                self_inner.prev = counter._scope
                counter._scope = name
                return counter

            def __exit__(self_inner, *exc):
                counter._scope = self_inner.prev
                return False

        return _Scope()

    def __enter__(self):
        ag.set_matmul_observer(self._observe_matmul)
        return self

    def __exit__(self, *exc):
        ag.set_matmul_observer(None)
        return False

    def _observe_matmul(self, shape_a, shape_b):
        self.counts.matmul_log.append((self._scope, tuple(shape_a), tuple(shape_b)))

    # counting hooks ---------------------------------------------------------

    def add_dense(self, layer: str, macs: float) -> None:
        lc = self.counts.layer(layer)
        lc.mac_ops += macs
        lc.twin_mac_ops += macs

    def add_spike_proj(self, layer: str, event_count: float, fanout: int,
                       dense_positions: int, dense_in: int, dense_out: int,
                       n_nodes: int | None = None) -> None:
        """Event-driven projection: ACs for the spiking model, full MACs for the twin.

        `event_count` is the number of active input spikes feeding the
        projection.  When `n_nodes` is given the layer is a neighborhood
        aggregation and the twin additionally pays the dense n-by-n product.
        """
        lc = self.counts.layer(layer)
        lc.ac_ops += event_count * fanout
        lc.twin_mac_ops += dense_positions * dense_in * dense_out
        if n_nodes is not None:
            lc.twin_mac_ops += dense_positions * n_nodes * dense_in

    def add_lif(self, layer: str, neurons_steps: float) -> None:
        self.counts.layer(layer).ac_ops += neurons_steps

    def observe_spikes(self, layer: str, spikes: np.ndarray) -> None:
        lc = self.counts.layer(layer)
        lc.spike_total += spikes.size
        lc.spike_active += float(spikes.sum())

    def add_spike_attention(self, layer: str, q: np.ndarray, k: np.ndarray,
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
