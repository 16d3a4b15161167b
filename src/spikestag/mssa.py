"""Multi-scale spiking aggregation: sample, index-sum, project, fire.

Because node features entering a hop are binary spikes, the neighborhood
product reduces to gathering the active rows and summing them, then applying
the hop projection:

    m_i = (sum_{j in S_i} x_j) W

No dense N-by-N product is formed on this path (the test suite asserts that
via the op counter).  Each hop's pre-synaptic potentials drive an LIF layer
whose state evolves across the whole frame sequence, and hop 2 repeats the
routine on hop-1 spikes over the semi-global sample sets.

`dense_oracle_aggregate` is the reference form (mask matmul) used only by
tests to certify equivalence; it is not called by the forward path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError
from .graph import AdaptiveGraph, padded_index_mask
from .spiking import LifParams, SpikeTrain, encode_sequence, lif_over_frames


@dataclass
class HopWeights:
    """Hop projections: w1 maps the encoded feature width to d1, w2 maps d1 to d2."""

    w1: Tensor
    w2: Tensor

    @classmethod
    def init(cls, f_in: int, d1: int, d2: int, rng: np.random.Generator) -> "HopWeights":
        s1 = 1.0 / math.sqrt(f_in)
        s2 = 1.0 / math.sqrt(d1)
        w1 = Tensor((rng.standard_normal((f_in, d1)) * s1 * 2.0).astype(np.float32), requires_grad=True)
        w2 = Tensor((rng.standard_normal((d1, d2)) * s2 * 2.0).astype(np.float32), requires_grad=True)
        return cls(w1, w2)

    def tensors(self) -> dict:
        return {"w1": self.w1, "w2": self.w2}


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


def _hop(
    spikes: Tensor,
    sets: list,
    w: Tensor,
    lif: LifParams,
    counter=None,
    layer: str = "",
) -> Tensor:
    """One sample-index-sum-project-fire hop over all frames at once."""
    n = spikes.shape[-2]
    idx, valid = padded_index_mask(sets, n)
    summed = ag.gather_sum(spikes, idx, valid, axis=spikes.data.ndim - 2)
    potentials = ag.matmul(summed, w)
    out = lif_over_frames(potentials, lif)
    if counter is not None:
        active_gathered = float((np.take(spikes.data, idx, axis=spikes.data.ndim - 2)
                                 * valid[:, :, None]).sum())
        counter.add_spike_proj(layer, event_count=active_gathered, fanout=w.shape[1],
                               dense_positions=int(np.prod(spikes.data.shape[:-1])),
                               dense_in=spikes.shape[-1], dense_out=w.shape[1],
                               n_nodes=n)
        counter.add_lif(layer, neurons_steps=out.data.size)
        counter.observe_spikes(layer, out.data)
    return out


def mssa_forward(
    x_obs: Tensor,
    graph: AdaptiveGraph,
    weights: HopWeights,
    lif: LifParams,
    ts: int,
    counter=None,
) -> SpikeTrain:
    """Encode observation features to spikes, then run the two hops.

    `x_obs` is (..., T, N, f) continuous; the output spike train is
    (..., T*ts, N, d2) with the LIF state of each hop evolving across frames.
    """
    encoded = encode_sequence(x_obs, ts, lif)
    if counter is not None:
        counter.add_lif("mssa.encoder", neurons_steps=encoded.values.data.size)
        counter.observe_spikes("mssa.encoder", encoded.values.data)
    s1 = _hop(encoded.values, graph.samples_local, weights.w1, lif,
              counter=counter, layer="mssa.hop1")
    s2 = _hop(s1, graph.samples_semiglobal, weights.w2, lif,
              counter=counter, layer="mssa.hop2")
    return SpikeTrain(s2)
