"""Multi-scale spiking aggregation: sample, index-sum, project, fire.

Because node features entering a hop are binary spikes, the neighborhood
product reduces to gathering the active rows and summing them, then applying
the hop projection:

    m_i = (sum_{j in S_i} x_j) W

No dense N-by-N product is formed on this path (the test suite asserts that
from the operand shapes of every matmul).  Each hop's pre-synaptic
potentials drive an LIF layer whose state evolves across the whole frame
sequence, and hop 2 repeats the routine on hop-1 spikes over the
semi-global sample sets.  The encoder and both hops report their spikes
(`autograd.observe_spikes`); the energy module derives their op counts from
those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .graph import AdaptiveGraph, padded_index_mask
from .spiking import LifParams, encode_sequence, lif_over_frames


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


def _hop(spikes: Tensor, sets: list, w: Tensor, lif: LifParams, layer: str) -> Tensor:
    """One sample-index-sum-project-fire hop over all frames at once; its
    spikes are reported under `layer`."""
    idx, valid = padded_index_mask(sets, spikes.shape[-2])
    summed = ag.gather_sum(spikes, idx, valid, axis=spikes.data.ndim - 2)
    out = lif_over_frames(ag.matmul(summed, w), lif)
    ag.observe_spikes(layer, out)
    return out


def mssa_forward(
    x_obs: Tensor,
    graph: AdaptiveGraph,
    weights: HopWeights,
    lif: LifParams,
    ts: int,
) -> Tensor:
    """Encode observation features to spikes, then run the two hops.

    `x_obs` is (..., T, N, f) continuous; the output spikes are
    (..., T*ts, N, d2) with the LIF state of each hop evolving across frames.
    """
    encoded = encode_sequence(x_obs, ts, lif)
    ag.observe_spikes("mssa.encoder", encoded)
    s1 = _hop(encoded, graph.samples_local, weights.w1, lif, layer="mssa.hop1")
    s2 = _hop(s1, graph.samples_semiglobal, weights.w2, lif, layer="mssa.hop2")
    return s2
