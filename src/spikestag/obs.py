"""Observation block: residual neighborhood attention at each series step.

For node i at step t, with q/k/v projections of the step features,

    alpha_ij = softmax_{j in S_i} (q_i . k_j / sqrt(f))
    x_i' = x_i + sum_j alpha_ij v_j

Attention is restricted to the local sample set, which arrives padded to
kmax slots (`graph.AdaptiveGraph.local`).  The padding enters the scores as an
additive bias of -1e9, so its softmax weights underflow to exactly 0; nodes
with an empty set pass through unchanged (the residual survives, the sum is
empty).  No cross-time mixing happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor


@dataclass
class ObsParams:
    """Square per-feature projections, all (f, f)."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor

    @classmethod
    def init(cls, f: int, rng: np.random.Generator) -> "ObsParams":
        s = 1.0 / math.sqrt(f)
        mk = lambda: Tensor((rng.standard_normal((f, f)) * s).astype(np.float32), requires_grad=True)
        return cls(mk(), mk(), mk())


def obs_forward(x: Tensor, neighborhood: tuple, params: ObsParams) -> Tensor:
    """Apply residual neighborhood attention.

    `x` has shape (..., N, f); leading axes (batch, time) are carried through.
    `neighborhood` is the local sample sets' (index, valid) pair, each (N, kmax).
    """
    f = x.shape[-1]
    idx, valid = neighborhood

    q = ag.matmul(x, params.w_q)
    k = ag.matmul(x, params.w_k)
    v = ag.matmul(x, params.w_v)

    k_nb = ag.take(k, idx, axis=-2)  # (..., N, kmax, f)
    v_nb = ag.take(v, idx, axis=-2)

    q_exp = ag.reshape(q, list(q.shape[:-1]) + [1, f])
    scores = ag.mul(ag.tsum(ag.mul(q_exp, k_nb), axis=-1), 1.0 / math.sqrt(f))
    scores = ag.add(scores, np.where(valid == 0.0, -1e9, 0.0))
    attn = ag.softmax(scores, axis=-1)
    # fully-padded rows softmax to uniform junk; the mask zeroes them out
    attn = ag.mul(attn, Tensor(valid, dtype=x.data.dtype))

    attn_exp = ag.reshape(attn, list(attn.shape) + [1])
    agg = ag.tsum(ag.mul(attn_exp, v_nb), axis=-2)  # (..., N, f)
    return ag.add(x, agg)
