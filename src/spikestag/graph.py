"""Adaptive adjacency built from node embeddings, plus the sampling machinery.

The adjacency is A = sigmoid(E E^T) + lambda * I, a complete weighted graph
with link probabilities off the diagonal.  Neighbor pruning keeps, for each
node i, the edges whose weight strictly exceeds

    T_i = (sum_{j != i} A_ij) / A_ii

Note the printed normalizer is the self-loop weight A_ii, not the degree;
since every off-diagonal weight is below 1 and A_ii = sigmoid(e_i.e_i) +
lambda, the candidate count is structurally capped below 1 + lambda.  Small
self-loop weights therefore give very sparse (often empty) candidate sets,
which downstream code must tolerate.

Sampling is two-level and fully deterministic: a "local" set of the top-k1
candidates by edge weight, then a "semi-global" set of the top-k2 nodes by
importance (row sum of A) drawn from the candidates of the local set, with
the node itself and its local set excluded.  Ties break toward the lower
node index.

A feeds nothing but this discrete top-k sampling, so no gradient reaches E.
The graph is therefore a constant: plain numpy builds it once, when the model
is constructed or loaded, and every forward reuses it.  That includes each
level's sets padded to a rectangle (`padded_index_mask`), which the graph
forms as it is built and observation attention and the MSSA hops read.
Construction keeps a graph with empty local sets, so that it can be
inspected; `ForecastModel.check_local_sets` refuses one, and `train()`
(before its first step), `save_model` and `load_model` call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, SingularThresholdError

# sub-seeds `init_live_embeddings` draws before it keeps its last attempt
MAX_TRIES = 200


@dataclass
class AdaptiveGraph:
    """Candidate and two-level sample sets derived from the adjacency.

    `local` and `semiglobal` are the two sample levels as the (index, valid)
    pair of `padded_index_mask`, formed here from the lists.
    """

    candidate_sets: list
    samples_local: list       # S_i^(1)
    samples_semiglobal: list  # S_i^(2)
    local: tuple = field(init=False, compare=False, repr=False)
    semiglobal: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.local = padded_index_mask(self.samples_local, len(self.samples_local))
        self.semiglobal = padded_index_mask(self.samples_semiglobal, len(self.samples_local))


def build_adjacency(e: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """A = sigmoid(E E^T) + lambda * I in float32, E of shape (N, d).

    The Gram matrix is symmetrized as (M + M^T) / 2 before the sigmoid so the
    result is exactly symmetric regardless of BLAS accumulation order; the
    sigmoid is the overflow-free (tanh(x/2) + 1) / 2.
    """
    if lam < 0:
        raise ContractError(f"build_adjacency: lambda must be non-negative, got {lam}")
    e = np.asarray(e, dtype=np.float32)
    half = np.float32(0.5)
    gram = e @ e.T
    gram = (gram + gram.T) * half
    a = np.tanh(gram * half) * half + half
    return a + np.eye(e.shape[0], dtype=np.float32) * np.float32(lam)


def prune_neighbors(a: np.ndarray) -> list:
    """Candidate sets C_i = { j != i : A_ij > T_i }, strict inequality."""
    w = np.asarray(a)
    n = w.shape[0]
    if n < 2:
        raise ContractError("prune_neighbors: need at least 2 nodes")
    candidates = []
    for i in range(n):
        if w[i, i] == 0.0:
            raise SingularThresholdError(
                f"prune_neighbors: node {i} has zero self-loop weight"
            )
        off = np.delete(w[i], i)
        t_i = off.sum(dtype=np.float64) / float(w[i, i])
        keep = [j for j in range(n) if j != i and w[i, j] > t_i]
        candidates.append(keep)
    return candidates


def node_importance(a: np.ndarray) -> np.ndarray:
    """Imp_i = full row sum of A (diagonal included)."""
    return np.asarray(a).sum(axis=1)


def sample_two_level(a: np.ndarray, candidates: list, imp: np.ndarray, k1: int, k2: int):
    """Deterministic two-level neighborhood sampling.

    Local: the top-k1 members of C_i ranked by edge weight A_ij.  Semi-global:
    the top-k2 members by importance of the pool reachable through the local
    set's own candidates, excluding i and its local set.
    """
    if k1 < 0 or k2 < 0:
        raise ContractError("sample_two_level: k1 and k2 must be non-negative")
    w = np.asarray(a)
    n = w.shape[0]
    local, semi = [], []
    for i in range(n):
        cand = candidates[i]
        ranked = sorted(cand, key=lambda j: (-w[i, j], j))
        s1 = sorted(ranked[:k1])
        pool = set()
        for j in s1:
            pool.update(candidates[j])
        pool -= set(s1)
        pool.discard(i)
        ranked2 = sorted(pool, key=lambda j: (-imp[j], j))
        s2 = sorted(ranked2[:k2])
        local.append(s1)
        semi.append(s2)
    return local, semi


def build_graph(e: np.ndarray, lam: float, k1: int, k2: int) -> AdaptiveGraph:
    """Full pipeline: adjacency, pruning, importance, two-level samples."""
    a = build_adjacency(e, lam)
    candidates = prune_neighbors(a)
    local, semi = sample_two_level(a, candidates, node_importance(a), k1, k2)
    return AdaptiveGraph(candidates, local, semi)


def init_live_embeddings(n_nodes: int, dim: int, lam: float, k1: int, k2: int, seed: int) -> tuple:
    """(embeddings, graph): a seeded (n_nodes, dim) float32 draw and its graph.

    Pruning by the self-loop-normalized threshold can leave unlucky nodes with
    empty candidate sets, which silences their aggregation permanently: the
    graph is built once from the embeddings and never changes.  The retry
    scans up to MAX_TRIES deterministic sub-seeds until all nodes have at
    least one candidate and one semi-global sample, falling back to the last
    attempt without a word; `ForecastModel.check_local_sets` is what refuses
    a graph with an empty local set.
    """
    for attempt in range(MAX_TRIES):
        rng = np.random.default_rng([seed, 1, attempt])
        e = rng.standard_normal((n_nodes, dim)).astype(np.float32)
        g = build_graph(e, lam, k1, k2)
        if all(len(c) >= 1 for c in g.candidate_sets) and all(
            len(s) >= 1 for s in g.samples_semiglobal
        ):
            break
    return e, g


def padded_index_mask(sets: list, n_nodes: int):
    """Convert ragged per-node index sets into (N, kmax) index and 0/1 mask arrays.

    Empty sets pad with index 0 and mask 0; kmax is at least 1 so downstream
    gathers keep a well-formed shape.
    """
    kmax = max((len(s) for s in sets), default=0)
    kmax = max(kmax, 1)
    idx = np.zeros((len(sets), kmax), dtype=np.intp)
    valid = np.zeros((len(sets), kmax), dtype=np.float32)
    for i, s in enumerate(sets):
        for j, node in enumerate(s):
            if not 0 <= node < n_nodes:
                raise ContractError(f"padded_index_mask: node index {node} out of range")
            idx[i, j] = node
            valid[i, j] = 1.0
    return idx, valid
