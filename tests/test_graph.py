from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikestag.errors import ContractError, SingularThresholdError
from spikestag.graph import (
    AdaptiveGraph,
    build_adjacency,
    build_graph,
    init_live_embeddings,
    node_importance,
    padded_index_mask,
    prune_neighbors,
    sample_two_level,
)


def emb(data):
    return np.asarray(data, dtype=np.float32)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestBuildAdjacency:
    def test_zero_embeddings(self):
        a = build_adjacency(emb(np.zeros((3, 2))), lam=0.5)
        expected = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
        np.testing.assert_allclose(a, expected, atol=1e-7)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        a = build_adjacency(emb(rng.standard_normal((6, 5))), lam=1.0)
        assert np.array_equal(a, a.T)

    def test_matches_bruteforce_double_loop(self):
        rng = np.random.default_rng(4)
        e = rng.standard_normal((4, 3)).astype(np.float32)
        a = build_adjacency(emb(e), lam=1.0)
        for i in range(4):
            for j in range(4):
                expected = sigmoid(float(np.dot(e[i].astype(np.float64), e[j].astype(np.float64))))
                if i == j:
                    expected += 1.0
                assert a[i, j] == pytest.approx(expected, rel=1e-5)

    def test_offdiagonal_in_open_unit_interval(self):
        # moderate embedding norms; float32 sigmoid saturates past |x| ~ 17
        rng = np.random.default_rng(6)
        a = build_adjacency(emb(rng.standard_normal((5, 4))), lam=2.0)
        off = a[~np.eye(5, dtype=bool)]
        assert np.all(off > 0.0) and np.all(off < 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ContractError):
            build_adjacency(emb(np.zeros((2, 2))), lam=-1.0)


class TestPruneNeighbors:
    def test_threshold_formula_row(self):
        a = np.array([
            [1.5, 0.9, 0.1],
            [0.9, 1.5, 0.5],
            [0.1, 0.5, 1.5],
        ])
        cands = prune_neighbors(a)
        # T_0 = (0.9 + 0.1) / 1.5 = 0.667; only the 0.9 edge beats it
        assert cands[0] == [1]

    def test_uniform_row_empty(self):
        a = np.full((4, 4), 0.5)
        np.fill_diagonal(a, 1.2)
        assert prune_neighbors(a) == [[], [], [], []]

    def test_two_nodes(self):
        a = np.array([[2.0, 0.8], [0.8, 2.0]])
        cands = prune_neighbors(a)
        assert cands[0] == [1] and cands[1] == [0]

    def test_zero_selfloop_rejected(self):
        a = np.array([[0.0, 0.5], [0.5, 1.0]])
        with pytest.raises(SingularThresholdError):
            prune_neighbors(a)

    @given(st.integers(2, 16), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_membership_iff_above_threshold(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.01, 1.0, size=(n, n))
        np.fill_diagonal(a, rng.uniform(0.5, 3.0, size=n))
        cands = prune_neighbors(a)
        for i in range(n):
            t_i = sum(a[i, j] for j in range(n) if j != i) / a[i, i]
            for j in range(n):
                if j == i:
                    assert j not in cands[i]
                else:
                    assert (j in cands[i]) == (a[i, j] > t_i)


class TestImportance:
    def test_identity(self):
        np.testing.assert_array_equal(node_importance(np.eye(4)), np.ones(4))

    def test_constant_matrix(self):
        a = np.full((3, 3), 0.5)
        np.fill_diagonal(a, 1.0)
        np.testing.assert_allclose(node_importance(a), [2.0, 2.0, 2.0])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, size=(5, 5))
        perm = rng.permutation(5)
        p = np.eye(5)[perm]
        np.testing.assert_allclose(node_importance(p @ a @ p.T), node_importance(a)[perm])


def line_graph_weights():
    """5-node line graph with hand-set weights and a dominant diagonal."""
    a = np.array([
        [2.0, 0.9, 0.1, 0.1, 0.1],
        [0.9, 2.0, 0.8, 0.1, 0.1],
        [0.1, 0.8, 2.0, 0.7, 0.1],
        [0.1, 0.1, 0.7, 2.0, 0.6],
        [0.1, 0.1, 0.1, 0.6, 2.0],
    ])
    return a


class TestSampling:
    def test_empty_candidates_give_empty_sets(self):
        a = np.full((3, 3), 0.5)
        np.fill_diagonal(a, 1.0)
        s1, s2 = sample_two_level(a, [[], [], []], node_importance(a), 4, 4)
        assert s1 == [[], [], []] and s2 == [[], [], []]

    def test_k1_larger_than_candidates(self):
        a = line_graph_weights()
        cands = prune_neighbors(a)
        s1, _ = sample_two_level(a, cands, node_importance(a), k1=10, k2=2)
        assert s1 == [sorted(c) for c in cands]

    def test_line_graph_matches_exhaustive_oracle(self):
        a = line_graph_weights()
        cands = prune_neighbors(a)
        imp = node_importance(a)
        k1, k2 = 1, 2
        s1, s2 = sample_two_level(a, cands, imp, k1, k2)
        for i in range(5):
            ranked = sorted(cands[i], key=lambda j: (-a[i, j], j))[:k1]
            assert s1[i] == sorted(ranked)
            pool = set()
            for j in ranked:
                pool.update(cands[j])
            pool -= set(ranked) | {i}
            expected = sorted(sorted(pool, key=lambda j: (-imp[j], j))[:k2])
            assert s2[i] == expected

    def test_deterministic(self):
        a = line_graph_weights()
        cands = prune_neighbors(a)
        imp = node_importance(a)
        assert sample_two_level(a, cands, imp, 2, 2) == sample_two_level(a, cands, imp, 2, 2)

    def test_budget_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            a = rng.uniform(0.01, 1.0, size=(n, n))
            np.fill_diagonal(a, rng.uniform(1.0, 4.0, size=n))
            cands = prune_neighbors(a)
            k1, k2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            s1, s2 = sample_two_level(a, cands, node_importance(a), k1, k2)
            assert all(len(s) <= k1 for s in s1)
            assert all(len(s) <= k2 for s in s2)
            assert all(set(s1[i]) <= set(cands[i]) for i in range(n))

    def test_permutation_equivariance(self):
        a = line_graph_weights()
        cands = prune_neighbors(a)
        imp = node_importance(a)
        s1, s2 = sample_two_level(a, cands, imp, 2, 2)
        perm = np.array([3, 0, 4, 1, 2])
        pmat = np.eye(5)[perm]
        ap = pmat @ a @ pmat.T  # relabeled so new index perm_inv[i] holds old node i
        inv = np.argsort(perm)
        cands_p = prune_neighbors(ap)
        s1p, s2p = sample_two_level(ap, cands_p, node_importance(ap), 2, 2)
        for old in range(5):
            assert sorted(inv[j] for j in s1[old]) == s1p[inv[old]]
            assert sorted(inv[j] for j in s2[old]) == s2p[inv[old]]


class TestBuildGraphAndPadding:
    def test_build_graph_bundles_everything(self):
        e, g = init_live_embeddings(8, 16, lam=4.0, k1=4, k2=4, seed=1)
        assert e.shape == (8, 16) and e.dtype == np.float32
        assert isinstance(g, AdaptiveGraph) and g == build_graph(e, 4.0, 4, 4)
        assert len(g.candidate_sets) == 8
        assert all(len(c) >= 1 for c in g.candidate_sets)
        assert all(len(s) >= 1 for s in g.samples_semiglobal)

    def test_padded_index_mask(self):
        idx, valid = padded_index_mask([[1, 2], [], [0]], n_nodes=3)
        assert idx.shape == (3, 2)
        np.testing.assert_array_equal(valid, [[1, 1], [0, 0], [1, 0]])

    def test_padded_index_mask_range_check(self):
        with pytest.raises(ContractError):
            padded_index_mask([[5]], n_nodes=3)

    def test_graph_holds_its_padded_sample_sets(self):
        g = AdaptiveGraph([[1], [0], [0]], [[1, 2], [], [0]], [[], [2], [1]])
        for pair, sets in ((g.local, g.samples_local), (g.semiglobal, g.samples_semiglobal)):
            for got, want in zip(pair, padded_index_mask(sets, 3)):
                np.testing.assert_array_equal(got, want)
        # derived fields: replace re-pads, and equality and repr read only the lists
        other = replace(g, samples_semiglobal=[[1, 2], [0], [0, 1]])
        np.testing.assert_array_equal(other.semiglobal[1], [[1, 1], [1, 0], [1, 1]])
        assert other != g and replace(g) == g
        assert repr(g) == ("AdaptiveGraph(candidate_sets=[[1], [0], [0]], samples_local=[[1, 2], "
                           "[], [0]], samples_semiglobal=[[], [2], [1]])")
        with pytest.raises(ContractError):
            AdaptiveGraph([[1]], [[5]], [[]])
