import numpy as np
import pytest

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.energy import OpCounter
from spikestag.errors import ContractError
from spikestag.graph import AdaptiveGraph
from spikestag.model import ForecastModel, ModelConfig
from spikestag.mssa import HopWeights, mssa_forward
from spikestag.spiking import LifParams

from per_step import dense_oracle_aggregate, index_mask_aggregate

from test_spiking import lif_sim


def rand_binary(rng, shape):
    return (rng.random(shape) < 0.4).astype(np.float32)


def mask_from_sets(sets, n):
    m = np.zeros((len(sets), n), dtype=np.float32)
    for i, s in enumerate(sets):
        for j in s:
            m[i, j] = 1.0
    return m


def toy_graph(sets1, sets2):
    return AdaptiveGraph(candidate_sets=sets1, samples_local=sets1, samples_semiglobal=sets2)


class TestIndexMaskAggregate:
    def test_empty_set_zero(self):
        x = Tensor(rand_binary(np.random.default_rng(0), (5, 3)))
        w = Tensor(np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32))
        out = index_mask_aggregate(x, [], w)
        np.testing.assert_array_equal(out.data, np.zeros(4, dtype=np.float32))

    def test_single_neighbor_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rand_binary(rng, (5, 4)))
        out = index_mask_aggregate(x, [3], Tensor(np.eye(4, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, x.data[3])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        x = rand_binary(rng, (16, 8))
        w = rng.standard_normal((8, 5)).astype(np.float32)
        s = sorted(rng.choice(16, size=6, replace=False).tolist())
        out = index_mask_aggregate(Tensor(x), s, Tensor(w))
        oracle = dense_oracle_aggregate(x, mask_from_sets([s], 16), w)[0]
        np.testing.assert_allclose(out.data, oracle, atol=1e-6)

    def test_out_of_range_index(self):
        with pytest.raises(ContractError):
            index_mask_aggregate(Tensor(np.zeros((3, 2), dtype=np.float32)), [7],
                                 Tensor(np.zeros((2, 2), dtype=np.float32)))

    def test_weight_width_mismatch(self):
        with pytest.raises(ContractError):
            index_mask_aggregate(Tensor(np.zeros((3, 2), dtype=np.float32)), [0],
                                 Tensor(np.zeros((5, 2), dtype=np.float32)))


class TestDenseOracle:
    def test_identity_mask(self):
        rng = np.random.default_rng(4)
        x = rand_binary(rng, (4, 3))
        w = rng.standard_normal((3, 2)).astype(np.float32)
        np.testing.assert_allclose(dense_oracle_aggregate(x, np.eye(4), w), x @ w, atol=1e-6)

    def test_zero_mask(self):
        x = rand_binary(np.random.default_rng(5), (4, 3))
        w = np.ones((3, 2), dtype=np.float32)
        assert not dense_oracle_aggregate(x, np.zeros((4, 4)), w).any()


class TestMssaForward:
    def setup_method(self):
        self.lif = LifParams(beta=0.5, u_th=0.6, u_reset=0.0)

    def test_zero_input_silent(self):
        rng = np.random.default_rng(6)
        g = toy_graph([[1], [0], [1]], [[2], [], [0]])
        w = HopWeights.init(4, 5, 6, rng)
        x = Tensor(np.zeros((3, 3, 4), dtype=np.float32))  # (T, N, f)
        out = mssa_forward(x, g, w, self.lif, ts=2)
        assert out.shape == (6, 3, 6)
        assert not out.data.any()

    def test_empty_sets_silent_regardless_of_input(self):
        rng = np.random.default_rng(7)
        g = toy_graph([[], []], [[], []])
        w = HopWeights.init(3, 4, 4, rng)
        x = Tensor(rng.uniform(1.0, 3.0, size=(2, 2, 3)).astype(np.float32))
        out = mssa_forward(x, g, w, self.lif, ts=3)
        assert not out.data.any()

    def test_output_binary_and_shapes(self):
        rng = np.random.default_rng(8)
        g = toy_graph([[1, 2], [0], [0, 1]], [[0], [2], []])
        w = HopWeights.init(5, 7, 4, rng)
        x = Tensor(rng.standard_normal((4, 3, 5)).astype(np.float32))
        out = mssa_forward(x, g, w, self.lif, ts=4)
        assert out.shape == (16, 3, 4)
        assert np.all((out.data == 0.0) | (out.data == 1.0))

    def test_matches_composed_oracle(self):
        """Frame-by-frame oracle: dense mask aggregation + membrane simulation."""
        rng = np.random.default_rng(9)
        n, f, d1, d2, t_in, ts = 6, 4, 5, 3, 3, 2
        sets1 = [[1, 2], [0], [4], [5], [0, 3], [2]]
        sets2 = [[3], [], [0, 1], [2], [5], [4]]
        g = toy_graph(sets1, sets2)
        w = HopWeights.init(f, d1, d2, rng)
        x = rng.standard_normal((t_in, n, f)).astype(np.float32)

        out = mssa_forward(Tensor(x), g, w, self.lif, ts=ts)

        # oracle: encode each step independently, then per-frame dense hops
        enc_frames = []
        for t in range(t_in):
            s, _ = lif_sim(self.lif, np.zeros((n, f)), [x[t]] * ts)
            enc_frames.extend(s)
        enc = np.array(enc_frames, dtype=np.float32)  # (t_in*ts, n, f)

        m1 = mask_from_sets(sets1, n)
        pot1 = np.array([dense_oracle_aggregate(fr, m1, w.w1.data) for fr in enc])
        s1, _ = lif_sim(self.lif, np.zeros((n, d1)), pot1)
        m2 = mask_from_sets(sets2, n)
        pot2 = np.array([dense_oracle_aggregate(fr.astype(np.float32), m2, w.w2.data)
                         for fr in s1])
        s2, _ = lif_sim(self.lif, np.zeros((n, d2)), pot2)
        np.testing.assert_array_equal(out.data, s2.astype(np.float32))

    def test_no_dense_node_matmul_on_forward_path(self, monkeypatch):
        rng = np.random.default_rng(10)
        n = 11  # distinct from every feature width in play
        sets1 = [[(i + 1) % n] for i in range(n)]
        sets2 = [[(i + 2) % n] for i in range(n)]
        g = toy_graph(sets1, sets2)
        w = HopWeights.init(5, 7, 3, rng)
        x = Tensor(rng.standard_normal((2, n, 5)).astype(np.float32))
        shapes = []
        for name in ("matmul", "affine"):
            def recorded(*operands, _op=getattr(ag, name)):
                shapes.extend(np.shape(getattr(t, "data", t)) for t in operands[:2])
                return _op(*operands)
            monkeypatch.setattr(ag, name, recorded)
        mssa_forward(x, g, w, LifParams(), ts=2)
        assert shapes
        for shape in shapes:
            assert tuple(shape[-2:]) != (n, n), shape

    def test_aggregation_cost_linear_in_sample_sizes(self):
        """With always-firing input, aggregation ACs scale exactly with sum |S_i|."""
        rng = np.random.default_rng(11)
        f, d1, d2, ts, t_in = 3, 4, 4, 1, 2
        lif = LifParams(beta=0.5, u_th=0.01, u_reset=0.0)  # everything fires
        w = HopWeights.init(f, d1, d2, rng)
        w.w1.data = np.abs(w.w1.data)  # keep hop-1 potentials positive
        # a W1 model of these widths, for its config and graph only
        n = 6
        model = ForecastModel(ModelConfig(n_nodes=n, t_in=t_in, d1=d1, d2=d2, ts=ts,
                                          ablation="W1"))
        counts = {}
        sizes = {}
        for tag, k in (("small", 1), ("large", 2)):
            sets1 = [[(i + d) % n for d in range(1, k + 1)] for i in range(n)]
            sets2 = [[(i + 3) % n] for i in range(n)]
            model.graph = toy_graph(sets1, sets2)
            x = Tensor(np.full((t_in, n, f), 5.0, dtype=np.float32))
            counter = OpCounter()
            with counter:
                mssa_forward(x, model.graph, w, lif, ts=ts)
            counts[tag] = counter.count_forward(model, 1, t_in).layers["mssa.hop1"].ac_ops
            sizes[tag] = sum(len(s) for s in sets1)
        # LIF accumulate share is identical across the two graphs; subtract it
        n_frames = t_in * ts
        lif_acs = n_frames * 6 * d1
        agg_small = counts["small"] - lif_acs
        agg_large = counts["large"] - lif_acs
        assert agg_small > 0
        assert agg_large / agg_small == pytest.approx(sizes["large"] / sizes["small"])


class TestOracleEquivalenceSweep:
    def test_random_instances_match(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            f = int(rng.integers(1, 17))
            d = int(rng.integers(1, 9))
            x = rand_binary(rng, (n, f))
            w = rng.standard_normal((f, d)).astype(np.float32)
            k = int(rng.integers(0, n))
            s = sorted(rng.choice(n, size=k, replace=False).tolist())
            out = index_mask_aggregate(Tensor(x), s, Tensor(w))
            oracle = dense_oracle_aggregate(x, mask_from_sets([s], n), w)[0]
            assert np.abs(out.data - oracle).max() < 1e-6
