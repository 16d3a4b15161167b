import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.dsf import (
    GateParams,
    LstmParams,
    SsaParams,
    attention_core,
    gate_fuse,
    lstm_forward,
    ssa_forward,
)
from spikestag.errors import ShapeError
from spikestag.spiking import LifParams

from gradcheck import TOL, f64, fd_error
from per_step import ssa_forward_full
from test_spiking import lif_sim


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def zero_bias_params(d_in, h, rng):
    p = LstmParams.init(d_in, h, rng)
    p.b.data[:] = 0.0
    return p


def gate_blocks(p):
    """Per-gate (w_x, w_h, b) of the fused weights, in column order (i, f, g, o)."""
    h = p.wh.shape[0]
    block = lambda t, k: t.data[..., k * h:(k + 1) * h]
    return [(block(p.wx, k), block(p.wh, k), block(p.b, k)) for k in range(4)]


class TestLstm:
    def test_zero_spikes_zero_biases_zero_hidden(self):
        rng = np.random.default_rng(0)
        p = zero_bias_params(3, 4, rng)
        s = Tensor(np.zeros((6, 2, 3), dtype=np.float32))
        out = lstm_forward(s, p)
        assert out.shape == (6, 2, 4)
        np.testing.assert_array_equal(out.data, np.zeros((6, 2, 4), dtype=np.float32))

    def test_single_step_matches_hand_cell(self):
        rng = np.random.default_rng(1)
        p = LstmParams.init(3, 4, rng)
        x = rng.random((1, 2, 3)).astype(np.float32)
        out = lstm_forward(Tensor(x), p)

        xv = x[0].astype(np.float64)
        (w_xi, _, b_i), (w_xf, _, b_f), (w_xg, _, b_g), (w_xo, _, b_o) = gate_blocks(p)
        i_g = sigmoid(xv @ w_xi + b_i)
        f_g = sigmoid(xv @ w_xf + b_f)
        g_g = np.tanh(xv @ w_xg + b_g)
        o_g = sigmoid(xv @ w_xo + b_o)
        c = i_g * g_g
        h = o_g * np.tanh(c)
        np.testing.assert_allclose(out.data[0], h, atol=1e-5)

    def test_recurrence_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        p = LstmParams.init(2, 3, rng)
        x = (rng.random((5, 1, 2)) < 0.5).astype(np.float32)
        out = lstm_forward(Tensor(x), p)

        (w_xi, w_hi, b_i), (w_xf, w_hf, b_f), (w_xg, w_hg, b_g), (w_xo, w_ho, b_o) = gate_blocks(p)
        h = np.zeros((1, 3)); c = np.zeros((1, 3))
        for t in range(5):
            xv = x[t].astype(np.float64)
            i_g = sigmoid(xv @ w_xi + h @ w_hi + b_i)
            f_g = sigmoid(xv @ w_xf + h @ w_hf + b_f)
            g_g = np.tanh(xv @ w_xg + h @ w_hg + b_g)
            o_g = sigmoid(xv @ w_xo + h @ w_ho + b_o)
            c = f_g * c + i_g * g_g
            h = o_g * np.tanh(c)
            np.testing.assert_allclose(out.data[t], h, atol=1e-5)

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        p = LstmParams.init(2, 3, rng)

        def f(x):
            cast = LstmParams(**{k: f64(t) for k, t in vars(p).items()})
            out = lstm_forward(x, cast)
            return ag.tsum(ag.mul(out, out))

        x0 = Tensor(rng.random((3, 2, 2)).astype(np.float32), requires_grad=True)
        assert fd_error(f, x0) < TOL

    def test_gradient_check_wrt_weights(self):
        rng = np.random.default_rng(4)
        p = LstmParams.init(2, 3, rng)
        x = (rng.random((3, 1, 2)) < 0.6).astype(np.float32)

        def f(w):
            tensors = {k: f64(t) for k, t in vars(p).items()}
            tensors["wh"] = w
            out = lstm_forward(Tensor(x, dtype=np.float64), LstmParams(**tensors))
            return ag.tsum(ag.mul(out, out))

        assert fd_error(f, p.wh) < TOL


def ssa_oracle(spikes, params, lif):
    """Brute-force reference: LIF projections then per-node double-loop attention."""
    t_len, n, f = spikes.shape
    outs = {}
    for name, w in (("q", params.w_q.data), ("k", params.w_k.data), ("v", params.w_v.data)):
        pots = spikes.astype(np.float64) @ w.astype(np.float64)
        s, _ = lif_sim(lif, np.zeros((n, w.shape[1])), pots)
        outs[name] = s
    q, k, v = outs["q"], outs["k"], outs["v"]
    d_k = params.w_q.shape[1]
    result = np.zeros((t_len, n, d_k))
    for node in range(n):
        scores = q[:, node] @ k[:, node].T / math.sqrt(d_k)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-6)
        result[:, node] = attn @ v[:, node]
    return result, q, k, v


class TestSsa:
    def test_zero_spikes_zero_output(self):
        rng = np.random.default_rng(5)
        params = SsaParams.init(4, 3, rng)
        s = Tensor(np.zeros((5, 2, 4), dtype=np.float32))
        out = ssa_forward(s, params, LifParams())
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, 3), dtype=np.float32))

    def test_single_position_returns_v_row(self):
        rng = np.random.default_rng(6)
        params = SsaParams.init(3, 4, rng)
        spikes = (rng.random((1, 2, 3)) < 0.9).astype(np.float32)
        out = ssa_forward(Tensor(spikes), params, LifParams(u_th=0.2))
        _, _, _, v = ssa_oracle(spikes, params, LifParams(u_th=0.2))
        np.testing.assert_allclose(out.data[0], v[0], atol=1e-6)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        params = SsaParams.init(5, 4, rng)
        lif = LifParams(beta=0.4, u_th=0.5)
        spikes = (rng.random((3, 2, 5)) < 0.5).astype(np.float32)
        out = ssa_forward(Tensor(spikes), params, lif)
        expected, q, k, v = ssa_oracle(spikes, params, lif)
        for arr in (q, k, v):
            assert set(np.unique(arr)) <= {0.0, 1.0}
        np.testing.assert_allclose(out.data, expected[-1:], atol=1e-6)

    def test_score_path_gradient_check(self):
        rng = np.random.default_rng(8)
        k = Tensor(rng.standard_normal((4, 2, 3)).astype(np.float32))
        v = Tensor(rng.standard_normal((4, 2, 3)).astype(np.float32))

        def f(q):
            out = attention_core(q, f64(k), f64(v))
            return ag.tsum(ag.mul(out, out))

        q0 = Tensor(rng.standard_normal((4, 2, 3)).astype(np.float32), requires_grad=True)
        assert fd_error(f, q0) < TOL


    def test_one_frame_readout_memory_linear_in_frames(self):
        """No (B, N, T', T') score tensor: the peak stays below a quarter of one."""
        b, t_len, n, f_in, d_k = 2, 1024, 2, 4, 8
        rng = np.random.default_rng(15)
        params = SsaParams.init(f_in, d_k, rng)
        spikes = Tensor((rng.random((b, t_len, n, f_in)) < 0.5).astype(np.float32))
        score_bytes = b * n * t_len * t_len * 4
        tracemalloc.start()
        try:
            with ag.no_grad():
                out = ssa_forward(spikes, params, LifParams(u_th=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (b, 1, n, d_k)
        assert peak < score_bytes / 4


class TestAttentionCore:
    """The full-sequence core against the brute-force oracle, and one query
    frame against the last row of the full result."""

    @pytest.mark.parametrize("zero", [False, True])
    def test_all_frames_match_bruteforce_oracle(self, zero):
        rng = np.random.default_rng(16)
        params = SsaParams.init(5, 4, rng)
        lif = LifParams(beta=0.4, u_th=0.5)
        spikes = (rng.random((6, 3, 5)) < (0.0 if zero else 0.5)).astype(np.float32)
        out = ssa_forward_full(Tensor(spikes), params, lif)
        expected, _, _, _ = ssa_oracle(spikes, params, lif)
        assert out.shape == (6, 3, 4)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)
        if zero:
            np.testing.assert_array_equal(out.data, np.zeros((6, 3, 4), dtype=np.float32))

    def test_last_query_matches_last_row(self):
        rng = np.random.default_rng(17)
        q, k, v = (Tensor((rng.random((2, 9, 3, 4)) < 0.5).astype(np.float32)) for _ in range(3))
        full = attention_core(q, k, v)
        last = attention_core(ag.take(q, [8], axis=1), k, v)
        assert last.shape == (2, 1, 3, 4)
        np.testing.assert_allclose(last.data, full.data[:, -1:], rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("wrt", ["q", "k", "v"])
    def test_one_query_frame_gradient_check(self, wrt):
        rng = np.random.default_rng(18)
        shapes = {"q": (1, 2, 3), "k": (5, 2, 3), "v": (5, 2, 3)}
        arrays = {name: rng.standard_normal(s).astype(np.float32) for name, s in shapes.items()}

        def f(x):
            args = {name: Tensor(a, dtype=np.float64) for name, a in arrays.items()}
            args[wrt] = x
            out = attention_core(args["q"], args["k"], args["v"])
            return ag.tsum(ag.mul(out, out))

        assert fd_error(f, Tensor(arrays[wrt], requires_grad=True)) < TOL


class TestGate:
    def _params(self, h, w_scale=0.0, bias=0.0):
        w = Tensor(np.full((2 * h, h), w_scale, dtype=np.float32), requires_grad=True)
        b = Tensor(np.full(h, bias, dtype=np.float32), requires_grad=True)
        return GateParams(w, b)

    def test_saturated_high_selects_lstm(self):
        rng = np.random.default_rng(9)
        hl = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        hs = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        out = gate_fuse(hl, hs, self._params(4, bias=50.0))
        np.testing.assert_allclose(out.data, hl.data, atol=1e-6)

    def test_saturated_low_selects_ssa(self):
        rng = np.random.default_rng(10)
        hl = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        hs = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        out = gate_fuse(hl, hs, self._params(4, bias=-50.0))
        np.testing.assert_allclose(out.data, hs.data, atol=1e-6)

    def test_neutral_gate_averages(self):
        rng = np.random.default_rng(11)
        hl = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        hs = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        out = gate_fuse(hl, hs, self._params(3))
        np.testing.assert_allclose(out.data, (hl.data + hs.data) / 2, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gate_fuse(Tensor(np.zeros((2, 3), dtype=np.float32)),
                      Tensor(np.zeros((2, 4), dtype=np.float32)),
                      self._params(3))

    @given(hnp.arrays(np.float32, (2, 3), elements=st.floats(-5, 5, width=32)),
           hnp.arrays(np.float32, (2, 3), elements=st.floats(-5, 5, width=32)),
           st.floats(-3, 3), st.floats(-1, 1))
    @settings(max_examples=50, deadline=None)
    def test_convexity(self, a, b, bias, w_scale):
        out = gate_fuse(Tensor(a), Tensor(b), self._params(3, w_scale, bias)).data
        lo = np.minimum(a, b) - 1e-5
        hi = np.maximum(a, b) + 1e-5
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_equal_inputs_fixed_point(self):
        rng = np.random.default_rng(12)
        h = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
        p = GateParams.init(5, rng)
        out = gate_fuse(h, h, p)
        np.testing.assert_allclose(out.data, h.data, atol=1e-6)

    def test_gate_values_strictly_interior(self):
        rng = np.random.default_rng(13)
        hl = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
        hs = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
        p = GateParams.init(4, rng)
        joint = ag.concat([hl, hs], axis=-1)
        g = ag.sigmoid(ag.add(ag.matmul(joint, p.w_g), p.bias)).data
        assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_gradient_check(self):
        rng = np.random.default_rng(14)
        hs = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        p = GateParams.init(4, rng)

        def f(hl):
            out = gate_fuse(hl, f64(hs), GateParams(f64(p.w_g), f64(p.bias)))
            return ag.tsum(ag.mul(out, out))

        assert fd_error(f, Tensor(rng.standard_normal((3, 4)).astype(np.float32),
                                  requires_grad=True)) < TOL
