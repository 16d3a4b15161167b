"""Fused multi-step LIF and LSTM recurrences against their per-step oracles.

Forward results (spikes, hidden states) must be bit-identical to the per-step
forms in `per_step.py`.  Gradients are the same chain rule summed in another
order, so they are compared in float32 within a stated tolerance, relative to
the largest gradient entry of the oracle.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import per_step
from gradcheck import fd_error
from spikestag import autograd as ag
from spikestag import dsf, mssa, spiking
from spikestag.autograd import Tensor
from spikestag.data import make_windows, synth_generate
from spikestag.dsf import LstmParams, lstm_forward
from spikestag.energy import OpCounter
from spikestag.errors import ContractError, ShapeError
from spikestag.model import ForecastModel, ModelConfig, mse_loss
from spikestag.spiking import Carry, LifParams, encode_sequence, lif_linear

# float32 gradient agreement, |fused - oracle| / max|oracle|.  Observed maxima
# over these tests: LIF 4.3e-7, LSTM 7.5e-7 (its weight gradients sum frame by
# frame), a whole default-config model step (up to five LIF layers, the LSTM
# and attention chained) 1.9e-6.
LIF_GRAD_TOL = 1e-5
LSTM_GRAD_TOL = 3e-5
MODEL_GRAD_TOL = 3e-5


def rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


def random_lif(rng, beta=None, u_reset=None):
    u_reset = float(rng.uniform(-0.3, 0.3)) if u_reset is None else u_reset
    return LifParams(beta=float(rng.uniform(0.2, 0.95)) if beta is None else beta,
                     u_th=u_reset + float(rng.uniform(0.2, 1.2)),
                     u_reset=u_reset, alpha=float(rng.uniform(1.0, 4.0)))


def forward_backward(fn, x, weight):
    """fn(x) and d(sum(out * weight))/dx for a fresh leaf copy of x."""
    leaf = Tensor(x.copy(), requires_grad=True)
    out = fn(leaf)
    ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
    return out.data, leaf.grad


LIF_SHAPES = [(7, 3, 2), (2, 9, 4, 5), (3, 2, 16, 6, 3)]
LIF_PARAMS = [
    {},
    {"beta": 1.0},
    {"u_reset": 0.2},
    {"u_reset": -0.25, "beta": 1.0},
]


# the kinds of LIF input entry: a drawn value, or an edge value that the
# in-place update must treat exactly as the per-step oracle does
DRAWN, POS_ZERO, NEG_ZERO, POS_SUBNORMAL, NEG_SUBNORMAL, AT_TH, AT_TH_MINUS_H = range(7)
SUBNORMAL = float(np.finfo(np.float32).smallest_subnormal)


def edge_inputs(kinds, values, lif, steps):
    """Float32 LIF input with one entry per (..., T, N, d) kind code and drawn value.

    An AT_TH_MINUS_H entry of frame t is u_th - H[t-1] for the state the
    neuron carries into that frame, so U[t] lands on the threshold up to the
    rounding of the sum.  With `steps` every step drives a fresh neuron, so
    such an entry is u_th / (1 + beta) instead: the second sub-step without a
    spike, U = x + beta x, lands there.
    """
    x = values.copy()
    for kind, value in ((POS_ZERO, 0.0), (NEG_ZERO, -0.0), (POS_SUBNORMAL, SUBNORMAL),
                        (NEG_SUBNORMAL, -SUBNORMAL), (AT_TH, lif.u_th)):
        x[kinds == kind] = value
    at = kinds == AT_TH_MINUS_H
    if steps is not None:
        x[at] = np.float32(lif.u_th) / np.float32(1.0 + lif.beta)
        return x
    h = np.zeros(x.shape[:-3] + x.shape[-2:], dtype=np.float32)
    for x_t, at_t in zip(np.moveaxis(x, -3, 0), np.moveaxis(at, -3, 0)):
        x_t[at_t] = (np.float32(lif.u_th) - h)[at_t]
        u = x_t + h
        s = (u >= lif.u_th).astype(np.float32)
        h = (lif.beta * u) * (1.0 - s) + lif.u_reset * s
    return x


class TestFusedLif:
    @pytest.mark.parametrize("steps", [None, 3])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("u_reset", [0.0, -0.0, 0.2, -0.25])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_edge_inputs_match_per_step_oracle(self, u_reset, beta, steps, data):
        """No-grad, taped and per-step spikes are bit-equal on ±0, subnormal
        and at-threshold inputs; the gradient agrees within LIF_GRAD_TOL."""
        lif = LifParams(beta=beta, u_th=data.draw(st.sampled_from([0.25, 1.0])),
                        u_reset=u_reset)
        shape = (data.draw(st.sampled_from([(), (2,)]))
                 + tuple(data.draw(st.integers(1, n)) for n in (6, 3, 3)))
        kinds = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(DRAWN, AT_TH_MINUS_H)))
        values = data.draw(hnp.arrays(np.float32, shape,
                                      elements=st.floats(-1.0, 2.0, width=32)))
        x = edge_inputs(kinds, values, lif, steps)
        out_shape = shape if steps is None else shape[:-3] + (shape[-3] * steps,) + shape[-2:]
        weight = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
            out_shape).astype(np.float32)
        with ag.no_grad():
            s_no_grad = spiking._lif(Tensor(x), lif, steps).data
        s, gx = forward_backward(lambda t: spiking._lif(t, lif, steps), x, weight)
        s_ref, gx_ref = forward_backward(lambda t: per_step.lif_kernel(t, lif, steps), x, weight)
        np.testing.assert_array_equal(s_no_grad, s_ref)
        np.testing.assert_array_equal(s, s_ref)
        assert rel_err(gx, gx_ref) < LIF_GRAD_TOL

    @pytest.mark.parametrize("shape", LIF_SHAPES)
    @pytest.mark.parametrize("overrides", LIF_PARAMS)
    def test_frames_match_per_step_oracle(self, shape, overrides):
        rng = np.random.default_rng(len(shape) * 10 + len(overrides))
        for _ in range(5):
            lif = random_lif(rng, **overrides)
            x = rng.uniform(-1.0, 2.0, size=shape).astype(np.float32)
            weight = rng.standard_normal(shape).astype(np.float32)
            s, gx = forward_backward(lambda t: spiking._lif(t, lif), x, weight)
            s_ref, gx_ref = forward_backward(lambda t: per_step.lif_over_frames(t, lif), x, weight)
            np.testing.assert_array_equal(s, s_ref)
            assert rel_err(gx, gx_ref) < LIF_GRAD_TOL

    @pytest.mark.parametrize("overrides", LIF_PARAMS)
    def test_constant_input_matches_per_step_oracle(self, overrides):
        rng = np.random.default_rng(40 + len(overrides))
        for ts in (1, 2, 5, 8):
            lif = random_lif(rng, **overrides)
            shape = (3, 4, 6, 2)
            x = rng.uniform(-1.0, 2.0, size=shape).astype(np.float32)
            weight = rng.standard_normal((3, 4 * ts, 6, 2)).astype(np.float32)
            s, gx = forward_backward(lambda t: encode_sequence(t, ts, lif), x, weight)
            s_ref, gx_ref = forward_backward(
                lambda t: per_step.encode_steps(t, ts, lif), x, weight)
            np.testing.assert_array_equal(s, s_ref)
            assert rel_err(gx, gx_ref) < LIF_GRAD_TOL

    @pytest.mark.parametrize("shape", LIF_SHAPES)
    @pytest.mark.parametrize("overrides", LIF_PARAMS)
    def test_carry_splits_the_sequence_bit_for_bit(self, shape, overrides):
        """Two `lif_linear` calls with one carried H give the spikes and the
        final H of one call over the whole sequence, wherever the cut falls."""
        rng = np.random.default_rng(70 + len(shape) * 10 + len(overrides))
        lif = random_lif(rng, **overrides)
        x = rng.uniform(-1.0, 2.0, size=shape).astype(np.float32)
        w = Tensor((rng.standard_normal((shape[-1], 4)) * 0.8).astype(np.float32))
        t_axis = len(shape) - 3
        with ag.no_grad():
            whole = Carry(shape[t_axis])
            s_whole = lif_linear(Tensor(x), w, lif, whole, "layer").data
            np.testing.assert_array_equal(lif_linear(Tensor(x), w, lif).data, s_whole)
            for cut in range(1, shape[t_axis]):
                carry = Carry(shape[t_axis])
                parts = [lif_linear(Tensor(part), w, lif, carry, "layer").data
                         for part in np.split(x, [cut], axis=t_axis)]
                assert np.concatenate(parts, axis=t_axis).tobytes() == s_whole.tobytes()
                assert carry.states["layer"].tobytes() == whole.states["layer"].tobytes()

    def test_carry_refused_on_taped_call(self):
        s = Tensor(np.full((3, 2, 4), 0.6, dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((4, 4), dtype=np.float32))
        with pytest.raises(ContractError, match="carried state"):
            lif_linear(s, w, LifParams(), Carry(3), "layer")

    def test_grad_check_refuses_fused_node(self):
        x = Tensor(np.array([[[0.3, -0.2]], [[0.9, 0.1]]], dtype=np.float32), requires_grad=True)
        w = Tensor(np.array([[0.5, 1.5, -0.5], [2.0, 0.25, 1.0]], dtype=np.float32))
        for fn in (lambda t: spiking._lif(t, LifParams()),
                   lambda t: lif_linear(t, w, LifParams()),
                   lambda t: encode_sequence(t, 3, LifParams())):
            assert fn(x)._op == "lif"
            with pytest.raises(ContractError, match="lif"):
                fd_error(lambda t: ag.tsum(fn(t)), x)

    def test_input_gradient_has_no_subnormals(self):
        # a gradient only at the last frame decays by about beta per frame
        # on the way back, through the subnormal range
        x = Tensor(np.full((400, 2, 3), 0.1, dtype=np.float32), requires_grad=True)
        weight = np.zeros((400, 2, 3), dtype=np.float32)
        weight[-1] = 1.0
        ag.backward(ag.tsum(ag.mul(spiking._lif(x, LifParams(u_th=1.0)), Tensor(weight))))
        tiny = np.finfo(np.float32).tiny
        assert np.abs(x.grad[-1]).min() > tiny
        assert np.all((x.grad == 0.0) | (np.abs(x.grad) >= tiny))

    def test_no_grad_keeps_no_membrane_buffer(self):
        rng = np.random.default_rng(50)
        x = Tensor(rng.uniform(-1, 2, size=(4, 64, 8, 16)).astype(np.float32), requires_grad=True)
        u_bytes, s_bytes = x.data.nbytes, x.data.size    # float32 U, one byte per spike
        with ag.no_grad():
            peak_off, out = traced_peak(lambda: spiking._lif(x, LifParams()))
        assert out._backward is None and out.data.dtype == bool
        peak_on, _ = traced_peak(lambda: spiking._lif(x, LifParams()))
        assert peak_off < s_bytes + 0.25 * u_bytes      # the spikes plus per-frame temporaries
        assert peak_on >= s_bytes + u_bytes             # the spikes plus U for the backward

    def test_chain_backward_frees_each_layer(self, monkeypatch):
        # each layer's gradient and U go once its backward has run, and each
        # backward writes dU over the gradient it gets, with its factors in
        # block buffers, so the peak stays near one float32 array of U's
        # size and the blocks: 1.6 measured, 3.3 with the factors in
        # whole-array passes and dU in a new array; keeping every layer's
        # gradient until backward returns costs about seven.  The `bool`
        # spikes are held from the forward, so they are not in it
        rng = np.random.default_rng(52)
        x = Tensor(rng.uniform(-1, 2, size=(4, 64, 8, 16)).astype(np.float32), requires_grad=True)
        u_bytes = x.data.nbytes
        # blocks of 8 of the 64 frames: at the default size all would be one
        monkeypatch.setattr(spiking, "LIF_BLOCK_BYTES", u_bytes // 8)

        def chain():
            s = x
            for _ in range(4):
                s = spiking._lif(s, LifParams())
            assert 0.0 < s.data.mean() < 1.0
            return ag.tsum(s)

        assert backward_peak(chain) < 2.5 * u_bytes

    def test_encoding_holds_spikes_and_membrane_only(self):
        # the frames are written in time order, so no reordered copy is kept
        rng = np.random.default_rng(51)
        x = Tensor(rng.uniform(-1, 2, size=(4, 32, 8, 16)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = encode_sequence(x, 4, LifParams())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._backward is not None and out.data.dtype == bool
        u_bytes, s_bytes = 4 * out.data.size, out.data.size   # float32 U, one byte per spike
        assert u_bytes + s_bytes <= held < s_bytes + 1.5 * u_bytes


class TestLifLinear:
    """The fused spike projection + LIF node against the two nodes it
    replaces, `_lif(matmul(s, w))`, and against the per-step oracle."""

    @pytest.mark.parametrize("shape", LIF_SHAPES)
    @pytest.mark.parametrize("overrides", LIF_PARAMS)
    def test_bit_identical_to_lif_of_matmul(self, shape, overrides):
        rng = np.random.default_rng(80 + len(shape) * 10 + len(overrides))
        lif = random_lif(rng, **overrides)
        # gather sums of spikes: small whole numbers, as the hops see them
        s = rng.integers(0, 3, size=shape).astype(np.float32)
        w = (rng.standard_normal((shape[-1], 5)) * 0.8).astype(np.float32)
        weight = rng.standard_normal(shape[:-1] + (5,)).astype(np.float32)
        results = []
        for fn in (lif_linear, lambda a, b, lif: spiking._lif(ag.matmul(a, b), lif)):
            leaves = [Tensor(s.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)]
            out = fn(*leaves, lif)
            ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
            with ag.no_grad():
                no_grad = fn(Tensor(s), Tensor(w), lif).data
            results.append([out.data, no_grad] + [leaf.grad for leaf in leaves])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()
        assert 0.0 < results[0][0].mean() < 1.0

    @pytest.mark.parametrize("shape", LIF_SHAPES)
    def test_two_frame_blocks_change_no_bit(self, shape, monkeypatch):
        """Currents, backward factors and ds products formed two frames at a
        time give the bits of one block over all frames."""
        rng = np.random.default_rng(85 + len(shape))
        lif = random_lif(rng, u_reset=-0.2)
        s = rng.random(shape) < 0.5
        ws = [(rng.standard_normal((shape[-1], 3)) * 0.9).astype(np.float32) for _ in range(2)]
        weight = rng.standard_normal(shape[:-1] + (6,)).astype(np.float32)
        results = []
        # two frames of the (..., T, N, 6) output; ds then takes at least
        # two rows at a time
        frame_bytes = 4 * 6 * np.prod(shape[:-3] + shape[-2:-1])
        for budget in (spiking.LIF_BLOCK_BYTES, 2 * frame_bytes):
            monkeypatch.setattr(spiking, "LIF_BLOCK_BYTES", budget)
            leaves = [Tensor(s, requires_grad=True, dtype=bool)] + [
                Tensor(w, requires_grad=True) for w in ws]
            out = lif_linear(leaves[0], tuple(leaves[1:]), lif, layer=("a", "b"))
            ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
            results.append([out.data] + [leaf.grad for leaf in leaves])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("overrides", LIF_PARAMS)
    def test_matches_per_step_oracle(self, overrides):
        rng = np.random.default_rng(90 + len(overrides))
        for shape in LIF_SHAPES:
            lif = random_lif(rng, **overrides)
            s = (rng.random(shape) < 0.5).astype(np.float32)
            w = rng.standard_normal((shape[-1], 4)).astype(np.float32)
            weight = rng.standard_normal(shape[:-1] + (4,)).astype(np.float32)
            results = []
            for fn in (lif_linear, per_step.lif_linear):
                leaves = [Tensor(s.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)]
                out = fn(*leaves, lif)
                ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
                results.append((out.data, [leaf.grad for leaf in leaves]))
            (out, grads), (out_ref, grads_ref) = results
            np.testing.assert_array_equal(out, out_ref)
            for g, g_ref in zip(grads, grads_ref):
                assert rel_err(g, g_ref) < LIF_GRAD_TOL

    def test_shape_mismatch_refused(self):
        s = Tensor(np.ones((3, 2, 4), dtype=np.float32), requires_grad=True)
        with pytest.raises(ShapeError, match="lif_linear"):
            lif_linear(s, Tensor(np.ones((3, 2), dtype=np.float32)), LifParams())
        with pytest.raises(ShapeError, match="lif_linear"):
            lif_linear(Tensor(np.ones((2, 4), dtype=np.float32)),
                       Tensor(np.ones((4, 2), dtype=np.float32)), LifParams())

    def test_taped_node_keeps_membrane_and_spikes_only(self):
        # U is written over the potentials' buffer, so the node holds U
        # (float32) and the spikes (one byte each); `_lif(matmul(s, w))`
        # also holds the potentials
        rng = np.random.default_rng(96)
        s = Tensor((rng.random((4, 64, 8, 16)) < 0.5).astype(np.float32))
        w = Tensor(rng.standard_normal((16, 16)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = lif_linear(s, w, LifParams())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._backward is not None and out._parents == (s, w)
        u_bytes, s_bytes = 4 * out.data.size, out.data.nbytes
        assert out.data.dtype == bool
        assert u_bytes + s_bytes <= held < u_bytes + 1.25 * s_bytes


class TestBlockedInputGrad:
    """`spiking._input_grad`, which runs in blocks of as many frames (steps,
    with `steps`) as fit in `LIF_BLOCK_BYTES`, against the whole-array
    passes it replaced (`per_step.input_grad`), bit for bit, at frame
    counts around a block of `BLOCK`."""

    BLOCK = 8

    @pytest.mark.parametrize("u_reset", [0.0, -0.2])
    @pytest.mark.parametrize("steps", [None, 4], ids=["frames", "steps"])
    @pytest.mark.parametrize("at", ["block-1", "block", "block+1", "one", "45"])
    @pytest.mark.parametrize("last_only", [False, True], ids=["dense", "last_frame"])
    def test_bit_identical_to_whole_array_passes(self, u_reset, steps, at, last_only,
                                                 monkeypatch):
        count = {"one": 1, "block-1": self.BLOCK - 1, "block": self.BLOCK,
                 "block+1": self.BLOCK + 1, "45": 45}[at]
        rng = np.random.default_rng(count + (steps or 0))
        lif = LifParams(beta=0.5, u_th=0.6, u_reset=u_reset, alpha=2.0)
        shape = (2, count, 3, 5) if steps is None else (2, count, steps, 3, 5)
        # a block is BLOCK frames, or BLOCK steps of `steps` sub-steps each
        monkeypatch.setattr(spiking, "LIF_BLOCK_BYTES", self.BLOCK * 4 * 2 * 3 * 5 * (steps or 1))
        assert spiking._block_length(shape, 1, 4) == self.BLOCK
        u = rng.uniform(-0.5, 1.5, size=shape).astype(np.float32)
        spikes = u >= lif.u_th
        g = rng.standard_normal(shape).astype(np.float32)
        if last_only:
            # the Q case: dU decays from the final frame back through the
            # subnormal range, across block boundaries, so the flush acts
            g[..., :-1, :, :] = 0.0
            g *= 1e-36
        want = per_step.input_grad(g.copy(), u.copy(), spikes, lif, steps)
        got = spiking._input_grad(g.copy(), u.copy(), spikes, lif, steps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if last_only and at == "45" and steps is None:
            raw = per_step.input_grad(g.copy(), u.copy(), spikes, lif, steps, flush=False)
            # frames the flush acts on include a block's first frame, whose
            # flush waits for the block before it
            flushed = np.nonzero((raw != 0.0) & (np.abs(raw) < np.finfo(np.float32).tiny))[1]
            assert set(range(45 - self.BLOCK, 0, -self.BLOCK)) & set(flushed.tolist()), flushed

    def test_flush_waits_for_the_frame_before(self, monkeypatch):
        """A block's first frame is flushed only after the frame before it,
        in the block before, has read it: there a factor of -8 lifts the
        subnormal dU of frame 1 to a normal -2^-125, which a flush in the
        wrong order would have zeroed."""
        lif = LifParams(beta=1.0, u_th=1.0, u_reset=-1.0, alpha=8.0)
        # at U = u_th the surrogate is alpha / 2 = 4, so a = (u_reset - U) * 4
        u = np.ones((1, 9, 1, 1), dtype=np.float32)
        spikes = u >= lif.u_th
        g = np.zeros_like(u)
        g[0, 1] = 2.0 ** -130           # b = 4 g = 2^-128, below float32's tiny
        monkeypatch.setattr(spiking, "LIF_BLOCK_BYTES", 8 * 4)     # blocks [1, 9) and [0, 1)
        got = spiking._input_grad(g.copy(), u.copy(), spikes, lif)
        want = per_step.input_grad(g.copy(), u.copy(), spikes, lif)
        assert got.tobytes() == want.tobytes()
        assert got[0, 0, 0, 0] == -(2.0 ** -125) and got[0, 1, 0, 0] == 0.0

    def test_backward_holds_no_whole_array_temporary(self, monkeypatch):
        """The blocked backward of a taped `_lif` allocates its block buffers
        and nothing the size of U: the whole-array passes held the surrogate
        and 1 - S (two arrays of U's size) at once, and measured 3.3 times
        U's bytes here, the blocked backward 1.2."""
        rng = np.random.default_rng(53)
        x = Tensor(rng.uniform(-1, 2, size=(4, 256, 8, 32)).astype(np.float32), requires_grad=True)
        u_bytes = x.data.nbytes
        monkeypatch.setattr(spiking, "LIF_BLOCK_BYTES", u_bytes // 16)

        def loss():
            return ag.tsum(spiking._lif(x, LifParams()))

        # the loss gradient (U's size) that `tsum` hands the node, the block
        # buffers and numpy's ufunc buffers
        assert backward_peak(loss) < 1.5 * u_bytes


class TestFusedQkv:
    """`dsf.qkv_spikes`, one `lif_linear` layer on the three weights, against
    three `lif_linear` layers, whose backwards the model's tape runs in the
    order Q, K, V."""

    @staticmethod
    def leaves(rng, lead=(2, 20, 3), k=6, d_k=4):
        s = Tensor(rng.random(lead + (k,)) < 0.4, requires_grad=True, dtype=bool)
        ws = [Tensor((rng.standard_normal((k, d_k)) * 1.2).astype(np.float32),
                     requires_grad=True) for _ in range(3)]
        return s, ws

    def test_bit_identical_to_three_layers(self):
        rng = np.random.default_rng(97)
        lif = LifParams(beta=0.6, u_th=0.5, u_reset=-0.2)
        s, ws = self.leaves(rng)
        grads = [rng.standard_normal((2, 20, 3, 4)).astype(np.float32) for _ in range(3)]

        three, counted = [], []
        for fused in (False, True):
            s.grad = None
            for w in ws:
                w.grad = None
            with OpCounter() as counter:
                if fused:
                    qkv = dsf.qkv_spikes(s, dsf.SsaParams(*ws), lif)
                else:
                    qkv = tuple(lif_linear(s, w, lif, layer=name)
                                for w, name in zip(ws, dsf.QKV_LAYERS))
            counted.append(counter._seen)
            if fused:
                loss = ag.add(ag.add(*(ag.tsum(ag.mul(x, Tensor(g))) for x, g in
                                       zip(qkv[:2], grads[:2]))),
                              ag.tsum(ag.mul(qkv[2], Tensor(grads[2]))))
                ag.backward(loss)
                # Q, K and V are views of one spike buffer
                assert all(x.data.base is x._parents[0].data for x in qkv)
            else:
                for x, g in zip(qkv, grads):
                    x._backward(g.copy())
            three.append([x.data for x in qkv] + [w.grad for w in ws] + [s.grad])
        for got, want in zip(three[1], three[0]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert list(counted[1]) == list(counted[0]) == list(dsf.QKV_LAYERS)
        for name in dsf.QKV_LAYERS:
            (size, sums), (size_ref, sums_ref) = counted[1][name], counted[0][name]
            assert size == size_ref and sums.tobytes() == sums_ref.tobytes()
        assert 0.0 < three[1][0].mean() < 1.0

    def test_gradients_land_in_one_buffer(self):
        """Their gradients are views of the fused layer's one (..., 3 d_k)
        buffer: the backward makes no float copy of Q's, K's or V's."""
        rng = np.random.default_rng(98)
        s, ws = self.leaves(rng)
        q, k, v = dsf.qkv_spikes(s, dsf.SsaParams(*ws), LifParams(u_th=0.5))
        seen = []
        fused = q._parents[0]
        backward = fused._backward

        def spy(g):
            seen.append((g, g.copy()))
            backward(g)

        fused._backward = spy
        loss = ag.add(ag.add(ag.tsum(ag.mul(q, 2.0)), ag.tsum(k)), ag.tsum(ag.mul(v, 3.0)))
        ag.backward(loss)
        ((g, values),) = seen
        assert g.shape == fused.shape and g.flags.c_contiguous
        np.testing.assert_array_equal(values, np.repeat([2.0, 1.0, 3.0], 4) * np.ones(fused.shape))

    def test_carry_splits_the_window_bit_for_bit(self):
        rng = np.random.default_rng(99)
        s, ws = self.leaves(rng, lead=(2, 23, 3))
        lif = LifParams(beta=0.7, u_th=0.5)
        params, x = dsf.SsaParams(*ws), s.data
        with ag.no_grad():
            whole = [t.data for t in dsf.qkv_spikes(Tensor(x, dtype=bool), params, lif)]
            carry = Carry(23)
            parts = [[t.data for t in dsf.qkv_spikes(Tensor(part, dtype=bool), params, lif, carry)]
                     for part in np.split(x, [5, 16], axis=1)]
        for i, want in enumerate(whole):
            got = np.concatenate([part[i] for part in parts], axis=1)
            assert got.tobytes() == want.tobytes()
        assert list(carry.states) == ["+".join(dsf.QKV_LAYERS)]


def traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def backward_peak(build_loss):
    """Peak traced during the backward of `build_loss()`, above the level its forward left."""
    tracemalloc.start()
    try:
        loss = build_loss()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ag.backward(loss)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def lstm_boundary_bytes(t_frames, h_dim, rows):
    """Bytes of the float32 (h, c) entering each LSTM_CHUNK-frame chunk."""
    return 2 * -(-t_frames // dsf.LSTM_CHUNK) * h_dim * rows * 4


def lstm_weights(rng, d_in, h_dim):
    """Fused (wx, b, wh) arrays in gate order (i, f, g, o)."""
    wx = (rng.standard_normal((d_in, 4 * h_dim)) / np.sqrt(d_in)).astype(np.float32)
    b = (rng.standard_normal(4 * h_dim) * 0.5).astype(np.float32)
    wh = (rng.standard_normal((h_dim, 4 * h_dim)) / np.sqrt(h_dim)).astype(np.float32)
    return wx, b, wh


class TestFusedLstm:
    # T' = 70 crosses LSTM_CHUNK boundaries and ends in a short chunk
    @pytest.mark.parametrize("lead,t_frames,n,d_in,h_dim", [
        ((), 6, 3, 2, 4),
        ((2,), 9, 5, 3, 7),
        ((3,), 1, 2, 4, 5),
        ((2, 2), 5, 4, 6, 16),
        ((2,), 70, 3, 5, 6),
    ])
    def test_matches_per_frame_oracle(self, lead, t_frames, n, d_in, h_dim):
        assert 70 > dsf.LSTM_CHUNK and 70 % dsf.LSTM_CHUNK
        rng = np.random.default_rng(t_frames * 100 + h_dim)
        x = (rng.standard_normal(lead + (t_frames, n, d_in)) * 1.5).astype(np.float32)
        arrays = (x,) + lstm_weights(rng, d_in, h_dim)
        for stride in (1, 3, t_frames):
            weight = rng.standard_normal(
                lead + (t_frames // stride, n, h_dim)).astype(np.float32)
            results = []
            for kernel in (dsf._lstm, per_step.lstm_recurrence):
                leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
                out = kernel(*leaves, stride)
                ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
                results.append((out.data, [leaf.grad for leaf in leaves]))
                # the sigmoid fold halves copies of the weights, never the weights
                for leaf, a in zip(leaves, arrays):
                    assert leaf.data.tobytes() == a.tobytes()
            with ag.no_grad():
                leaves = [Tensor(a.copy()) for a in arrays]
                h_no_grad = dsf._lstm(*leaves, stride).data
            for leaf, a in zip(leaves, arrays):
                assert leaf.data.tobytes() == a.tobytes()
            (h, grads), (h_ref, grads_ref) = results
            np.testing.assert_array_equal(h, h_ref)
            np.testing.assert_array_equal(h_no_grad, h_ref)
            for name, g, g_ref in zip(("x", "wx", "b", "wh"), grads, grads_ref):
                assert rel_err(g, g_ref) < LSTM_GRAD_TOL, (stride, name)

    @pytest.mark.parametrize("frozen", [("x",), ("wx", "b")], ids=["x", "wx_b"])
    def test_frozen_leaves_get_no_gradient(self, frozen):
        """With some leaves frozen, the live ones still match the oracle and
        the frozen ones get no gradient, over LSTM_CHUNK boundaries."""
        rng = np.random.default_rng(65)
        lead, t_frames, n, d_in, h_dim = (2,), 70, 3, 5, 6
        x = (rng.random(lead + (t_frames, n, d_in)) < 0.4).astype(np.float32)
        arrays = dict(zip(("x", "wx", "b", "wh"), (x,) + lstm_weights(rng, d_in, h_dim)))
        for stride in (1, 3, t_frames):
            weight = rng.standard_normal(
                lead + (t_frames // stride, n, h_dim)).astype(np.float32)
            grads = []
            for kernel in (dsf._lstm, per_step.lstm_recurrence):
                leaves = {k: Tensor(a.copy(), requires_grad=k not in frozen)
                          for k, a in arrays.items()}
                ag.backward(ag.tsum(ag.mul(kernel(*leaves.values(), stride), Tensor(weight))))
                grads.append({k: leaf.grad for k, leaf in leaves.items()})
            for name in arrays:
                if name in frozen:
                    assert grads[0][name] is None, (stride, name)
                else:
                    assert rel_err(grads[0][name], grads[1][name]) < LSTM_GRAD_TOL, (stride, name)

    def test_taped_forward_keeps_no_gate_array(self):
        """After a taped forward, the node holds its output and the (h, c)
        that enters each LSTM_CHUNK-frame chunk, and nothing per frame: no
        gate activations and no h or c of every frame, which would be
        LSTM_CHUNK times the boundary bytes."""
        rng = np.random.default_rng(66)
        params = LstmParams.init(16, 32, rng)
        x = Tensor((rng.random((4, 256, 8, 16)) < 0.4), requires_grad=True)
        boundary_bytes = lstm_boundary_bytes(256, 32, 4 * 8)
        tracemalloc.start()
        try:
            out = lstm_forward(x, params, 4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        kept = held - out.data.nbytes
        assert boundary_bytes <= kept < boundary_bytes + 2**14

    @pytest.mark.parametrize("stride", [1, 5])
    def test_carry_splits_the_sequence_bit_for_bit(self, stride):
        """Two calls with one carried (h, c) give the hidden states and the
        final (h, c) of one call, for cuts on and across LSTM_CHUNK."""
        rng = np.random.default_rng(63 + stride)
        n, d_in, h_dim = 3, 5, 6
        x = (rng.random((2, 70, n, d_in)) < 0.4).astype(np.float32)
        weights = [Tensor(a) for a in lstm_weights(rng, d_in, h_dim)]

        def run(parts):
            carry = Carry(len(x[0]))
            outs = [dsf._lstm(Tensor(part), *weights, stride, carry).data for part in parts]
            return np.concatenate(outs, axis=1), (carry.states["lstm.h"], carry.states["lstm.c"])

        with ag.no_grad():
            out, (h, c) = run([x])
            np.testing.assert_array_equal(dsf._lstm(Tensor(x), *weights, stride).data, out)
            # the carried h is the last hidden state, gate-major
            last = dsf._lstm(Tensor(x), *weights, 70).data
            assert h.T.tobytes() == last.reshape(2 * n, h_dim).tobytes()
            # a cut falls on a stride boundary, as the model's chunks do
            for cut in (c for c in (5, dsf.LSTM_CHUNK, 35, 40, 65) if c % stride == 0):
                out_cut, (h_cut, c_cut) = run(np.split(x, [cut], axis=1))
                assert out_cut.tobytes() == out.tobytes(), cut
                assert h_cut.tobytes() == h.tobytes() and c_cut.tobytes() == c.tobytes(), cut

    def test_carry_refused_on_taped_call(self):
        rng = np.random.default_rng(64)
        wx, b, wh = lstm_weights(rng, 2, 3)
        x = Tensor(np.ones((1, 4, 2, 2), dtype=np.float32))
        with pytest.raises(ContractError, match="carried state"):
            dsf._lstm(x, Tensor(wx, requires_grad=True), Tensor(b), Tensor(wh), 1, Carry(4))

    def test_lstm_forward_parameter_grads_match_oracle(self, monkeypatch):
        rng = np.random.default_rng(60)
        params = LstmParams.init(5, 8, rng)
        x = (rng.random((2, 12, 3, 5)) < 0.4).astype(np.float32)
        for stride in (1, 4):
            grads = []
            for kernel in (dsf._lstm, per_step.lstm_recurrence):
                monkeypatch.setattr(dsf, "_lstm", kernel)
                for t in vars(params).values():
                    t.zero_grad()
                out = lstm_forward(Tensor(x), params, stride)
                ag.backward(ag.tsum(ag.mul(out, out)))
                grads.append({k: t.grad.copy() for k, t in vars(params).items()})
            for name in grads[0]:
                assert rel_err(grads[0][name], grads[1][name]) < LSTM_GRAD_TOL, (stride, name)

    def test_no_grad_keeps_no_gate_buffer(self):
        rng = np.random.default_rng(61)
        params = LstmParams.init(16, 32, rng)
        x = Tensor((rng.random((4, 256, 8, 16)) < 0.4).astype(np.float32), requires_grad=True)
        gates_bytes = x.data.size // 16 * 4 * 32 * 4      # (4, 256, 8, 4h) float32
        with ag.no_grad():
            peak_off, out = traced_peak(lambda: lstm_forward(x, params, 4))
        assert out._backward is None and out.shape == (4, 64, 8, 32)
        assert peak_off < gates_bytes / 4
        # the tape adds only the (h, c) entering each chunk to the no-grad
        # peak: the backward re-runs each chunk from it
        peak_on, out = traced_peak(lambda: lstm_forward(x, params, 4))
        assert out._backward is not None
        boundary_bytes = lstm_boundary_bytes(256, 32, 4 * 8)
        assert boundary_bytes <= peak_on - peak_off < boundary_bytes + 2**12

    def test_backward_holds_one_frame_of_gates(self):
        # the backward re-runs one chunk from its boundary state and walks it
        # back with one frame of dG, so over the forward and the backward
        # the node holds, beyond x's gradient, its output and the output's
        # gradient, less than one (..., T', N, h) array, the size of a store
        # of every frame's h (measured: 0.76 of it; a tape of every frame's
        # h and c measured 2.7 times it)
        rng = np.random.default_rng(62)
        params = LstmParams.init(16, 32, rng)
        x = Tensor((rng.random((4, 256, 8, 16)) < 0.4).astype(np.float32), requires_grad=True)
        gates_bytes = x.data.size // 16 * 4 * 32 * 4      # (4, 256, 8, 4h) float32
        tracemalloc.start()
        try:
            out = lstm_forward(x, params, 4)
            ag.backward(ag.tsum(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and params.wh.grad is not None
        assert peak - x.grad.nbytes - 2 * out.data.nbytes < gates_bytes / 4


def small_batch(cfg, size=2):
    ds = synth_generate(cfg.n_nodes, cfg.t_in + cfg.horizon + 40, cfg.seed)
    windows = make_windows(ds, cfg.t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    return model, windows.batch(windows.train_starts[:size])


def train_step(model, batch):
    pred = model.forward(batch)
    loss = mse_loss(pred, batch.normalized_targets())
    model.zero_grad()
    ag.backward(loss)
    return pred, loss


class TestCarry:
    def test_state_of_another_shape_or_dtype_refused(self):
        """Each layer sizes its own state, and `Carry.get` refuses an entry
        that does not fit it, naming the layer: a LIF (N, d) state stored
        transposed, and a gate-major LSTM state of the wrong shape or dtype."""
        s = Tensor(np.full((3, 2, 4), 0.6, dtype=np.float32))
        w = Tensor(np.ones((4, 4), dtype=np.float32))
        carry = Carry(3)
        carry.states["layer"] = np.zeros((4, 2), dtype=np.float32)   # (d, N), not (N, d)
        with ag.no_grad(), pytest.raises(
                ContractError, match=r"^layer: carried state is float32\(4, 2\), "
                                     r"expected float32\(2, 4\)$"):
            lif_linear(s, w, LifParams(), carry, "layer")
        weights = [Tensor(a) for a in lstm_weights(np.random.default_rng(64), 2, 3)]
        x = Tensor(np.ones((1, 4, 2, 2), dtype=np.float32))
        for name, state in (("lstm.h", np.zeros((2, 3), dtype=np.float32)),   # (rows, h)
                            ("lstm.c", np.zeros((3, 2), dtype=np.float64))):
            carry = Carry(4)
            carry.states[name] = state
            with ag.no_grad(), pytest.raises(ContractError, match=rf"^{name}: carried state"):
                dsf._lstm(x, *weights, 1, carry)


class TestModelStep:
    def test_default_config_matches_per_step_oracles(self, monkeypatch):
        """Predictions, every spike train and every parameter gradient of one
        default-config train step, fused kernels against per-step ones."""
        runs = []
        for lif_kernel, linear_kernel, lstm_kernel in (
                (spiking._lif, spiking.lif_linear, dsf._lstm),
                (per_step.lif_kernel, per_step.lif_linear, per_step.lstm_recurrence)):
            spikes = []

            def recorded(kernel):
                def call(*args, **kwargs):
                    out = kernel(*args, **kwargs)
                    spikes.append(out.data.copy())
                    return out
                return call

            monkeypatch.setattr(spiking, "_lif", recorded(lif_kernel))
            # the hops and Q/K/V call the fused projection + LIF by these names
            monkeypatch.setattr(mssa, "lif_linear", recorded(linear_kernel))
            monkeypatch.setattr(dsf, "lif_linear", recorded(linear_kernel))
            monkeypatch.setattr(dsf, "_lstm", lstm_kernel)
            model, batch = small_batch(ModelConfig())
            pred, _ = train_step(model, batch)
            grads = {k: t.grad for k, t in model.parameters().items()}
            runs.append((pred.data, spikes, grads))
        (pred, spikes, grads), (pred_ref, spikes_ref, grads_ref) = runs
        np.testing.assert_array_equal(pred, pred_ref)
        # five LIF calls: two encoders, two hops and the one Q/K/V layer
        assert len(spikes) == len(spikes_ref) == 5
        for s, s_ref in zip(spikes, spikes_ref):
            np.testing.assert_array_equal(s, s_ref)
        assert grads.keys() == grads_ref.keys()
        assert [k for k, g in grads.items() if g is None] == []
        for name, g in grads.items():
            if g is not None:
                assert rel_err(g, grads_ref[name]) < MODEL_GRAD_TOL, name

    def test_tape_size_independent_of_frame_count(self):
        cfg = ModelConfig(n_nodes=6, horizon=2, ts=2, d1=8, d2=8, h_dim=8, d_k=8,
                          emb_dim=8, batch_size=2)
        counts = []
        for t_in in (8, 16):
            model, batch = small_batch(ModelConfig(**{**cfg.__dict__, "t_in": t_in}))
            _, loss = train_step(model, batch)
            counts.append(len(ag._topo_order(loss)))
        assert counts[0] == counts[1]

    def test_default_step_tape_size(self):
        # each spike encoder is one node on its input, each spike projection
        # and its LIF one node on the spikes and the weight, and the LSTM one
        # node on its spikes and fused weights that returns the frames read;
        # the attention gain is one parameter leaf; Q, K and V are one such
        # node on three weights and three column slices of it, and attention
        # transposes K once
        model, batch = small_batch(ModelConfig())
        _, loss = train_step(model, batch)
        assert len(ag._topo_order(loss)) == 82

    def test_taped_forward_holds_only_what_the_backward_reads(self):
        """Per added frame, a taped W4 forward holds little more than its
        backward reads, and no projection's potentials are a tape node.

        The backward reads, per frame: U (float32) and S (`bool`, one byte
        per spike) of every LIF layer and the gather sums the hops project;
        the LSTM reads h and c of the first frame of each LSTM_CHUNK-frame
        chunk only.  The bound allows 25% over that for what each series
        step adds (embedding, observation attention, the LSTM's returned
        frames), shared among its ts frames.  Measured: 1.22 times those
        bytes.  A tape that also kept the LSTM's h and c of every frame
        measured 1.54 times them, one that kept its four gate activations
        more, and spikes kept as float32 or each projection's potentials
        kept more.
        """
        cfg = ModelConfig(batch_size=2)
        held = {}
        for t_in in (16, 32):
            model, batch = small_batch(ModelConfig(**{**cfg.__dict__, "t_in": t_in}))
            tracemalloc.start()
            try:
                loss = mse_loss(model.forward(batch), batch.normalized_targets())
                held[t_in] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        f, rows = cfg.feature_width, cfg.batch_size * cfg.n_nodes
        lif_widths = (f, cfg.d1, cfg.d2, cfg.h_dim, 3 * cfg.d_k)   # encoders, hops, Q/K/V
        floats = sum(lif_widths) + f + cfg.d1
        per_frame = (4 * floats + sum(lif_widths)) * rows
        lstm = (lstm_boundary_bytes(32 * cfg.ts, cfg.h_dim, rows)
                - lstm_boundary_bytes(16 * cfg.ts, cfg.h_dim, rows))
        assert held[32] - held[16] < 1.25 * (16 * cfg.ts * per_frame + lstm)

        lifs = [node for node in ag._topo_order(loss) if node._op == "lif"]
        assert len(lifs) == len(lif_widths)
        # an encoder's input holds one frame per series step, not per sub-step
        encoders = [node for node in lifs if node.shape[-3] != node._parents[0].shape[-3]]
        assert len(encoders) == 2
        for node in lifs:
            if node not in encoders:
                inputs = [p for p in node._parents if p._op != "leaf"]
                assert [p._op for p in inputs] in (["gather_sum"], ["lif"]), node._parents
