import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.errors import ContractError
from spikestag.spiking import LifParams, encode_sequence, surrogate_grad

from per_step import LifState, heaviside_surrogate, lif_step


def lif_sim(params, h0, currents):
    """Independent step-by-step oracle of the membrane recurrence."""
    h = np.asarray(h0, dtype=np.float64)
    spikes, states = [], []
    for i_t in currents:
        u = np.asarray(i_t, dtype=np.float64) + h
        s = (u - params.u_th >= 0).astype(np.float64)
        h = params.beta * u * (1 - s) + params.u_reset * s
        spikes.append(s)
        states.append(h)
    return np.array(spikes), np.array(states)


def _state(values):
    return LifState(Tensor(np.asarray(values, dtype=np.float32)))


class TestLifStep:
    def test_fires_and_resets(self):
        p = LifParams(beta=0.5, u_th=1.0, u_reset=0.0)
        s, st_next = lif_step(p, _state([0.0]), Tensor([1.2]))
        assert s.data[0] == 1.0
        assert st_next.h.data[0] == 0.0

    def test_subthreshold_decays(self):
        p = LifParams(beta=0.5, u_th=1.0, u_reset=0.0)
        s, st_next = lif_step(p, _state([0.0]), Tensor([0.4]))
        assert s.data[0] == 0.0
        assert st_next.h.data[0] == pytest.approx(0.2)

    def test_zero_input_geometric_decay(self):
        p = LifParams(beta=0.5, u_th=1.0, u_reset=0.0)
        h0 = 0.8
        state = _state([h0])
        for step in range(1, 12):
            s, state = lif_step(p, state, Tensor([0.0]))
            assert s.data[0] == 0.0
            assert state.h.data[0] == pytest.approx(p.beta**step * h0, abs=1e-6)

    def test_matches_simulation_oracle(self):
        rng = np.random.default_rng(3)
        p = LifParams(beta=0.7, u_th=0.9, u_reset=0.1)
        currents = rng.uniform(-1, 2, size=(50, 4)).astype(np.float32)
        exp_s, exp_h = lif_sim(p, np.zeros(4), currents)
        state = _state(np.zeros(4))
        for i in range(50):
            s, state = lif_step(p, state, Tensor(currents[i]))
            np.testing.assert_array_equal(s.data, exp_s[i].astype(np.float32))
            np.testing.assert_allclose(state.h.data, exp_h[i], atol=1e-5)

    def test_reset_is_exact(self):
        p = LifParams(beta=0.9, u_th=0.5, u_reset=-0.25)
        s, state = lif_step(p, _state([0.3, 0.0]), Tensor([0.9, 0.1]))
        assert s.data[0] == 1.0 and s.data[1] == 0.0
        assert state.h.data[0] == np.float32(-0.25)

    def test_monotone_in_input(self):
        p = LifParams()
        rng = np.random.default_rng(11)
        for _ in range(200):
            h0 = rng.uniform(-0.5, 0.9)
            i_lo = rng.uniform(-1.0, 1.5)
            i_hi = i_lo + rng.uniform(0.0, 1.0)
            s_lo, _ = lif_step(p, _state([h0]), Tensor([i_lo]))
            s_hi, _ = lif_step(p, _state([h0]), Tensor([i_hi]))
            assert s_hi.data[0] >= s_lo.data[0]


class TestHeaviside:
    def test_forward_convention(self):
        out = heaviside_surrogate(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 1.0, 1.0])

    def test_backward_peak(self):
        x = Tensor([0.0], requires_grad=True)
        ag.backward(ag.tsum(heaviside_surrogate(x, alpha=2.0)))
        np.testing.assert_allclose(x.grad, [1.0], rtol=1e-6)

    def test_backward_at_one(self):
        x = Tensor([1.0], requires_grad=True)
        ag.backward(ag.tsum(heaviside_surrogate(x, alpha=2.0)))
        expected = 2.0 / (2.0 * (1.0 + math.pi**2))
        np.testing.assert_allclose(x.grad, [expected], rtol=1e-4)
        assert abs(expected - 0.0920) < 5e-4

    def test_backward_matches_closed_form_everywhere(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=100).astype(np.float32)
        x = Tensor(pts, requires_grad=True)
        ag.backward(ag.tsum(heaviside_surrogate(x, alpha=2.0)))
        np.testing.assert_allclose(x.grad, surrogate_grad(pts, 2.0), atol=1e-6)


class TestSurrogateShape:
    @given(st.floats(-30.0, 30.0))
    def test_even(self, x):
        assert surrogate_grad(np.array(x), 2.0) == pytest.approx(
            surrogate_grad(np.array(-x), 2.0), rel=1e-9)

    def test_peak_at_origin_and_decreasing(self):
        xs = np.linspace(0.0, 40.0, 4001)
        g = surrogate_grad(xs, 2.0)
        assert g[0] == max(g)
        assert np.all(np.diff(g) < 0)

    def test_integral_near_one(self):
        xs = np.linspace(-50.0, 50.0, 400001)
        total = np.trapezoid(surrogate_grad(xs, 2.0), xs)
        assert abs(total - 1.0) < 1e-2

    @given(st.floats(0.5, 8.0))
    @settings(max_examples=25)
    def test_peak_value_is_half_alpha(self, alpha):
        assert surrogate_grad(np.array(0.0), alpha) == pytest.approx(alpha / 2.0)


def is_binary(a) -> bool:
    return bool(np.all((a == 0.0) | (a == 1.0)))


class TestSpikeEncode:
    """`encode_sequence` on (T, N, f) inputs; one step (T = 1) gives `ts` frames."""

    def test_zero_input_silent(self):
        out = encode_sequence(Tensor(np.zeros((1, 3, 2), dtype=np.float32)), 5, LifParams())
        assert out.shape == (5, 3, 2)
        assert not out.data.any()

    def test_large_input_always_fires(self):
        p = LifParams(beta=0.3, u_th=1.0, u_reset=0.0)
        out = encode_sequence(Tensor(np.full((1, 2, 2), 10.0, dtype=np.float32)), 4, p)
        assert out.data.all()

    def test_integrating_pattern(self):
        p = LifParams(beta=1.0, u_th=1.0, u_reset=0.0)
        out = encode_sequence(Tensor(np.array([[[0.6]]], dtype=np.float32)), 4, p)
        np.testing.assert_array_equal(out.data[:, 0, 0], [0.0, 1.0, 0.0, 1.0])

    def test_rejects_bad_ts(self):
        with pytest.raises(ContractError):
            encode_sequence(Tensor([[[0.0]]]), 0, LifParams())

    def test_binary_on_random_inputs(self):
        rng = np.random.default_rng(5)
        p = LifParams(beta=0.6, u_th=0.8)
        for _ in range(25):
            h = Tensor(rng.uniform(-3, 3, size=(3, 4, 6)).astype(np.float32))
            assert is_binary(encode_sequence(h, 8, p).data)

    def test_matches_simulation_oracle(self):
        rng = np.random.default_rng(9)
        p = LifParams(beta=0.45, u_th=0.7, u_reset=0.05)
        h = rng.uniform(-1, 1.5, size=(3, 4)).astype(np.float32)
        out = encode_sequence(Tensor(h[None]), 6, p)
        exp_s, _ = lif_sim(p, np.zeros((3, 4)), [h] * 6)
        np.testing.assert_array_equal(out.data, exp_s.astype(np.float32))

    def test_frames_in_time_order(self):
        """Frame t*ts + k is sub-step k of a fresh neuron driven by step t."""
        rng = np.random.default_rng(10)
        p = LifParams(beta=0.8, u_th=0.5, u_reset=-0.1)
        ts = 3
        x = rng.uniform(-0.5, 1.5, size=(2, 5, 4, 3)).astype(np.float32)   # (B, T, N, f)
        out = encode_sequence(Tensor(x), ts, p).data
        assert out.shape == (2, 15, 4, 3)
        for t in range(5):
            exp_s, _ = lif_sim(p, np.zeros((2, 4, 3)), [x[:, t]] * ts)
            for k in range(ts):
                np.testing.assert_array_equal(out[:, t * ts + k], exp_s[k].astype(np.float32))

    def test_one_tape_node_on_its_input(self):
        x = Tensor(np.full((2, 3, 4), 0.7, dtype=np.float32), requires_grad=True)
        out = encode_sequence(x, 4, LifParams())
        assert out._op == "lif"
        assert out._parents == (x,)
        assert ag._topo_order(out) == [x, out]


class TestInvariantSweep:
    def test_binariness_reset_leak_over_many_steps(self):
        """Randomized LIF runs: binary outputs, exact resets, geometric leak."""
        rng = np.random.default_rng(21)
        total_steps = 0
        violations = 0
        while total_steps < 10_000:
            p = LifParams(
                beta=float(rng.uniform(0.2, 0.95)),
                u_th=float(rng.uniform(0.4, 1.5)),
                u_reset=float(rng.uniform(-0.3, 0.3)),
            )
            n = int(rng.integers(2, 6))
            steps = int(rng.integers(20, 60))
            zero_input = rng.random() < 0.3
            state = _state(rng.uniform(p.u_reset, p.u_th * 0.99, size=n).astype(np.float32))
            h_prev = state.h.data.copy()
            for _ in range(steps):
                cur = np.zeros(n, dtype=np.float32) if zero_input else rng.uniform(
                    -0.5, 1.2, size=n).astype(np.float32)
                s, state = lif_step(p, state, Tensor(cur))
                d = s.data
                if not np.all((d == 0.0) | (d == 1.0)):
                    violations += 1
                fired = d == 1.0
                if fired.any() and not np.allclose(state.h.data[fired], p.u_reset, atol=0):
                    violations += 1
                if zero_input:
                    expect = p.beta * (cur + h_prev)
                    quiet = ~fired
                    if not np.allclose(state.h.data[quiet], expect[quiet], atol=1e-6):
                        violations += 1
                h_prev = state.h.data.copy()
                total_steps += n
        assert violations == 0
