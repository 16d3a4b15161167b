import zlib

import numpy as np
import pytest

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.dsf import LstmParams, _lstm
from spikestag.errors import ContractError, ShapeError
from spikestag.model import ModelConfig, mse_loss
from spikestag.spiking import LifParams, _lif, lif_linear

from gradcheck import TOL, fd_error
from per_step import heaviside_surrogate, stack, tanh
from test_recurrences import small_batch


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=rg)


class TestForwardOps:
    def test_matmul_identity(self):
        m = t([[1.0, 2.0], [3.0, 4.0]])
        eye = t(np.eye(2), rg=False)
        out = ag.matmul(eye, m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_sigmoid_at_zero(self):
        assert ag.sigmoid(t([0.0])).data[0] == pytest.approx(0.5)

    def test_softmax_uniform(self):
        out = ag.softmax(t([[1.7, 1.7, 1.7]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], rtol=1e-6)

    def test_concat_last_axis(self):
        a, b = t([[1.0, 2.0]]), t([[3.0]])
        np.testing.assert_array_equal(ag.concat([a, b], axis=-1).data, [[1.0, 2.0, 3.0]])

    def test_take_gathers_rows(self):
        x = t([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ag.take(x, np.array([2, 0]), axis=0)
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [1.0, 2.0]])

    def test_take_out_of_range(self):
        with pytest.raises(ContractError):
            ag.take(t([1.0, 2.0]), np.array([5]), axis=0)

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeError) as exc:
            ag.matmul(t([[1.0, 2.0]]), t([[1.0, 2.0]]))
        assert "matmul" in str(exc.value)
        assert "(1, 2)" in str(exc.value)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ag.add(t([[1.0, 2.0]]), t([[1.0, 2.0, 3.0]]))


class TestBackward:
    def test_sum_gradient(self):
        x = t([1.0, -2.0, 5.0])
        ag.backward(ag.tsum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient_matches_finite_differences(self):
        x = t([1.0, 2.0])
        ag.backward(ag.tsum(ag.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-6)
        # independent central-difference oracle at h=1e-3
        h = 1e-3
        f = lambda v: float((v * v).sum())
        fd = [(f(np.array([1.0 + h, 2.0])) - f(np.array([1.0 - h, 2.0]))) / (2 * h),
              (f(np.array([1.0, 2.0 + h])) - f(np.array([1.0, 2.0 - h]))) / (2 * h)]
        np.testing.assert_allclose(x.grad, fd, rtol=1e-3)

    def test_sigmoid_gradient_at_zero(self):
        x = t([0.0])
        ag.backward(ag.tsum(ag.sigmoid(x)))
        np.testing.assert_allclose(x.grad, [0.25], rtol=1e-6)

    def test_fanout_accumulates(self):
        x = t([3.0])
        y = ag.add(x, x)
        ag.backward(ag.tsum(y))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ag.backward(t([1.0, 2.0]))

    def test_grad_accumulates_until_zero_grad(self):
        x = t([1.0])
        ag.backward(ag.tsum(ag.mul(x, x)))
        ag.backward(ag.tsum(ag.mul(x, x)))
        np.testing.assert_allclose(x.grad, [4.0], rtol=1e-6)
        x.zero_grad()
        assert x.grad is None

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
            y = ag.tsum(ag.sigmoid(ag.matmul(x, w)))
            ag.backward(y)
            return y.data.copy(), x.grad.copy(), w.grad.copy()

        a, b = run(), run()
        for left, right in zip(a, b):
            assert np.array_equal(left, right)


class TestTapeRelease:
    """Backward frees each interior node once it has run; the tape is single-use."""

    @staticmethod
    def _w4_step():
        model, batch = small_batch(ModelConfig())
        pred = model.forward(batch)
        return model, batch, pred, mse_loss(pred, batch.normalized_targets())

    def test_interior_nodes_released_leaves_kept(self):
        model, _, _, loss = self._w4_step()
        order = ag._topo_order(loss)
        interior = [n for n in order if n._backward is not None]
        assert len(interior) > 50
        ag.backward(loss)
        for node in interior:
            assert node.grad is None and node._backward is ag._consumed, node
        for name, p in model.parameters().items():
            assert p.grad is not None and p.grad.shape == p.shape, name

    def test_second_backward_raises(self):
        model, _, _, loss = self._w4_step()
        ag.backward(loss)
        grads = {name: p.grad.copy() for name, p in model.parameters().items()}
        with pytest.raises(ContractError, match="tape already consumed"):
            ag.backward(loss)
        # refused before any gradient moved
        for name, p in model.parameters().items():
            assert np.array_equal(p.grad, grads[name]), name

    def test_second_loss_on_consumed_forward_raises(self):
        _, batch, pred, loss = self._w4_step()
        ag.backward(loss)
        with pytest.raises(ContractError, match="run the forward again"):
            ag.backward(mse_loss(pred, batch.normalized_targets()))


def _rand(shape, rng):
    return Tensor(rng.uniform(-2.0, 2.0, size=shape).astype(np.float32), requires_grad=True)


SMOOTH_CASES = [
    ("add", lambda x: ag.tsum(ag.add(x, ag.mul(x, 0.5))), (3, 4)),
    ("sub", lambda x: ag.tsum(ag.sub(x, ag.mul(x, x))), (3, 4)),
    ("mul", lambda x: ag.tsum(ag.mul(x, x)), (5,)),
    ("mul_scalar", lambda x: ag.tsum(ag.mul(-1.7, ag.mul(x, x))), (4,)),
    ("matmul", lambda x: ag.tsum(ag.matmul(x, ag.transpose(x, (1, 0)))), (3, 4)),
    ("matmul_batched", lambda x: ag.tsum(ag.mul(ag.matmul(x, ag.transpose(x, (0, 2, 1))), 0.5)), (2, 3, 4)),
    ("sigmoid", lambda x: ag.tsum(ag.sigmoid(x)), (6,)),
    ("tanh", lambda x: ag.tsum(tanh(x)), (6,)),
    ("softmax", lambda x: ag.tsum(ag.mul(ag.softmax(x, axis=-1), x)), (2, 5)),
    ("concat", lambda x: ag.tsum(ag.mul(ag.concat([x, x], axis=-1), ag.concat([x, tanh(x)], axis=-1))), (2, 3)),
    ("stack", lambda x: ag.tsum(ag.mul(stack([x, tanh(x)], axis=0), stack([ag.sigmoid(x), x], axis=0))), (2, 3)),
    # a mean as `mse_loss` forms it: the sum times one over the count
    ("mean", lambda x: ag.mul(ag.tsum(ag.mul(x, x)), 1.0 / 7), (7,)),
    ("sum_axis", lambda x: ag.tsum(ag.mul(ag.tsum(x, axis=0), ag.tsum(x, axis=0))), (3, 4)),
    ("take", lambda x: ag.tsum(ag.mul(ag.take(x, np.array([[0, 2], [1, 1]]), axis=0), 1.5)), (3, 2)),
    ("take_index", lambda x: ag.tsum(ag.mul(ag.take(x, 1, axis=0), ag.take(x, -3, axis=0))), (3, 4)),
    ("take_range", lambda x: ag.tsum(ag.mul(ag.take(x, np.arange(1, 3), axis=-1),
                                            ag.take(x, np.arange(0, 2), axis=-1))), (3, 4)),
    ("transpose", lambda x: ag.tsum(ag.mul(ag.transpose(x, (1, 0)), 2.0)), (2, 4)),
    ("reshape", lambda x: ag.tsum(ag.mul(ag.reshape(x, (6,)), ag.reshape(tanh(x), (6,)))), (2, 3)),
    ("broadcast_to", lambda x: ag.tsum(ag.mul(ag.broadcast_to(ag.reshape(x, (1, 4)), (3, 4)), 0.7)), (4,)),
    ("gather_sum", lambda x: ag.tsum(ag.mul(
        ag.gather_sum(x, np.array([[1, 2], [0, 0]]), np.array([[1.0, 1.0], [1.0, 0.0]]), axis=0), 1.3)), (3, 4)),
]


@pytest.mark.parametrize("name,fn,shape", SMOOTH_CASES, ids=[c[0] for c in SMOOTH_CASES])
def test_smooth_ops_match_finite_differences(name, fn, shape):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    err = fd_error(fn, _rand(shape, rng))
    assert err < TOL, f"{name}: {err:.3e}"


def _wrong_softmax(drop_dot: bool, factor: float):
    """ag.softmax with a deliberately wrong backward."""
    def softmax(a):
        out = ag.softmax(a).data

        def bw(g):
            dot = 0.0 if drop_dot else (g * out).sum(axis=-1, keepdims=True)
            a._accum_own(factor * out * (g - dot))

        return ag._result(out, (a,), bw, "softmax")
    return softmax


class TestGradCheck:
    def test_tanh_linear_chain(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=False)
        f = lambda x: ag.tsum(tanh(ag.matmul(w, x)))
        assert fd_error(f, _rand((4, 2), rng)) < TOL

    def test_identity_zero_error(self):
        # power-of-two step keeps x +/- h exact, so a linear f differences exactly
        assert fd_error(lambda x: ag.tsum(x), t([1.0, 2.0, 3.0]), h=2.0**-10) == 0.0

    def test_rejects_surrogate_nodes(self):
        with pytest.raises(ContractError, match="heaviside"):
            fd_error(lambda x: ag.tsum(heaviside_surrogate(x)), t([0.3, -0.2]))

    def test_rejects_non_scalar(self):
        with pytest.raises(ContractError, match="scalar"):
            fd_error(lambda x: ag.mul(x, x), t([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_gradient_fails(self, bad):
        def square(a):
            return ag._result(a.data * a.data, (a,),
                              lambda g: a._accum_own(np.full_like(a.data, bad)), "square")
        assert fd_error(lambda x: ag.tsum(square(x)), t([1.0, 2.0])) == np.inf

    @pytest.mark.parametrize("drop_dot,factor", [(True, 1.0), (False, 1.01)],
                             ids=["dot_dropped", "scaled_1.01"])
    def test_wrong_softmax_backward_fails(self, drop_dot, factor):
        softmax = _wrong_softmax(drop_dot, factor)
        f = lambda x: ag.tsum(ag.mul(softmax(x), x))
        for seed in range(20):
            assert fd_error(f, _rand((2, 5), np.random.default_rng(seed))) > TOL, seed


class TestAffine:
    SHAPES = {"a": (2, 3, 4), "w": (4, 5), "b": (5,)}

    def _operands(self, rng):
        return {k: rng.uniform(-2.0, 2.0, size=s).astype(np.float32)
                for k, s in self.SHAPES.items()}

    def _fd_error(self, wrt, with_bias):
        ops = self._operands(np.random.default_rng(21))

        def f(x):
            args = {k: Tensor(v, dtype=np.float64) for k, v in ops.items()}
            args[wrt] = x
            out = ag.affine(args["a"], args["w"], args["b"] if with_bias else None)
            return ag.tsum(ag.mul(out, tanh(out)))

        return fd_error(f, Tensor(ops[wrt], requires_grad=True))

    @pytest.mark.parametrize("wrt", ["a", "w", "b"])
    def test_matches_finite_differences(self, wrt):
        assert self._fd_error(wrt, with_bias=True) < TOL

    @pytest.mark.parametrize("wrt", ["a", "w"])
    def test_without_bias_matches_finite_differences(self, wrt):
        assert self._fd_error(wrt, with_bias=False) < TOL

    def test_bit_identical_to_matmul_plus_add(self):
        ops = self._operands(np.random.default_rng(22))
        weight = np.random.default_rng(23).standard_normal((2, 3, 5)).astype(np.float32)
        results = []
        for fn in (lambda a, w, b: ag.affine(a, w, b),
                   lambda a, w, b: ag.add(ag.matmul(a, w), b)):
            leaves = {k: Tensor(v.copy(), requires_grad=True) for k, v in ops.items()}
            out = fn(leaves["a"], leaves["w"], leaves["b"])
            ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
            results.append([out.data] + [leaves[k].grad for k in ("a", "w", "b")])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 5), (5,)), ((2, 4), (4, 5), (4,)),
                                        ((2, 4), (4, 5), (1, 5)), ((2, 4), (2, 4, 5), (5,))])
    def test_shape_mismatch(self, shapes):
        a, w, b = (Tensor(np.zeros(s, dtype=np.float32)) for s in shapes)
        with pytest.raises(ShapeError):
            ag.affine(a, w, b)


class TestScalarOperands:
    """A python scalar operand of add/sub/mul, on either side, is a constant
    in the tensor's dtype and no tape parent."""

    @staticmethod
    def _run(op, scalar, dtype, scalar_left):
        x = Tensor(np.array([0.25, -1.5, 2.0], dtype=dtype), requires_grad=True, dtype=dtype)
        out = op(scalar, x) if scalar_left else op(x, scalar)
        ag.backward(ag.tsum(ag.mul(out, out)))
        return x, out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("op", [ag.add, ag.sub, ag.mul], ids=["add", "sub", "mul"])
    def test_either_side(self, op, dtype):
        c = 1.0 / 3.0
        const = Tensor(np.asarray(c, dtype=dtype), dtype=dtype)
        outs = {}
        for left in (True, False):
            x, out = self._run(op, c, dtype, left)
            assert out.dtype == dtype and x.grad.dtype == dtype
            assert out._parents == (x,)
            assert len(ag._topo_order(out)) == 2  # x and out: no constant leaf
            x_ref, ref = self._run(op, const, dtype, left)
            np.testing.assert_array_equal(out.data, ref.data)
            np.testing.assert_array_equal(x.grad, x_ref.grad)
            outs[left] = (out.data, x.grad)
        sign = -1 if op is ag.sub else 1  # c - x is exactly -(x - c)
        np.testing.assert_array_equal(outs[True][0], sign * outs[False][0])
        np.testing.assert_array_equal(outs[True][1], outs[False][1])


def lif_spikes(rng, shape) -> np.ndarray:
    """`bool` spikes as a LIF layer makes them: the output of `spiking._lif`."""
    with ag.no_grad():
        s = _lif(Tensor(rng.uniform(-1.0, 2.0, size=shape).astype(np.float32)), LifParams()).data
    assert s.dtype == bool and 0.0 < s.mean() < 1.0
    return s


class TestBoolOperands:
    """An op fed `bool` spikes gives the outputs and gradients, bit for bit,
    that it gives the same 0/1 values stored as float32, and a `bool`
    Tensor's gradient is float32."""

    @staticmethod
    def _run(fn, arrays, spikes_as_bool):
        """The leaves and fn(*leaves) after the backward of sum(out * weight);
        the `bool` arrays (the spikes) are `bool` leaves or float32 0/1 ones."""
        leaves = [Tensor(a, requires_grad=True,
                         dtype=bool if a.dtype == bool and spikes_as_bool else np.float32)
                  for a in arrays]
        out = fn(*leaves)
        weight = np.random.default_rng(7).standard_normal(out.shape).astype(np.float32)
        ag.backward(ag.tsum(ag.mul(out, Tensor(weight))))
        return leaves, out

    def check(self, fn, *arrays, bool_out=False):
        spikes = [a.dtype == bool for a in arrays]
        got_leaves, got = self._run(fn, arrays, True)
        ref_leaves, ref = self._run(fn, arrays, False)
        assert got.dtype == (bool if bool_out else np.float32)
        assert got.data.astype(np.float32).tobytes() == ref.data.astype(np.float32).tobytes()
        for leaf, spike, ref_leaf in zip(got_leaves, spikes, ref_leaves):
            assert leaf.dtype == (bool if spike else np.float32)
            assert leaf.grad.dtype == np.float32
            assert leaf.grad.tobytes() == ref_leaf.grad.tobytes()

    @pytest.mark.parametrize("side", ["left", "right", "both"])
    def test_batched_matmul(self, side):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 64, 40)).astype(np.float32)
        b = rng.standard_normal((2, 3, 40, 5)).astype(np.float32)
        if side in ("left", "both"):
            a = lif_spikes(rng, a.shape)
        if side in ("right", "both"):
            b = lif_spikes(rng, b.shape)
        self.check(ag.matmul, a, b)

    def test_matmul_of_transposed_spikes(self):
        # the attention readout: float scores times the frame-major V spikes
        # viewed as (..., N, T, d), and the scores' Q K^T on transposed K
        rng = np.random.default_rng(2)
        p = rng.standard_normal((2, 3, 1, 64)).astype(np.float32)
        v = lif_spikes(rng, (2, 64, 3, 8))
        self.check(lambda p, v: ag.matmul(p, ag.transpose(v, (0, 2, 1, 3))), p, v)
        q, k = lif_spikes(rng, (2, 3, 1, 8)), lif_spikes(rng, (2, 3, 64, 8))
        self.check(lambda q, k: ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), q, k)

    def test_weight_product(self):
        # a 2-d right operand runs through `affine`
        rng = np.random.default_rng(3)
        s = lif_spikes(rng, (2, 16, 3, 40))
        self.check(ag.matmul, s, rng.standard_normal((40, 6)).astype(np.float32))

    def test_transpose_and_take_pass_spikes_on(self):
        rng = np.random.default_rng(4)
        s = lif_spikes(rng, (2, 7, 3, 4))
        self.check(lambda s: ag.transpose(s, (0, 2, 1, 3)), s, bool_out=True)
        # take's gradient buffer is float32, not the data's `bool`
        self.check(lambda s: ag.take(s, [-1], axis=1), s, bool_out=True)
        self.check(lambda s: ag.take(ag.transpose(s, (0, 2, 1, 3)), np.arange(2, 5), axis=2), s,
                   bool_out=True)

    def test_scalar_operand_is_float(self):
        # a python scalar taken in a `bool` operand's dtype would be True
        s = lif_spikes(np.random.default_rng(9), (2, 5, 3, 4))
        for op in (ag.add, ag.sub, ag.mul):
            self.check(lambda s: op(s, 0.5), s)
            self.check(lambda s: op(0.5, s), s)

    def test_gather_sum(self):
        rng = np.random.default_rng(5)
        s = lif_spikes(rng, (2, 9, 6, 4))
        idx = np.array([[1, 2, 0], [0, 5, 0], [3, 4, 5], [2, 0, 0], [5, 1, 0], [4, 3, 2]])
        valid = np.array([[1, 1, 0], [1, 1, 0], [1, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]])
        self.check(lambda s: ag.gather_sum(s, idx, valid, axis=2), s)

    def test_lif_linear_of_lif_spikes(self):
        rng = np.random.default_rng(6)
        s = lif_spikes(rng, (2, 24, 3, 16))
        w = (rng.standard_normal((16, 8)) * 0.8).astype(np.float32)
        self.check(lambda s, w: lif_linear(s, w, LifParams(u_th=0.5, u_reset=-0.2)), s, w,
                   bool_out=True)

    def test_lstm_of_lif_spikes(self):
        rng = np.random.default_rng(8)
        s = lif_spikes(rng, (2, 40, 3, 6))
        p = LstmParams.init(6, 5, rng)
        wx, b, wh = (t.data for t in (p.wx, p.b, p.wh))
        for stride in (1, 4):
            self.check(lambda s, wx, b, wh: _lstm(s, wx, b, wh, stride), s, wx, b, wh)
