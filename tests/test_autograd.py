import numpy as np
import pytest

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.errors import ContractError, ShapeError

from per_step import heaviside_surrogate, stack


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

    def test_masked_fill(self):
        x = t([1.0, 2.0, 3.0])
        out = ag.masked_fill(x, np.array([False, True, False]), -9.0)
        np.testing.assert_array_equal(out.data, [1.0, -9.0, 3.0])

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


def _rand(shape, rng):
    return Tensor(rng.uniform(-2.0, 2.0, size=shape).astype(np.float32), requires_grad=True)


SMOOTH_CASES = [
    ("add", lambda x: ag.tsum(ag.add(x, ag.scale(x, 0.5))), (3, 4)),
    ("sub", lambda x: ag.tsum(ag.sub(x, ag.mul(x, x))), (3, 4)),
    ("mul", lambda x: ag.tsum(ag.mul(x, x)), (5,)),
    ("scale", lambda x: ag.tsum(ag.scale(x, -1.7)), (4,)),
    ("matmul", lambda x: ag.tsum(ag.matmul(x, ag.transpose(x, (1, 0)))), (3, 4)),
    ("sigmoid", lambda x: ag.tsum(ag.sigmoid(x)), (6,)),
    ("tanh", lambda x: ag.tsum(ag.tanh(x)), (6,)),
    ("softmax", lambda x: ag.tsum(ag.mul(ag.softmax(x, axis=-1), x)), (2, 5)),
    ("concat", lambda x: ag.tsum(ag.mul(ag.concat([x, x], axis=-1), ag.concat([x, ag.tanh(x)], axis=-1))), (2, 3)),
    ("stack", lambda x: ag.tsum(ag.mul(stack([x, ag.tanh(x)], axis=0), stack([ag.sigmoid(x), x], axis=0))), (2, 3)),
    ("mean", lambda x: ag.tmean(ag.mul(x, x)), (7,)),
    ("sum_axis", lambda x: ag.tsum(ag.mul(ag.tsum(x, axis=0), ag.tsum(x, axis=0))), (3, 4)),
    ("take", lambda x: ag.tsum(ag.mul(ag.take(x, np.array([[0, 2], [1, 1]]), axis=0), 1.5)), (3, 2)),
    ("select_index", lambda x: ag.tsum(ag.mul(ag.select_index(x, 1, axis=0), ag.select_index(x, 0, axis=0))), (3, 4)),
    ("narrow", lambda x: ag.tsum(ag.mul(ag.narrow(x, -1, 1, 2), ag.narrow(x, -1, 0, 2))), (3, 4)),
    ("masked_fill", lambda x: ag.tsum(ag.mul(ag.masked_fill(x, np.eye(3, dtype=bool), 0.5), x)), (3, 3)),
    ("transpose", lambda x: ag.tsum(ag.mul(ag.transpose(x, (1, 0)), 2.0)), (2, 4)),
    ("reshape", lambda x: ag.tsum(ag.mul(ag.reshape(x, (6,)), ag.reshape(ag.tanh(x), (6,)))), (2, 3)),
    ("broadcast_to", lambda x: ag.tsum(ag.mul(ag.broadcast_to(ag.reshape(x, (1, 4)), (3, 4)), 0.7)), (4,)),
    ("gather_sum", lambda x: ag.tsum(ag.mul(
        ag.gather_sum(x, np.array([[1, 2], [0, 0]]), np.array([[1.0, 1.0], [1.0, 0.0]]), axis=0), 1.3)), (3, 4)),
]


@pytest.mark.parametrize("name,fn,shape", SMOOTH_CASES, ids=[c[0] for c in SMOOTH_CASES])
def test_smooth_ops_match_finite_differences(name, fn, shape):
    rng = np.random.default_rng(hash(name) % 2**32)
    report = ag.grad_check(fn, _rand(shape, rng), h=1e-3, tol=1e-4)
    assert report.passed, f"{name}: {report}"


class TestGradCheck:
    def test_tanh_linear_chain(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=False)
        f = lambda x: ag.tsum(ag.tanh(ag.matmul(w, x)))
        report = ag.grad_check(f, _rand((4, 2), rng))
        assert report.passed and report.max_rel_err < 1e-4

    def test_identity_zero_error(self):
        # power-of-two step keeps x +/- h exact, so a linear f differences exactly
        report = ag.grad_check(lambda x: ag.tsum(x), t([1.0, 2.0, 3.0]), h=2.0**-10)
        assert report.max_rel_err == 0.0

    def test_rejects_surrogate_nodes(self):
        with pytest.raises(ContractError):
            ag.grad_check(lambda x: ag.tsum(heaviside_surrogate(x)), t([0.3, -0.2]))

    def test_rejects_non_scalar(self):
        with pytest.raises(ContractError):
            ag.grad_check(lambda x: ag.mul(x, x), t([1.0, 2.0]))


class TestAffine:
    SHAPES = {"a": (2, 3, 4), "w": (4, 5), "b": (5,)}

    def _operands(self, rng):
        return {k: rng.uniform(-2.0, 2.0, size=s).astype(np.float32)
                for k, s in self.SHAPES.items()}

    @pytest.mark.parametrize("wrt", ["a", "w", "b"])
    def test_matches_finite_differences(self, wrt):
        ops = self._operands(np.random.default_rng(21))

        def f(x):
            args = {k: Tensor(v.astype(np.float64), dtype=np.float64) for k, v in ops.items()}
            args[wrt] = x
            out = ag.affine(args["a"], args["w"], args["b"])
            return ag.tsum(ag.mul(out, ag.tanh(out)))

        report = ag.grad_check(f, Tensor(ops[wrt], requires_grad=True))
        assert report.passed, report

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
