import math

import numpy as np
import pytest

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.graph import padded_index_mask
from spikestag.obs import ObsParams, obs_forward

from gradcheck import TOL, f64, fd_error


def obs_oracle(x, neighborhoods, wq, wk, wv):
    """Double-loop attention reference; returns output and attention rows."""
    t_len, n, f = x.shape
    out = x.copy()
    attn_rows = {}
    for t in range(t_len):
        q = x[t] @ wq
        k = x[t] @ wk
        v = x[t] @ wv
        for i in range(n):
            nbrs = neighborhoods[i]
            if not nbrs:
                continue
            scores = np.array([q[i] @ k[j] / math.sqrt(f) for j in nbrs], dtype=np.float64)
            w = np.exp(scores - scores.max())
            w /= w.sum()
            attn_rows[(t, i)] = w
            out[t, i] = x[t, i] + sum(wj * v[j] for wj, j in zip(w, nbrs))
    return out, attn_rows


def padded(sets):
    """The (index, valid) pair `obs_forward` reads, from hand-written sets."""
    return padded_index_mask(sets, len(sets))


def params_from(wq, wk, wv):
    return ObsParams(
        Tensor(wq.astype(np.float32), requires_grad=True),
        Tensor(wk.astype(np.float32), requires_grad=True),
        Tensor(wv.astype(np.float32), requires_grad=True),
    )


def test_empty_neighborhoods_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 5)).astype(np.float32)
    p = ObsParams.init(5, rng)
    out = obs_forward(Tensor(x), padded([[], [], []]), p)
    np.testing.assert_array_equal(out.data, x)


def test_single_neighbor_softmax_is_one():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    wq, wk, wv = (rng.standard_normal((4, 4)) for _ in range(3))
    p = params_from(wq, wk, wv)
    out = obs_forward(Tensor(x), padded([[2], [], []]), p)
    expected = x.copy()
    for t in range(2):
        expected[t, 0] = x[t, 0] + x[t, 2] @ wv.astype(np.float32)
    np.testing.assert_allclose(out.data, expected, atol=1e-5)


def test_matches_double_loop_oracle_identity_weights():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3, 4)).astype(np.float32)
    eye = np.eye(4)
    p = params_from(eye, eye, eye)
    nbrs = [[1, 2], [0], []]
    out = obs_forward(Tensor(x), padded(nbrs), p)
    expected, _ = obs_oracle(x.astype(np.float64), nbrs, eye, eye, eye)
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_matches_oracle_random_weights_and_attention_sums():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4, 6)).astype(np.float32)
    wq, wk, wv = (rng.standard_normal((6, 6)) * 0.5 for _ in range(3))
    nbrs = [[1, 3], [0, 2, 3], [1], []]
    p = params_from(wq, wk, wv)
    out = obs_forward(Tensor(x), padded(nbrs), p)
    expected, attn = obs_oracle(
        x.astype(np.float64), nbrs,
        p.w_q.data.astype(np.float64), p.w_k.data.astype(np.float64),
        p.w_v.data.astype(np.float64))
    np.testing.assert_allclose(out.data, expected, atol=1e-5)
    for row in attn.values():
        assert abs(row.sum() - 1.0) < 1e-6


def test_zero_value_projection_is_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4, 5)).astype(np.float32)
    p = params_from(rng.standard_normal((5, 5)), rng.standard_normal((5, 5)), np.zeros((5, 5)))
    out = obs_forward(Tensor(x), padded([[1], [2, 3], [0], [0, 1]]), p)
    np.testing.assert_allclose(out.data, x, atol=1e-7)


def test_gradient_check():
    rng = np.random.default_rng(5)
    p = params_from(*(rng.standard_normal((3, 3)) * 0.5 for _ in range(3)))
    nbrs = [[1], [0, 2], [1]]
    r = rng.standard_normal((2, 3, 3)).astype(np.float32)

    def f(x):
        out = obs_forward(x, padded(nbrs), ObsParams(f64(p.w_q), f64(p.w_k), f64(p.w_v)))
        return ag.tsum(ag.mul(out, Tensor(r, dtype=np.float64)))

    x0 = Tensor(rng.standard_normal((2, 3, 3)).astype(np.float32), requires_grad=True)
    assert fd_error(f, x0) < TOL


def test_gradient_check_wrt_projections():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 3)).astype(np.float32)
    nbrs = [[1, 2], [0], [0, 1]]
    base = [rng.standard_normal((3, 3)) * 0.5 for _ in range(3)]

    for slot in range(3):
        def f(w):
            mats = [Tensor(b, dtype=np.float64) for b in base]
            mats[slot] = w
            out = obs_forward(Tensor(x, dtype=np.float64), padded(nbrs), ObsParams(*mats))
            return ag.tsum(ag.mul(out, out))

        err = fd_error(f, Tensor(base[slot].astype(np.float32), requires_grad=True))
        assert err < TOL, (slot, err)
