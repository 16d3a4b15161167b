"""Central finite-difference oracle for the autograd tape.

`fd_error(f, x)` compares the analytic gradient of a scalar-valued `f` at `x`
with central differences, in float64, and returns

    max|a - n| / max(max|a|, max|n|)

over the whole case: 0 when both gradients are all zero, and inf when either
holds a NaN or an inf, so a non-finite gradient never passes `< TOL`.  The
error is measured against the largest gradient entry, not entry by entry: a
near-zero entry's O(h^2) truncation error would otherwise read as a large
relative error.  A wrong backward still shows: on `tsum(softmax(x) * x)` over
300 seeds, dropping softmax's `-(g.s).sum` term reads >= 0.11 and scaling its
gradient by 1.01 reads >= 1.9e-3, against a tolerance of 1e-4.

Finite differences are meaningless across a step discontinuity, so a graph
that reaches a surrogate-gradient node (`lif` in the package, `heaviside` in
`per_step.py`) is refused with ContractError, as is a non-scalar `f`.
"""

import numpy as np

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.errors import ContractError

TOL = 1e-4
SURROGATE_OPS = ("lif", "heaviside")


def f64(t: Tensor) -> Tensor:
    """A float64 constant copy of `t`, for the operands a checked `f` closes over."""
    return Tensor(t.data, dtype=np.float64)


def fd_error(f, x: Tensor, h: float = 1e-3) -> float:
    """The error of the analytic gradient of scalar `f` at `x`, as measured above."""
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True, dtype=np.float64)
    y = f(x64)
    surrogates = sorted({n._op for n in ag._topo_order(y)}.intersection(SURROGATE_OPS))
    if surrogates:
        raise ContractError(f"fd_error: f reaches surrogate-gradient node(s) {surrogates}")
    if y.data.size != 1:
        raise ContractError(f"fd_error: f must return a scalar, got shape {y.shape}")
    ag.backward(y)
    analytic = x64.grad if x64.grad is not None else np.zeros_like(x64.data)

    numeric = np.empty_like(x64.data)
    flat, nflat = x64.data.reshape(-1), numeric.reshape(-1)
    with ag.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(x64).item()
            flat[i] = orig - h
            fm = f(x64).item()
            flat[i] = orig
            nflat[i] = (fp - fm) / (2.0 * h)

    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        return float("inf")
    scale = max(np.abs(analytic).max(), np.abs(numeric).max())
    return float(np.abs(analytic - numeric).max() / scale) if scale != 0 else 0.0
