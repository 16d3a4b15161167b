"""Median time of the fused LIF and LSTM kernels at the benchmark's shapes.

For each of the train-n8, infer-ts8 and train-n32 configs, times five
kernel calls on synthetic inputs of that config's shapes (batch B, window T,
sub-steps ts, nodes N, feature width f):

  lif              `spiking._lif` per frame on (B, T*ts, N, d1) potentials,
                   the shape of the MSSA hops;
  lif steps=ts     `spiking._lif` with `steps=ts` on (B, T, N, h_dim)
                   values, the shape of the DSF re-encoder;
  lif_linear hop1  `spiking.lif_linear` of (B, T*ts, N, f) gather sums (whole
                   numbers up to k1) through an (f, d1) weight, as hop 1;
  lif_linear ssa.qkv
                   `spiking.lif_linear` of (B, T*ts, N, h_dim) `bool` spikes
                   through three (h_dim, d_k) weights as the column blocks of
                   one (h_dim, 3*d_k) projection, as `dsf.qkv_spikes` calls
                   it for Q, K and V;
  lstm             `dsf._lstm` on (B, T*ts, N, d2) `bool` spikes with the
                   stride W4 uses (ts).

The spikes are `bool`, as the model's LIF layers make them.

Each call is timed as a no-grad forward, a taped forward, and the backward
of that taped node alone (called directly on a fixed upstream gradient, so no
other tape node is timed).  Prints the median over `--repeats` rounds, in
ms, after one untimed round.  Then one more untimed round traces the
backward with tracemalloc and prints `backward_peak_mb`: the peak it
allocates above what was held before it (the tape and the upstream
gradient), in MiB, so that its temporaries show; no timed call is traced.

    python3 tools/kernels.py [--repeats 21] [--root DIR]

The configs are `tools/fingerprint.py`'s.  BLAS is pinned to one thread
before numpy is imported, as `bench/run.py` does.  `--root` is the checkout whose `src/spikestag` is imported (default:
the repository this script lives in), so a second checkout can be timed with
the same script.  Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

PHASES = ("no_grad_ms", "taped_ms", "backward_ms")
COLUMNS = PHASES + ("backward_peak_mb",)


def kernel_cases(cfg, rng):
    """(label, input shape, leaves, call) for the five kernels at `cfg`'s shapes."""
    import numpy as np
    from spikestag import dsf, spiking
    from spikestag.autograd import Tensor
    from spikestag.dsf import LstmParams

    def leaf(a):
        return Tensor(a, requires_grad=True, dtype=bool if a.dtype == bool else np.float32)

    b, t, n, ts = cfg.batch_size, cfg.t_in, cfg.n_nodes, cfg.ts
    lif = cfg.lif()
    potentials = leaf(rng.standard_normal((b, t * ts, n, cfg.d1)) * 0.5)
    hidden = leaf(rng.uniform(-1.0, 1.0, (b, t, n, cfg.h_dim)))
    spikes = leaf(rng.random((b, t * ts, n, cfg.d2)) < 0.3)
    p = LstmParams.init(cfg.d2, cfg.h_dim, rng)
    f = cfg.feature_width
    sums = leaf(rng.integers(0, cfg.k1 + 1, (b, t * ts, n, f)))
    w1 = leaf(rng.standard_normal((f, cfg.d1)) * 2.0 / f ** 0.5)
    re_encoded = leaf(rng.random((b, t * ts, n, cfg.h_dim)) < 0.3)
    w_qkv = [leaf(rng.standard_normal((cfg.h_dim, cfg.d_k)) * 2.0 / cfg.h_dim ** 0.5)
             for _ in range(3)]
    return [
        ("lif", potentials.shape, [potentials], lambda: spiking._lif(potentials, lif)),
        (f"lif steps={ts}", hidden.shape, [hidden], lambda: spiking._lif(hidden, lif, ts)),
        ("lif_linear hop1", sums.shape, [sums, w1], lambda: spiking.lif_linear(sums, w1, lif)),
        ("lif_linear ssa.qkv", re_encoded.shape, [re_encoded, *w_qkv],
         lambda: spiking.lif_linear(re_encoded, tuple(w_qkv), lif, layer=dsf.QKV_LAYERS)),
        (f"lstm stride={ts}", spikes.shape, [spikes, p.wx, p.b, p.wh],
         lambda: dsf._lstm(spikes, p.wx, p.b, p.wh, ts)),
    ]


def time_case(leaves, call, repeats: int, rng) -> dict:
    import numpy as np
    from spikestag import autograd as ag

    times = {phase: [] for phase in PHASES}
    g_out = None
    for _ in range(repeats + 1):
        with ag.no_grad():
            t0 = time.perf_counter()
            call()
            t1 = time.perf_counter()
        out = call()
        t2 = time.perf_counter()
        if g_out is None:
            g_out = rng.standard_normal(out.shape).astype(np.float32)
        g = g_out.copy()
        for x in leaves:
            x.grad = None
        t3 = time.perf_counter()
        out._backward(g)
        t4 = time.perf_counter()
        for phase, dt in zip(PHASES, (t1 - t0, t2 - t1, t4 - t3)):
            times[phase].append(dt * 1e3)
    result = {phase: statistics.median(ms[1:]) for phase, ms in times.items()}
    out = call()
    g = g_out.copy()
    for x in leaves:
        x.grad = None
    tracemalloc.start()     # after the forward: only the backward's blocks are traced
    try:
        out._backward(g)
        result["backward_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=21, help="timed rounds per kernel")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/spikestag is timed")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(args.root) / "src"))
    import numpy as np  # after the thread pin
    import spikestag
    from fingerprint import CONFIGS  # the benchmark configs, from this directory
    from spikestag.model import ModelConfig

    print(f"timing {Path(spikestag.__file__).parent}, median of {args.repeats}", file=sys.stderr)
    print(f"{'config':<10} {'kernel':<18} {'input shape':<18} " + " ".join(
        f"{column:>11}" for column in COLUMNS))
    for name, (overrides, _) in CONFIGS.items():
        rng = np.random.default_rng(1)
        for label, shape, leaves, call in kernel_cases(ModelConfig(**overrides), rng):
            r = time_case(leaves, call, args.repeats, rng)
            print(f"{name:<10} {label:<18} {str(tuple(shape)):<18} " + " ".join(
                f"{r[column]:11.2f}" for column in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
