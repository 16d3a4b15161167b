"""Traced peak memory of one no-grad forward and one taped W4 train step.

Builds the default W4 model for `--nodes` nodes on the synthetic series, with
the window length `--input-len` and `--ts` sub-steps per step (config
defaults when not given), and runs one no-grad forward on a batch of
`--batch` train windows as a warm-up (it leaves no tape).
It then traces, with tracemalloc, a second no-grad forward (the inference
forward, which runs its frames in chunks), the same forward counted by an
`energy.OpCounter`, and one taped step: forward, `mse_loss` and backward.
Prints the peaks of the plain and the counted no-grad forward, the traced
memory held once the loss exists and the peak of the whole step, in MiB; all
count only what the forward or step allocates, not the model or the data.
Also prints `spike_mb`, the bytes of the spikes (the outputs of the "lif"
tape nodes) the taped forward holds for its backward, and `lstm_mb`, the
bytes the "lstm" tape node holds for its backward: the arrays its backward
closure keeps beyond its parents' data, which are the h and c entering each
of its `dsf.LSTM_CHUNK`-frame chunks.  Also prints `peak_node`: the op and
output shape of the tape node inside whose backward the step peaks, the
traced MiB held when that backward began and its peak, which is the step
peak (each node's backward is wrapped to read its own peak; "none" if the
step peaks elsewhere).  Also prints `maxrss_mb`, the process's peak
resident set from `resource.getrusage` (where the platform has it), which
counts everything: the interpreter, numpy, the model, and the
heap that the allocator keeps mapped after the arrays in it are freed
(`spikestag` raises glibc's trim threshold on import).  tracemalloc cannot see
that kept heap, so only `maxrss_mb` shows it.

    python3 tools/peak.py --nodes 16 --batch 8 [--input-len T] [--ts TS] [--root DIR]

λ is the smallest whole number at or above 0.625 * N (and at least the config
default), the bound at which every seed tried keeps every local sample set
non-empty; the seed is the config default.  Run one configuration per process,
so that no earlier step's buffers or allocator state show in the numbers.
`--root` is the checkout whose `src/spikestag` is imported (default: the
repository this script lives in).  Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np

SYNTH_STEPS = 1000
MB = 2**20


def measure(nodes: int, batch_size: int, t_in: int | None = None, ts: int | None = None) -> dict:
    from spikestag import autograd as ag
    from spikestag.data import make_windows, synth_generate
    from spikestag.energy import OpCounter
    from spikestag.model import ForecastModel, ModelConfig, mse_loss

    lam = float(max(ModelConfig.lam, math.ceil(0.625 * nodes)))
    cfg = ModelConfig(n_nodes=nodes, batch_size=batch_size, lam=lam, ablation="W4",
                      t_in=t_in or ModelConfig.t_in, ts=ts or ModelConfig.ts)
    windows = make_windows(synth_generate(nodes, SYNTH_STEPS, cfg.seed), cfg.t_in, cfg.horizon,
                           stride=cfg.stride)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    batch = windows.batch(windows.train_starts[:batch_size])
    target = batch.normalized_targets()
    with ag.no_grad():
        model.forward(batch)

    tracemalloc.start()
    try:
        with ag.no_grad():
            model.forward(batch)
        no_grad_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with ag.no_grad():
            model.forward(batch, counter=OpCounter())
        counted_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loss = mse_loss(model.forward(batch), target)
        held = tracemalloc.get_traced_memory()[0]
        tape = ag._topo_order(loss)
        spikes = sum(node.data.nbytes for node in tape if node._op == "lif")
        lstm = sum(saved_nbytes(node) for node in tape if node._op == "lstm")
        model.zero_grad()
        peak, peak_node = backward_by_node(loss, tape)
    finally:
        tracemalloc.stop()
    return {"nodes": nodes, "batch": batch_size, "lam": lam, "t_in": cfg.t_in, "ts": cfg.ts,
            "empty_local_sets": sum(not s for s in model.graph.samples_local),
            "no_grad_peak_mb": no_grad_peak / MB, "counted_peak_mb": counted_peak / MB,
            "held_mb": held / MB, "peak_mb": peak / MB, "spike_mb": spikes / MB,
            "lstm_mb": lstm / MB, "maxrss_mb": maxrss_mb(), "peak_node": peak_node}


def backward_by_node(loss, tape: list) -> tuple:
    """`autograd.backward(loss)` under tracemalloc, with the backward of
    every node of `tape` wrapped so that each one's traced peak is read on
    its own.  Returns the traced peak since tracing began or its peak was
    last reset, and the node inside whose backward that peak fell: its op,
    output shape, the MiB held when its backward began and its peak, or
    None if the peak fell outside every node's backward."""
    from spikestag import autograd as ag

    top = {"bytes": 0, "node": None}

    def wrapped(node, backward):
        def call(g):
            top["bytes"] = max(top["bytes"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            backward(g)
            peak = tracemalloc.get_traced_memory()[1]
            if peak > top["bytes"]:
                top["bytes"] = peak
                top["node"] = {"op": node._op, "shape": node.shape, "held_mb": held / MB,
                               "peak_mb": peak / MB}
            tracemalloc.reset_peak()
        return call

    for node in tape:
        if node._backward is not None:
            node._backward = wrapped(node, node._backward)
    ag.backward(loss)
    peak = max(top["bytes"], tracemalloc.get_traced_memory()[1])
    return peak, top["node"] if peak == top["bytes"] else None


def saved_nbytes(node) -> int:
    """Bytes of the arrays a tape node's backward closure holds, as cells or
    inside tuples and lists held as cells, that are not views of its
    parents' data."""
    arrays = []
    for cell in node._backward.__closure__ or ():
        held = cell.cell_contents
        arrays.extend(held if isinstance(held, (tuple, list)) else [held])
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)
               and not any(np.may_share_memory(a, p.data) for p in node._parents))


def maxrss_mb() -> float | None:
    """Peak resident set of this process in MiB, or None without `resource`."""
    try:
        import resource
    except ImportError:
        return None
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / MB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--input-len", type=int, help="window length T (config default: 64)")
    parser.add_argument("--ts", type=int, help="SNN sub-steps per step (config default: 4)")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/spikestag is measured")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.root) / "src"))
    r = measure(args.nodes, args.batch, args.input_len, args.ts)
    print(f"N={r['nodes']} B={r['batch']} lam={r['lam']:g} T={r['t_in']} ts={r['ts']} "
          f"(empty local sets: {r['empty_local_sets']}): "
          f"no-grad forward peak {r['no_grad_peak_mb']:.2f} MB "
          f"(counted {r['counted_peak_mb']:.2f} MB), "
          f"held after forward {r['held_mb']:.1f} MB, step peak {r['peak_mb']:.1f} MB")
    print(f"spike_mb {r['spike_mb']:.2f}")
    print(f"lstm_mb {r['lstm_mb']:.2f}")
    node = r["peak_node"]
    if node is None:
        print("peak_node none: the step peaks outside every node's backward")
    else:
        print(f"peak_node {node['op']} {tuple(node['shape'])}: held {node['held_mb']:.2f} MB, "
              f"peak {node['peak_mb']:.2f} MB")
    if r["maxrss_mb"] is not None:
        print(f"maxrss_mb {r['maxrss_mb']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
