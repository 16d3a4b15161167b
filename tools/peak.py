"""Traced peak memory of one no-grad forward and one taped W4 train step.

Builds the default W4 model for `--nodes` nodes on the synthetic series, with
the window length `--input-len` and `--ts` sub-steps per step (config
defaults when not given), and runs one no-grad forward on a batch of
`--batch` train windows (this calibrates `ssa_scale` and leaves no tape).
It then traces, with tracemalloc, a second no-grad forward (the inference
forward, which runs its frames in chunks) and one taped step: forward,
`mse_loss` and backward.  Prints the no-grad forward's peak, the traced
memory held once the loss exists and the peak of the whole step, in MiB; all
count only what the forward or step allocates, not the model or the data.
Also prints `maxrss_mb`, the
process's peak resident set from `resource.getrusage` (where the platform
has it), which counts everything: the interpreter, numpy, the model, and the
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

SYNTH_STEPS = 1000
MB = 2**20


def measure(nodes: int, batch_size: int, t_in: int | None = None, ts: int | None = None) -> dict:
    from spikestag import autograd as ag
    from spikestag.data import make_windows, synth_generate
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
        loss = mse_loss(model.forward(batch), target)
        held = tracemalloc.get_traced_memory()[0]
        model.zero_grad()
        ag.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"nodes": nodes, "batch": batch_size, "lam": lam, "t_in": cfg.t_in, "ts": cfg.ts,
            "empty_local_sets": sum(not s for s in model.graph.samples_local),
            "no_grad_peak_mb": no_grad_peak / MB, "held_mb": held / MB, "peak_mb": peak / MB,
            "maxrss_mb": maxrss_mb()}


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
          f"no-grad forward peak {r['no_grad_peak_mb']:.2f} MB, "
          f"held after forward {r['held_mb']:.1f} MB, step peak {r['peak_mb']:.1f} MB")
    if r["maxrss_mb"] is not None:
        print(f"maxrss_mb {r['maxrss_mb']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
