"""Workloads, measurement and correctness gate of the spikestag benchmark.

`run_workload` runs one workload for one seed and returns the result the
entry point prints.  Each workload is a closed loop with one caller: the next
train step or inference batch starts when the previous one returns.  The
timed run (trace off) gives the end-to-end metrics; the traced run (trace on)
installs the span hooks of `spans.py` and gives the per-layer metrics.

Everything is driven through spikestag's public calls: `synth_generate`,
`make_windows`, `ForecastModel`, `mse_loss`, `autograd.backward`,
`clip_grad_norm`, `Adam`, `checkpoint.save_model` / `load_model`,
`ForecastModel.predict`, `OpCounter` and `estimate_energy`.
"""

from __future__ import annotations

import os
import platform
import statistics
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from spikestag import autograd as ag
from spikestag import checkpoint
from spikestag.data import make_windows, synth_generate
from spikestag.energy import OpCounter, estimate_energy
from spikestag.errors import ContractError, DivergenceError
from spikestag.model import Adam, ForecastModel, ModelConfig, clip_grad_norm, mse_loss

import spans

SETUP_REPEATS = 31     # set-ups per run, spread over the timed loop; setup_s is their median
SYNTH_STEPS = 1000     # hourly steps of the synthetic series
WARMUP_STEPS = 2       # steps run before timing starts (lazy calibration, first page faults)
LOSS_STEPS = 8         # fixed step count; model.loss is the mean over its final LOSS_TAIL
LOSS_TAIL = 4
BASELINE_STEPS = 3     # untraced steps the traced run compares its own steps against
STEP_FAILURES = (DivergenceError, ContractError, MemoryError)

BACKWARD_OPS = ("matmul", "select_index", "narrow", "stack", "add", "mul", "heaviside",
                "lif_reset", "softmax", "sigmoid", "tanh", "take", "gather_sum")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                  # "train" or "infer"
    config: ModelConfig

    def model_config(self, seed: int) -> ModelConfig:
        return replace(self.config, seed=seed)


WORKLOADS = {
    # Default model: the autograd tape and the per-frame LSTM/LIF loops dominate,
    # backward is about half the step.
    "train-n8": Workload("train-n8", "train", ModelConfig()),
    # Eval path, no tape: (T*ts)^2 attention scores dominate time and peak memory.
    "infer-ts8": Workload("infer-ts8", "infer", ModelConfig(ts=8)),
    # Many nodes, short frames, small batch: graph building, MSSA gathers and
    # the per-step optimiser take larger shares; attention is small.  lam=24
    # because lam=4 empties every local set at N=32 and lam=16 leaves only
    # ~1.5% of embedding draws usable, so some seeds exhaust the init retries.
    "train-n32": Workload("train-n32", "train",
                          ModelConfig(n_nodes=32, t_in=24, batch_size=4, lam=24.0)),
}

# name -> unit of every metric; the traced run emits PER_LAYER_UNITS.
END_TO_END_UNITS = {
    "windows_per_s": "1/s",
    "step_ms_p50": "ms",
    "peak_traced_mb": "MB",
    "setup_s": "s",
    "energy_uj_per_window": "uJ",
    "ok_frac": "frac",
}


# Layers reported with fwd_ms, bwd_ms, tape_nodes and alloc_mb; the spiking
# ones also with spike_rate.
LAYERS = ("obs", "mssa.encoder", "mssa.hop1", "mssa.hop2", "dsf.lstm", "dsf.encoder",
          "dsf.ssa", "dsf.gate")
SPIKING_LAYERS = ("mssa.encoder", "mssa.hop1", "mssa.hop2", "dsf.encoder", "dsf.ssa")


def _layer_units() -> dict:
    units = {"autograd.backward_ms": "ms", "autograd.tape_nodes": "count",
             "autograd.bwd_untagged_ms": "ms"}
    units.update({f"autograd.bwd.{op}_ms": "ms" for op in BACKWARD_OPS})
    fields = {"fwd_ms": "ms", "bwd_ms": "ms", "tape_nodes": "count", "alloc_mb": "MB"}
    for layer in LAYERS:
        units.update({f"{layer}.{f}": u for f, u in fields.items()})
        if layer in SPIKING_LAYERS:
            units[f"{layer}.spike_rate"] = "frac"
    units.update({
        "dsf.ssa.attn.fwd_ms": "ms", "dsf.ssa.attn.alloc_mb": "MB",
        "graph.build_ms": "ms", "graph.init_ms": "ms", "graph.local_nonempty_frac": "frac",
        "graph.local_size_mean": "count", "graph.semi_size_mean": "count",
        "model.embed.fwd_ms": "ms", "model.forward_self_ms": "ms", "model.optim_ms": "ms",
        "model.loss": "mse",
        "data.batch_ms": "ms",
        "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms", "checkpoint.bytes": "bytes",
        "energy.count_ms": "ms", "energy.mac_per_window": "count",
        "energy.ac_per_window": "count", "energy.reduction_pct": "%",
        "trace.overhead_pct": "%",
    })
    return units


PER_LAYER_UNITS = _layer_units()


# -- environment ----------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


# -- set-up -------------------------------------------------------------------------


@dataclass
class State:
    workload: Workload
    windows: object
    model: ForecastModel
    batches: object                       # endless iterator of window-start lists
    opt: Adam | None = None
    params: dict = field(default_factory=dict)


def _batches(starts: list, batch_size: int, rng: np.random.Generator | None):
    """Full batches forever; a fresh shuffle per pass when `rng` is given."""
    while True:
        order = [starts[i] for i in rng.permutation(len(starts))] if rng is not None else starts
        for i in range(0, len(order) - batch_size + 1, batch_size):
            yield order[i:i + batch_size]


def checkpoint_roundtrip(model: ForecastModel, path: Path, tracer=spans.OFF) -> ForecastModel:
    with tracer.span("checkpoint.save"):
        checkpoint.save_model(path, model)
    with tracer.span("checkpoint.load"):
        loaded = checkpoint.load_model(path)
    return loaded


def setup(wl: Workload, seed: int, ckpt_path: Path, tracer=spans.OFF) -> State:
    """Data synthesis, windowing, model construction (+ checkpoint round trip for inference)."""
    cfg = wl.model_config(seed)
    dataset = synth_generate(cfg.n_nodes, SYNTH_STEPS, seed)
    windows = make_windows(dataset, cfg.t_in, cfg.horizon, stride=cfg.stride)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    if wl.mode == "infer":
        model = checkpoint_roundtrip(model, ckpt_path, tracer)
        return State(wl, windows, model, _batches(windows.test_starts, cfg.batch_size, None))
    params = model.parameters()
    rng = np.random.default_rng(seed)
    return State(wl, windows, model, _batches(windows.train_starts, cfg.batch_size, rng),
                 opt=Adam(params, lr=cfg.lr), params=params)


def graph_stats(model: ForecastModel) -> dict:
    g = model.build_graph()
    return {
        "graph.local_nonempty_frac": float(np.mean([len(s) > 0 for s in g.samples_local])),
        "graph.local_size_mean": float(np.mean([len(s) for s in g.samples_local])),
        "graph.semi_size_mean": float(np.mean([len(s) for s in g.samples_semiglobal])),
    }


def count_energy(state: State):
    """Op counts and energy report of one counted forward on the workload's first batch."""
    cfg = state.model.config
    starts = (state.windows.test_starts if state.workload.mode == "infer"
              else state.windows.train_starts)[:cfg.batch_size]
    batch = state.windows.batch(starts)
    counter = OpCounter()
    counter.counts.param_count = state.model.param_count()
    counter.counts.batch_elements = batch.batch_size
    with counter, ag.no_grad():
        state.model.forward(batch, counter=counter)
    layers = {name: vars(lc) for name, lc in counter.counts.layers.items()}
    return layers, estimate_energy(counter.counts)


# -- one step -----------------------------------------------------------------------


def run_step(state: State, tracer=spans.OFF):
    """One train step or inference batch; returns (normalized predictions, loss)."""
    with tracer.span("data.batch"):
        batch = state.windows.batch(next(state.batches))
    model = state.model
    if state.workload.mode == "infer":
        pred = model.predict(batch)
        pred_norm = (pred - batch.mean) / batch.std
        return pred_norm, float(np.mean((pred_norm - batch.normalized_targets()) ** 2))
    pred = model.forward(batch)
    loss = mse_loss(pred, batch.normalized_targets())
    model.zero_grad()
    with tracer.span("autograd.backward"):
        ag.backward(loss)
    with tracer.span("model.optim"):
        clip_grad_norm(state.params, 1.0)
        state.opt.step()
    for name, p in state.params.items():
        if not np.all(np.isfinite(p.data)):
            raise DivergenceError(name)
    return pred.data, loss.item()


class Ledger:
    """Counts every attempted step; failures are never skipped silently."""

    def __init__(self, expected_shape: tuple):
        self.expected_shape = expected_shape
        self.attempted = 0
        self.failed = 0
        self.losses: list = []
        self.problems: list = []

    def attempt(self, state: State, tracer=spans.OFF) -> bool:
        self.attempted += 1
        try:
            pred, loss = run_step(state, tracer)
        except STEP_FAILURES as exc:
            self.failed += 1
            self.problems.append(f"step {self.attempted}: {type(exc).__name__}: {exc}")
            return False
        if pred.shape != self.expected_shape:
            self.problems.append(f"step {self.attempted}: prediction shape {pred.shape}, "
                                 f"expected {self.expected_shape}")
        if not (np.isfinite(loss) and np.all(np.isfinite(pred))):
            self.failed += 1
            self.problems.append(f"step {self.attempted}: non-finite loss or prediction")
            return False
        self.losses.append(loss)
        return True


def _expected_shape(cfg: ModelConfig) -> tuple:
    return (cfg.batch_size, cfg.horizon, cfg.n_nodes)


class GateError(Exception):
    """A check made before timing failed, so the run is refused, not timed."""


def _gate(state: State, tracer=spans.OFF):
    """Checks every run makes before timing; returns the graph stats and energy report."""
    problems = []
    stats = graph_stats(state.model)
    if stats["graph.local_nonempty_frac"] != 1.0:
        problems.append(f"graph: local_nonempty_frac {stats['graph.local_nonempty_frac']} != 1, "
                        "MSSA would aggregate nothing for some nodes")
    with tracer.span("energy.count"):
        first, report = count_energy(state)
    second, _ = count_energy(state)
    if first != second:
        problems.append("energy: two counted forwards of one model gave different op counts")
    if problems:
        raise GateError("; ".join(problems))
    return stats, report


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- timed run ----------------------------------------------------------------------


def _timed_setup(wl: Workload, seed: int, ckpt_path: Path, setup_s: list) -> State:
    t0 = perf_counter()
    state = setup(wl, seed, ckpt_path)
    setup_s.append(perf_counter() - t0)
    return state


def timed_run(wl: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    ckpt_path = out_dir / f"{wl.name}-{os.getpid()}.stag"
    setup_s = []
    state = _timed_setup(wl, seed, ckpt_path, setup_s)
    cfg = state.model.config
    ledger = Ledger(_expected_shape(cfg))
    _, report = _gate(state)

    # The other set-ups are spread over the timed loop, between steps and
    # outside their timing, so that set-up and steps see the same host load.
    step_s, ok_windows, timed_s = [], 0, 0.0
    while ledger.attempted <= WARMUP_STEPS or timed_s < seconds:
        t0 = perf_counter()
        ok = ledger.attempt(state)
        dt = perf_counter() - t0
        if ledger.attempted > WARMUP_STEPS:
            timed_s += dt
            if ok:
                step_s.append(dt)
                ok_windows += cfg.batch_size
            while len(setup_s) < SETUP_REPEATS * min(timed_s / seconds, 1.0):
                _timed_setup(wl, seed, ckpt_path, setup_s)
    ckpt_path.unlink(missing_ok=True)
    tracemalloc.start()
    try:
        ledger.attempt(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    metrics = {
        "windows_per_s": ok_windows / timed_s if timed_s > 0 else 0.0,
        "step_ms_p50": _median(step_s) * 1e3,
        "peak_traced_mb": peak / 2**20,
        "setup_s": _median(setup_s),
        "energy_uj_per_window": report.total_mj * 1e3,
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }
    details = {"failed_frac": ledger.failed / ledger.attempted, "timed_s": timed_s,
               "step_samples": len(step_s), "step_ms": [t * 1e3 for t in step_s],
               "setup_samples": len(setup_s), "setup_ms": [t * 1e3 for t in setup_s]}
    return _result(metrics, END_TO_END_UNITS, ledger, details)


# -- traced run ---------------------------------------------------------------------


def traced_run(wl: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    ckpt_path = out_dir / f"{wl.name}-{os.getpid()}.stag"
    tracer = spans.Tracer()
    with tracer.hooks():
        state = setup(wl, seed, ckpt_path, tracer)
        if wl.mode == "train":            # inference set-up already made the round trip
            checkpoint_roundtrip(state.model, ckpt_path, tracer)
        ckpt_bytes = ckpt_path.stat().st_size
        ckpt_path.unlink()
    cfg = state.model.config
    ledger = Ledger(_expected_shape(cfg))
    with tracer.hooks():
        stats, report = _gate(state, tracer)

    baseline_s = []
    for i in range(WARMUP_STEPS + BASELINE_STEPS):
        t0 = perf_counter()
        ok = ledger.attempt(state)
        if ok and i >= WARMUP_STEPS:
            baseline_s.append(perf_counter() - t0)

    records, traced_s = [], 0.0
    with tracer.hooks():
        while len(records) < 2 or ledger.attempted < LOSS_STEPS or traced_s < seconds:
            tracer.begin_step(ledger.attempted)
            t0 = perf_counter()
            ok = ledger.attempt(state, tracer)
            dt = perf_counter() - t0
            traced_s += dt
            record = tracer.end_step(dt)
            if ok:
                records.append(record)
        tracer.track_memory = True
        tracemalloc.start()
        try:
            tracer.begin_step(ledger.attempted)
            ledger.attempt(state, tracer)
            memory = tracer.end_step(0.0)
        finally:
            tracemalloc.stop()
            tracer.track_memory = False
    if tracer.nonbinary:
        ledger.problems.append(f"spikes: non-binary output from {sorted(tracer.nonbinary)}")

    metrics = _layer_metrics(records, memory)
    metrics.update(stats)
    setup_spans = {}
    for s in tracer.spans:
        if s["step"] == "setup":
            setup_spans.setdefault(s["name"], []).append((s["end"] - s["start"]) * 1e3)
    losses = ledger.losses[:LOSS_STEPS][-LOSS_TAIL:]
    metrics.update({
        "model.loss": float(np.mean(losses)) if losses else 0.0,
        "graph.init_ms": _median(setup_spans.get("graph.init", [])),
        "checkpoint.save_ms": _median(setup_spans.get("checkpoint.save", [])),
        "checkpoint.load_ms": _median(setup_spans.get("checkpoint.load", [])),
        "checkpoint.bytes": float(ckpt_bytes),
        "energy.count_ms": _median(setup_spans.get("energy.count", [])),
        "energy.mac_per_window": sum(r["mac_ops"] for r in report.per_layer.values()),
        "energy.ac_per_window": sum(r["ac_ops"] for r in report.per_layer.values()),
        "energy.reduction_pct": report.reduction_pct,
    })
    traced_step = _median([r.wall_s for r in records])
    untraced_step = _median(baseline_s)
    metrics["trace.overhead_pct"] = (100.0 * (traced_step / untraced_step - 1.0)
                                     if untraced_step > 0 else 0.0)
    details = {"traced_steps": len(records), "baseline_steps": len(baseline_s),
               "traced_step_ms": traced_step * 1e3, "untraced_step_ms": untraced_step * 1e3}
    result = _result(metrics, PER_LAYER_UNITS, ledger, details)
    result["spans"] = tracer.spans
    return result


def _layer_metrics(steps: list, memory: spans.StepRecord) -> dict:
    """Per-step medians over the traced steps; alloc_mb from the tracemalloc step."""

    def med(get) -> float:
        return _median([get(r) for r in steps])

    out = {
        "autograd.backward_ms": med(lambda r: r.self_s["autograd.backward"] * 1e3),
        "autograd.tape_nodes": med(lambda r: sum(r.nodes.values())),
        # backward outside every layer's own nodes: the loss, the head and
        # readout built by ForecastModel.forward itself, and the tape walk
        "autograd.bwd_untagged_ms": med(lambda r: (r.self_s["autograd.backward"] - sum(
            t for layer, t in r.bwd_s.items() if layer != "model.forward")) * 1e3),
        "graph.build_ms": med(lambda r: r.self_s["graph.build"] * 1e3),
        "model.embed.fwd_ms": med(lambda r: r.self_s["model.embed"] * 1e3),
        "model.forward_self_ms": med(lambda r: r.self_s["model.forward"] * 1e3),
        "model.optim_ms": med(lambda r: r.self_s["model.optim"] * 1e3),
        "data.batch_ms": med(lambda r: r.self_s["data.batch"] * 1e3),
        "dsf.ssa.attn.fwd_ms": med(lambda r: r.self_s["dsf.ssa.attn"] * 1e3),
        "dsf.ssa.attn.alloc_mb": memory.alloc_bytes["dsf.ssa.attn"] / 2**20,
    }
    for op in BACKWARD_OPS:
        out[f"autograd.bwd.{op}_ms"] = med(lambda r: r.op_bwd_s[op] * 1e3)
    for layer in LAYERS:
        out[f"{layer}.fwd_ms"] = med(lambda r: r.self_s[layer] * 1e3)
        out[f"{layer}.bwd_ms"] = med(lambda r: r.bwd_s[layer] * 1e3)
        out[f"{layer}.tape_nodes"] = med(lambda r: r.nodes[layer])
        out[f"{layer}.alloc_mb"] = memory.alloc_bytes[layer] / 2**20
        if layer in SPIKING_LAYERS:
            out[f"{layer}.spike_rate"] = med(
                lambda r: r.spikes_active[layer] / max(r.spikes_total[layer], 1.0))
    return out


# -- result -----------------------------------------------------------------------


def _result(metrics: dict, units: dict, ledger: Ledger, details: dict) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"benchmark computed no value for {sorted(missing)}")
    return {
        "correct": not ledger.problems and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
        "problems": ledger.problems,
        "details": details,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    run = traced_run if trace else timed_run
    result = run(wl, seed, seconds, out_dir)
    result["environment"] = environment(wl.name, seed)
    return result
