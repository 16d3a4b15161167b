"""Span tracer for the traced benchmark run.

The tracer instruments spikestag from the outside: `Tracer.hooks()` swaps
each layer function named in `LAYER_HOOKS` for a wrapper and puts the
original back on exit, so no file of the package changes.  Each wrapped
call records a span (name, start, end, parent, step).  Spans stay in memory
until `Tracer.spans` is written out by the caller.

Backward time is attributed by tape ownership: when a layer call returns,
every recorded tape node reachable from its output that no inner layer has
claimed yet belongs to that layer, and its backward closure is replaced by a
timed one.  Walks pass through nodes of inner layers and stop at the call's
tensor arguments, so nodes the caller built before the call stay with the
caller.

Self time of a span is its duration minus the time of its child spans and
minus the tracer's own bookkeeping done inside it.  With `track_memory` on
(tracemalloc running), each span also records its peak traced allocation
above the level at which it opened, children included.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import spikestag.dsf
import spikestag.model
import spikestag.mssa
from spikestag.autograd import Tensor
from spikestag.spiking import SpikeTrain


def _tensors(obj) -> list:
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, SpikeTrain):
        return [obj.values]
    if isinstance(obj, (list, tuple)):
        return [t for item in obj for t in _tensors(item)]
    return []


def _output_spikes(args, kwargs, out) -> list:
    return [t.data for t in _tensors(out)]


def _qkv_spikes(args, kwargs, out) -> list:
    return [t.data for t in _tensors(args[:3])]


def _fixed(name):
    return lambda args, kwargs: name


# (owner, attribute, span name from the call, spiking layer the call's spikes
# count towards (None: the span's own), spikes of the call or None).
# Attributes of spikestag.model are the names the forward pass looks up at
# call time, so patching them there reaches every forward.  MSSA has no
# public per-hop entry point; its private `_hop` is wrapped and named by the
# `layer` argument the forward passes it.
LAYER_HOOKS = (
    (spikestag.model, "init_live_embeddings", _fixed("graph.init"), None, None),
    (spikestag.model, "build_graph", _fixed("graph.build"), None, None),
    (spikestag.model.ForecastModel, "forward", _fixed("model.forward"), None, None),
    (spikestag.model.ForecastModel, "embed_inputs", _fixed("model.embed"), None, None),
    (spikestag.model, "obs_forward", _fixed("obs"), None, None),
    (spikestag.model, "mssa_forward", _fixed("mssa"), None, None),
    (spikestag.mssa, "encode_sequence", _fixed("mssa.encoder"), None, _output_spikes),
    (spikestag.mssa, "_hop", lambda args, kwargs: kwargs["layer"], None, _output_spikes),
    (spikestag.model, "lstm_forward", _fixed("dsf.lstm"), None, None),
    (spikestag.model, "encode_sequence", _fixed("dsf.encoder"), None, _output_spikes),
    (spikestag.model, "ssa_forward", _fixed("dsf.ssa"), None, None),
    (spikestag.dsf, "attention_core", _fixed("dsf.ssa.attn"), "dsf.ssa", _qkv_spikes),
    (spikestag.model, "gate_fuse", _fixed("dsf.gate"), None, None),
)


class StepRecord:
    """Per-step tallies, keyed by span name (or tape op for `op_bwd_s`)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.bwd_s = defaultdict(float)
        self.op_bwd_s = defaultdict(float)
        self.nodes = defaultdict(int)
        self.spikes_active = defaultdict(float)
        self.spikes_total = defaultdict(float)
        self.alloc_bytes = defaultdict(int)
        self.wall_s = 0.0


class Tracer:
    """Records spans and per-step tallies while its hooks are installed."""

    def __init__(self):
        self.spans: list = []
        self.step = "setup"
        self.record = StepRecord()     # tallies outside numbered steps land here
        self.track_memory = False
        self.nonbinary: set = set()
        self._stack: list = []

    # -- steps ------------------------------------------------------------

    def begin_step(self, step: int) -> None:
        self.step = step
        self.record = StepRecord()

    def end_step(self, wall_s: float) -> StepRecord:
        """Close the step; tallies made until the next step are dropped."""
        self.record.wall_s = wall_s
        done, self.step, self.record = self.record, "idle", StepRecord()
        return done

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        entry = {"name": name, "start": 0.0, "end": 0.0,
                 "parent": parent["index"] if parent else None, "step": self.step}
        self.spans.append(entry)
        frame = {"index": index, "child_s": 0.0}
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["peak"] = max(parent["peak"], peak)
            tracemalloc.reset_peak()
            frame["base"] = frame["peak"] = current
        self._stack.append(frame)
        entry["start"] = perf_counter()
        try:
            yield
        finally:
            entry["end"] = end = perf_counter()
            self._stack.pop()
            duration = end - entry["start"]
            self.record.self_s[name] += duration - frame["child_s"]
            if self.track_memory:
                peak = max(frame["peak"], tracemalloc.get_traced_memory()[1])
                self.record.alloc_bytes[name] = max(self.record.alloc_bytes[name],
                                                    peak - frame["base"])
                if parent is not None:
                    parent["peak"] = max(parent["peak"], peak)
            if parent is not None:
                parent["child_s"] += duration

    @contextmanager
    def _bookkeeping(self):
        """Charge the enclosed tracer work to no span's self time."""
        t0 = perf_counter()
        try:
            yield
        finally:
            if self._stack:
                self._stack[-1]["child_s"] += perf_counter() - t0

    # -- tape ownership and backward timing -------------------------------------

    def _timed_backward(self, fn, layer: str, op: str):
        def timed(g):
            t0 = perf_counter()
            fn(g)
            dt = perf_counter() - t0
            self.record.bwd_s[layer] += dt
            self.record.op_bwd_s[op] += dt

        timed.layer = layer
        return timed

    def claim(self, outputs, inputs, layer: str) -> None:
        """Attribute the unclaimed tape nodes between `inputs` and `outputs` to `layer`."""
        with self._bookkeeping():
            seen = {id(t) for t in _tensors(inputs)}
            pending = _tensors(outputs)
            count = 0
            while pending:
                node = pending.pop()
                if id(node) in seen or node._backward is None:
                    continue
                seen.add(id(node))
                if not hasattr(node._backward, "layer"):    # inner layers keep theirs
                    node._backward = self._timed_backward(node._backward, layer, node._op)
                    count += 1
                pending.extend(node._parents)
            self.record.nodes[layer] += count

    def observe_spikes(self, layer: str, arrays: list) -> None:
        with self._bookkeeping():
            for a in arrays:
                if not np.all((a == 0.0) | (a == 1.0)):
                    self.nonbinary.add(layer)
                self.record.spikes_active[layer] += float(a.sum())
                self.record.spikes_total[layer] += a.size

    # -- hooks --------------------------------------------------------------

    def _wrap(self, fn, name_of, spike_layer, spikes_of):
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            self.claim(out, (args, tuple(kwargs.values())), name)
            if spikes_of is not None:
                self.observe_spikes(spike_layer or name, spikes_of(args, kwargs, out))
            return out

        return traced

    @contextmanager
    def hooks(self):
        """Install the layer wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name_of, spike_layer, spikes_of in LAYER_HOOKS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name_of, spike_layer, spikes_of))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class _Off:
    """Stand-in for a Tracer in the timed run: every hook point is a no-op."""

    @contextmanager
    def span(self, name: str):
        yield


OFF = _Off()
