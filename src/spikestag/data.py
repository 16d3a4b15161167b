"""Dataset ingestion, windowing, normalization, metrics and the synthetic
benchmark generator.

CSV schema: header row `timestamp,<node>,<node>,...`, ISO-8601 UTC
timestamps at a strictly regular interval, one float column per node.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ContractError, IngestionError, UndefinedMetricError

EPOCH = np.datetime64("1970-01-01T00:00:00")


@dataclass
class SeriesDataset:
    """Regularly sampled multivariate series: values are (steps, N) float32."""

    timestamps: np.ndarray          # datetime64[s], strictly increasing, regular
    values: np.ndarray              # (steps, N) float32
    sample_rate_s: int              # seconds between consecutive steps
    node_names: list

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]


@dataclass
class WindowBatch:
    """A batch of (input window, target horizon) pairs plus normalization stats."""

    inputs: np.ndarray              # (B, T, N) raw scale
    targets: np.ndarray             # (B, L, N) raw scale
    input_times: np.ndarray         # (B, T) datetime64[s]
    target_times: np.ndarray        # (B, L) datetime64[s]
    mean: np.ndarray                # (N,)
    std: np.ndarray                 # (N,)

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]

    def normalized_inputs(self) -> np.ndarray:
        return ((self.inputs - self.mean) / self.std).astype(np.float32)

    def normalized_targets(self) -> np.ndarray:
        return ((self.targets - self.mean) / self.std).astype(np.float32)

    def denormalize(self, pred_norm: np.ndarray) -> np.ndarray:
        return pred_norm * self.std + self.mean


@dataclass
class SplitWindows:
    """Chronologically disjoint window start lists over one dataset."""

    dataset: SeriesDataset
    t_in: int
    horizon: int
    train_starts: list = field(default_factory=list)
    val_starts: list = field(default_factory=list)
    test_starts: list = field(default_factory=list)
    train_steps: int = 0    # length of the train split's segment of the series
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def batch(self, starts: list) -> WindowBatch:
        ds, t, l = self.dataset, self.t_in, self.horizon
        inputs = np.stack([ds.values[i:i + t] for i in starts])
        targets = np.stack([ds.values[i + t:i + t + l] for i in starts])
        in_times = np.stack([ds.timestamps[i:i + t] for i in starts])
        tg_times = np.stack([ds.timestamps[i + t:i + t + l] for i in starts])
        return WindowBatch(inputs, targets, in_times, tg_times, self.mean, self.std)


def _parse_timestamp(text: str, row: int) -> datetime:
    try:
        dt = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError:
        raise IngestionError(f"row {row}: unparseable timestamp '{text}'")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def load_csv(path) -> SeriesDataset:
    """Parse a schema CSV, validating regular spacing and finite numeric cells."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file")
        if len(header) < 2 or header[0].strip() != "timestamp":
            raise IngestionError("header must be 'timestamp,<node>,...'")
        names = [h.strip() for h in header[1:]]
        times, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestionError(f"row {lineno}: expected {len(header)} cells, got {len(row)}")
            times.append(_parse_timestamp(row[0], lineno))
            try:
                cells = [float(c) for c in row[1:]]
            except ValueError:
                raise IngestionError(f"row {lineno}: non-numeric value")
            for name, v in zip(names, cells):
                if not math.isfinite(v):
                    raise IngestionError(f"row {lineno}: non-finite value {v} in column '{name}'")
            rows.append(cells)
    if len(rows) < 2:
        raise IngestionError("need at least 2 rows to infer the sample rate")
    epochs = np.array([int(t.timestamp()) for t in times], dtype=np.int64)
    gaps = np.diff(epochs)
    rate = int(np.median(gaps))
    if rate <= 0:
        raise IngestionError("row 3: timestamps must be strictly increasing")
    bad = np.nonzero(gaps != rate)[0]
    if bad.size:
        raise IngestionError(
            f"row {int(bad[0]) + 3}: irregular timestamp spacing "
            f"({int(gaps[bad[0]])}s, expected {rate}s)"
        )
    ts = (EPOCH + epochs.astype("timedelta64[s]")).astype("datetime64[s]")
    return SeriesDataset(ts, np.asarray(rows, dtype=np.float32), rate, names)


def make_windows(
    ds: SeriesDataset,
    t_in: int,
    horizon: int,
    stride: int = 1,
    fractions=(0.7, 0.1, 0.2),
) -> SplitWindows:
    """Sliding windows split chronologically with no cross-split leakage.

    The series is cut at the fraction boundaries and each split only contains
    windows that fit entirely inside its segment, so the first validation
    window starts after the last training target index.  Normalization stats
    come from the training segment only (constant nodes clamp std to 1).
    """
    n = ds.n_steps
    span = t_in + horizon
    if span > n:
        raise ContractError(f"window span {span} exceeds series length {n}")
    f_tr, f_val, f_te = fractions
    if abs(f_tr + f_val + f_te - 1.0) > 1e-9:
        raise ContractError("split fractions must sum to 1")
    b1 = int(round(n * f_tr))
    b2 = int(round(n * (f_tr + f_val)))

    def starts(lo, hi):
        return [i for i in range(lo, hi - span + 1, stride)] if hi - lo >= span else []

    sw = SplitWindows(ds, t_in, horizon, train_steps=b1,
                      train_starts=starts(0, b1),
                      val_starts=starts(b1, b2),
                      test_starts=starts(b2, n))
    train_region = ds.values[:b1] if b1 > 0 else ds.values
    mean = train_region.mean(axis=0)
    std = train_region.std(axis=0)
    std = np.where(std <= 1e-8, 1.0, std)
    sw.mean = mean.astype(np.float32)
    sw.std = std.astype(np.float32)
    return sw


def metric_rse(pred: np.ndarray, target: np.ndarray) -> float:
    """Root relative squared error over all nodes and steps jointly."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ContractError(f"metric_rse: shape mismatch {pred.shape} vs {target.shape}")
    denom = ((target - target.mean()) ** 2).sum()
    if denom == 0.0:
        raise UndefinedMetricError("metric_rse: constant target")
    return float(math.sqrt(((pred - target) ** 2).sum() / denom))


def metric_r2(pred: np.ndarray, target: np.ndarray) -> float:
    """Coefficient of determination over all nodes and steps jointly."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ContractError(f"metric_r2: shape mismatch {pred.shape} vs {target.shape}")
    denom = ((target - target.mean()) ** 2).sum()
    if denom == 0.0:
        raise UndefinedMetricError("metric_r2: constant target")
    return float(1.0 - ((pred - target) ** 2).sum() / denom)


def covariate_indices(times: np.ndarray):
    """(minute-of-hour, hour-of-day, day-of-week) integer arrays; Monday = 0."""
    secs = (np.asarray(times, dtype="datetime64[s]") - EPOCH).astype(np.int64)
    minute = (secs // 60) % 60
    hour = (secs // 3600) % 24
    dow = ((secs // 86400) + 3) % 7  # 1970-01-01 was a Thursday
    return minute.astype(np.intp), hour.astype(np.intp), dow.astype(np.intp)


def _synth_edges(n_nodes: int, rng: np.random.Generator) -> set:
    """Directed edge pairs of a ring plus `n_nodes // 2` random chords, both ways."""
    edges = set()
    for i in range(n_nodes):
        edges.add((i, (i + 1) % n_nodes))
        edges.add(((i + 1) % n_nodes, i))
    for _ in range(n_nodes // 2):
        a, b = rng.integers(0, n_nodes, size=2)
        if a != b:
            edges.add((int(a), int(b)))
            edges.add((int(b), int(a)))
    return edges


def synth_generate(
    n_nodes: int,
    steps: int,
    seed: int,
    noise_sigma: float = 0.05,
    coupling: float = 0.3,
) -> SeriesDataset:
    """Graph-coupled hourly benchmark with genuine spatial dependencies.

    Topology is a ring plus `n_nodes // 2` random chords.  Each node follows a
    daily sinusoid with its own phase offset and a day-of-week amplitude
    profile, plus `coupling` times the mean of its neighbors' previous values
    and Gaussian observation noise.  Returns an hourly dataset starting on a
    Monday midnight.
    """
    if n_nodes < 2:
        raise ContractError("synth_generate: need at least 2 nodes")
    rng = np.random.default_rng(seed)
    edges = _synth_edges(n_nodes, rng)
    neighbors = [[j for (a, j) in edges if a == i] for i in range(n_nodes)]

    phase = rng.uniform(-0.8, 0.8, size=n_nodes)
    dow_amp = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=7)

    start = np.datetime64("2024-01-01T00:00:00", "s")  # a Monday
    times = start + np.arange(steps).astype("timedelta64[s]") * 3600
    _, hour, dow = covariate_indices(times)

    x = np.zeros((steps, n_nodes), dtype=np.float64)
    noise = rng.normal(0.0, noise_sigma, size=(steps, n_nodes)) if noise_sigma > 0 else np.zeros((steps, n_nodes))
    for t in range(steps):
        base = np.sin(2.0 * np.pi * hour[t] / 24.0 + phase) * dow_amp[dow[t]]
        if t > 0 and coupling != 0.0:
            lagged = np.array([x[t - 1, nb].mean() if nb else 0.0 for nb in neighbors])
            base = base + coupling * lagged
        x[t] = base + noise[t]
    names = [f"node_{i}" for i in range(n_nodes)]
    return SeriesDataset(times.astype("datetime64[s]"), x.astype(np.float32), 3600, names)


def synth_coupling_pairs(n_nodes: int, seed: int):
    """Recreate the coupled / uncoupled node pairs of synth_generate(seed)."""
    rng = np.random.default_rng(seed)
    edges = _synth_edges(n_nodes, rng)
    coupled = {(a, b) for (a, b) in edges if a < b}
    uncoupled = {(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)} - coupled
    return sorted(coupled), sorted(uncoupled)
