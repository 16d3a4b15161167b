"""End-to-end forecaster: covariate embedding, adaptive graph, observation
attention, spiking aggregation, dual-path fusion and the prediction head,
plus the training loop and the W1-W4 ablation variants.

Ablations select what happens after the spiking aggregation:
  W1  LSTM -> head
  W2  spikes -> self-attention -> head (no LSTM)
  W3  LSTM -> re-encode -> self-attention -> head (no gate)
  W4  gated fusion of the LSTM and self-attention branches (full model)

`ForecastModel.__init__` is the one place that maps a variant to its parts:
`lstm_params`, `ssa_params` with `ssa_readout`, and `gate_params`, each None
where the variant has no such part.  The forward and the energy counter
(`OpCounter.count_forward`) run and count the parts the model holds and
never read `config.ablation`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import SeriesDataset, SplitWindows, WindowBatch, covariate_indices, make_windows, metric_r2, metric_rse
from .dsf import GateParams, LstmParams, SsaParams, gate_fuse, lstm_forward, ssa_forward
from .errors import ContractError, DivergenceError
from .graph import AdaptiveGraph, build_graph, init_live_embeddings
from .mssa import HopWeights, mssa_forward
from .obs import ObsParams, obs_forward
from .spiking import Carry, LifParams, encode_sequence

ABLATIONS = ("W1", "W2", "W3", "W4")
COV_WIDTH = 4
# initial gain of the attention readout (W2-W4), which spike-rate averaging
# leaves around 0.1, too small for the head to exploit within a short run.
# 3.0 is the median of the 1/std gains that calibrating on the first batch
# gave (2.69-3.60 over W2-W4, seeds 1-3 and the three benchmark configs).
SSA_GAIN_INIT = 3.0
# frames per chunk of a no-grad forward (`ForecastModel.forward`), which the
# LSTM runs in `dsf.LSTM_CHUNK`-frame pieces; forward chunks of that length
# made the infer-ts8 benchmark's step 13-19% slower (2-core x86 host)
CHUNK_FRAMES = 32


def _field(default, help: str, **meta):
    """A config field with CLI `help` text and, optionally, its `flag` spelling (None: no flag)."""
    return field(default=default, metadata={"help": help, **meta})


@dataclass(frozen=True)
class ModelConfig:
    """Every hyperparameter of a run; the CLI flags, config-file keys and
    checkpoint header are all derived from these fields.

    A config is valid by construction: `ModelConfig(...)` and `replace(...)`
    raise ContractError on a value of another type than its field's (an int
    passes as a float, a bool is not an int) or out of range, and it is
    frozen, so no later assignment can make it invalid.
    """

    n_nodes: int = _field(8, "node count (synthetic data; a CSV sets its own)", flag="--nodes")
    t_in: int = _field(64, "input window length T", flag="--input-len")
    horizon: int = _field(3, "forecast horizon L")
    emb_dim: int = _field(16, "node embedding width")
    k1: int = _field(4, "local sample budget")
    k2: int = _field(4, "semi-global sample budget")
    d1: int = _field(32, "hop-1 width")
    d2: int = _field(32, "hop-2 width")
    h_dim: int = _field(64, "LSTM hidden width")
    d_k: int = _field(32, "attention key width")
    ts: int = _field(4, "SNN sub-steps per series step")
    beta: float = _field(0.5, "membrane decay")
    # model-level threshold sits below the (-1, 1) LSTM hidden range so the
    # re-encoded attention branch keeps firing; the neuron-module default of
    # 1.0 would silence it
    u_th: float = _field(0.25, "firing threshold")
    u_reset: float = _field(0.0, "reset potential")
    alpha: float = _field(2.0, "surrogate sharpness")
    # the pruning threshold divides by the self-loop weight, which caps the
    # candidate count below 1 + lam; 4.0 keeps two-hop sampling non-degenerate
    lam: float = _field(4.0, "self-loop weight")
    lr: float = _field(1e-3, "learning rate")
    epochs: int = _field(6, "training epochs")
    seed: int = _field(1, "RNG seed")
    ablation: str = _field("W4", f"architecture variant, one of {', '.join(ABLATIONS)}")
    batch_size: int = _field(16, "batch size")
    stride: int = _field(1, "window stride")
    max_batches: int = _field(24, "cap on train batches per epoch (0 = all)")
    minute_covariate: bool = _field(False, "minute-of-hour covariate; set from the data's "
                                    "sample rate", flag=None)

    def __post_init__(self) -> None:
        for f in fields(self):
            kind, value = type(f.default), getattr(self, f.name)
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise ContractError(f"config field {f.name} must be {kind.__name__}, "
                                    f"got {value!r}")
        if self.ablation not in ABLATIONS:
            raise ContractError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        # a zero sample budget leaves every local or semi-global set empty
        for name in ("n_nodes", "t_in", "horizon", "emb_dim", "k1", "k2", "d1", "d2",
                     "h_dim", "d_k", "ts", "batch_size", "epochs", "stride"):
            if getattr(self, name) < 1:
                raise ContractError(f"config field {name} must be positive")
        if self.lam < 0 or self.max_batches < 0 or self.seed < 0:
            raise ContractError("lam, max_batches and seed must be non-negative")
        # lr = 0 is legal: it trains nothing and keeps every parameter as drawn
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ContractError(f"lr must be finite and non-negative, got {self.lr}")
        if not math.isfinite(self.lam):
            raise ContractError(f"lam must be finite, got {self.lam}")
        self.lif()

    def lif(self) -> LifParams:
        return LifParams(beta=self.beta, u_th=self.u_th, u_reset=self.u_reset, alpha=self.alpha)

    @property
    def feature_width(self) -> int:
        return 1 + COV_WIDTH * (3 if self.minute_covariate else 2)


@dataclass
class ReadoutParams:
    """The attention readout (W2-W4): the gain `gain` (1,) scales the
    attention output, and `proj` (d_k, h) maps it to the hidden width."""

    proj: Tensor
    gain: Tensor


@dataclass
class HeadParams:
    """The forecast head: the final hidden state times `w` (h, L), plus `b` (L,)."""

    w: Tensor
    b: Tensor


class ForecastModel:
    """Holds all parameter tensors and the normalization stats of a trained run.

    No forward changes the model.  The attention readout's gain
    (`ssa_readout.gain`, W2-W4, shape (1,), starting at `SSA_GAIN_INIT`) is
    a parameter like any other: `parameters()` names it `ssa/gain` and
    training updates it.

    `embeddings` (N, emb_dim) float32 is a buffer, not a parameter: the graph
    built from it once here is all the forward reads.  Given embeddings (a
    loaded checkpoint's) are used as they are; otherwise they are drawn.  A
    graph that leaves a local sample set empty is kept, so that it can be
    inspected; `check_local_sets` refuses it, and `train`, `save_model` and
    `load_model` call that.
    """

    def __init__(self, config: ModelConfig, embeddings: np.ndarray | None = None):
        self.config = config
        # each component draws from its own seeded stream, so ablation variants
        # share bit-identical weights for the components they have in common
        comp = lambda tag: np.random.default_rng([config.seed, tag])
        f = config.feature_width
        if embeddings is None:
            self.embeddings, self.graph = init_live_embeddings(
                config.n_nodes, config.emb_dim, config.lam, config.k1, config.k2, config.seed)
        else:
            self.embeddings = np.asarray(embeddings, dtype=np.float32)
            self.graph = build_graph(self.embeddings, config.lam, config.k1, config.k2)
        self.cov_tables = {}
        if config.minute_covariate:
            self.cov_tables["minute"] = self._table(60, comp(2))
        self.cov_tables["hour"] = self._table(24, comp(3))
        self.cov_tables["dow"] = self._table(7, comp(4))
        self.obs_params = ObsParams.init(f, comp(5))
        self.hop_weights = HopWeights.init(f, config.d1, config.d2, comp(6))
        ab = config.ablation
        self.lstm_params = LstmParams.init(config.d2, config.h_dim, comp(7)) if ab != "W2" else None
        if ab == "W1":
            self.ssa_params = self.ssa_readout = None
        else:
            ssa_in = config.d2 if ab == "W2" else config.h_dim
            self.ssa_params = SsaParams.init(ssa_in, config.d_k, comp(8))
            # W4 starts the fusion branch silent (zero readout) so it only
            # enters once its projection learns a target-correlated signal;
            # W2/W3 feed the head directly and need a live path from step one
            shape = (config.d_k, config.h_dim)
            proj = (np.zeros(shape) if ab == "W4"
                    else comp(9).standard_normal(shape) / np.sqrt(config.d_k))
            self.ssa_readout = ReadoutParams(
                Tensor(proj.astype(np.float32), requires_grad=True),
                Tensor(np.full(1, SSA_GAIN_INIT, dtype=np.float32), requires_grad=True))
        self.gate_params = GateParams.init(config.h_dim, comp(10)) if ab == "W4" else None
        head_w = comp(11).standard_normal((config.h_dim, config.horizon)) / np.sqrt(config.h_dim)
        self.head = HeadParams(Tensor(head_w.astype(np.float32), requires_grad=True),
                               Tensor(np.zeros(config.horizon, dtype=np.float32), requires_grad=True))
        self.norm_mean: np.ndarray | None = None
        self.norm_std: np.ndarray | None = None

    @staticmethod
    def _table(rows: int, rng: np.random.Generator) -> Tensor:
        return Tensor((rng.standard_normal((rows, COV_WIDTH)) * 0.5).astype(np.float32),
                      requires_grad=True)

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> dict:
        """Every parameter, named `<group>/<field>` in checkpoint record order:
        the covariate tables, then the fields of each parameter group the
        variant has, the attention readout's after the attention's under `ssa`."""
        groups = (("cov", self.cov_tables), ("obs", self.obs_params), ("mssa", self.hop_weights),
                  ("lstm", self.lstm_params), ("ssa", self.ssa_params), ("ssa", self.ssa_readout),
                  ("gate", self.gate_params), ("head", self.head))
        return {f"{prefix}/{name}": t for prefix, group in groups if group is not None
                for name, t in (group if isinstance(group, dict) else vars(group)).items()}

    def check_local_sets(self) -> None:
        """ContractError if a node's local sample set is empty: MSSA would
        aggregate nothing for it, in every forward, as the graph never changes."""
        cfg = self.config
        empty = sum(not s for s in self.graph.samples_local)
        if empty:
            raise ContractError(
                f"{empty} of {cfg.n_nodes} nodes have an empty local sample set "
                f"(N={cfg.n_nodes}, lam={cfg.lam}, k1={cfg.k1}); pruning keeps fewer than "
                f"1+lam candidates per node, so MSSA would aggregate nothing for them. "
                f"Raise lam (roughly N/2) or k1.")

    def param_count(self) -> int:
        return sum(t.data.size for t in self.parameters().values())

    def zero_grad(self) -> None:
        for t in self.parameters().values():
            t.zero_grad()

    def set_norm_stats(self, mean: np.ndarray, std: np.ndarray) -> None:
        self.norm_mean = np.asarray(mean, dtype=np.float32)
        self.norm_std = np.asarray(std, dtype=np.float32)

    # -- forward ------------------------------------------------------------

    def embed_inputs(self, z: Tensor, times: np.ndarray) -> Tensor:
        """(B, T, N) normalized values + timestamps -> (B, T, N, f) features.

        Covariates are table lookups broadcast identically to every node;
        hourly data carries hour-of-day and day-of-week only.
        """
        b, t, n = z.shape
        indices = dict(zip(("minute", "hour", "dow"), covariate_indices(times)))
        feats = [ag.reshape(z, (b, t, n, 1))]
        for name, table in self.cov_tables.items():       # in feature order
            e = ag.take(table, indices[name], axis=0)      # (B, T, w)
            e = ag.reshape(e, (b, t, 1, COV_WIDTH))
            feats.append(ag.broadcast_to(e, (b, t, n, COV_WIDTH)))
        return ag.concat(feats, axis=-1)

    def build_graph(self) -> AdaptiveGraph:
        """`self.graph`; kept only because the benchmark's graph stats call it."""
        return self.graph

    def forward(self, batch: WindowBatch, counter=None) -> Tensor:
        """Normalized-scale predictions of shape (B, L, N).

        The forward runs the parts the model holds.  With no LSTM, attention
        reads MSSA's spikes; with no attention, the LSTM returns each chunk's
        final frame only, and that frame feeds the head; with no gate, the
        attention readout feeds the head.

        The covariate embedding runs once over the window.  Everything after
        it up to the attention readout (observation attention, MSSA encoder
        and hops, LSTM, re-encoder, Q/K/V) is causal along the time axis, so
        with no tape it runs in chunks of `CHUNK_FRAMES // ts` series steps
        (`CHUNK_FRAMES` frames; at least one step), each recurrence carrying
        its state to the next chunk (`spiking.Carry`), while attention keeps
        K and V as bool and reads out after the last chunk
        (`dsf.ssa_forward`).  Memory then grows with the window only by
        those bool stores and the embedded features, and predictions are
        bit-identical to one chunk.  A forward that records a tape runs the
        same loop with one chunk spanning the window and no carry.

        Given `counter`, an `energy.OpCounter`, the forward runs with the
        counter entered, so the spikes of its layers are reported to it,
        chunk by chunk, and then has it count the forward's operations
        (`OpCounter.count_forward`).  The caller need not enter it.
        """
        if counter is not None:
            with counter:
                pred = self.forward(batch)
                counter.count_forward(self, *batch.inputs.shape[:2])
            return pred
        cfg = self.config
        lif = cfg.lif()
        x = self.embed_inputs(Tensor(batch.normalized_inputs()), batch.input_times)
        t_axis = x.data.ndim - 3
        t_steps = x.shape[t_axis]
        if ag.is_recording(*self.parameters().values()):
            chunk, carry = t_steps, None
        else:
            chunk, carry = max(1, CHUNK_FRAMES // cfg.ts), Carry(t_steps * cfg.ts)

        # everything after the recurrences works on the final frame only,
        # the one the head reads; the last chunk leaves it in h_lstm/ssa_out
        lstm, ssa = self.lstm_params, self.ssa_params
        for start in range(0, t_steps, chunk):
            steps = min(chunk, t_steps - start)
            x_chunk = x if steps == t_steps else ag.take(x, np.arange(start, start + steps), t_axis)
            x_obs = obs_forward(x_chunk, self.graph.local, self.obs_params)
            spikes = mssa_forward(x_obs, self.graph, self.hop_weights, lif, cfg.ts, carry)
            if lstm is not None:
                # attention re-encodes the last frame of every series step;
                # without it the head reads the chunk's final frame only
                stride = cfg.ts if ssa is not None else steps * cfg.ts
                h_lstm = lstm_forward(spikes, lstm, stride, carry)  # (B, T'/stride, N, h)
                del spikes      # without a tape nothing else holds the spikes
                if ssa is not None:
                    spikes = encode_sequence(h_lstm, cfg.ts, lif, "dsf.encoder")
            if ssa is not None:
                ssa_out = ssa_forward(spikes, ssa, lif, carry)
                del spikes

        if lstm is not None:
            feat = ag.take(h_lstm, [-1], t_axis)                        # (B, 1, N, h)
        if ssa is not None:
            readout = self.ssa_readout
            h_ssa = ag.matmul(ag.mul(ssa_out, readout.gain), readout.proj)
            feat = h_ssa if self.gate_params is None else gate_fuse(feat, h_ssa, self.gate_params)

        b, _, n, h = feat.shape                                     # one frame: (B, 1, N, h)
        final = ag.reshape(feat, (b, n, h))
        pred = ag.affine(final, self.head.w, self.head.b)           # (B, N, L)
        return ag.transpose(pred, (0, 2, 1))                        # (B, L, N)

    def predict(self, batch: WindowBatch):
        """De-normalized forecast; (L, N) for a single window, else (B, L, N)."""
        if self.norm_mean is None or self.norm_std is None:
            raise ContractError("predict: model has no normalization stats")
        with ag.no_grad():
            pred = self.forward(batch).data
        out = pred * self.norm_std + self.norm_mean
        return out[0] if batch.batch_size == 1 else out


# -- optimizer ----------------------------------------------------------------

# Adam's moment decay rates and the guard added to the second moment's root
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment gradient descent over the model's named parameters."""

    def __init__(self, params: dict, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[k], self.v[k]
            # the moments are updated in place (the same float operations), so
            # these long-lived arrays never move between steps: moving them
            # fragments the heap, which then grows for a few more steps
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / b1t
            v_hat = v / b2t
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)


def clip_grad_norm(params: dict, max_norm: float = 1.0) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        factor = np.float32(max_norm / norm)
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


# -- training -----------------------------------------------------------------


@dataclass
class EpochLog:
    epoch: int
    loss: float
    r2: float
    rse: float
    grad_norm: float    # mean global gradient norm before clipping, over the epoch's steps


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    test_r2: float = float("nan")
    test_rse: float = float("nan")


def _batched_starts(starts: list, batch_size: int):
    for i in range(0, len(starts), batch_size):
        yield starts[i:i + batch_size]


def evaluate(model: ForecastModel, windows: SplitWindows, starts: list,
             batch_size: int = 32):
    """Global de-normalized (r2, rse) over the given window starts (at least one)."""
    if not starts:
        raise ContractError("evaluate: no windows to score; the series is too short for "
                            "this split to hold one window")
    preds, targets = [], []
    with ag.no_grad():
        for chunk in _batched_starts(starts, batch_size):
            batch = windows.batch(chunk)
            p = model.forward(batch).data
            preds.append(batch.denormalize(p))
            targets.append(batch.targets)
    pred = np.concatenate(preds)
    target = np.concatenate(targets)
    return metric_r2(pred, target), metric_rse(pred, target)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = ag.sub(pred, Tensor(np.asarray(target, dtype=np.float32)))
    return ag.mul(ag.tsum(ag.mul(diff, diff)), 1.0 / diff.data.size)


def train(model: ForecastModel, dataset: SeriesDataset, log_fn=None) -> tuple:
    """Fit the model on the dataset; returns (TrainReport, SplitWindows).

    Minimizes MSE on z-score normalized targets with Adam, clips the global
    gradient norm at 1.0 (each epoch logs the mean norm before clipping),
    evaluates de-normalized R2/RSE on the validation split each epoch and
    aborts with a diagnostic if any parameter goes non-finite.
    Deterministic for a fixed config seed.  Raises ContractError
    before the first step when a node's local sample set is empty or the
    train split holds no window.
    """
    model.check_local_sets()
    cfg = model.config
    windows = make_windows(dataset, cfg.t_in, cfg.horizon, stride=cfg.stride)
    if not windows.train_starts:
        raise ContractError(
            f"train: no training window; the series has {dataset.n_steps} steps, its train "
            f"split {windows.train_steps}, fewer than T + L = {cfg.t_in + cfg.horizon}")
    model.set_norm_stats(windows.mean, windows.std)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport()

    for epoch in range(1, cfg.epochs + 1):
        order = [windows.train_starts[i] for i in rng.permutation(len(windows.train_starts))]
        losses, norms = [], []
        for chunk in itertools.islice(_batched_starts(order, cfg.batch_size),
                                      cfg.max_batches or None):
            batch = windows.batch(chunk)
            pred = model.forward(batch)
            loss = mse_loss(pred, batch.normalized_targets())
            model.zero_grad()
            ag.backward(loss)
            norms.append(clip_grad_norm(params, 1.0))
            opt.step()
            for name, p in params.items():
                if not np.all(np.isfinite(p.data)):
                    raise DivergenceError(name)
            losses.append(loss.item())
        if windows.val_starts:
            r2, rse = evaluate(model, windows, windows.val_starts, cfg.batch_size)
        else:
            r2, rse = float("nan"), float("nan")
        entry = EpochLog(epoch, float(np.mean(losses)), r2, rse, float(np.mean(norms)))
        report.epochs.append(entry)
        if log_fn:
            log_fn(entry)

    if windows.test_starts:
        report.test_r2, report.test_rse = evaluate(
            model, windows, windows.test_starts, cfg.batch_size)
    return report, windows
