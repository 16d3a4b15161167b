import dataclasses
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import per_step

import spikestag.energy
import spikestag.graph
import spikestag.model
import spikestag.mssa
import spikestag.obs
from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.checkpoint import load_model, save_model
from spikestag.data import SeriesDataset, make_windows, synth_generate
from spikestag.energy import OpCounter
from spikestag.errors import ContractError, DivergenceError
from spikestag.model import (CHUNK_FRAMES, Adam, ForecastModel, ModelConfig, clip_grad_norm,
                             mse_loss, train)

TINY = ModelConfig(n_nodes=6, t_in=12, horizon=2, ts=2, d1=8, d2=8, h_dim=12,
                   d_k=8, emb_dim=8, batch_size=4, epochs=1, max_batches=3, seed=1)


def tiny_dataset(seed=1, steps=300, nodes=6):
    return synth_generate(nodes, steps, seed=seed)


def prepared(cfg=TINY, seed=1, steps=300):
    ds = tiny_dataset(seed=seed, steps=steps, nodes=cfg.n_nodes)
    windows = make_windows(ds, cfg.t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    return model, ds, windows


class TestConfig:
    def test_rejects_unknown_ablation(self):
        with pytest.raises(ContractError):
            ModelConfig(ablation="W9")

    def test_rejects_non_positive(self):
        for bad in ({"t_in": 0}, {"stride": 0}, {"max_batches": -1}, {"lr": -1.0},
                    {"lr": float("nan")}, {"lr": float("inf")}, {"lam": float("inf")},
                    {"lam": float("nan")}, {"beta": 2.0}, {"u_th": 0.0}, {"alpha": float("nan")},
                    {"u_th": float("inf")}, {"alpha": float("inf")},
                    {"u_reset": float("-inf")}):
            with pytest.raises(ContractError):
                ModelConfig(**bad)

    @pytest.mark.parametrize("name", ["k1", "k2"])
    def test_rejects_zero_sample_budget(self, name):
        with pytest.raises(ContractError, match=f"config field {name} must be positive"):
            ModelConfig(**{name: 0})

    def test_replace_checks_and_fields_are_frozen(self):
        with pytest.raises(ContractError, match="config field k1 must be positive"):
            replace(TINY, k1=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            TINY.k1 = 0

    @pytest.mark.parametrize("name,value,kind", [
        ("ts", 2.5, "int"), ("lam", "4", "float"), ("minute_covariate", "no", "bool"),
        ("epochs", True, "int"), ("lr", True, "float")])
    def test_rejects_a_value_of_another_type(self, name, value, kind):
        # checked before the ranges: a bool is not an int, nor a str a float
        with pytest.raises(ContractError,
                           match=re.escape(f"config field {name} must be {kind}, got {value!r}")):
            ModelConfig(**{name: value})

    def test_int_passes_as_float(self):
        assert ModelConfig(lam=4, lr=0).lam == 4

    def test_feature_width(self):
        assert ModelConfig(minute_covariate=False).feature_width == 9
        assert ModelConfig(minute_covariate=True).feature_width == 13


class TestEmbedding:
    def test_hourly_covariates(self):
        model, ds, windows = prepared()
        batch = windows.batch(windows.train_starts[:2])
        z = Tensor(batch.normalized_inputs())
        x = model.embed_inputs(z, batch.input_times)
        assert x.shape == (2, TINY.t_in, 6, 9)
        # value feature passes through; hour/dow embeddings broadcast per node
        np.testing.assert_array_equal(x.data[..., 0], batch.normalized_inputs())
        hour0 = int((batch.input_times[0, 0] - np.datetime64("2024-01-01T00:00:00"))
                    .astype("timedelta64[h]").astype(int)) % 24
        np.testing.assert_array_equal(
            x.data[0, 0, 0, 1:5], model.cov_tables["hour"].data[hour0])
        np.testing.assert_array_equal(x.data[0, 0, 0, 1:], x.data[0, 0, 3, 1:])

    def test_minutely_lookup(self):
        cfg = replace(TINY, minute_covariate=True)
        model = ForecastModel(cfg)
        times = (np.datetime64("2024-01-01T00:30:00", "s")
                 + np.arange(cfg.t_in).astype("timedelta64[s]") * 600)
        z = Tensor(np.zeros((1, cfg.t_in, cfg.n_nodes), dtype=np.float32))
        x = model.embed_inputs(z, times[None, :])
        assert x.shape[-1] == 13
        np.testing.assert_array_equal(
            x.data[0, 0, 0, 1:5], model.cov_tables["minute"].data[30])


class TestForward:
    def test_shape_and_determinism(self):
        model, _, windows = prepared()
        batch = windows.batch(windows.train_starts[:1])
        with ag.no_grad():
            a = model.forward(batch).data
            b = model.forward(batch).data
        assert a.shape == (1, TINY.horizon, 6)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_predict_single_window_shape_and_scale(self):
        model, _, windows = prepared()
        batch = windows.batch(windows.train_starts[:1])
        out = model.predict(batch)
        assert out.shape == (TINY.horizon, 6)

    def test_predict_requires_stats(self):
        model = ForecastModel(TINY)
        _, _, windows = prepared()
        batch = windows.batch(windows.train_starts[:1])
        with pytest.raises(ContractError):
            model.predict(batch)

    def test_saturated_gate_reduces_w4_to_w1(self):
        cfg4 = replace(TINY, ablation="W4")
        cfg1 = replace(TINY, ablation="W1")
        m4, m1 = ForecastModel(cfg4), ForecastModel(cfg1)
        # shared components start bit-identical thanks to per-component seeding
        np.testing.assert_array_equal(m4.head.w.data, m1.head.w.data)
        m4.gate_params.w_g.data[:] = 0.0
        m4.gate_params.bias.data[:] = 50.0
        ds = tiny_dataset(nodes=cfg4.n_nodes)
        windows = make_windows(ds, cfg4.t_in, cfg4.horizon)
        for m in (m4, m1):
            m.set_norm_stats(windows.mean, windows.std)
        batch = windows.batch(windows.train_starts[:2])
        with ag.no_grad():
            np.testing.assert_array_equal(m4.forward(batch).data, m1.forward(batch).data)

    def test_w1_has_no_ssa_w2_no_lstm(self):
        names1 = set(ForecastModel(replace(TINY, ablation="W1")).parameters())
        assert not any(n.startswith("ssa/") or n.startswith("gate/") for n in names1)
        names2 = set(ForecastModel(replace(TINY, ablation="W2")).parameters())
        assert not any(n.startswith("lstm/") or n.startswith("gate/") for n in names2)
        names4 = set(ForecastModel(replace(TINY, ablation="W4")).parameters())
        assert {"gate/w_g", "gate/bias", "ssa/w_q", "lstm/wx"} <= names4

    @pytest.mark.parametrize("ablation, names", [
        ("W1", ["lstm/wx", "lstm/wh", "lstm/b"]),
        ("W2", ["ssa/w_q", "ssa/w_k", "ssa/w_v", "ssa/proj", "ssa/gain"]),
        ("W3", ["lstm/wx", "lstm/wh", "lstm/b",
                "ssa/w_q", "ssa/w_k", "ssa/w_v", "ssa/proj", "ssa/gain"]),
        ("W4", ["lstm/wx", "lstm/wh", "lstm/b",
                "ssa/w_q", "ssa/w_k", "ssa/w_v", "ssa/proj", "ssa/gain", "gate/w_g", "gate/bias"]),
    ])
    def test_parameter_names_in_checkpoint_record_order(self, ablation, names):
        shared = ["obs/w_q", "obs/w_k", "obs/w_v", "mssa/w1", "mssa/w2"]
        expected = ["cov/hour", "cov/dow", *shared, *names, "head/w", "head/b"]
        assert list(ForecastModel(replace(TINY, ablation=ablation)).parameters()) == expected
        minute = ForecastModel(replace(TINY, ablation=ablation, minute_covariate=True))
        assert list(minute.parameters()) == ["cov/minute", *expected]


def chunked_case(ablation, ts, t_in=23, batch_size=3):
    """A default-width model and a batch of `batch_size` train windows;
    t_in = 23 makes T * ts no multiple of CHUNK_FRAMES, so the last chunk of a
    no-grad forward is a short one."""
    cfg = ModelConfig(t_in=t_in, ts=ts, ablation=ablation, batch_size=batch_size)
    windows = make_windows(synth_generate(cfg.n_nodes, t_in + 200, cfg.seed), t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    return model, windows.batch(windows.train_starts[:batch_size])


class TestChunkedForward:
    """A no-grad forward runs its frames chunk by chunk with carried state;
    a taped one runs them as one chunk."""

    @pytest.mark.parametrize("ts", [4, 8])
    @pytest.mark.parametrize("ablation", ["W1", "W2", "W3", "W4"])
    def test_matches_taped_forward_and_oracle_counts(self, ablation, ts):
        assert (23 * ts) % CHUNK_FRAMES != 0
        model, batch = chunked_case(ablation, ts)
        taped = model.forward(batch)
        assert taped._backward is not None
        with ag.no_grad():
            chunked = model.forward(batch).data
        assert chunked.tobytes() == taped.data.tobytes()
        counts = []
        for forward in (ForecastModel.forward, per_step.full_sequence_forward):
            counter = OpCounter()
            with ag.no_grad():
                pred = forward(model, batch, counter=counter)
            counts.append({name: vars(lc) for name, lc in counter.counts.layers.items()})
        assert pred.data.shape == chunked.shape
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("counted", [False, True], ids=["plain", "counted"])
    def test_memory_per_frame_is_the_bool_key_value_stores(self, counted):
        """The traced peak of a no-grad W4 forward grows per added frame by
        2*B*N*d_k bytes (K and V kept as bool) plus a slack: one batch row's
        K and V read out as float32 (2*N*d_k*4 bytes), the embedded features
        of the window (B*N*f*4/ts bytes), and 10% on top.  A forward that
        holds every frame's float32 spikes grows by about ten times that.
        Counting its operations adds nothing per frame: the counter reduces
        each chunk of spikes over its frames as it arrives."""
        peaks, frames = [], []
        for t_in in (64, 128):
            model, batch = chunked_case("W4", 8, t_in=t_in, batch_size=16)
            with ag.no_grad():
                tracemalloc.start()
                try:
                    model.forward(batch, counter=OpCounter() if counted else None)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            frames.append(t_in * model.config.ts)
        cfg = model.config
        stores = 2 * cfg.batch_size * cfg.n_nodes * cfg.d_k
        row = 2 * cfg.n_nodes * cfg.d_k * 4
        features = cfg.batch_size * cfg.n_nodes * cfg.feature_width * 4 / cfg.ts
        assert (peaks[1] - peaks[0]) / (frames[1] - frames[0]) < 1.1 * (stores + row + features)


def model_state(model) -> tuple:
    """What a forward could change: the attributes (by identity), and the
    bytes of every array attribute and of every parameter."""
    attrs = dict(vars(model))
    arrays = {k: v.tobytes() for k, v in attrs.items() if isinstance(v, np.ndarray)}
    params = {k: p.data.tobytes() for k, p in model.parameters().items()}
    return attrs, arrays, params


@pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
@pytest.mark.parametrize("ablation", ["W2", "W3", "W4"])
def test_forward_leaves_the_model_unchanged(ablation, loaded, tmp_path):
    model, _, windows = prepared(replace(TINY, ablation=ablation))
    if loaded:
        save_model(tmp_path / "m.stag", model)
        model = load_model(tmp_path / "m.stag")
    batch = windows.batch(windows.train_starts[:2])
    before = model_state(model)
    with ag.no_grad():
        model.forward(batch)
        model.forward(batch, counter=OpCounter())
    model.forward(batch)
    after = model_state(model)
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is v for k, v in before[0].items())
    assert after[1:] == before[1:]


def test_attention_gain_is_trained():
    model, _, windows = prepared(replace(TINY, ablation="W3"))
    gain = model.ssa_readout.gain
    assert gain.data.tolist() == [3.0]
    batch = windows.batch(windows.train_starts[:2])
    params = model.parameters()
    model.zero_grad()
    ag.backward(mse_loss(model.forward(batch), batch.normalized_targets()))
    assert gain.grad.shape == (1,) and gain.grad[0] != 0
    Adam(params).step()
    assert gain.data[0] != 3.0


class TestTraining:
    def test_series_without_train_window_refused_before_any_forward(self, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("train ran a forward")

        model = ForecastModel(TINY)
        monkeypatch.setattr(ForecastModel, "forward", no_forward)
        with pytest.raises(ContractError, match=r"the series has 19 steps, its train split 13, "
                                                r"fewer than T \+ L = 14"):
            train(model, tiny_dataset(steps=19))

    def test_constant_series_learned(self):
        steps = 200
        times = (np.datetime64("2024-01-01T00:00:00", "s")
                 + np.arange(steps).astype("timedelta64[s]") * 3600)
        values = np.tile(np.array([5.0, -3.0, 8.0, 2.0, 1.0, 4.0], dtype=np.float32),
                         (steps, 1))
        ds = SeriesDataset(times, values, 3600, [f"n{i}" for i in range(6)])
        cfg = replace(TINY, epochs=4, max_batches=8, batch_size=8)
        model = ForecastModel(cfg)
        report, windows = train(model, ds)
        batch = windows.batch(windows.test_starts[:1] or windows.train_starts[:1])
        pred = model.predict(batch)
        rel = np.abs(pred - values[0]) / np.abs(values[0])
        assert rel.max() < 0.05

    def test_zero_lr_keeps_params_bit_identical(self):
        cfg = replace(TINY, lr=0.0, epochs=1)
        model = ForecastModel(cfg)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        train(model, tiny_dataset())
        for k, v in model.parameters().items():
            assert np.array_equal(before[k], v.data), k

    def test_seed_reproducibility(self):
        logs = []
        for _ in range(2):
            cfg = replace(TINY, epochs=2)
            model = ForecastModel(cfg)
            report, _ = train(model, tiny_dataset())
            logs.append([(e.loss, e.r2, e.rse) for e in report.epochs])
        assert logs[0] == logs[1]

    def test_divergence_aborts_with_param_name(self):
        cfg = replace(TINY, lr=1e12, epochs=1)
        model = ForecastModel(cfg)
        # lr=1e12 overflows the Adam moments and turns parameters into inf/NaN,
        # the values the divergence check exists to catch
        with pytest.raises(DivergenceError) as exc, np.errstate(over="ignore", invalid="ignore"):
            train(model, tiny_dataset())
        assert exc.value.param_name in model.parameters()

    def test_epoch_logs_mean_pre_clip_grad_norm(self, monkeypatch):
        norms = []

        def recorded(params, max_norm=1.0):
            norms.append(clip_grad_norm(params, max_norm))
            return norms[-1]

        monkeypatch.setattr(spikestag.model, "clip_grad_norm", recorded)
        logged = []
        report, _ = train(ForecastModel(TINY), tiny_dataset(), log_fn=logged.append)
        assert len(norms) == TINY.max_batches and len(report.epochs) == 1
        assert report.epochs[0].grad_norm == float(np.mean(norms)) > 0.0
        assert logged == report.epochs

    def test_loss_decreases_on_synthetic(self):
        cfg = replace(TINY, epochs=3, max_batches=6, batch_size=8)
        model = ForecastModel(cfg)
        report, _ = train(model, tiny_dataset(steps=400))
        assert report.epochs[-1].loss <= report.epochs[0].loss

    def test_empty_local_sets_refused_before_training(self):
        # at N=32 the default lam=4 empties every local sample set; building
        # the model still succeeds so that callers can inspect the graph
        cfg = replace(TINY, n_nodes=32, lam=4.0)
        model = ForecastModel(cfg)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        with pytest.raises(ContractError, match=r"N=32, lam=4\.0, k1=4\).*1\+lam"):
            train(model, tiny_dataset(nodes=32))
        assert all(np.array_equal(before[k], v.data) for k, v in model.parameters().items())

    def test_all_live_params_receive_gradients(self):
        """Every parameter gets a gradient on at least one batch.  The fusion
        branch starts from a silent readout, so its attention weights only see
        gradients from the second step on.
        """
        model, _, windows = prepared()
        params = model.parameters()
        opt = Adam(params, lr=TINY.lr)
        seen = {name: False for name in params}
        for start in range(0, 12, 4):
            batch = windows.batch(windows.train_starts[start:start + 4])
            pred = model.forward(batch)
            loss = mse_loss(pred, batch.normalized_targets())
            model.zero_grad()
            ag.backward(loss)
            for name, p in params.items():
                if p.grad is not None and np.abs(p.grad).max() > 0:
                    seen[name] = True
            opt.step()
        for name, flag in seen.items():
            assert flag, name


def _rebuild(*args, **kwargs):
    raise AssertionError("the graph is built once, at construction or load")


class TestGraphBuiltOnce:
    """The graph is a constant of the model: nothing after construction rebuilds it."""

    @staticmethod
    def forbid_rebuild(monkeypatch):
        for module in (spikestag.model, spikestag.graph):
            monkeypatch.setattr(module, "build_graph", _rebuild)

    def test_train_and_predict_reuse_the_graph(self, monkeypatch):
        model, ds, windows = prepared()
        graph = model.graph
        self.forbid_rebuild(monkeypatch)
        report, windows = train(model, ds)
        assert len(report.epochs) == 1 and np.isfinite(report.epochs[0].loss)
        assert model.predict(windows.batch(windows.test_starts[:1])).shape == (TINY.horizon, 6)
        assert model.graph is graph

    def test_empty_local_sets_refused_without_rebuild(self, monkeypatch):
        model = ForecastModel(replace(TINY, n_nodes=32, lam=4.0))
        self.forbid_rebuild(monkeypatch)
        with pytest.raises(ContractError, match="32 of 32 nodes have an empty local sample set"):
            train(model, tiny_dataset(nodes=32))

    def test_forwards_read_the_sets_padded_at_construction(self, monkeypatch):
        """A taped step, a chunked no-grad forward and a counted one pad nothing."""
        model, batch = chunked_case("W4", 4)
        assert batch.inputs.shape[1] * model.config.ts > CHUNK_FRAMES
        for module in (spikestag.graph, spikestag.obs, spikestag.mssa, spikestag.energy):
            monkeypatch.setattr(module, "padded_index_mask", _rebuild, raising=False)
        loss = mse_loss(model.forward(batch), batch.normalized_targets())
        ag.backward(loss)
        assert all(p.grad is not None for p in model.parameters().values())
        with ag.no_grad():
            chunked = model.forward(batch).data
            counter = OpCounter()
            counted = model.forward(batch, counter=counter).data
        assert chunked.tobytes() == counted.tobytes()
        assert counter.counts.layers["mssa.hop2"].ac_ops > 0

    def test_embeddings_are_a_buffer_not_a_parameter(self):
        model = ForecastModel(TINY)
        assert model.embeddings.shape == (TINY.n_nodes, TINY.emb_dim)
        assert model.embeddings.dtype == np.float32
        assert not any(name.startswith("emb/") for name in model.parameters())

    def test_given_embeddings_are_used_as_they_are(self, monkeypatch):
        other = ForecastModel(replace(TINY, seed=7))
        monkeypatch.setattr(spikestag.model, "init_live_embeddings", _rebuild)
        model = ForecastModel(TINY, embeddings=other.embeddings)
        assert np.array_equal(model.embeddings, other.embeddings)
        assert model.graph == other.graph

    def test_default_config_sample_sets(self):
        graph = ForecastModel(ModelConfig()).graph
        assert graph.samples_local == [[1, 7], [0, 7], [3, 5, 6], [2, 4, 5, 6], [0, 3, 7],
                                       [2, 3, 6], [2, 3, 5], [0, 1, 4]]
        assert graph.samples_semiglobal == [[4], [4], [4], [0, 7], [1, 2, 5, 6], [4], [4], [3]]


class TestOptimizer:
    def test_adam_moves_params_against_gradient(self):
        p = Tensor(np.array([1.0, -1.0], dtype=np.float32), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.array([1.0, -1.0], dtype=np.float32)
        before = p.data.copy()
        opt.step()
        assert p.data[0] < before[0] and p.data[1] > before[1]

    def test_clip_grad_norm(self):
        p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        p.grad = np.full(4, 10.0, dtype=np.float32)
        norm = clip_grad_norm({"p": p}, 1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)
