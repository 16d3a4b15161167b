import json
import struct
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import spikestag.graph
import spikestag.model
from spikestag import autograd as ag
from spikestag.checkpoint import MAGIC, _read_records, _write_records, load_model, save_model
from spikestag.data import make_windows, synth_generate
from spikestag.errors import CheckpointFormatError, ContractError
from spikestag.model import ForecastModel, ModelConfig

TINY = ModelConfig(n_nodes=4, t_in=6, horizon=2, emb_dim=4, d1=4, d2=4, h_dim=6, d_k=4,
                   ts=2, batch_size=2)

# Written by the format-v1 `save_model` from this config, with norm stats
# mean (1, 2, 3), std (0.5, 1, 2) and ssa_scale 0.375.  Every value is exact in
# float32, so v1's float32 config tensors hold it without rounding.
V1_FIXTURE = Path(__file__).parent / "data" / "checkpoint_v1.stag"
V1_CONFIG = ModelConfig(n_nodes=3, t_in=4, horizon=2, emb_dim=2, k1=1, k2=1, d1=2, d2=2,
                        h_dim=3, d_k=2, ts=2, beta=0.75, u_th=0.5, u_reset=0.125, alpha=3.0,
                        lam=2.5, lr=0.125, epochs=2, seed=5, ablation="W3", batch_size=2,
                        stride=2, max_batches=1, minute_covariate=True)
# Written by the format-v2 `save_model` of the code that stored the LSTM per
# gate (`lstm/w_x{i,f,g,o}`, `lstm/w_h{i,f,g,o}`, `lstm/b_{i,f,g,o}`), from
# `ForecastModel(V1_CONFIG)` with the norm stats and ssa_scale of the v1 fixture.
V2_GATES_FIXTURE = Path(__file__).parent / "data" / "checkpoint_v2_gates.stag"


def calibrated(cfg=TINY):
    """A model with norm stats and an ssa_scale set by one forward pass."""
    windows = make_windows(synth_generate(cfg.n_nodes, 80, seed=2), cfg.t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    batch = windows.batch(windows.test_starts[:2])
    with ag.no_grad():
        model.forward(batch)
    return model, batch


def saved_blob(tmp_path, model) -> bytes:
    path = tmp_path / "m.stag"
    save_model(path, model)
    return path.read_bytes()


def load_blob(tmp_path, blob: bytes):
    path = tmp_path / "bad.stag"
    path.write_bytes(blob)
    return load_model(path)


def v2_blob(header: bytes) -> bytes:
    return MAGIC + struct.pack("<II", 2, len(header)) + header + struct.pack("<I", 0)


# attention gains that would make every prediction NaN or flip the branch
BAD_SCALES = [float("nan"), float("inf"), -float("inf"), -2.0, 0.0]


def forbid_redraw(monkeypatch):
    def redraw(*args, **kwargs):
        raise AssertionError("load_model must take the embeddings from the file")

    for module in (spikestag.model, spikestag.graph):
        monkeypatch.setattr(module, "init_live_embeddings", redraw)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        cfg = replace(TINY, seed=16777217, lr=1e-3, beta=0.1, minute_covariate=True,
                      ablation="W3")
        model, _ = calibrated(cfg)
        assert model.ssa_scale is not None
        save_model(tmp_path / "m.stag", model)
        loaded = load_model(tmp_path / "m.stag")

        for f in fields(ModelConfig):
            got, want = getattr(loaded.config, f.name), getattr(cfg, f.name)
            assert type(got) is type(want) and got == want, f.name
        assert loaded.config.seed == 16777217 and loaded.config.lr == 1e-3
        params, before = loaded.parameters(), model.parameters()
        assert params.keys() == before.keys()
        for name, p in before.items():
            assert params[name].data.dtype == np.float32
            assert np.array_equal(params[name].data, p.data), name
        assert np.array_equal(loaded.norm_mean, model.norm_mean)
        assert np.array_equal(loaded.norm_std, model.norm_std)
        assert loaded.ssa_scale == model.ssa_scale

    def test_uncalibrated_model_keeps_ssa_scale_unset(self, tmp_path):
        save_model(tmp_path / "m.stag", ForecastModel(TINY))
        assert load_model(tmp_path / "m.stag").ssa_scale is None

    def test_loaded_model_predicts_identically(self, tmp_path):
        model, batch = calibrated()
        save_model(tmp_path / "m.stag", model)
        loaded = load_model(tmp_path / "m.stag")
        assert np.array_equal(loaded.predict(batch), model.predict(batch))

    def test_reads_format_v1(self):
        loaded = load_model(V1_FIXTURE)
        assert loaded.config == V1_CONFIG
        expected = ForecastModel(V1_CONFIG).parameters()
        params = loaded.parameters()
        assert params.keys() == expected.keys()
        for name, p in expected.items():
            assert np.array_equal(params[name].data, p.data), name
        assert np.array_equal(loaded.embeddings, ForecastModel(V1_CONFIG).embeddings)
        assert np.array_equal(loaded.norm_mean, [1.0, 2.0, 3.0])
        assert np.array_equal(loaded.norm_std, [0.5, 1.0, 2.0])
        assert loaded.ssa_scale == 0.375

    def test_reads_per_gate_lstm_of_format_v2(self):
        loaded = load_model(V2_GATES_FIXTURE)
        assert loaded.config == V1_CONFIG and loaded.ssa_scale == 0.375
        fresh = ForecastModel(V1_CONFIG)
        fresh.set_norm_stats(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 2.0]))
        fresh.ssa_scale = 0.375
        params, expected = loaded.parameters(), fresh.parameters()
        assert params.keys() == expected.keys()
        for name, p in expected.items():
            assert np.array_equal(params[name].data, p.data), name
        windows = make_windows(synth_generate(V1_CONFIG.n_nodes, 40, seed=2), V1_CONFIG.t_in,
                               V1_CONFIG.horizon)
        batch = windows.batch(windows.test_starts[:2])
        assert np.array_equal(loaded.predict(batch), fresh.predict(batch))


class TestEmbeddings:
    """`emb/e` is stored like a parameter and loaded as the model's buffer."""

    def test_written_first(self, tmp_path):
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        (header_len,) = struct.unpack_from("<I", blob, 8)
        off = 12 + header_len + 4
        assert blob[off:off + 7] == struct.pack("<H", 5) + b"emb/e"

    def test_load_takes_embeddings_and_graph_from_the_file(self, tmp_path, monkeypatch):
        # embeddings no fresh draw of the config would give
        drawn = ForecastModel(replace(TINY, seed=7)).embeddings
        model = ForecastModel(TINY, embeddings=drawn)
        save_model(tmp_path / "m.stag", model)
        forbid_redraw(monkeypatch)
        loaded = load_model(tmp_path / "m.stag")
        assert np.array_equal(loaded.embeddings, drawn)
        assert loaded.graph == model.graph

    def test_v1_loads_without_redraw(self, monkeypatch):
        expected = ForecastModel(V1_CONFIG).graph
        forbid_redraw(monkeypatch)
        assert load_model(V1_FIXTURE).graph == expected

    def test_save_load_save_byte_identical(self, tmp_path):
        model, _ = calibrated()
        first = saved_blob(tmp_path, model)
        assert saved_blob(tmp_path, load_blob(tmp_path, first)) == first

    def test_missing_embeddings(self, tmp_path):
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        (header_len,) = struct.unpack_from("<I", blob, 8)
        off = 12 + header_len
        (count,) = struct.unpack_from("<I", blob, off)
        # the first record: name length, name, rank 2, two dims, N * emb_dim floats
        record = 2 + len(b"emb/e") + 1 + 2 * 4 + 4 * TINY.n_nodes * TINY.emb_dim
        stripped = blob[:off] + struct.pack("<I", count - 1) + blob[off + 4 + record:]
        with pytest.raises(CheckpointFormatError, match="missing tensor 'emb/e'"):
            load_blob(tmp_path, stripped)

    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (16,)])
    def test_misshaped_embeddings(self, tmp_path, shape):
        model = ForecastModel(TINY)
        model.embeddings = np.zeros(shape, dtype=np.float32)
        with pytest.raises(CheckpointFormatError, match=r"'emb/e' has shape .*expected \(4, 4\)"):
            load_blob(tmp_path, saved_blob(tmp_path, model))


class TestRejects:
    def test_bad_magic(self, tmp_path):
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_blob(tmp_path, b"NOPE" + blob[4:])

    def test_unknown_version(self, tmp_path):
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        with pytest.raises(CheckpointFormatError, match="version 3"):
            load_blob(tmp_path, blob[:4] + struct.pack("<I", 3) + blob[8:])

    @pytest.mark.parametrize("header", [
        b"not json",
        b"\xff\xfe",
        b"[1, 2]",
        json.dumps({"config": {"n_nodes": 4}, "ssa_scale": None}).encode(),
        json.dumps({"config": asdict(TINY)}).encode(),
        json.dumps({"config": {**asdict(TINY), "seed": "1"}, "ssa_scale": None}).encode(),
        json.dumps({"config": {**asdict(TINY), "extra": 1}, "ssa_scale": None}).encode(),
        json.dumps({"config": asdict(TINY), "ssa_scale": "big"}).encode(),
        json.dumps({"config": {**asdict(TINY), "n_nodes": 0}, "ssa_scale": None}).encode(),
    ])
    def test_malformed_header(self, tmp_path, header):
        with pytest.raises(CheckpointFormatError):
            load_blob(tmp_path, v2_blob(header))

    def test_truncated(self, tmp_path):
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        (header_len,) = struct.unpack_from("<I", blob, 8)
        for cut in (6, 10, 12 + header_len // 2, 12 + header_len + 2, len(blob) // 2,
                    len(blob) - 1):
            with pytest.raises(CheckpointFormatError):
                load_blob(tmp_path, blob[:cut])


class TestNormStats:
    """`norm/mean` and `norm/std` are both absent, or both there with shape (N,)."""

    @pytest.mark.parametrize("dropped", ["norm/std", "norm/mean"])
    def test_one_stat_alone_refused(self, tmp_path, dropped):
        model, _ = calibrated()
        blob = saved_blob(tmp_path, model)
        (header_len,) = struct.unpack_from("<I", blob, 8)
        tensors = _read_records(blob, 12 + header_len)
        del tensors[dropped]
        path = tmp_path / "one_stat.stag"
        with open(path, "wb") as fh:
            fh.write(blob[:12 + header_len])
            _write_records(fh, tensors)
        with pytest.raises(CheckpointFormatError, match=f"missing tensor '{dropped}'"):
            load_model(path)

    def test_misshaped_stat_refused(self, tmp_path):
        model = ForecastModel(TINY)
        model.set_norm_stats(np.zeros(7), np.ones(TINY.n_nodes))
        with pytest.raises(CheckpointFormatError, match=r"'norm/mean' has shape \(7,\)"):
            load_blob(tmp_path, saved_blob(tmp_path, model))


class TestSsaScale:
    """`ssa_scale` is unset or a finite positive float, on save and on load."""

    @pytest.mark.parametrize("scale", BAD_SCALES)
    def test_save_refuses(self, tmp_path, scale):
        model = ForecastModel(TINY)
        model.ssa_scale = scale
        with pytest.raises(ContractError, match="ssa_scale"):
            save_model(tmp_path / "m.stag", model)
        assert not (tmp_path / "m.stag").exists()

    @pytest.mark.parametrize("scale", BAD_SCALES)
    def test_v2_load_refuses(self, tmp_path, scale):
        # the blob of a valid model with only the header's ssa_scale replaced
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.dumps({"config": asdict(TINY), "ssa_scale": scale}).encode()
        bad = blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + header_len:]
        with pytest.raises(CheckpointFormatError, match="ssa_scale"):
            load_blob(tmp_path, bad)

    @pytest.mark.parametrize("scale", BAD_SCALES)
    def test_v1_load_refuses(self, tmp_path, scale):
        tensors = _read_records(V1_FIXTURE.read_bytes(), 8)
        tensors["calib/ssa_scale"] = np.array([scale], dtype=np.float32)
        path = tmp_path / "v1.stag"
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", 1))
            _write_records(fh, tensors)
        with pytest.raises(CheckpointFormatError, match="ssa_scale"):
            load_model(path)
