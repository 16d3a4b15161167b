import json
import struct
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import spikestag.checkpoint
import spikestag.graph
import spikestag.model
from spikestag.checkpoint import MAGIC, _read_records, _write_records, load_model, save_model
from spikestag.data import make_windows, synth_generate
from spikestag.errors import CheckpointFormatError, ContractError
from spikestag.model import SSA_GAIN_INIT, ForecastModel, ModelConfig
from test_tools import load_tool, write_v1

UPGRADER = load_tool("upgrade_checkpoint")

TINY = ModelConfig(n_nodes=4, t_in=6, horizon=2, emb_dim=4, d1=4, d2=4, h_dim=6, d_k=4,
                   ts=2, batch_size=2)

# Written by the format-v1 `save_model` from this config, with norm stats
# mean (1, 2, 3), std (0.5, 1, 2) and ssa_scale 0.375, the gain it upgrades to.
# Every value is exact in float32, so v1's float32 config tensors hold it
# without rounding.
V1_FIXTURE = Path(__file__).parent / "data" / "checkpoint_v1.stag"
V1_CONFIG = ModelConfig(n_nodes=3, t_in=4, horizon=2, emb_dim=2, k1=1, k2=1, d1=2, d2=2,
                        h_dim=3, d_k=2, ts=2, beta=0.75, u_th=0.5, u_reset=0.125, alpha=3.0,
                        lam=2.5, lr=0.125, epochs=2, seed=5, ablation="W3", batch_size=2,
                        stride=2, max_batches=1, minute_covariate=True)
# Written by the format-v2 `save_model` of the code that stored the LSTM per
# gate (`lstm/w_x{i,f,g,o}`, `lstm/w_h{i,f,g,o}`, `lstm/b_{i,f,g,o}`), from
# `ForecastModel(V1_CONFIG)` with the norm stats and ssa_scale of the v1 fixture.
V2_GATES_FIXTURE = Path(__file__).parent / "data" / "checkpoint_v2_gates.stag"
FIXTURE_GAIN = 0.375


def with_norm_stats(cfg=TINY):
    """A model with norm stats, and a batch of two test windows."""
    windows = make_windows(synth_generate(cfg.n_nodes, 80, seed=2), cfg.t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    return model, windows.batch(windows.test_starts[:2])


def fixture_model() -> ForecastModel:
    """A fresh model of the fixtures' config with their norm stats and gain."""
    model = ForecastModel(V1_CONFIG)
    model.set_norm_stats(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 2.0]))
    model.ssa_readout.gain.data[:] = FIXTURE_GAIN
    return model


def saved_blob(tmp_path, model) -> bytes:
    path = tmp_path / "m.stag"
    save_model(path, model)
    return path.read_bytes()


def load_blob(tmp_path, blob: bytes):
    path = tmp_path / "bad.stag"
    path.write_bytes(blob)
    return load_model(path)


def upgraded(tmp_path, old) -> ForecastModel:
    """The model of the older-layout file `old`, loaded after the upgrader rewrote it."""
    new = tmp_path / "upgraded.stag"
    UPGRADER.upgrade(old, new)
    return load_model(new)


def v2_blob(header: bytes) -> bytes:
    return MAGIC + struct.pack("<II", 2, len(header)) + header + struct.pack("<I", 0)


def v2_parts(blob: bytes) -> tuple:
    """(header, tensor records) of a format-v2 blob."""
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12:12 + header_len]), _read_records(blob, 12 + header_len)


def write_v2(path, header: dict, tensors: dict):
    encoded = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", 2, len(encoded)) + encoded)
        _write_records(fh, tensors)
    return path


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
        model, _ = with_norm_stats(cfg)
        model.ssa_readout.gain.data[:] = 2.5
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

    def test_loaded_tensors_are_writable_float32_of_their_own(self, tmp_path):
        model, _ = with_norm_stats()
        save_model(tmp_path / "m.stag", model)
        loaded = load_model(tmp_path / "m.stag")
        arrays = {name: p.data for name, p in loaded.parameters().items()}
        arrays.update({"emb/e": loaded.embeddings, "norm/mean": loaded.norm_mean,
                       "norm/std": loaded.norm_std})
        for name, arr in arrays.items():
            assert arr.dtype == np.float32 and arr.flags.writeable, name
            assert not any(np.shares_memory(arr, other)
                           for other_name, other in arrays.items() if other_name != name), name

    def test_null_ssa_scale_of_older_v2_loads_the_initial_gain(self, tmp_path):
        model = ForecastModel(TINY)
        model.ssa_readout.gain.data[:] = 2.5
        _, tensors = v2_parts(saved_blob(tmp_path, model))
        del tensors["ssa/gain"]
        path = write_v2(tmp_path / "old.stag", {"config": asdict(TINY), "ssa_scale": None},
                        tensors)
        assert upgraded(tmp_path, path).ssa_readout.gain.data.tolist() == [SSA_GAIN_INIT]

    def test_loaded_model_predicts_identically(self, tmp_path):
        model, batch = with_norm_stats()
        save_model(tmp_path / "m.stag", model)
        loaded = load_model(tmp_path / "m.stag")
        assert np.array_equal(loaded.predict(batch), model.predict(batch))

    def test_reads_format_v1(self, tmp_path):
        loaded = upgraded(tmp_path, V1_FIXTURE)
        assert loaded.config == V1_CONFIG
        expected = fixture_model().parameters()
        params = loaded.parameters()
        assert params.keys() == expected.keys()
        for name, p in expected.items():
            assert np.array_equal(params[name].data, p.data), name
        assert np.array_equal(loaded.embeddings, ForecastModel(V1_CONFIG).embeddings)
        assert np.array_equal(loaded.norm_mean, [1.0, 2.0, 3.0])
        assert np.array_equal(loaded.norm_std, [0.5, 1.0, 2.0])
        assert loaded.parameters()["ssa/gain"].data.tolist() == [FIXTURE_GAIN]

    def test_reads_per_gate_lstm_of_format_v2(self, tmp_path):
        loaded = upgraded(tmp_path, V2_GATES_FIXTURE)
        assert loaded.config == V1_CONFIG
        assert loaded.parameters()["ssa/gain"].data.tolist() == [FIXTURE_GAIN]
        fresh = fixture_model()
        params, expected = loaded.parameters(), fresh.parameters()
        assert params.keys() == expected.keys()
        for name, p in expected.items():
            assert np.array_equal(params[name].data, p.data), name
        windows = make_windows(synth_generate(V1_CONFIG.n_nodes, 40, seed=2), V1_CONFIG.t_in,
                               V1_CONFIG.horizon)
        batch = windows.batch(windows.test_starts[:2])
        assert np.array_equal(loaded.predict(batch), fresh.predict(batch))

    @pytest.mark.parametrize("fixture", [V1_FIXTURE, V2_GATES_FIXTURE], ids=["v1", "v2_gates"])
    def test_upgrade_writes_what_a_save_writes(self, tmp_path, fixture):
        UPGRADER.upgrade(fixture, tmp_path / "upgraded.stag")
        assert (tmp_path / "upgraded.stag").read_bytes() == saved_blob(tmp_path, fixture_model())


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

    def test_v1_loads_without_redraw(self, tmp_path, monkeypatch):
        expected = ForecastModel(V1_CONFIG).graph
        forbid_redraw(monkeypatch)
        assert upgraded(tmp_path, V1_FIXTURE).graph == expected

    def test_save_load_save_byte_identical(self, tmp_path):
        model, _ = with_norm_stats()
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


# each header, and the message of the check that refuses it
MALFORMED_HEADERS = {
    b"not json": "corrupt checkpoint: Expecting value",
    b"\xff\xfe": "corrupt checkpoint: 'utf-8' codec can't decode",
    b"[1, 2]": "header must be exactly a 'config'",
    json.dumps({"config": {"n_nodes": 4}}).encode(): "header must be exactly a 'config'",
    json.dumps({"config": asdict(TINY), "note": 1}).encode(): "header must be exactly a 'config'",
    json.dumps({"config": {**asdict(TINY), "seed": "1"}}).encode():
        "^invalid config in checkpoint header: config field seed must be int, got '1'$",
    json.dumps({"config": {**asdict(TINY), "extra": 1}}).encode():
        "header must be exactly a 'config'",
    json.dumps({"config": asdict(TINY), "ssa_scale": "big"}).encode():
        "a header holding 'ssa_scale' is an older checkpoint layout",
    json.dumps({"config": {**asdict(TINY), "n_nodes": 0}}).encode():
        "^invalid config in checkpoint header: config field n_nodes must be positive$",
}


class TestRejects:
    def test_bad_magic(self, tmp_path):
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_blob(tmp_path, b"NOPE" + blob[4:])

    def test_unknown_version(self, tmp_path):
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        with pytest.raises(CheckpointFormatError, match="version 3"):
            load_blob(tmp_path, blob[:4] + struct.pack("<I", 3) + blob[8:])

    @pytest.mark.parametrize("header", list(MALFORMED_HEADERS))
    def test_malformed_header(self, tmp_path, header):
        with pytest.raises(CheckpointFormatError, match=MALFORMED_HEADERS[header]):
            load_blob(tmp_path, v2_blob(header))

    @pytest.mark.parametrize("field, value", [("seed", "1"), ("n_nodes", 0)])
    def test_invalid_config_is_not_called_corrupt(self, tmp_path, field, value):
        header = json.dumps({"config": {**asdict(TINY), field: value}}).encode()
        with pytest.raises(CheckpointFormatError, match="^invalid config in checkpoint header: "
                                                        f"config field {field} ") as info:
            load_blob(tmp_path, v2_blob(header))
        assert "truncated or corrupt" not in str(info.value)

    @pytest.mark.parametrize("fixture", [V1_FIXTURE, V2_GATES_FIXTURE], ids=["v1", "v2_gates"])
    def test_older_layout_refused_naming_the_upgrader(self, fixture):
        with pytest.raises(CheckpointFormatError,
                           match="older checkpoint layout; rewrite it with 'python3 "
                                 "tools/upgrade_checkpoint.py OLD NEW'"):
            load_model(fixture)

    def test_one_byte_after_the_last_record(self, tmp_path):
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        with pytest.raises(CheckpointFormatError, match="^1 bytes after the last record$"):
            load_blob(tmp_path, blob + b"\x00")

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
        model, _ = with_norm_stats()
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
    """An older file's `ssa_scale` is null or a finite positive float, or the
    upgrader refuses the file."""

    @pytest.mark.parametrize("scale", BAD_SCALES)
    def test_v2_load_refuses(self, tmp_path, scale):
        # the blob of a valid model with only the header's ssa_scale replaced
        blob = saved_blob(tmp_path, ForecastModel(TINY))
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.dumps({"config": asdict(TINY), "ssa_scale": scale}).encode()
        path = tmp_path / "bad.stag"
        path.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                         + blob[12 + header_len:])
        with pytest.raises(CheckpointFormatError, match="ssa_scale"):
            upgraded(tmp_path, path)

    @pytest.mark.parametrize("scale", BAD_SCALES)
    def test_v1_load_refuses(self, tmp_path, scale):
        tensors = _read_records(V1_FIXTURE.read_bytes(), 8)
        tensors["calib/ssa_scale"] = np.array([scale], dtype=np.float32)
        with pytest.raises(CheckpointFormatError, match="ssa_scale"):
            upgraded(tmp_path, write_v1(tmp_path / "v1.stag", tensors))

    def test_refuses_both_ssa_scale_and_gain_record(self, tmp_path):
        _, tensors = v2_parts(saved_blob(tmp_path, ForecastModel(TINY)))
        path = write_v2(tmp_path / "both.stag", {"config": asdict(TINY), "ssa_scale": 0.5},
                        tensors)
        with pytest.raises(CheckpointFormatError, match="both header ssa_scale and an 'ssa/gain'"):
            upgraded(tmp_path, path)

    def test_w1_ignores_ssa_scale(self, tmp_path):
        # older code wrote 1.0 for W1, which has no attention gain
        cfg = replace(TINY, ablation="W1")
        model = ForecastModel(cfg)
        _, tensors = v2_parts(saved_blob(tmp_path, model))
        path = write_v2(tmp_path / "w1.stag", {"config": asdict(cfg), "ssa_scale": 1.0}, tensors)
        assert upgraded(tmp_path, path).parameters().keys() == model.parameters().keys()

    def test_new_file_without_gain_refused(self, tmp_path):
        # the current layout: load_model itself refuses it
        header, tensors = v2_parts(saved_blob(tmp_path, ForecastModel(TINY)))
        del tensors["ssa/gain"]
        with pytest.raises(CheckpointFormatError, match="missing tensor 'ssa/gain'"):
            load_model(write_v2(tmp_path / "no_gain.stag", header, tensors))


class TestEveryRecordRead:
    """A load reads every record of the file or refuses it."""

    def test_ablation_edited_to_w1_refused(self, tmp_path):
        header, tensors = v2_parts(saved_blob(tmp_path, ForecastModel(TINY)))
        header["config"]["ablation"] = "W1"
        with pytest.raises(CheckpointFormatError, match=r"not read: .*ssa/gain.*gate/w_g"):
            load_model(write_v2(tmp_path / "w1.stag", header, tensors))

    def test_fused_and_per_gate_lstm_refused(self, tmp_path):
        header, tensors = v2_parts(V2_GATES_FIXTURE.read_bytes())
        for name, p in vars(ForecastModel(V1_CONFIG).lstm_params).items():
            tensors[f"lstm/{name}"] = p.data
        with pytest.raises(CheckpointFormatError, match="not read: lstm/wx, lstm/wh, lstm/b"):
            upgraded(tmp_path, write_v2(tmp_path / "both.stag", header, tensors))

    def test_extra_record_of_v1_refused(self, tmp_path):
        tensors = _read_records(V1_FIXTURE.read_bytes(), 8)
        tensors["calib/other"] = np.ones(1, dtype=np.float32)
        with pytest.raises(CheckpointFormatError, match="not read: calib/other$"):
            upgraded(tmp_path, write_v1(tmp_path / "v1.stag", tensors))


@pytest.mark.parametrize("name", ["head/w", "ssa/gain"])
def test_non_finite_tensor_refused(tmp_path, name):
    # written record by record: `save_model` refuses such a model
    blob = saved_blob(tmp_path, ForecastModel(TINY))
    header, tensors = v2_parts(blob)
    tensors[name] = tensors[name].copy()
    tensors[name].flat[0] = np.nan
    with pytest.raises(CheckpointFormatError, match=f"'{name}' holds a non-finite value"):
        load_model(write_v2(tmp_path / "nan.stag", header, tensors))


@pytest.mark.parametrize("name", ["head/w", "ssa/gain", "norm/std"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_save_refuses_non_finite_tensor(tmp_path, name, value):
    model, _ = with_norm_stats()
    if name == "norm/std":
        model.norm_std[0] = value
    else:
        model.parameters()[name].data.flat[0] = value
    path = tmp_path / "m.stag"
    with pytest.raises(ContractError, match=f"'{name}' holds a non-finite value"):
        save_model(path, model)
    assert not path.exists()


class TestEmptyLocalSets:
    """N=32 at lam=4 empties every local sample set (see test_model)."""

    DEGENERATE = replace(TINY, n_nodes=32, lam=4.0)

    def test_save_refuses(self, tmp_path):
        path = tmp_path / "m.stag"
        with pytest.raises(ContractError, match="32 of 32 nodes have an empty local sample set"):
            save_model(path, ForecastModel(self.DEGENERATE))
        assert list(tmp_path.iterdir()) == []

    def test_load_refuses(self, tmp_path):
        # written record by record: `save_model` refuses such a model
        model = ForecastModel(self.DEGENERATE)
        tensors = {"emb/e": model.embeddings,
                   **{name: p.data for name, p in model.parameters().items()}}
        path = write_v2(tmp_path / "m.stag", {"config": asdict(self.DEGENERATE)}, tensors)
        with pytest.raises(ContractError, match="32 of 32 nodes have an empty local sample set"):
            load_model(path)


def test_failed_save_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.stag"
    model = ForecastModel(TINY)
    save_model(path, model)
    before = path.read_bytes()

    def fail_partway(fh, tensors):
        _write_records(fh, dict(list(tensors.items())[:2]))
        raise OSError("disk full")

    monkeypatch.setattr(spikestag.checkpoint, "_write_records", fail_partway)
    model.parameters()["head/b"].data[:] = 1.0
    with pytest.raises(OSError, match="disk full"):
        save_model(path, model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.stag"]
