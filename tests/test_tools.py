"""The scripts under `tools/` run on this checkout.

`peak.py` and `kernels.py` run in subprocesses at small sizes and must exit
0, `kernels.py` printing each backward's peak; `fingerprint.py`
fingerprints W1-W4 on a tiny config in process, and its `--compare` must
report a differing field.  `upgrade_checkpoint.py` runs in
a subprocess on the older-layout fixtures and on files it must refuse,
among them v1 files whose config values are not what their fields claim.
`loc.py` refuses a root it cannot count.
"""

import importlib.util
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spikestag import autograd as ag
from spikestag.autograd import Tensor
from spikestag.checkpoint import MAGIC, _read_records, _write_records, load_model, save_model
from spikestag.dsf import LSTM_CHUNK
from spikestag.model import ForecastModel, ModelConfig

TOOLS = Path(__file__).resolve().parents[1] / "tools"
FIXTURES = Path(__file__).resolve().parent / "data"
TINY = {"n_nodes": 4, "t_in": 8, "horizon": 2, "emb_dim": 4, "d1": 4, "d2": 4, "h_dim": 4,
        "d_k": 4, "ts": 2, "batch_size": 2}
# "tiny-45" runs T' = 9 * 5 = 45 frames, a multiple of no chunk length the
# LSTM or the no-grad forward uses, so its last chunks are short ones
TINY_CONFIG = {"tiny": (TINY, False), "tiny-45": ({**TINY, "t_in": 9, "ts": 5}, False)}


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_fingerprint():
    """A fresh `tools/fingerprint.py` module set to the tiny configs and a 60-step series."""
    module = load_tool("fingerprint")
    module.CONFIGS = TINY_CONFIG
    module.SYNTH_STEPS = 60
    return module


@pytest.fixture
def fingerprint():
    return tiny_fingerprint()


@pytest.mark.parametrize("argv", [
    ["peak.py", "--nodes", "4", "--batch", "2", "--input-len", "8"],
    ["kernels.py", "--repeats", "1"],
], ids=["peak", "kernels"])
def test_script_exits_0(argv):
    done = subprocess.run([sys.executable, str(TOOLS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if argv[0] == "kernels.py":
        # five kernels for each of three configs, each with its backward's peak
        header, *rows = done.stdout.splitlines()
        assert header.split()[-1] == "backward_peak_mb"
        assert len(rows) == 15 and all(float(row.split()[-1]) > 0 for row in rows), rows


def test_peak_reports_one_byte_per_held_spike():
    r = load_tool("peak").measure(4, 2, 8)
    cfg = ModelConfig()
    # the seven LIF layers: two encoders, two hops, Q, K and V
    widths = (cfg.feature_width, cfg.d1, cfg.d2, cfg.h_dim) + (cfg.d_k,) * 3
    assert r["spike_mb"] * 2**20 == 2 * 8 * cfg.ts * 4 * sum(widths)
    assert r["spike_mb"] < r["held_mb"]


def test_peak_reports_the_lstm_h_and_c_stores():
    r = load_tool("peak").measure(4, 2, 8)
    # float32 h and c entering each chunk of the T' = 8 * ts frames, for
    # B * N = 2 * 4 rows
    chunks = -(-8 * ModelConfig.ts // LSTM_CHUNK)
    assert r["lstm_mb"] * 2**20 == 2 * chunks * ModelConfig.h_dim * 2 * 4 * 4
    assert r["lstm_mb"] < r["held_mb"]


def test_saved_nbytes_counts_arrays_in_tuples_and_lists():
    """A closure's arrays count alone or inside a tuple or list, and views of
    the node's parents do not."""
    parent = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    stores, more, view = (np.zeros(3), np.zeros(5, dtype=np.float32)), [np.zeros(2)], parent.data[2:]
    bare = np.zeros(7, dtype=np.int8)

    def backward(g):
        return stores, more, view, bare, (view,), parent

    node = ag._result(np.zeros(8, dtype=np.float32), (parent,), backward, "probe")
    assert load_tool("peak").saved_nbytes(node) == 8 * 3 + 4 * 5 + 8 * 2 + 7


@pytest.mark.parametrize("ablation", ["W1", "W2", "W3", "W4"])
def test_fingerprint_is_reproducible(fingerprint, ablation, tmp_path):
    first, second = (fingerprint.fingerprint_case("tiny", 1, ablation, tmp_path)
                     for _ in range(2))
    assert first == second
    assert ("grad.ssa/gain" in first) == (ablation != "W1")


def test_compare_reports_a_differing_field(fingerprint, tmp_path, capsys):
    case = {"tiny/W4/seed1": fingerprint.fingerprint_case("tiny", 1, "W4", tmp_path)}
    changed = {"tiny/W4/seed1": {**case["tiny/W4/seed1"], "loss": "0" * 64}}
    paths = []
    for i, result in enumerate((case, changed)):
        paths.append(tmp_path / f"fp{i}.json")
        paths[-1].write_text(json.dumps(result))
    assert fingerprint.main(["--compare", *map(str, paths)]) == 1
    assert "1 differing fields" in capsys.readouterr().out
    assert fingerprint.main(["--compare", str(paths[0]), str(paths[0])]) == 0


def run_upgrader(old, new):
    return subprocess.run([sys.executable, str(TOOLS / "upgrade_checkpoint.py"), str(old),
                           str(new)], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("fixture", ["checkpoint_v1.stag", "checkpoint_v2_gates.stag"])
def test_upgrader_rewrites_older_layout(fixture, tmp_path):
    done = run_upgrader(FIXTURES / fixture, tmp_path / "new.stag")
    assert done.returncode == 0, done.stderr
    assert load_model(tmp_path / "new.stag").config.ablation == "W3"


def current_file(path):
    save_model(path, ForecastModel(ModelConfig(**TINY)))


def truncated_file(path):
    blob = (FIXTURES / "checkpoint_v1.stag").read_bytes()
    path.write_bytes(blob[:len(blob) // 2])


def write_v1(path, tensors: dict):
    """Write `tensors` in the layout of format v1: magic, version 1, the records."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", 1))
        _write_records(fh, tensors)
    return path


def v1_with_nan_gain(path):
    tensors = _read_records((FIXTURES / "checkpoint_v1.stag").read_bytes(), 8)
    tensors["calib/ssa_scale"] = np.array([np.nan], dtype=np.float32)
    write_v1(path, tensors)


def v1_with_config_value(field: str, value: float):
    """A writer of the v1 fixture with the tensor `config/<field>` set to `value`."""
    def write(path):
        tensors = _read_records((FIXTURES / "checkpoint_v1.stag").read_bytes(), 8)
        tensors[f"config/{field}"] = np.array([value], dtype=np.float32)
        write_v1(path, tensors)
    return write


@pytest.mark.parametrize("write_old, message", [
    (current_file, "not of an older layout"),
    (truncated_file, "truncated or corrupt checkpoint"),
    (v1_with_nan_gain, "calib/ssa_scale must be null or a finite positive float, got nan"),
    (v1_with_config_value("ablation", 0.0),
     "config tensor 'config/ablation' holds 0.0, not an ablation index 1-4"),
    (v1_with_config_value("ablation", 5.0), "'config/ablation' holds 5.0"),
    (v1_with_config_value("ablation", 2.5), "'config/ablation' holds 2.5"),
    (v1_with_config_value("ts", 4.5), "config tensor 'config/ts' holds 4.5, not a whole number"),
    (v1_with_config_value("seed", np.nan), "'config/seed' holds nan, not a whole number"),
    (v1_with_config_value("minute_covariate", 0.5),
     "config tensor 'config/minute_covariate' holds 0.5, not 0 or 1"),
    (v1_with_config_value("minute_covariate", 2.0), "'config/minute_covariate' holds 2.0"),
], ids=["current", "truncated", "v1_nan_gain", "v1_ablation_0", "v1_ablation_5",
        "v1_ablation_2.5", "v1_ts_4.5", "v1_seed_nan", "v1_bool_0.5", "v1_bool_2"])
def test_upgrader_refusal_exits_2_and_writes_nothing(write_old, message, tmp_path):
    write_old(tmp_path / "old.stag")
    done = run_upgrader(tmp_path / "old.stag", tmp_path / "new.stag")
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], lines
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "new.stag").exists()


def test_loc_module_lines_sum_to_the_src_total():
    done = subprocess.run([sys.executable, str(TOOLS / "loc.py")],
                          capture_output=True, text=True, timeout=60, check=True)
    counts = lambda line: [int(n.replace(",", "")) for n in line.split()[-3::2]]
    src, tests, *modules = done.stdout.splitlines()
    assert src.startswith("src/ ") and tests.startswith("tests/ ")
    names = [line.split()[0] for line in modules]
    assert names == sorted(f"src/{p.relative_to(TOOLS.parent / 'src').as_posix()}"
                           for p in (TOOLS.parent / "src").rglob("*.py"))
    assert [sum(col) for col in zip(*map(counts, modules))] == counts(src)


@pytest.mark.parametrize("argv", [["--help"], ["src"]], ids=["flag", "src"])
def test_loc_refuses_a_root_without_src_and_tests(argv):
    done = subprocess.run([sys.executable, str(TOOLS / "loc.py"), *argv],
                          capture_output=True, text=True, timeout=60, cwd=TOOLS.parent)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines() == [f"error: {argv[0]} has no src/ or tests/ to count"]
