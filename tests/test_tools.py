"""The measurement scripts under `tools/` run on this checkout.

`peak.py` and `kernels.py` run in subprocesses at small sizes and must exit
0; `fingerprint.py` fingerprints W1-W4 on a tiny config in process, and its
`--compare` must report a differing field.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TINY_CONFIG = {"tiny": ({"n_nodes": 4, "t_in": 8, "horizon": 2, "emb_dim": 4, "d1": 4, "d2": 4,
                         "h_dim": 4, "d_k": 4, "ts": 2, "batch_size": 2}, False)}


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fingerprint(monkeypatch):
    module = load_tool("fingerprint")
    monkeypatch.setattr(module, "CONFIGS", TINY_CONFIG)
    monkeypatch.setattr(module, "SYNTH_STEPS", 60)
    return module


@pytest.mark.parametrize("argv", [
    ["peak.py", "--nodes", "4", "--batch", "2", "--input-len", "8"],
    ["kernels.py", "--repeats", "1"],
], ids=["peak", "kernels"])
def test_script_exits_0(argv):
    done = subprocess.run([sys.executable, str(TOOLS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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
