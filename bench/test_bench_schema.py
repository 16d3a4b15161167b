"""Schema smoke test of the benchmark's own output.

Runs a tiny model through both workload modes, timed and traced, and checks
that every metric BENCHMARK.json declares is reported with its unit and a
well-formed name.  Timing values are not checked.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
from spikestag.model import ModelConfig  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = ModelConfig(n_nodes=4, t_in=4, horizon=2, emb_dim=4, d1=4, d2=4, h_dim=8, d_k=4,
                   ts=2, batch_size=2)


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_declared_metrics_match_harness():
    assert _declared("end_to_end") == harness.END_TO_END_UNITS
    assert _declared("per_layer") == harness.PER_LAYER_UNITS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("trace", [False, True])
def test_result_schema(tmp_path, mode, trace):
    wl = harness.Workload(f"tiny-{mode}", mode, TINY)
    result = harness.run_workload(wl, seed=3, seconds=0.01, trace=trace, out_dir=tmp_path)

    expected = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(NAME.match(name) for name in result["metrics"])
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"], result["problems"]
    assert result["attempted"] > harness.WARMUP_STEPS and result["failed"] == 0
    for key in ("numpy", "blas", "blas_threads", "python", "nproc", "seed"):
        assert key in result["environment"]
    json.dumps(result, allow_nan=False)


def test_empty_local_sets_are_refused(tmp_path):
    # lam=4 at N=32 leaves every local sample set empty: MSSA would aggregate nothing
    degenerate = replace(TINY, n_nodes=32, lam=4.0)
    wl = harness.Workload("tiny-degenerate", "train", degenerate)
    with pytest.raises(harness.GateError, match="local_nonempty_frac"):
        harness.run_workload(wl, seed=3, seconds=0.01, trace=False, out_dir=tmp_path)
