"""Bit-identity fingerprint of the model on the benchmark's configs.

For each of the train-n8, infer-ts8 and train-n32 configs, ablations W1-W4
and seeds 1-2 (24 cases), one batch of the synthetic series goes through:

  1. a counted no-grad forward;
  2. a taped forward, the MSE loss and its backward;
  3. gradient clipping at 1.0 and one Adam step, then a no-grad forward;
  4. a checkpoint save, a load, and a no-grad forward of the loaded model.

Every array is hashed as sha256 over its dtype, shape and bytes: the
predictions of steps 1-4, the loss, the clip norm, every parameter gradient,
every `LayerCount` of the counted forward (fields in declaration order, and
the order of the layers) and the checkpoint bytes.  The tape size of step 2
is recorded as the plain node count.

    python3 tools/fingerprint.py --out FP.json [--root DIR]
    python3 tools/fingerprint.py --compare A.json B.json

`--root` is the checkout whose `src/spikestag` is imported (default: the
repository this script lives in), so a second checkout can be fingerprinted
with the same script.  `--out` also records an `_env` entry: the numpy
version and the BLAS name and version.  Some bits rest on the BLAS: the
LSTM forms its gates as W^T h^T, which matches the h W of the per-frame
reference only if the BLAS sums each entry in the same order for both
layouts.  `--compare` prints both `_env` entries, and a warning line when
they differ; then every field whose value differs or that only one file
has, as `case: field: A -> B` (digests shortened to 12 characters, a
missing field as None), and exits 1 if there is any.  `_env` is not counted
as a field.  Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SYNTH_STEPS = 1000
ENV_KEY = "_env"
SEEDS = (1, 2)
ABLATIONS = ("W1", "W2", "W3", "W4")
# name -> (ModelConfig overrides, whether the batch comes from the test split)
CONFIGS = {
    "train-n8": ({}, False),
    "infer-ts8": ({"ts": 8}, True),
    "train-n32": ({"n_nodes": 32, "t_in": 24, "batch_size": 4, "lam": 24.0}, False),
}


def digest(arr) -> str:
    arr = np.ascontiguousarray(np.asarray(arr))
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def fingerprint_case(name: str, seed: int, ablation: str, tmp: Path) -> dict:
    from spikestag import autograd as ag
    from spikestag import checkpoint
    from spikestag.data import make_windows, synth_generate
    from spikestag.energy import OpCounter
    from spikestag.model import Adam, ForecastModel, ModelConfig, clip_grad_norm, mse_loss

    overrides, from_test = CONFIGS[name]
    cfg = ModelConfig(**{**overrides, "seed": seed, "ablation": ablation})
    windows = make_windows(synth_generate(cfg.n_nodes, SYNTH_STEPS, seed), cfg.t_in,
                           cfg.horizon, stride=cfg.stride)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    starts = windows.test_starts if from_test else windows.train_starts
    batch = windows.batch(starts[:cfg.batch_size])
    out = {}

    counter = OpCounter()
    with ag.no_grad():
        out["pred.counted"] = digest(model.forward(batch, counter=counter).data)
    layers = counter.counts.layers
    out["count.layers"] = digest(np.array(list(layers), dtype=str))
    for layer, lc in layers.items():
        out[f"count.{layer}"] = digest(
            [getattr(lc, f.name) for f in dataclasses.fields(lc)])

    params = model.parameters()
    pred = model.forward(batch)
    loss = mse_loss(pred, batch.normalized_targets())
    model.zero_grad()
    ag.backward(loss)
    out["pred.taped"] = digest(pred.data)
    out["loss"] = digest(loss.data)
    out["tape.nodes"] = len(ag._topo_order(loss))
    for pname, p in params.items():
        out[f"grad.{pname}"] = digest(p.grad if p.grad is not None else np.zeros(0))
    out["clip_norm"] = digest(clip_grad_norm(params, 1.0))
    Adam(params, lr=cfg.lr).step()
    with ag.no_grad():
        out["pred.stepped"] = digest(model.forward(batch).data)

    path = tmp / f"{name}-{ablation}-{seed}.stag"
    checkpoint.save_model(path, model)
    out["checkpoint"] = digest(np.frombuffer(path.read_bytes(), dtype=np.uint8))
    with ag.no_grad():
        out["pred.reloaded"] = digest(checkpoint.load_model(path).forward(batch).data)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas_name": blas["name"],
            "blas_version": blas["version"]}


def run(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import spikestag
    print(f"fingerprinting {Path(spikestag.__file__).parent}", file=sys.stderr)
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            for ablation in ABLATIONS:
                for seed in SEEDS:
                    key = f"{name}/{ablation}/seed{seed}"
                    result[key] = fingerprint_case(name, seed, ablation, Path(tmp))
                    print(f"{key}: {len(result[key])} fields", file=sys.stderr)
    return result


def compare(a_path: str, b_path: str) -> int:
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    env_a, env_b = a.pop(ENV_KEY, None), b.pop(ENV_KEY, None)
    print(f"A {ENV_KEY}: {env_a}")
    print(f"B {ENV_KEY}: {env_b}")
    if env_a != env_b:
        print(f"warning: {ENV_KEY} differs, so bits that rest on the BLAS may differ too")
    show = lambda v: v[:12] if isinstance(v, str) else v
    differing = []
    for case in sorted(set(a) | set(b)):
        fa, fb = a.get(case, {}), b.get(case, {})
        for field in sorted(set(fa) | set(fb)):
            va, vb = fa.get(field), fb.get(field)
            if va != vb:
                differing.append(f"{case}: {field}: {show(va)} -> {show(vb)}")
    total = sum(len(fields) for fields in a.values())
    for line in differing:
        print(line)
    print(f"{len(differing)} differing fields ({len(a)} vs {len(b)} cases, {total} fields)")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the fingerprint JSON here")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/spikestag is fingerprinted")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two fingerprint files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("--out is required unless --compare is given")
    result = {ENV_KEY: environment(), **run(Path(args.root))}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
