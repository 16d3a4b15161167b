"""Rewrite a checkpoint of an older layout as a current one.

    python3 tools/upgrade_checkpoint.py OLD NEW

`spikestag.checkpoint.load_model` reads only format v2 with a header of
exactly `{"config": ...}`.  This script reads the two older layouts it
refuses:

- format v1: the same magic, version 1, then the tensor records directly.
  The config rode along as one-element float32 tensors `config/<field>`
  (ablation as its 1-based index into ABLATIONS, minute_covariate as 0/1)
  and the attention gain as `calib/ssa_scale`.  Its config ints above 2**24
  and most of its floats come back rounded to float32.
- format v2 whose header holds `"ssa_scale"` beside `"config"`, as every v2
  writer before the learnable attention gain wrote it.

A v1 config value that is not what its field claims is refused: an
ablation index outside 1-4, a non-whole value in an int field, a bool
other than 0 or 1.

Both store the attention gain of W2-W4 as that `ssa_scale`: a finite
positive float, or null (in v1: absent) for the initial gain.  W1 has no
gain and ignores it.  A file holding both an `ssa_scale` and an `ssa/gain`
record is refused.  Both may store the LSTM weights per gate, as
`lstm/w_x{i,f,g,o}`, `lstm/w_h{i,f,g,o}` and `lstm/b_{i,f,g,o}`; the
upgrade joins them into the fused `lstm/wx`, `lstm/wh` and `lstm/b`, bit for
bit.

The upgrade only turns the old records into current ones; it then builds
the model with the checks `load_model` makes and writes it with
`save_model`.  So NEW is byte-identical to a save of the same model, and
every record is read or the file is refused.  Exit status 0 once NEW is
written; 2, with one `error: ...` line on stderr and no NEW written, when
OLD is missing, truncated or corrupt, or already in the current layout.
"""

from __future__ import annotations

import argparse
import math
import struct
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script: read with the package of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spikestag.checkpoint import (MAGIC, _build, _config_from_header,  # noqa: E402
                                  _format_errors, _header, _read_records, _tensor, save_model)
from spikestag.errors import CheckpointFormatError, ContractError  # noqa: E402
from spikestag.model import ABLATIONS, SSA_GAIN_INIT, ModelConfig  # noqa: E402

V1_PREFIX = MAGIC + struct.pack("<I", 1)
# the per-gate LSTM tensors of older files, in the fused tensors' column order
GATE_TENSORS = {f"lstm/{fused}": [f"lstm/{part}{gate}" for gate in "ifgo"]
                for fused, part in (("wx", "w_x"), ("wh", "w_h"), ("b", "b_"))}


def config_from_v1(tensors: dict) -> ModelConfig:
    """ModelConfig from the `config/*` tensors of v1, which it takes out of `tensors`.

    A value must be what its field claims: a whole number for an int field,
    0 or 1 for a bool, and for the ablation its 1-based index into
    ABLATIONS.  Anything else is a CheckpointFormatError naming the record.
    """
    values = {}
    for f in fields(ModelConfig):
        key = f"config/{f.name}"
        if key not in tensors:
            raise CheckpointFormatError(f"missing config tensor '{key}'")
        v, kind = float(tensors.pop(key)[0]), type(f.default)
        if kind is str:  # the one string field, ablation, was stored as its index
            ok, claim = v in range(1, len(ABLATIONS) + 1), f"an ablation index 1-{len(ABLATIONS)}"
        elif kind is bool:
            ok, claim = v in (0, 1), "0 or 1"
        else:
            ok, claim = kind is float or v.is_integer(), "a whole number"
        if not ok:
            raise CheckpointFormatError(f"config tensor '{key}' holds {v}, not {claim}")
        values[f.name] = ABLATIONS[int(v) - 1] if kind is str else kind(v)
    return ModelConfig(**values)


def legacy_gain(tensors: dict, config: ModelConfig, scale, where: str) -> None:
    """Store an older file's attention gain as the `ssa/gain` record W2-W4 read.

    The gain must be null (the initial gain) or a finite positive float: a
    NaN, infinite, zero or negative one makes every prediction non-finite or
    flips the attention branch."""
    if not (scale is None or (type(scale) is float and math.isfinite(scale) and scale > 0)):
        raise CheckpointFormatError(f"{where} must be null or a finite positive float, "
                                    f"got {scale!r}")
    if config.ablation == "W1":
        return
    if "ssa/gain" in tensors:
        raise CheckpointFormatError(f"the file holds both {where} and an 'ssa/gain' record")
    tensors["ssa/gain"] = np.array([SSA_GAIN_INIT if scale is None else scale], np.float32)


def join_gates(tensors: dict) -> None:
    """Join the per-gate LSTM records into the fused ones.  A file that also
    holds a fused record is refused: that record would be left unread."""
    clash = [fused for fused, gates in GATE_TENSORS.items()
             if fused in tensors and gates[0] in tensors]
    if clash:
        raise CheckpointFormatError(f"records the config does not read: {', '.join(clash)}")
    for fused, gates in GATE_TENSORS.items():
        if gates[0] in tensors:
            shape = tensors[gates[0]].shape
            tensors[fused] = np.concatenate([_tensor(tensors, g, shape) for g in gates], axis=-1)


def current_parts(blob: bytes) -> tuple:
    """(ModelConfig, tensors under their current names) of an older-layout file."""
    if blob[:8] == V1_PREFIX:
        tensors = _read_records(blob, 8)
        config = config_from_v1(tensors)
        scale = tensors.pop("calib/ssa_scale", None)
        scale, where = None if scale is None else float(scale[0]), "calib/ssa_scale"
    else:
        header, end = _header(blob)
        if not isinstance(header, dict) or "ssa_scale" not in header:
            raise CheckpointFormatError("the file is not of an older layout: load_model "
                                        "reads it as it is")
        scale, where = header.pop("ssa_scale"), "header ssa_scale"
        config, tensors = _config_from_header(header), _read_records(blob, end)
    legacy_gain(tensors, config, scale, where)
    join_gates(tensors)
    return config, tensors


def upgrade(old, new) -> None:
    """Write the older-layout checkpoint `old` as a current one at `new`."""
    blob = Path(old).read_bytes()
    save_model(new, _build(*_format_errors(current_parts, blob)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="checkpoint of an older layout")
    parser.add_argument("new", help="where to write the current-layout checkpoint")
    args = parser.parse_args(argv)
    try:
        upgrade(args.old, args.new)
    except (CheckpointFormatError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.new}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
