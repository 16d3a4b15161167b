"""Bit-exact checkpoint format.

Format v2, the one `save_model` writes (integers little-endian):

    magic         4 bytes   b"STAG"
    version       u32       2
    header_len    u32       byte length of the header
    header        UTF-8 JSON {"config": {<every ModelConfig field>}}
    tensor_count  u32
    tensors       per tensor: name length u16, UTF-8 name, rank u8, dims as
                  u32s, raw float32 values in row-major order

The tensors are the node embeddings `emb/e`, then the model parameters, then
`norm/mean` and `norm/std` when the model carries normalization statistics.
The header is `dataclasses.asdict(config)`, so config ints and floats
round-trip exactly.  A load reads every record or refuses the file: a record
the config does not name, a missing or misshaped one, or a non-finite value
is a `CheckpointFormatError`.

The LSTM weights are `lstm/wx`, `lstm/wh` and `lstm/b`, fused in gate order
(i, f, g, o).  Older files, v1 and v2 alike, store them per gate, as
`lstm/w_x{i,f,g,o}`, `lstm/w_h{i,f,g,o}` and `lstm/b_{i,f,g,o}`; the load
joins those into the fused tensors, bit for bit.

The attention gain of W2-W4 is the parameter `ssa/gain`.  Older v2 files
have no such record; their header holds `"ssa_scale"`, a finite positive
float or null, which the load takes as the gain's value (null: the initial
gain).  W1 has no gain and ignores it.  A file with both is refused.

Format v1 is still read.  It has the same magic, version 1, then the tensor
records directly; the config rode along as one-element float32 tensors
`config/<field>` (ablation as its 1-based index into ABLATIONS,
minute_covariate as 0/1) and the attention gain as `calib/ssa_scale`, read
like an older v2 header's `ssa_scale` (absent: null).  Its config ints above
2**24 and most of its floats come back rounded to float32.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np

from .errors import CheckpointFormatError
from .model import ABLATIONS, SSA_GAIN_INIT, ForecastModel, ModelConfig

MAGIC = b"STAG"
VERSION = 2


def _write_records(fh, tensors: dict) -> None:
    fh.write(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<B", data.ndim))
        for d in data.shape:
            fh.write(struct.pack("<I", d))
        fh.write(data.tobytes(order="C"))


def _read_records(blob: bytes, off: int) -> dict:
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    tensors = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off:off + nlen].decode("utf-8")
        off += nlen
        (rank,) = struct.unpack_from("<B", blob, off)
        off += 1
        dims = struct.unpack_from(f"<{rank}I", blob, off) if rank else ()
        off += 4 * rank
        n = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(dims)
        off += 4 * n
        tensors[name] = arr.copy()
    return tensors


def save_model(path, model: ForecastModel) -> None:
    """Write `model` in format v2."""
    header = json.dumps({"config": asdict(model.config)}, allow_nan=False)
    tensors = {"emb/e": model.embeddings}
    tensors.update((name, p.data) for name, p in model.parameters().items())
    if model.norm_mean is not None:
        tensors["norm/mean"] = model.norm_mean
        tensors["norm/std"] = model.norm_std
    encoded = header.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(encoded)) + encoded)
        _write_records(fh, tensors)


def _config_from_header(header) -> ModelConfig:
    """ModelConfig from a v2 header; keys and value types must match."""
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
    values = header.get("config") if isinstance(header, dict) else None
    if (not isinstance(values, dict) or values.keys() != kinds.keys()
            or not header.keys() <= {"config", "ssa_scale"}):
        raise CheckpointFormatError(
            "header must hold a 'config' of exactly the ModelConfig fields and, in older "
            "files, an 'ssa_scale'")
    for name, kind in kinds.items():
        v = values[name]
        if type(v) is not kind and not (kind is float and type(v) is int):
            raise CheckpointFormatError(f"header config field {name} must be {kind.__name__}, "
                                        f"got {v!r}")
    return ModelConfig(**values)


def _config_from_v1(tensors: dict) -> ModelConfig:
    """ModelConfig from the `config/*` tensors of v1, which it takes out of `tensors`."""
    values = {}
    for f in fields(ModelConfig):
        key = f"config/{f.name}"
        if key not in tensors:
            raise CheckpointFormatError(f"missing config tensor '{key}'")
        v, kind = tensors.pop(key)[0], type(f.default)
        if kind is str:  # the one string field, ablation, was stored as its index
            values[f.name] = ABLATIONS[int(v) - 1]
        elif kind is bool:
            values[f.name] = bool(v > 0.5)
        else:
            values[f.name] = kind(v)
    return ModelConfig(**values)


def _legacy_gain(tensors: dict, config: ModelConfig, scale, where: str) -> None:
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


def _parse(blob: bytes) -> tuple:
    """(ModelConfig, tensors) from a v1 or v2 checkpoint."""
    (version,) = struct.unpack_from("<I", blob, 4)
    if version == 1:
        tensors = _read_records(blob, 8)
        config = _config_from_v1(tensors)
        scale = tensors.pop("calib/ssa_scale", None)
        _legacy_gain(tensors, config, None if scale is None else float(scale[0]),
                     "calib/ssa_scale")
        return config, tensors
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported format version {version}")
    (header_len,) = struct.unpack_from("<I", blob, 8)
    end = 12 + header_len
    header = json.loads(blob[12:end].decode("utf-8"))
    config = _config_from_header(header)
    tensors = _read_records(blob, end)
    if "ssa_scale" in header:
        _legacy_gain(tensors, config, header["ssa_scale"], "header ssa_scale")
    return config, tensors


# the per-gate LSTM tensors of older files, in the fused tensors' column order
_GATE_TENSORS = {f"lstm/{fused}": [f"lstm/{part}{gate}" for gate in "ifgo"]
                 for fused, part in (("wx", "w_x"), ("wh", "w_h"), ("b", "b_"))}


def _tensor(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    """Take the record `name` out of `tensors`; it must have `shape` and finite values."""
    if name not in tensors:
        raise CheckpointFormatError(f"missing tensor '{name}'")
    arr = tensors.pop(name)
    if tuple(arr.shape) != tuple(shape):
        raise CheckpointFormatError(f"tensor '{name}' has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise CheckpointFormatError(f"tensor '{name}' holds a non-finite value")
    return arr.astype(np.float32)


def load_model(path) -> ForecastModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointFormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    try:
        config, tensors = _parse(blob)
        config.validate()
    except CheckpointFormatError:
        raise
    except (struct.error, ValueError, IndexError) as exc:
        raise CheckpointFormatError(f"truncated or corrupt checkpoint: {exc}") from exc
    model = ForecastModel(
        config, embeddings=_tensor(tensors, "emb/e", (config.n_nodes, config.emb_dim)))
    for name, p in model.parameters().items():
        gates = _GATE_TENSORS.get(name)
        if gates and gates[0] in tensors:
            shape = p.data.shape[:-1] + (p.data.shape[-1] // 4,)
            p.data = np.concatenate([_tensor(tensors, g, shape) for g in gates], axis=-1)
        else:
            p.data = _tensor(tensors, name, p.data.shape)
    if "norm/mean" in tensors or "norm/std" in tensors:
        model.set_norm_stats(*(_tensor(tensors, f"norm/{stat}", (config.n_nodes,))
                               for stat in ("mean", "std")))
    if tensors:
        raise CheckpointFormatError(f"records the config does not read: {', '.join(tensors)}")
    return model
