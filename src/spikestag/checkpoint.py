"""Bit-exact checkpoint format.

Format v2, the one `save_model` writes (integers little-endian):

    magic         4 bytes   b"STAG"
    version       u32       2
    header_len    u32       byte length of the header
    header        UTF-8 JSON {"config": {<every ModelConfig field>},
                              "ssa_scale": <finite positive float or null>}
    tensor_count  u32
    tensors       per tensor: name length u16, UTF-8 name, rank u8, dims as
                  u32s, raw float32 values in row-major order

The tensors are the node embeddings `emb/e`, then the model parameters, then
`norm/mean` and `norm/std` when the model carries normalization statistics.
The header is `dataclasses.asdict(config)`, so config ints and floats
round-trip exactly.

The LSTM weights are `lstm/wx`, `lstm/wh` and `lstm/b`, fused in gate order
(i, f, g, o).  Older files, v1 and v2 alike, store them per gate, as
`lstm/w_x{i,f,g,o}`, `lstm/w_h{i,f,g,o}` and `lstm/b_{i,f,g,o}`; the load
joins those into the fused tensors, bit for bit.

Format v1 is still read.  It has the same magic, version 1, then the tensor
records directly; the config rode along as one-element float32 tensors
`config/<field>` (ablation as its 1-based index into ABLATIONS,
minute_covariate as 0/1) and the attention gain as `calib/ssa_scale`.  Its
config ints above 2**24 and most of its floats come back rounded to float32.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np

from .errors import CheckpointFormatError, ContractError
from .model import ABLATIONS, ForecastModel, ModelConfig

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


def _valid_scale(scale) -> bool:
    """An attention gain is unset (None) or a finite positive float: a NaN,
    infinite, zero or negative one makes every prediction non-finite or
    flips the attention branch."""
    return scale is None or (type(scale) is float and math.isfinite(scale) and scale > 0)


def save_model(path, model: ForecastModel) -> None:
    """Write `model` in format v2; ContractError for an `ssa_scale` that is
    set but not a finite positive float."""
    if not _valid_scale(model.ssa_scale):
        raise ContractError(f"save_model: ssa_scale must be unset or finite and positive, "
                            f"got {model.ssa_scale!r}")
    header = json.dumps({"config": asdict(model.config), "ssa_scale": model.ssa_scale},
                        allow_nan=False)
    tensors = {"emb/e": model.embeddings}
    tensors.update((name, p.data) for name, p in model.parameters().items())
    if model.norm_mean is not None:
        tensors["norm/mean"] = model.norm_mean
        tensors["norm/std"] = model.norm_std
    encoded = header.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(encoded)) + encoded)
        _write_records(fh, tensors)


def _config_from_header(header) -> tuple:
    """(ModelConfig, ssa_scale) from a v2 header; keys and value types must match."""
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
    values = header.get("config") if isinstance(header, dict) else None
    if (not isinstance(values, dict) or values.keys() != kinds.keys()
            or header.keys() != {"config", "ssa_scale"}):
        raise CheckpointFormatError(
            "header must hold 'ssa_scale' and a 'config' of exactly the ModelConfig fields")
    for name, kind in kinds.items():
        v = values[name]
        if type(v) is not kind and not (kind is float and type(v) is int):
            raise CheckpointFormatError(f"header config field {name} must be {kind.__name__}, "
                                        f"got {v!r}")
    scale = header["ssa_scale"]
    if not _valid_scale(scale):
        raise CheckpointFormatError(
            f"header ssa_scale must be null or a finite positive float, got {scale!r}")
    return ModelConfig(**values), scale


def _config_from_v1(tensors: dict) -> tuple:
    """(ModelConfig, ssa_scale) from the `config/*` and `calib/*` tensors of v1."""
    values = {}
    for f in fields(ModelConfig):
        key = f"config/{f.name}"
        if key not in tensors:
            raise CheckpointFormatError(f"missing config tensor '{key}'")
        v, kind = tensors[key][0], type(f.default)
        if kind is str:  # the one string field, ablation, was stored as its index
            values[f.name] = ABLATIONS[int(v) - 1]
        elif kind is bool:
            values[f.name] = bool(v > 0.5)
        else:
            values[f.name] = kind(v)
    scale = tensors.get("calib/ssa_scale")
    scale = None if scale is None else float(scale[0])
    if not _valid_scale(scale):
        raise CheckpointFormatError(f"calib/ssa_scale must be finite and positive, got {scale!r}")
    return ModelConfig(**values), scale


def _parse(blob: bytes) -> tuple:
    """(ModelConfig, ssa_scale, tensors) from a v1 or v2 checkpoint."""
    (version,) = struct.unpack_from("<I", blob, 4)
    if version == 1:
        tensors = _read_records(blob, 8)
        return (*_config_from_v1(tensors), tensors)
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported format version {version}")
    (header_len,) = struct.unpack_from("<I", blob, 8)
    end = 12 + header_len
    config, scale = _config_from_header(json.loads(blob[12:end].decode("utf-8")))
    return config, scale, _read_records(blob, end)


# the per-gate LSTM tensors of older files, in the fused tensors' column order
_GATE_TENSORS = {f"lstm/{fused}": [f"lstm/{part}{gate}" for gate in "ifgo"]
                 for fused, part in (("wx", "w_x"), ("wh", "w_h"), ("b", "b_"))}


def _tensor(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    if name not in tensors:
        raise CheckpointFormatError(f"missing tensor '{name}'")
    if tuple(tensors[name].shape) != tuple(shape):
        raise CheckpointFormatError(
            f"tensor '{name}' has shape {tensors[name].shape}, expected {shape}")
    return tensors[name].astype(np.float32)


def load_model(path) -> ForecastModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointFormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    try:
        config, ssa_scale, tensors = _parse(blob)
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
    if ssa_scale is not None:
        model.ssa_scale = ssa_scale
    if "norm/mean" in tensors or "norm/std" in tensors:
        model.set_norm_stats(*(_tensor(tensors, f"norm/{stat}", (config.n_nodes,))
                               for stat in ("mean", "std")))
    return model
