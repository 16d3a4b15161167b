"""Bit-exact checkpoint format.

Format v2, the one `save_model` writes and the only one `load_model` reads
(integers little-endian):

    magic         4 bytes   b"STAG"
    version       u32       2
    header_len    u32       byte length of the header
    header        UTF-8 JSON {"config": {<every ModelConfig field>}}
    tensor_count  u32
    tensors       per tensor: name length u16, UTF-8 name, rank u8, dims as
                  u32s, raw float32 values in row-major order

The tensors are the node embeddings `emb/e`, then the model parameters in
`ForecastModel.parameters()` order, then `norm/mean` and `norm/std` when the
model carries normalization statistics.  A parameter record is named
`<group>/<field>`: the covariate tables `cov/<name>`, then the fields of the
parameter group dataclasses (`obs`, `mssa`, `lstm`, `ssa`, `gate`) in their
declared order, with the attention readout `ssa/proj` and gain `ssa/gain`
(W2-W4) after the `ssa` fields, and `head/w`, `head/b` last.  The LSTM's
`lstm/wx`, `lstm/wh` and `lstm/b` are fused in gate order i, f, g, o.  The
header is exactly `{"config": dataclasses.asdict(config)}`, so config ints
and floats round-trip exactly.  A load reads every record or refuses the
file: a header config that `ModelConfig` refuses ("invalid config in
checkpoint header: ..."), a record the config does not name, a missing or
misshaped one, a non-finite value, a record name or a header key given
twice, or bytes after the last record is a `CheckpointFormatError`, and a
model whose graph leaves a local sample set empty is a `ContractError`.  A save refuses what the load would, with a
`ContractError`, and writes nothing then.

Files of an older layout are recognised and refused, with a message naming
`tools/upgrade_checkpoint.py`, which rewrites them as format v2: version 1,
and a version-2 header holding an `ssa_scale` key, which every v2 writer
before the learnable attention gain wrote and no current one does.  The
next layout change ships with an upgrade step in that tool, not with a
second reader here.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import CheckpointFormatError, ContractError
from .model import ForecastModel, ModelConfig

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
        if name in tensors:
            raise CheckpointFormatError(f"record '{name}' appears twice")
        (rank,) = struct.unpack_from("<B", blob, off)
        off += 1
        dims = struct.unpack_from(f"<{rank}I", blob, off) if rank else ()
        off += 4 * rank
        n = int(np.prod(dims)) if rank else 1
        # a read-only view of `blob`: the load copies each record it takes once
        tensors[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(dims)
        off += 4 * n
    if off != len(blob):
        raise CheckpointFormatError(f"{len(blob) - off} bytes after the last record")
    return tensors


def save_model(path, model: ForecastModel) -> None:
    """Write `model` in format v2; ContractError, and nothing written, if a
    tensor holds a non-finite value (naming it) or a local sample set is empty.

    The file is written under a temporary name in the same directory and
    then renamed over `path`, so a save that fails partway leaves the file
    that was there as it was.
    """
    model.check_local_sets()
    header = json.dumps({"config": asdict(model.config)}, allow_nan=False)
    tensors = {"emb/e": model.embeddings}
    tensors.update((name, p.data) for name, p in model.parameters().items())
    if model.norm_mean is not None:
        tensors["norm/mean"] = model.norm_mean
        tensors["norm/std"] = model.norm_std
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise ContractError(f"save_model: tensor '{name}' holds a non-finite value")
    encoded = header.encode("utf-8")
    path = Path(path)
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        with open(part, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", VERSION, len(encoded)) + encoded)
            _write_records(fh, tensors)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def _older_layout(what: str) -> CheckpointFormatError:
    return CheckpointFormatError(f"{what} is an older checkpoint layout; rewrite it with "
                                 f"'python3 tools/upgrade_checkpoint.py OLD NEW'")


def _config_from_header(header) -> ModelConfig:
    """ModelConfig from a v2 header, which must name exactly its fields;
    `ModelConfig` checks their values and types, and a value it refuses is
    an invalid config, not a corrupt file."""
    if isinstance(header, dict) and "ssa_scale" in header:
        raise _older_layout("a header holding 'ssa_scale'")
    values = header.get("config") if isinstance(header, dict) else None
    if (not isinstance(values, dict) or values.keys() != {f.name for f in fields(ModelConfig)}
            or header.keys() != {"config"}):
        raise CheckpointFormatError("header must be exactly a 'config' of the ModelConfig fields")
    try:
        return ModelConfig(**values)
    except ContractError as exc:
        raise CheckpointFormatError(f"invalid config in checkpoint header: {exc}") from exc


def _header(blob: bytes) -> tuple:
    """(header, offset of the tensor records) of a v2 file; other versions are refused."""
    if blob[:4] != MAGIC:
        raise CheckpointFormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version == 1:
        raise _older_layout("format v1")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported format version {version}")
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + header_len].decode("utf-8"), object_pairs_hook=_unique_keys)
    return header, 12 + header_len


def _unique_keys(pairs: list) -> dict:
    """A header object from its (key, value) pairs; a key given twice is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CheckpointFormatError(f"header names the key '{key}' twice")
        obj[key] = value
    return obj


def _parse(blob: bytes) -> tuple:
    """(ModelConfig, tensors) of a current checkpoint."""
    header, end = _header(blob)
    return _config_from_header(header), _read_records(blob, end)


def _format_errors(call, *args):
    """`call(*args)`, with what a truncated or corrupt file raises there turned
    into a CheckpointFormatError."""
    try:
        return call(*args)
    except CheckpointFormatError:
        raise
    except (struct.error, ValueError, IndexError) as exc:
        raise CheckpointFormatError(f"truncated or corrupt checkpoint: {exc}") from exc


def _tensor(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    """Take the record `name` out of `tensors`: a float32 copy, if it has `shape`
    and finite values."""
    if name not in tensors:
        raise CheckpointFormatError(f"missing tensor '{name}'")
    arr = tensors.pop(name)
    if tuple(arr.shape) != tuple(shape):
        raise CheckpointFormatError(f"tensor '{name}' has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise CheckpointFormatError(f"tensor '{name}' holds a non-finite value")
    return arr.astype(np.float32)


def _build(config: ModelConfig, tensors: dict) -> ForecastModel:
    """The model of `config` with its records taken from `tensors`, each one read."""
    model = ForecastModel(
        config, embeddings=_tensor(tensors, "emb/e", (config.n_nodes, config.emb_dim)))
    for name, p in model.parameters().items():
        p.data = _tensor(tensors, name, p.data.shape)
    if "norm/mean" in tensors or "norm/std" in tensors:
        model.set_norm_stats(*(_tensor(tensors, f"norm/{stat}", (config.n_nodes,))
                               for stat in ("mean", "std")))
    if tensors:
        raise CheckpointFormatError(f"records the config does not read: {', '.join(tensors)}")
    model.check_local_sets()
    return model


def load_model(path) -> ForecastModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    return _build(*_format_errors(_parse, blob))
