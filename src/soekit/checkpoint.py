"""Named-array checkpoint file.

Layout (all integers little-endian):
  magic "SOEK" | u32 version | u32 array count
  per array: u16 name length | UTF-8 name | u8 dtype code (0 = f32)
             | u8 ndim | u32 dims[ndim] | payload
  trailer:   u32 length | UTF-8 JSON config blob

Arrays are written in insertion order and the JSON blob canonically
(sorted keys, compact separators), so save -> load -> save is byte-identical.

Writes are atomic: the file is written to `<name>.tmp` and moved over the
target with `os.replace`, so a failed save leaves any earlier file intact.
A save refuses a non-float32 array or one holding NaN or inf, and names it.
Reads are strict: a truncated or corrupt file, or a config blob that is not
a JSON object, raises a `CheckpointError` naming it, and `restore` copies
arrays into same-named Tensors only if the names match exactly and every
shape agrees.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SOEK"
VERSION = 1
DTYPE_F32 = 0


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, arrays: dict, config: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if arr.dtype != np.float32:
            raise CheckpointError(f"{path}: array {name!r} must be float32, got {arr.dtype}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {name!r} has non-finite values")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"{path}: array name too long: {name[:40]}...")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", DTYPE_F32, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f4").tobytes())
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks.append(struct.pack("<I", len(blob)))
    chunks.append(blob)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(b"".join(chunks))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_checkpoint(path):
    """Returns (arrays: dict[str, float32 ndarray], config: dict)."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r} (expected {MAGIC!r})")
    try:
        version, count = struct.unpack_from("<II", raw, 4)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        off = 12
        arrays = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off : off + name_len].decode("utf-8")
            off += name_len
            dtype_code, ndim = struct.unpack_from("<BB", raw, off)
            off += 2
            if dtype_code != DTYPE_F32:
                raise CheckpointError(f"{path}: array {name!r} has unknown dtype code {dtype_code}")
            dims = struct.unpack_from(f"<{ndim}I", raw, off)
            off += 4 * ndim
            n = int(np.prod(dims)) if ndim else 1
            arr = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(dims)
            off += 4 * n
            arrays[name] = arr.copy()  # writable, C-order, 0-d preserved
        (blob_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        config = json.loads(raw[off : off + blob_len].decode("utf-8"))
    except CheckpointError:
        raise
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint ({e})") from None
    if off + blob_len != len(raw):
        raise CheckpointError(f"{path}: trailing garbage after config blob")
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config blob must be a JSON object, got {type(config).__name__}")
    return arrays, config


def restore(path, params: dict, arrays: dict):
    """Rebind each same-named Tensor of `params` to its loaded array.

    Every Tensor needs an array of its shape and every array a Tensor; the
    first mismatch raises a CheckpointError naming `path` and the array, and
    no Tensor is touched.
    """
    for name, p in params.items():
        if name not in arrays:
            raise CheckpointError(f"{path}: missing array {name!r}")
        if arrays[name].shape != p.shape:
            raise CheckpointError(f"{path}: array {name!r} has shape {arrays[name].shape}, expected {p.shape}")
    for name in arrays:
        if name not in params:
            raise CheckpointError(f"{path}: unexpected array {name!r}")
    for name, p in params.items():
        p.data = arrays[name]
