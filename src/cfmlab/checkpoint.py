"""Binary tensor container used for model checkpoints and dataset splits.

Layout: 8-byte magic "CFMLAB01", u32 LE tensor count; per tensor a u32 LE
length-prefixed UTF-8 name, u32 LE rank, one u64 LE per dim, then the
row-major little-endian float64 payload. Entries are written sorted by
name so identical contents give identical bytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .numerics import Tensor

MAGIC = b"CFMLAB01"
_MAX_RANK = 64  # the most dims numpy gives an array

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "MAGIC"]


class CheckpointError(RuntimeError):
    """Malformed or inconsistent checkpoint file."""


def save_checkpoint(path, tensors):
    """Write {name: array-or-Tensor} to `path`. Returns the byte count."""
    blobs = []
    for name in sorted(tensors):
        arr = tensors[name]
        arr = np.asarray(arr.data if isinstance(arr, Tensor) else arr, dtype="<f8")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"refusing to save non-finite tensor {name!r}")
        nb = name.encode("utf-8")
        head = struct.pack("<I", len(nb)) + nb + struct.pack("<I", arr.ndim)
        head += b"".join(struct.pack("<Q", d) for d in arr.shape)
        blobs.append(head + arr.tobytes(order="C"))
    payload = MAGIC + struct.pack("<I", len(blobs)) + b"".join(blobs)
    # write beside the target, then rename over it: a crash mid-write leaves
    # the old file (or none), never a truncated one
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return len(payload)


def _take(buf, offset, n, path):
    if offset + n > len(buf):
        raise CheckpointError(f"truncated checkpoint {path}")
    return buf[offset:offset + n], offset + n


def _element_count(shape, limit, path):
    """Element count of `shape`, multiplied one dim at a time and refused as
    soon as it passes `limit` (the elements left in the file) or, for a
    zero-size tensor, what numpy can shape; a crafted header can neither
    overflow it nor make it slow."""
    empty = 0 in shape
    cap = np.iinfo(np.intp).max // 8 if empty else limit
    n = 1
    for dim in shape:
        n *= dim or 1
        if n > cap:
            raise CheckpointError(
                f"tensor shape {shape} in {path} exceeds the {cap} elements allowed")
    return 0 if empty else n


def load_checkpoint(path):
    """Read a checkpoint back as {name: float64 ndarray}."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc
    raw, off = _take(buf, 0, len(MAGIC), path)
    if raw != MAGIC:
        raise CheckpointError(f"bad magic in {path}: {raw!r}")
    raw, off = _take(buf, off, 4, path)
    (count,) = struct.unpack("<I", raw)
    out = {}
    for _ in range(count):
        raw, off = _take(buf, off, 4, path)
        (name_len,) = struct.unpack("<I", raw)
        raw, off = _take(buf, off, name_len, path)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"bad tensor name in {path}") from exc
        raw, off = _take(buf, off, 4, path)
        (rank,) = struct.unpack("<I", raw)
        if rank > _MAX_RANK:
            raise CheckpointError(f"tensor {name!r} in {path} has rank {rank}, "
                                  f"more than the {_MAX_RANK} dims allowed")
        raw, off = _take(buf, off, 8 * rank, path)
        shape = struct.unpack(f"<{rank}Q", raw) if rank else ()
        n = _element_count(shape, (len(buf) - off) // 8, path)
        raw, off = _take(buf, off, 8 * n, path)
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"non-finite values in tensor {name!r} of {path}")
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r} in {path}")
        out[name] = arr
    if off != len(buf):
        raise CheckpointError(f"trailing bytes in {path}")
    return out
