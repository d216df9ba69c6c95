"""Versioned binary checkpoint container.

Layout (integers little-endian):
    magic   b"MPSL"
    u32     format version
    u32     config JSON length, then that many UTF-8 bytes
    32 B    sha256 of the config JSON bytes
    u32     epoch
    u32     RNG state JSON length, then that many UTF-8 bytes
    u32     entry count, then per entry:
                u32 name length, name bytes,
                u32 ndim, u64 x ndim dims,
                float64 x prod(dims) payload

Float payloads are raw IEEE-754 bytes, so a save/load round trip is
bit-exact. load_checkpoint reads the open file field by field, each payload
straight into its own array (its one copy), and checks every length against
the bytes left before it reads or allocates. atomic_write is the one file
write of every command's outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"MPSL"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config_json: str
    epoch: int
    rng_state: dict
    entries: dict[str, np.ndarray]

    @property
    def config(self) -> dict:
        return json.loads(self.config_json)


def config_hash_bytes(config_json: str) -> bytes:
    return hashlib.sha256(config_json.encode("utf-8")).digest()


def atomic_write(path, data: bytes) -> None:
    """Write data to a temp file beside path, then rename it over path, so
    readers see the old file or the whole new one, never a partial one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, config_json: str, epoch: int, rng_state: dict,
                    entries: dict[str, np.ndarray]) -> None:
    """Assembled in memory, then written with atomic_write."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    cfg = config_json.encode("utf-8")
    blob += struct.pack("<I", len(cfg)) + cfg
    blob += config_hash_bytes(config_json)
    blob += struct.pack("<I", epoch)
    rng_blob = json.dumps(rng_state, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(rng_blob)) + rng_blob
    blob += struct.pack("<I", len(entries))
    for name in sorted(entries):
        arr = np.asarray(entries[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded)) + encoded
        # shape taken before ascontiguousarray, which promotes 0-d to (1,)
        blob += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<Q", dim)
        blob += np.ascontiguousarray(arr).astype("<f8", copy=False).tobytes()
    atomic_write(path, blob)


class _Reader:
    def __init__(self, f, path):
        self.f, self.path = f, path
        self.left = os.fstat(f.fileno()).st_size

    def claim(self, n: int) -> int:
        if n > self.left:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.left -= n
        return n

    def take(self, n: int) -> bytes:
        return self.f.read(self.claim(n))

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def floats(self, dims: tuple) -> np.ndarray:
        self.claim(8 * math.prod(dims))  # before np.empty allocates
        out = np.empty(dims, dtype="<f8")
        if self.f.readinto(out) != out.nbytes:  # the file shrank since it was opened
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        return out


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with open(path, "rb") as f:
            r = _Reader(f, path)
            if r.take(4) != MAGIC:
                raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
            version = r.u32()
            if version != FORMAT_VERSION:
                raise CheckpointError(f"{path}: unsupported format version {version}")
            config_json = r.take(r.u32()).decode("utf-8")
            if r.take(32) != config_hash_bytes(config_json):
                raise CheckpointError(f"{path}: config hash mismatch")
            epoch = r.u32()
            rng_state = json.loads(r.take(r.u32()).decode("utf-8"))
            entries: dict[str, np.ndarray] = {}
            for _ in range(r.u32()):
                name = r.take(r.u32()).decode("utf-8")
                ndim = r.u32()
                entries[name] = r.floats(struct.unpack(f"<{ndim}Q", r.take(8 * ndim)))
    except OSError as err:  # a directory, or a failing read
        raise CheckpointError(f"{path}: cannot read checkpoint: {err.strerror}") from err
    return Checkpoint(config_json, epoch, rng_state, entries)
