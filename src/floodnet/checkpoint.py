"""Binary checkpoint format for parameter stores.

Layout (little endian throughout):
  magic "XFLD" | version u8 | count u32 | count entries
each entry:
  name_len u16 | name utf-8 | rank u8 | rank extents as u64 | data f64
Trainable values are stored under their names; running-statistic buffers
under a "buffer." prefix. Optimizer moments are not persisted.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .params import ParamStore

MAGIC = b"XFLD"
VERSION = 1
BUFFER_PREFIX = "buffer."


class CheckpointError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


def _pack_entry(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    out = struct.pack("<H", len(nb)) + nb + struct.pack("<B", arr.ndim)
    out += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return out + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(path: str, store: ParamStore) -> int:
    """Writes all parameter values and buffers; returns the byte size."""
    items = [(n, store.entries[n].value) for n in sorted(store.entries)]
    items += [(BUFFER_PREFIX + n, store.buffers[n]) for n in sorted(store.buffers)]
    # one join: growing the blob by += would copy it once per entry
    blob = b"".join([MAGIC, struct.pack("<BI", VERSION, len(items))]
                    + [_pack_entry(name, arr) for name, arr in items])
    with open(path, "wb") as f:
        f.write(blob)
    return len(blob)


def load_checkpoint(path: str) -> ParamStore:
    """Parses a checkpoint into a fresh store (zeroed grads and moments)."""
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(n: int, what: str) -> bytes:
        """The next n bytes, or CheckpointError(off, what) past the end."""
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(off, what)
        off += n
        return blob[off - n : off]

    header = take(9, "file shorter than header")
    if header[:4] != MAGIC:
        raise CheckpointError(0, f"bad magic {header[:4]!r}")
    version, count = struct.unpack_from("<BI", header, 4)
    if version != VERSION:
        raise CheckpointError(4, f"unsupported version {version}")
    store = ParamStore(seed=0)
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "truncated name length"))
        name_off = off
        try:
            name = take(name_len, "truncated name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(name_off, "name is not valid utf-8") from None
        rank = take(1, "truncated rank")[0]
        if rank > 4:
            raise CheckpointError(off - 1, f"rank {rank} exceeds 4")
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, "truncated extents"))
        arr = np.frombuffer(take(8 * math.prod(shape), "truncated data"), dtype="<f8")
        if not np.isfinite(arr).all():
            raise CheckpointError(off - 8 * arr.size, f"{name!r} holds a non-finite value")
        arr = arr.reshape(shape).copy()
        try:
            if name.startswith(BUFFER_PREFIX):
                store.add_buffer(name[len(BUFFER_PREFIX) :], arr)
            else:
                store.add(name, shape, init="zeros")
                store.entries[name].value = arr
        except KeyError as e:  # the name came earlier in the file
            raise CheckpointError(name_off, e.args[0]) from None
    if off != len(blob):
        raise CheckpointError(off, "trailing bytes after last entry")
    return store
