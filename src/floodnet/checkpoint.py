"""Binary checkpoint format for parameter stores.

Layout (little endian throughout):
  magic "XFLD" | version u8 | count u32 | count entries
each entry:
  name_len u16 | name utf-8 | rank u8 | rank extents as u64 | data f64
Trainable values are stored under their names; running-statistic buffers
under a "buffer." prefix. Optimizer moments are not persisted.  Version 2
names the fused attention and LSTM weights (`{prefix}.wq`, `{prefix}.w`);
a version-1 file, which named each head and gate apart, is refused.

Both directions stream, entry by entry: `save_checkpoint` writes each
array from its own memory, and `load_checkpoint` reads each value into
its own new array, so neither holds the file, or a copy of an array.
"""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np

from .params import ParamStore

MAGIC = b"XFLD"
VERSION = 2
BUFFER_PREFIX = "buffer."


class CheckpointError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


def _entry_header(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    return struct.pack(f"<H{len(nb)}sB{arr.ndim}Q", len(nb), nb, arr.ndim, *arr.shape)


def save_checkpoint(path: str, store: ParamStore) -> int:
    """Writes all parameter values and buffers; returns the byte size.
    Each entry's header and then its array's own memory go to the file in
    turn, so the save copies no contiguous float64 array, which every
    store value is."""
    items = [(n, store.entries[n].value) for n in sorted(store.entries)]
    items += [(BUFFER_PREFIX + n, store.buffers[n]) for n in sorted(store.buffers)]
    with open(path, "wb") as f:
        size = f.write(MAGIC + struct.pack("<BI", VERSION, len(items)))
        for name, arr in items:
            size += f.write(_entry_header(name, arr))
            size += f.write(np.ascontiguousarray(arr, dtype="<f8"))
    return size


def load_checkpoint(path: str) -> ParamStore:
    """Parses a checkpoint into a fresh store, which holds no gradients or
    moments (see `ParamEntry`).  The file is read entry by entry, each
    value straight into its own new array, so the load holds no copy of
    the file.  A regular file's size bounds each entry's extents before
    its array is made; a pipe, such as `/dev/stdin` or a process
    substitution, has no size to check against, and a field it ends
    inside is refused once read short."""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        size = st.st_size if stat.S_ISREG(st.st_mode) else None
        off = 0

        def take(n: int, what: str) -> bytes:
            """The next n bytes, or CheckpointError(off, what) past the end."""
            nonlocal off
            b = f.read(n)
            if len(b) < n:
                raise CheckpointError(off, what)
            off += n
            return b

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
            # checked before allocating: the extents may claim more than the file holds
            if size is not None and off + 8 * math.prod(shape) > size:
                raise CheckpointError(off, "truncated data")
            arr = np.empty(shape, dtype="<f8")
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointError(off, "truncated data")
            if not np.isfinite(arr).all():
                raise CheckpointError(off, f"{name!r} holds a non-finite value")
            off += arr.nbytes
            try:
                if name.startswith(BUFFER_PREFIX):
                    store.add_buffer(name[len(BUFFER_PREFIX) :], arr)
                else:
                    store.put(name, arr)
            except KeyError as e:  # the name came earlier in the file
                raise CheckpointError(name_off, e.args[0]) from None
        if f.read(1):
            raise CheckpointError(off, "trailing bytes after last entry")
        return store
