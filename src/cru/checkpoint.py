"""Binary named-tensor container for checkpoints.

Layout (little-endian):
  magic "CRUT1\\n" | u32 tensor count | per tensor:
  u16 name length | name (utf-8) | u8 rank | u32 per dim | float64 data.
Insertion order is preserved on round trip.
"""

from __future__ import annotations

import math
import struct
from typing import Mapping

import numpy as np

from .errors import ParseError

MAGIC = b"CRUT1\n"
# The format stores a rank of up to 255; numpy arrays hold at most 64 axes.
_MAX_NUMPY_RANK = 64


def save_tensors(path, tensors: Mapping[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            # note: ascontiguousarray would promote rank-0 to rank-1 here
            data = np.asarray(arr, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise ParseError(f"{path}: not a checkpoint file (bad magic)")
    at = len(MAGIC)

    def take(fmt: str):
        nonlocal at
        size = struct.calcsize(fmt)
        if at + size > len(blob):
            raise ParseError(f"{path}: truncated checkpoint")
        vals = struct.unpack_from(fmt, blob, at)
        at += size
        return vals

    (count,) = take("<I")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<H")
        if at + name_len > len(blob):
            raise ParseError(f"{path}: truncated checkpoint")
        try:
            name = blob[at:at + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: tensor name is not valid UTF-8") from None
        at += name_len
        if name in out:
            raise ParseError(f"{path}: tensor {name} appears more than once")
        (rank,) = take("<B")
        if rank > _MAX_NUMPY_RANK:
            raise ParseError(f"{path}: tensor {name} has rank {rank}, above numpy's "
                             f"{_MAX_NUMPY_RANK}")
        shape = tuple(take("<I")[0] for _ in range(rank))
        n = math.prod(shape)  # Python ints, so huge dims cannot wrap negative
        nbytes = n * 8
        if at + nbytes > len(blob):
            raise ParseError(f"{path}: truncated checkpoint")
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=at).reshape(shape)
        at += nbytes
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{path}: tensor {name} holds non-finite entries")
        out[name] = arr.astype(np.float64)  # a fresh array, not a view of blob
    if at != len(blob):
        raise ParseError(f"{path}: {len(blob) - at} trailing bytes after last tensor")
    return out
