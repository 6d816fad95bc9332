"""Binary named-tensor container for checkpoints.

Layout (little-endian):
  magic "CRUT1\\n" | u32 tensor count | per tensor:
  u16 name length | name (utf-8) | u8 rank | u32 per dim | float64 data.
Insertion order is preserved on round trip.

The bytes move straight between the file and the arrays. A load holds the
arrays it returns, one boolean temporary the size of the tensor being checked
for non-finite entries, and the file's read buffer: each tensor is allocated
once, at its stored shape, and read into in place. A save writes each float64
C-contiguous array from its own memory, so it holds only the file's write
buffer; an array of another dtype or layout is converted once, as it is
written.
"""

from __future__ import annotations

import math
import os
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
            fh.write(struct.pack(f"<H{len(encoded)}sB{data.ndim}I", len(encoded), encoded,
                                 data.ndim, *data.shape))
            fh.write(data)  # the array's own buffer, not a tobytes() copy


def load_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise ParseError(f"{path}: not a checkpoint file (bad magic)")
        at = len(MAGIC)

        def claim(nbytes: int) -> None:
            # Every length is checked against the file's size before anything
            # of that length is read or allocated.
            nonlocal at
            if at + nbytes > size:
                raise ParseError(f"{path}: truncated checkpoint")
            at += nbytes

        def take(nbytes: int) -> bytes:
            claim(nbytes)
            data = fh.read(nbytes)
            if len(data) != nbytes:
                raise ParseError(f"{path}: truncated checkpoint")
            return data

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        (count,) = unpack("<I")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = unpack("<H")
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}: tensor name is not valid UTF-8") from None
            if name in out:
                raise ParseError(f"{path}: tensor {name} appears more than once")
            (rank,) = unpack("<B")
            if rank > _MAX_NUMPY_RANK:
                raise ParseError(f"{path}: tensor {name} has rank {rank}, above numpy's "
                                 f"{_MAX_NUMPY_RANK}")
            shape = unpack(f"<{rank}I")
            nbytes = math.prod(shape) * 8  # Python ints, so huge dims cannot wrap negative
            claim(nbytes)
            try:
                arr = np.empty(shape, dtype="<f8")
            except ValueError:
                # Zero elements, but the other dims multiply past what numpy
                # can index ("array is too big").
                raise ParseError(f"{path}: tensor {name} has shape {shape}, too large for "
                                 f"a numpy array") from None
            if fh.readinto(arr) != nbytes:
                raise ParseError(f"{path}: truncated checkpoint")
            if not np.all(np.isfinite(arr)):
                raise ParseError(f"{path}: tensor {name} holds non-finite entries")
            out[name] = arr
    if at != size:
        raise ParseError(f"{path}: {size - at} trailing bytes after last tensor")
    return out
