"""Binary container for named float32 tensors with a key-value text header.

Layout: magic, little-endian u32 header length, UTF-8 ``key=value`` lines,
u32 tensor count, then one record per tensor (u16 name length, name, u8 rank,
u32 dims, row-major float32 little-endian payload). Tensors are written in
sorted name order so identical contents produce identical bytes.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .atomic import atomic_open
from .errors import MalformedInput

_MAGIC = b"MLCKPT01"


def save_container(path, header: dict, tensors: dict) -> None:
    header_text = "".join(f"{k}={header[k]}\n" for k in sorted(header))
    header_bytes = header_text.encode("utf-8")
    with atomic_open(path, binary=True) as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
            name_bytes = name.encode("utf-8")
            f.write(struct.pack("<H", len(name_bytes)))
            f.write(name_bytes)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f4", copy=False).tobytes(order="C"))


def load_container(path) -> tuple[dict, dict]:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int, what: str) -> bytearray:
            # Checked before reading, so a record cannot claim more memory than the file
            # holds. A payload is read once, into the buffer its writable array wraps.
            if n > size - f.tell() or f.readinto(buf := bytearray(n)) != n:
                raise MalformedInput(f"{path}: {what} runs past the end of the file")
            return buf

        def unpack(fmt: str, what: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt), what))

        if f.read(len(_MAGIC)) != _MAGIC:
            raise MalformedInput(f"{path} is not a checkpoint container")
        (header_len,) = unpack("<I", "the header length")
        header = {}
        for line in read(header_len, "the header").decode("utf-8").splitlines():
            key, _, value = line.partition("=")
            header[key] = value
        (n_tensors,) = unpack("<I", "the tensor count")
        tensors = {}
        for _ in range(n_tensors):
            (name_len,) = unpack("<H", "a tensor name length")
            name = read(name_len, "a tensor name").decode("utf-8")
            (rank,) = unpack("<B", f"the rank of {name}")
            dims = unpack(f"<{rank}I", f"the dims of {name}")
            payload = read(4 * math.prod(dims), f"the payload of {name}")  # Python ints: no overflow
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
    return header, tensors
