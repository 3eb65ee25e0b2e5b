"""Binary container for named float32 tensors with a key-value text header.

Layout: magic, little-endian u32 header length, UTF-8 ``key=value`` lines,
u32 tensor count, then one record per tensor (u16 name length, name, u8 rank,
u32 dims, row-major float32 little-endian payload). Tensors are written in
sorted name order so identical contents produce identical bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import MalformedInput

_MAGIC = b"MLCKPT01"


def save_container(path, header: dict, tensors: dict) -> None:
    header_text = "".join(f"{k}={header[k]}\n" for k in sorted(header))
    header_bytes = header_text.encode("utf-8")
    with open(path, "wb") as f:
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
        if f.read(len(_MAGIC)) != _MAGIC:
            raise MalformedInput(f"{path} is not a checkpoint container")
        (header_len,) = struct.unpack("<I", f.read(4))
        header = {}
        for line in f.read(header_len).decode("utf-8").splitlines():
            key, _, value = line.partition("=")
            header[key] = value
        (n_tensors,) = struct.unpack("<I", f.read(4))
        tensors = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<H", f.read(2))
            name = f.read(name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", f.read(1))
            dims = struct.unpack(f"<{rank}I", f.read(4 * rank))
            count = int(np.prod(dims)) if rank else 1
            payload = f.read(4 * count)
            if len(payload) != 4 * count:
                raise MalformedInput(f"truncated tensor payload for {name}")
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    return header, tensors
