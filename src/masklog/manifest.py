"""Run manifests: enough recorded state to re-run a command bit-exactly.

A manifest also records how the run went (`warnings`: each distinct warning
the run gave; `runtime`: peak resident memory, the python, numpy and BLAS
versions and the BLAS kernel); `rerun` reads only the command, its options
and its inputs. Artifact bytes are reproducible per (numpy, BLAS kernel): the
kernel decides how a product's sums are blocked, so float32 training and the
last bits of float64 scores can differ between kernels.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time

import numpy as np

from .atomic import write_json
from .errors import DigestMismatch, MalformedInput, MissingInput

TOOL_NAME = "masklog"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_map(paths) -> dict:
    out = {}
    for p in paths:
        if p is None:
            continue
        p = str(p)
        if not os.path.exists(p):
            raise MissingInput(f"required file {p} does not exist")
        out[p] = file_digest(p)
    return out


def manifest_path_for(artifact_path) -> str:
    return str(artifact_path) + ".manifest.json"


def _blas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS picked for this host (`SkylakeX`, `Haswell`...), or "unknown".

    A `DYNAMIC_ARCH` OpenBLAS picks its kernel when it loads, from the CPU or
    from `OPENBLAS_CORETYPE`; the scipy-openblas build numpy ships names it.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode("ascii", "replace")
    return "unknown"


def _runtime() -> dict:
    """Peak resident set size of this process so far, and the library versions and BLAS kernel it runs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without a dict-valued build config
        blas = "unknown"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return {
        "peak_rss_bytes": int(peak if sys.platform == "darwin" else peak * 1024),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_core": _blas_core(),
    }


def write_manifest(
    command: str,
    options: dict,
    inputs: dict,
    outputs: dict,
    started_at: float,
    version: str,
    logs: dict | None = None,
    warnings: list | None = None,
) -> dict:
    doc = {
        "tool": TOOL_NAME,
        "version": version,
        "command": command,
        "options": options,
        "inputs": inputs,
        "outputs": outputs,
        "logs": logs or {},
        "warnings": warnings or [],
        "started_at": started_at,
        "finished_at": time.time(),
        "runtime": _runtime(),
    }
    primary = next(iter(outputs)) if outputs else None
    if primary is not None:
        path = manifest_path_for(primary)
        write_json(path, doc)
        doc["manifest_path"] = path
    return doc


def load_manifest(path) -> dict:
    """A manifest: a JSON object with a string `command`, an object `options` and an object `inputs`."""
    if not os.path.exists(path):
        raise MissingInput(f"manifest {path} does not exist")
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    shape = {"command": str, "options": dict, "inputs": dict}
    if not isinstance(doc, dict) or any(not isinstance(doc.get(k), t) for k, t in shape.items()):
        raise MalformedInput(f"{path}: a manifest needs a string command, object options and object inputs")
    return doc


def verify_inputs(manifest: dict) -> None:
    """Check that every recorded input still has its recorded digest."""
    for path, digest in manifest.get("inputs", {}).items():
        if not os.path.exists(path):
            raise MissingInput(f"recorded input {path} is missing")
        actual = file_digest(path)
        if actual != digest:
            raise DigestMismatch(f"input {path} changed since the recorded run")
