"""Atomic artifact writes: a file appears whole under its name, or not at all."""

from __future__ import annotations

import contextlib
import json
import os
import uuid


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """A new file beside `path` to write; when the block ends cleanly it replaces `path`.

    The temp file sits in the target's directory, so `os.replace` renames it
    within one file system. If the block raises, the temp file is deleted and
    whatever was at `path` before is left as it was. Text mode writes UTF-8
    with `\\n` line ends.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, "xb" if binary else "x", **text) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    """`obj` as JSON with sorted keys, indented by 2, and a final newline, written atomically."""
    with atomic_open(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
