"""Artifact writers replace their target whole or leave it untouched."""

import json
import os

import numpy as np
import pytest

from masklog.atomic import atomic_open, write_json
from masklog.checkpoint import save_container
from masklog.cli import write_table
from masklog.corpus import write_lines
from masklog.manifest import write_manifest


def _failing_rows():
    yield ("a", 1)
    raise RuntimeError("disk went away")


class _Unserializable:
    pass


WRITERS = {
    "write_lines": lambda p: write_lines(p, (f"line {r[1]}" for r in _failing_rows())),
    "write_table": lambda p: write_table(p, ["name", "n"], _failing_rows(), {"k": "v"}),
    "write_json": lambda p: write_json(p, {"a": [1, 2, 3], "z": _Unserializable()}),
    "save_container": lambda p: save_container(
        p, {"k": "v"}, {"a": np.ones(3, np.float32), "b": np.array(["not a number"])}
    ),
    "write_manifest": lambda p: write_manifest(
        "score", {"x": _Unserializable()}, {}, {str(p)[: -len(".manifest.json")]: "0" * 64}, 0.0, "0"
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_writer_failing_mid_write_leaves_the_old_file_and_no_temp_file(tmp_path, name):
    target = tmp_path / ("out.tsv.manifest.json" if name == "write_manifest" else "out.tsv")
    target.write_bytes(b"old contents\n")
    with pytest.raises(Exception):
        WRITERS[name](target)
    assert target.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == [target.name]


def test_atomic_open_replaces_only_on_success(tmp_path):
    target = tmp_path / "a.json"
    with atomic_open(target) as f:
        assert not target.exists()  # nothing appears under the name while writing
        json.dump({"n": 1}, f)
    assert json.loads(target.read_text()) == {"n": 1}
    with atomic_open(target, binary=True) as f:
        f.write(b"\x00\x01")
    assert target.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["a.json"]


def test_text_mode_writes_utf8_with_newline_line_ends(tmp_path):
    target = tmp_path / "t.txt"
    with atomic_open(target) as f:
        f.write("é\n")
    assert target.read_bytes() == "é\n".encode("utf-8")
