import hashlib
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def _compare(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change)], capture_output=True, text=True)


def test_two_trees_list_what_the_change_lacks_and_adds(tmp_path):
    sha = {text: hashlib.sha256(text.encode()).hexdigest() for text in ("kept", "lost", "new")}
    parent = _tree(tmp_path / "parent", {"a0/s.tsv": "kept", "b0/grid.tsv": "lost", "a0/s.tsv.manifest.json": "1"})
    change = _tree(tmp_path / "change", {"a1/s.tsv": "kept", "c0/t.json": "new", "a1/s.tsv.manifest.json": "2"})
    found = _compare(parent, change)
    assert found.returncode == 1
    assert found.stdout.splitlines() == [f"- {sha['lost']}  b0/grid.tsv", f"+ {sha['new']}  c0/t.json"]
    _tree(change, {"c0/grid-copy.tsv": "lost"})  # any path will do: digests are compared, not paths
    found = _compare(parent, change)
    assert found.returncode == 0
    assert found.stdout.splitlines() == [f"+ {sha['new']}  c0/t.json"]
