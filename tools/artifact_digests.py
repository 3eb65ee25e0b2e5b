"""Print the sha256 of every artifact under a pytest `--basetemp` tree.

Manifests (`*.manifest.json`) and train logs (`*.log.tsv`) hold wall times,
paths and memory figures, so they differ between any two runs and are left
out. Each line is `<sha256>  <path relative to the tree>`, sorted by path.

To show that a change rewrites no artifact, run the Tier-1 suite with
`--basetemp` on both trees (a `git archive` of the parent, and the change)
and compare their distinct digests:

    python tools/artifact_digests.py --digests PARENT_BASETEMP > parent.txt
    python tools/artifact_digests.py --digests CHANGE_BASETEMP > change.txt
    diff parent.txt change.txt

A `<` line is a parent artifact that the change no longer writes; a `>` line
is a file that only the change writes (expected only from new or changed
tests). Drop `--digests` to see where each file lies.
"""

from __future__ import annotations

import argparse
import hashlib
import os

LEFT_OUT = (".manifest.json", ".log.tsv")


def artifact_digests(root: str) -> list[tuple[str, str]]:
    """(sha256, relative path) of every file under `root` but manifests and train logs, sorted by path."""
    found = []
    for folder, _, names in os.walk(root):
        for name in names:
            if not name.endswith(LEFT_OUT):
                path = os.path.join(folder, name)
                with open(path, "rb") as f:
                    found.append((hashlib.sha256(f.read()).hexdigest(), os.path.relpath(path, root)))
    return sorted(found, key=lambda item: item[1])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("basetemp", help="the directory given to pytest --basetemp")
    parser.add_argument("--digests", action="store_true", help="print each distinct digest once, sorted")
    args = parser.parse_args(argv)
    found = artifact_digests(args.basetemp)
    if args.digests:
        print("\n".join(sorted({digest for digest, _ in found})))
    else:
        print("\n".join(f"{digest}  {path}" for digest, path in found))


if __name__ == "__main__":
    main()
