"""Print the sha256 of every artifact under a pytest `--basetemp` tree, or compare two such trees.

Manifests (`*.manifest.json`) and train logs (`*.log.tsv`) hold wall times,
paths and memory figures, so they differ between any two runs and are left
out. Each line is `<sha256>  <path relative to the tree>`, sorted by path.

To show that a change rewrites no artifact, run the Tier-1 suite with
`--basetemp` on both trees (a `git archive` of the parent, and the change)
and compare them:

    python tools/artifact_digests.py PARENT_BASETEMP CHANGE_BASETEMP

A `-` line is a parent artifact whose digest the change never writes; a `+`
line is a file whose digest only the change writes (expected only from new or
changed tests). The exit code is 1 when there is a `-` line and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

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


def compare(parent: str, change: str) -> tuple[list, list]:
    """(parent files whose digest the change lacks, change files whose digest the parent lacks)."""
    old, new = artifact_digests(parent), artifact_digests(change)
    old_digests, new_digests = {d for d, _ in old}, {d for d, _ in new}
    return [f for f in old if f[0] not in new_digests], [f for f in new if f[0] not in old_digests]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("basetemp", help="the directory given to pytest --basetemp (the parent's, with two)")
    parser.add_argument("change", nargs="?", help="the change's --basetemp directory: compare the two trees")
    args = parser.parse_args(argv)
    if args.change:
        missing, extra = compare(args.basetemp, args.change)
        lines = [f"- {d}  {path}" for d, path in missing] + [f"+ {d}  {path}" for d, path in extra]
        print("\n".join(lines) if lines else "every parent digest is on the change, and nothing else")
        return 1 if missing else 0
    print("\n".join(f"{digest}  {path}" for digest, path in artifact_digests(args.basetemp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
