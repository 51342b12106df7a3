"""Diff the report items of two benchmark runs and flag every change.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are item files written by run.py (.perfbench/items/<workload>-
seed<seed>.json) or directories of them; directories are compared file by
file.  Values are compared as their 17-significant-digit strings, so any
change in a float's bits is flagged.  Exit code 0 when nothing changed,
1 when an item changed, appeared or disappeared, 2 on a usage error.

To compare a change with its parent commit, run the benchmark in a fresh
checkout of each (for example ``git archive <parent> | tar -x -C DIR``)
with the same workloads and seeds, and compare the two .perfbench/items
directories.
"""

from __future__ import annotations

import json
import os
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["items"]


def diff_items(old: dict, new: dict):
    """(name, old value, new value) for every item that differs; a missing
    side reads None."""
    return [(name, old.get(name), new.get(name))
            for name in sorted(set(old) | set(new)) if old.get(name) != new.get(name)]


def pairs(old: str, new: str):
    if os.path.isdir(old) and os.path.isdir(new):
        names = sorted(set(os.listdir(old)) | set(os.listdir(new)))
        return [(n, os.path.join(old, n), os.path.join(new, n))
                for n in names if n.endswith(".json")]
    return [(os.path.basename(new), old, new)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    changed = 0
    for label, old, new in pairs(*argv):
        if not (os.path.exists(old) and os.path.exists(new)):
            print(f"{label}: only in {'new' if os.path.exists(new) else 'old'}")
            changed += 1
            continue
        for name, a, b in diff_items(load(old), load(new)):
            print(f"{label}: {name}: {a} -> {b}")
            changed += 1
    print(f"{changed} change(s)" if changed else "no change")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
