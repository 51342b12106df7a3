"""Run every reference config in two source trees and diff the results.

    python3 tools/diff_configs.py OLD_TREE NEW_TREE [NAME ...]
    python3 tools/diff_configs.py --write-reference TREE

Each tree's own ``configs/NAME.cfg`` runs through ``python -m backwave.cli``
with that tree's ``src`` on the path, one process at a time and one BLAS
thread.  The script compares every field of every report item (``kind``,
``measured``, its pass rule's ``lo`` and ``hi``, ``target``, ``passed``,
``note``, ``gamma_data`` and ``realized_target``; numbers to 17 significant
digits), the item lists
themselves, every ``provenance`` field of summary.json but ``runtime_s``
(steps, dt_max, grid, config hash, ...), the exit codes and ``series.csv``
byte for byte, prints the
differences (with the relative change of each differing ``measured``
value; for series.csv, its header and row count and each column that
differs, with its largest relative change) and each run's wall time, then the largest relative item change
over all configs, each tree's source line count (``src/backwave/*.py``)
and settable values (defaulted function parameters plus defaulted
dataclass fields, counted by AST), and exits 1 when anything differs or a
run fails (exit code other than 0 or 1, or no summary.json).  NAME limits the run to the given configs (default:
every ``configs/*.cfg`` of NEW_TREE).

``--write-reference`` runs every ``configs/*.cfg`` of TREE the same way and
rewrites TREE's ``tests/reference_items.json``: each config's items (name,
kind, ``repr`` of ``measured``, ``lo``, ``hi``, ``passed``) plus numpy's
version and the platform; tier-1 compares the acceptance reports with it.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REFERENCE = pathlib.Path("tests", "reference_items.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FIELDS = ("kind", "measured", "lo", "hi", "target", "passed", "note", "gamma_data",
          "realized_target")


def scenario_of(cfg: pathlib.Path) -> str:
    """The ``scenario`` key of the config's [run] section (the CLI subcommand)."""
    for line in cfg.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "scenario":
            return value.split("#")[0].strip()
    raise SystemExit(f"{cfg}: no scenario key")


def run(tree: pathlib.Path, name: str, out: pathlib.Path):
    """Run one config in one tree; returns (exit code, wall seconds)."""
    cfg = tree / "configs" / f"{name}.cfg"
    if not cfg.is_file():
        return None, 0.0
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{v: "1" for v in THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "backwave.cli", scenario_of(cfg),
                           "--config", str(cfg), "--out", str(out), "--quiet"],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode, time.perf_counter() - start


def source_loc(tree: pathlib.Path) -> int:
    """Lines of the package sources, as ``wc -l src/backwave/*.py`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "backwave").glob("*.py"))


def settable_values(tree: pathlib.Path) -> int:
    """Defaulted parameters of every function and method plus defaulted fields
    of every ``@dataclass`` class in ``src/backwave/*.py``."""
    count = 0
    for path in (tree / "src" / "backwave").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and {
                    ast.unparse(getattr(d, "func", d)) for d in node.decorator_list
            } & {"dataclass", "dataclasses.dataclass"}:
                count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                             for st in node.body)
    return count


def summary(out: pathlib.Path) -> dict:
    """The run's summary.json ({} when there is none)."""
    path = out / "summary.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def items(out: pathlib.Path) -> dict:
    """Each item of the run's summary.json by name, as a dict of its FIELDS
    (None where a field is absent)."""
    return {it["name"]: {f: it.get(f) for f in FIELDS} for it in summary(out).get("items", [])}


def reference_items(out: pathlib.Path) -> list:
    """The run's items as the reference file records them."""
    return [{"name": it["name"], "kind": it["kind"], "measured": repr(float(it["measured"])),
             "lo": it["lo"], "hi": it["hi"], "passed": it["passed"]}
            for it in summary(out).get("items", [])]


def write_reference(tree: pathlib.Path) -> int:
    """Run every config of ``tree`` and write its items to ``tree/REFERENCE``;
    exits 1, writing nothing, when a run fails."""
    configs, env = {}, {}
    with tempfile.TemporaryDirectory(prefix="diff_configs_") as tmp:
        for name in sorted(p.stem for p in (tree / "configs").glob("*.cfg")):
            out = pathlib.Path(tmp) / name
            code, sec = run(tree, name, out)
            if code not in (0, 1) or not (out / "summary.json").is_file():
                print(f"{name}: run failed with exit code {code}", file=sys.stderr)
                return 1
            configs[name] = reference_items(out)
            env = summary(out)["environment"]
            print(f"{name}: {len(configs[name])} items  [{sec:.1f} s]", flush=True)
    payload = {"numpy": env["numpy"], "platform": env["platform"], "configs": configs}
    (tree / REFERENCE).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {tree / REFERENCE}")
    return 0


def provenance(out: pathlib.Path) -> dict:
    """The run's provenance without its wall time ``runtime_s``."""
    prov = summary(out).get("provenance", {})
    return {k: v for k, v in prov.items() if k != "runtime_s"}


def _digits(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else repr(x)


def relative_change(a, b) -> float:
    """|b - a| / |a| of two measured values: 0 when they print alike, inf
    from 0, between non-numbers or from a non-finite value."""
    if _digits(a) == _digits(b):
        return 0.0
    if not a or not all(isinstance(x, (int, float)) and math.isfinite(x) for x in (a, b)):
        return math.inf
    return abs(b - a) / abs(a)


def item_changes(old: pathlib.Path, new: pathlib.Path) -> dict:
    """The relative change of every item in both runs whose measured value differs."""
    a, b = items(old), items(new)
    return {n: relative_change(a[n]["measured"], b[n]["measured"]) for n in a
            if n in b and _digits(a[n]["measured"]) != _digits(b[n]["measured"])}


def differences(old: pathlib.Path, new: pathlib.Path, code_a, code_b) -> list:
    """Every difference between the two runs of one config.  A missing
    config, a run that failed (exit code other than the CLI's 0 = passed and
    1 = failing items) and a run without summary.json each count as one, so
    two runs that compared nothing never read as the same."""
    if code_a is None or code_b is None:
        return ["config missing in one tree"]
    out = [] if code_a == code_b else [f"exit code {code_a} -> {code_b}"]
    for side, code, path in (("old", code_a, old), ("new", code_b, new)):
        if code not in (0, 1):
            out.append(f"{side} run failed with exit code {code}")
        if not (path / "summary.json").is_file():
            out.append(f"{side} run wrote no summary.json")
    a, b = items(old), items(new)
    out += [f"item {n}: only in {'old' if n in a else 'new'}" for n in sorted(set(a) ^ set(b))]
    changes = item_changes(old, new)
    for n in (n for n in a if n in b):
        moved = [f"{f} {_digits(a[n][f])} -> {_digits(b[n][f])}" for f in FIELDS
                 if _digits(a[n][f]) != _digits(b[n][f])]
        if moved:
            rel = f" (relative change {changes[n]:.2g})" if n in changes else ""
            out.append(f"item {n}: {'; '.join(moved)}{rel}")
    pa, pb = provenance(old), provenance(new)
    out += [f"provenance {k}: {_digits(pa.get(k))} -> {_digits(pb.get(k))}"
            for k in sorted(set(pa) | set(pb)) if _digits(pa.get(k)) != _digits(pb.get(k))]
    return out + series_differences(old, new)


def _cell(text: str):
    """A series.csv cell as a float where it reads as one, else as text."""
    try:
        return float(text)
    except ValueError:
        return text


def series_differences(old: pathlib.Path, new: pathlib.Path) -> list:
    """How two runs' series.csv differ: a file in one run only, a header or
    row-count change, and each column (by name, in both headers) whose
    cells differ, with its largest relative change; "series.csv differs"
    when the bytes differ and none of these does."""
    sa, sb = old / "series.csv", new / "series.csv"
    if sa.is_file() != sb.is_file():
        return [f"series.csv only in {'old' if sa.is_file() else 'new'}"]
    if not sa.is_file() or sa.read_bytes() == sb.read_bytes():
        return []
    (ha, *ra), (hb, *rb) = (list(csv.reader(p.read_text(encoding="utf-8").splitlines())) or [[]]
                            for p in (sa, sb))
    out = [] if ha == hb else [f"series.csv header: {','.join(ha)} -> {','.join(hb)}"]
    if len(ra) != len(rb):
        out.append(f"series.csv rows: {len(ra)} -> {len(rb)}")
    for col in (c for c in ha if c in hb):
        ia, ib = ha.index(col), hb.index(col)
        pairs = [(a[ia], b[ib]) for a, b in zip(ra, rb) if len(a) > ia and len(b) > ib]
        moved = [relative_change(_cell(x), _cell(y)) for x, y in pairs if x != y]
        if moved:
            out.append(f"series.csv column {col}: {len(moved)} of {len(pairs)} rows differ "
                       f"(largest relative change {max(moved):.2g})")
    return out or ["series.csv differs"]


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--write-reference":
        return write_reference(pathlib.Path(argv[1]).resolve())
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_tree, new_tree = (pathlib.Path(p).resolve() for p in argv[:2])
    names = argv[2:] or sorted(p.stem for p in (new_tree / "configs").glob("*.cfg"))
    any_diff, largest = False, (0.0, "no item changed")
    with tempfile.TemporaryDirectory(prefix="diff_configs_") as tmp:
        for name in names:
            outs = [pathlib.Path(tmp) / side / name for side in ("old", "new")]
            (code_a, sec_a), (code_b, sec_b) = (run(tree, name, out)
                                                for tree, out in zip((old_tree, new_tree), outs))
            diffs = differences(*outs, code_a, code_b)
            any_diff = any_diff or bool(diffs)
            n_items = len(items(outs[1]))
            verdict = "DIFFERENT" if diffs else f"same ({n_items} items)"
            print(f"{name}: {verdict}  [{sec_a:.1f} s -> {sec_b:.1f} s]", flush=True)
            for line in diffs:
                print(f"  {line}", flush=True)
            for item, rel in item_changes(*outs).items():
                largest = max(largest, (rel, f"{name}: {item}"))
    print(f"largest relative item change: {largest[0]:.2g} ({largest[1]})")
    print(f"source LOC: {source_loc(old_tree)} -> {source_loc(new_tree)}")
    print(f"settable values: {settable_values(old_tree)} -> {settable_values(new_tree)}")
    print("differences found" if any_diff else "no difference")
    return 1 if any_diff else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
