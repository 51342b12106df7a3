"""tools/diff_configs.py: two runs count as the same only when both ran and
wrote the same items and series."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "diff_configs.py"
_spec = importlib.util.spec_from_file_location("diff_configs", TOOL)
diff_configs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_configs)


def bundle(path, measured, series=b"t,x\n1,2\n", kind="fit", lo=None, hi=1.0, **provenance):
    path.mkdir(parents=True)
    items = [{"name": "a", "kind": kind, "measured": measured, "lo": lo, "hi": hi,
              "passed": True}]
    (path / "summary.json").write_text(json.dumps({"items": items, "provenance": provenance}),
                                       encoding="utf-8")
    (path / "series.csv").write_bytes(series)
    return path


def test_equal_bundles_are_the_same_and_one_ulp_differs(tmp_path):
    old = bundle(tmp_path / "old", 0.1)
    assert diff_configs.differences(old, bundle(tmp_path / "new", 0.1), 0, 0) == []
    assert diff_configs.differences(old, bundle(tmp_path / "ulp", 0.10000000000000002), 0, 0)
    # a zero that changes sign is a difference too
    zero = bundle(tmp_path / "zero", 0.0)
    assert diff_configs.differences(zero, bundle(tmp_path / "negzero", -0.0), 0, 0)
    assert diff_configs.differences(old, bundle(tmp_path / "csv", 0.1, b"t,x\n"), 0, 0)
    assert diff_configs.differences(old, bundle(tmp_path / "code", 0.1), 0, 1)


def test_items_that_differ_only_in_kind_are_different(tmp_path):
    # a fit that degrades to a bound with the same measured value and flag
    old = bundle(tmp_path / "old", 0.1)
    [line] = diff_configs.differences(old, bundle(tmp_path / "new", 0.1, kind="bound"), 0, 0)
    assert line == "item a: kind 'fit' -> 'bound'"


def test_items_that_differ_only_in_a_bound_are_different(tmp_path):
    # the same measured value and flag judged by another rule
    old = bundle(tmp_path / "old", 0.1)
    [line] = diff_configs.differences(old, bundle(tmp_path / "hi", 0.1, hi=2.0), 0, 0)
    assert line == "item a: hi 1 -> 2"
    [line] = diff_configs.differences(old, bundle(tmp_path / "lo", 0.1, lo=0.0), 0, 0)
    assert line == "item a: lo None -> 0"


def test_bundles_that_differ_only_in_a_provenance_field_are_different(tmp_path):
    # a march that takes other steps changes no item yet is not the same run
    prov = {"config_hash": "abc", "h": 0.25, "J": 500, "steps": 1580, "runtime_s": 1.2}
    old = bundle(tmp_path / "old", 0.1, **prov)
    [line] = diff_configs.differences(old, bundle(tmp_path / "new", 0.1, **{**prov, "steps": 1581}),
                                      0, 0)
    assert line == "provenance steps: 1580 -> 1581"
    assert diff_configs.differences(old, bundle(tmp_path / "gone", 0.1, steps=1580), 0, 0)


def test_bundles_that_differ_only_in_runtime_are_the_same(tmp_path):
    prov = {"config_hash": "abc", "steps": 1580}
    old = bundle(tmp_path / "old", 0.1, runtime_s=1.2, **prov)
    assert diff_configs.differences(old, bundle(tmp_path / "new", 0.1, runtime_s=9.7, **prov),
                                    0, 0) == []


def test_runs_that_failed_alike_are_not_the_same(tmp_path):
    # equal exit codes and no items on either side compare nothing
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    assert diff_configs.differences(old, new, 3, 3)
    assert diff_configs.differences(old, new, 1, 1)
    assert diff_configs.differences(bundle(tmp_path / "a", 0.1), bundle(tmp_path / "b", 0.1), 3, 3)
    assert diff_configs.differences(old, new, None, 0) == ["config missing in one tree"]


def test_main_exits_one_when_both_trees_fail_the_same_way(tmp_path, capsys):
    trees = []
    for side in ("old", "new"):
        tree = tmp_path / side
        (tree / "configs").mkdir(parents=True)
        (tree / "src").mkdir()
        (tree / "configs" / "broken.cfg").write_text("[run]\nscenario = homogeneous\nh = x\n",
                                                     encoding="utf-8")
        trees.append(str(tree))
    assert diff_configs.main(trees) == 1
    assert "differences found" in capsys.readouterr().out


def test_main_prints_the_source_loc_of_both_trees(tmp_path, capsys):
    trees = []
    for side, lines in (("old", 3), ("new", 2)):
        pkg = tmp_path / side / "src" / "backwave"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n" * lines, encoding="utf-8")
        (pkg / "b.py").write_text("y = 2\n", encoding="utf-8")
        (tmp_path / side / "configs").mkdir()
        trees.append(str(tmp_path / side))
    assert diff_configs.main(trees) == 0
    assert "source LOC: 4 -> 3" in capsys.readouterr().out


SETTABLE = """\
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Spec:
    a: int
    b: int = 1
    c: list = field(default_factory=list)
    D = 4

    def method(self, x, y=2, *, z=3, w):
        def inner(q=None):
            return q
        return lambda k=1: k


class Plain:
    e: int = 5
"""


def test_main_prints_the_settable_values_of_both_trees(tmp_path, capsys):
    # defaulted parameters (y, z, inner's q; not the lambda's) plus defaulted
    # dataclass fields (b, c; not D, which has no annotation, nor the plain
    # class's e)
    trees = []
    for side, text in (("old", SETTABLE), ("new", "def f(a, b=1):\n    return a\n")):
        pkg = tmp_path / side / "src" / "backwave"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text(text, encoding="utf-8")
        (tmp_path / side / "configs").mkdir()
        trees.append(str(tmp_path / side))
    assert diff_configs.main(trees) == 0
    assert "settable values: 5 -> 1" in capsys.readouterr().out


def test_a_changed_measured_value_states_its_relative_change(tmp_path):
    old = bundle(tmp_path / "old", 3.2636172501768232)
    new = bundle(tmp_path / "new", 3.2636172501768246)
    [line] = diff_configs.differences(old, new, 0, 0)
    assert "relative change 4.1e-16" in line
    rel = (3.2636172501768246 - 3.2636172501768232) / 3.2636172501768232
    assert diff_configs.item_changes(old, new) == {"a": rel}
    # from zero or to a non-finite value the change is infinite; equal is none
    assert diff_configs.relative_change(0.0, 1e-300) == float("inf")
    assert diff_configs.relative_change(1.0, float("inf")) == float("inf")
    assert diff_configs.relative_change(0.1, 0.1) == 0.0
    assert diff_configs.item_changes(old, bundle(tmp_path / "same", 3.2636172501768232)) == {}


def test_main_ends_with_the_largest_relative_item_change(tmp_path, capsys, monkeypatch):
    # two configs; the second one's item moves more
    moves = {"one": (1.0, 1.0 + 2e-16 * 5), "two": (2.0, 2.0 * (1.0 + 3e-12))}
    trees = []
    for side in ("old", "new"):
        (tmp_path / side / "configs").mkdir(parents=True)
        for name in moves:
            (tmp_path / side / "configs" / f"{name}.cfg").write_text("", encoding="utf-8")
        trees.append(str(tmp_path / side))

    def fake_run(tree, name, out):
        bundle(out, moves[name][tree.name == "new"])
        return 0, 0.0

    monkeypatch.setattr(diff_configs, "run", fake_run)
    assert diff_configs.main(trees) == 1
    out = capsys.readouterr().out
    assert "relative change 3e-12" in out
    assert "largest relative item change: 3e-12 (two: a)" in out


def test_main_reports_no_item_change_when_items_are_identical(tmp_path, capsys, monkeypatch):
    trees = []
    for side in ("old", "new"):
        (tmp_path / side / "configs").mkdir(parents=True)
        (tmp_path / side / "configs" / "one.cfg").write_text("", encoding="utf-8")
        trees.append(str(tmp_path / side))
    monkeypatch.setattr(diff_configs, "run", lambda tree, name, out: (bundle(out, 0.5), (0, 0.0))[1])
    assert diff_configs.main(trees) == 0
    assert "largest relative item change: 0 (no item changed)" in capsys.readouterr().out


def test_series_differences_name_each_column_that_moved(tmp_path):
    # one column moves in two of its three rows, the others stay; a header
    # and a row-count change are named too
    csv_old = b"t,energy,sup_envelope\n1,2.0,0.5\n2,3.0,0.25\n3,4.0,0.125\n"
    csv_new = b"t,energy,sup_envelope\n1,2.0,0.75\n2,3.0,0.25\n3,4.0,0.1\n"
    old = bundle(tmp_path / "old", 0.1, csv_old)
    [line] = diff_configs.differences(old, bundle(tmp_path / "new", 0.1, csv_new), 0, 0)
    assert line == ("series.csv column sup_envelope: 2 of 3 rows differ "
                    "(largest relative change 0.5)")
    lines = diff_configs.differences(
        old, bundle(tmp_path / "cols", 0.1, b"t,energy,flux\n1,2.0,0.5\n2,3.0,0.25\n"), 0, 0)
    assert lines == ["series.csv header: t,energy,sup_envelope -> t,energy,flux",
                     "series.csv rows: 3 -> 2"]
    # bytes that differ where no cell does still count
    [line] = diff_configs.differences(old, bundle(tmp_path / "crlf", 0.1,
                                                  csv_old.replace(b"\n", b"\r\n")), 0, 0)
    assert line == "series.csv differs"
    assert diff_configs.series_differences(old, tmp_path / "none") == ["series.csv only in old"]


def test_write_reference_records_every_item_of_every_config(tmp_path, monkeypatch, capsys):
    (tmp_path / "configs").mkdir()
    (tmp_path / "tests").mkdir()
    values = {"one": 0.1, "two": 1.0 / 3.0}
    for name in values:
        (tmp_path / "configs" / f"{name}.cfg").write_text("", encoding="utf-8")

    def fake_run(tree, name, out):
        path = bundle(out, values[name], lo=0.0) / "summary.json"
        summary = json.loads(path.read_text(encoding="utf-8"))
        summary["environment"] = {"numpy": "9.9", "platform": "box"}
        path.write_text(json.dumps(summary), encoding="utf-8")
        return 0, 0.0

    monkeypatch.setattr(diff_configs, "run", fake_run)
    assert diff_configs.main(["--write-reference", str(tmp_path)]) == 0
    reference = tmp_path / "tests" / "reference_items.json"
    item = {"name": "a", "kind": "fit", "lo": 0.0, "hi": 1.0, "passed": True}
    assert json.loads(reference.read_text(encoding="utf-8")) == {
        "numpy": "9.9", "platform": "box",
        "configs": {"one": [{**item, "measured": "0.1"}],
                    "two": [{**item, "measured": "0.3333333333333333"}]}}
    # a failed run leaves the file as it was
    monkeypatch.setattr(diff_configs, "run", lambda tree, name, out: (3, 0.0))
    before = reference.read_bytes()
    assert diff_configs.main(["--write-reference", str(tmp_path)]) == 1
    assert reference.read_bytes() == before
    assert "one: run failed with exit code 3" in capsys.readouterr().err
