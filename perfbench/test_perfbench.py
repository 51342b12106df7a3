"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# a homogeneous run small enough for a unit test (well under a second)
TINY = """\
[run]
scenario = homogeneous
T = 12
t0 = 2
records = 8

[data.F0]
mode1 = l=2 m=0 kind=poly-tail amplitude=1 p=0.85 scale=0.3 center=0

[grid]
h = 0.25
cfl = 0.5

[params]
gamma = 0.8
s = 1.2
"""


def worker(tmp_path, mode, tag):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    work = tmp_path / tag
    work.mkdir()
    result, bundle = work / "result.json", work / "bundle"
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(result), mode, "--",
                    "homogeneous", "--config", str(cfg), "--out", str(bundle), "--quiet"],
                   cwd=run.ROOT, env=run.child_env(), check=True, timeout=120)
    return json.loads(result.read_text()), str(bundle)


def items_file(path, items):
    path.write_text(json.dumps({"workload": "tiny", "seed": 0, "items": items}))
    return str(path)


def compare_out(a, b):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = compare.main([a, b])
    return code, buf.getvalue()


def test_compare_reports_no_change_between_runs_and_flags_a_perturbed_value(tmp_path):
    _rec, b1 = worker(tmp_path, "run", "one")
    _rec, b2 = worker(tmp_path, "run", "two")
    first, second = workloads.capture_items(b1), workloads.capture_items(b2)
    assert first
    code, out = compare_out(items_file(tmp_path / "a.json", first),
                            items_file(tmp_path / "b.json", second))
    assert code == 0 and "no change" in out

    name = "energy_exponent"
    x = float(second[name])
    perturbed = dict(second, **{name: f"{math.nextafter(x, math.inf):.17g}"})
    code, out = compare_out(items_file(tmp_path / "a.json", first),
                            items_file(tmp_path / "c.json", perturbed))
    assert code == 1 and name in out and "1 change(s)" in out


def test_traced_run_keeps_items_bit_identical_and_reports_layers(tmp_path):
    plain, b_plain = worker(tmp_path, "run", "plain")
    traced, b_traced = worker(tmp_path, "trace", "traced")
    assert workloads.capture_items(b_plain) == workloads.capture_items(b_traced)
    layers = traced["layers"]
    # RK4 asks for the forcing four times per step, at two new distinct times
    assert layers["engine.source_calls"] == 4 * layers["engine.steps"] > 0
    assert layers["engine.source_distinct_t"] < layers["engine.source_calls"]
    assert layers["radiation.residual_box_psi01.calls"] >= layers["engine.source_calls"]
    assert layers["engine.solve_calls"] == 1
    assert 0.0 < layers["engine.source_nonzero_share"] < 1.0
    assert 0.0 < layers["engine.source_s"] < layers["engine.solve_s"]
    # the config is parsed before the call into the pipeline
    in_pipeline = sum([layers[f"{layer}.self_s"] for layer in spans.SELF_LAYERS]
                      + [layers[k] for k in ("engine.step_self_s", "cutoffs.s", "functionals.s",
                                             "outputs.write_bundle.s")])
    assert 0.0 < in_pipeline <= traced["t_end"] - traced["t_call"]
    assert os.path.exists(os.path.join(os.path.dirname(b_traced), "spans.csv"))
    listed = run.listed_metrics()["per_layer"]
    assert set(listed) - set(layers) == {"outputs.bytes", "trace.run_s",
                                         "trace.untraced_run_s", "trace.overhead"}


def test_span_metrics_self_and_inclusive_times():
    # scenarios(0..10) > functionals.a(1..5) > functionals.b(2..3);
    # scenarios > radiation.residual_box_psi01(6..9) > radiation.residual_box_psi01(7..8)
    s = [["scenarios.run_scenario", 0.0, 10.0, -1],
         ["functionals.a", 1.0, 5.0, 0],
         ["functionals.b", 2.0, 3.0, 1],
         ["radiation.residual_box_psi01", 6.0, 9.0, 0],
         ["radiation.residual_box_psi01", 7.0, 8.0, 3]]
    m = spans.span_metrics(s)
    assert m["scenarios.self_s"] == 3.0 and m["radiation.self_s"] == 3.0
    assert m["functionals.calls"] == 1 and m["functionals.s"] == 4.0
    assert m["radiation.residual_box_psi01.calls"] == 2
    assert m["radiation.residual_box_psi01.s"] == 3.0


def test_seed_zero_runs_the_config_as_listed_and_other_seeds_stay_in_range():
    for wl in workloads.COMMANDS:
        with open(os.path.join(HERE, "configs", f"{wl}.cfg"), encoding="utf-8") as fh:
            assert workloads.config_text(wl, 0) == fh.read()
        base = workloads.f0_modes(workloads.read_config(workloads.config_text(wl, 0)))
        for seed in range(1, 20):
            text = workloads.config_text(wl, seed)
            assert text == workloads.config_text(wl, seed)
            modes = workloads.f0_modes(workloads.read_config(text))
            for b, m in zip(base, modes):
                factor = float(m["amplitude"]) / float(b["amplitude"])
                shift = float(m["center"]) - float(b["center"])
                assert abs(factor - 1.0) <= workloads.AMPLITUDE_SPREAD
                assert abs(shift) <= workloads.CENTER_SHIFT
                assert {k: v for k, v in m.items() if k not in ("amplitude", "center")} == \
                    {k: v for k, v in b.items() if k not in ("amplitude", "center")}


def test_check_bundle_flags_items_outside_their_budgets(tmp_path):
    text = workloads.config_text("weaknull_small", 0)
    items = [{"name": "w_norm_exponent", "kind": "bound", "measured": 1.0, "passed": True},
             {"name": "w_envelope_bounded", "kind": "bound", "measured": 3.0, "passed": True},
             {"name": "interior_box_crosscheck", "kind": "bound", "measured": 0.002,
              "passed": True}]
    (tmp_path / "summary.json").write_text(json.dumps({"status": "ok", "items": items}))
    assert workloads.check_bundle("weaknull_small", text, str(tmp_path)) == []
    items[2]["measured"] = 0.0102
    (tmp_path / "summary.json").write_text(json.dumps({"status": "ok", "items": items}))
    assert any("interior_box_crosscheck" in p
               for p in workloads.check_bundle("weaknull_small", text, str(tmp_path)))


def test_homogeneous_exponent_band_runs_from_realized_to_declared_rate():
    rules = workloads.item_rules("homogeneous", workloads.read_config(
        workloads.config_text("homogeneous", 0)))
    # gamma = 0.8, s = 1.2, poly-tail p = 0.85, tol = 0.15
    kind, lo, hi = rules["source_norm_exponent"]
    assert kind == "fit" and lo == pytest.approx(-1.30) and hi == pytest.approx(-0.95)
    kind, lo, hi = rules["energy_exponent"]
    assert kind == "fit" and lo == pytest.approx(-1.50) and hi == pytest.approx(-1.15)


def test_benchmark_json_lists_the_workloads_run_accepts():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.COMMANDS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "homogeneous",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
