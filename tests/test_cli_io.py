import json
import os
import pathlib
import re

import numpy as np
import pytest

from backwave.cli import main
from backwave.config import _MODE_FIELDS, KEYS, ConfigError, _parse_lines, parse_config
from backwave.outputs import write_bundle, write_series_csv
from backwave.scenarios import FIELDS, FunctionalReport, ReportItem, ScenarioReport

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
CONVERGENCE = str(CONFIGS / "convergence.cfg")

MINIMAL = """
[run]
scenario = homogeneous
T = 40
t0 = 2

[data.F0]
mode1 = l=2 m=0 kind=gaussian amplitude=1

[params]
gamma = 0.8
"""


def test_minimal_config_fills_defaults():
    spec = parse_config(MINIMAL)
    assert spec.scenario == "homogeneous"
    assert spec.T == 40.0 and spec.t0 == 2.0
    assert spec.gamma == 0.8
    assert spec.s == 1.2                 # documented default
    assert spec.h == 0.1
    assert spec.f0_modes == [(2, 0, {"kind": "gaussian", "amplitude": 1.0})]


def test_range_violation_cites_condition():
    bad = MINIMAL.replace("gamma = 0.8", "gamma = 0.8\ns = 1.4")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "1 <= s < gamma + 1/2" in str(err.value)


def test_duplicate_key_reports_both_lines():
    text = "[run]\nscenario = convergence\nT = 10\nT = 12\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "duplicate" in msg and "line 4" in msg and "line 3" in msg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nscenario = convergence\nwarp = 9\n")
    assert "unknown key" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nscenario convergence\n")
    with pytest.raises(ConfigError, match="unknown scenario ''"):
        parse_config("[grid]\nh = 0.1\n")            # no [run] scenario


def make_report():
    rep = ScenarioReport(name="homogeneous", spec={})
    rep.items.append(ReportItem(name="x", kind="fit", measured=-1.3, lo=-1.25, hi=-0.95,
                                passed=False, target=-1.1))
    for t, e in ((2.0, 0.5), (4.0, 0.25), (8.0, 1.0 / 3.0)):
        rep.series.append(FunctionalReport(t=t, values={
            "energy_w1": e, "sup_envelope": e * math_pi(), "flux_s1_R10": 0.125 + t}))
    return rep


def math_pi():
    return 3.141592653589793


def read_series_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [[float(x) for x in line.strip().split(",")] for line in fh if line.strip()]
    return header, np.asarray(data) if data else np.empty((0, len(header)))


def test_series_csv_round_trip_bit_exact(tmp_path):
    rep = make_report()
    path = os.path.join(tmp_path, "series.csv")
    cols = write_series_csv(rep, path)
    header, data = read_series_csv(path)
    assert header == cols
    assert header[0] == "t"
    assert "flux_s1_R10" in header
    for i, fr in enumerate(sorted(rep.series, key=lambda f: f.t)):
        for j, col in enumerate(header):
            want = fr.t if col == "t" else fr.values.get(col, float("nan"))
            got = data[i, j]
            if want != want:
                assert got != got
            else:
                assert got == want     # bit-exact via 17 significant digits


def test_series_csv_writes_only_the_recorded_columns(tmp_path):
    # t, then the recorded fixed columns in their order (flux_* before
    # sup_envelope), then the rest by name; nothing the run did not record
    rep = make_report()
    rep.series[0].values.update(zeta=1.0, energy_w0=2.0, flux_a=3.0)
    header = write_series_csv(rep, os.path.join(tmp_path, "series.csv"))
    assert header == ["t", "energy_w1", "energy_w0", "flux_a", "flux_s1_R10", "sup_envelope",
                      "zeta"]


def test_cli_prints_each_item_with_its_bounds(tmp_path, monkeypatch, capsys):
    import backwave.cli as cli
    rep = make_report()
    rep.add_item("y", "bound", 0.5, hi=1.0)
    monkeypatch.setattr(cli, "run_scenario", lambda spec: rep)
    assert main(["convergence", "--config", CONVERGENCE, "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] x: measured=-1.3 in [-1.25, -0.95]" in out
    assert "[PASS] y: measured=0.5 in [-inf, 1]" in out


def test_empty_series_header_only(tmp_path):
    rep = ScenarioReport(name="x", spec={})
    path = os.path.join(tmp_path, "series.csv")
    write_series_csv(rep, path)
    with open(path) as fh:
        lines = fh.readlines()
    assert len(lines) == 1


def test_bundle_and_summary(tmp_path):
    rep = make_report()
    out = os.path.join(tmp_path, "bundle")
    payload = write_bundle(rep, out)
    assert os.path.exists(os.path.join(out, "summary.json"))
    assert os.path.exists(os.path.join(out, "series.csv"))
    data = json.load(open(os.path.join(out, "summary.json")))
    assert data["status"] == "ok"
    assert data["passed"] is False
    item = data["items"][0]
    assert {"name", "measured", "lo", "hi", "target", "passed"} <= set(item)
    # plot script references only files inside the bundle
    gp = os.path.join(out, "plots", "homogeneous_decay.gp")
    assert os.path.exists(gp)
    text = open(gp).read()
    for token in text.split("'"):
        if token.endswith(".csv") or token.endswith(".png"):
            assert not token.startswith("/") and ".." not in token
    del payload


def test_summary_written_on_error(tmp_path):
    rep = ScenarioReport(name="weaknull", spec={}, status="error", error="boom at stage weaknull")
    out = os.path.join(tmp_path, "errbundle")
    os.makedirs(out)
    from backwave.outputs import write_summary_json
    payload = write_summary_json(rep, os.path.join(out, "summary.json"))
    assert payload["status"] == "error"
    assert payload["error"]["stage"] == "weaknull"


# ---------------------------------------------------------------------------
# CLI integration: exit code contract
# ---------------------------------------------------------------------------

def test_cli_validate_is_an_unknown_command(tmp_path):
    # the solver gate runs inside convergence; there is no second entry point
    assert main(["validate", "--config", CONVERGENCE, "--out", str(tmp_path / "v")]) == 2
    assert not os.path.exists(tmp_path / "v")


def test_cli_config_naming_another_scenario_is_config_error(tmp_path, monkeypatch, capsys):
    import backwave.cli as cli
    monkeypatch.setattr(cli, "run_scenario", lambda spec: pytest.fail("a run started"))
    homogeneous = str(CONFIGS / "homogeneous.cfg")
    assert main(["audit", "--config", homogeneous, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (f"configuration error: {homogeneous} names scenario "
                                       "'homogeneous', not 'audit'\n")


def test_cli_missing_config_is_config_error(tmp_path, capsys):
    assert main(["homogeneous", "--out", str(tmp_path / "x")]) == 2
    assert "usage" in capsys.readouterr().err


def test_cli_bad_config_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nscenario = homogeneous\nT = 40\nt0 = 2\n[params]\ngamma = 2.0\n")
    assert main(["homogeneous", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_cli_failing_run_exit_one(tmp_path):
    # at T = 24 the gaussian-data fits overshoot even the realized-class
    # rate (source exponent -1.548 below -1.3 - 0.15): the run completes but
    # with failing items -> exit 1
    cfg = tmp_path / "h.cfg"
    cfg.write_text("""
[run]
scenario = homogeneous
T = 24
t0 = 2
records = 12
[data.F0]
mode1 = l=2 m=0 kind=gaussian amplitude=1
[grid]
h = 0.25
[params]
gamma = 0.8
s = 1.2
""")
    out = tmp_path / "run1"
    code = main(["homogeneous", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 1
    summary = json.load(open(out / "summary.json"))
    assert summary["status"] == "ok" and summary["passed"] is False


@pytest.mark.parametrize("T, t0", [("12.00000000006", "2"), ("12", "2.00000000004")])
def test_cli_record_times_keep_T_and_t0_exact(tmp_path, T, t0):
    # rounded to 10 decimals, T = 12.00000000006 became 12.0000000001 > T and
    # t0 = 2.00000000004 became 2.0 < t0: the march refused the record times
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(f"""
[run]
scenario = homogeneous
T = {T}
t0 = {t0}
records = 12
[data.F0]
mode1 = l=2 m=0 kind=gaussian amplitude=1
[grid]
h = 0.25
""")
    out = tmp_path / "edge"
    assert main(["homogeneous", "--config", str(cfg), "--out", str(out), "--quiet"]) in (0, 1)
    summary = json.load(open(out / "summary.json"))
    assert summary["status"] == "ok"


def test_cli_tlimit_without_data_reports_the_zero_solution(tmp_path):
    # no [data.F0] modes: nothing to solve, the homogeneous zero-data item
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("[run]\nscenario = tlimit\nT = 20\nt0 = 2\nT_list = 10 20\n")
    out = tmp_path / "empty"
    assert main(["tlimit", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    summary = json.load(open(out / "summary.json"))
    assert [item["name"] for item in summary["items"]] == ["zero_data_zero_solution"]


@pytest.mark.parametrize("text", [
    # mass only: psi is psi_e exactly and the remainder is zero
    "[run]\nscenario = homogeneous\nT = 40\nt0 = 2\n[params]\nM = 0.25\n",
    # no F0, no G0 and no mass: both remainders are zero
    "[run]\nscenario = weaknull\nT = 12\nt0 = 2\n[grid]\nh = 0.25\n",
], ids=["homogeneous_mass_only", "weaknull_without_data"])
def test_cli_zero_data_reports_the_zero_solution_before_any_solve(tmp_path, monkeypatch, text):
    import backwave.engine as engine
    monkeypatch.setattr(engine, "acceleration", lambda *a, **k: pytest.fail("a solve ran"))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(text)
    command = parse_config(text).scenario
    out = tmp_path / "zero"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    summary = json.load(open(out / "summary.json"))
    assert [item["name"] for item in summary["items"]] == ["zero_data_zero_solution"]


@pytest.mark.parametrize("command, old, new", [
    ("homogeneous", "kind=poly-tail", "kind=mystery"),
    ("homogeneous", "l=2 m=0", "l=12 m=0"),         # beyond l_max = 8
    ("homogeneous", "p=0.85", "p=0.75"),            # poly-tail p <= gamma = 0.8
    ("audit", "M = 0.25", "M = 0.25\nmu = -0.5"),
    ("homogeneous", "l=2 m=0", "l=two m=0"),
    ("homogeneous", "p=0.85", "p=0.85x"),
    ("homogeneous", "records = 40", "records = 40.5"),
    ("homogeneous", "bound_factor = 5", "bound_factor = 5\ncheck_point1 = 25.0 x"),
    ("homogeneous", "bound_factor = 5", "bound_factor = 5\nenvelope_window = 4"),
    ("homogeneous", "bound_factor = 5", "bound_factor = 5\nenvelope_window = 10 20 30"),
    ("homogeneous", "T = 80", "T = inf"),
    ("homogeneous", "M = 0.25", "M = nan"),
    ("homogeneous", "exponent_tol = 0.15", "exponent_tol = nan"),
    ("weaknull", "bound_factor = 5", "bound_factor = 5\ncheck_point1 = 80 24"),  # t + h > T
    ("weaknull", "bound_factor = 5", "bound_factor = 5\ncheck_point1 = 2.1 24"),  # t - h < t0
    ("tlimit", "t0 = 2", "t0 = 2\nT_list = 1.5 40 80"),                         # 1.5 <= t0
    ("tlimit", "t0 = 2", "t0 = 2\nT_list = 40 40 80"),                          # a tie
    ("weaknull", "bound_factor = 5", "bound_factor = 5\ncheck_point1 = 40 0.01"),  # r - h <= 0
    ("weaknull", "bound_factor = 5", "bound_factor = 5\ncheck_point1 = 40 500"),   # r + h > r_max
    ("weaknull", "bound_factor = 5", "bound_factor = 5\nenvelope_window = 40 4"),  # lo > hi
    ("weaknull", "bound_factor = 5", "bound_factor = 5\nenvelope_window = 10 10"),  # lo = hi
    ("backscatter", "M = 0.25", "M = 0.25\na = -1"),
])
def test_cli_bad_data_is_config_error_before_any_solve(tmp_path, monkeypatch, command, old,
                                                       new):
    import backwave.cli as cli
    monkeypatch.setattr(cli, "run_scenario", lambda spec: pytest.fail("a solve ran"))
    ref = os.path.join(os.path.dirname(__file__), "..", "configs", "homogeneous.cfg")
    with open(ref, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new).replace("scenario = homogeneous",
                                                  f"scenario = {command}"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet"]) == 2


@pytest.mark.parametrize("old, new, message", [
    ("l=2 m=0", "l=12 m=0", "mode (12,0) outside band limit 8"),
    ("p=0.85", "p=0.75", "mode (2, 0): poly-tail exponent 0.75 must exceed gamma=0.8"),
], ids=["mode_beyond_l_max", "poly_tail_p_at_most_gamma"])
def test_cli_field_data_errors_exit_two_with_their_message(tmp_path, capsys, old, new,
                                                          message):
    ref = os.path.join(os.path.dirname(__file__), "..", "configs", "homogeneous.cfg")
    with open(ref, encoding="utf-8") as fh:
        text = fh.read()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    assert main(["homogeneous", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_readme_lists_exactly_the_config_keys():
    # the README's configuration block names, per section, the keys of the
    # one key table; [acceptance] also lists the repeated check_pointN lines
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Configuration format")[1]
    block = block.split("```")[1]
    listed, section = {}, None
    for line in block.strip().splitlines():
        if line.startswith("["):
            section, line = line[1:].split("]", 1)
        listed[section] = listed.get(section, "") + "," + re.sub(r"\([^)]*\)", "", line)
    readme_keys = {(sec, item.split()[0].split("=")[0])
                   for sec, text in listed.items() if not sec.startswith("data.")
                   for item in text.split(",") if item.strip()}
    assert readme_keys == set(KEYS) | {("acceptance", "check_pointN")}


def test_cli_runtime_error_exit_three(tmp_path, monkeypatch):
    import backwave.scenarios as S

    def boom(spec):
        raise RuntimeError("deliberate failure")

    monkeypatch.setitem(S.RUNNERS, "convergence", boom)
    out = tmp_path / "rt"
    code = main(["convergence", "--config", CONVERGENCE, "--out", str(out), "--quiet"])
    assert code == 3
    summary = json.load(open(out / "summary.json"))
    assert summary["status"] == "error"


def test_cli_crash_summary_carries_the_reports_error(tmp_path, monkeypatch):
    # the crash path writes its fail report as any bundle: the error block
    # is the report's own text, exception type included
    import backwave.scenarios as S

    def boom(spec):
        raise RuntimeError("deliberate failure")

    monkeypatch.setitem(S.RUNNERS, "convergence", boom)
    out = tmp_path / "crash"
    assert main(["convergence", "--config", CONVERGENCE, "--out", str(out), "--quiet"]) == 3
    summary = json.load(open(out / "summary.json"))
    assert summary["passed"] is False
    assert summary["error"] == {"stage": "convergence",
                                "message": "RuntimeError: deliberate failure"}
    assert summary["config"] == {"scenario": "convergence", "h": 0.1, "cfl": 0.5}


def test_cli_unknown_command():
    assert main(["frobnicate"]) == 2


def test_cli_reference_homogeneous_passes(tmp_path):
    # the shipped reference run completes with every item passing: exit 0
    # and a full bundle
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "homogeneous.cfg")
    out = tmp_path / "ref"
    assert main(["homogeneous", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert os.path.exists(out / "series.csv")
    assert os.path.exists(out / "summary.json")


def test_config_hash_identifies_the_physics(tmp_path):
    # the same document hashes the same; a physics change changes the hash
    assert parse_config(MINIMAL).config_hash() == parse_config(MINIMAL).config_hash()
    finer = parse_config(MINIMAL + "[grid]\nh = 0.05\n")
    assert finer.config_hash() != parse_config(MINIMAL).config_hash()
    # no flag or key exists that could change the hash without changing the run
    for flag in (["--threads", "4"], ["--seed", "1"]):
        assert main(["convergence", "--config", CONVERGENCE, "--out", str(tmp_path / "v"),
                     "--quiet", *flag]) == 2
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text(MINIMAL.replace("t0 = 2", "t0 = 2\nseed = 3"))
    assert main(["homogeneous", "--config", str(cfg), "--out", str(tmp_path / "s"),
                 "--quiet"]) == 2


def test_config_hash_covers_only_the_fields_the_pipeline_reads():
    # audit never reads T: one run, one hash, whatever T is; h it reads
    text = (CONFIGS / "audit.cfg").read_text(encoding="utf-8")
    hashes = {parse_config(text.replace("scenario = audit", f"scenario = audit\nT = {T}"))
              .config_hash() for T in (40, 50)}
    assert len(hashes) == 1
    assert parse_config(text.replace("h = 0.1", "h = 0.05")).config_hash() not in hashes


def test_reference_configs_set_only_keys_their_pipeline_reads():
    for path in sorted(CONFIGS.glob("*.cfg")):
        text = path.read_text(encoding="utf-8")
        fields = {_MODE_FIELDS.get(section) or ("check_points" if key.startswith("check_point")
                                                else KEYS[section, key][0])
                  for section, key, _value, _line in _parse_lines(text)}
        assert fields - {"scenario"} <= set(FIELDS[parse_config(text).scenario]), path.name
