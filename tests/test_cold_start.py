"""Cold-start guard, in a fresh interpreter per pipeline: no pipeline loads
scipy, which only the test oracles use."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

TINY_HOMOGENEOUS = """
[run]
scenario = homogeneous
T = 12
t0 = 2
records = 8

[data.F0]
mode1 = l=2 m=0 kind=gaussian amplitude=1

[grid]
h = 0.25

[params]
gamma = 0.8
"""

# a weak-null run small enough for a guard, with one crosscheck point so that
# the strata's kernel quadrature runs too
TINY_WEAKNULL = """
[run]
scenario = weaknull
T = 12
t0 = 2
records = 8

[data.F0]
mode1 = l=2 m=0 kind=poly-tail amplitude=2 p=0.85

[grid]
h = 0.25
l_max = 4

[params]
gamma = 0.8
s = 1.2
M = 0.02

[acceptance]
envelope_window = 4 8
check_point1 = 9.4 8
"""

TINY = {"homogeneous": TINY_HOMOGENEOUS, "weaknull": TINY_WEAKNULL}

# the CLI run, then the scipy modules the interpreter holds
RUN = """
import json, sys
from backwave.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _python(script, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command", ["convergence", "homogeneous", "weaknull", "backscatter"])
def test_pipelines_without_kernels_never_load_scipy(tmp_path, command):
    cfg = CONFIGS / f"{command}.cfg"
    if command in TINY:
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY[command], encoding="utf-8")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
    proc = _python(RUN, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert code in (0, 1)                      # the pipeline ran to its report
    assert (tmp_path / "out" / "summary.json").exists()
    assert scipy_modules == []
