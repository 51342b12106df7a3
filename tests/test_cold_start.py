"""Cold-start guards, each in a fresh interpreter: six pipelines never load
scipy, and the two that use it (weaknull, backscatter) load it while the CLI
sets the run up, before it calls the pipeline, so its import is never timed
as part of the run."""

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

# the CLI run, then the scipy modules the interpreter holds
RUN = """
import json, sys
from backwave.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

# the CLI up to its call into the pipeline, where a probe (as perfbench's
# worker installs one) reports which scipy modules are loaded and exits
PROBE = """
import json, sys
import backwave.cli as cli

def probe(spec):
    print(json.dumps(sorted(m for m in ("scipy.interpolate", "scipy.integrate")
                            if m in sys.modules)))
    raise SystemExit(7)

cli.run_scenario = probe
cli.main(sys.argv[1:])
"""


def _python(script, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command", ["validate", "convergence", "homogeneous"])
def test_pipelines_without_kernels_never_load_scipy(tmp_path, command):
    args = [command, "--out", str(tmp_path / "out"), "--quiet"]
    if command == "convergence":
        args += ["--config", str(CONFIGS / "convergence.cfg")]
    elif command == "homogeneous":
        (tmp_path / "tiny.cfg").write_text(TINY_HOMOGENEOUS, encoding="utf-8")
        args += ["--config", str(tmp_path / "tiny.cfg")]
    proc = _python(RUN, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert code in (0, 1)                      # the pipeline ran to its report
    assert scipy_modules == []


@pytest.mark.parametrize("command", ["weaknull", "backscatter"])
def test_kernel_pipelines_load_scipy_before_the_pipeline_call(tmp_path, command):
    args = [command, "--config", str(CONFIGS / f"{command}.cfg"),
            "--out", str(tmp_path / "out"), "--quiet"]
    proc = _python(PROBE, args, tmp_path)
    assert proc.returncode == 7, proc.stderr   # stopped at the call, nothing ran
    assert json.loads(proc.stdout) == ["scipy.integrate", "scipy.interpolate"]
    assert not (tmp_path / "out").exists()
