"""Command-line entry point.

Subcommands map one-to-one onto the scenario pipelines, and each run takes
a config whose ``[run] scenario`` names the subcommand:

    homogeneous   scattering from radiation data
    tlimit        data-horizon Cauchy study
    weaknull      coupled weak-null system
    nullradial    radial classical null-form model
    backscatter   retarded-kernel audit
    audit         estimate audit battery
    convergence   discrete-operator refinement study and solver gate

Exit codes: 0 all acceptance items pass; 1 run completed with failing
items; 2 configuration error (bad data sections and a config naming
another scenario included, found before any solve); 3 runtime error.  A
summary.json is always written to the output directory, with an error
block on failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback

from backwave.config import ConfigError, parse_config
from backwave.outputs import write_bundle
from backwave.scenarios import SCENARIOS, ScenarioReport, run_scenario, runner_for

EXIT_PASS = 0
EXIT_FAILURES = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="backwave",
        description="Backward-from-infinity wave scattering runs and estimate audits.",
        epilog="Config keys and defaults: see README (sections [run], [data.F0], "
               "[data.G0], [grid], [params], [acceptance]).")
    p.add_argument("command", choices=SCENARIOS)
    p.add_argument("--config", metavar="PATH", required=True,
                   help="run configuration file; its [run] scenario names the command")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output bundle directory (default: ./out_<command>)")
    p.add_argument("--quiet", action="store_true")
    return p


def main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error code
        return EXIT_CONFIG if exc.code else EXIT_PASS

    out_dir = args.out or f"out_{args.command}"
    try:
        with open(args.config, encoding="utf-8") as fh:
            spec = parse_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if spec.scenario != args.command:
        print(f"configuration error: {args.config} names scenario {spec.scenario!r}, "
              f"not {args.command!r}", file=sys.stderr)
        return EXIT_CONFIG

    runner_for(spec.scenario)   # imports the pipeline's module before the run
    try:
        report = run_scenario(spec)
    except Exception as exc:  # runtime failure: still write a summary
        fail = ScenarioReport(name=spec.scenario, spec=spec.declared(), status="error",
                              error=f"{type(exc).__name__}: {exc}")
        write_bundle(fail, out_dir)
        if not args.quiet:
            traceback.print_exc()
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    payload = write_bundle(report, out_dir)
    if not args.quiet:
        print(f"scenario: {report.name}  status: {payload['status']}")
        for it in report.items:
            flag = "PASS" if it.passed else "FAIL"
            lo = -math.inf if it.lo is None else it.lo
            hi = math.inf if it.hi is None else it.hi
            print(f"  [{flag}] {it.name}: measured={it.measured:.6g} in [{lo:g}, {hi:g}]")
        print(f"bundle: {out_dir}")
    if report.status != "ok":
        return EXIT_RUNTIME
    return EXIT_PASS if report.passed else EXIT_FAILURES


def console_entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
