"""Output bundle writers: series CSV, summary JSON, gnuplot scripts.

A bundle directory holds:

    summary.json    config (the run's scenario and the fields its pipeline
                    reads), items {name, kind, measured, lo, hi, passed,
                    target, note, ...}, provenance and environment; always
                    written, with an error block when the report has one
    series.csv      one row per report time, one column per value the run
                    records: t first, then those of FIXED_COLUMNS in its
                    order, then any other column by name; values formatted
                    with 17 significant digits so a re-parse is bit-exact
    plots/*.gp      self-contained gnuplot scripts (log-log decay plots
                    with target-slope guide lines), referencing only files
                    inside the bundle
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import asdict
from typing import Dict, List, Optional

import numpy as np

from backwave import __version__
from backwave.scenarios import ScenarioReport

# the order of the leading series columns; "flux_" stands for every flux_*
# column, by name
FIXED_COLUMNS = ["t", "energy_w1", "energy_w0", "norm_conf_plus", "norm_1_s_surrogate",
                 "flux_", "sup_envelope"]


def _fmt(x: float) -> str:
    if x != x:  # nan
        return "nan"
    return f"{float(x):.17g}"


def _column_rank(key: str):
    lead = "flux_" if key.startswith("flux_") else key
    return (FIXED_COLUMNS.index(lead) if lead in FIXED_COLUMNS else len(FIXED_COLUMNS), key)


def series_columns(report: ScenarioReport) -> List[str]:
    """t and every column some series row records, in FIXED_COLUMNS order."""
    return sorted({"t"}.union(*(fr.values for fr in report.series)), key=_column_rank)


def write_series_csv(report: ScenarioReport, path: str) -> List[str]:
    cols = series_columns(report)
    rows = sorted(report.series, key=lambda fr: fr.t)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for fr in rows:
            vals = [fr.t] + [fr.values.get(c, float("nan")) for c in cols[1:]]
            fh.write(",".join(_fmt(v) for v in vals) + "\n")
    return cols


def environment_block() -> Dict[str, str]:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "package_version": __version__,
    }


def write_summary_json(report: ScenarioReport, path: str) -> dict:
    payload = {
        "scenario": report.name,
        "status": report.status,
        "passed": bool(report.passed),
        "items": [asdict(it) for it in report.items],
        "provenance": report.provenance,
        "environment": environment_block(),
        "config": report.spec,
    }
    if report.error:
        payload["error"] = {"stage": report.name, "message": report.error}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return payload


def emit_plot_script(bundle_dir: str, report: ScenarioReport) -> Optional[str]:
    """One gnuplot script per bundle: log-log decay panels with guide slopes."""
    if not report.series:
        return None
    cols = series_columns(report)
    plots_dir = os.path.join(bundle_dir, "plots")
    os.makedirs(plots_dir, exist_ok=True)
    path = os.path.join(plots_dir, f"{report.name}_decay.gp")
    fit_items = [it for it in report.items if it.kind == "fit" and it.target is not None]
    lines = [
        "# log-log decay series with target-slope guides",
        "set terminal pngcairo size 900,600",
        f"set output 'plots/{report.name}_decay.png'",
        "set logscale xy",
        "set xlabel 't'",
        "set key left bottom",
        "set datafile separator ','",
    ]
    plot_parts = []
    for name in ("energy_v", "norm_conf_plus", "norm_1_s_surrogate", "sup_envelope",
                 "source_norm_s", "difference_energy_at_t0"):
        if name in cols:
            idx = cols.index(name) + 1
            plot_parts.append(f"'series.csv' using 1:{idx} skip 1 with linespoints title '{name}'")
    for it in fit_items:
        plot_parts.append(f"{max(abs(it.measured), 1e-12):.6g} * (x/10.0)**({it.target:.6g}) "
                          f"with lines dashtype 2 title 'target slope {it.target:g}'")
    if not plot_parts:
        return None
    lines.append("plot " + ", \\\n     ".join(plot_parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_bundle(report: ScenarioReport, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    if report.series:
        write_series_csv(report, os.path.join(out_dir, "series.csv"))
        emit_plot_script(out_dir, report)
    return write_summary_json(report, os.path.join(out_dir, "summary.json"))
