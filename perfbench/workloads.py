"""Benchmark workloads: their configs, their seeded inputs and the checks
their outputs must pass.

Every budget below is written here, from the workload's own config, and
none is read back from the bundle: a pipeline that loosened its own pass
rule would still be held to these.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))

# workload -> CLI subcommand
COMMANDS = {
    "homogeneous": "homogeneous",
    "tlimit": "tlimit",
    "weaknull_small": "weaknull",
    "backscatter": "backscatter",
}

# Seeds other than 0 scale the F0 amplitude by a factor in
# [1 - AMPLITUDE_SPREAD, 1 + AMPLITUDE_SPREAD] and shift its centre by up
# to CENTER_SHIFT.  Every item of every workload passes at the corners of
# this box (see README).
AMPLITUDE_SPREAD = 0.1
CENTER_SHIFT = 0.1

_MODE_RE = re.compile(r"(?m)^(mode\d*\s*=\s*)(.*)$")


def config_text(workload: str, seed: int) -> str:
    """The workload's config; seed 0 is the file as listed."""
    with open(os.path.join(HERE, "configs", f"{workload}.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    if seed == 0:
        return text
    rng = random.Random(seed)
    factor = rng.uniform(1.0 - AMPLITUDE_SPREAD, 1.0 + AMPLITUDE_SPREAD)
    shift = rng.uniform(-CENTER_SHIFT, CENTER_SHIFT)
    return perturb_f0(text, factor, shift)


def perturb_f0(text: str, factor: float, shift: float) -> str:
    """Scale the amplitude and shift the centre of every [data.F0] mode."""
    head, sep, rest = text.partition("[data.F0]")
    body, nxt, tail = rest.partition("\n[")

    def edit(m):
        fields = dict(kv.split("=", 1) for kv in m.group(2).split())
        fields["amplitude"] = repr(float(fields.get("amplitude", 1.0)) * factor)
        fields["center"] = repr(float(fields.get("center", 0.0)) + shift)
        return m.group(1) + " ".join(f"{k}={v}" for k, v in fields.items())

    return head + sep + _MODE_RE.sub(edit, body) + nxt + tail


def read_config(text: str) -> dict:
    """{section: {key: value}} of a config document (values as strings)."""
    out, section = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
            out.setdefault(section, {})
        else:
            key, value = (x.strip() for x in line.split("=", 1))
            out[section][key] = value
    return out


def f0_modes(cfg: dict):
    return [dict(kv.split("=", 1) for kv in v.split())
            for k, v in cfg.get("data.F0", {}).items() if k.startswith("mode")]


def data_class(cfg: dict) -> float:
    """Decay class the F0 data realize: min(p, 1) for a poly-tail mode of
    l >= 1, 1 for any other l >= 1 mode (its F1 tends to a nonzero constant)."""
    classes = [min(float(m["p"]), 1.0) if m["kind"] == "poly-tail" else 1.0
               for m in f0_modes(cfg) if int(m["l"]) >= 1]
    return min(classes)


def _f(cfg, section, key, default):
    return float(cfg.get(section, {}).get(key, default))


def item_rules(workload: str, cfg: dict):
    """item name -> (kind, lo, hi): the item must be of that kind and its
    measured value lie in [lo, hi]; kind 'check' items must also pass."""
    gamma = _f(cfg, "params", "gamma", 0.8)
    s = _f(cfg, "params", "s", 1.2)
    tol = _f(cfg, "acceptance", "exponent_tol", 0.15)
    bound = _f(cfg, "acceptance", "bound_factor", 5.0)
    ratio = _f(cfg, "acceptance", "ratio_budget", 10.0)
    inf = math.inf
    # a fit over a window too short to resolve a shallow rate degrades to a
    # non-increase bound: max/ref <= 1.2
    nonincrease = ("bound", -inf, 1.2)
    if workload == "homogeneous":
        g = data_class(cfg)

        def band(rate):
            return ("fit", rate(g) - tol, rate(gamma) + tol)

        return {
            "source_norm_exponent": band(lambda c: -(1.5 + c - s)),
            "energy_exponent": band(lambda c: -(0.5 + c)),
            "conformal_norm_exponent": nonincrease,
            "norm_1s_bounded": ("bound", -inf, bound),
            "envelope_bounded": ("bound", -inf, bound),
            "backward_estimate_constant": ("bound", -inf, ratio),
        }
    if workload == "tlimit":
        return {
            "difference_monotone_decreasing": ("check", -inf, inf),
            "difference_ratio_per_doubling": ("bound", -inf, -1.5),
            "difference_rate_consistent": ("check", -inf, -(0.5 + gamma) + 0.5),
        }
    if workload == "weaknull_small":
        return {
            "w_norm_exponent": nonincrease,
            "w_envelope_bounded": ("bound", -inf, _f(cfg, "acceptance", "envelope_budget", 5.0)),
            "interior_box_crosscheck": ("bound", -inf, 1e-2),
        }
    if workload == "backscatter":
        rules = {"phi2_vs_bruteforce": ("bound", -inf, 1e-4),
                 "phi2_asymptotic_remainder": ("bound", -inf, ratio)}
        for k in (2, 3, 4):
            rules[f"envelope_k{k}"] = ("bound", -inf, ratio)
            rules[f"source_residual_k{k}"] = ("bound", -inf, 1e-2)
        return rules
    raise KeyError(workload)


def read_series(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_bundle(workload: str, cfg_text: str, bundle: str):
    """Problems found in one pipeline's bundle; empty when it is correct."""
    cfg = read_config(cfg_text)
    with open(os.path.join(bundle, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    problems = []
    if summary.get("status") != "ok":
        problems.append(f"status {summary.get('status')!r}")
    rules = item_rules(workload, cfg)
    items = {it["name"]: it for it in summary.get("items", [])}
    if set(items) != set(rules):
        problems.append(f"items {sorted(items)} != expected {sorted(rules)}")
    for name, (kind, lo, hi) in rules.items():
        it = items.get(name)
        if it is None:
            continue
        x = it["measured"]
        if it["kind"] != kind:
            problems.append(f"{name}: kind {it['kind']} != {kind}")
        if not (math.isfinite(x) and lo <= x <= hi):
            problems.append(f"{name}: measured {x!r} outside [{lo}, {hi}]")
        if kind == "check" and not it["passed"]:
            problems.append(f"{name}: check failed")
    if workload == "tlimit":
        rows = read_series(os.path.join(bundle, "series.csv"))
        diffs = [r["difference_energy_at_t0"] for r in sorted(rows, key=lambda r: r["t"])]
        if len(diffs) < 2:
            problems.append("tlimit: fewer than two Cauchy differences")
        for d1, d2 in zip(diffs, diffs[1:]):
            # as T doubles the difference must shrink, by at least 1.5x
            if not d2 * 1.5 <= d1:
                problems.append(f"tlimit: Cauchy difference {d2!r} after {d1!r}")
    return problems


def capture_items(bundle: str) -> dict:
    """Every report item's measured value, to 17 significant digits."""
    with open(os.path.join(bundle, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return {it["name"]: f"{float(it['measured']):.17g}" for it in summary.get("items", [])}
