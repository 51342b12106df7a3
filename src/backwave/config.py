"""Line-oriented run-configuration documents.

Format: ``key = value`` lines grouped under ``[section]`` headers, with
``#`` comments and blank lines ignored.  Sections: [run], [data.F0],
[data.G0], [grid], [params], [acceptance].  Unknown sections or keys are
rejected, duplicate keys are reported with both line numbers, and all
physical parameters are range-checked while building the RunSpec.

Mode lines in a data section look like

    mode1 = l=2 m=0 kind=gaussian amplitude=1 width=1 center=0

Canonicalization (``canonical_text``) renders a RunSpec back to a sorted
document; parse(canonical(parse(text))) is the identity.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from backwave.scenarios import RunSpec, ScenarioError


class ConfigError(ValueError):
    pass


_SECTIONS = ("run", "data.F0", "data.G0", "grid", "params", "acceptance")

_RUN_KEYS = {"scenario", "T", "t0", "T_list", "records"}
_GRID_KEYS = {"h", "cfl", "l_max"}
_PARAM_KEYS = {"gamma", "s", "M", "mu", "a", "delta", "amplitude"}
_ACC_KEYS = {"exponent_tol", "envelope_budget", "hardy_budget", "ratio_budget",
             "bound_factor", "envelope_window", "fit_window"}

_PROFILE_KEYS = {"kind", "amplitude", "width", "center", "p", "scale"}


def _parse_lines(text: str):
    """(section, key, value, line_no) tuples with syntax validation."""
    out = []
    section = None
    seen: Dict[Tuple[str, str], int] = {}
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {idx}: malformed section header {raw.strip()!r}")
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"line {idx}: unknown section [{section}]; expected one of {_SECTIONS}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {idx}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {idx}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {idx}: empty key")
        prev = seen.get((section, key))
        if prev is not None:
            raise ConfigError(
                f"line {idx}: duplicate key {key!r} in [{section}] (first at line {prev})")
        seen[(section, key)] = idx
        out.append((section, key, value, idx))
    return out


def _to_float(key: str, value: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {line}: {key} must be a number, got {value!r}") from None


def _to_int(key: str, value: str, line: int) -> int:
    number = _to_float(key, value, line)
    if not number.is_integer():
        raise ConfigError(f"line {line}: {key} must be an integer, got {value!r}")
    return int(number)


def _to_pair(key: str, value: str, line: int) -> Tuple[float, float]:
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(f"line {line}: {key} takes two numbers, got {value!r}")
    return (_to_float(key, parts[0], line), _to_float(key, parts[1], line))


def _parse_mode(key: str, value: str, line: int) -> Tuple[int, int, dict]:
    spec: Dict[str, object] = {}
    l = m = None
    for token in value.split():
        if "=" not in token:
            raise ConfigError(f"line {line}: mode tokens must be name=value, got {token!r}")
        name, val = token.split("=", 1)
        if name == "l":
            l = _to_int(name, val, line)
        elif name == "m":
            m = _to_int(name, val, line)
        elif name == "kind":
            spec["kind"] = val
        elif name in _PROFILE_KEYS:
            spec[name] = _to_float(name, val, line)
        else:
            raise ConfigError(f"line {line}: unknown mode parameter {name!r}")
    if l is None or m is None or "kind" not in spec:
        raise ConfigError(f"line {line}: a mode needs at least l=, m= and kind=")
    return (l, m, spec)


def parse_config(text: str) -> RunSpec:
    """Parse and validate a configuration document into a RunSpec."""
    spec = RunSpec()
    f0, g0 = [], []
    check_points: List[Tuple[float, float]] = []
    for section, key, value, line in _parse_lines(text):
        if section in ("data.F0", "data.G0"):
            if key.startswith("mode"):
                (f0 if section == "data.F0" else g0).append(_parse_mode(key, value, line))
            else:
                raise ConfigError(f"line {line}: unknown key {key!r} in [{section}] "
                                  "(mode entries are named mode, mode1, mode2, ...)")
            continue
        if section == "run":
            if key not in _RUN_KEYS:
                raise ConfigError(f"line {line}: unknown key {key!r} in [run]")
            if key == "scenario":
                spec.scenario = value
            elif key == "T":
                spec.T = _to_float(key, value, line)
            elif key == "t0":
                spec.t0 = _to_float(key, value, line)
            elif key == "T_list":
                spec.T_list = [_to_float(key, v, line) for v in value.split()]
            elif key == "records":
                spec.n_records = _to_int(key, value, line)
        elif section == "grid":
            if key not in _GRID_KEYS:
                raise ConfigError(f"line {line}: unknown key {key!r} in [grid]")
            if key == "h":
                spec.h = _to_float(key, value, line)
            elif key == "cfl":
                spec.cfl = _to_float(key, value, line)
            elif key == "l_max":
                spec.l_max = _to_int(key, value, line)
        elif section == "params":
            if key not in _PARAM_KEYS:
                raise ConfigError(f"line {line}: unknown key {key!r} in [params]")
            setattr(spec, {"M": "mass"}.get(key, key), _to_float(key, value, line))
        elif section == "acceptance":
            if key.startswith("check_point"):
                check_points.append(_to_pair(key, value, line))
                continue
            if key not in _ACC_KEYS:
                raise ConfigError(f"line {line}: unknown key {key!r} in [acceptance]")
            if key == "envelope_window":
                spec.envelope_window = _to_pair(key, value, line)
            elif key == "fit_window":
                spec.fit_lo, spec.fit_hi = _to_pair(key, value, line)
            else:
                setattr(spec, key, _to_float(key, value, line))
    spec.f0_modes = f0
    spec.g0_modes = g0
    if check_points:
        spec.check_points = check_points
    try:
        spec.validate()
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    return spec


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def canonical_text(spec: RunSpec) -> str:
    """Render a RunSpec to canonical config text (sorted, normalized)."""
    lines = ["[run]", f"scenario = {spec.scenario}", f"T = {_fmt(spec.T)}",
             f"t0 = {_fmt(spec.t0)}"]
    if spec.T_list:
        lines.append("T_list = " + " ".join(_fmt(t) for t in spec.T_list))
    lines.append(f"records = {spec.n_records}")
    for name, modes in (("data.F0", spec.f0_modes), ("data.G0", spec.g0_modes)):
        if not modes:
            continue
        lines.append(f"[{name}]")
        for i, (l, m, prof) in enumerate(sorted(modes, key=lambda x: (x[0], x[1])), start=1):
            extras = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(prof.items()) if k != "kind")
            lines.append(f"mode{i} = l={l} m={m} kind={prof['kind']} {extras}".rstrip())
    lines += ["[grid]", f"h = {_fmt(spec.h)}", f"cfl = {_fmt(spec.cfl)}",
              f"l_max = {spec.l_max}"]
    lines += ["[params]", f"gamma = {_fmt(spec.gamma)}", f"s = {_fmt(spec.s)}",
              f"M = {_fmt(spec.mass)}", f"mu = {_fmt(spec.mu)}", f"a = {_fmt(spec.a)}",
              f"delta = {_fmt(spec.delta)}", f"amplitude = {_fmt(spec.amplitude)}"]
    lines += ["[acceptance]",
              f"exponent_tol = {_fmt(spec.exponent_tol)}",
              f"envelope_budget = {_fmt(spec.envelope_budget)}",
              f"hardy_budget = {_fmt(spec.hardy_budget)}",
              f"ratio_budget = {_fmt(spec.ratio_budget)}",
              f"bound_factor = {_fmt(spec.bound_factor)}",
              "envelope_window = " + " ".join(_fmt(x) for x in spec.envelope_window)]
    if spec.fit_lo is not None and spec.fit_hi is not None:
        lines.append(f"fit_window = {_fmt(spec.fit_lo)} {_fmt(spec.fit_hi)}")
    for i, (tc, rc) in enumerate(spec.check_points, start=1):
        lines.append(f"check_point{i} = {_fmt(tc)} {_fmt(rc)}")
    return "\n".join(lines) + "\n"
