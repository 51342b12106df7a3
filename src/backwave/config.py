"""Line-oriented run-configuration documents.

Format: ``key = value`` lines grouped under ``[section]`` headers, with
``#`` comments and blank lines ignored.  Sections: [run], [data.F0],
[data.G0], [grid], [params], [acceptance].  ``KEYS`` names every settable
key with the RunSpec field it fills and the reader of its value; data
sections hold mode lines, and [acceptance] may repeat ``check_pointN = t r``.
Unknown sections or keys are rejected, duplicate keys are reported with
both line numbers, numbers must be finite, ``[run] scenario`` is required,
and ``RunSpec.validate`` does every range check.  A known key whose field
the scenario's pipeline does not read (``scenarios.FIELDS``) is accepted;
it enters neither the config hash nor the report's echo.

Mode lines in a data section look like

    mode1 = l=2 m=0 kind=gaussian amplitude=1 width=1 center=0
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from backwave.scenarios import RunSpec, ScenarioError


class ConfigError(ValueError):
    pass


_SECTIONS = ("run", "data.F0", "data.G0", "grid", "params", "acceptance")

# data section -> RunSpec field holding its modes
_MODE_FIELDS = {"data.F0": "f0_modes", "data.G0": "g0_modes"}

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


def _to_text(_key: str, value: str, _line: int) -> str:
    return value


def _to_float(key: str, value: str, line: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"line {line}: {key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"line {line}: {key} must be a finite number, got {value!r}")
    return number


def _to_int(key: str, value: str, line: int) -> int:
    number = _to_float(key, value, line)
    if not number.is_integer():
        raise ConfigError(f"line {line}: {key} must be an integer, got {value!r}")
    return int(number)


def _to_floats(key: str, value: str, line: int) -> List[float]:
    return [_to_float(key, v, line) for v in value.split()]


def _to_pair(key: str, value: str, line: int) -> Tuple[float, float]:
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(f"line {line}: {key} takes two numbers, got {value!r}")
    return (_to_float(key, parts[0], line), _to_float(key, parts[1], line))


# (section, key) -> (RunSpec field, reader of the value)
KEYS = {
    ("run", "scenario"): ("scenario", _to_text),
    ("run", "T"): ("T", _to_float),
    ("run", "t0"): ("t0", _to_float),
    ("run", "T_list"): ("T_list", _to_floats),
    ("run", "records"): ("n_records", _to_int),
    ("grid", "h"): ("h", _to_float),
    ("grid", "cfl"): ("cfl", _to_float),
    ("grid", "l_max"): ("l_max", _to_int),
    ("params", "gamma"): ("gamma", _to_float),
    ("params", "s"): ("s", _to_float),
    ("params", "M"): ("mass", _to_float),
    ("params", "mu"): ("mu", _to_float),
    ("params", "a"): ("a", _to_float),
    ("params", "delta"): ("delta", _to_float),
    ("params", "amplitude"): ("amplitude", _to_float),
    ("acceptance", "exponent_tol"): ("exponent_tol", _to_float),
    ("acceptance", "envelope_budget"): ("envelope_budget", _to_float),
    ("acceptance", "bound_factor"): ("bound_factor", _to_float),
    ("acceptance", "envelope_window"): ("envelope_window", _to_pair),
}


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
    spec = RunSpec(scenario="")   # a document without [run] scenario fails validate
    for section, key, value, line in _parse_lines(text):
        if section in _MODE_FIELDS:
            if not key.startswith("mode"):
                raise ConfigError(f"line {line}: unknown key {key!r} in [{section}] "
                                  "(mode entries are named mode, mode1, mode2, ...)")
            getattr(spec, _MODE_FIELDS[section]).append(_parse_mode(key, value, line))
        elif section == "acceptance" and key.startswith("check_point"):
            spec.check_points.append(_to_pair(key, value, line))
        elif (section, key) in KEYS:
            field, read = KEYS[section, key]
            setattr(spec, field, read(key, value, line))
        else:
            raise ConfigError(f"line {line}: unknown key {key!r} in [{section}]")
    try:
        spec.validate()
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    return spec

