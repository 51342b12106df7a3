"""Radiation fields at null infinity and their wave-zone approximants.

A radiation field F0 prescribes, mode by spherical-harmonic mode, the
leading 1/r profile of a wave along outgoing null directions: a
:class:`RadiationField`, the package's one map from (l, m) to a q-profile,
which also holds F1, the weak-null strata n_k and the backscatter news.
From F0 the module derives:

* the second-order correction F1, fixed per mode by
      F1_lm(q) = -(l(l+1)/2) int_0^q F0_lm,        F1_lm(0) = 0,
  which is the unique choice cancelling the leading interior error of the
  two-term expansion, and the decay class the data realize, read from F1's
  tail;
* the wave-zone approximants

      psi01 = (F0(r-t)/r + F1(r-t)/r^2) chi(<t-r>/r)
      psi_e = M chi_e(r-t)/r                  (exact solution for r > 0)

  and the exact time derivatives of psi01 and psi_e;
* the analytic residual of the wave operator applied to psi01, whose only
  surviving terms are supported on the cutoff transition ring plus the
  angular term -l(l+1) F1/r^4 inside the wave zone, and its weighted norm.

psi01, d_t psi01 and the residual come as stacks of shape
(len(f0.modes), r.size), one row per mode in ``f0.modes`` order.  Their
terms are computed only on the band <r-t>/r < 1/4, exact zeros off it, one
2-D pass per block of times (rows +0.0 off their own band).  The residual
and d_t psi01 take their blocks from ``engine.stage_rows``: given the
march's ``engine.StepSchedule``, a block of stage times is spread over r
once and each of its times returns a read-only view into it; without a
schedule a call is a block of one and returns the caller's own array.
psi_e and d_t psi_e live in the (0, 0) mode only and come from one call,
:func:`psi_e_terms`.  Fields are not modified once built.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from backwave.cutoffs import chi_exterior, chi_wave_zone
from backwave.engine import ModeKey, stage_rows
from backwave.profiles import AntiderivativeProfile, Profile, qbracket

SQRT4PI = math.sqrt(4.0 * math.pi)


class RadiationDataError(ValueError):
    """Inadmissible radiation field or approximant request."""


class RadiationField:
    """Map from (l, m) to a q-profile, modes sorted.  Coefficients of real
    harmonics are real, so a physical field's conjugate symmetry holds
    identically; config data are checked by ``scenarios.RunSpec.field_from``."""

    def __init__(self, modes: Dict[ModeKey, Profile]):
        self.modes = dict(sorted(modes.items()))

    def is_zero(self) -> bool:
        return not self.modes

    def ells(self) -> List[int]:
        return sorted({l for (l, _m) in self.modes})

    def support(self) -> Tuple[float, float]:
        """(lo, hi): the q-interval outside which every mode's profile is
        below its support tolerance; (0, 0) without modes."""
        if not self.modes:
            return (0.0, 0.0)
        ends = [(p.center, p.support_radius()) for p in self.modes.values()]
        return min(c - sr for c, sr in ends), max(c + sr for c, sr in ends)


def derive_F1(f0: RadiationField, q_max: float) -> RadiationField:
    """Second-order correction field: F1_lm = -(l(l+1)/2) int_0^q F0_lm.

    The l = 0 modes drop out (the angular Laplacian annihilates them).  Each
    integral is cached as a dense antiderivative profile on [-q_max, q_max]
    whose derivative is exactly the scaled F0.  Profiles whose tail
    integral does not converge are rejected.
    """
    out = {}
    for (l, m), prof in f0.modes.items():
        if l == 0:
            continue
        p = getattr(prof, "decay_exponent", None)
        if p is not None and p <= 0.5:
            # the second-order field would fail its own weighted norm bound
            raise RadiationDataError(
                f"mode ({l},{m}): poly-tail exponent {p} <= 1/2 makes the "
                "second-order field's weighted norm diverge"
            )
        out[(l, m)] = AntiderivativeProfile(prof, -0.5 * l * (l + 1.0), q_max=q_max)
    return RadiationField(out)


def realized_decay_class(f1: RadiationField) -> Optional[float]:
    """Decay class the data actually realize, read from the tail of F1.

    A poly-tail base of exponent p makes F1 grow like |q|^(1-p) for p < 1 and
    tend to a constant for p >= 1, so its mode realizes class min(p, 1).  Any
    other base whose F1 tends to a nonzero constant (|F1| at the table edge
    above 1e-10 times its sup) realizes the borderline class 1.  The
    field's class is the minimum over its modes; ``None`` when no mode of
    ``f1`` (the field returned by :func:`derive_F1`) has a tail.
    """
    classes = []
    for prof in f1.modes.values():
        edge = prof.support_radius()
        tail = max(abs(prof.value(-edge)), abs(prof.value(edge)))
        if tail > 1e-10 * prof.amplitude_scale():
            p = getattr(prof.base, "decay_exponent", None)
            classes.append(1.0 if p is None else min(p, 1.0))
    return min(classes, default=None)


# ---------------------------------------------------------------------------
# approximants and the analytic wave-operator residual
# ---------------------------------------------------------------------------

def _per_time(block, f0, f1, t, r, schedule):
    """The rows at t, one per mode of f0, of ``block(f0, f1, r, q, <q>, chi,
    chi', chi'')``, which yields each mode's values at a block of times ts on
    ``cols``, the union of their bands <r-t>/r < 1/4 (a contiguous slice of
    r; chi, chi', chi'' vanish off it), with q = r - t; each row is spread
    over r, +0.0 off its own band (``schedule``: see ``engine.stage_rows``)."""
    r = np.asarray(r, dtype=float)

    def spread(ts):
        if np.any(r <= 0.0):
            raise RadiationDataError("wave-zone terms require r > 0")
        inside = qbracket(r - ts[:, None]) / r < chi_wave_zone.upper
        hit = np.flatnonzero(inside.any(axis=0))
        cols = slice(hit[0], hit[-1] + 1) if hit.size else slice(0, 0)
        rb, q = r[cols], r[cols] - ts[:, None]
        br = qbracket(q)
        out = np.zeros((ts.size, len(f0.modes), r.size))
        for k, vals in enumerate(block(f0, f1, rb, q, br, *chi_wave_zone.terms(br / rb))):
            out[:, k, cols] = np.where(inside[:, cols], vals, 0.0)
        return out

    return stage_rows(schedule, (block, f0, f1), t, r, spread)


def eval_approximant(f0: RadiationField, f1: RadiationField, t: float, r) -> np.ndarray:
    """psi01's coefficients at (t, r), one row per mode of f0; ``r`` may be an
    array of positive radii."""
    return _per_time(_psi01_block, f0, f1, t, r, None)


def psi_e_terms(mass: float, t, r) -> Tuple[np.ndarray, np.ndarray]:
    """The (0, 0) coefficients of psi_e and d_t psi_e at (t, r), arrays
    broadcast against each other: +-M chi_e^(k)(r-t)/r sqrt(4 pi), so the
    physical value of psi_e is M chi_e/r."""
    c, cp, _cpp = chi_exterior.terms(r - t)
    return mass * c / r * SQRT4PI, -mass * cp / r * SQRT4PI


def _psi01_block(f0, f1, rb, q, _br, c, _cp, _cpp):
    for lm, prof in f0.modes.items():
        val = prof.value(q) / rb
        g = f1.modes.get(lm)
        if g is not None:
            val = val + g.value(q) / rb**2
        yield val * c


def eval_dt_psi01_exact(f0: RadiationField, f1: RadiationField, t: float, r,
                        schedule=None) -> np.ndarray:
    """Exact d/dt of psi01 (cutoff differentiated as well), one row per mode of f0.

    d_t psi01 = (-F0'/r - F1'/r^2) chi + (F0/r + F1/r^2) chi'(<q>/r) (t-r)/(<q> r).
    ``schedule``: the march's step schedule (module docstring).
    """
    return _per_time(_dt_psi01_block, f0, f1, t, r, schedule)


def _dt_psi01_block(f0, f1, rb, q, br, c, cp, _cpp):
    for lm, prof in f0.modes.items():
        g = f1.modes.get(lm)
        main = -prof.derivative(q) / rb
        amp = prof.value(q) / rb
        if g is not None:
            main = main - g.derivative(q) / rb**2
            amp = amp + g.value(q) / rb**2
        yield main * c + amp * cp * (-q) / (br * rb)


def residual_box_psi01(f0: RadiationField, f1: RadiationField, t: float, r,
                       schedule=None) -> np.ndarray:
    """Analytic wave-operator residual of psi01 (box = -d_t^2 + Lap), one row
    per mode of f0.

    With q = r - t, sigma = <q>/r, D = (d_r - d_t):

      box psi01 = -(2 F0'/r) chi'(sigma) <q>/r^2
                  - (F0/r) D[chi'(sigma) <q>/r^2]
                  - l(l+1) F1/r^4 chi(sigma)
                  - (2 F1'/r) chi'(sigma) <q>/r^3
                  - (F1/r) D[chi'(sigma) <q>/r^3 + chi(sigma)/r^2].

    Identically zero wherever the cutoff is constant and F1 vanishes; in the
    wave-zone interior only the -l(l+1) F1/r^4 term survives.  The formula
    already carries the cancellation 2 F1' = Lap_omega F0, so ``f1`` must be
    the field produced by :func:`derive_F1` from ``f0``.  ``schedule``: the
    march's step schedule (module docstring).
    """
    return _per_time(_residual_block, f0, f1, t, r, schedule)


def _residual_block(f0, f1, r, q, br, c, cp, cpp):
    for lm in f0.modes:
        if lm[0] > 0 and lm not in f1.modes:
            raise RadiationDataError(
                f"residual formula needs the derived second-order mode for {lm}; "
                "pass the field returned by derive_F1"
            )
    # D q = 2, D <q> = 2q/<q>, D sigma = 2q/(<q> r) - <q>/r^2, D r = 1
    dsigma = 2.0 * q / (br * r) - br / r**2
    # D[chi'(sigma) <q>/r^2] and D[chi'(sigma) <q>/r^3]
    d_cp_br_r2 = cpp * dsigma * br / r**2 + cp * (2.0 * q / (br * r**2) - 2.0 * br / r**3)
    d_cp_br_r3 = cpp * dsigma * br / r**3 + cp * (2.0 * q / (br * r**3) - 3.0 * br / r**4)
    d_c_r2 = cp * dsigma / r**2 - 2.0 * c / r**3
    for lm, prof in f0.modes.items():
        l = lm[0]
        f0v = prof.value(q)
        f0p = prof.derivative(q)
        res = -(2.0 * f0p / r) * cp * br / r**2 - (f0v / r) * d_cp_br_r2
        g = f1.modes.get(lm)
        if g is not None:
            gv = g.value(q)
            gp = g.derivative(q)
            res = res - l * (l + 1.0) * gv / r**4 * c
            res = res - (2.0 * gp / r) * cp * br / r**3
            res = res - (gv / r) * (d_cp_br_r3 + d_c_r2)
        yield res


def source_norm_weighted(f0: RadiationField, f1: RadiationField, t: float,
                         r: np.ndarray, s: float) -> float:
    """|| <t+r>^s box psi01(t, .) ||_L2 assembled on a radial grid (trapezoid)."""
    res = residual_box_psi01(f0, f1, t, r)
    w = (1.0 + (t + r) ** 2) ** s * r**2
    return math.sqrt(sum(np.trapezoid(vals * vals * w, r) for vals in res))
