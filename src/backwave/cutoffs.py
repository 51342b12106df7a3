"""Smooth monotone cutoff functions with exact first and second derivatives.

The transition is built from the standard mollifier bump B(x) = exp(-1/x)
(x > 0, else 0) through the smooth step

    sigma(x) = B(x) / (B(x) + B(1-x)),

which is identically 0 for x <= 0, identically 1 for x >= 1, infinitely
differentiable and strictly monotone in between, with sigma(1/2) = 1/2.
A :class:`Cutoff` rescales sigma onto a transition interval [lower, upper]
in either orientation.  Two canonical instances are used throughout:

* ``chi_wave_zone``: 1 for s <= 1/8, 0 for s >= 1/4, decreasing.  Applied to
  s = <t-r>/r it restricts fields to the wave zone away from the origin.
* ``chi_exterior``: 0 for s <= 1, 1 for s >= 2, increasing.  Applied to
  s = r-t it switches on the exterior mass tail.

Derivatives are exact closed forms (quotient rule on sigma), not finite
differences; they feed the analytic wave-operator residual formulas.
:meth:`Cutoff.derivative` gives the first derivative; :meth:`Cutoff.terms`
gives the value and both derivatives from one pass over the two bumps
B(x), B(1-x), its value and first derivative equal to the separate calls
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EXP_FLOOR = -700.0  # exp argument below which the result underflows to 0


def _bump(x):
    """B(x) = exp(-1/x) for x > 0, else 0; safe for array input."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    arg = np.full_like(x, _EXP_FLOOR)
    np.divide(-1.0, x, out=arg, where=pos)
    good = pos & (arg > _EXP_FLOOR)
    out[good] = np.exp(arg[good])
    return out


def _smooth_step_terms(x, order: int):
    """[sigma, ..., sigma^(order)] at the 1-D array x, order <= 2, from one
    pair of bumps: sigma = N/D with N = B(x), D = B(x) + B(1-x), B' = B/x^2,
    B'' = B(1/x^4 - 2/x^3), N' = sigma' D + sigma D' and
    N'' = sigma'' D + 2 sigma' D' + sigma D''."""
    inside = (x > 0) & (x < 1)
    out = [np.where(x >= 1, 1.0, 0.0)] + [np.zeros_like(x) for _ in range(order)]
    if np.any(inside):
        xi = x[inside]
        yi = 1.0 - xi
        n = _bump(xi)
        m = _bump(yi)
        d = n + m
        s = n / d
        out[0][inside] = s
        if order >= 1:
            n1 = n / xi**2
            dd1 = n1 - m / yi**2
            s1 = (n1 - s * dd1) / d
            out[1][inside] = s1
            if order >= 2:
                n2 = n * (1.0 / xi**4 - 2.0 / xi**3)
                dd2 = n2 + m * (1.0 / yi**4 - 2.0 / yi**3)
                out[2][inside] = (n2 - 2.0 * s1 * dd1 - s * dd2) / d
    return out


def smooth_step(x, order: int = 0):
    """sigma(x) (order 0) or its first derivative (order 1)."""
    if order not in (0, 1):
        raise ValueError(f"smooth_step gives orders 0 and 1 only, got {order}")
    x = np.asarray(x, dtype=float)
    out = _smooth_step_terms(np.atleast_1d(x), order)[order]
    return float(out[0]) if x.ndim == 0 else out


@dataclass(frozen=True)
class Cutoff:
    """Smooth monotone cutoff with transition on [lower, upper].

    ``orientation='decreasing'``: 1 for s <= lower, 0 for s >= upper.
    ``orientation='increasing'``: 0 for s <= lower, 1 for s >= upper.
    """

    lower: float
    upper: float
    orientation: str = "decreasing"

    def __post_init__(self):
        if not self.upper > self.lower:
            raise ValueError("cutoff transition interval must have upper > lower")
        if self.orientation not in ("decreasing", "increasing"):
            raise ValueError(f"unknown cutoff orientation {self.orientation!r}")

    @property
    def _width(self) -> float:
        return self.upper - self.lower

    def _unit(self, s):
        """(x, dx/ds) with x the smooth_step variable: 1 where the cutoff is 1."""
        s = np.asarray(s, dtype=float)
        if self.orientation == "decreasing":
            return (self.upper - s) / self._width, -1.0 / self._width
        return (s - self.lower) / self._width, 1.0 / self._width

    def value(self, s):
        return smooth_step(self._unit(s)[0])

    def derivative(self, s):
        """d/ds of the cutoff."""
        x, step = self._unit(s)
        return step * smooth_step(x, order=1)

    def terms(self, s):
        """Value, first and second derivative at the array s in one pass."""
        x, step = self._unit(s)
        c, c1, c2 = _smooth_step_terms(np.atleast_1d(x), 2)
        return c, step * c1, step ** 2 * c2


# chi: wave-zone localizer, chi(s) = 1 for s <= 1/8, 0 for s >= 1/4.
chi_wave_zone = Cutoff(lower=0.125, upper=0.25, orientation="decreasing")

# chi_e: exterior mass switch, chi_e(s) = 0 for s <= 1, 1 for s >= 2.
chi_exterior = Cutoff(lower=1.0, upper=2.0, orientation="increasing")
