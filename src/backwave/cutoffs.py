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


def _bump_d1(x):
    """B'(x) = B(x)/x^2 on x > 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = _bump(x[pos]) / x[pos] ** 2
    return out


def _bump_d2(x):
    """B''(x) = B(x)(1/x^4 - 2/x^3) on x > 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    out[pos] = _bump(xp) * (1.0 / xp**4 - 2.0 / xp**3)
    return out


def smooth_step(x, order: int = 0):
    """sigma(x) or its derivative of the given order (0, 1 or 2).

    sigma = N/D with N = B(x), D = B(x) + B(1-x).  The derivatives follow
    from N' = sigma' D + sigma D' and N'' = sigma'' D + 2 sigma' D' + sigma D''.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    inside = (x > 0) & (x < 1)
    val = np.where(x >= 1, 1.0, 0.0)
    d1 = np.zeros_like(x)
    d2 = np.zeros_like(x)
    if np.any(inside):
        xi = x[inside]
        n = _bump(xi)
        d = n + _bump(1.0 - xi)
        s = n / d
        val[inside] = s
        if order >= 1:
            n1 = _bump_d1(xi)
            dd1 = n1 - _bump_d1(1.0 - xi)
            s1 = (n1 - s * dd1) / d
            d1[inside] = s1
            if order >= 2:
                n2 = _bump_d2(xi)
                dd2 = n2 + _bump_d2(1.0 - xi)
                d2[inside] = (n2 - 2.0 * s1 * dd1 - s * dd2) / d
    if order == 0:
        out = val
    elif order == 1:
        out = d1
    elif order == 2:
        out = d2
    else:
        raise ValueError(f"smooth_step derivatives available up to order 2, got {order}")
    return float(out[0]) if scalar else out


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

    def value(self, s):
        if self.orientation == "decreasing":
            return smooth_step((self.upper - np.asarray(s, dtype=float)) / self._width)
        return smooth_step((np.asarray(s, dtype=float) - self.lower) / self._width)

    def derivative(self, s, order: int = 1):
        """d^order/ds^order of the cutoff, order in {1, 2}."""
        w = self._width
        if self.orientation == "decreasing":
            x = (self.upper - np.asarray(s, dtype=float)) / w
            sign = (-1.0 / w) ** order
        else:
            x = (np.asarray(s, dtype=float) - self.lower) / w
            sign = (1.0 / w) ** order
        return sign * smooth_step(x, order=order)


# chi: wave-zone localizer, chi(s) = 1 for s <= 1/8, 0 for s >= 1/4.
chi_wave_zone = Cutoff(lower=0.125, upper=0.25, orientation="decreasing")

# chi_e: exterior mass switch, chi_e(s) = 0 for s <= 1, 1 for s >= 2.
chi_exterior = Cutoff(lower=1.0, upper=2.0, orientation="increasing")
