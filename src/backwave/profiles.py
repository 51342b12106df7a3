"""One-dimensional profiles of the retarded coordinate q = r - t.

A profile carries the q-dependence of one spherical-harmonic mode of a
radiation field.  Supported kinds:

* ``gaussian``        A exp(-((q-c)/w)^2)
* ``poly-tail``       A (1 + ((q-c)/w)^2)^(-p/2)
* ``compact-bump``    A e exp(-1/(1 - x^2)) on |x| < 1 (x = (q-c)/w), zero
                      outside

built from config descriptors by :func:`make_profile`, plus two kinds the
package builds directly: ``sampled`` (cubic-spline interpolation of a
uniformly spaced table, zero outside) and ``antiderivative`` (the
second-order field derived from a base profile: value scale * int_0^q base,
derivative scale * base).

A profile carries its value and its first q-derivative, both in closed
form for the analytic kinds; nothing is finite-differenced.
"""

from __future__ import annotations

import math

import numpy as np

# relative level below which a profile counts as outside its support
SUPPORT_TOL = 1e-16


class ProfileError(ValueError):
    """Invalid profile specification or evaluation request."""


def qbracket(q):
    """<q> = (1 + q^2)^(1/2)."""
    q = np.asarray(q, dtype=float)
    return np.sqrt(1.0 + q * q)


class Profile:
    """Evaluable mode profile with its exact first derivative.

    Subclasses implement ``_value`` and ``_derivative``; users go through
    :meth:`value` and :meth:`derivative`.
    """

    kind = "abstract"

    @staticmethod
    def _promote(q):
        q = np.asarray(q, dtype=float)
        return (np.atleast_1d(q), True) if q.ndim == 0 else (q, False)

    def value(self, q):
        arr, scalar = self._promote(q)
        out = self._value(arr)
        return float(out[0]) if scalar else out

    def derivative(self, q):
        """d/dq of the profile."""
        arr, scalar = self._promote(q)
        out = self._derivative(arr)
        return float(out[0]) if scalar else out

    def support_radius(self) -> float:
        """|q - center| beyond which |profile| <= SUPPORT_TOL * amplitude scale."""
        raise NotImplementedError

    @property
    def center(self) -> float:
        return getattr(self, "_center", 0.0)

    def amplitude_scale(self) -> float:
        return getattr(self, "_amplitude", 1.0)


class GaussianProfile(Profile):
    kind = "gaussian"

    def __init__(self, amplitude: float = 1.0, width: float = 1.0, center: float = 0.0):
        if not (np.isfinite(amplitude) and np.isfinite(width) and np.isfinite(center)):
            raise ProfileError("gaussian parameters must be finite")
        if width <= 0:
            raise ProfileError("gaussian width must be positive")
        self._amplitude = float(amplitude)
        self._width = float(width)
        self._center = float(center)

    def _value(self, q):
        x = (q - self._center) / self._width
        return self._amplitude * np.exp(-x * x)

    def _derivative(self, q):
        x = (q - self._center) / self._width
        return -self._amplitude * (2.0 * x) * np.exp(-x * x) / self._width

    def support_radius(self) -> float:
        return self._width * math.sqrt(max(-math.log(SUPPORT_TOL), 1.0)) + 1.0


class PolyTailProfile(Profile):
    """A (1 + ((q-c)/w)^2)^(-p/2); the run's gamma must satisfy p > gamma."""

    kind = "poly-tail"

    def __init__(self, amplitude: float = 1.0, p: float = 1.0, center: float = 0.0,
                 scale: float = 1.0):
        if p <= 0 or not np.isfinite(p):
            raise ProfileError("poly-tail decay exponent must be positive and finite")
        if scale <= 0:
            raise ProfileError("poly-tail scale must be positive")
        self._amplitude = float(amplitude)
        self._p = float(p)
        self._center = float(center)
        self._scale = float(scale)

    @property
    def decay_exponent(self) -> float:
        return self._p

    def _value(self, q):
        x = (q - self._center) / self._scale
        return self._amplitude * (1.0 + x * x) ** (-self._p / 2.0)

    def _derivative(self, q):
        # 2 b0 x (1+x^2)^(b0-1) / w with b0 = -p/2; the leading 0.0 + turns
        # the -0.0 at x = 0 into +0.0
        x = (q - self._center) / self._scale
        b0 = -self._p / 2.0
        return self._amplitude * (0.0 + 2.0 * b0 * x * (1.0 + x * x) ** (b0 - 1)) / self._scale

    def support_radius(self) -> float:
        return max(self._scale * SUPPORT_TOL ** (-1.0 / self._p), 10.0)


class CompactBumpProfile(Profile):
    """A e exp(-1/(1-x^2)) on |x| < 1, x = (q-c)/w; identically zero outside."""

    kind = "compact-bump"

    def __init__(self, amplitude: float = 1.0, width: float = 1.0, center: float = 0.0):
        if width <= 0:
            raise ProfileError("compact-bump width must be positive")
        self._amplitude = float(amplitude)
        self._width = float(width)
        self._center = float(center)

    def _core(self, x):
        sup = 1.0 - x * x
        out = np.zeros_like(x)
        inside = sup > 1e-12
        out[inside] = np.exp(1.0 - 1.0 / sup[inside])
        return out, inside, sup

    def _value(self, q):
        x = (q - self._center) / self._width
        core, _, _ = self._core(x)
        return self._amplitude * core

    def _derivative(self, q):
        # -2 x (1-x^2)^(-2) times the core, over w; 0.0 + keeps +0.0 at x = 0
        x = (q - self._center) / self._width
        core, inside, sup = self._core(x)
        total = np.zeros_like(x)
        total[inside] = core[inside] * (0.0 + -2.0 * x[inside] * sup[inside] ** -2.0)
        return self._amplitude * total / self._width

    def support_radius(self) -> float:
        return self._width + 1.0


# the cubic B-spline's inverse filter sqrt(3) z^|m|, cut where |z|^m < 1e-18
# (built without a numpy ufunc call, which would page in code at import);
# and the stencil of a cubic spline's third-derivative jump at a knot
_Z = math.sqrt(3.0) - 2.0
_TAPS = np.array([math.sqrt(3.0) * _Z ** abs(m) for m in range(-32, 33)])
_D4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0])


class SampledProfile(Profile):
    """Not-a-knot cubic-spline interpolation of a table on a uniform q grid;
    zero outside the table.

    The cubic B-spline coefficients c of the interpolant (c[i-1] + 4 c[i] +
    c[i+1]) / 6 = values[i] come from one convolution of the table, extended
    point-symmetrically past its ends, with the inverse filter
    sqrt(3) z^|m|, z = sqrt(3) - 2, truncated where |z|^m is below rounding
    (M. Unser, "Splines: a perfect fit for signal and image processing",
    IEEE Signal Processing Magazine 16(6), 1999).  Adding the two solutions
    of the homogeneous recursion that decay away from either end then makes
    the third derivative continuous at the second and the next-to-last knot
    (the not-a-knot end conditions).  Each cell is one cubic in its local
    coordinate, evaluated by Horner's rule.
    """

    kind = "sampled"

    def __init__(self, q_grid, values):
        q_grid = np.asarray(q_grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if q_grid.ndim != 1 or q_grid.size < 4 or q_grid.shape != values.shape:
            raise ProfileError("sampled profile needs matching 1-D q grid and values, >= 4 points")
        step = (q_grid[-1] - q_grid[0]) / (q_grid.size - 1)
        uniform = q_grid[0] + step * np.arange(q_grid.size)
        if not (step > 0.0 and np.max(np.abs(q_grid - uniform)) <= 1e-9 * step):
            raise ProfileError("sampled profile q grid must be uniform and increasing")
        pad = _TAPS.size // 2 + 1
        c = np.convolve(np.pad(values, pad, mode="reflect", reflect_type="odd"),
                        _TAPS, mode="valid")             # c[-1] .. c[n]
        decay = _Z ** np.arange(min(c.size, 64))         # z^64 < 1e-36: the rest is 0
        homog = np.zeros((2, c.size))                    # z^i and z^(n+1-i), i = 0 .. n+1
        homog[0, :decay.size] = decay
        homog[1, c.size - decay.size:] = decay[::-1]

        def end_jumps(v):
            return np.stack([v[..., :5] @ _D4, v[..., -5:] @ _D4], axis=-1)

        c = c + np.linalg.solve(end_jumps(homog).T, -end_jumps(c)) @ homog
        cm, c0, c1, c2 = c[:-3], c[1:-2], c[2:-1], c[3:]
        # Horner coefficients of each cell's cubic in u = (q - q_i) / step, a row each
        self._cells = np.stack([(cm + 4.0 * c0 + c1) / 6.0, 0.5 * (c1 - cm),
                                0.5 * (cm - 2.0 * c0 + c1), (c2 - cm + 3.0 * (c0 - c1)) / 6.0])
        self._q = q_grid
        self._step = step
        self._amplitude = float(np.max(np.abs(values))) or 1.0
        self._center = float(0.5 * (q_grid[0] + q_grid[-1]))

    def _eval(self, q, nu):
        t = (q - self._q[0]) / self._step
        i = np.clip(t, 0, self._q.size - 2).astype(np.intp)
        u = (q - self._q[i]) / self._step
        a0, a1, a2, a3 = (row[i] for row in self._cells)
        if nu == 0:
            out = a0 + u * (a1 + u * (a2 + u * a3))
        else:
            out = (a1 + u * (2.0 * a2 + 3.0 * u * a3)) / self._step
        return np.where((t >= 0.0) & (t <= self._q.size - 1), out, 0.0)

    def _value(self, q):
        return self._eval(q, 0)

    def _derivative(self, q):
        return self._eval(q, 1)

    def support_radius(self) -> float:
        return float(max(abs(self._q[0] - self._center), abs(self._q[-1] - self._center))) + 1.0


class AntiderivativeProfile(Profile):
    """scale * int_0^q base(q') dq', with derivative scale * base.

    The value is a cumulative Gauss-Legendre table at the knots (spacing
    1/16 or finer, at least 1024 cells on [-q_max, q_max]) plus an exact
    local Gauss-Legendre correction from the nearest knot, so evaluation
    error is at quadrature level anywhere inside the table.  The value is
    defined on the table only: |q| > q_max raises :class:`ProfileError`, so
    callers size q_max past their grid.
    """

    kind = "antiderivative"

    _XG8, _WG8 = np.polynomial.legendre.leggauss(8)

    def __init__(self, base: Profile, scale: float, q_max: float):
        self._base = base
        self._scale = float(scale)
        q_max = float(q_max)
        n = int(max(q_max * 16.0, 512)) + 1
        knots = np.linspace(-q_max, q_max, 2 * n - 1)
        self._table_edge = q_max
        self._knots = knots
        mid = 0.5 * (knots[:-1] + knots[1:])
        half = 0.5 * np.diff(knots)
        samples = mid[:, None] + half[:, None] * self._XG8[None, :]
        pieces = (base.value(samples) * self._WG8[None, :]).sum(axis=1) * half
        cum = np.concatenate([[0.0], np.cumsum(pieces)])
        self._cum = cum - np.interp(0.0, knots, cum)   # unscaled, zero at q=0
        self._amplitude = float(np.max(np.abs(self._scale * self._cum))) or 1.0
        self._center = 0.0

    def _value(self, q):
        inside = np.abs(q) <= self._table_edge
        if not np.all(inside):
            raise ProfileError(f"antiderivative evaluated at q = {float(q[~inside][0])}, "
                               f"outside its table |q| <= {self._table_edge}")
        k = np.clip(np.searchsorted(self._knots, q, side="right") - 1,
                    0, self._knots.size - 2)
        a = self._knots[k]
        mid = 0.5 * (a + q)
        half = 0.5 * (q - a)
        samples = mid[..., None] + half[..., None] * self._XG8
        local = (self._base.value(samples) * self._WG8).sum(axis=-1) * half
        return self._scale * (self._cum[k] + local)

    def _derivative(self, q):
        return self._scale * self._base.value(q)

    def support_radius(self) -> float:
        # the antiderivative generically tends to nonzero constants
        return self._table_edge

    @property
    def base(self) -> Profile:
        return self._base


_KINDS = {
    "gaussian": GaussianProfile,
    "poly-tail": PolyTailProfile,
    "compact-bump": CompactBumpProfile,
}


def make_profile(spec: dict) -> Profile:
    """Build a profile from a descriptor dict.

    ``spec`` holds ``kind`` plus kind-specific parameters: amplitude/width/
    center for gaussian and compact-bump, amplitude/p/center/scale for
    poly-tail.  Whether a poly-tail decays fast enough for
    the decay class gamma is checked by ``RunSpec.field_from``.
    """
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _KINDS:
        raise ProfileError(f"unknown profile kind {kind!r}; expected one of {sorted(_KINDS)}")
    try:
        return _KINDS[kind](**spec)
    except TypeError as exc:
        raise ProfileError(f"bad parameters for {kind} profile: {exc}") from exc
