"""One-dimensional profiles of the retarded coordinate q = r - t.

A profile carries the q-dependence of one spherical-harmonic mode of a
radiation field.  Supported kinds:

* ``gaussian``        A exp(-((q-c)/w)^2), derivatives via Hermite recurrence
* ``poly-tail``       A (1 + (q-c)^2)^(-p/2), derivatives via a closed term
                      algebra on x^a (1+x^2)^(-m)
* ``compact-bump``    A e exp(-1/(1 - x^2)) on |x| < 1 (x = (q-c)/w), zero
                      outside, derivatives via a rational term algebra
* ``sampled``         cubic-spline interpolation of a table, zero outside

plus the internal ``antiderivative`` kind used for the second-order field
derived from a base profile: its value is scale * int_0^q base, its k-th
derivative equals scale * base^(k-1) exactly.

All closed-form kinds evaluate their derivatives exactly to any order the
term algebra supports; nothing is finite-differenced.  The weighted radial
derivative (<q> d/dq)^k is expanded internally in plain derivatives with
polynomial coefficients in q and <q> = (1+q^2)^(1/2).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline


class ProfileError(ValueError):
    """Invalid profile specification or evaluation request."""


def qbracket(q):
    """<q> = (1 + q^2)^(1/2)."""
    q = np.asarray(q, dtype=float)
    return np.sqrt(1.0 + q * q)


# ---------------------------------------------------------------------------
# (<q> d/dq)^k expansion: coefficients are sums c * q^a * <q>^b, closed under
# d/dq (d<q>/dq = q/<q>) and under multiplication by <q>.
# ---------------------------------------------------------------------------

def _tp_derive(tp):
    out = {}
    for (a, b), c in tp.items():
        if a != 0:
            key = (a - 1, b)
            out[key] = out.get(key, 0.0) + c * a
        if b != 0:
            key = (a + 1, b - 2)
            out[key] = out.get(key, 0.0) + c * b
    return out


def _tp_mul_bracket(tp):
    return {(a, b + 1): c for (a, b), c in tp.items()}


@lru_cache(maxsize=None)
def _scaled_deriv_table(k: int):
    """Coefficient tables A_{k,j} with (<q> d/dq)^k f = sum_j A_{k,j}(q) f^(j)."""
    if k == 0:
        return {0: {(0, 0): 1.0}}
    prev = _scaled_deriv_table(k - 1)
    out = {}
    for j, tp in prev.items():
        d = _tp_derive(tp)
        for key, val in _tp_mul_bracket(d).items():
            out.setdefault(j, {})[key] = out.setdefault(j, {}).get(key, 0.0) + val
        for key, val in _tp_mul_bracket(tp).items():
            out.setdefault(j + 1, {})[key] = out.setdefault(j + 1, {}).get(key, 0.0) + val
    return out


def _tp_eval(tp, q, br):
    total = np.zeros_like(q)
    for (a, b), c in tp.items():
        term = np.full_like(q, c)
        if a:
            term = term * q**a
        if b:
            term = term * br**b
        total = total + term
    return total


class Profile:
    """Evaluable mode profile with exact derivatives.

    Subclasses implement ``_value`` and ``_derivative``; users go through
    :meth:`value`, :meth:`derivative` and :meth:`scaled_derivative`.
    """

    kind = "abstract"
    max_derivative_order = 0

    @staticmethod
    def _promote(q):
        q = np.asarray(q, dtype=float)
        return (np.atleast_1d(q), True) if q.ndim == 0 else (q, False)

    def value(self, q):
        arr, scalar = self._promote(q)
        out = self._value(arr)
        return float(out[0]) if scalar else out

    def derivative(self, q, order: int = 1):
        if order == 0:
            return self.value(q)
        if order < 0 or order > self.max_derivative_order:
            raise ProfileError(
                f"{self.kind} profile supports derivatives up to order "
                f"{self.max_derivative_order}, got {order}"
            )
        arr, scalar = self._promote(q)
        out = self._derivative(arr, order)
        return float(out[0]) if scalar else out

    def scaled_derivative(self, q, k: int):
        """(<q> d/dq)^k applied to the profile."""
        if k == 0:
            return self.value(q)
        if k > self.max_derivative_order:
            raise ProfileError(
                f"(<q> d/dq)^{k} needs derivative order {k} > "
                f"{self.max_derivative_order} supported by {self.kind}"
            )
        q = np.asarray(q, dtype=float)
        br = qbracket(q)
        table = _scaled_deriv_table(k)
        total = np.zeros_like(q)
        for j, tp in table.items():
            total = total + _tp_eval(tp, q, br) * self.derivative(q, j)
        return total

    def support_radius(self, tol: float = 1e-16) -> float:
        """|q - center| beyond which |profile| <= tol * amplitude scale."""
        raise NotImplementedError

    @property
    def center(self) -> float:
        return getattr(self, "_center", 0.0)

    def amplitude_scale(self) -> float:
        return getattr(self, "_amplitude", 1.0)


class GaussianProfile(Profile):
    kind = "gaussian"
    max_derivative_order = 32

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

    def _derivative(self, q, order):
        # d^n/dx^n e^{-x^2} = (-1)^n H_n(x) e^{-x^2}, physicists' Hermite
        x = (q - self._center) / self._width
        h_prev = np.ones_like(x)
        h = 2.0 * x
        for n in range(1, order):
            h, h_prev = 2.0 * x * h - 2.0 * n * h_prev, h
        return (
            self._amplitude
            * (-1.0) ** order
            * h
            * np.exp(-x * x)
            / self._width**order
        )

    def support_radius(self, tol: float = 1e-16) -> float:
        return self._width * math.sqrt(max(-math.log(tol), 1.0)) + 1.0


class PolyTailProfile(Profile):
    """A (1 + ((q-c)/w)^2)^(-p/2); the owning field's gamma must satisfy p > gamma."""

    kind = "poly-tail"
    max_derivative_order = 32

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

    @lru_cache(maxsize=64)
    def _terms(self, order):
        # terms {(a, m): c} meaning c * x^a * (1+x^2)^(b0 - m), b0 = -p/2
        b0 = -self._p / 2.0
        terms = {(0, 0): 1.0}
        for _ in range(order):
            new = {}
            for (a, m), c in terms.items():
                if a:
                    key = (a - 1, m)
                    new[key] = new.get(key, 0.0) + c * a
                key = (a + 1, m + 1)
                new[key] = new.get(key, 0.0) + c * 2.0 * (b0 - m)
            terms = new
        return terms

    def _value(self, q):
        x = (q - self._center) / self._scale
        return self._amplitude * (1.0 + x * x) ** (-self._p / 2.0)

    def _derivative(self, q, order):
        x = (q - self._center) / self._scale
        base = 1.0 + x * x
        b0 = -self._p / 2.0
        total = np.zeros_like(x)
        for (a, m), c in self._terms(order).items():
            total = total + c * x**a * base ** (b0 - m)
        return self._amplitude * total / self._scale**order

    def support_radius(self, tol: float = 1e-16) -> float:
        return max(self._scale * tol ** (-1.0 / self._p), 10.0)


class CompactBumpProfile(Profile):
    """A e exp(-1/(1-x^2)) on |x| < 1, x = (q-c)/w; identically zero outside."""

    kind = "compact-bump"
    max_derivative_order = 16

    def __init__(self, amplitude: float = 1.0, width: float = 1.0, center: float = 0.0):
        if width <= 0:
            raise ProfileError("compact-bump width must be positive")
        self._amplitude = float(amplitude)
        self._width = float(width)
        self._center = float(center)

    @lru_cache(maxsize=32)
    def _rational(self, order):
        # f^(k) = f * R_k(x) / w^k with R_{k+1} = R_k' + R_k g', g' = -2x (1-x^2)^(-2)
        # rational terms {(a, m): c} meaning c * x^a * (1-x^2)^(-m)
        def derive(terms):
            out = {}
            for (a, m), c in terms.items():
                if a:
                    key = (a - 1, m)
                    out[key] = out.get(key, 0.0) + c * a
                if m:
                    key = (a + 1, m + 1)
                    out[key] = out.get(key, 0.0) + c * 2.0 * m
            return out

        def mul_gprime(terms):
            out = {}
            for (a, m), c in terms.items():
                key = (a + 1, m + 2)
                out[key] = out.get(key, 0.0) - 2.0 * c
            return out

        if order == 0:
            return {(0, 0): 1.0}
        prev = self._rational(order - 1)
        out = derive(prev)
        for key, val in mul_gprime(prev).items():
            out[key] = out.get(key, 0.0) + val
        return out

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

    def _derivative(self, q, order):
        x = (q - self._center) / self._width
        core, inside, sup = self._core(x)
        total = np.zeros_like(x)
        terms = self._rational(order)
        xi, si, ci = x[inside], sup[inside], core[inside]
        acc = np.zeros_like(xi)
        for (a, m), c in terms.items():
            acc = acc + c * xi**a * si ** (-float(m))
        total[inside] = ci * acc
        return self._amplitude * total / self._width**order

    def support_radius(self, tol: float = 1e-16) -> float:
        return self._width + 1.0


class SampledProfile(Profile):
    """Cubic interpolation of a (q, value) table; zero outside the table."""

    kind = "sampled"
    max_derivative_order = 2

    def __init__(self, q_grid, values):
        q_grid = np.asarray(q_grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if q_grid.ndim != 1 or q_grid.size < 4 or q_grid.shape != values.shape:
            raise ProfileError("sampled profile needs matching 1-D q grid and values, >= 4 points")
        if not np.all(np.diff(q_grid) > 0):
            raise ProfileError("sampled profile q grid must be strictly increasing")
        self._q = q_grid
        self._spline = CubicSpline(q_grid, values, extrapolate=False)
        self._amplitude = float(np.max(np.abs(values))) or 1.0
        self._center = float(0.5 * (q_grid[0] + q_grid[-1]))

    def _eval(self, q, nu):
        out = self._spline(q, nu=nu)
        return np.where(np.isnan(out), 0.0, out)

    def _value(self, q):
        return self._eval(q, 0)

    def _derivative(self, q, order):
        return self._eval(q, order)

    def support_radius(self, tol: float = 1e-16) -> float:
        return float(max(abs(self._q[0] - self._center), abs(self._q[-1] - self._center))) + 1.0


class AntiderivativeProfile(Profile):
    """scale * int_0^q base(q') dq', with derivatives delegated to the base.

    The value is a cumulative Gauss-Legendre table at the knots (spacing
    1/16 or finer, at least 1024 cells on [-q_max, q_max]) plus an exact
    local Gauss-Legendre correction from the nearest knot, so evaluation
    error is at quadrature level anywhere inside the table.  Outside the
    table the base tail is integrated adaptively on demand.  Derivative
    order k >= 1 is exactly scale * base^(k-1).
    """

    kind = "antiderivative"

    _XG8, _WG8 = np.polynomial.legendre.leggauss(8)

    def __init__(self, base: Profile, scale: float, q_max: float = None):
        self._base = base
        self._scale = float(scale)
        self.max_derivative_order = min(base.max_derivative_order + 1, 32)
        if q_max is None:
            q_max = min(max(abs(base.center) + base.support_radius(1e-16), 64.0), 1024.0)
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
        self._lo_val = float(self._scale * self._cum[0])
        self._hi_val = float(self._scale * self._cum[-1])
        self._amplitude = float(np.max(np.abs(self._scale * self._cum))) or 1.0
        self._center = 0.0

    def _tail(self, q_abs_sorted, sign):
        # integral of base from +/-table_edge out to each q, adaptive
        vals = []
        prev_q, prev_int = self._table_edge * sign, 0.0
        for q in q_abs_sorted:
            seg, _ = integrate.quad(lambda s: float(self._base.value(s)), prev_q, q * sign,
                                    limit=200, epsabs=1e-13, epsrel=1e-10)
            prev_int += seg
            prev_q = q * sign
            vals.append(prev_int)
        return self._scale * np.asarray(vals)

    def _value(self, q):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        out = np.empty_like(q)
        inside = np.abs(q) <= self._table_edge
        if np.any(inside):
            qi = q[inside]
            k = np.clip(np.searchsorted(self._knots, qi, side="right") - 1,
                        0, self._knots.size - 2)
            a = self._knots[k]
            mid = 0.5 * (a + qi)
            half = 0.5 * (qi - a)
            samples = mid[:, None] + half[:, None] * self._XG8[None, :]
            local = (self._base.value(samples) * self._WG8[None, :]).sum(axis=1) * half
            out[inside] = self._scale * (self._cum[k] + local)
        hi = q > self._table_edge
        lo = q < -self._table_edge
        if np.any(hi):
            qs = np.sort(q[hi])
            tail = dict(zip(qs, self._hi_val + self._tail(qs, 1.0)))
            out[hi] = [tail[x] for x in q[hi]]
        if np.any(lo):
            qs = np.sort(-q[lo])
            tail = dict(zip(-qs, self._lo_val + self._tail(qs, -1.0)))
            out[lo] = [tail[x] for x in q[lo]]
        return out

    def _derivative(self, q, order):
        return self._scale * self._base.derivative(q, order - 1)

    def support_radius(self, tol: float = 1e-16) -> float:
        # the antiderivative generically tends to nonzero constants
        return self._table_edge

    @property
    def base(self) -> Profile:
        return self._base


_KINDS = {
    "gaussian": GaussianProfile,
    "poly-tail": PolyTailProfile,
    "compact-bump": CompactBumpProfile,
    "sampled": SampledProfile,
}


def make_profile(spec: dict, gamma: Optional[float] = None) -> Profile:
    """Build a profile from a descriptor dict.

    ``spec`` holds ``kind`` plus kind-specific parameters: amplitude/width/
    center for gaussian and compact-bump, amplitude/p/center for poly-tail,
    q_grid/values for sampled.  When ``gamma`` is given, a poly-tail whose
    decay exponent does not exceed it is rejected (the weighted data norm
    would diverge).
    """
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _KINDS:
        raise ProfileError(f"unknown profile kind {kind!r}; expected one of {sorted(_KINDS)}")
    if kind == "poly-tail" and gamma is not None:
        p = float(spec.get("p", 1.0))
        if p <= gamma:
            raise ProfileError(
                f"poly-tail decay exponent p={p} must strictly exceed gamma={gamma} "
                "(weighted data norm would diverge)"
            )
    try:
        return _KINDS[kind](**spec)
    except TypeError as exc:
        raise ProfileError(f"bad parameters for {kind} profile: {exc}") from exc
