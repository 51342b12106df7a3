"""Weighted energies, conformal norms, identity audits and decay fits.

Everything is assembled per spherical-harmonic mode from the u = r*phi
arrays of a :class:`~backwave.engine.FieldState` and the derived arrays it
computes on each access (``ur``, ``u_over_r``), each read once per state;
L u = v + u_r and Lb u = v - u_r are formed from them:

    |d phi|^2 dx      -> [v^2 + (u_r - u/r)^2 + l(l+1) u^2/r^2] dr
    |L(r phi)|^2 dx/r^2  -> (v + u_r)^2 dr,   etc.

with the r -> 0 limits supplied by parity (u ~ r^(l+1)).  Radial
integrals are trapezoidal on the solve grid, truncated at the containment
radius, so discretization errors cancel structurally between the two sides
of an identity audit.

The conformal multiplier machinery uses f(v) = <v>^(2s):

* energy E_R^s, cone flux F_R^s and the exact identity

      E^s_{R-(t2-t1)}(t1) + 2 F_R^s = E^s_R(t2)
          + 2 int int [ r^{-1} X(r phi) box phi - r d_r Omega |snabla phi|^2 ],

  X = <t+r>^2s L + <t-r>^2s Lb, Omega = (<t+r>^2s - <t-r>^2s)/r.  (The
  factor 2 on flux and bulk is fixed by the per-mode derivation; the audit
  residual converging to zero at second order confirms it.)
* the bulk sign expression (f(t+r)-f(t-r))/r - f'(t+r) - f'(t-r), which is
  <= 0 for f = (1+v^2)^(a/2), a >= 2; evaluated in a cancellation-free form
  so the check is meaningful at the 1e-12 level.
* the two weighted Hardy inequalities controlling the zeroth-order terms.

Measurements along a solve are ``on_step`` observers of the march:
:class:`ConeFlux` (one cone's flux) and :class:`StepStates` (every step's
state, for the identity audit, space-time instance and origin decay check).
The states they read are the march's own views, never copies.
Code run inside a solve is private, since the benchmark's tracer times the
public functions of this module as post-solve work.

The first-order commuting-field norm ||phi||_{1,s-1} is realized as a
documented surrogate: identity, d_t and scaling exactly per mode, rotations
through the spectral l(l+1) weights, and boosts majorized by
(t+r)|L phi| + |t-r||Lb phi| + (t/r)|snabla(r phi)|, which is exactly how
the boosts are bounded when deriving the norm comparison.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from backwave.angular import sup_harmonics
from backwave.engine import FieldState, Trajectory, acceleration, radial_deriv


class FunctionalError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def w0_weight(q, mu: float) -> np.ndarray:
    """w0(mu) at q = r - t: 1 + (1+q)^(-2 mu) outside, 3 - (1-q)^(-2 mu)
    inside; in [1, 3] for mu >= 0."""
    q = np.asarray(q, dtype=float)
    return np.where(q > 0,
                    1.0 + (1.0 + np.abs(q)) ** (-2.0 * mu),
                    3.0 - (1.0 + np.abs(q)) ** (-2.0 * mu))


def weight_minus_gamma(q, gamma: float) -> np.ndarray:
    """Boundary weight (1 + q_-)^(1+2 gamma)."""
    q = np.asarray(q, dtype=float)
    return (1.0 + np.maximum(-q, 0.0)) ** (1.0 + 2.0 * gamma)


def _cone_foot(foot: float, h: float, *rows: np.ndarray):
    """Arrays on the grid r_j = j h (last axis) linearly interpolated to
    r = foot.  Returns ``(j, lam, values)``: the cell [j h, (j+1) h] holding
    the foot, the fraction lam across it and one column per array.  j is
    clamped to J-1, so 0 <= lam < 1 on [0, Jh)."""
    j = min(int(foot / h), rows[0].shape[-1] - 2)
    lam = foot / h - j
    return j, lam, [(1.0 - lam) * a[..., j] + lam * a[..., j + 1] for a in rows]


def _trapz_to(vals: np.ndarray, r: np.ndarray, R: float) -> np.ndarray:
    """Trapezoid of vals(r) over [0, R] along the last axis, with a linear
    partial cell at the truncation radius."""
    h = r[1] - r[0]
    if R >= r[-1]:
        return np.trapezoid(vals, r, axis=-1)
    j, lam, (v_end,) = _cone_foot(R, h, vals)
    full = np.trapezoid(vals[..., : j + 1], r[: j + 1], axis=-1)
    if lam > 1e-14:
        full = full + 0.5 * (vals[..., j] + v_end) * (R - r[j])
    return full


# ---------------------------------------------------------------------------
# energies and norms
# ---------------------------------------------------------------------------

def energy_weighted(state: FieldState, weight: Optional[Callable] = None) -> float:
    """int |d phi|^2 w(r - t) dx, trapezoidal per mode; ``weight`` maps the
    array q = r - t to w, and no weight means w = 1."""
    r, u_over_r = state.r, state.u_over_r
    dens = state.v**2 + (state.ur - u_over_r) ** 2 + state.ll1[:, None] * u_over_r**2
    if weight is not None:
        dens = dens * weight(r - state.t)[None, :]
    return float(np.sum(np.trapezoid(dens, r, axis=-1)))


def conformal_norm_plus(state: FieldState, s: float) -> float:
    """|| phi ||_{1,+,s-1}: the full weighted first-order norm (squared sum,
    square root returned)."""
    t, r, v, ur, u_over_r = state.t, state.r, state.v, state.ur, state.u_over_r
    fp = (1.0 + (t + r) ** 2) ** s
    fm = (1.0 + (t - r) ** 2) ** s
    brm2 = 1.0 + (t - r) ** 2
    dens = (fp[None, :] * ((v + ur)**2 + state.ll1[:, None] * u_over_r**2)
            + fm[None, :] * ((v - ur)**2 + u_over_r**2 + state.u**2 / brm2[None, :]))
    return math.sqrt(float(np.sum(np.trapezoid(dens, r, axis=-1))))


def conformal_energy_ER(state: FieldState, s: float, R: float) -> float:
    """E_R^s truncated at radius R (nonnegative, nondecreasing in R)."""
    if R > state.grid.r_max + 1e-9:
        raise FunctionalError(f"truncation radius {R} exceeds grid extent {state.grid.r_max}")
    t, r, v, ur = state.t, state.r, state.v, state.ur
    fp = (1.0 + (t + r) ** 2) ** s
    fm = (1.0 + (t - r) ** 2) ** s
    dens = (fp[None, :] * (v + ur)**2 + fm[None, :] * (v - ur)**2
            + (fp + fm)[None, :] * state.ll1[:, None] * state.u_over_r**2)
    return float(np.sum(_trapz_to(dens, r, R)))


def _f_diff_over_r(t: float, r: np.ndarray, s: float) -> np.ndarray:
    """(f(t+r) - f(t-r))/r for f = <v>^(2s), cancellation-free via expm1/log1p."""
    r = np.asarray(r, dtype=float)
    B = 1.0 + (t - r) ** 2
    x = 4.0 * t * r / B
    out = np.empty_like(r)
    pos = r > 0
    out[pos] = B[pos] ** s * np.expm1(s * np.log1p(x[pos])) / r[pos]
    out[~pos] = 2.0 * 2.0 * s * t * (1.0 + t * t) ** (s - 1.0)  # limit 2 f'(t)
    return out


def _fprime_sum(t: float, r: np.ndarray, s: float) -> np.ndarray:
    b = t + r
    c = t - r
    return 2.0 * s * (b * (1.0 + b * b) ** (s - 1.0) + c * (1.0 + c * c) ** (s - 1.0))


def r_dr_omega(t: float, r: np.ndarray, s: float) -> np.ndarray:
    """r d_r Omega = f'(t+r) + f'(t-r) - (f(t+r)-f(t-r))/r  (>= 0 for s >= 1)."""
    return _fprime_sum(t, r, s) - _f_diff_over_r(t, r, s)


# ---------------------------------------------------------------------------
# observers along the march
# ---------------------------------------------------------------------------

def _conformal_flux_at(t: float, foot: float, s: float, h: float,
                       u: np.ndarray, lu: np.ndarray, ll1: np.ndarray) -> float:
    """Flux integrand of the conformal identity at r = foot, summed over modes:
    <t+r>^2s |L(r phi)|^2 + <t-r>^2s |slashed-nabla(r phi)|^2 per unit solid
    angle and time, from u = r phi and lu = L u."""
    _j, _lam, (u_f, lu_f) = _cone_foot(foot, h, u, lu)
    fp = (1.0 + (t + foot) ** 2) ** s
    fm = (1.0 + (t - foot) ** 2) ** s
    return float(np.sum(fp * lu_f**2 + fm * ll1 * u_f**2 / foot**2))


def _march_trapezoid(ts: Sequence[float], vals: Sequence[Optional[float]]) -> List[float]:
    """Running trapezoid sum of vals(t) along the march (t descending), one
    total per sample.  A None value (cone foot off the grid) adds no cell on
    either side of it."""
    totals, total, prev = [], 0.0, None
    for t, val in zip(ts, vals):
        if val is not None and prev is not None:
            total += 0.5 * (val + prev[1]) * (prev[0] - t)
        prev = None if val is None else (t, val)
        totals.append(total)
    return totals


class ConeFlux:
    """``on_step`` observer: the conformal flux of the first field through
    the outgoing cone t - r = t2 - R, integrated along the march from t2
    down.  ``name`` is its series column."""

    def __init__(self, s: float, R: float, t2: float):
        self.s, self.R, self.t2 = s, R, t2
        self.name = f"flux_s{s:g}_R{R:g}"
        self.ts, self.vals = [], []

    def __call__(self, t: float, views) -> None:
        view = next(iter(views.values()))
        h = view.grid.h
        foot = self.R - (self.t2 - t)
        val = None
        if h < foot < view.grid.r_max - h:
            ell = view.ell
            lu = view.v + radial_deriv(view.u, ell, h)
            val = _conformal_flux_at(t, foot, self.s, h, view.u, lu, ell * (ell + 1.0))
        self.ts.append(t)
        self.vals.append(val)

    def totals_at(self, times: Sequence[float]) -> List[float]:
        """The flux accumulated down to each time, read at the step nearest it."""
        totals = _march_trapezoid(self.ts, self.vals)
        ts = np.asarray(self.ts)
        return [totals[int(np.argmin(np.abs(ts - t)))] for t in times]


class StepStates(list):
    """``on_step`` observer: the list of the first field's states at t = T and
    after every step, in march order (descending t); each is the march's own
    step view, kept as it is."""

    def __call__(self, t: float, views) -> None:
        self.append(next(iter(views.values())))


def morawetz_identity_audit(steps: Sequence[FieldState], s: float, R: float,
                            source: Optional[Callable]) -> Dict[str, float]:
    """Signed relative residual of the conformal multiplier identity between
    the first and last steps of a solve.

    ``steps`` are the states a :class:`StepStates` observer kept, in march
    order.  ``source`` is the same box-side callback handed to the solver
    (None for a free wave); it is re-evaluated on the stored slices for the
    bulk term.  Returns a dict with the residual and both sides.
    """
    steps = steps[::-1]
    if len(steps) < 3:
        raise FunctionalError("identity audit needs at least 3 step states")
    ts = np.asarray([st.t for st in steps])
    t1, t2 = steps[0].t, steps[-1].t
    grid = steps[0].grid
    h = grid.h
    if R - (t2 - t1) <= 2 * h:
        raise FunctionalError("cone exits the grid: R - (t2 - t1) too small")
    if R >= grid.r_max:
        raise FunctionalError("cone radius exceeds the grid")

    e2 = conformal_energy_ER(steps[-1], s, R)
    e1 = conformal_energy_ER(steps[0], s, R - (t2 - t1))

    flux_vals = np.empty(ts.size)
    bulk_vals = np.empty(ts.size)
    for i, st in enumerate(steps):
        r, v, ur, ll1 = st.r, st.v, st.ur, st.ll1
        lu = v + ur
        foot = R - (t2 - st.t)
        flux_vals[i] = _conformal_flux_at(st.t, foot, s, h, st.u, lu, ll1)
        # bulk integrand over r <= foot
        rdo = r_dr_omega(st.t, r, s)
        dens = -rdo[None, :] * ll1[:, None] * st.u_over_r**2
        if source is not None:
            fp = (1.0 + (st.t + r) ** 2) ** s
            fm = (1.0 + (st.t - r) ** 2) ** s
            xr = fp[None, :] * lu + fm[None, :] * (v - ur)
            dens = dens + r[None, :] * np.asarray(source(st.t, st)) * xr
        bulk_vals[i] = float(np.sum(_trapz_to(dens, r, foot)))
    flux = float(np.trapezoid(flux_vals, ts))
    bulk = float(np.trapezoid(bulk_vals, ts))

    lhs = e1 + 2.0 * flux
    rhs = e2 + 2.0 * bulk
    denom = max(abs(lhs), abs(rhs))
    residual = 0.0 if denom == 0.0 else (lhs - rhs) / denom
    return {"residual": residual, "lhs": lhs, "rhs": rhs,
            "E1": e1, "E2": e2, "flux": flux, "bulk": bulk}


# ---------------------------------------------------------------------------
# bulk sign and Hardy checks
# ---------------------------------------------------------------------------

def bulk_sign_check(a: float, t_samples, r_samples) -> float:
    """max over the sample grid of (f(t+r)-f(t-r))/r - f'(t+r) - f'(t-r),
    f = (1+v^2)^(a/2); mathematically <= 0 for a >= 2.

    Evaluated cancellation-free (expm1 of log1p), so the returned maximum is
    meaningful at the 1e-12 level.  For a < 2 the value may be positive and
    is returned for exploratory use.
    """
    if a < 2.0:
        warnings.warn(f"bulk sign guarantee needs a >= 2, got {a}; reporting anyway")
    r = np.asarray(r_samples, dtype=float)
    s = a / 2.0
    # at r = 0 the expression has the exact Taylor limit 0
    slack = [np.where(r > 0, _f_diff_over_r(t, r, s) - _fprime_sum(t, r, s), 0.0)
             for t in np.asarray(t_samples, dtype=float).tolist()]
    return float(np.max(slack))


def hardy_checks(state: FieldState, s: float) -> Dict[str, float]:
    """LHS/RHS ratios of the two weighted Hardy inequalities.

    zeroth:  int f''(t-r) phi^2 dx  vs  int [f+ (L(r phi))^2 + f- (Lb(r phi))^2] dx/r^2
             + boundary |f'| phi^2 r^2 (f = <v>^2s);
    radial:  int <t-r>^2s phi^2 dx/r^2  vs  int <t-r>^(2s-2) phi^2 dx
             + int <t-r>^2s (d_r(r phi))^2 dx/r^2.

    Raises when a right side vanishes while the left does not.
    """
    t, r, u, v, ur = state.t, state.r, state.u, state.v, state.ur
    q = t - r
    br2 = 1.0 + q * q
    fpp = 2.0 * s * br2 ** (s - 1.0) + 2.0 * s * (2.0 * s - 2.0) * q * q * br2 ** (s - 2.0)
    fp = (1.0 + (t + r) ** 2) ** s
    fm = br2**s

    lhs0 = float(np.sum(np.trapezoid(fpp[None, :] * u**2, r, axis=-1)))
    rhs0 = float(np.sum(np.trapezoid(fp[None, :] * (v + ur)**2 + fm[None, :] * (v - ur)**2,
                                     r, axis=-1)))
    # boundary term vanishes under containment (u = 0 at r_max)
    edge = float(np.sum(u[:, -1] ** 2))
    rhs0 += abs(2.0 * s * q[-1] * br2[-1] ** (s - 0.5)) * edge

    lhs1 = float(np.sum(np.trapezoid(fm[None, :] * state.u_over_r**2, r, axis=-1)))
    rhs1 = float(np.sum(np.trapezoid((br2 ** (s - 1.0))[None, :] * u**2
                                     + fm[None, :] * ur**2, r, axis=-1)))

    out = {}
    for tag, lhs, rhs in (("zeroth", lhs0, rhs0), ("radial", lhs1, rhs1)):
        if rhs == 0.0:
            if lhs > 0.0:
                raise FunctionalError(f"hardy {tag}: right side vanished with LHS={lhs}")
            out[f"ratio_{tag}"] = 0.0
        else:
            out[f"ratio_{tag}"] = lhs / rhs
    return out


# ---------------------------------------------------------------------------
# commuting-field norm surrogate and pointwise decay checks
# ---------------------------------------------------------------------------

def _weighted_norm(state: FieldState, s: float):
    """dens -> sqrt(sum over modes of int dens <t-r>^(2s-2) dr), trapezoid
    in r; ``dens`` is a squared (n_modes, J+1) quantity."""
    r = state.r
    wgt = (1.0 + (state.t - r) ** 2) ** (s - 1.0)

    def nrm(dens):
        return math.sqrt(float(np.sum(np.trapezoid(dens * wgt[None, :], r, axis=-1))))

    return nrm


def norm_Z_weighted(state: FieldState, s: float) -> float:
    """Surrogate for sum_{|I|<=1} || <t-r>^(s-1) Z^I phi ||_{L2}.

    identity, d_t and scaling are exact per mode; rotations enter through
    the spectral l(l+1) weights; the three boost majorants are added as
    separate L2 norms.
    """
    return _norm_Z(state, s, state.ur, state.u_over_r)


def _norm_Z(state: FieldState, s: float, ur: np.ndarray, u_over_r: np.ndarray) -> float:
    """:func:`norm_Z_weighted` with the state's ``ur`` and ``u_over_r`` given."""
    t, r, u, v, ll1 = state.t, state.r, state.u, state.v, state.ll1
    nrm = _weighted_norm(state, s)
    w1 = t * v + r[None, :] * ur - u          # r * (S phi)
    return sum((nrm(u**2),                                                  # identity
                nrm(v**2),                                                  # d_t
                nrm(w1**2),                                                 # scaling
                nrm(ll1[:, None] * u**2),                                   # rotations
                nrm(((t + r) ** 2)[None, :] * (v + ur - u_over_r) ** 2),    # boost, L
                nrm(((t - r) ** 2)[None, :] * (v - ur + u_over_r) ** 2),    # boost, Lb
                nrm((t**2) * ll1[:, None] * u_over_r**2)))                  # boost, angular


def _second_order_terms(state: FieldState, s: float, ur: np.ndarray) -> float:
    """Second-order surrogate terms for the |I| <= 2 weighted norm of a free
    field (d_t v from the source-free wave equation); ``ur`` is the state's."""
    t, u, v, ell = state.t, state.u, state.v, state.ell
    ll1 = ell * (ell + 1.0)
    h = state.grid.h
    urr = np.zeros_like(u)
    urr[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / (h * h)
    vt = np.zeros_like(u)
    vt[:, 1:-1] = urr[:, 1:-1] - ll1[:, None] * u[:, 1:-1] / state.r[1:-1] ** 2
    vr = radial_deriv(v, ell, h)
    r = state.r[None, :]
    w1 = t * v + r * ur - u
    nrm = _weighted_norm(state, s)
    dt_w1 = t * vt + r * vr
    ss = t * dt_w1 + r * (t * vr + r * urr) - w1
    total = nrm(vt**2)                      # d_t^2
    total += nrm(dt_w1**2)                  # d_t S
    total += nrm(ss**2)                     # S^2
    total += nrm(ll1[:, None] * v**2)       # rot d_t
    total += nrm(ll1[:, None] * w1**2)      # rot S
    total += nrm(ll1[:, None] ** 2 * u**2)  # rot^2
    return total


def sup_envelope(state: FieldState, s: float) -> float:
    """sup over the radial grid and the sphere of <t+r> <t-r>^(s-1/2) |phi|
    (physical field), the sphere read on the directions of
    ``angular.sup_harmonics``, the poles included."""
    return _sup_envelope(state, s, state.u_over_r)


def _sup_envelope(state: FieldState, s: float, u_over_r: np.ndarray) -> float:
    """:func:`sup_envelope` with the state's ``u_over_r`` given."""
    ymat = sup_harmonics(state.modes)
    vals = ymat.T @ u_over_r                         # (n_dirs, J+1)
    t, r = state.t, state.r
    env = (1.0 + (t + r) ** 2) ** 0.5 * (1.0 + (t - r) ** 2) ** (0.5 * (s - 0.5))
    return float(np.max(np.abs(vals) * env[None, :]))


def ks_pointwise_check(state: FieldState, s: float) -> Dict[str, float]:
    """sup <t+r> <t-r>^(s-1/2) |phi| of a free field divided by the |I| <= 2
    weighted-norm surrogate; bounded constants instantiate the weighted
    pointwise decay inequality."""
    ur, u_over_r = state.ur, state.u_over_r
    numer = _sup_envelope(state, s, u_over_r)
    denom = _norm_Z(state, s, ur, u_over_r) + _second_order_terms(state, s, ur)
    if denom == 0.0:
        if numer > 0.0:
            raise FunctionalError("pointwise check: zero norm with nonzero field")
        return {"constant": 0.0, "numerator": 0.0, "denominator": 0.0}
    return {"constant": numer / denom, "numerator": numer, "denominator": denom}


def tangential_at(foot: float, h: float, u: np.ndarray, lu: np.ndarray,
                  ll1: np.ndarray) -> float:
    """Sum over modes of (L u - u/r)^2 + l(l+1) u^2/r^2 at r = foot, i.e. the
    tangential derivatives of phi squared times r^2."""
    _j, _lam, (u_f, lu_f) = _cone_foot(foot, h, u, lu)
    return float(np.sum((lu_f - u_f / foot) ** 2 + ll1 * u_f**2 / foot**2))


def origin_decay_check(steps: Sequence[FieldState], taus: Sequence[float], gamma: float,
                       source: Optional[Callable]) -> Dict[str, np.ndarray]:
    """t^(1+gamma) |phi(t, 0)| against the weighted cone-flux bound.

    Reads the states a :class:`StepStates` observer kept, in march order:
    phi(t, 0) at every step, returned ascending as ``origin_t``/``origin``,
    and the flux of phi and d_t phi through the cones t - r = tau, one per
    time in ``taus`` (ascending), by the trapezoid rule along the march.
    d_t v comes from the solver's own ``acceleration`` with ``source``, the
    box-side callback of the solve (None for none).  The bound on the cone
    carries the constant weight (1 + tau)^(1+2 gamma).
    """
    if len(steps) < 2:
        raise FunctionalError("origin decay check needs the states of at least one step")
    grid = steps[0].grid
    h, rint = grid.h, grid.r[1:-1]
    pot = np.outer(steps[0].ll1, 1.0 / rint**2)
    origin, cone_vals = [], [[] for _tau in taus]
    for st in steps:
        origin.append(sum(st.u[i, 1] / h * (1.0 / math.sqrt(4.0 * math.pi))
                          for i, (l, _m) in enumerate(st.modes) if l == 0))
        vt = acceleration(st.u, source(st.t, st) if source else None, pot, rint, h)
        lu, lv, ll1 = st.v + st.ur, vt + radial_deriv(st.v, st.ell, h), st.ll1
        for vals, tau in zip(cone_vals, taus):
            foot = st.t - tau
            # dS = r^2 dS(omega): (L phi)^2 r^2 = (L u - u/r)^2 etc., for phi and d_t phi
            vals.append(None if foot <= h or foot >= grid.r_max - h else
                        tangential_at(foot, h, st.u, lu, ll1)
                        + tangential_at(foot, h, st.v, lv, ll1))
    ts = [st.t for st in steps]
    taus = np.asarray(taus)
    flux = np.asarray([_march_trapezoid(ts, vals)[-1] for vals in cone_vals])
    ot, ov = np.asarray(ts[::-1]), np.asarray(origin[::-1])
    vals = np.interp(taus, ot, ov)
    scaled = taus ** (1.0 + gamma) * np.abs(vals)
    bound = np.sqrt(np.maximum(flux, 0.0) * (1.0 + np.maximum(taus, 0.0)) ** (1.0 + 2.0 * gamma))
    good = bound > 1e-300
    ratio = np.where(good, scaled / np.maximum(bound, 1e-300), 0.0)
    return {"t": taus, "scaled_origin": scaled, "cone_bound": bound, "ratio": ratio,
            "origin_t": ot, "origin": ov}


# ---------------------------------------------------------------------------
# instances of the weighted space-time estimates
# ---------------------------------------------------------------------------

def energy_conservation_drift(traj: Trajectory) -> float:
    """Relative drift of the unweighted energy along a free solve."""
    states = traj.field_states()
    e = [energy_weighted(st) for st in states]
    e0 = max(e[0], 1e-300)
    return float(max(abs(x - e[0]) for x in e) / e0)


def cor_weighted_spacetime_instance(steps: Sequence[FieldState], gamma: float, mu: float,
                                    source: Callable) -> Dict[str, float]:
    """Numerical instance of the weighted space-time estimate on the states a
    :class:`StepStates` observer kept: the three left terms (weighted energy
    at t1, signed bulk, best of six cone fluxes) against the weighted energy
    at t2 plus the signed pairing with ``source``, the box-side callback of
    the solve; returns the ratio."""
    steps = steps[::-1]
    if len(steps) < 2:
        raise FunctionalError("weighted space-time instance needs the states of a step")
    ts = np.asarray([st.t for st in steps])
    grid = steps[0].grid
    t2 = steps[-1].t

    wm = lambda q: weight_minus_gamma(q, gamma)
    lhs_energy = energy_weighted(steps[0], wm)
    rhs_energy = energy_weighted(steps[-1], wm)

    bulk_vals = np.empty(ts.size)
    pair_vals = np.empty(ts.size)
    cone_feet = np.linspace(0.2, 0.8, 6) * (grid.r_max - 4 * grid.h)
    cone_vals = np.zeros((cone_feet.size, ts.size))
    for i, st in enumerate(steps):
        r, lu, ll1, u_over_r = st.r, st.v + st.ur, st.ll1, st.u_over_r
        q = r - st.t
        wbulk = (0.5 * mu / (1.0 + np.abs(q)) ** (1.0 + 2.0 * mu)
                 + 0.25 * (1.0 + 2.0 * gamma) * (1.0 + np.maximum(-q, 0.0)) ** (2.0 * gamma))
        tang = (lu - u_over_r) ** 2 + ll1[:, None] * u_over_r**2
        bulk_vals[i] = float(np.sum(np.trapezoid(tang * wbulk[None, :], r, axis=-1)))
        # 2 int F d_t phi w dx per mode: 2 (r S)(v/r) r^2 dr / r ... = 2 S v r dr
        pair_vals[i] = float(np.sum(np.trapezoid(
            2.0 * np.asarray(source(st.t, st)) * st.v * r[None, :] * wm(q)[None, :],
            r, axis=-1)))
        for kc, rr in enumerate(cone_feet):
            foot = rr - (t2 - st.t)
            if foot <= 2 * grid.h:
                continue
            cone_vals[kc, i] = (tangential_at(foot, grid.h, st.u, lu, ll1)
                                * float(wm(foot - st.t)))
    bulk = float(np.trapezoid(bulk_vals, ts))
    pairing = float(np.trapezoid(pair_vals, ts))
    cone_best = float(max(np.trapezoid(row, ts) for row in cone_vals))
    lhs = lhs_energy + bulk + cone_best
    rhs = rhs_energy + pairing
    ratio = lhs / rhs if rhs > 0 else math.inf
    return {"lhs_energy": lhs_energy, "bulk": bulk, "cone": cone_best,
            "rhs_energy": rhs_energy, "pairing": pairing, "ratio": ratio}


def backward_estimate_constant(states: Sequence[FieldState], s: float,
                               source_norms: Sequence[float]) -> float:
    """Observed constant of the backward weighted estimate:
    ||phi(t1)||_{1,+,s-1} / (||phi(t2)||_{1,+,s-1} + int ||<t+r>^s box phi|| dt).

    ``states`` are recorded states ordered in descending time and
    ``source_norms`` the weighted source norms at the same times.
    """
    ts = np.asarray([st.t for st in states])
    order = np.argsort(ts)
    ts = ts[order]
    sn = np.asarray(source_norms, dtype=float)[order]
    first = conformal_norm_plus(states[int(order[0])], s)
    last = conformal_norm_plus(states[int(order[-1])], s)
    integral = float(np.trapezoid(sn, ts))
    denom = last + integral
    return first / denom if denom > 0 else math.inf


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    exponent: float
    amplitude: float
    r_squared: float
    window: Tuple[float, float]
    n_samples: int


def fit_decay(ts: Sequence[float], values: Sequence[float],
              window: Tuple[float, float]) -> FitResult:
    """Least-squares power-law fit on (log t, log value) over the samples
    inside the closed window."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (ts >= window[0] - 1e-12) & (ts <= window[1] + 1e-12)
    ts, values = ts[sel], values[sel]
    if ts.size < 5:
        raise FunctionalError(f"decay fit needs >= 5 samples, got {ts.size}")
    if np.any(values <= 0.0):
        raise FunctionalError("decay fit needs positive values")
    lx, ly = np.log(ts), np.log(values)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), res, _rk, _sv = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((ly - A @ [slope, intercept]) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return FitResult(exponent=float(slope), amplitude=float(math.exp(intercept)),
                     r_squared=float(min(r2, 1.0)),
                     window=(float(ts.min()), float(ts.max())), n_samples=int(ts.size))


@dataclass
class FunctionalReport:
    """Named functional values at one time."""

    t: float
    values: Dict[str, float] = dc_field(default_factory=dict)
