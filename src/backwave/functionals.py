"""Weighted energies, conformal norms, identity audits and decay fits.

Everything is assembled per spherical-harmonic mode from the u = r*phi
arrays of a :class:`~backwave.engine.FieldState`:

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
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from backwave.angular import angular_grid, ylm_at, mode_index
from backwave.engine import (FieldState, Trajectory, conformal_flux_at,
                             tangential_at)


class FunctionalError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Weight selector: w0(mu) or constant."""

    kind: str = "constant"
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "w0"):
            raise FunctionalError(f"unknown weight kind {self.kind!r}")
        if self.kind == "w0" and self.mu < 0:
            raise FunctionalError("w0 weight needs mu >= 0")


def weight_eval(spec: WeightSpec, q) -> np.ndarray:
    """Pointwise weight value; argument is q = r - t."""
    q = np.asarray(q, dtype=float)
    if spec.kind == "constant":
        return np.ones_like(q)
    # w0: 1 + (1+q)^(-2 mu) outside, 3 - (1-q)^(-2 mu) inside; w0 in [1, 3]
    return np.where(q > 0,
                    1.0 + (1.0 + np.abs(q)) ** (-2.0 * spec.mu),
                    3.0 - (1.0 + np.abs(q)) ** (-2.0 * spec.mu))


def weight_minus_gamma(q, gamma: float) -> np.ndarray:
    """Boundary weight (1 + q_-)^(1+2 gamma)."""
    q = np.asarray(q, dtype=float)
    return (1.0 + np.maximum(-q, 0.0)) ** (1.0 + 2.0 * gamma)


# ---------------------------------------------------------------------------
# per-mode derivative arrays with origin limits
# ---------------------------------------------------------------------------

def _radial_deriv(arr: np.ndarray, ell: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(arr)
    out[:, 1:-1] = (arr[:, 2:] - arr[:, :-2]) / (2.0 * h)
    out[:, -1] = 0.0
    out[:, 0] = np.where(ell == 0, arr[:, 1] / h, 0.0)
    return out


def _over_r(arr: np.ndarray, r: np.ndarray, ell: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(arr)
    out[:, 1:] = arr[:, 1:] / r[1:]
    out[:, 0] = np.where(ell == 0, arr[:, 1] / h, 0.0)
    return out


@dataclass
class ModeFields:
    """Cached per-mode derivative arrays of one state."""

    t: float
    r: np.ndarray
    ell: np.ndarray
    ll1: np.ndarray
    u: np.ndarray
    v: np.ndarray
    ur: np.ndarray
    u_over_r: np.ndarray

    @property
    def lu(self) -> np.ndarray:      # L(r phi) = v + u_r
        return self.v + self.ur

    @property
    def lbu(self) -> np.ndarray:     # Lb(r phi) = v - u_r
        return self.v - self.ur


def mode_fields(state: FieldState) -> ModeFields:
    ell = state.ell
    h = state.grid.h
    return ModeFields(
        t=state.t,
        r=state.grid.r,
        ell=ell,
        ll1=ell * (ell + 1.0),
        u=state.u,
        v=state.v,
        ur=_radial_deriv(state.u, ell, h),
        u_over_r=_over_r(state.u, state.grid.r, ell, h),
    )


def _trapz_to(vals: np.ndarray, r: np.ndarray, R: float) -> np.ndarray:
    """Trapezoid of vals(r) over [0, R] along the last axis, with a linear
    partial cell at the truncation radius."""
    h = r[1] - r[0]
    if R >= r[-1]:
        return np.trapezoid(vals, r, axis=-1)
    j = int(R / h)
    lam = R / h - j
    full = np.trapezoid(vals[..., : j + 1], r[: j + 1], axis=-1)
    if lam > 1e-14 and j + 1 < r.size:
        v_end = (1.0 - lam) * vals[..., j] + lam * vals[..., j + 1]
        full = full + 0.5 * (vals[..., j] + v_end) * (R - r[j])
    return full


# ---------------------------------------------------------------------------
# energies and norms
# ---------------------------------------------------------------------------

def energy_weighted(state: FieldState, spec: WeightSpec = WeightSpec()) -> float:
    """int |d phi|^2 w(r - t) dx, trapezoidal per mode."""
    mf = mode_fields(state)
    w = weight_eval(spec, mf.r - mf.t)
    dens = mf.v**2 + (mf.ur - mf.u_over_r) ** 2 + mf.ll1[:, None] * mf.u_over_r**2
    return float(np.sum(np.trapezoid(dens * w[None, :], mf.r, axis=-1)))


def conformal_norm_plus(state: FieldState, s: float) -> float:
    """|| phi ||_{1,+,s-1}: the full weighted first-order norm (squared sum,
    square root returned)."""
    mf = mode_fields(state)
    fp = (1.0 + (mf.t + mf.r) ** 2) ** s
    fm = (1.0 + (mf.t - mf.r) ** 2) ** s
    brm2 = 1.0 + (mf.t - mf.r) ** 2
    dens = (fp[None, :] * (mf.lu**2 + mf.ll1[:, None] * mf.u_over_r**2)
            + fm[None, :] * (mf.lbu**2 + mf.u_over_r**2 + mf.u**2 / brm2[None, :]))
    return math.sqrt(float(np.sum(np.trapezoid(dens, mf.r, axis=-1))))


def conformal_energy_ER(state: FieldState, s: float, R: float) -> float:
    """E_R^s truncated at radius R (nonnegative, nondecreasing in R)."""
    if R > state.grid.r_max + 1e-9:
        raise FunctionalError(f"truncation radius {R} exceeds grid extent {state.grid.r_max}")
    mf = mode_fields(state)
    fp = (1.0 + (mf.t + mf.r) ** 2) ** s
    fm = (1.0 + (mf.t - mf.r) ** 2) ** s
    dens = (fp[None, :] * mf.lu**2 + fm[None, :] * mf.lbu**2
            + (fp + fm)[None, :] * mf.ll1[:, None] * mf.u_over_r**2)
    return float(np.sum(_trapz_to(dens, mf.r, R)))


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


def morawetz_identity_audit(traj: Trajectory, s: float, R: float,
                            source: Optional[Callable] = None) -> Dict[str, float]:
    """Signed relative residual of the conformal multiplier identity between
    the first and last steps of the first field.

    Requires a trajectory solved with ``record_every_step=True``.  ``source``
    is the same box-side callback handed to the solver (None for a free
    wave); it is re-evaluated on the stored slices for the bulk term.
    Returns a dict with the residual and both sides.
    """
    if not traj.dense:
        raise FunctionalError("identity audit needs a densely recorded trajectory")
    name = next(iter(traj.dense))
    ts, us, vs = traj.dense[name]
    order = np.argsort(ts)
    ts, us, vs = ts[order], us[order], vs[order]
    if ts.size < 3:
        raise FunctionalError("identity audit needs at least 3 recorded steps")
    t1, t2 = float(ts[0]), float(ts[-1])
    grid = traj.grid
    modes = traj.states[name][0].modes
    h = grid.h
    if R - (t2 - t1) <= 2 * h:
        raise FunctionalError("cone exits the grid: R - (t2 - t1) too small")
    if R >= grid.r_max:
        raise FunctionalError("cone radius exceeds the grid")

    def state_at(i):
        return FieldState(float(ts[i]), grid, modes, us[i], vs[i])

    e2 = conformal_energy_ER(state_at(ts.size - 1), s, R)
    e1 = conformal_energy_ER(state_at(0), s, R - (t2 - t1))

    flux_vals = np.empty(ts.size)
    bulk_vals = np.empty(ts.size)
    for i in range(ts.size):
        st = state_at(i)
        mf = mode_fields(st)
        foot = R - (t2 - float(ts[i]))
        flux_vals[i] = conformal_flux_at(mf.t, foot, s, h, mf.u, mf.lu, mf.ll1)
        # bulk integrand over r <= foot
        rdo = r_dr_omega(st.t, mf.r, s)
        dens = -rdo[None, :] * mf.ll1[:, None] * mf.u_over_r**2
        if source is not None:
            s_arr = source(st.t, st)
            if s_arr is not None:
                fp = (1.0 + (st.t + mf.r) ** 2) ** s
                fm = (1.0 + (st.t - mf.r) ** 2) ** s
                xr = fp[None, :] * mf.lu + fm[None, :] * mf.lbu
                dens = dens + mf.r[None, :] * np.asarray(s_arr) * xr
        bulk_vals[i] = float(np.sum(_trapz_to(dens, mf.r, foot)))
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
    t = np.asarray(t_samples, dtype=float)[:, None]
    r = np.asarray(r_samples, dtype=float)[None, :]
    s = a / 2.0
    B = 1.0 + (t - r) ** 2
    x = 4.0 * t * r / B
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = B**s * np.expm1(s * np.log1p(x)) / r
    b = t + r
    c = t - r
    fp = a * (b * (1.0 + b * b) ** (s - 1.0) + c * (1.0 + c * c) ** (s - 1.0))
    # at r = 0 the expression has the exact Taylor limit 0
    slack = np.where(r > 0, diff - fp, 0.0)
    return float(np.max(slack))


def hardy_checks(state: FieldState, s: float, budget: float = 10.0) -> Dict[str, float]:
    """LHS/RHS ratios of the two weighted Hardy inequalities.

    zeroth:  int f''(t-r) phi^2 dx  vs  int [f+ (L(r phi))^2 + f- (Lb(r phi))^2] dx/r^2
             + boundary |f'| phi^2 r^2 (f = <v>^2s);
    radial:  int <t-r>^2s phi^2 dx/r^2  vs  int <t-r>^(2s-2) phi^2 dx
             + int <t-r>^2s (d_r(r phi))^2 dx/r^2.

    Raises when a right side vanishes while the left does not; asserts both
    ratios stay within ``budget``.
    """
    mf = mode_fields(state)
    q = mf.t - mf.r
    br2 = 1.0 + q * q
    fpp = 2.0 * s * br2 ** (s - 1.0) + 2.0 * s * (2.0 * s - 2.0) * q * q * br2 ** (s - 2.0)
    fp = (1.0 + (mf.t + mf.r) ** 2) ** s
    fm = br2**s

    lhs0 = float(np.sum(np.trapezoid(fpp[None, :] * mf.u**2, mf.r, axis=-1)))
    rhs0 = float(np.sum(np.trapezoid(fp[None, :] * mf.lu**2 + fm[None, :] * mf.lbu**2,
                                     mf.r, axis=-1)))
    # boundary term vanishes under containment (u = 0 at r_max)
    edge = float(np.sum(mf.u[:, -1] ** 2))
    rhs0 += abs(2.0 * s * q[-1] * br2[-1] ** (s - 0.5)) * edge

    lhs1 = float(np.sum(np.trapezoid(fm[None, :] * mf.u_over_r**2, mf.r, axis=-1)))
    rhs1 = float(np.sum(np.trapezoid((br2 ** (s - 1.0))[None, :] * mf.u**2
                                     + fm[None, :] * mf.ur**2, mf.r, axis=-1)))

    out = {}
    for tag, lhs, rhs in (("zeroth", lhs0, rhs0), ("radial", lhs1, rhs1)):
        if rhs == 0.0:
            if lhs > 0.0:
                raise FunctionalError(f"hardy {tag}: right side vanished with LHS={lhs}")
            out[f"ratio_{tag}"] = 0.0
        else:
            out[f"ratio_{tag}"] = lhs / rhs
    out["budget"] = budget
    out["within_budget"] = bool(max(out["ratio_zeroth"], out["ratio_radial"]) <= budget)
    return out


# ---------------------------------------------------------------------------
# commuting-field norm surrogate and pointwise decay checks
# ---------------------------------------------------------------------------

def norm_Z_weighted(state: FieldState, s: float,
                    return_parts: bool = False):
    """Surrogate for sum_{|I|<=1} || <t-r>^(s-1) Z^I phi ||_{L2}.

    identity, d_t and scaling are exact per mode; rotations enter through
    the spectral l(l+1) weights; the three boost majorants are added as
    separate L2 norms.
    """
    mf = mode_fields(state)
    t = mf.t
    wgt = (1.0 + (t - mf.r) ** 2) ** (s - 1.0)

    def nrm(dens):
        return math.sqrt(float(np.sum(np.trapezoid(dens * wgt[None, :], mf.r, axis=-1))))

    w1 = t * mf.v + mf.r[None, :] * mf.ur - mf.u          # r * (S phi)
    parts = {
        "identity": nrm(mf.u**2),
        "dt": nrm(mf.v**2),
        "scaling": nrm(w1**2),
        "rotations": nrm(mf.ll1[:, None] * mf.u**2),
        "boost_L": nrm(((t + mf.r) ** 2)[None, :] * (mf.lu - mf.u_over_r) ** 2),
        "boost_Lb": nrm(((t - mf.r) ** 2)[None, :] * (mf.lbu + mf.u_over_r) ** 2),
        "boost_ang": nrm((t**2) * mf.ll1[:, None] * mf.u_over_r**2),
    }
    total = sum(parts.values())
    return (total, parts) if return_parts else total


def _second_order_terms(state: FieldState, s: float) -> float:
    """Second-order surrogate terms for the |I| <= 2 weighted norm of a free
    field (d_t v from the source-free wave equation)."""
    mf = mode_fields(state)
    t = mf.t
    h = state.grid.h
    wgt = (1.0 + (t - mf.r) ** 2) ** (s - 1.0)
    vt = np.zeros_like(mf.u)
    vt[:, 1:-1] = ((mf.u[:, 2:] - 2.0 * mf.u[:, 1:-1] + mf.u[:, :-2]) / (h * h)
                   - mf.ll1[:, None] * mf.u[:, 1:-1] / mf.r[1:-1] ** 2)
    vr = _radial_deriv(mf.v, mf.ell, h)
    urr = np.zeros_like(mf.u)
    urr[:, 1:-1] = (mf.u[:, 2:] - 2.0 * mf.u[:, 1:-1] + mf.u[:, :-2]) / (h * h)
    w1 = t * mf.v + mf.r[None, :] * mf.ur - mf.u

    def nrm(dens):
        return math.sqrt(float(np.sum(np.trapezoid(dens * wgt[None, :], mf.r, axis=-1))))

    r = mf.r[None, :]
    dt_w1 = t * vt + r * vr
    ss = t * dt_w1 + r * (t * vr + r * urr) - w1
    total = nrm(vt**2)                      # d_t^2
    total += nrm(dt_w1**2)                  # d_t S
    total += nrm(ss**2)                     # S^2
    total += nrm(mf.ll1[:, None] * mf.v**2)     # rot d_t
    total += nrm(mf.ll1[:, None] * w1**2)       # rot S
    total += nrm(mf.ll1[:, None] ** 2 * mf.u**2)  # rot^2
    return total


def sup_envelope(state: FieldState, s: float) -> float:
    """sup over the grid of <t+r> <t-r>^(s-1/2) |phi| (physical field)."""
    mf = mode_fields(state)
    l_max = int(max(mf.ell)) if mf.ell.size else 0
    grid = angular_grid(max(l_max, 1))
    table = ylm_at(l_max, grid.directions().reshape(-1, 3))
    ymat = np.stack([table[mode_index(l, m)] for (l, m) in state.modes])
    vals = ymat.T @ mf.u_over_r                      # (n_dirs, J+1)
    env = (1.0 + (mf.t + mf.r) ** 2) ** 0.5 * (1.0 + (mf.t - mf.r) ** 2) ** (0.5 * (s - 0.5))
    return float(np.max(np.abs(vals) * env[None, :]))


def ks_pointwise_check(state: FieldState, s: float) -> Dict[str, float]:
    """sup <t+r> <t-r>^(s-1/2) |phi| of a free field divided by the |I| <= 2
    weighted-norm surrogate; bounded constants instantiate the weighted
    pointwise decay inequality."""
    numer = sup_envelope(state, s)
    denom = norm_Z_weighted(state, s) + _second_order_terms(state, s)
    if denom == 0.0:
        if numer > 0.0:
            raise FunctionalError("pointwise check: zero norm with nonzero field")
        return {"constant": 0.0, "numerator": 0.0, "denominator": 0.0}
    return {"constant": numer / denom, "numerator": numer, "denominator": denom}


def origin_decay_check(traj: Trajectory, gamma: float) -> Dict[str, np.ndarray]:
    """t^(1+gamma) |phi(t, 0)| against the weighted cone-flux bound.

    Uses the per-step origin series and the origin-cone accumulators (cones
    t - r = tau for each record time tau) of the first field; the bound on
    the cone carries the constant weight (1 + tau)^(1+2 gamma).
    """
    if not traj.origin_cone_flux:
        raise FunctionalError("origin decay check needs track_origin=True at solve time")
    name = next(iter(traj.origin_cone_flux))
    ot, ov = traj.origin_series[name]
    taus, flux = traj.origin_cone_flux[name]
    vals = np.interp(taus, ot, ov)
    scaled = taus ** (1.0 + gamma) * np.abs(vals)
    bound = np.sqrt(np.maximum(flux, 0.0) * (1.0 + np.maximum(taus, 0.0)) ** (1.0 + 2.0 * gamma))
    good = bound > 1e-300
    ratio = np.where(good, scaled / np.maximum(bound, 1e-300), 0.0)
    return {"t": taus, "scaled_origin": scaled, "cone_bound": bound, "ratio": ratio}


# ---------------------------------------------------------------------------
# instances of the weighted space-time estimates
# ---------------------------------------------------------------------------

def energy_conservation_drift(traj: Trajectory) -> float:
    """Relative drift of the unweighted energy along a free solve."""
    states = traj.field_states()
    e = [energy_weighted(st) for st in states]
    e0 = max(e[0], 1e-300)
    return float(max(abs(x - e[0]) for x in e) / e0)


def cor_weighted_spacetime_instance(traj: Trajectory, gamma: float, mu: float,
                                    source: Callable) -> Dict[str, float]:
    """Numerical instance of the weighted space-time estimate on the first
    field: the three left terms (weighted energy at t1, signed bulk, best of
    six cone fluxes) against the weighted energy at t2 plus the signed pairing
    with ``source``, the box-side callback of the solve; returns the ratio."""
    if not traj.dense:
        raise FunctionalError("weighted space-time instance needs dense recording")
    name = next(iter(traj.dense))
    ts, us, vs = traj.dense[name]
    order = np.argsort(ts)
    ts, us, vs = ts[order], us[order], vs[order]
    grid = traj.grid
    modes = traj.states[name][0].modes
    t1, t2 = float(ts[0]), float(ts[-1])

    def st_at(i):
        return FieldState(float(ts[i]), grid, modes, us[i], vs[i])

    wm = lambda q: weight_minus_gamma(q, gamma)
    mf1 = mode_fields(st_at(0))
    mf2 = mode_fields(st_at(ts.size - 1))

    def energy_w(mf):
        w = wm(mf.r - mf.t)
        dens = mf.v**2 + (mf.ur - mf.u_over_r) ** 2 + mf.ll1[:, None] * mf.u_over_r**2
        return float(np.sum(np.trapezoid(dens * w[None, :], mf.r, axis=-1)))

    lhs_energy = energy_w(mf1)
    rhs_energy = energy_w(mf2)

    bulk_vals = np.empty(ts.size)
    pair_vals = np.empty(ts.size)
    cone_feet = np.linspace(0.2, 0.8, 6) * (grid.r_max - 4 * grid.h)
    cone_vals = np.zeros((cone_feet.size, ts.size))
    for i in range(ts.size):
        st = st_at(i)
        mf = mode_fields(st)
        q = mf.r - st.t
        wbulk = (0.5 * mu / (1.0 + np.abs(q)) ** (1.0 + 2.0 * mu)
                 + 0.25 * (1.0 + 2.0 * gamma) * (1.0 + np.maximum(-q, 0.0)) ** (2.0 * gamma))
        tang = (mf.lu - mf.u_over_r) ** 2 + mf.ll1[:, None] * mf.u_over_r**2
        bulk_vals[i] = float(np.sum(np.trapezoid(tang * wbulk[None, :], mf.r, axis=-1)))
        # 2 int F d_t phi w dx per mode: 2 (r S)(v/r) r^2 dr / r ... = 2 S v r dr
        pair_vals[i] = float(np.sum(np.trapezoid(
            2.0 * np.asarray(source(st.t, st)) * mf.v * mf.r[None, :] * wm(q)[None, :],
            mf.r, axis=-1)))
        for kc, rr in enumerate(cone_feet):
            foot = rr - (t2 - st.t)
            if foot <= 2 * grid.h:
                continue
            cone_vals[kc, i] = (tangential_at(foot, grid.h, mf.u, mf.lu, mf.ll1)
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
              window: Tuple[float, float] = None) -> FitResult:
    """Least-squares power-law fit on (log t, log value)."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is not None:
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
