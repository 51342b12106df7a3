"""Retarded-potential solutions of box Phi = n(r-t, omega) r^(-k) chi^2.

The backward light-cone parametrization of the retarded integral gives, for
a source concentrated in the wave zone, the exact closed form

    Phi^k[n](t, r w) = (1/4pi) int_{r-t}^inf int_{S^2}
        n(q, s) chi(<q>/rho)^2 rho^(2-k) / lam  dS(s) dq,

where lam = (t-r+q) + r(1 - <w,s>) is the retarded denominator and

    rho = (t+r+q)(t-r+q) / (2 lam)

is the emission radius, i.e. rho lam = alpha beta / 2 with alpha = t-r+q,
beta = t+r+q.  Explicitly, the kernels are

    k=2:  chi^2 / lam
    k=3:  chi^2 * 2 / (alpha beta)
    k=4:  chi^2 * 4 lam / (alpha beta)^2

(The cutoff power and the 2^(k-2) factors are fixed by the residual check
below: the finite-difference wave operator applied to the quadrature must
reproduce n r^-k chi^2, and does so at combined quadrature + h^2 order.)

The angular integral reduces exactly through the Funk-Hecke theorem: for a
kernel depending on sigma only through mu = <w, sigma>,

    int n(q, s) K(mu) dS(s) = sum_lm c_lm(q) Y_lm(w) 2 pi int_-1^1 K P_l dmu,

so each evaluation point costs one 1-D mu-quadrature per retained l and an
adaptive panel sweep in q.  The mu-integral is taken in the shifted
variable lam = (t-r+q) + r(1-mu), on which the cutoff support becomes the
exact window lam <= (t-r+q)(t+r+q)/(8 <q>), with geometrically graded
panels resolving the 1/lam behavior near the light cone; the q lower limit
is approached on an exponential substitution.

The wave-operator residual check applies a centered finite-difference box
to quadrature-evaluated mode coefficients and compares against the source;
it is the arbiter for the printed kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import integrate

from backwave.angular import ylm_at
from backwave.cutoffs import chi_wave_zone
from backwave.profiles import Profile, qbracket
from backwave.radiation import SQRT4PI

ModeKey = Tuple[int, int]


class BackscatterError(RuntimeError):
    pass


@dataclass(frozen=True)
class KernelQuadratureSpec:
    """Quadrature control: the q-panel bisection tolerance."""

    q_tol: float = 1e-9

    def __post_init__(self):
        if self.q_tol <= 0:
            raise BackscatterError("q-panel tolerance must be positive")


class SourceProfile:
    """Mode map (l, m) -> q-profile for a backscatter source, with growth
    budget <q_+>^a."""

    def __init__(self, modes: Dict[ModeKey, Profile], a: float = 0.0, l_max: int = None):
        self.modes = dict(sorted(modes.items()))
        self.a = float(a)
        if self.a < 0:
            raise BackscatterError("decay parameter a must be >= 0")
        self.l_max = int(l_max if l_max is not None else max((l for (l, _m) in modes), default=0))

    def ells(self) -> List[int]:
        return sorted({l for (l, _m) in self.modes})

    def support(self) -> Tuple[float, float]:
        lo, hi = math.inf, -math.inf
        for prof in self.modes.values():
            sr = prof.support_radius(1e-16)
            lo = min(lo, prof.center - sr)
            hi = max(hi, prof.center + sr)
        if not self.modes:
            return (0.0, 0.0)
        return (lo, hi)

    def is_zero(self) -> bool:
        return not self.modes


def _legendre_all(l_max: int, mu: np.ndarray) -> np.ndarray:
    """P_l(mu) for l = 0..l_max, shape (l_max+1, len(mu))."""
    out = np.empty((l_max + 1, mu.size))
    out[0] = 1.0
    if l_max >= 1:
        out[1] = mu
    for l in range(2, l_max + 1):
        out[l] = ((2 * l - 1) * mu * out[l - 1] - (l - 1) * out[l - 2]) / l
    return out


_GL_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _mu_integrals(k: int, q: float, t: float, r: float, l_max: int) -> np.ndarray:
    """I_l(q) = (1/2) int_-1^1 K_k(q, mu) P_l(mu) dmu for l = 0..l_max, with
    16 Gauss-Legendre nodes per lam panel."""
    alpha = t - r + q
    beta = t + r + q
    if alpha <= 0.0 or beta <= 0.0:
        return np.zeros(l_max + 1)
    brq = float(qbracket(q))
    lam_chi = alpha * beta / (8.0 * brq)      # chi support: lam <= alpha beta/(8<q>)
    lam_hi = min(alpha + 2.0 * r, lam_chi)
    if lam_hi <= alpha:
        return np.zeros(l_max + 1)
    # geometric panels from alpha to lam_hi resolve the 1/lam near-cone behavior
    n_panels = max(8, min(64, int(math.ceil(4.0 * math.log2(lam_hi / alpha))) + 4))
    edges = np.geomspace(alpha, lam_hi, n_panels + 1)
    xg, wg = _gl(16)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    lam = (mid[:, None] + half[:, None] * xg[None, :]).reshape(-1)
    wts = (half[:, None] * wg[None, :]).reshape(-1)
    mu = 1.0 - (lam - alpha) / r
    chi2 = chi_wave_zone.value(2.0 * lam * brq / (alpha * beta)) ** 2
    if k == 2:
        ker = chi2 / lam
    elif k == 3:
        ker = chi2 * 2.0 / (alpha * beta)
    elif k == 4:
        ker = chi2 * 4.0 * lam / (alpha * alpha * beta * beta)
    else:
        raise BackscatterError(f"kernel index k must be 2, 3 or 4, got {k}")
    pl = _legendre_all(l_max, mu)
    # (1/2) int K P dmu = (1/(2r)) int K P dlam
    return (pl * (ker * wts)[None, :]).sum(axis=1) / (2.0 * r)


def _q_panels(n: SourceProfile, t: float, r: float):
    """Panel edges for the q-integral over (r-t, inf) within the source support."""
    q_lo = r - t
    s_lo, s_hi = n.support()
    # the cutoff window requires t+r+q > 8<q>; beyond q ~ (t+r)/7 it is empty
    q_hi = min(s_hi, (t + r) / 7.0 + 2.0)
    if q_hi <= max(q_lo, s_lo):
        return []
    panels = []
    start = max(q_lo, s_lo)
    if q_lo >= s_lo - 1e-12:
        # exponential substitution toward the open lower limit
        edge = min(1.0, q_hi - q_lo)
        x_lo = math.log(1e-10 * max(1.0, float(qbracket(q_lo))))
        x_hi = math.log(edge)
        n_exp = 10
        xs = np.linspace(x_lo, x_hi, n_exp + 1)
        for i in range(n_exp):
            panels.append((q_lo + math.exp(xs[i]), q_lo + math.exp(xs[i + 1])))
        start = q_lo + edge
    if q_hi > start:
        width = 1.0
        n_lin = max(4, int(math.ceil((q_hi - start) / width)))
        edges = np.linspace(start, q_hi, n_lin + 1)
        panels.extend((edges[i], edges[i + 1]) for i in range(n_lin))
    return panels


def phi_k_modes(n: SourceProfile, k: int, t: float, r: float,
                spec: KernelQuadratureSpec = KernelQuadratureSpec()) -> Dict[ModeKey, float]:
    """Mode coefficients of Phi^k[n](t, r .): c_lm = int I_l(q) prof_lm(q) dq.

    Adaptive bisection on q panels against ``spec.q_tol`` (relative to the
    running scale).
    """
    if r <= 0.0:
        raise BackscatterError("kernel quadrature requires r > 0")
    if n.is_zero():
        return {}
    l_max = max(n.ells())
    mode_keys = list(n.modes)
    xg, wg = _gl(12)

    def panel_value(a: float, b: float) -> np.ndarray:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        qs = mid + half * xg
        out = np.zeros(len(mode_keys))
        il = np.array([_mu_integrals(k, float(q), t, r, l_max) for q in qs])
        for i, (lm, prof) in enumerate(n.modes.items()):
            out[i] = float(np.sum(wg * half * il[:, lm[0]] * prof.value(qs)))
        return out

    total = np.zeros(len(mode_keys))
    scale = 0.0
    for (a, b) in _q_panels(n, t, r):
        stack = [(a, b, panel_value(a, b), 0)]
        while stack:
            a0, b0, coarse, depth = stack.pop()
            m0 = 0.5 * (a0 + b0)
            left = panel_value(a0, m0)
            right = panel_value(m0, b0)
            fine = left + right
            err = float(np.max(np.abs(fine - coarse)))
            scale = max(scale, float(np.max(np.abs(total + fine))), 1e-30)
            if err < spec.q_tol * max(scale, 1.0) or depth >= 7:
                total = total + fine
            else:
                stack.append((a0, m0, left, depth + 1))
                stack.append((m0, b0, right, depth + 1))
    return dict(zip(mode_keys, total.tolist()))


def phi_k(n: SourceProfile, k: int, t: float, r: float, omega,
          spec: KernelQuadratureSpec = KernelQuadratureSpec()) -> float:
    """Phi^k[n] at the spacetime point (t, r omega); omega a unit 3-vector."""
    coeffs = phi_k_modes(n, k, t, r, spec)
    if not coeffs:
        return 0.0
    l_max = max(l for (l, _m) in coeffs)
    y = ylm_at(l_max, np.asarray(omega, dtype=float).reshape(1, 3))
    from backwave.angular import mode_index
    return float(sum(c * y[mode_index(*lm), 0] for lm, c in coeffs.items()))


def phi2_asymptotic(n: SourceProfile, t: float, r: float, omega) -> float:
    """Leading light-cone term (1/2r) ln(<t+r>/<t-r>) int_{r-t}^inf n(q, w) dq.

    Only valid near the cone, r >= t/2; rejected outside that regime.
    """
    if r <= 0.0 or r < t / 2.0:
        raise BackscatterError("asymptotic form is valid for r >= t/2 and r > 0")
    q_lo = r - t
    total = 0.0
    from backwave.angular import mode_index
    if n.is_zero():
        return 0.0
    l_max = max(n.ells())
    y = ylm_at(l_max, np.asarray(omega, dtype=float).reshape(1, 3))
    for lm, prof in n.modes.items():
        hi = prof.center + prof.support_radius(1e-16)
        if hi <= q_lo:
            continue
        val, _ = integrate.quad(lambda q: float(prof.value(q)), q_lo, hi,
                                limit=200, epsabs=1e-12, epsrel=1e-10)
        total += val * float(y[mode_index(*lm), 0])
    env = math.log(math.sqrt(1.0 + (t + r) ** 2) / math.sqrt(1.0 + (t - r) ** 2))
    return total * env / (2.0 * r)


def n_norm(n: SourceProfile, n_derivs: int, a: float) -> float:
    """sum_{k+j<=N} int sup_omega |(<q> d_q)^k d_omega^j n| <q_+>^a dq with the
    spectral angular convention and mean-normalized synthesis."""
    if n.is_zero():
        return 0.0
    l_max = max(n.ells())
    from backwave.angular import angular_grid, mode_count, mode_index
    grid = angular_grid(max(l_max, 1))
    total = 0.0
    for k in range(n_derivs + 1):
        for j in range(n_derivs + 1 - k):
            def fn(q):
                coeffs = np.zeros(mode_count(l_max))
                for (l, m), prof in n.modes.items():
                    w = (1.0 + l * (l + 1.0)) ** (0.5 * j) * SQRT4PI
                    coeffs[mode_index(l, m)] = w * float(prof.scaled_derivative(np.asarray([q]), k)[0])
                vals = np.tensordot(coeffs, grid.ylm[:coeffs.size], axes=(0, 0))
                qp = max(q, 0.0)
                return float(np.max(np.abs(vals))) * (1.0 + qp * qp) ** (0.5 * a)

            def g(theta):
                q = math.tan(theta)
                if abs(q) > 1e12:
                    return 0.0
                return fn(q) * (1.0 + q * q)

            piece, _ = integrate.quad(g, -0.5 * math.pi, 0.5 * math.pi,
                                      limit=300, epsabs=1e-12, epsrel=1e-9)
            if not np.isfinite(piece):
                raise BackscatterError("source norm integral diverged")
            total += piece
    return total


def source_value_modes(n: SourceProfile, k: int, t: float, r: float) -> Dict[ModeKey, float]:
    """Right-hand side n(q) r^-k chi(<q>/r)^2 per mode at (t, r)."""
    q = r - t
    c2 = float(chi_wave_zone.value(qbracket(q) / r)) ** 2
    return {lm: float(prof.value(q)) * r ** (-k) * c2 for lm, prof in n.modes.items()}


def source_residual_check(n: SourceProfile, k: int, points: Sequence[Tuple[float, float]],
                          h: float,
                          spec: KernelQuadratureSpec = KernelQuadratureSpec()) -> Dict[str, object]:
    """Centered finite-difference box of the quadrature solution vs the source.

    For each (t, r) the five-point stencil in (t, r) is evaluated per mode:

        box_l c = d_t^2 c - d_r^2 c - (2/r) d_r c + l(l+1) c / r^2,

    the orientation the positive retarded kernels satisfy (the kernels are
    the classical retarded response, so they solve (d_t^2 - Lap) Phi =
    source; a consumer assembling fields in the opposite metric-signature
    convention must negate them).  Returns the max relative residual over
    points and modes plus a noise floor estimate (quadrature tolerance
    amplified by h^-2); the result is flagged inconclusive when the floor
    dominates.
    """
    results = []
    src_scale = 0.0
    phi_scale = 0.0
    for (t, r) in points:
        if r <= 2 * h:
            raise BackscatterError("sample points must stay away from r = 0")
        stencil = {}
        for (dt, dr) in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            stencil[(dt, dr)] = phi_k_modes(n, k, t + dt * h, r + dr * h, spec)
        src = source_value_modes(n, k, t, r)
        for lm in n.modes:
            l = lm[0]
            c0 = stencil[(0, 0)].get(lm, 0.0)
            ctt = (stencil[(1, 0)].get(lm, 0.0) - 2 * c0 + stencil[(-1, 0)].get(lm, 0.0)) / h**2
            crr = (stencil[(0, 1)].get(lm, 0.0) - 2 * c0 + stencil[(0, -1)].get(lm, 0.0)) / h**2
            cr = (stencil[(0, 1)].get(lm, 0.0) - stencil[(0, -1)].get(lm, 0.0)) / (2 * h)
            box = ctt - crr - 2.0 * cr / r + l * (l + 1.0) * c0 / r**2
            results.append((t, r, lm, box, src[lm]))
            src_scale = max(src_scale, abs(src[lm]))
            phi_scale = max(phi_scale, abs(c0))
    if src_scale == 0.0:
        src_scale = max((abs(b) for (_t, _r, _lm, b, _s) in results), default=0.0)
        if src_scale == 0.0:
            return {"max_rel_residual": 0.0, "noise_floor": 0.0, "inconclusive": False,
                    "samples": results}
    max_rel = max(abs(b - s) / src_scale for (_t, _r, _lm, b, s) in results)
    noise = 4.0 * spec.q_tol * phi_scale / h**2 / src_scale
    return {"max_rel_residual": max_rel, "noise_floor": noise,
            "inconclusive": bool(noise > 0.5 * max_rel), "samples": results}


def envelope_sweep(n: SourceProfile, k: int, sweep: Sequence[Tuple[float, float]],
                   omega, a: float,
                   spec: KernelQuadratureSpec = KernelQuadratureSpec()) -> Dict[str, np.ndarray]:
    """Decay-envelope diagnostics along a (t, r) sweep.

    k=2: |Phi^2| * 2r / ln(<t+r>/<t-r>) * <(r-t)_+>^a
    k=3,4: |Phi^k| * <t+r> <t-r>^(k-2) * <(r-t)_+>^a
    """
    ts, rs, vals, envs = [], [], [], []
    for (t, r) in sweep:
        val = phi_k(n, k, t, r, omega, spec)
        qp = max(r - t, 0.0)
        wqp = (1.0 + qp * qp) ** (0.5 * a)
        if k == 2:
            lg = math.log(math.sqrt(1.0 + (t + r) ** 2) / math.sqrt(1.0 + (t - r) ** 2))
            env = abs(val) * 2.0 * r / max(lg, 1e-300) * wqp
        else:
            env = (abs(val) * math.sqrt(1.0 + (t + r) ** 2)
                   * (1.0 + (t - r) ** 2) ** (0.5 * (k - 2)) * wqp)
        ts.append(t); rs.append(r); vals.append(val); envs.append(env)
    return {"t": np.asarray(ts), "r": np.asarray(rs),
            "value": np.asarray(vals), "envelope": np.asarray(envs)}


def brute_force_phi_k(n: SourceProfile, k: int, t: float, r: float, omega,
                      n_q: int = 400, n_theta: int = 200, n_phi: int = 64) -> float:
    """Independent dense product-grid quadrature of the defining integral in
    the original (un-rotated) frame; reference oracle only."""
    if n.is_zero():
        return 0.0
    omega = np.asarray(omega, dtype=float)
    l_max = max(n.ells())
    s_lo, s_hi = n.support()
    q_lo = max(r - t, s_lo)
    q_hi = min(s_hi, (t + r) / 7.0 + 2.0)
    if q_hi <= q_lo:
        return 0.0
    xq, wq = _gl(n_q)
    qs = 0.5 * (q_hi + q_lo) + 0.5 * (q_hi - q_lo) * xq
    wqs = 0.5 * (q_hi - q_lo) * wq
    xc, wc = _gl(n_theta)
    phis = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    st = np.sqrt(1.0 - xc**2)
    dirs = np.empty((n_theta, n_phi, 3))
    dirs[:, :, 0] = st[:, None] * np.cos(phis)[None, :]
    dirs[:, :, 1] = st[:, None] * np.sin(phis)[None, :]
    dirs[:, :, 2] = xc[:, None]
    y = ylm_at(l_max, dirs.reshape(-1, 3))
    from backwave.angular import mode_index
    mu = dirs.reshape(-1, 3) @ omega
    wang = (wc[:, None] * np.full((1, n_phi), 2.0 * math.pi / n_phi)).reshape(-1)
    total = 0.0
    for qi, wqi in zip(qs, wqs):
        alpha = t - r + qi
        beta = t + r + qi
        if alpha <= 0:
            continue
        lam = alpha + r * (1.0 - mu)
        rho = 0.5 * alpha * beta / lam
        chi2 = chi_wave_zone.value(float(qbracket(qi)) / rho) ** 2
        if k == 2:
            ker = chi2 / lam
        elif k == 3:
            ker = chi2 * 2.0 / (alpha * beta)
        else:
            ker = chi2 * 4.0 * lam / (alpha * beta) ** 2
        nvals = np.zeros(mu.size)
        for lm, prof in n.modes.items():
            nvals += float(prof.value(qi)) * y[mode_index(*lm)]
        total += wqi * float(np.sum(wang * nvals * ker)) / (4.0 * math.pi)
    return total
