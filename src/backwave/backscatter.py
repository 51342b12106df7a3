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

so each evaluation point costs an adaptive panel sweep in q, bisected
against the caller's tolerance ``q_tol``, and, per q-node, one 1-D
mu-quadrature shared by every retained l; the q-nodes of a call go through
it in array passes.  One call serves one source per kernel index (one
source for all, or the weak-null strata): their q panels, lam nodes,
weights, cutoff values and Legendre rows are computed in one lam pass for
every k (the sources of a call share one support), and only the kernel
factor and the reduction run once per k.  The mu-integral is taken in the
shifted variable lam = (t-r+q) + r(1-mu), on which the cutoff support becomes the
exact window lam <= (t-r+q)(t+r+q)/(8 <q>), with geometrically graded
panels resolving the 1/lam behavior near the light cone; the q lower limit
is approached on an exponential substitution.

A source n is a :class:`~backwave.radiation.RadiationField`, the map that
holds the radiation data.  :func:`phi_k_modes` returns the coefficients as
one row per k in its source's ``n.modes`` order, as
:func:`source_value_modes` returns the source, and point values take the
harmonics of those modes from ``angular.ylm_at``.  The wave-operator
residual check applies the centered five-point box
:func:`five_point_box` to quadrature-evaluated mode coefficients and
compares against the source; it is the arbiter for the printed kernels.
The weak-null crosscheck applies the same box to its assembled field.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from backwave.angular import sup_harmonics, ylm_at
from backwave.cutoffs import chi_wave_zone
from backwave.profiles import qbracket
from backwave.radiation import SQRT4PI, RadiationField


class BackscatterError(RuntimeError):
    pass


def _legendre_all(l_max: int, mu: np.ndarray) -> np.ndarray:
    """P_l(mu) for l = 0..l_max, shape (l_max+1,) + mu.shape."""
    out = np.empty((l_max + 1,) + mu.shape)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = mu
    for l in range(2, l_max + 1):
        out[l] = ((2 * l - 1) * mu * out[l - 1] - (l - 1) * out[l - 2]) / l
    return out


_gl = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _gl_panels(a: float, b: float, panels: int):
    """Nodes and weights of 8-node Gauss-Legendre on each of ``panels`` equal
    panels of (a, b), as two flat arrays."""
    xg, wg = _gl(8)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * xg).ravel(), (half * wg).ravel()


# lam-nodes per array pass of _mu_integrals; caps the run's peak memory
_MU_CHUNK = 16384


def _mu_integrals(ks: Sequence[int], qs: np.ndarray, t: float, r: float,
                  l_max: int) -> np.ndarray:
    """I_l(q) = (1/2) int_-1^1 K_k(q, mu) P_l(mu) dmu for l = 0..l_max, each k
    of ``ks`` and each q of the 1-D array qs, shape (len(ks), len(qs),
    l_max+1), with 16 Gauss-Legendre nodes per lam panel.

    Nodes with equal lam panel counts share a pass of <= _MU_CHUNK lam-nodes,
    whose nodes, weights, cutoff and Legendre rows serve every k; each row is
    summed on its own contiguous axis (no BLAS), so it equals the row of
    qs = [q], ks = (k,) bit for bit."""
    out = np.zeros((len(ks), qs.size, l_max + 1))
    alpha = t - r + qs
    beta = t + r + qs
    brq = qbracket(qs)
    # chi support: lam <= alpha beta/(8<q>)
    lam_hi = np.minimum(alpha + 2.0 * r, alpha * beta / (8.0 * brq))
    live = np.flatnonzero((alpha > 0.0) & (beta > 0.0) & (lam_hi > alpha))
    # geometric panels from alpha to lam_hi resolve the 1/lam near-cone behavior
    counts = np.array([max(8, min(64, int(math.ceil(4.0 * math.log2(hi / lo))) + 4))
                       for lo, hi in zip(alpha[live].tolist(), lam_hi[live].tolist())])
    xg, wg = _gl(16)
    for n_panels in np.unique(counts).tolist():
        group = live[counts == n_panels]
        rows = max(1, _MU_CHUNK // (16 * n_panels))
        for j in (group[i:i + rows] for i in range(0, group.size, rows)):
            a, b, bq = alpha[j, None], beta[j, None], brq[j, None]
            edges = np.geomspace(alpha[j], lam_hi[j], n_panels + 1, axis=1)
            mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
            half = 0.5 * np.diff(edges, axis=1)
            lam = (mid[:, :, None] + half[:, :, None] * xg).reshape(j.size, -1)
            wts = (half[:, :, None] * wg).reshape(j.size, -1)
            mu = 1.0 - (lam - a) / r
            chi2 = chi_wave_zone.value(2.0 * lam * bq / (a * b)) ** 2
            pl = _legendre_all(l_max, mu)
            for i, k in enumerate(ks):
                if k == 2:
                    ker = chi2 / lam
                elif k == 3:
                    ker = chi2 * 2.0 / (a * b)
                else:
                    ker = chi2 * 4.0 * lam / (a * a * b * b)
                # (1/2) int K P dmu = (1/(2r)) int K P dlam
                out[i, j] = (pl * (ker * wts)).sum(axis=-1).T / (2.0 * r)
    return out


def _q_panels(n: RadiationField, t: float, r: float):
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


def phi_k_modes(sources: Dict[int, RadiationField], t: float, r: float,
                q_tol: float) -> Dict[int, np.ndarray]:
    """Mode coefficients of Phi^k[n_k](t, r .), c_lm = int I_l(q) n_k,lm(q) dq,
    for one source n_k per kernel index k of ``sources``: a row per k, one
    entry per mode of n_k.modes in its order.

    Adaptive bisection on q panels against the tolerance ``q_tol > 0``
    (relative to the running scale), on the one support of the nonzero
    sources (a zero one gets an empty row).  Every top-level panel is split
    at least once, so its coarse value and both halves come from one pass
    for all ks; each k bisects on its own total and scale, and a deeper
    panel's halves come from one pass for all ks when the first k reaches
    it, so each row equals that of ``{k: n_k}`` alone bit for bit.
    """
    if r <= 0.0:
        raise BackscatterError("kernel quadrature requires r > 0")
    for k in sources:
        if k not in (2, 3, 4):
            raise BackscatterError(f"kernel index k must be 2, 3 or 4, got {k}")
    if q_tol <= 0.0:
        raise BackscatterError("q-panel tolerance must be positive")
    live = {k: n for k, n in sources.items() if not n.is_zero()}   # the nonzero sources
    if len({n.support() for n in live.values()}) > 1:
        raise BackscatterError("the nonzero sources of one call must share one support")
    out = {k: np.zeros(0) for k in sources}
    if not live:
        return out
    xg, wg = _gl(12)

    def panel_values(a: np.ndarray, b: np.ndarray) -> List[np.ndarray]:
        """12-node Gauss-Legendre values on (a_i, b_i), (panels, modes) per nonzero k."""
        half = 0.5 * (b - a)
        qs = ((0.5 * (a + b))[:, None] + half[:, None] * xg).ravel()
        l_max = max(max(n.ells()) for n in live.values())
        il = _mu_integrals(tuple(live), qs, t, r, l_max).reshape(len(live), a.size, xg.size, -1)
        w = wg * half[:, None]
        pvs = {n: [prof.value(qs).reshape(w.shape) for prof in n.modes.values()]
               for n in dict.fromkeys(live.values())}
        return [np.stack([(w * il[ki, :, :, lm[0]] * pv).sum(axis=1)
                          for lm, pv in zip(n.modes, pvs[n])], axis=-1)
                for ki, n in enumerate(live.values())]

    panels = _q_panels(next(iter(live.values())), t, r)
    lo, hi = np.array(panels, dtype=float).reshape(-1, 2).T
    mid = 0.5 * (lo + hi)
    first = panel_values(np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    deeper = {}   # a split panel's halves, for every k at once
    for ki, ((k, n), vals) in enumerate(zip(live.items(), first)):
        coarse, left, right = np.split(vals, 3)
        total = np.zeros(len(n.modes))
        scale = 0.0
        for i, (a, b) in enumerate(panels):
            stack = [(a, b, coarse[i], (left[i], right[i]), 0)]
            while stack:
                a0, b0, coarse0, halves, depth = stack.pop()
                m0 = 0.5 * (a0 + b0)
                if halves is None:
                    if (a0, b0) not in deeper:
                        deeper[a0, b0] = panel_values(*np.array([[a0, m0], [m0, b0]]))
                    halves = deeper[a0, b0][ki]
                left0, right0 = halves
                fine = left0 + right0
                err = float(np.max(np.abs(fine - coarse0)))
                scale = max(scale, float(np.max(np.abs(total + fine))), 1e-30)
                if err < q_tol * max(scale, 1.0) or depth >= 7:
                    total = total + fine
                else:
                    stack.append((a0, m0, left0, None, depth + 1))
                    stack.append((m0, b0, right0, None, depth + 1))
        out[k] = total
    return out


def _point_value(n: RadiationField, coeffs: np.ndarray, omega) -> float:
    """The field of mode coefficients ``coeffs`` (in ``n.modes`` order) at the
    direction omega."""
    if not coeffs.size:
        return 0.0
    y = ylm_at(list(n.modes), np.asarray(omega, dtype=float).reshape(1, 3))[:, 0]
    return float(sum(c * y_lm for c, y_lm in zip(coeffs, y)))


def phi_k(n: RadiationField, k: int, t: float, r: float, omega, q_tol: float) -> float:
    """Phi^k[n] at the spacetime point (t, r omega); omega a unit 3-vector,
    q_tol the q-panel tolerance of :func:`phi_k_modes`."""
    return _point_value(n, phi_k_modes({k: n}, t, r, q_tol)[k], omega)


def phi2_asymptotic(n: RadiationField, t: float, r: float, omega) -> float:
    """Leading light-cone term (1/2r) ln(<t+r>/<t-r>) int_{r-t}^inf n(q, w) dq.

    Only valid near the cone, r >= t/2; rejected outside that regime.
    """
    if r <= 0.0 or r < t / 2.0:
        raise BackscatterError("asymptotic form is valid for r >= t/2 and r > 0")
    q_lo = r - t
    total = 0.0
    if n.is_zero():
        return 0.0
    y = ylm_at(list(n.modes), np.asarray(omega, dtype=float).reshape(1, 3))[:, 0]
    for prof, y_lm in zip(n.modes.values(), y):
        hi = prof.center + prof.support_radius()
        if hi <= q_lo:
            continue
        qs, wq = _gl_panels(q_lo, hi, 200)
        total += float(wq @ prof.value(qs)) * float(y_lm)
    env = math.log(math.sqrt(1.0 + (t + r) ** 2) / math.sqrt(1.0 + (t - r) ** 2))
    return total * env / (2.0 * r)


def n_norm(n: RadiationField, a: float) -> float:
    """int sup_omega |n(q, omega)| <q_+>^a dq with the spectral angular
    convention and mean-normalized synthesis, on 200 Gauss-Legendre panels in
    theta with q = tan theta.  The sup is read on the directions of
    ``angular.sup_harmonics``, the poles included."""
    if n.is_zero():
        return 0.0
    y = sup_harmonics(list(n.modes))                                    # (modes, directions)
    theta, w = _gl_panels(-0.5 * math.pi, 0.5 * math.pi, 200)
    q = np.tan(theta)
    coeffs = SQRT4PI * np.array([prof.value(q) for prof in n.modes.values()])
    sup = np.max(np.abs(coeffs.T @ y), axis=1)
    qp = np.maximum(q, 0.0)
    total = float(w @ (sup * (1.0 + qp * qp) ** (0.5 * a) * (1.0 + q * q)))
    if not np.isfinite(total):
        raise BackscatterError("source norm integral diverged")
    return total


def source_value_modes(n: RadiationField, k: int, t: float, r: float) -> np.ndarray:
    """Right-hand side n(q) r^-k chi(<q>/r)^2 at (t, r), one per mode of ``n.modes``."""
    q = r - t
    c2 = float(chi_wave_zone.value(qbracket(q) / r)) ** 2
    return np.array([float(prof.value(q)) for prof in n.modes.values()]) * r ** (-k) * c2


# offsets (dt, dr), in steps of h, of the five points of the box stencil
FIVE_POINTS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def five_point_box(stencil, h: float, r: float, ells) -> np.ndarray:
    """Centered finite-difference box_l c = d_t^2 c - d_r^2 c - (2/r) d_r c +
    l(l+1) c / r^2, i.e. (d_t^2 - Lap), of per-mode coefficients of degrees
    ``ells`` from ``stencil``, their stacks at the points ``FIVE_POINTS``."""
    c0, ct_up, ct_dn, cr_up, cr_dn = stencil
    ctt = (ct_up - 2.0 * c0 + ct_dn) / h**2
    crr = (cr_up - 2.0 * c0 + cr_dn) / h**2
    cr = (cr_up - cr_dn) / (2.0 * h)
    return ctt - crr - 2.0 * cr / r + ells * (ells + 1.0) * c0 / r**2


def source_residual_check(n: RadiationField, ks: Sequence[int],
                          points: Sequence[Tuple[float, float]], h: float,
                          q_tol: float) -> Dict[int, Dict[str, float]]:
    """Centered finite-difference box of the quadrature solution vs the source,
    for each kernel index k of ``ks``.

    For each (t, r) the :func:`five_point_box` is evaluated per mode, each
    stencil value by :func:`phi_k_modes` at ``q_tol`` (one call per stencil
    point serves every k), in the orientation the
    positive retarded kernels satisfy (the kernels are the classical retarded
    response, so they solve (d_t^2 - Lap) Phi = source; a consumer
    assembling fields in the opposite metric-signature convention must
    negate them).  Returns, per k, the max relative residual over points and
    modes plus a noise floor estimate (``q_tol`` amplified by h^-2).
    """
    ells = np.array([l for (l, _m) in n.modes], dtype=float)
    stencils = []
    for (t, r) in points:
        if r <= 2 * h:
            raise BackscatterError("sample points must stay away from r = 0")
        stencils.append([phi_k_modes(dict.fromkeys(ks, n), t + dt * h, r + dr * h, q_tol)
                         for dt, dr in FIVE_POINTS])
    out = {}
    for k in ks:
        box = np.array([five_point_box([c[k] for c in st], h, r, ells)
                        for st, (_t, r) in zip(stencils, points)])
        src = np.array([source_value_modes(n, k, t, r) for (t, r) in points])
        src_scale = float(np.max(np.abs(src), initial=0.0) or np.max(np.abs(box), initial=0.0))
        if src_scale == 0.0:
            out[k] = {"max_rel_residual": 0.0, "noise_floor": 0.0}
            continue
        max_rel = float(np.max(np.abs(box - src))) / src_scale
        c0 = np.array([st[0][k] for st in stencils])
        noise = 4.0 * q_tol * float(np.max(np.abs(c0))) / h**2 / src_scale
        out[k] = {"max_rel_residual": max_rel, "noise_floor": noise}
    return out


def envelope_sweep(n: RadiationField, ks: Sequence[int], sweep: Sequence[Tuple[float, float]],
                   omega, a: float, q_tol: float) -> Dict[int, Dict[str, np.ndarray]]:
    """Decay-envelope diagnostics along a (t, r) sweep for each kernel index k
    of ``ks``, each value as :func:`phi_k` gives it at ``q_tol`` (one
    :func:`phi_k_modes` call per point serves every k).

    k=2: |Phi^2| * 2r / ln(<t+r>/<t-r>) * <(r-t)_+>^a
    k=3,4: |Phi^k| * <t+r> <t-r>^(k-2) * <(r-t)_+>^a
    """
    vals = np.array([[_point_value(n, c, omega)
                      for c in phi_k_modes(dict.fromkeys(ks, n), t, r, q_tol).values()]
                     for (t, r) in sweep]).reshape(len(sweep), len(ks))
    ts = np.array([t for (t, _r) in sweep])
    rs = np.array([r for (_t, r) in sweep])
    out = {}
    for ki, k in enumerate(ks):
        envs = []
        for (t, r), val in zip(sweep, vals[:, ki].tolist()):
            qp = max(r - t, 0.0)
            wqp = (1.0 + qp * qp) ** (0.5 * a)
            if k == 2:
                lg = math.log(math.sqrt(1.0 + (t + r) ** 2) / math.sqrt(1.0 + (t - r) ** 2))
                env = abs(val) * 2.0 * r / max(lg, 1e-300) * wqp
            else:
                env = (abs(val) * math.sqrt(1.0 + (t + r) ** 2)
                       * (1.0 + (t - r) ** 2) ** (0.5 * (k - 2)) * wqp)
            envs.append(env)
        out[k] = {"t": ts, "r": rs, "value": vals[:, ki], "envelope": np.asarray(envs)}
    return out


def brute_force_phi_k(n: RadiationField, k: int, t: float, r: float, omega,
                      n_q: int, n_theta: int, n_phi: int) -> float:
    """Independent dense product-grid quadrature of the defining integral in
    the original (un-rotated) frame; reference oracle only.

    The kernel depends on a direction only through mu = <dir, omega>, so each
    q-node computes it once per distinct mu (n_theta values when omega is a
    pole) and reads it back on every direction; the sum still runs over all
    n_theta * n_phi directions in grid order, with no azimuthal reduction."""
    if n.is_zero():
        return 0.0
    omega = np.asarray(omega, dtype=float)
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
    y = ylm_at(list(n.modes), dirs.reshape(-1, 3))
    mu = dirs.reshape(-1, 3) @ omega
    mu_u, inv = np.unique(mu, return_inverse=True)
    wang = (wc[:, None] * np.full((1, n_phi), 2.0 * math.pi / n_phi)).reshape(-1)
    nq = np.array([prof.value(qs) for prof in n.modes.values()])   # (modes, q-nodes)
    total = 0.0
    for qi, wqi, n_qi in zip(qs, wqs, nq.T):
        alpha = t - r + qi
        beta = t + r + qi
        if alpha <= 0:
            continue
        lam = alpha + r * (1.0 - mu_u)
        rho = 0.5 * alpha * beta / lam
        chi2 = chi_wave_zone.value(float(qbracket(qi)) / rho) ** 2
        if k == 2:
            ker = chi2 / lam
        elif k == 3:
            ker = chi2 * 2.0 / (alpha * beta)
        else:
            ker = chi2 * 4.0 * lam / (alpha * beta) ** 2
        nvals = np.zeros(mu.size)
        for n_lm, y_lm in zip(n_qi, y):
            nvals += n_lm * y_lm
        total += wqi * float(np.sum(wang * nvals * ker[inv])) / (4.0 * math.pi)
    return total
