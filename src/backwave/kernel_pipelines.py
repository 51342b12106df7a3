"""The weaknull and backscatter pipelines (see :mod:`backwave.scenarios`), the
two built on sampled profiles and retarded kernels.  Weak-null's strata and
d_t psi_e rows come in blocks of stage times from ``engine.stage_rows``, the
strata on the block's one ``radiation.wave_zone``; the crosscheck takes all
three strata's kernels from one ``phi_k_modes`` call per stencil point."""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from backwave.angular import band_modes, mode_rows, product_closures
from backwave.backscatter import (FIVE_POINTS, brute_force_phi_k, envelope_sweep,
                                  five_point_box, n_norm, phi_k, phi_k_modes, phi2_asymptotic,
                                  source_residual_check)
from backwave.cutoffs import chi_exterior
from backwave.engine import FieldState, ModeKey, RadialGrid, solve_backward_system, stage_rows
from backwave.functionals import FunctionalReport, energy_weighted, norm_Z_weighted, sup_envelope
from backwave.profiles import SampledProfile
from backwave.radiation import (SQRT4PI, RadiationField, derive_F1, eval_approximant,
                                eval_dt_psi01_exact, psi_e_terms, wave_zone)
from backwave.scenarios import (RATIO_BUDGET, RunSpec, ScenarioReport,
                                _minus_box_psi01_source, _provenance, fit_window_for,
                                record_times_for)


def _sampled_modes(qs: np.ndarray, arr: np.ndarray,
                   modes: Sequence[ModeKey]) -> Dict[ModeKey, SampledProfile]:
    """The rows of a stack of ``modes`` above 1e-14 of its largest entry, as
    profiles sampled on ``qs``."""
    scale = float(np.max(np.abs(arr))) or 1.0
    return {lm: SampledProfile(qs, row) for lm, row in zip(modes, arr)
            if np.max(np.abs(row)) > 1e-14 * scale}


def _dt_psi_modes(f0: RadiationField, f1: RadiationField, mass: float,
                  dpsi_modes: Sequence[ModeKey]):
    """Mode coefficients of d_t psi ``(v, t, r, schedule) ->`` one row per
    mode of ``dpsi_modes`` (the psi modes, f0's or else (0, 0), then (0, 0) if
    they lack it) at radii r: the remainder's v/r (``v`` holds its d_t u at r,
    one row per psi mode) plus the exact d_t psi01 and d_t psi_e
    (``schedule``: see ``stage_rows``)."""
    row_e = dpsi_modes.index((0, 0))

    def dt_psi(v: np.ndarray, t: float, r: np.ndarray, schedule) -> np.ndarray:
        block = np.zeros((len(dpsi_modes), r.size))
        block[:len(v)] = v / r
        block[:len(f0.modes)] += eval_dt_psi01_exact(f0, f1, t, r, schedule)
        block[row_e] += stage_rows(schedule, _dt_psi_e_rows, t, r,
                                   lambda stage: _dt_psi_e_rows(mass, stage))
        return block

    return dt_psi


def _dt_psi_e_rows(mass: float, block):
    """d_t psi_e's (0, 0) coefficients on an engine.StageBlock (ts, ascending r),
    (ts.size, r.size): -0.0, adding nothing, off 1 < r - t < 2 (tested on r - t in [1/2, 5/2))."""
    ts, r = block.ts, block.r
    near = slice(*np.searchsorted(r, [ts.min() + 0.5, ts.max() + 2.5]))
    q = r[near] - ts[:, None]
    ti, ji = np.nonzero((q > chi_exterior.lower) & (q < chi_exterior.upper))
    out = np.full((ts.size, r.size), -0.0)
    out[ti, near.start + ji] = psi_e_terms(mass, ts[ti], r[near][ji])[1]
    return out


def _strata_rows(strata: Dict[int, RadiationField], w_modes: Sequence[ModeKey],
                 block) -> np.ndarray:
    """The strata's w source sum_k n_k(r - t) r^-k chi(<r-t>/r)^2 on an engine.StageBlock
    (ts, r), (ts.size, len(w_modes), r.size + 1), column 0 (r = 0) zero: each
    (k, mode) one spline call where chi^2 is nonzero on the block's wave_zone."""
    cols, _inside, rb, q, _br, (c, _cp, _cpp) = block.share(wave_zone, wave_zone)
    ti, ji = np.nonzero(c ** 2)
    q, rb, c2, ji = q[ti, ji], rb[ji], c[ti, ji] ** 2, 1 + cols.start + ji
    out = np.zeros((block.ts.size, len(w_modes), block.r.size + 1))
    for k, srcp in strata.items():
        rbk = rb ** (-float(k))
        for i, lm in enumerate(w_modes):
            if lm in srcp.modes:
                out[ti, i, ji] += srcp.modes[lm].value(q) * rbk * c2
    return out


def _strata_sources(f0: RadiationField, f1: RadiationField, mass: float,
                    l_out: int, q_range: Tuple[float, float]) -> Dict[int, RadiationField]:
    """Light-cone strata n_2, n_3, n_4 of (psi0' + psi_e' + psi1')^2.

    n_2 = (F0' + M chi_e')^2, n_3 = 2 (F0' + M chi_e') F1', n_4 = (F1')^2,
    expanded into every (l, m) up to l_out on a q table of 8192 points
    (angular products on the full sphere, once per run: the crosscheck's
    adaptive kernel quadrature turns rounding moves of these profiles into
    6e-9 moves of its item).  ``q_range`` bounds the table;
    everything beyond it is annihilated by the wave-zone cutoff in every
    consumer, so a run-sized range is exact.
    """
    qs = np.linspace(q_range[0], q_range[1], 8192)
    in_modes = list(dict.fromkeys([(0, 0), *f0.modes]))
    base, f1p = (np.array([f.modes[lm].derivative(qs) if lm in f.modes else np.zeros(qs.size)
                           for lm in in_modes]) for f in (f0, f1))   # F0', F1' coefficients
    base[0] += mass * chi_exterior.derivative(qs) * SQRT4PI           # + M chi_e'
    out_modes = band_modes(l_out)
    to_vals, to_modes = product_closures(in_modes, out_modes)
    vb = to_vals(base)
    v1 = to_vals(f1p)
    n2 = to_modes(vb * vb)
    n3 = to_modes(2.0 * vb * v1)
    n4 = to_modes(v1 * v1)
    return {k: RadiationField(_sampled_modes(qs, arr, out_modes))
            for k, arr in ((2, n2), (3, n3), (4, n4))}


def run_weak_null(spec: RunSpec) -> ScenarioReport:
    rep = ScenarioReport(name="weaknull")
    f0 = spec.field_from(spec.f0_modes)
    g0 = spec.field_from(spec.g0_modes)
    if f0.is_zero() and g0.is_zero() and spec.mass == 0.0:
        rep.add_item("zero_data_zero_solution", "check", 0.0, note="no data, nothing to solve")
        return rep
    l_psi = max([l for (l, _m) in f0.modes] + [0])
    l_w = max([min(spec.l_max, 2 * l_psi)] + [l for (l, _m) in g0.modes])
    axisym = all(m == 0 for f in (f0, g0) for (_l, m) in f.modes)
    w_modes = [(l, m) for (l, m) in band_modes(l_w) if m == 0 or not axisym]
    psi_modes = list(f0.modes) or [(0, 0)]
    dpsi_modes = list(dict.fromkeys([*psi_modes, (0, 0)]))

    grid = RadialGrid.for_run(spec.h, spec.T, spec.t0)
    f1 = derive_F1(f0, q_max=grid.r_max + 2.0)
    g1 = derive_F1(g0, q_max=grid.r_max + 2.0)
    r_pos = grid.r[1:]
    strata = _strata_sources(f0, f1, spec.mass, l_w,
                             q_range=(-(spec.T + 10.0), 0.25 * grid.r_max + 10.0))
    to_vals, to_modes = product_closures(dpsi_modes, w_modes)
    dt_psi = _dt_psi_modes(f0, f1, spec.mass, dpsi_modes)
    psi_source = _minus_box_psi01_source(f0, f1, psi_modes, r_pos)
    g_source = None if g0.is_zero() else _minus_box_psi01_source(g0, g1, w_modes, r_pos)

    def w_source(t: float, views) -> Dict[str, np.ndarray]:
        # d_t psi, exact at substage times: remainder + approximant derivatives
        vpsi = views["vpsi"]
        vals = to_vals(dt_psi(vpsi.v[:, 1:], t, r_pos, vpsi.schedule))   # pointwise d_t psi
        s_w = np.zeros((len(w_modes), grid.J + 1))
        s_w[:, 1:] = to_modes(vals * vals)                     # modes of (d_t psi)^2
        s_w -= stage_rows(vpsi.schedule, _strata_rows, t, r_pos,
                          lambda stage: _strata_rows(strata, w_modes, stage))
        if g_source is not None:
            s_w += g_source(t, views["w"])
        s_w[:, 0] = 0.0
        # remainder of psi keeps its own linear source
        return {"vpsi": psi_source(t, views["vpsi"]), "w": s_w}

    fields = {
        "vpsi": FieldState(spec.T, grid, psi_modes),
        "w": FieldState(spec.T, grid, w_modes),
    }
    records = record_times_for(spec)
    for tc, _rc in spec.check_points:
        records = sorted(set(records) | {tc - spec.h, tc, tc + spec.h}, reverse=True)
    traj = solve_backward_system(fields, w_source, spec.T, spec.t0, records, cfl=spec.cfl)

    for st in traj.states["w"]:
        rep.series.append(FunctionalReport(t=st.t, values={
            "norm_1_s_surrogate": norm_Z_weighted(st, spec.s),
            "sup_envelope": sup_envelope(st, spec.s), "energy_w1": energy_weighted(st)}))
    rep.add_fit("w_norm_exponent", "norm_1_s_surrogate", fit_window_for(spec),
                -(0.5 + spec.gamma - spec.s), spec.exponent_tol)
    wlo, whi = spec.envelope_window
    rep.add_window_ratio("w_envelope_bounded", "sup_envelope", spec.envelope_window,
                         spec.envelope_budget,
                         f"max/min of <t+r><t-r>^(s-1/2)|w| over t in [{wlo:g},{whi:g}]")

    if spec.check_points:
        res = _weaknull_crosscheck(spec, traj, dt_psi, to_vals, to_modes, g0, g1, strata,
                                   w_modes, grid)
        rep.add_item("interior_box_crosscheck", "bound", res, hi=1e-2,
                     note="max rel |discrete box phi - (d_t psi)^2| at check points")
    rep.provenance = _provenance(grid, [traj])
    return rep


def _weaknull_crosscheck(spec, traj, dt_psi, to_vals, to_modes, g0, g1, strata, w_modes,
                         grid) -> float:
    """Discrete box of the assembled phi = w + varphi01 + phi01 against the
    quadratic source (d_t psi)^2 (``dt_psi``, ``to_vals`` and ``to_modes``:
    the march's), at the configured check points."""
    h = spec.h
    # phi is summed on w's modes, in list order; a stratum mode that w lacks
    # (w may carry its m = 0 modes only) is not read
    picks = [([i for i, lm in enumerate(srcp.modes) if lm in w_modes],
              [w_modes.index(lm) for lm in srcp.modes if lm in w_modes])
             for srcp in strata.values()]
    g_rows = mode_rows(list(g0.modes), w_modes)

    def phi_mode_coeffs(t: float, r: float) -> np.ndarray:
        """phi = w + varphi01 + phi01 mode coefficients at one point."""
        st = traj.state_at(t, "w")
        j = int(round(r / h))
        out = st.u[:, j] / grid.r[j]
        # varphi01 = -(retarded kernels, one call) in the -dt^2+Lap convention
        for (keep, rows), coeffs in zip(picks, phi_k_modes(strata, t, r, 1e-10).values()):
            out[rows] -= coeffs[keep]
        out[g_rows] += eval_approximant(g0, g1, t, np.asarray([r]))[:, 0]
        return out

    boxes, rhs = [], []
    for (tc, rc) in spec.check_points:
        jc = int(round(rc / h))
        rc_snap = grid.r[jc]
        stencil = [phi_mode_coeffs(tc + dt * h, grid.r[jc + dr]) for dt, dr in FIVE_POINTS]
        # in the -dt^2+Lap convention of the march
        boxes.append(-five_point_box(stencil, h, rc_snap, traj.state_at(tc, "w").ell))
        # (d_t psi)^2 modes at the check point
        stp = traj.state_at(tc, "vpsi")
        vals = to_vals(dt_psi(stp.v[:, jc:jc + 1], tc, np.asarray([rc_snap]), None))
        rhs.append(to_modes(vals * vals)[:, 0])
    boxes, rhs = np.array(boxes), np.array(rhs)
    scale = float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(boxes - rhs))) / scale if scale else 0.0


def _news_source(spec: RunSpec, f0: RadiationField) -> RadiationField:
    """n(q, omega) = (F0'(q, omega))^2 as sampled mode profiles, analysed into
    every (l, m) up to 2 l_in on the full sphere (once per run: the audit's
    oracle item, a difference, turns rounding moves of n into 2e-5 moves)."""
    out_modes = band_modes(min(spec.l_max, 2 * max(l for (l, _m) in f0.modes)))
    lo, hi = f0.support()
    sup = max(abs(lo), abs(hi), 4.0)
    qs = np.linspace(-sup, sup, 4096)
    to_vals, to_modes = product_closures(list(f0.modes), out_modes)
    vals = to_vals(np.array([prof.derivative(qs) for prof in f0.modes.values()]))
    return RadiationField(_sampled_modes(qs, to_modes(vals * vals), out_modes))


def run_backscatter_audit(spec: RunSpec) -> ScenarioReport:
    rep = ScenarioReport(name="backscatter")
    f0 = spec.field_from(spec.f0_modes)
    if f0.is_zero():
        rep.add_item("zero_field_zero_audit", "check", 0.0)
        return rep
    n = _news_source(spec, f0)
    omega = np.array([0.0, 0.0, 1.0])
    q_tol = 1e-9
    norm = n_norm(n, spec.a)

    # oracle points: kernel quadrature vs dense brute force
    # reference points keep the source dead near the q-endpoint so the
    # product-grid oracle resolves the kernel (the near-cone regime is
    # covered by the residual check); one exterior-leaning geometry included
    points = [(40.0, 30.0), (25.0, 18.0), (60.0, 50.0), (36.0, 28.0), (50.0, 26.0)]
    worst = 0.0
    for (t, r) in points:
        v1 = phi_k(n, 2, t, r, omega, q_tol)
        v2 = brute_force_phi_k(n, 2, t, r, omega, n_q=500, n_theta=260, n_phi=96)
        if abs(v2) > 1e-300:
            worst = max(worst, abs(v1 - v2) / abs(v2))
    rep.add_item("phi2_vs_bruteforce", "bound", worst, hi=1e-4,
                 note=f"max relative difference at {len(points)} reference points")

    # decay envelopes along t = r + 5
    sweep = [(r + 5.0, r) for r in (20.0, 28.0, 40.0, 57.0, 80.0, 113.0, 160.0)]
    leads = [phi2_asymptotic(n, t, r, omega) for (t, r) in sweep]
    sweeps = envelope_sweep(n, (2, 3, 4), sweep, omega, spec.a, q_tol)
    for k, out in sweeps.items():
        rep.add_item(f"envelope_k{k}", "bound", float(np.max(out["envelope"])) / max(norm, 1e-300),
                     hi=RATIO_BUDGET,
                     note=f"sup envelope / ||n|| along t=r+5 (values {np.round(out['envelope'], 4).tolist()})")
        for tt, rr, val, env, lead in zip(out["t"], out["r"], out["value"], out["envelope"],
                                          leads):
            row = {f"phi{k}": float(val), f"envelope_k{k}": float(env),
                   "r": float(rr), "direction_index": 0.0}
            if k == 2:
                row["phi2_asymptotic"] = lead
            rep.series.append(FunctionalReport(t=float(tt), values=row))

    # near-cone asymptotics: remainder against the log-leading term
    rem = []
    for (t, r), full, lead in zip(sweep, sweeps[2]["value"].tolist(), leads):
        qp = max(r - t, 0.0)
        rem.append(abs(full - lead) * math.sqrt(1.0 + (t + r) ** 2)
                   * (1.0 + qp * qp) ** (0.5 * spec.a))
    rep.add_item("phi2_asymptotic_remainder", "bound", float(np.max(rem)) / max(norm, 1e-300),
                 hi=RATIO_BUDGET,
                 note="|phi2 - leading| <t+r> <q+>^a / ||n|| along the sweep")

    # wave-operator residuals for all three kernels
    residuals = source_residual_check(n, (2, 3, 4), [(12.0, 11.0), (16.0, 15.0)], h=0.05,
                                      q_tol=q_tol)
    for k, res in residuals.items():
        # a residual under twice its noise floor is inconclusive and fails
        rep.add_item(f"source_residual_k{k}", "bound", res["max_rel_residual"],
                     2.0 * res["noise_floor"], 1e-2, note=f"noise floor {res['noise_floor']:.2e}")
    return rep
