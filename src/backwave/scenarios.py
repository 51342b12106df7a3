"""End-to-end pipelines: scattering constructions and audit batteries.

Each scenario takes a validated :class:`RunSpec`, runs the relevant solves
and measurements, and returns a :class:`ScenarioReport` whose items carry
the claimed target (exponent or budget), the measured value, the tolerance
and a pass flag; overall pass/fail is pure arithmetic on the items.

Pipelines
---------
free_wave      solver gate: backward d'Alembert refinement study, time
               reversal, energy conservation.
homogeneous    build psi01 + psi_e from the radiation field, solve
               box v = -box psi01 backward from trivial data at T, fit the
               decay of the weighted source norm, the energy of v and the
               conformal norm of v (each judged between the rate of the
               class the data realize and the declared-gamma rate), and
               check boundedness of the first-order norm and pointwise
               envelope of psi.
tlimit         repeat the homogeneous remainder solve for increasing T and
               measure the Cauchy differences at t0 (and the remainder
               norms at the earlier horizons).
weaknull       co-evolve the pair (remainder of psi, remainder w of phi)
               with the quadratic coupling (d_t psi)^2, the light-cone
               strata resolved by the retarded kernel solutions.
nullradial     spherically symmetric classical null-form model, backward
               from trivial remainder data, with the quadratic scaling
               check.
backscatter    kernel-quadrature audit: oracle points, decay envelopes,
               near-cone asymptotics, wave-operator residuals.
audit          estimate battery: multiplier identity refinements, bulk
               sign, Hardy ratios, pointwise-decay constants, weighted
               space-time instance, origin decay.
convergence    discrete-operator residual orders on exact solutions.

Fit windows default to the last decade [10 t0, 100 t0] when the run is
long enough and otherwise to the last factor-4 span; a target exponent too
shallow to resolve over the window (total expected change < 1.5x) degrades
to a monotone-boundedness check, which is recorded on the item.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field as dc_field, asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from backwave import __version__
from backwave.angular import mode_count, mode_index, product_closures
from backwave.cutoffs import chi_exterior, chi_wave_zone
from backwave.engine import (ConeSpec, ContainmentError, EngineError, FieldState,
                             RadialGrid, Trajectory, convergence_order,
                             discrete_box_field, solve_backward,
                             solve_backward_system)
from backwave.functionals import (FitResult, FunctionalError, FunctionalReport, WeightSpec,
                                  backward_estimate_constant, bulk_sign_check,
                                  conformal_norm_plus, cor_weighted_spacetime_instance,
                                  energy_conservation_drift, energy_weighted,
                                  fit_decay, hardy_checks, ks_pointwise_check,
                                  morawetz_identity_audit, norm_Z_weighted,
                                  origin_decay_check, sup_envelope)
from backwave.profiles import SampledProfile, make_profile, qbracket
from backwave.radiation import (MassTerm, RadiationField, SQRT4PI, derive_F1,
                                eval_approximant, eval_dt_psi01_exact,
                                realized_decay_class, residual_box_psi01,
                                source_norm_weighted)
from backwave.backscatter import (KernelQuadratureSpec, SourceProfile,
                                  brute_force_phi_k, envelope_sweep, n_norm,
                                  phi_k, phi_k_modes, phi2_asymptotic,
                                  source_residual_check)

ModeKey = Tuple[int, int]

SCENARIOS = ("free_wave", "homogeneous", "tlimit", "weaknull", "nullradial",
             "backscatter", "audit", "convergence")


class ScenarioError(RuntimeError):
    pass


@dataclass
class RunSpec:
    """Validated description of one run; built from a config document."""

    scenario: str = "free_wave"
    f0_modes: List[Tuple[int, int, dict]] = dc_field(default_factory=list)
    g0_modes: List[Tuple[int, int, dict]] = dc_field(default_factory=list)
    gamma: float = 0.8
    s: float = 1.2
    mass: float = 0.0
    mu: float = 0.1
    a: float = 0.0
    delta: float = 0.3
    T: float = 40.0
    t0: float = 2.0
    T_list: List[float] = dc_field(default_factory=list)
    h: float = 0.1
    cfl: float = 0.5
    l_max: int = 8
    n_records: int = 40
    fit_lo: Optional[float] = None
    fit_hi: Optional[float] = None
    amplitude: float = 0.01
    exponent_tol: float = 0.15
    envelope_budget: float = 5.0
    hardy_budget: float = 10.0
    ratio_budget: float = 10.0
    bound_factor: float = 5.0
    envelope_window: Tuple[float, float] = (4.0, 40.0)
    check_points: List[Tuple[float, float]] = dc_field(default_factory=list)

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ScenarioError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if not 0.5 < self.gamma < 1.0:
            raise ScenarioError(f"gamma must satisfy 1/2 < gamma < 1, got {self.gamma}")
        if self.scenario in ("homogeneous", "tlimit", "weaknull"):
            if not (1.0 <= self.s < self.gamma + 0.5):
                raise ScenarioError(
                    f"s must satisfy 1 <= s < gamma + 1/2 = {self.gamma + 0.5}, got {self.s}")
        if not (self.T > self.t0 >= 1.0):
            raise ScenarioError(f"need T > t0 >= 1, got T={self.T}, t0={self.t0}")
        if self.h <= 0 or self.cfl <= 0 or self.cfl > 0.5 + 1e-12:
            raise ScenarioError("need h > 0 and 0 < cfl <= 0.5")
        if self.mass < 0:
            raise ScenarioError("mass must be >= 0")
        if self.scenario == "tlimit" and len(self.T_list) < 2:
            raise ScenarioError("tlimit needs an increasing T_list of length >= 2")
        if self.T_list != sorted(self.T_list):
            raise ScenarioError("T_list must be increasing")
        return self

    def field_from(self, mode_specs) -> RadiationField:
        modes = {}
        for (l, m, prof_spec) in mode_specs:
            modes[(l, m)] = make_profile(prof_spec, gamma=self.gamma)
        return RadiationField(modes, l_max=self.l_max, gamma=self.gamma)

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class ReportItem:
    name: str
    kind: str                  # "fit" | "bound" | "order" | "check"
    measured: float
    target: Optional[float] = None
    tol: Optional[float] = None
    passed: bool = False
    note: str = ""
    gamma_data: Optional[float] = None        # decay class the data realize
    realized_target: Optional[float] = None   # exponent for that class

    def as_dict(self):
        return {"name": self.name, "kind": self.kind, "measured": self.measured,
                "target": self.target, "tol": self.tol, "passed": self.passed,
                "note": self.note, "gamma_data": self.gamma_data,
                "realized_target": self.realized_target}


@dataclass
class ScenarioReport:
    name: str
    spec: dict
    items: List[ReportItem] = dc_field(default_factory=list)
    series: List[FunctionalReport] = dc_field(default_factory=list)
    provenance: Dict[str, object] = dc_field(default_factory=dict)
    status: str = "ok"
    error: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "ok" and all(it.passed for it in self.items)

    def add_fit(self, name: str, fit: FitResult, target: float, tol: float,
                fallback_series=None, gamma_data: Optional[float] = None,
                realized_target: Optional[float] = None) -> ReportItem:
        """Record a fitted exponent against its target; degrade to a
        boundedness check (no increase beyond 20%) when the window cannot
        resolve the slope.

        ``target`` is the rate of the declared class, an upper bound on the
        decay the data can show.  When the data realize a class
        ``gamma_data`` with the steeper rate ``realized_target``, the fit
        passes between ``realized_target - tol`` and ``target + tol``;
        without a realized target the check is two-sided about ``target``.
        """
        lo, hi = fit.window
        resolvable = (hi / lo) ** abs(target) >= 1.5 if lo > 0 else True
        realized = target if realized_target is None else realized_target
        class_note = ("" if realized_target is None else
                      f"; gamma_data={gamma_data:g} realized target {realized_target:g}")
        if resolvable or fallback_series is None:
            gap = max(realized - fit.exponent, fit.exponent - target, 0.0)
            item = ReportItem(name=name, kind="fit", measured=fit.exponent,
                              target=target, tol=tol, passed=bool(gap <= tol),
                              note=f"r2={fit.r_squared:.4f} window=({lo:g},{hi:g})"
                                   + class_note)
        else:
            ts, ys = fallback_series
            ref = max(ys[0], 1e-300)
            worst = float(np.max(ys) / ref)
            item = ReportItem(name=name, kind="bound", measured=worst,
                              target=1.0, tol=1.2 - 1.0, passed=bool(worst <= 1.2),
                              note=f"shallow target {target:g}; nonincrease within "
                                   f"20% (fit {fit.exponent:.3f})" + class_note)
        item.gamma_data, item.realized_target = gamma_data, realized_target
        self.items.append(item)
        return item

    def add_bound(self, name: str, measured: float, budget: float, note: str = "") -> ReportItem:
        item = ReportItem(name=name, kind="bound", measured=measured, target=budget,
                          tol=None, passed=bool(measured <= budget), note=note)
        self.items.append(item)
        return item

    def add_order(self, name: str, measured: float, target: float = 2.0,
                  tol: float = 0.1, one_sided: bool = False, note: str = "") -> ReportItem:
        ok = measured >= target - tol if one_sided else abs(measured - target) <= tol
        item = ReportItem(name=name, kind="order", measured=measured, target=target,
                          tol=tol, passed=bool(ok), note=note)
        self.items.append(item)
        return item

    def add_check(self, name: str, passed: bool, measured: float = float("nan"),
                  note: str = "") -> ReportItem:
        item = ReportItem(name=name, kind="check", measured=measured, passed=bool(passed),
                          note=note)
        self.items.append(item)
        return item


def record_times_for(spec: RunSpec) -> List[float]:
    """Geometric record times from T down to t0."""
    n = max(spec.n_records, 8)
    ts = np.geomspace(spec.t0, spec.T, n)
    return sorted(set(np.round(ts, 10).tolist()) | {spec.T, spec.t0}, reverse=True)


def _series_for_fit(ts: np.ndarray, ys: np.ndarray, t_exclude: float = None):
    """Ascending series with nonpositive values dropped; optionally drop the
    data horizon t = t_exclude where a remainder field is identically zero."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    order = np.argsort(ts)
    ts, ys = ts[order], ys[order]
    keep = np.isfinite(ys) & (ys > 1e-14 * max(float(np.max(np.abs(ys))), 1e-300))
    if t_exclude is not None:
        keep &= ts < t_exclude - 1e-9
    return ts[keep], ys[keep]


def _in_window(ts: np.ndarray, ys: np.ndarray, window: Tuple[float, float]):
    """The samples of a series with ts inside the closed window."""
    sel = (ts >= window[0]) & (ts <= window[1])
    return ts[sel], ys[sel]


def _max_over_min(ys: np.ndarray) -> float:
    return float(np.max(ys)) / max(float(np.min(ys)), 1e-300)


def fit_window_for(spec: RunSpec) -> Tuple[float, float]:
    if spec.fit_lo is not None and spec.fit_hi is not None:
        return (spec.fit_lo, spec.fit_hi)
    if spec.T >= 100.0 * spec.t0:
        return (10.0 * spec.t0, 100.0 * spec.t0)
    return (spec.T / 4.0, spec.T)


def _provenance(spec: RunSpec, grid: RadialGrid = None, trajs: Sequence[Trajectory] = (),
                started: float = None) -> Dict[str, object]:
    """Run identity plus the grid, the largest step of the solves on that
    grid and the total step count over all the run's solves ``trajs``."""
    out = {"version": __version__, "config_hash": spec.config_hash()}
    if grid is not None:
        out.update({"h": grid.h, "J": grid.J, "r_max": grid.r_max})
    if trajs:
        out.update({"dt_max": max(tr.dt_max for tr in trajs if tr.grid == grid),
                    "steps": sum(tr.steps for tr in trajs)})
    if started is not None:
        out["runtime_s"] = round(time.time() - started, 3)
    return out


# ---------------------------------------------------------------------------
# free-wave gate
# ---------------------------------------------------------------------------

def _dalembert(center: float = 10.0):
    def u(t, r):
        return np.exp(-(t - r - center) ** 2) - np.exp(-(t + r - center) ** 2)

    def v(t, r):
        return (-2.0 * (t - r - center) * np.exp(-(t - r - center) ** 2)
                + 2.0 * (t + r - center) * np.exp(-(t + r - center) ** 2))

    return u, v


def run_free_wave_validation(spec: RunSpec) -> ScenarioReport:
    started = time.time()
    rep = ScenarioReport(name="free_wave", spec=asdict(spec))
    T, t0 = 6.0, 1.0
    ue, ve = _dalembert()
    errs = []
    hs = [spec.h, spec.h / 2.0, spec.h / 4.0]
    trajs = []
    for h in hs:
        grid = RadialGrid(h=h, J=int(round(20.0 / h)))
        st = FieldState(T, grid, [(0, 0)], ue(T, grid.r)[None, :], ve(T, grid.r)[None, :])
        trajs.append(solve_backward(st, None, T, t0, [t0], cfl=spec.cfl))
        end = trajs[-1].field_states()[-1]
        errs.append(float(np.max(np.abs(end.u[0] - ue(t0, grid.r)))))
    rep.add_order("dalembert_backward_order", convergence_order(errs), 2.0, 0.1,
                  note=f"errors {errs}")
    # time reversal: reflect the endpoint and march back up to T
    grid = RadialGrid(h=hs[1], J=int(round(20.0 / hs[1])))
    st = FieldState(T, grid, [(0, 0)], ue(T, grid.r)[None, :], ve(T, grid.r)[None, :])
    trajs.append(solve_backward(st, None, T, t0, [t0]))
    end = trajs[-1].field_states()[-1]
    refl = FieldState(T, grid, [(0, 0)], end.u, -end.v)
    trajs.append(solve_backward(refl, None, T, t0, [t0]))
    back = trajs[-1].field_states()[-1]
    rev_err = float(np.max(np.abs(back.u[0] - ue(T, grid.r))))
    rep.add_bound("time_reversal_error", rev_err, 50.0 * hs[1] ** 2,
                  note="backward+reflected backward returns the data at O(h^2)")
    # energy conservation along the free solve
    st = FieldState(T, grid, [(0, 0)], ue(T, grid.r)[None, :], ve(T, grid.r)[None, :])
    trajs.append(solve_backward(st, None, T, t0, list(np.linspace(t0, T, 9))))
    rep.add_bound("energy_conservation_drift", energy_conservation_drift(trajs[-1]),
                  50.0 * hs[1] ** 2)
    rep.provenance = _provenance(spec, grid, trajs, started)
    return rep


# ---------------------------------------------------------------------------
# homogeneous scattering from radiation data
# ---------------------------------------------------------------------------

def _minus_box_psi01_rows(f0: RadiationField, f1: RadiationField, modes: Sequence[ModeKey],
                          t: float, r_pos: np.ndarray) -> np.ndarray:
    """-box psi01 at time t as one row per mode of ``modes``, on the grid
    r = 0, r_pos: shape (len(modes), r_pos.size + 1), zero at r = 0 and on
    modes psi01 lacks.  The remainder v = psi - psi01 solves box v = this."""
    res = residual_box_psi01(f0, f1, t, r_pos)
    out = np.zeros((len(modes), r_pos.size + 1))
    for i, lm in enumerate(modes):
        if lm in res:
            out[i, 1:] = -res[lm]
    return out


def _assemble_psi(state: FieldState, f0: RadiationField, f1: RadiationField,
                  mass: MassTerm) -> FieldState:
    """psi = v + psi01 + psi_e on the state's grid (modes extended by (0,0))."""
    modes = list(state.modes)
    if mass.M > 0 and (0, 0) not in modes:
        modes = [(0, 0)] + modes
    grid = state.grid
    r_pos = grid.r[1:]
    u = np.zeros((len(modes), grid.J + 1))
    v = np.zeros_like(u)
    for i, lm in enumerate(modes):
        if lm in state.modes:
            j = state.modes.index(lm)
            u[i] = state.u[j]
            v[i] = state.v[j]
    p01 = eval_approximant(f0, f1, mass, "psi01", state.t, r_pos)
    dt01 = eval_dt_psi01_exact(f0, f1, state.t, r_pos)
    pe = eval_approximant(f0, f1, mass, "psi_e", state.t, r_pos)
    dpe = eval_approximant(f0, f1, mass, "dt_psi_e", state.t, r_pos)
    for i, lm in enumerate(modes):
        add_u = p01.get(lm, 0.0) + pe.get(lm, 0.0)
        add_v = dt01.get(lm, 0.0) + dpe.get(lm, 0.0)
        u[i, 1:] += np.asarray(add_u) * r_pos
        v[i, 1:] += np.asarray(add_v) * r_pos
    return FieldState(state.t, grid, modes, u, v)


def run_homogeneous_scattering(spec: RunSpec) -> ScenarioReport:
    started = time.time()
    rep = ScenarioReport(name="homogeneous", spec=asdict(spec))
    f0 = spec.field_from(spec.f0_modes)
    if f0.is_zero() and spec.mass == 0.0:
        rep.add_check("zero_data_zero_solution", True, 0.0, "no data, nothing to solve")
        return rep
    mass = MassTerm(spec.mass)
    grid = RadialGrid.for_run(spec.h, spec.T, spec.t0)
    f1 = derive_F1(f0, q_max=grid.r_max + 2.0)
    modes = [lm for lm, _p in f0.mode_items()] or [(0, 0)]
    data = FieldState(spec.T, grid, modes)   # trivial data for the remainder
    r_pos = grid.r[1:]
    records = record_times_for(spec)
    cones = [ConeSpec(s=spec.s, R=0.5 * grid.r_max, t2=spec.T)]
    traj = solve_backward(data, lambda t, _view: _minus_box_psi01_rows(f0, f1, modes, t, r_pos),
                          spec.T, spec.t0, records, cfl=spec.cfl, cone_specs=cones)

    window = fit_window_for(spec)
    ts, src_norm, energy_v, conf_v, norm1s_psi, env_psi = [], [], [], [], [], []
    for i, st in enumerate(traj.field_states()):
        ts.append(st.t)
        src_norm.append(source_norm_weighted(f0, f1, st.t, r_pos, spec.s))
        energy_v.append(math.sqrt(energy_weighted(st)))
        conf_v.append(conformal_norm_plus(st, spec.s))
        psi = _assemble_psi(st, f0, f1, mass)
        norm1s_psi.append(norm_Z_weighted(psi, spec.s))
        env_psi.append(sup_envelope(psi, spec.s))
        values = {
            "source_norm_s": src_norm[-1], "energy_v": energy_v[-1],
            "norm_conf_plus": conf_v[-1], "norm_1_s_surrogate": norm1s_psi[-1],
            "sup_envelope": env_psi[-1],
            "energy_w1": energy_v[-1] ** 2,
            "energy_w0": energy_weighted(st, WeightSpec(kind="w0", mu=spec.mu)),
        }
        for key, hist in traj.cone_history.items():
            values[f"flux_{key}"] = hist[i]
        rep.series.append(FunctionalReport(t=st.t, values=values))
    ts = np.asarray(ts)

    # each rate is a function of the decay class: the declared gamma bounds
    # the decay, the class the data realize (read from F1's tail) is sharp
    gamma_data = realized_decay_class(f1)

    def add_class_fit(name, fit, rate, **kw):
        rep.add_fit(name, fit, target=rate(spec.gamma), tol=spec.exponent_tol,
                    gamma_data=gamma_data,
                    realized_target=None if gamma_data is None else rate(gamma_data), **kw)

    t_a, y_a = _series_for_fit(ts, src_norm)
    add_class_fit("source_norm_exponent", fit_decay(t_a, y_a, window),
                  lambda g: -(1.5 + g - spec.s))
    # the remainder is identically zero at the data horizon t = T; decay is
    # measured strictly inside the solve interval
    t_b, y_b = _series_for_fit(ts, energy_v, t_exclude=spec.T)
    add_class_fit("energy_exponent", fit_decay(t_b, y_b, window),
                  lambda g: -(0.5 + g))
    t_c, y_c = _series_for_fit(ts, conf_v, t_exclude=spec.T)
    add_class_fit("conformal_norm_exponent", fit_decay(t_c, y_c, window),
                  lambda g: -(0.5 + g - spec.s), fallback_series=_in_window(t_c, y_c, window))
    _t, y_d = _in_window(*_series_for_fit(ts, norm1s_psi), window)
    rep.add_bound("norm_1s_bounded", _max_over_min(y_d), spec.bound_factor,
                  note="max/min of the first-order norm surrogate over the fit window")
    _t, y_e = _in_window(*_series_for_fit(ts, env_psi), window)
    rep.add_bound("envelope_bounded", _max_over_min(y_e), spec.bound_factor,
                  note="max/min of sup <t+r><t-r>^(s-1/2)|psi| over the fit window")
    # observed constant of the backward weighted estimate
    states = traj.field_states()
    c_obs = backward_estimate_constant(states, spec.s, src_norm)
    rep.add_bound("backward_estimate_constant", c_obs, spec.ratio_budget,
                  note="||v(t0)||_{1,+,s-1} / (||v(T)|| + int source)")
    rep.provenance = _provenance(spec, grid, [traj], started)
    return rep


# ---------------------------------------------------------------------------
# T -> infinity Cauchy study
# ---------------------------------------------------------------------------

def run_T_limit_study(spec: RunSpec) -> ScenarioReport:
    started = time.time()
    rep = ScenarioReport(name="tlimit", spec=asdict(spec))
    f0 = spec.field_from(spec.f0_modes)
    t_list = list(spec.T_list)
    T_max = t_list[-1]
    grid = RadialGrid.for_run(spec.h, T_max, spec.t0)
    f1 = derive_F1(f0, q_max=grid.r_max + 2.0)
    modes = [lm for lm, _p in f0.mode_items()]
    r_pos = grid.r[1:]
    ends: Dict[float, FieldState] = {}
    trajs: List[Trajectory] = []
    horizon_norms: Dict[Tuple[float, float], Dict[str, float]] = {}
    for T in t_list:
        data = FieldState(T, grid, modes)
        records = sorted({spec.t0} | {tt for tt in t_list if tt < T}, reverse=True)
        traj = solve_backward(data,
                              lambda t, _view: _minus_box_psi01_rows(f0, f1, modes, t, r_pos),
                              T, spec.t0, records, cfl=spec.cfl)
        trajs.append(traj)
        ends[T] = traj.state_at(spec.t0)
        for T1 in (tt for tt in t_list if tt < T):
            st = traj.state_at(T1)
            horizon_norms[(T, T1)] = {
                "energy": math.sqrt(energy_weighted(st)),
                "conf": conformal_norm_plus(st, spec.s),
            }
    diffs = []
    for T1, T2 in zip(t_list[:-1], t_list[1:]):
        d = ends[T2].copy()
        d.u -= ends[T1].u
        d.v -= ends[T1].v
        e = math.sqrt(energy_weighted(d))
        diffs.append((T1, T2, e))
        rep.series.append(FunctionalReport(t=T2, values={
            "difference_energy_at_t0": e,
            "remainder_energy_at_T1": horizon_norms[(T2, T1)]["energy"],
            "remainder_conf_at_T1": horizon_norms[(T2, T1)]["conf"],
        }))
    mono = all(d2 < d1 for (_a, _b, d1), (_c, _d, d2) in zip(diffs[:-1], diffs[1:]))
    rep.add_check("difference_monotone_decreasing", mono,
                  measured=diffs[-1][2], note=str([(a, b, f"{e:.3e}") for a, b, e in diffs]))
    ratios = [d1 / d2 for (_a, _b, d1), (_c, _d, d2) in zip(diffs[:-1], diffs[1:])]
    if ratios:
        rep.add_bound("difference_ratio_per_doubling", -min(ratios), -1.5,
                      note=f"ratios {['%.2f' % r for r in ratios]} (>= 1.5 required)")
    # fitted shrink rate of the horizon remainder norms vs the energy target
    t1s = np.asarray([T1 for (T1, _T2, _e) in diffs], dtype=float)
    es = np.asarray([e for (_T1, _T2, e) in diffs], dtype=float)
    if len(diffs) >= 2:
        slope = float(np.polyfit(np.log(t1s), np.log(np.maximum(es, 1e-300)), 1)[0])
        rep.add_check("difference_rate_consistent", slope <= -(0.5 + spec.gamma) + 0.5,
                      measured=slope,
                      note=f"log-slope vs -(1/2+gamma)={-(0.5 + spec.gamma):.2f} (loose)")
    rep.provenance = _provenance(spec, grid, trajs, started)
    return rep


# ---------------------------------------------------------------------------
# weak-null system
# ---------------------------------------------------------------------------

def _axisymmetric(*fields: RadiationField) -> bool:
    return all(m == 0 for f in fields for (_l, m) in f.modes)


def _sampled_modes(qs: np.ndarray, arr: np.ndarray, l_out: int) -> Dict[ModeKey, SampledProfile]:
    """The rows of a mode stack up to l_out above 1e-14 of its largest entry,
    as profiles sampled on ``qs``."""
    scale = float(np.max(np.abs(arr))) or 1.0
    modes = {}
    for l in range(l_out + 1):
        for m in range(-l, l + 1):
            row = arr[mode_index(l, m)]
            if np.max(np.abs(row)) > 1e-14 * scale:
                modes[(l, m)] = SampledProfile(qs, row)
    return modes


def _dt_psi_modes(f0: RadiationField, f1: RadiationField, mass: MassTerm, n_in: int,
                  psi_modes: Sequence[ModeKey], v: np.ndarray, t: float,
                  r: np.ndarray) -> np.ndarray:
    """Mode coefficients of d_t psi at radii r, shape (n_in, r.size): the
    remainder's v/r (``v`` holds its d_t u at r, one row per psi mode) plus
    the exact d_t psi01 and d_t psi_e."""
    block = np.zeros((n_in, r.size))
    for i, lm in enumerate(psi_modes):
        block[mode_index(*lm)] = v[i] / r
    for part in (eval_dt_psi01_exact(f0, f1, t, r),
                 eval_approximant(f0, f1, mass, "dt_psi_e", t, r)):
        for lm, vals in part.items():
            block[mode_index(*lm)] += vals
    return block


def _strata_sources(f0: RadiationField, f1: RadiationField, mass: MassTerm,
                    l_out: int, q_range: Tuple[float, float]) -> Dict[int, SourceProfile]:
    """Light-cone strata n_2, n_3, n_4 of (psi0' + psi_e' + psi1')^2.

    n_2 = (F0' + M chi_e')^2, n_3 = 2 (F0' + M chi_e') F1', n_4 = (F1')^2,
    expanded mode by mode on a q table of 8192 points (pointwise angular
    products).  ``q_range`` bounds the table; everything beyond it is
    annihilated by the wave-zone cutoff in every consumer, so a run-sized
    range is exact.
    """
    l_in = max([l for (l, _m) in f0.modes] + [0])
    qs = np.linspace(q_range[0], q_range[1], 8192)
    n_in = mode_count(l_in)
    base = np.zeros((n_in, qs.size))      # F0' + M chi_e' (mode coefficients)
    f1p = np.zeros((n_in, qs.size))       # F1'
    for (l, m), prof in f0.mode_items():
        base[mode_index(l, m)] = prof.derivative(qs, 1)
    base[0] += mass.M * chi_exterior.derivative(qs, 1) * SQRT4PI
    for (l, m), prof in f1.mode_items():
        f1p[mode_index(l, m)] = prof.derivative(qs, 1)
    to_vals, to_modes = product_closures(l_in, l_out)
    vb = to_vals(base)
    v1 = to_vals(f1p)
    n2 = to_modes(vb * vb)
    n3 = to_modes(2.0 * vb * v1)
    n4 = to_modes(v1 * v1)
    return {k: SourceProfile(_sampled_modes(qs, arr, l_out), a=0.0, l_max=l_out)
            for k, arr in ((2, n2), (3, n3), (4, n4))}


def run_weak_null(spec: RunSpec) -> ScenarioReport:
    started = time.time()
    rep = ScenarioReport(name="weaknull", spec=asdict(spec))
    f0 = spec.field_from(spec.f0_modes)
    g0 = spec.field_from(spec.g0_modes)
    mass = MassTerm(spec.mass)
    l_psi = max([l for (l, _m) in f0.modes] + [0])
    l_w = min(spec.l_max, 2 * l_psi)
    l_w = max(l_w, max([l for (l, _m) in g0.modes] + [0]))
    axisym = _axisymmetric(f0, g0)
    if axisym:
        w_modes = [(l, 0) for l in range(l_w + 1)]
    else:
        w_modes = [(l, m) for l in range(l_w + 1) for m in range(-l, l + 1)]
    psi_modes = [lm for lm, _p in f0.mode_items()] or [(0, 0)]

    grid = RadialGrid.for_run(spec.h, spec.T, spec.t0)
    f1 = derive_F1(f0, q_max=grid.r_max + 2.0)
    g1 = derive_F1(g0, q_max=grid.r_max + 2.0)
    r_pos = grid.r[1:]
    strata = _strata_sources(f0, f1, mass, l_w,
                             q_range=(-(spec.T + 10.0), 0.25 * grid.r_max + 10.0))
    to_vals, to_modes = product_closures(max(l_psi, 1), l_w)
    n_in = mode_count(max(l_psi, 1))

    def strata_modes_at(t: float) -> np.ndarray:
        q = r_pos - t
        c2 = chi_wave_zone.value(qbracket(q) / r_pos) ** 2
        out = np.zeros((len(w_modes), grid.J + 1))
        for k, srcp in strata.items():
            if srcp.is_zero():
                continue
            for i, lm in enumerate(w_modes):
                prof = srcp.modes.get(lm)
                if prof is not None:
                    out[i, 1:] += prof.value(q) * r_pos ** (-float(k)) * c2
        return out

    def w_source(t: float, views) -> Dict[str, np.ndarray]:
        # d_t psi, exact at substage times: remainder + approximant derivatives
        block = np.zeros((n_in, grid.J + 1))
        block[:, 1:] = _dt_psi_modes(f0, f1, mass, n_in, psi_modes, views["vpsi"].v[:, 1:],
                                     t, r_pos)
        vals = to_vals(block)                       # pointwise d_t psi
        sq = to_modes(vals * vals)                  # modes of (d_t psi)^2
        s_w = np.zeros((len(w_modes), grid.J + 1))
        for i, lm in enumerate(w_modes):
            s_w[i] = sq[mode_index(*lm)]
        s_w -= strata_modes_at(t)
        if not g0.is_zero():
            s_w += _minus_box_psi01_rows(g0, g1, w_modes, t, r_pos)
        s_w[:, 0] = 0.0
        # remainder of psi keeps its own linear source
        return {"vpsi": _minus_box_psi01_rows(f0, f1, psi_modes, t, r_pos), "w": s_w}

    fields = {
        "vpsi": FieldState(spec.T, grid, psi_modes),
        "w": FieldState(spec.T, grid, w_modes),
    }
    records = record_times_for(spec)
    for tc, _rc in spec.check_points:
        records = sorted(set(records) | {tc - spec.h, tc, tc + spec.h}, reverse=True)
    traj = solve_backward_system(fields, w_source, spec.T, spec.t0, records, cfl=spec.cfl)

    window = fit_window_for(spec)
    ts, norm1s_w, env_w = [], [], []
    for st in traj.states["w"]:
        ts.append(st.t)
        norm1s_w.append(norm_Z_weighted(st, spec.s))
        env_w.append(sup_envelope(st, spec.s))
        rep.series.append(FunctionalReport(t=st.t, values={
            "norm_1_s_surrogate": norm1s_w[-1], "sup_envelope": env_w[-1],
            "energy_w1": energy_weighted(st)}))
    ts_s, n1 = _series_for_fit(np.asarray(ts), norm1s_w, t_exclude=spec.T)
    rep.add_fit("w_norm_exponent", fit_decay(ts_s, n1, window),
                target=-(0.5 + spec.gamma - spec.s), tol=spec.exponent_tol,
                fallback_series=_in_window(ts_s, n1, window))
    _t, ev = _in_window(*_series_for_fit(np.asarray(ts), env_w, t_exclude=spec.T),
                        spec.envelope_window)
    if ev.size:
        wlo, whi = spec.envelope_window
        rep.add_bound("w_envelope_bounded", _max_over_min(ev), spec.envelope_budget,
                      note=f"max/min of <t+r><t-r>^(s-1/2)|w| over t in [{wlo:g},{whi:g}]")

    if spec.check_points:
        res = _weaknull_crosscheck(spec, traj, f0, f1, g0, g1, mass, strata, w_modes,
                                   psi_modes, grid)
        rep.add_bound("interior_box_crosscheck", res, 1e-2,
                      note="max rel |discrete box phi - (d_t psi)^2| at check points")
    rep.provenance = _provenance(spec, grid, [traj], started)
    return rep


def _weaknull_crosscheck(spec, traj, f0, f1, g0, g1, mass, strata, w_modes,
                         psi_modes, grid) -> float:
    """Discrete box of the assembled phi = w + varphi01 + phi01 against the
    quadratic source, at the configured check points."""
    h = spec.h
    kq = KernelQuadratureSpec(q_tol=1e-10)
    l_psi = max([l for (l, _m) in f0.modes] + [0])
    to_vals, to_modes = product_closures(max(l_psi, 1), max(l for (l, _m) in w_modes))

    def phi_mode_coeffs(t: float, r: float) -> np.ndarray:
        """phi = w + varphi01 + phi01 mode coefficients at one point."""
        st = traj.state_at(t, "w")
        j = int(round(r / h))
        out = np.array([st.u[i, j] / grid.r[j] for i in range(len(w_modes))])
        # varphi01 = -(retarded kernels) in the -dt^2+Lap convention
        for k, srcp in strata.items():
            if srcp.is_zero():
                continue
            cm = phi_k_modes(srcp, k, t, r, kq)
            for i, lm in enumerate(w_modes):
                out[i] -= cm.get(lm, 0.0)
        if not g0.is_zero():
            p01 = eval_approximant(g0, g1, MassTerm(0.0), "psi01", t, np.asarray([r]))
            for i, lm in enumerate(w_modes):
                if lm in p01:
                    out[i] += float(p01[lm][0])
        return out

    worst = 0.0
    scale = 0.0
    results = []
    for (tc, rc) in spec.check_points:
        jc = int(round(rc / h))
        rc_snap = grid.r[jc]
        c0 = phi_mode_coeffs(tc, rc_snap)
        ct = {dt: phi_mode_coeffs(tc + dt * h, rc_snap) for dt in (-1, 1)}
        cr = {dr: phi_mode_coeffs(tc, grid.r[jc + dr]) for dr in (-1, 1)}
        # (d_t psi)^2 modes at the check point
        stp = traj.state_at(tc, "vpsi")
        vals = to_vals(_dt_psi_modes(f0, f1, mass, mode_count(max(l_psi, 1)), psi_modes,
                                     stp.v[:, jc:jc + 1], tc, np.asarray([rc_snap])))
        sq = to_modes(vals * vals)
        for i, lm in enumerate(w_modes):
            l = lm[0]
            ctt = (ct[1][i] - 2.0 * c0[i] + ct[-1][i]) / h**2
            crr = (cr[1][i] - 2.0 * c0[i] + cr[-1][i]) / h**2
            crd = (cr[1][i] - cr[-1][i]) / (2.0 * h)
            box = -ctt + crr + 2.0 * crd / rc_snap - l * (l + 1.0) * c0[i] / rc_snap**2
            rhs = sq[mode_index(*lm), 0]
            results.append((tc, rc_snap, lm, box, rhs))
            scale = max(scale, abs(rhs))
    if scale == 0.0:
        return 0.0
    for (_t, _r, _lm, box, rhs) in results:
        worst = max(worst, abs(box - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# radial classical null-condition model
# ---------------------------------------------------------------------------

def run_null_radial(spec: RunSpec) -> ScenarioReport:
    started = time.time()
    rep = ScenarioReport(name="nullradial", spec=asdict(spec))
    amp = spec.amplitude
    center = 6.0
    ue, ve = _dalembert(center)

    def u0_derivs(t, r):
        """(d_t f0, d_r f0) for the physical linear field f0 = U0 / r."""
        U = amp * ue(t, r)
        Ut = amp * ve(t, r)
        gm = np.exp(-(t - r - center) ** 2)
        gp = np.exp(-(t + r - center) ** 2)
        Ur = amp * (2.0 * (t - r - center) * gm + 2.0 * (t + r - center) * gp)
        out_t = np.zeros_like(r)
        out_r = np.zeros_like(r)
        pos = r > 0
        out_t[pos] = Ut[pos] / r[pos]
        out_r[pos] = (Ur[pos] - U[pos] / r[pos]) / r[pos]
        return out_t, out_r

    def run_once(amplitude: float, h: float):
        grid = RadialGrid(h=h, J=int(round((2.0 * spec.T + 10.0) / h)))
        st = FieldState(spec.T, grid, [(0, 0)])

        def src(t, view):
            r = grid.r
            vt = np.zeros(grid.J + 1)
            vr = np.zeros(grid.J + 1)
            vt[1:] = view.v[0, 1:] / r[1:]
            ur = np.zeros(grid.J + 1)
            ur[1:-1] = (view.u[0, 2:] - view.u[0, :-2]) / (2.0 * h)
            vr[1:] = (ur[1:] - view.u[0, 1:] / r[1:]) / r[1:]
            u0t, u0r = u0_derivs(t, r)
            ratio = amplitude / amp if amp != 0.0 else 0.0
            ft = vt + ratio * u0t
            fr = vr + ratio * u0r
            s = -(ft**2) + fr**2
            s[0] = 0.0
            return s[None, :]

        records = sorted(set(np.geomspace(1.0, spec.T, 24).tolist()) | {1.0, spec.T},
                         reverse=True)
        traj = solve_backward(st, src, spec.T, 1.0, records, cfl=spec.cfl)
        ts = np.asarray([s.t for s in traj.field_states()])
        es = np.asarray([math.sqrt(energy_weighted(s)) for s in traj.field_states()])
        order = np.argsort(ts)
        return ts[order], es[order], traj

    ts, es, traj = run_once(amp, spec.h)
    trajs = [traj]
    if not np.all(np.isfinite(es)):
        rep.add_check("reaches_t0_without_blowup", False, float("nan"))
        rep.status = "error"
        rep.error = "nonlinear backward solve diverged"
        return rep
    rep.add_check("reaches_t0_without_blowup", True, float(es[0]),
                  note=f"||dv|| at t0=1: {es[0]:.3e}")
    if np.any(es > 1e-300):
        window = (spec.T / 8.0, spec.T / 2.0)
        pos = es > 1e-300
        fit = fit_decay(ts[pos], es[pos], window)
        item = ReportItem(name="energy_decay_exponent", kind="fit", measured=fit.exponent,
                          target=-spec.delta, tol=None,
                          passed=bool(fit.exponent <= -spec.delta),
                          note=f"one-sided: exponent <= -{spec.delta} (r2={fit.r_squared:.3f})")
        rep.items.append(item)
    else:
        rep.add_check("remainder_identically_zero", True, 0.0,
                      note="zero data gives the zero solution")
    for st in traj.field_states():
        rep.series.append(FunctionalReport(t=st.t, values={
            "energy_w1": energy_weighted(st)}))
    # quadratic amplitude scaling: halving the data should quarter ||dv||
    if amp != 0.0:
        ts2, es2, traj2 = run_once(amp / 2.0, spec.h)
        trajs.append(traj2)
        mid = len(ts) // 2
        match = np.interp(ts[mid], ts2, es2)
        ratio = es[mid] / max(match, 1e-300)
        rep.add_check("quadratic_amplitude_scaling", bool(abs(ratio / 4.0 - 1.0) <= 0.2),
                      measured=float(ratio), note="||dv||(a) / ||dv||(a/2), expect 4 within 20%")
    rep.provenance = _provenance(spec, traj.grid, trajs, started)
    return rep


# ---------------------------------------------------------------------------
# backscatter audit
# ---------------------------------------------------------------------------

def _news_source(spec: RunSpec, f0: RadiationField) -> SourceProfile:
    """n(q, omega) = (F0'(q, omega))^2 as sampled mode profiles."""
    l_in = max([l for (l, _m) in f0.modes] + [0])
    l_out = min(spec.l_max, 2 * l_in)
    sup = max(f0.support_radius(1e-16), 4.0)
    qs = np.linspace(-sup, sup, 4096)
    block = np.zeros((mode_count(max(l_in, 1)), qs.size))
    for (l, m), prof in f0.mode_items():
        block[mode_index(l, m)] = prof.derivative(qs, 1)
    to_vals, to_modes = product_closures(max(l_in, 1), l_out)
    vals = to_vals(block)
    return SourceProfile(_sampled_modes(qs, to_modes(vals * vals), l_out), a=spec.a,
                         l_max=l_out)


def run_backscatter_audit(spec: RunSpec) -> ScenarioReport:
    started = time.time()
    rep = ScenarioReport(name="backscatter", spec=asdict(spec))
    f0 = spec.field_from(spec.f0_modes)
    if f0.is_zero():
        rep.add_check("zero_field_zero_audit", True, 0.0)
        return rep
    n = _news_source(spec, f0)
    omega = np.array([0.0, 0.0, 1.0])
    kq = KernelQuadratureSpec()
    norm = n_norm(n, 0, spec.a)

    # oracle points: kernel quadrature vs dense brute force
    # reference points keep the source dead near the q-endpoint so the
    # product-grid oracle resolves the kernel (the near-cone regime is
    # covered by the residual check); one exterior-leaning geometry included
    points = [(40.0, 30.0), (25.0, 18.0), (60.0, 50.0), (36.0, 28.0), (50.0, 26.0)]
    worst = 0.0
    for (t, r) in points:
        v1 = phi_k(n, 2, t, r, omega, kq)
        v2 = brute_force_phi_k(n, 2, t, r, omega, n_q=500, n_theta=260, n_phi=96)
        if abs(v2) > 1e-300:
            worst = max(worst, abs(v1 - v2) / abs(v2))
    rep.add_bound("phi2_vs_bruteforce", worst, 1e-4,
                  note=f"max relative difference at {len(points)} reference points")

    # decay envelopes along t = r + 5
    sweep = [(r + 5.0, r) for r in (20.0, 28.0, 40.0, 57.0, 80.0, 113.0, 160.0)]
    for k in (2, 3, 4):
        out = envelope_sweep(n, k, sweep, omega, spec.a, kq)
        rep.add_bound(f"envelope_k{k}", float(np.max(out["envelope"])) / max(norm, 1e-300),
                      spec.ratio_budget,
                      note=f"sup envelope / ||n|| along t=r+5 (values {np.round(out['envelope'], 4).tolist()})")
        for tt, rr, val, env in zip(out["t"], out["r"], out["value"], out["envelope"]):
            row = {f"phi{k}": float(val), f"envelope_k{k}": float(env),
                   "r": float(rr), "direction_index": 0.0}
            if k == 2:
                row["phi2_asymptotic"] = phi2_asymptotic(n, float(tt), float(rr), omega)
            rep.series.append(FunctionalReport(t=float(tt), values=row))

    # near-cone asymptotics: remainder against the log-leading term
    rem = []
    for (t, r) in sweep:
        full = phi_k(n, 2, t, r, omega, kq)
        lead = phi2_asymptotic(n, t, r, omega)
        qp = max(r - t, 0.0)
        rem.append(abs(full - lead) * math.sqrt(1.0 + (t + r) ** 2)
                   * (1.0 + qp * qp) ** (0.5 * spec.a))
    rep.add_bound("phi2_asymptotic_remainder", float(np.max(rem)) / max(norm, 1e-300),
                  spec.ratio_budget,
                  note="|phi2 - leading| <t+r> <q+>^a / ||n|| along the sweep")

    # wave-operator residuals for all three kernels
    for k in (2, 3, 4):
        res = source_residual_check(n, k, [(12.0, 11.0), (16.0, 15.0)], h=0.05, spec=kq)
        rep.add_bound(f"source_residual_k{k}", res["max_rel_residual"], 1e-2,
                      note=f"noise floor {res['noise_floor']:.2e}")
    rep.provenance = _provenance(spec, started=started)
    return rep


# ---------------------------------------------------------------------------
# estimate audit battery
# ---------------------------------------------------------------------------

def run_audit_battery(spec: RunSpec) -> ScenarioReport:
    started = time.time()
    rep = ScenarioReport(name="audit", spec=asdict(spec))
    ue, ve = _dalembert()
    T, t1 = 6.0, 2.0
    R = 12.0
    trajs = []

    def bump_src(t, view):
        r = view.grid.r
        return (np.exp(-((r - 4.0) ** 2) - (t - 4.0) ** 2))[None, :]

    # multiplier identity refinement studies, free and sourced
    for tag, data_fn, src in (("free", lambda g: (ue(T, g.r)[None, :], ve(T, g.r)[None, :]), None),
                              ("sourced", lambda g: (None, None), bump_src)):
        for s in (1.0, 1.2):
            residuals = []
            hs = [spec.h, spec.h / 2.0, spec.h / 4.0]
            for h in hs:
                grid = RadialGrid(h=h, J=int(round(20.0 / h)))
                du, dv = data_fn(grid)
                st = FieldState(T, grid, [(0, 0) if tag == "free" else (1, 0)], du, dv)
                trajs.append(solve_backward(st, src, T, t1, [t1], cfl=spec.cfl,
                                            record_every_step=True))
                out = morawetz_identity_audit(trajs[-1], s=s, R=R, source=src)
                residuals.append(abs(out["residual"]))
            ok_sched = all(residuals[i] <= 5.0 * (hs[i] / hs[0]) ** 2 * max(residuals[0], 1e-14)
                           for i in range(len(hs)))
            rep.add_check(f"identity_residual_scaling_{tag}_s{s:g}", ok_sched,
                          measured=residuals[-1],
                          note=f"residuals {['%.2e' % x for x in residuals]}")
            rep.add_order(f"identity_order_{tag}_s{s:g}", convergence_order(residuals),
                          2.0, 0.35)

    # bulk sign on the standard sample grid
    ts = np.linspace(0.0, 100.0, 200)
    rs = np.linspace(0.0, 100.0, 200)
    for a_exp in (2.0, 2.5, 3.0, 4.0):
        rep.add_bound(f"bulk_sign_a{a_exp:g}", bulk_sign_check(a_exp, ts, rs), 1e-12,
                      note="max of the deformation expression over 200x200 samples")

    # Hardy ratios and pointwise constants across a small regression family,
    # stable under refinement
    for s in (1.0, 1.2):
        ratios = {"zeroth": [], "radial": [], "ks": []}
        for h in (spec.h, spec.h / 2.0):
            grid = RadialGrid(h=h, J=int(round(20.0 / h)))
            st = FieldState(T, grid, [(0, 0)], ue(T, grid.r)[None, :], ve(T, grid.r)[None, :])
            trajs.append(solve_backward(st, None, T, t1, [t1, 4.0]))
            for stt in trajs[-1].field_states()[1:]:
                hc = hardy_checks(stt, s, budget=spec.hardy_budget)
                ratios["zeroth"].append(hc["ratio_zeroth"])
                ratios["radial"].append(hc["ratio_radial"])
                ratios["ks"].append(ks_pointwise_check(stt, s)["constant"])
        for tag in ("zeroth", "radial"):
            rep.add_bound(f"hardy_{tag}_s{s:g}", max(ratios[tag]), spec.hardy_budget)
            drift = max(ratios[tag]) / max(min(ratios[tag]), 1e-300)
            rep.add_bound(f"hardy_{tag}_drift_s{s:g}", drift, 2.0,
                          note="max/min across states and refinements")
        rep.add_bound(f"ks_constant_s{s:g}", max(ratios["ks"]), spec.hardy_budget)
        rep.add_bound(f"ks_drift_s{s:g}", max(ratios["ks"]) / max(min(ratios["ks"]), 1e-300),
                      2.0)

    # weighted space-time estimate instance on a sourced run
    grid = RadialGrid(h=spec.h / 2.0, J=int(round(20.0 / (spec.h / 2.0))))
    st = FieldState(T, grid, [(1, 0)])
    trajs.append(solve_backward(st, bump_src, T, t1, [t1], record_every_step=True))
    inst = cor_weighted_spacetime_instance(trajs[-1], spec.gamma, spec.mu, source=bump_src)
    rep.add_bound("weighted_spacetime_ratio", inst["ratio"], spec.ratio_budget,
                  note=f"bulk={inst['bulk']:.3e} cone={inst['cone']:.3e}")

    # origin decay: sourced run with origin-cone accumulators
    st = FieldState(T, grid, [(0, 0)])

    def origin_src(t, view):
        r = view.grid.r
        return (np.exp(-((r - 3.0) ** 2) - (t - 4.0) ** 2))[None, :]

    trajs.append(solve_backward(st, origin_src, T, t1, list(np.linspace(t1, T, 13)),
                                track_origin=True))
    odc = origin_decay_check(trajs[-1], spec.gamma)
    good = odc["cone_bound"] > 1e-12
    worst = float(np.max(odc["ratio"][good])) if np.any(good) else 0.0
    rep.add_bound("origin_decay_ratio", worst, spec.ratio_budget,
                  note="t^(1+gamma)|phi(t,0)| / weighted cone flux bound")
    rep.provenance = _provenance(spec, grid, trajs, started)
    return rep


# ---------------------------------------------------------------------------
# discrete-operator convergence study
# ---------------------------------------------------------------------------

def run_convergence(spec: RunSpec) -> ScenarioReport:
    started = time.time()
    rep = ScenarioReport(name="convergence", spec=asdict(spec))
    ue, _ve = _dalembert()
    # residual of the discrete operator on exact solutions (dt = h/2 so the
    # traveling-wave cancellation of dt = h does not mask the truncation error)
    errs_g, errs_e = [], []
    hs = [spec.h, spec.h / 2.0, spec.h / 4.0]
    for h in hs:
        grid = RadialGrid(h=h, J=int(round(24.0 / h)))
        res = discrete_box_field(lambda t: ue(t, grid.r), 5.0, h / 2.0, grid, 0)
        errs_g.append(float(np.max(np.abs(res))))
        # the mollifier's fourth derivative is spiky: its asymptotic range
        # starts a refinement level or two below the solver grids
        he = h / 4.0
        grid_e = RadialGrid(h=he, J=int(round(12.0 / he)))
        res_e = discrete_box_field(lambda t: chi_exterior.value(grid_e.r - t), 3.0,
                                   he / 2.0, grid_e, 0)
        sel = grid_e.r[1:-1] >= 0.5
        errs_e.append(float(np.max(np.abs(res_e[sel]))))
    rep.add_order("residual_order_traveling_wave", convergence_order(errs_g), 2.0, 0.1,
                  note=f"errors {errs_g}")
    rep.add_order("residual_order_mass_term", convergence_order(errs_e), 2.0, 0.1,
                  note=f"errors {errs_e} (M=1, r >= 1/2)", one_sided=True)
    # the solves of the run are the free-wave gate's, so is its provenance
    gate = run_free_wave_validation(spec)
    rep.items.extend(gate.items)
    rep.provenance = dict(gate.provenance, runtime_s=round(time.time() - started, 3))
    return rep


RUNNERS = {
    "free_wave": run_free_wave_validation,
    "homogeneous": run_homogeneous_scattering,
    "tlimit": run_T_limit_study,
    "weaknull": run_weak_null,
    "nullradial": run_null_radial,
    "backscatter": run_backscatter_audit,
    "audit": run_audit_battery,
    "convergence": run_convergence,
}


def run_scenario(spec: RunSpec) -> ScenarioReport:
    spec.validate()
    try:
        return RUNNERS[spec.scenario](spec)
    except ContainmentError as exc:
        return ScenarioReport(name=spec.scenario, spec=asdict(spec), status="error",
                              error=f"containment: {exc}")
    except (EngineError, FunctionalError) as exc:
        # stage failures surface as an error report, never a bare traceback
        return ScenarioReport(name=spec.scenario, spec=asdict(spec), status="error",
                              error=f"{spec.scenario}: {type(exc).__name__}: {exc}")
