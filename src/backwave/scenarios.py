"""End-to-end pipelines: scattering constructions and audit batteries.

Each scenario takes a validated :class:`RunSpec`, runs the relevant solves
and measurements, and returns a :class:`ScenarioReport` whose items carry
the measured value, its bounds ``lo`` and ``hi`` (None: unbounded) and a
pass flag set by one rule, ``lo <= measured <= hi`` with NaN failing
(``ScenarioReport.add_item``); fit and order items also carry their claimed
target.  Overall pass/fail is pure arithmetic on the items.

Pipelines (weaknull and backscatter live in :mod:`backwave.kernel_pipelines`)
-----------------------------------------------------------------------------
homogeneous    build psi01 + psi_e from the radiation field, solve
               box v = -box psi01 backward from trivial data at T, fit the
               decay of the weighted source norm, the energy of v and the
               conformal norm of v (each judged between the rate of the
               class the data realize and the declared-gamma rate), and
               check boundedness of the first-order norm and pointwise
               envelope of psi.
tlimit         the homogeneous remainder solve for increasing T, one field
               per horizon in one march, and the Cauchy differences at t0
               (and the remainder norms at the earlier horizons).
weaknull       co-evolve the pair (remainder of psi, remainder w of phi)
               with the quadratic coupling (d_t psi)^2, the light-cone
               strata resolved by the retarded kernel solutions.
nullradial     spherically symmetric classical null-form model, backward
               from trivial remainder data, with the quadratic scaling
               check (amplitudes a and a/2 as two fields of one march).
backscatter    kernel-quadrature audit: oracle points, decay envelopes,
               near-cone asymptotics, wave-operator residuals.
audit          estimate battery: multiplier identity refinements, bulk
               sign, Hardy ratios, pointwise-decay constants, weighted
               space-time instance, origin decay.
convergence    discrete-operator residual orders on exact solutions and the
               solver gate: backward d'Alembert refinement study, time
               reversal, energy conservation.

``FIELDS`` names the RunSpec fields each pipeline reads.  A run's config
hash and its report's ``spec`` echo cover the scenario and those fields
only (``RunSpec.declared``), so a field the pipeline never reads changes
neither.

Fit windows are the last decade [10 t0, 100 t0] when the run is long
enough and otherwise the last factor-4 span.  A report judges each fit and
window-ratio item on one column of its own series, as series.csv shows it
(``ScenarioReport.column``); a target exponent too shallow to resolve over
the window (total expected change < 1.5x) degrades to a nonincrease check
of the same in-window samples, which is recorded on the item.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from backwave import __version__
from backwave.angular import mode_rows
from backwave.cutoffs import chi_exterior
from backwave.engine import (ContainmentError, EngineError, FieldState, ModeKey,
                             RadialGrid, Trajectory, convergence_order,
                             discrete_box_field, solve_backward, solve_backward_system)
from backwave.functionals import (ConeFlux, FunctionalError, FunctionalReport,
                                  StepStates, backward_estimate_constant, bulk_sign_check,
                                  conformal_norm_plus, cor_weighted_spacetime_instance,
                                  energy_conservation_drift, energy_weighted,
                                  fit_decay, hardy_checks, ks_pointwise_check,
                                  morawetz_identity_audit, norm_Z_weighted,
                                  origin_decay_check, sup_envelope, w0_weight)
from backwave.profiles import ProfileError, make_profile
from backwave.radiation import (RadiationDataError, RadiationField, derive_F1,
                                eval_approximant, eval_dt_psi01_exact, psi_e_terms,
                                realized_decay_class, residual_box_psi01,
                                source_norm_weighted)

# bound on every observed estimate constant and ratio
RATIO_BUDGET = 10.0


class ScenarioError(RuntimeError):
    pass


@dataclass
class RunSpec:
    """Validated description of one run; built from a config document."""

    scenario: str
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
    amplitude: float = 0.01
    exponent_tol: float = 0.15
    envelope_budget: float = 5.0
    bound_factor: float = 5.0
    envelope_window: Tuple[float, float] = (4.0, 40.0)
    check_points: List[Tuple[float, float]] = dc_field(default_factory=list)

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ScenarioError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if not 0.5 < self.gamma < 1.0:
            raise ScenarioError(f"gamma must satisfy 1/2 < gamma < 1, got {self.gamma}")
        reads = FIELDS[self.scenario]
        if "s" in reads and not (1.0 <= self.s < self.gamma + 0.5):
            raise ScenarioError(
                f"s must satisfy 1 <= s < gamma + 1/2 = {self.gamma + 0.5}, got {self.s}")
        if "T" in reads and not self.T > self.t0:
            raise ScenarioError(f"need T > t0, got T={self.T}, t0={self.t0}")
        if "t0" in reads and not self.t0 >= 1.0:
            raise ScenarioError(f"need t0 >= 1, got t0={self.t0}")
        if self.h <= 0 or self.cfl <= 0 or self.cfl > 0.5 + 1e-12:
            raise ScenarioError("need h > 0 and 0 < cfl <= 0.5")
        for name in ("mass", "mu", "a"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.scenario == "tlimit" and len(self.T_list) < 2:
            raise ScenarioError("tlimit needs an increasing T_list of length >= 2")
        if any(a >= b for a, b in zip(self.T_list, self.T_list[1:])):
            raise ScenarioError(f"T_list must be increasing, got {self.T_list}")
        if any(T <= self.t0 for T in self.T_list):
            raise ScenarioError(f"every T_list entry must exceed t0 = {self.t0}, "
                                f"got {self.T_list}")
        lo, hi = self.envelope_window
        if not lo < hi:
            raise ScenarioError(f"envelope_window needs lo < hi, got {lo:g} {hi:g}")
        for tc, rc in self.check_points:
            if tc - self.h < self.t0 or tc + self.h > self.T:
                raise ScenarioError(f"check point t = {tc}: stencil times t -/+ h leave "
                                    f"[t0, T] = [{self.t0}, {self.T}]")
            J = RadialGrid.for_run(self.h, self.T, self.t0).J
            j = round(rc / self.h)
            if not 2 <= j <= J - 1:
                raise ScenarioError(f"check point r = {rc}: grid index round(r/h) = {j} "
                                    f"must lie in [2, J-1] = [2, {J - 1}]")
        try:
            self.field_from(self.f0_modes)
            self.field_from(self.g0_modes)
        except (ProfileError, RadiationDataError) as exc:
            raise ScenarioError(str(exc)) from exc
        return self

    def field_from(self, mode_specs) -> RadiationField:
        """The field of config mode specs, each mode inside the band l_max and
        each poly-tail exponent above gamma."""
        modes = {(l, m): make_profile(prof_spec) for (l, m, prof_spec) in mode_specs}
        for (l, m) in modes:
            if l < 0 or l > self.l_max or abs(m) > l:
                raise RadiationDataError(f"mode ({l},{m}) outside band limit {self.l_max}")
        for lm, prof in modes.items():
            p = getattr(prof, "decay_exponent", None)
            if p is not None and p <= self.gamma:
                raise RadiationDataError(
                    f"mode {lm}: poly-tail exponent {p} must exceed gamma={self.gamma}")
        return RadiationField(modes)

    def declared(self) -> Dict[str, object]:
        """The scenario and the fields its pipeline reads (``FIELDS``)."""
        return {"scenario": self.scenario,
                **{name: getattr(self, name) for name in FIELDS[self.scenario]}}

    def config_hash(self) -> str:
        payload = json.dumps(self.declared(), sort_keys=True, default=str).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class ReportItem:
    """One measured-vs-target result: ``kind`` names what produced
    ``measured``, and ``passed`` is the one pass rule on ``lo`` and ``hi``
    (see :meth:`ScenarioReport.add_item`)."""

    name: str
    kind: str                  # "fit" | "bound" | "order" | "check"
    measured: float
    lo: Optional[float]        # None: unbounded below
    hi: Optional[float]        # None: unbounded above
    passed: bool
    target: Optional[float] = None            # fit and order items: the claimed rate
    note: str = ""
    gamma_data: Optional[float] = None        # decay class the data realize
    realized_target: Optional[float] = None   # exponent for that class


@dataclass
class ScenarioReport:
    name: str
    spec: dict = dc_field(default_factory=dict)   # the run's RunSpec.declared()
    items: List[ReportItem] = dc_field(default_factory=list)
    series: List[FunctionalReport] = dc_field(default_factory=list)
    provenance: Dict[str, object] = dc_field(default_factory=dict)
    status: str = "ok"
    error: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "ok" and all(it.passed for it in self.items)

    def column(self, key: str, window: Tuple[float, float]) -> Tuple[np.ndarray, np.ndarray]:
        """The samples of series column ``key`` that an item is judged on:
        ascending in t, without non-finite values and values at or below
        1e-14 of the column's largest (a remainder is exactly 0 at its data
        horizon, so that sample drops out), inside the closed ``window``."""
        rows = sorted((fr for fr in self.series if key in fr.values), key=lambda fr: fr.t)
        ts = np.array([fr.t for fr in rows], dtype=float)
        ys = np.array([fr.values[key] for fr in rows], dtype=float)
        keep = np.isfinite(ys) & (ys > 1e-14 * max(float(np.max(np.abs(ys))), 1e-300))
        keep &= (ts >= window[0]) & (ts <= window[1])
        return ts[keep], ys[keep]

    def add_item(self, name: str, kind: str, measured: float, lo: Optional[float] = None,
                 hi: Optional[float] = None, **fields) -> ReportItem:
        """Append an item judged by the one pass rule of every item:
        ``measured`` is not NaN and lies in [lo, hi], a bound of None being
        unbounded.  ``fields`` are the item's other ReportItem fields."""
        passed = (not math.isnan(measured) and (lo is None or lo <= measured)
                  and (hi is None or measured <= hi))
        item = ReportItem(name, kind, measured, lo, hi, bool(passed), **fields)
        self.items.append(item)
        return item

    def add_fit(self, name: str, key: str, window: Tuple[float, float], target: float,
                tol: float, gamma_data: Optional[float] = None,
                realized_target: Optional[float] = None) -> ReportItem:
        """Fit the decay of series column ``key`` over ``window`` against its
        target; degrade to a boundedness check of the column's in-window
        samples (max/first at most 1.2) when the window cannot resolve the
        slope.

        ``target`` is the rate of the declared class, an upper bound on the
        decay the data can show.  When the data realize a class
        ``gamma_data`` with the steeper rate ``realized_target``, the fit
        passes in [realized_target - tol, target + tol]; without a realized
        target the band is two-sided about ``target``.
        """
        ts, ys = self.column(key, window)
        fit = fit_decay(ts, ys, window)
        lo, hi = fit.window
        realized = target if realized_target is None else realized_target
        class_note = ("" if realized_target is None else
                      f"; gamma_data={gamma_data:g} realized target {realized_target:g}")
        if lo <= 0 or (hi / lo) ** abs(target) >= 1.5:
            return self.add_item(name, "fit", fit.exponent, realized - tol, target + tol,
                                 target=target, gamma_data=gamma_data,
                                 realized_target=realized_target,
                                 note=f"r2={fit.r_squared:.4f} window=({lo:g},{hi:g})"
                                      + class_note)
        return self.add_item(name, "bound", float(np.max(ys) / max(ys[0], 1e-300)), hi=1.2,
                             gamma_data=gamma_data, realized_target=realized_target,
                             note=f"shallow target {target:g}; nonincrease within "
                                  f"20% (fit {fit.exponent:.3f})" + class_note)

    def add_window_ratio(self, name: str, key: str, window: Tuple[float, float],
                         budget: float, note: str) -> ReportItem:
        """Bound max/min of series column ``key`` over ``window`` by
        ``budget``; ``inf`` when the window holds no sample."""
        _ts, ys = self.column(key, window)
        if not ys.size:
            return self.add_item(name, "bound", math.inf, hi=budget,
                                 note=note + ": no record in the window")
        return self.add_item(name, "bound", float(np.max(ys)) / max(float(np.min(ys)), 1e-300),
                             hi=budget, note=note)


def record_times_for(spec: RunSpec) -> List[float]:
    """Geometric record times from T down to t0: the interior ones rounded to
    10 decimals, T and t0 exact (rounded, they could leave [t0, T])."""
    n = max(spec.n_records, 8)
    ts = np.geomspace(spec.t0, spec.T, n)[1:-1]
    return sorted(set(np.round(ts, 10).tolist()) | {spec.T, spec.t0}, reverse=True)


def fit_window_for(spec: RunSpec) -> Tuple[float, float]:
    if spec.T >= 100.0 * spec.t0:
        return (10.0 * spec.t0, 100.0 * spec.t0)
    return (spec.T / 4.0, spec.T)


def _provenance(grid: RadialGrid, trajs: Sequence[Trajectory]) -> Dict[str, object]:
    """The grid, the largest step of the solves on that grid and the total
    step count over all the run's solves ``trajs`` (one march counts once,
    whatever the number of fields it carries)."""
    return {"h": grid.h, "J": grid.J, "r_max": grid.r_max,
            "dt_max": max(tr.dt_max for tr in trajs if tr.grid == grid),
            "steps": sum(tr.steps for tr in trajs)}


# ---------------------------------------------------------------------------
# solver gate (run by convergence)
# ---------------------------------------------------------------------------

def _dalembert(t: float, r: np.ndarray, center: float):
    """The free l = 0 wave u = g(t - r) - g(t + r), g(x) = exp(-(x - center)^2),
    with its d_t u and d_r u: (u, d_t u, d_r u) from one pair of exponentials."""
    a, b = t - r - center, t + r - center
    gm, gp = np.exp(-a ** 2), np.exp(-b ** 2)
    return gm - gp, -2.0 * a * gm + 2.0 * b * gp, 2.0 * a * gm + 2.0 * b * gp


def _gate_wave(t: float, grid: RadialGrid) -> FieldState:
    """The free wave of the solver gate and the audit (centre 10) at t, as l = 0 data."""
    u, ut, _ur = _dalembert(t, grid.r, 10.0)
    return FieldState(t, grid, [(0, 0)], u[None, :], ut[None, :])


def _solver_gate(spec: RunSpec, rep: ScenarioReport) -> Dict[str, object]:
    """Add the solver gate's items to ``rep`` (backward d'Alembert refinement
    study on grids h, h/2, h/4, time reversal, energy conservation) and
    return the provenance of its four solves: one per grid and the reflected
    march on h/2.  The energy drift reads the h/2 march, recorded at 9 times:
    at the shipped h = 0.1 their segments step by 0.625/25, the double 5/200
    is, so its end state is unmoved; on h and h/4 segments would move dt."""
    T, t0 = 6.0, 1.0
    errs, trajs = [], []
    hs = [spec.h, spec.h / 2.0, spec.h / 4.0]
    for h in hs:
        grid = RadialGrid(h=h, J=int(round(20.0 / h)))
        records = list(np.linspace(t0, T, 9)) if h == hs[1] else [t0]
        trajs.append(solve_backward(_gate_wave(T, grid), None, T, t0, records, cfl=spec.cfl))
        end = trajs[-1].field_states()[-1]
        errs.append(float(np.max(np.abs(end.u[0] - _gate_wave(t0, grid).u[0]))))
    rep.add_item("dalembert_backward_order", "order", convergence_order(errs), 1.9, 2.1,
                 target=2.0, note=f"errors {errs}")
    # time reversal: reflect the h/2 solve's endpoint and march back up to T
    grid = trajs[1].grid
    end = trajs[1].field_states()[-1]
    refl = FieldState(T, grid, [(0, 0)], end.u, -end.v)
    trajs.append(solve_backward(refl, None, T, t0, [t0], cfl=spec.cfl))
    back = trajs[-1].field_states()[-1]
    rev_err = float(np.max(np.abs(back.u[0] - _gate_wave(T, grid).u[0])))
    rep.add_item("time_reversal_error", "bound", rev_err, hi=50.0 * hs[1] ** 2,
                 note="backward+reflected backward returns the data at O(h^2)")
    rep.add_item("energy_conservation_drift", "bound", energy_conservation_drift(trajs[1]),
                 hi=50.0 * hs[1] ** 2)
    return _provenance(grid, trajs)


# ---------------------------------------------------------------------------
# homogeneous scattering from radiation data
# ---------------------------------------------------------------------------

def _minus_box_psi01_source(f0: RadiationField, f1: RadiationField,
                            modes: Sequence[ModeKey], r_pos: np.ndarray):
    """The march's source ``(t, view) ->`` -box psi01 at the stage time t as
    one row per mode of ``modes`` (which hold f0's), on r = 0, r_pos: zero at
    r = 0 and on modes psi01 lacks.  The remainder v = psi - psi01 solves
    box v = this."""
    rows = mode_rows(f0.modes, modes)

    def source(t: float, view) -> np.ndarray:
        out = np.zeros((len(modes), r_pos.size + 1))
        out[rows, 1:] = -residual_box_psi01(f0, f1, t, r_pos, view.schedule)
        return out

    return source


def _assemble_psi(state: FieldState, f0: RadiationField, f1: RadiationField,
                  mass: float) -> FieldState:
    """psi = v + psi01 + psi_e on the state's grid (modes extended by (0,0))."""
    modes = list(state.modes)
    if mass > 0 and (0, 0) not in modes:
        modes = [(0, 0)] + modes
    r_pos = state.grid.r[1:]
    uv = np.zeros((2, len(modes), state.grid.J + 1))   # u and v
    uv[:, mode_rows(state.modes, modes)] = state.u, state.v
    p01 = np.zeros((2, len(modes), r_pos.size))         # psi01 and d_t psi01
    p01[:, mode_rows(f0.modes, modes)] = (eval_approximant(f0, f1, state.t, r_pos),
                                          eval_dt_psi01_exact(f0, f1, state.t, r_pos))
    pe = np.zeros_like(p01)                              # psi_e and d_t psi_e
    if (0, 0) in modes:
        pe[:, modes.index((0, 0))] = psi_e_terms(mass, state.t, r_pos)
    uv[:, :, 1:] += (p01 + pe) * r_pos
    uv[:, :, -1] = 0.0                                   # psi_e is nonzero at r_max
    return FieldState(state.t, state.grid, modes, *uv)


def run_homogeneous_scattering(spec: RunSpec) -> ScenarioReport:
    rep = ScenarioReport(name="homogeneous")
    f0 = spec.field_from(spec.f0_modes)
    if f0.is_zero():
        rep.add_item("zero_data_zero_solution", "check", 0.0,
                     note="no F0 data: the remainder is zero and psi = psi_e exactly")
        return rep
    grid = RadialGrid.for_run(spec.h, spec.T, spec.t0)
    f1 = derive_F1(f0, q_max=grid.r_max + 2.0)
    modes = list(f0.modes)
    data = FieldState(spec.T, grid, modes)   # trivial data for the remainder
    r_pos = grid.r[1:]
    records = record_times_for(spec)
    cone = ConeFlux(s=spec.s, R=0.5 * grid.r_max, t2=spec.T)
    traj = solve_backward(data, _minus_box_psi01_source(f0, f1, modes, r_pos),
                          spec.T, spec.t0, records, cfl=spec.cfl, on_step=cone)

    for st, flux in zip(traj.field_states(), cone.totals_at(traj.record_times)):
        psi = _assemble_psi(st, f0, f1, spec.mass)
        energy_v = math.sqrt(energy_weighted(st))
        rep.series.append(FunctionalReport(t=st.t, values={
            "source_norm_s": source_norm_weighted(f0, f1, st.t, r_pos, spec.s),
            "energy_v": energy_v, "norm_conf_plus": conformal_norm_plus(st, spec.s),
            "norm_1_s_surrogate": norm_Z_weighted(psi, spec.s),
            "sup_envelope": sup_envelope(psi, spec.s),
            "energy_w0": energy_weighted(st, lambda q: w0_weight(q, spec.mu)),
            cone.name: flux,
        }))

    # each rate is a function of the decay class: the declared gamma bounds
    # the decay, the class the data realize (read from F1's tail) is sharp
    window = fit_window_for(spec)
    gamma_data = realized_decay_class(f1)

    def add_class_fit(name, key, rate):
        rep.add_fit(name, key, window, rate(spec.gamma), spec.exponent_tol,
                    gamma_data=gamma_data,
                    realized_target=None if gamma_data is None else rate(gamma_data))

    add_class_fit("source_norm_exponent", "source_norm_s", lambda g: -(1.5 + g - spec.s))
    add_class_fit("energy_exponent", "energy_v", lambda g: -(0.5 + g))
    add_class_fit("conformal_norm_exponent", "norm_conf_plus", lambda g: -(0.5 + g - spec.s))
    rep.add_window_ratio("norm_1s_bounded", "norm_1_s_surrogate", window, spec.bound_factor,
                         "max/min of the first-order norm surrogate over the fit window")
    rep.add_window_ratio("envelope_bounded", "sup_envelope", window, spec.bound_factor,
                         "max/min of sup <t+r><t-r>^(s-1/2)|psi| over the fit window")
    # observed constant of the backward weighted estimate
    c_obs = backward_estimate_constant(
        [fr.t for fr in rep.series],
        *([fr.values[key] for fr in rep.series] for key in ("norm_conf_plus", "source_norm_s")))
    rep.add_item("backward_estimate_constant", "bound", c_obs, hi=RATIO_BUDGET,
                 note="||v(t0)||_{1,+,s-1} / (||v(T)|| + int source)")
    rep.provenance = _provenance(grid, [traj])
    return rep


# ---------------------------------------------------------------------------
# T -> infinity Cauchy study
# ---------------------------------------------------------------------------

def run_T_limit_study(spec: RunSpec) -> ScenarioReport:
    rep = ScenarioReport(name="tlimit")
    f0 = spec.field_from(spec.f0_modes)
    if f0.is_zero():
        rep.add_item("zero_data_zero_solution", "check", 0.0, note="no data, nothing to solve")
        return rep
    t_list = list(spec.T_list)
    T_max = t_list[-1]
    grid = RadialGrid.for_run(spec.h, T_max, spec.t0)
    f1 = derive_F1(f0, q_max=grid.r_max + 2.0)
    modes = list(f0.modes)
    r_pos = grid.r[1:]
    minus_box_psi01 = _minus_box_psi01_source(f0, f1, modes, r_pos)

    def source(t, views):
        """One row block per stage, the same for every active horizon."""
        rows = minus_box_psi01(t, next(iter(views.values())))
        return dict.fromkeys(views, rows)

    # one field per horizon T, trivial data there: below each T every
    # horizon steps with the same floats, so one march carries them all
    traj = solve_backward_system({T: FieldState(T, grid, modes) for T in t_list}, source,
                                 T_max, spec.t0, [spec.t0, *t_list], cfl=spec.cfl)
    # each horizon T is recorded at T, at its predecessors and at t0
    ends = {T: traj.states[T][-1] for T in t_list}
    horizon_norms: Dict[float, Tuple[float, float]] = {}   # T -> norms at its predecessor
    for T in t_list[1:]:
        st = traj.states[T][1]
        horizon_norms[T] = (math.sqrt(energy_weighted(st)), conformal_norm_plus(st, spec.s))
    diffs = []
    for T1, T2 in zip(t_list[:-1], t_list[1:]):
        a, b = ends[T2], ends[T1]
        e = math.sqrt(energy_weighted(FieldState(a.t, grid, modes, a.u - b.u, a.v - b.v)))
        diffs.append((T1, T2, e))
        rep.series.append(FunctionalReport(t=T2, values={
            "difference_energy_at_t0": e,
            "remainder_energy_at_T1": horizon_norms[T2][0],
            "remainder_conf_at_T1": horizon_norms[T2][1],
        }))
    # the largest d_{i+1}/d_i: the differences never grow as T doubles
    growth = [d2 / d1 for (_a, _b, d1), (_c, _d, d2) in zip(diffs[:-1], diffs[1:])]
    rep.add_item("difference_monotone_decreasing", "check", max(growth, default=0.0), hi=1.0,
                 note=str([(a, b, f"{e:.3e}") for a, b, e in diffs]))
    ratios = [d1 / d2 for (_a, _b, d1), (_c, _d, d2) in zip(diffs[:-1], diffs[1:])]
    if ratios:
        rep.add_item("difference_ratio_per_doubling", "bound", -min(ratios), hi=-1.5,
                     note=f"ratios {['%.2f' % r for r in ratios]} (>= 1.5 required)")
    # fitted shrink rate of the horizon remainder norms vs the energy target
    t1s = np.asarray([T1 for (T1, _T2, _e) in diffs], dtype=float)
    es = np.asarray([e for (_T1, _T2, e) in diffs], dtype=float)
    if len(diffs) >= 2:
        slope = float(np.polyfit(np.log(t1s), np.log(np.maximum(es, 1e-300)), 1)[0])
        gamma_data = realized_decay_class(f1)
        rep.add_item("difference_rate_consistent", "check", slope, hi=-(0.5 + spec.gamma) + 0.5,
                     gamma_data=gamma_data,
                     realized_target=None if gamma_data is None else -(0.5 + gamma_data),
                     note=f"log-slope vs -(1/2+gamma)={-(0.5 + spec.gamma):.2f} (loose)")
    rep.provenance = _provenance(grid, [traj])
    return rep


# ---------------------------------------------------------------------------
# radial classical null-condition model
# ---------------------------------------------------------------------------

def run_null_radial(spec: RunSpec) -> ScenarioReport:
    rep = ScenarioReport(name="nullradial")
    amp = spec.amplitude

    def u0_derivs(t, r):
        """(d_t f0, d_r f0) for the physical linear field f0 = U0 / r."""
        U, Ut, Ur = (amp * w for w in _dalembert(t, r, 6.0))
        out_t, out_r = np.zeros((2, r.size))
        pos = r > 0
        out_t[pos] = Ut[pos] / r[pos]
        out_r[pos] = (Ur[pos] - U[pos] / r[pos]) / r[pos]
        return out_t, out_r

    # the data a and, for the quadratic scaling check, a/2 as two fields of
    # one march, each a multiple of the free wave u0_derivs read once per stage
    ratios = {"a": 1.0, "a/2": 0.5} if amp != 0.0 else {"a": 0.0}
    grid = RadialGrid(h=spec.h, J=int(round((2.0 * spec.T + 10.0) / spec.h)))
    r = grid.r

    def src(t, views):
        u0t, u0r = u0_derivs(t, r)
        out = {}
        for n, view in views.items():
            vt, vr = np.zeros((2, grid.J + 1))
            vt[1:] = view.v[0, 1:] / r[1:]
            vr[1:] = (view.ur[0, 1:] - view.u_over_r[0, 1:]) / r[1:]
            ft = vt + ratios[n] * u0t
            fr = vr + ratios[n] * u0r
            s = -(ft**2) + fr**2
            s[0] = 0.0
            out[n] = s[None, :]
        return out

    records = sorted(set(np.geomspace(spec.t0, spec.T, 24).tolist()) | {spec.t0, spec.T},
                     reverse=True)
    traj = solve_backward_system({n: FieldState(spec.T, grid, [(0, 0)]) for n in ratios}, src,
                                 spec.T, spec.t0, records, cfl=spec.cfl)

    def energies(name):
        ts = np.asarray([st.t for st in traj.states[name]])
        es = np.asarray([math.sqrt(energy_weighted(st)) for st in traj.states[name]])
        order = np.argsort(ts)
        return ts[order], es[order]

    ts, es = energies("a")
    if not np.all(np.isfinite(es)):
        rep.add_item("reaches_t0_without_blowup", "check", float("nan"))
        rep.status = "error"
        rep.error = "nonlinear backward solve diverged"
        return rep
    rep.add_item("reaches_t0_without_blowup", "check", float(es[0]),
                 note=f"||dv|| at t0={spec.t0:g}: {es[0]:.3e}")
    if np.any(es > 1e-300):
        window = (spec.T / 8.0, spec.T / 2.0)
        pos = es > 1e-300
        fit = fit_decay(ts[pos], es[pos], window)
        rep.add_item("energy_decay_exponent", "fit", fit.exponent, hi=-spec.delta,
                     target=-spec.delta,
                     note=f"one-sided: exponent <= -{spec.delta} (r2={fit.r_squared:.3f})")
    else:
        rep.add_item("remainder_identically_zero", "check", 0.0,
                     note="zero data gives the zero solution")
    for st in traj.states["a"]:
        rep.series.append(FunctionalReport(t=st.t, values={
            "energy_w1": energy_weighted(st)}))
    # quadratic amplitude scaling: halving the data should quarter ||dv||
    if amp != 0.0:
        ts2, es2 = energies("a/2")
        mid = len(ts) // 2
        match = np.interp(ts[mid], ts2, es2)
        ratio = es[mid] / max(match, 1e-300)
        rep.add_item("quadratic_amplitude_scaling", "check", float(ratio), 3.2, 4.8,
                     note="||dv||(a) / ||dv||(a/2), expect 4 within 20%")
    rep.provenance = _provenance(grid, [traj])
    return rep


# ---------------------------------------------------------------------------
# estimate audit battery
# ---------------------------------------------------------------------------

def run_audit_battery(spec: RunSpec) -> ScenarioReport:
    """The estimate battery on seven solves from T = 6 to t1 = 2: free and sourced
    identity marches on grids h, h/2, h/4 and the origin-decay march on h/2.
    The Hardy family reads the free marches on h and h/2, each at its middle
    step (t = 4 at the shipped h) and at t1."""
    rep = ScenarioReport(name="audit")
    T, t1 = 6.0, 2.0
    R = 12.0
    trajs = []

    def bump_src(t, view):
        r = view.grid.r
        return (np.exp(-((r - 4.0) ** 2) - (t - 4.0) ** 2))[None, :]

    # multiplier identity refinement studies, free and sourced: one solve per
    # grid, audited for each s
    ss, hs = (1.0, 1.2), [spec.h, spec.h / 2.0, spec.h / 4.0]
    hardy_states = []   # the Hardy family: two states of each free march on h and h/2
    for tag, data_at, src in (("free", lambda g: _gate_wave(T, g), None),
                              ("sourced", lambda g: FieldState(T, g, [(1, 0)]), bump_src)):
        residuals_at = {s: [] for s in ss}
        for h in hs:
            grid = RadialGrid(h=h, J=int(round(20.0 / h)))
            st = data_at(grid)
            steps = StepStates()
            trajs.append(solve_backward(st, src, T, t1, [t1], cfl=spec.cfl, on_step=steps))
            if tag == "sourced" and h == hs[1]:
                sourced_steps = steps   # the weighted space-time instance's march
            if tag == "free" and h != hs[2]:
                # the middle step at its time T - k dt, free of the rounding
                # the march's running t accumulates, and the end at t1
                k = len(steps) // 2
                hardy_states += [FieldState(T - k * trajs[-1].dt_max, grid, st.modes,
                                            steps[k].u, steps[k].v),
                                 trajs[-1].field_states()[-1]]
            for s in ss:
                out = morawetz_identity_audit(steps, s=s, R=R, source=src)
                residuals_at[s].append(abs(out["residual"]))
        for s, residuals in residuals_at.items():
            # each finer residual against its h^2 schedule from the first (the
            # first against itself is 1/5 by construction)
            sched = max(residuals[i] / (5.0 * (hs[i] / hs[0]) ** 2 * max(residuals[0], 1e-14))
                        for i in range(1, len(hs)))
            rep.add_item(f"identity_residual_scaling_{tag}_s{s:g}", "check", sched, hi=1.0,
                         note=f"residuals {['%.2e' % x for x in residuals]}")
            rep.add_item(f"identity_order_{tag}_s{s:g}", "order", convergence_order(residuals),
                         1.65, 2.35, target=2.0)

    # bulk sign on the standard sample grid
    ts = np.linspace(0.0, 100.0, 200)
    rs = np.linspace(0.0, 100.0, 200)
    for a_exp in (2.0, 2.5, 3.0, 4.0):
        rep.add_item(f"bulk_sign_a{a_exp:g}", "bound", bulk_sign_check(a_exp, ts, rs), hi=1e-12,
                     note="max of the deformation expression over 200x200 samples")

    # Hardy ratios and pointwise constants across a small regression family,
    # stable under refinement: checked for each s
    ratios_at = {s: {"zeroth": [], "radial": [], "ks": []} for s in ss}
    for stt in hardy_states:
        ur = stt.ur
        for s, ratios in ratios_at.items():
            hc = hardy_checks(stt, s, ur)
            ratios["zeroth"].append(hc["ratio_zeroth"])
            ratios["radial"].append(hc["ratio_radial"])
            ratios["ks"].append(ks_pointwise_check(stt, s, ur)["constant"])
    for s, ratios in ratios_at.items():
        for tag in ("zeroth", "radial"):
            rep.add_item(f"hardy_{tag}_s{s:g}", "bound", max(ratios[tag]), hi=RATIO_BUDGET)
            drift = max(ratios[tag]) / max(min(ratios[tag]), 1e-300)
            rep.add_item(f"hardy_{tag}_drift_s{s:g}", "bound", drift, hi=2.0,
                         note="max/min across states and refinements")
        rep.add_item(f"ks_constant_s{s:g}", "bound", max(ratios["ks"]), hi=RATIO_BUDGET)
        rep.add_item(f"ks_drift_s{s:g}", "bound",
                     max(ratios["ks"]) / max(min(ratios["ks"]), 1e-300), hi=2.0)

    # weighted space-time estimate instance on the sourced identity run at h/2
    inst = cor_weighted_spacetime_instance(sourced_steps, spec.gamma, spec.mu, source=bump_src)
    rep.add_item("weighted_spacetime_ratio", "bound", inst["ratio"], hi=RATIO_BUDGET,
                 note=f"bulk={inst['bulk']:.3e} cone={inst['cone']:.3e}")

    # origin decay: sourced run, origin series and origin-cone fluxes per step
    grid = sourced_steps[0].grid
    st = FieldState(T, grid, [(0, 0)])

    def origin_src(t, view):
        r = view.grid.r
        return (np.exp(-((r - 3.0) ** 2) - (t - 4.0) ** 2))[None, :]

    steps = StepStates()
    trajs.append(solve_backward(st, origin_src, T, t1, list(np.linspace(t1, T, 13)),
                                cfl=spec.cfl, on_step=steps))
    odc = origin_decay_check(steps, trajs[-1].record_times[::-1], spec.gamma,
                             origin_src)
    good = odc["cone_bound"] > 1e-12
    worst = float(np.max(odc["ratio"][good])) if np.any(good) else 0.0
    rep.add_item("origin_decay_ratio", "bound", worst, hi=RATIO_BUDGET,
                 note="t^(1+gamma)|phi(t,0)| / weighted cone flux bound")
    rep.provenance = _provenance(grid, trajs)
    return rep


# ---------------------------------------------------------------------------
# discrete-operator convergence study
# ---------------------------------------------------------------------------

def run_convergence(spec: RunSpec) -> ScenarioReport:
    rep = ScenarioReport(name="convergence")
    # residual of the discrete operator on exact solutions (dt = h/2 so the
    # traveling-wave cancellation of dt = h does not mask the truncation error)
    errs_g, errs_e = [], []
    hs = [spec.h, spec.h / 2.0, spec.h / 4.0]
    for h in hs:
        grid = RadialGrid(h=h, J=int(round(24.0 / h)))
        res = discrete_box_field(lambda t: _gate_wave(t, grid).u[0], 5.0, h / 2.0, grid, 0)
        errs_g.append(float(np.max(np.abs(res))))
        # the mollifier's fourth derivative is spiky: its asymptotic range
        # starts a refinement level or two below the solver grids
        he = h / 4.0
        grid_e = RadialGrid(h=he, J=int(round(12.0 / he)))
        res_e = discrete_box_field(lambda t: chi_exterior.value(grid_e.r - t), 3.0,
                                   he / 2.0, grid_e, 0)
        sel = grid_e.r[1:-1] >= 0.5
        errs_e.append(float(np.max(np.abs(res_e[sel]))))
    rep.add_item("residual_order_traveling_wave", "order", convergence_order(errs_g), 1.9, 2.1,
                 target=2.0, note=f"errors {errs_g}")
    rep.add_item("residual_order_mass_term", "order", convergence_order(errs_e), 1.9,
                 target=2.0, note=f"errors {errs_e} (M=1, r >= 1/2)")
    # the solves of the run are the solver gate's, so is its provenance
    rep.provenance = _solver_gate(spec, rep)
    return rep


RUNNERS = {
    "homogeneous": run_homogeneous_scattering,
    "tlimit": run_T_limit_study,
    "nullradial": run_null_radial,
    "audit": run_audit_battery,
    "convergence": run_convergence,
}   # weaknull and backscatter: kernel_pipelines, through runner_for

# the RunSpec fields each pipeline reads (backscatter reads gamma in field_from)
_HOMOGENEOUS = ("T", "t0", "n_records", "h", "cfl", "l_max", "gamma", "s", "mass", "f0_modes",
                "exponent_tol")
FIELDS = {
    "homogeneous": (*_HOMOGENEOUS, "mu", "bound_factor"),
    "tlimit": ("T_list", "t0", "h", "cfl", "l_max", "gamma", "s", "f0_modes"),
    "weaknull": (*_HOMOGENEOUS, "g0_modes", "envelope_budget", "envelope_window",
                 "check_points"),
    "nullradial": ("T", "t0", "h", "cfl", "amplitude", "delta"),
    "backscatter": ("f0_modes", "l_max", "a", "gamma"),
    "audit": ("h", "cfl", "gamma", "mu"),
    "convergence": ("h", "cfl"),
}
SCENARIOS = tuple(FIELDS)


def runner_for(scenario: str):
    """The pipeline of ``scenario``.  Weak-null's and backscatter's import
    kernel_pipelines: a caller timing the run resolves it first."""
    if scenario in RUNNERS:
        return RUNNERS[scenario]
    from backwave.kernel_pipelines import run_backscatter_audit, run_weak_null
    return {"weaknull": run_weak_null, "backscatter": run_backscatter_audit}[scenario]


def run_scenario(spec: RunSpec) -> ScenarioReport:
    """Run the spec's pipeline; every report echoes the run's declared fields
    and its provenance names the run (version, config hash) and gets the run
    time."""
    spec.validate()
    started = time.time()
    try:
        rep = runner_for(spec.scenario)(spec)
    except ContainmentError as exc:
        rep = ScenarioReport(name=spec.scenario, status="error", error=f"containment: {exc}")
    except (EngineError, FunctionalError) as exc:
        # stage failures surface as an error report, never a bare traceback
        rep = ScenarioReport(name=spec.scenario, status="error",
                             error=f"{spec.scenario}: {type(exc).__name__}: {exc}")
    rep.spec = spec.declared()
    rep.provenance = {"version": __version__, "config_hash": spec.config_hash(),
                      **rep.provenance, "runtime_s": round(time.time() - started, 3)}
    return rep
