import dataclasses
import math
from dataclasses import asdict

import numpy as np
import pytest

from backwave import scenarios
from backwave.functionals import FitResult, FunctionalReport
from backwave.scenarios import (RunSpec, ScenarioError, ScenarioReport, fit_window_for,
                                record_times_for, run_scenario)

GAUSS2 = [(2, 0, {"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": 0.0})]


def test_spec_validation():
    with pytest.raises(ScenarioError):
        RunSpec(scenario="mystery").validate()
    with pytest.raises(ScenarioError):
        RunSpec(scenario="homogeneous", gamma=1.2).validate()
    with pytest.raises(ScenarioError):
        RunSpec(scenario="homogeneous", gamma=0.8, s=1.4).validate()   # s >= gamma+1/2
    with pytest.raises(ScenarioError):
        RunSpec(scenario="homogeneous", T=2.0, t0=2.0).validate()
    with pytest.raises(ScenarioError):
        RunSpec(scenario="tlimit", T_list=[40.0]).validate()
    with pytest.raises(ScenarioError):
        RunSpec(scenario="backscatter", a=-1.0).validate()
    RunSpec(scenario="homogeneous", gamma=0.8, s=1.2).validate()


def test_range_checks_cover_only_the_fields_the_pipeline_reads():
    # tlimit's horizons are T_list: t0 = 50 above the unread default T = 40 is valid
    spec = RunSpec(scenario="tlimit", t0=50.0, T_list=[100.0, 200.0, 400.0], f0_modes=GAUSS2)
    assert "T" not in spec.declared() and spec.validate() is spec
    # no grid is sized from the unread T: 2T + (T - t0) < 0 here
    RunSpec(scenario="tlimit", t0=200.0, T_list=[400.0, 800.0], f0_modes=GAUSS2).validate()
    with pytest.raises(ScenarioError, match="need T > t0"):
        RunSpec(scenario="homogeneous", T=40.0, t0=50.0).validate()
    with pytest.raises(ScenarioError, match="need t0 >= 1"):
        RunSpec(scenario="tlimit", t0=0.5, T_list=[20.0, 40.0]).validate()
    RunSpec(scenario="convergence", T=1.0, t0=0.5).validate()   # reads neither T nor t0


def test_fit_window_rule():
    spec = RunSpec("homogeneous", T=80.0, t0=2.0)
    assert fit_window_for(spec) == (20.0, 80.0)          # last factor-4 span
    spec = RunSpec("homogeneous", T=400.0, t0=2.0)
    assert fit_window_for(spec) == (20.0, 200.0)         # last decade available


def test_record_times_cover_endpoints():
    spec = RunSpec("homogeneous", T=40.0, t0=2.0, n_records=12)
    ts = record_times_for(spec)
    assert ts[0] == 40.0 and ts[-1] == 2.0
    assert all(a > b for a, b in zip(ts, ts[1:]))


def series_report(key, ts, ys):
    rep = ScenarioReport(name="x", spec={})
    rep.series = [FunctionalReport(t=t, values={key: y}) for t, y in zip(ts, ys)]
    return rep


def fit_item(exponent, target=-1.1, tol=0.15, **kw):
    # a power law t^exponent recorded at 9 times in the window (20, 80),
    # newest first as a backward march records them
    ts = np.geomspace(80.0, 20.0, 9)
    rep = series_report("y", ts, ts ** exponent)
    return rep.add_fit("e", "y", (20.0, 80.0), target, tol, **kw)


def test_fit_band_between_declared_and_realized_class():
    # declared gamma = 0.8 gives -1.1, realized class 1 gives -1.3 (s = 1.2):
    # the band is [-1.3 - tol, -1.1 + tol]
    band = dict(gamma_data=1.0, realized_target=-1.3)
    for x in (-1.281, -1.1, -1.44, -0.96):
        assert fit_item(x, **band).passed, x
    assert not fit_item(-1.46, **band).passed       # below the realized edge
    assert not fit_item(-0.94, **band).passed       # above the declared edge
    item = fit_item(-1.281, **band)
    assert item.kind == "fit" and item.measured == pytest.approx(-1.281, abs=1e-12)
    assert item.target == -1.1 and (item.lo, item.hi) == (-1.3 - 0.15, -1.1 + 0.15)
    assert asdict(item)["gamma_data"] == 1.0
    assert asdict(item)["realized_target"] == -1.3
    assert "gamma_data=1" in item.note


def test_fit_without_realized_class_is_two_sided(monkeypatch):
    for x in (-1.281, -1.25, -1.1, -0.95, -0.94):
        item = fit_item(x)
        assert item.measured == pytest.approx(x, abs=1e-12)
        assert item.passed == bool(abs(x - (-1.1)) <= 0.15), x
        assert item.gamma_data is None and item.realized_target is None
    # a fit that returns NaN fails
    monkeypatch.setattr(scenarios, "fit_decay", lambda ts, ys, window: FitResult(
        exponent=float("nan"), amplitude=1.0, r_squared=1.0, window=(20.0, 80.0), n_samples=9))
    item = fit_item(-1.1)
    assert item.kind == "fit" and math.isnan(item.measured) and not item.passed


def test_shallow_target_checks_nonincrease_on_the_in_window_samples():
    # 80^-0.1 / 20^-0.1 changes by 1.15x < 1.5x: the slope cannot be
    # resolved, so the item bounds max/first of the column inside the
    # window; the large sample at t = 10 lies outside and does not count
    ts = [80.0, 60.0, 40.0, 30.0, 25.0, 20.0, 10.0]
    ys = [1.0, 1.1, 1.3, 1.05, 1.0, 1.25, 50.0]
    item = series_report("y", ts, ys).add_fit("e", "y", (20.0, 80.0), -0.1, 0.15)
    assert item.kind == "bound" and item.hi == 1.2
    assert item.measured == pytest.approx(1.3 / 1.25)
    assert item.passed and "shallow target -0.1" in item.note
    ys[2] = 1.6                                       # 1.6 / 1.25 > 1.2
    assert not series_report("y", ts, ys).add_fit("e", "y", (20.0, 80.0), -0.1, 0.15).passed


def test_add_item_is_the_one_pass_rule():
    # measured in [lo, hi], None unbounded, NaN fails, the edges pass
    rep = ScenarioReport(name="x", spec={})
    for measured, lo, hi, passed in ((1.0, None, None, True), (math.nan, None, None, False),
                                     (math.nan, 0.0, 2.0, False), (-1e300, None, 1.0, True),
                                     (math.inf, 0.0, None, True), (math.inf, 0.0, 1e300, False),
                                     (2.0, 1.0, 2.0, True), (1.0, 1.0, 2.0, True),
                                     (0.5, 1.0, None, False), (2.5, None, 2.0, False)):
        item = rep.add_item("x", "bound", measured, lo, hi)
        assert item.passed is passed, (measured, lo, hi)
        assert (item.lo, item.hi) == (lo, hi)
    # an inconclusive source residual: lo is twice the noise floor
    assert not rep.add_item("r", "bound", 1e-3, 2.0 * 8e-4, 1e-2).passed
    assert rep.add_item("r", "bound", 1e-3, 2.0 * 5e-4, 1e-2).passed
    assert len(rep.items) == 12 and not rep.passed


def test_window_ratio_reads_the_column_inside_the_window():
    rep = series_report("y", [40.0, 20.0, 10.0, 4.0, 2.0], [0.0, 2.0, 3.0, 1.5, 100.0])
    item = rep.add_window_ratio("b", "y", (4.0, 20.0), 5.0, "max/min")
    assert item.measured == 2.0 and item.passed and item.note == "max/min"
    # an empty window reads inf and says so
    item = rep.add_window_ratio("b", "y", (21.0, 39.0), 5.0, "max/min")
    assert item.measured == math.inf and not item.passed
    assert item.note == "max/min: no record in the window"


def test_the_zero_horizon_sample_is_dropped():
    # a remainder is exactly 0 at its data horizon t = 80: neither the fit
    # nor the window ratio sees that sample
    ts = np.geomspace(80.0, 20.0, 9)
    ys = ts ** -1.1
    ys[0] = 0.0
    rep = series_report("y", ts, ys)
    item = rep.add_fit("e", "y", (20.0, 80.0), -1.1, 0.15)
    assert item.kind == "fit" and item.measured == pytest.approx(-1.1, abs=1e-12)
    assert f"window=(20,{ts[1]:g})" in item.note
    ratio = rep.add_window_ratio("b", "y", (20.0, 80.0), 5.0, "max/min")
    assert ratio.measured == pytest.approx((20.0 / ts[1]) ** -1.1)


def test_homogeneous_zero_data_trivial():
    rep = run_scenario(RunSpec(scenario="homogeneous", f0_modes=[], mass=0.0,
                               gamma=0.8, s=1.2))
    assert rep.passed


def test_homogeneous_gaussian_realizes_borderline_class():
    # rapidly decaying radiation data realizes the borderline decay class
    # (the second-order field tends to a nonzero constant), so the measured
    # source-norm exponent is -(3/2 + 1 - s); this is the regression anchor
    # for the decay-rate formula
    spec = RunSpec(scenario="homogeneous", h=0.25, T=40.0, t0=2.0, gamma=0.8, s=1.2,
                   f0_modes=GAUSS2, mass=0.25, n_records=24)
    rep = run_scenario(spec)
    assert rep.status == "ok"
    items = {it.name: it for it in rep.items}
    src = items["source_norm_exponent"]
    assert src.measured == pytest.approx(-(1.5 + 1.0 - 1.2), abs=0.1), src
    assert src.gamma_data == 1.0
    assert src.realized_target == pytest.approx(-1.3)
    # the fit lies between the declared-class and the realized-class rates
    assert src.passed, src
    assert items["norm_1s_bounded"].passed
    assert items["envelope_bounded"].passed
    assert items["backward_estimate_constant"].passed
    # the criterion target computed from the declared gamma is recorded as
    # such even though gaussian data realize a faster rate
    assert src.target == pytest.approx(-1.1)


def test_homogeneous_determinism():
    spec = dict(scenario="homogeneous", h=0.25, T=24.0, t0=2.0, gamma=0.8, s=1.2,
                f0_modes=GAUSS2, mass=0.25, n_records=12)
    a = run_scenario(RunSpec(**spec))
    b = run_scenario(RunSpec(**spec))
    va = [(fr.t, sorted(fr.values.items())) for fr in a.series]
    vb = [(fr.t, sorted(fr.values.items())) for fr in b.series]
    assert va == vb           # bit-identical series
    assert [it.measured for it in a.items] == [it.measured for it in b.items]


def test_tlimit_small():
    spec = RunSpec(scenario="tlimit", h=0.25, T=40.0, t0=2.0, gamma=0.8, s=1.2,
                   T_list=[10.0, 20.0, 40.0], f0_modes=GAUSS2)
    rep = run_scenario(spec)
    assert rep.status == "ok"
    items = {it.name: it for it in rep.items}
    assert items["difference_monotone_decreasing"].passed
    assert items["difference_ratio_per_doubling"].passed
    # the rate item records the class the gaussian data realize
    rate = items["difference_rate_consistent"]
    assert (rate.gamma_data, rate.realized_target) == (1.0, -1.5)
    assert (rate.lo, rate.hi) == (None, -(0.5 + 0.8) + 0.5) and rate.kind == "check"


def test_nullradial_small():
    # T well past the focusing time of the data pulse so the fit window sits
    # in the decay regime
    spec = RunSpec(scenario="nullradial", h=0.125, T=40.0, t0=2.0, amplitude=0.01,
                   mu=0.1, delta=0.3)
    rep = run_scenario(spec)
    items = {it.name: it for it in rep.items}
    assert items["reaches_t0_without_blowup"].passed
    assert items["quadratic_amplitude_scaling"].passed
    assert items["energy_decay_exponent"].passed


def test_weaknull_small_pipeline():
    spec = RunSpec(scenario="weaknull", h=0.2, T=24.0, t0=2.0, gamma=0.8, s=1.2,
                   f0_modes=[(2, 0, {"kind": "poly-tail", "amplitude": 2.0,
                                     "p": 0.85, "scale": 1.0})],
                   g0_modes=[(0, 0, {"kind": "gaussian", "amplitude": 0.25})],
                   mass=0.02, n_records=12, envelope_window=(4.0, 16.0),
                   check_points=[])
    rep = run_scenario(spec)
    assert rep.status == "ok"
    items = {it.name: it for it in rep.items}
    assert items["w_norm_exponent"].passed
    # series populated with finite values
    assert all(np.isfinite(list(fr.values.values())).all() for fr in rep.series)


def test_weaknull_zero_coupling_reduces_to_homogeneous():
    # F0 = 0: the quadratic coupling vanishes and w solves the plain
    # homogeneous remainder problem for G0
    spec = RunSpec(scenario="weaknull", h=0.25, T=24.0, t0=2.0, gamma=0.8, s=1.2,
                   f0_modes=[],
                   g0_modes=[(2, 0, {"kind": "gaussian", "amplitude": 1.0})],
                   mass=0.0, n_records=12, envelope_window=(4.0, 16.0))
    rep = run_scenario(spec)
    assert rep.status == "ok"
    spec_h = RunSpec(scenario="homogeneous", h=0.25, T=24.0, t0=2.0, gamma=0.8,
                     s=1.2, f0_modes=[(2, 0, {"kind": "gaussian", "amplitude": 1.0})],
                     mass=0.0, n_records=12)
    rep_h = run_scenario(spec_h)
    # w solves exactly the homogeneous remainder problem for G0: unweighted
    # energies agree at shared record times (homogeneous records their root)
    wn = {round(fr.t, 6): fr.values["energy_w1"] for fr in rep.series}
    for fr in rep_h.series:
        key = round(fr.t, 6)
        if key in wn and wn[key] > 1e-12:
            assert wn[key] == pytest.approx(fr.values["energy_v"] ** 2, rel=1e-9), fr.t


def test_backscatter_scenario_zero_field():
    rep = run_scenario(RunSpec(scenario="backscatter", f0_modes=[]))
    assert rep.passed


def test_convergence_scenario():
    rep = run_scenario(RunSpec(scenario="convergence", h=0.1))
    assert rep.status == "ok"
    items = {it.name: it for it in rep.items}
    assert items["residual_order_traveling_wave"].passed
    assert items["residual_order_mass_term"].passed


def test_nullradial_zero_data_zero_solution():
    spec = RunSpec(scenario="nullradial", h=0.25, T=12.0, t0=2.0, amplitude=0.0,
                   mu=0.1, delta=0.3)
    rep = run_scenario(spec)
    for fr in rep.series:
        assert fr.values["energy_w1"] == 0.0


def test_assembled_field_solves_wave_equation():
    # backward remainder solve with source -box psi01; the assembled field
    # psi = v + psi01 + psi_e must satisfy the homogeneous equation: the
    # discrete box of its u-array converges to zero at order >= 1.9
    import math
    from backwave.engine import RadialGrid, FieldState, solve_backward, discrete_box_field
    from backwave.radiation import derive_F1, eval_approximant
    from backwave.scenarios import _minus_box_psi01_source

    spec = RunSpec(scenario="homogeneous", gamma=0.8, s=1.2, f0_modes=GAUSS2, mass=0.25)
    f0 = spec.field_from(spec.f0_modes)
    # the cutoff-transition ring carries the mollifier's large high
    # derivatives; check away from the tightest ring radii
    T, tc = 24.0, 16.0
    errs = []
    for h in (0.1, 0.05, 0.025):
        grid = RadialGrid.for_run(h, T, 2.0)
        f1 = derive_F1(f0, q_max=grid.r_max + 2.0)
        r_pos = grid.r[1:]
        data = FieldState(T, grid, [(2, 0)])
        traj = solve_backward(data,
                              _minus_box_psi01_source(f0, f1, [(2, 0)], r_pos),
                              T, 2.0, [tc - h, tc, tc + h], cfl=0.5)

        def psi_u(t):
            st = traj.state_at(t, "phi")
            u = st.u[0].copy()
            p01 = eval_approximant(f0, f1, t, r_pos)[0]
            u[1:] += p01 * r_pos
            return u

        res = discrete_box_field(psi_u, tc, h, grid, 2)
        interior = (grid.r[1:-1] > 2.0) & (grid.r[1:-1] < grid.r_max - 2.0)
        errs.append(float(np.max(np.abs(res[interior]))))
    order = math.log2(errs[1] / errs[2])   # asymptotic (finest) pair
    assert order >= 1.9, (errs, order)


def test_weaknull_non_axisymmetric_modes():
    # m != 0 data exercises the full (l, m) product path
    spec = RunSpec(scenario="weaknull", h=0.25, T=24.0, t0=2.0, gamma=0.8, s=1.2,
                   f0_modes=[(2, 1, {"kind": "gaussian", "amplitude": 0.5})],
                   g0_modes=[(1, -1, {"kind": "gaussian", "amplitude": 0.25})],
                   mass=0.02, n_records=16, envelope_window=(4.0, 16.0), l_max=4)
    rep = run_scenario(spec)
    assert rep.status == "ok"
    assert all(np.isfinite(list(fr.values.values())).all() for fr in rep.series)


def test_stage_failure_becomes_error_report():
    # too few records for the decay fit: the run reports an error with a
    # stage tag instead of raising
    spec = RunSpec(scenario="weaknull", h=0.25, T=16.0, t0=2.0, gamma=0.8, s=1.2,
                   f0_modes=[(2, 0, {"kind": "gaussian", "amplitude": 0.5})],
                   n_records=8, envelope_window=(4.0, 12.0), l_max=4)
    rep = run_scenario(spec)
    assert rep.status == "error"
    assert "weaknull" in rep.error
    assert not rep.passed


def test_every_report_names_its_run(monkeypatch):
    # the early returns on zero data and the error reports carry the run's
    # identity too, not only its run time
    import backwave.scenarios as scenarios
    from backwave import __version__
    from backwave.engine import ContainmentError

    def breach(spec):
        raise ContainmentError("deliberate breach")

    specs = [RunSpec(scenario="homogeneous", f0_modes=[], mass=0.0, gamma=0.8, s=1.2),
             RunSpec(scenario="backscatter", f0_modes=[]),
             RunSpec(scenario="nullradial")]
    monkeypatch.setitem(scenarios.RUNNERS, "nullradial", breach)
    reports = [run_scenario(spec) for spec in specs]
    assert reports[2].status == "error" and "containment" in reports[2].error
    for spec, rep in zip(specs, reports):
        assert rep.spec == spec.declared()
        assert rep.provenance["version"] == __version__
        assert rep.provenance["config_hash"] == spec.config_hash()
        assert rep.provenance["runtime_s"] >= 0.0


POLY2 = [(2, 0, {"kind": "poly-tail", "amplitude": 2.0, "p": 0.85})]


SMALL_SPECS = [   # one small run of each of the seven pipelines
    RunSpec("homogeneous", h=0.25, T=12.0, n_records=8, f0_modes=GAUSS2, mass=0.25),
    RunSpec("tlimit", h=0.25, T_list=[6.0, 12.0, 24.0], f0_modes=GAUSS2),
    RunSpec("weaknull", h=0.25, T=12.0, n_records=8, l_max=4, f0_modes=POLY2, mass=0.02,
            g0_modes=[(0, 0, {"kind": "gaussian", "amplitude": 0.25})],
            envelope_window=(4.0, 8.0)),
    RunSpec("nullradial", h=0.5, T=8.0),
    RunSpec("backscatter", f0_modes=POLY2),   # poly-tail data: field_from reads gamma
    RunSpec("audit", h=0.4),
    RunSpec("convergence", h=0.4),
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: spec.scenario)
def test_each_pipeline_reads_exactly_its_declared_fields(monkeypatch, spec):
    # every RunSpec field the pipeline reads while it runs, read through
    # RunSpec.__getattribute__; backscatter's brute-force oracle, which is
    # handed no spec, is stubbed to keep the run short
    import backwave.kernel_pipelines as kernel_pipelines
    monkeypatch.setattr(kernel_pipelines, "brute_force_phi_k", lambda *args, **kwargs: 1.0)
    fields = {f.name for f in dataclasses.fields(RunSpec)}
    reads, get = set(), RunSpec.__getattribute__

    def recording(self, name):
        if name in fields:
            reads.add(name)
        return get(self, name)

    runner = scenarios.runner_for(spec.validate().scenario)
    with monkeypatch.context() as patch:
        patch.setattr(RunSpec, "__getattribute__", recording)
        runner(spec)
    assert reads == set(scenarios.FIELDS[spec.scenario])


def _source_key(source):
    """None for no source, else its code and the identities of its closure's
    values; a ``solve_backward`` wrapper stands for the source it wraps."""
    if source is None:
        return None
    cells = [c.cell_contents for c in source.__closure__ or ()]
    if source.__qualname__ == "solve_backward.<locals>.wrapped":
        return _source_key(cells[0])
    return source.__code__, tuple(map(id, cells))


def _recorded_solves(monkeypatch, problems=None):
    """The trajectories of every solve a run makes, in call order; with
    ``problems``, each solve's problem is appended to it: the grid, T, t0, the
    source and each field's data time, modes and data bytes."""
    import backwave.engine as engine
    import backwave.kernel_pipelines as kernel_pipelines

    trajs, solve, sources = [], engine.solve_backward_system, []

    def recording(fields, source, T, t0, *args, **kwargs):
        if problems is not None:
            sources.append(source)   # alive, so no later closure takes its values' ids
            problems.append((next(iter(fields.values())).grid, T, t0, _source_key(source),
                             sorted((st.t, st.modes, st.u.tobytes(), st.v.tobytes())
                                    for st in fields.values())))
        trajs.append(solve(fields, source, T, t0, *args, **kwargs))
        return trajs[-1]

    for module in (engine, kernel_pipelines, scenarios):
        monkeypatch.setattr(module, "solve_backward_system", recording)
    return trajs


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: spec.scenario)
def test_no_two_solves_of_a_run_march_the_same_problem(monkeypatch, spec):
    # a second march of a problem the run already marches repeats its floats;
    # the run reads the march it has (backscatter, which makes no solve, runs
    # with its oracle stubbed)
    import backwave.kernel_pipelines as kernel_pipelines
    monkeypatch.setattr(kernel_pipelines, "brute_force_phi_k", lambda *args, **kwargs: 1.0)
    problems = []
    _recorded_solves(monkeypatch, problems)
    scenarios.runner_for(spec.validate().scenario)(spec)
    repeats = [i for i, p in enumerate(problems) if p in problems[:i]]
    assert not repeats, f"solves {repeats} repeat an earlier solve's problem"


def test_convergence_provenance_describes_the_gate_grid(monkeypatch):
    trajs = _recorded_solves(monkeypatch)
    prov = run_scenario(RunSpec(scenario="convergence")).provenance
    # the solver gate's time-reversal grid h/2 = 0.05 with its step cfl * h = 0.025; the
    # steps of all four solves: 100 + 200 + 400 for the refinement study (the
    # h/2 march also carries the energy drift), 200 for the reflected leg
    assert (prov["h"], prov["J"]) == (0.05, 400)
    assert prov["r_max"] == pytest.approx(20.0)
    assert prov["dt_max"] == pytest.approx(0.025)
    assert len(trajs) == 4
    assert prov["steps"] == sum(tr.steps for tr in trajs) == 900


@pytest.mark.parametrize("scenario", ["convergence", "audit"])
def test_every_solve_steps_with_the_runs_cfl(monkeypatch, scenario):
    trajs = _recorded_solves(monkeypatch)
    run_scenario(RunSpec(scenario=scenario, h=0.1, cfl=0.25))
    assert trajs
    for tr in trajs:
        assert tr.dt_max <= 0.25 * tr.grid.h * (1.0 + 1e-12), (tr.grid, tr.dt_max)


TLIMIT_SMALL = RunSpec(scenario="tlimit", h=0.25, t0=2.0, T_list=[6.0, 12.0, 24.0],
                       f0_modes=GAUSS2)


@pytest.mark.parametrize("spec, n_solves", [
    (RunSpec(scenario="nullradial", h=0.25, T=12.0, t0=2.0, amplitude=0.01), 1),  # a, a/2
    (TLIMIT_SMALL, 1),                         # one march carries every horizon
    (RunSpec(scenario="audit", h=0.1), 7),     # identity marches x 3 grids x 2, origin
    (RunSpec(scenario="convergence", h=0.1), 4),
], ids=["nullradial", "tlimit", "audit", "convergence"])
def test_provenance_steps_cover_every_solve(monkeypatch, spec, n_solves):
    trajs = _recorded_solves(monkeypatch)
    prov = run_scenario(spec).provenance
    assert len(trajs) == n_solves
    assert prov["steps"] == sum(tr.steps for tr in trajs)
    on_grid = [tr.dt_max for tr in trajs if (tr.grid.h, tr.grid.J) == (prov["h"], prov["J"])]
    assert on_grid and prov["dt_max"] == max(on_grid)


def test_tlimit_horizons_equal_their_own_solves_bit_for_bit(monkeypatch):
    # each horizon's remainder at t0 and at its predecessor equals the
    # separate solve from that horizon on the same grid (int64 views)
    from backwave.engine import FieldState, solve_backward
    from backwave.radiation import derive_F1

    trajs = _recorded_solves(monkeypatch)
    assert run_scenario(TLIMIT_SMALL).status == "ok"
    [traj] = trajs
    f0 = TLIMIT_SMALL.field_from(GAUSS2)
    f1 = derive_F1(f0, q_max=traj.grid.r_max + 2.0)
    modes = list(f0.modes)
    source = scenarios._minus_box_psi01_source(f0, f1, modes, traj.grid.r[1:])
    t_list = TLIMIT_SMALL.T_list
    for T1, T in zip([None, *t_list], t_list):
        records = [t for t in [*t_list, 2.0] if t < T]
        alone = solve_backward(FieldState(T, traj.grid, modes), source, T, 2.0, records,
                               cfl=TLIMIT_SMALL.cfl)
        for t in [2.0] if T1 is None else [T1, 2.0]:
            [st] = [st for st in traj.states[T] if st.t == t]
            ref = alone.state_at(t, "phi")
            for got, want in ((st.u, ref.u), (st.v, ref.v)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (T, t)
    assert traj.steps == alone.steps and np.any(traj.states[t_list[0]][-1].u)


def test_weaknull_envelope_window_without_records_fails_the_item():
    # a window that holds no record keeps the envelope item and fails it
    # with measured inf, instead of dropping the item from the report
    spec = RunSpec(scenario="weaknull", h=0.25, T=16.0, t0=2.0, gamma=0.8, s=1.2,
                   f0_modes=[(2, 0, {"kind": "gaussian", "amplitude": 0.5})],
                   n_records=12, envelope_window=(20.0, 30.0), l_max=4)
    rep = run_scenario(spec)
    assert rep.status == "ok", rep.error
    item = {it.name: it for it in rep.items}["w_envelope_bounded"]
    assert item.measured == math.inf and not item.passed
    assert "no record in the window" in item.note


def _weaknull_parts(h=0.25, T=24.0):
    """F0, F1, the radial grid and the strata of a small axisymmetric weak-null run."""
    from backwave.engine import RadialGrid
    from backwave.radiation import derive_F1
    from backwave.kernel_pipelines import _strata_sources

    spec = RunSpec(scenario="weaknull", gamma=0.8, mass=0.02,
                   f0_modes=[(2, 0, {"kind": "poly-tail", "amplitude": 2.0, "p": 0.85})])
    f0 = spec.field_from(spec.f0_modes)
    grid = RadialGrid.for_run(h, T, 2.0)
    f1 = derive_F1(f0, q_max=grid.r_max + 2.0)
    w_modes = [(l, 0) for l in range(5)]
    strata = _strata_sources(f0, f1, spec.mass, 4,
                             q_range=(-(T + 10.0), 0.25 * grid.r_max + 10.0))
    return f0, f1, grid, w_modes, strata


def test_strata_block_rows_equal_single_time_rows_bit_for_bit():
    # the strata in blocks of stage times, as the weak-null source takes
    # them on the block's wave zone: each row equals the row of a block of
    # one and the sum with chi^2 tested at every radius, as int64 views.  The
    # schedule crosses a record time, and below t = sqrt(15) no radius is in
    # the wave zone, so late rows are all (+0.0) zeros
    from backwave.cutoffs import chi_wave_zone
    from backwave.engine import BLOCK_TIMES, StageBlock, StepSchedule
    from backwave.kernel_pipelines import _strata_rows
    from backwave.profiles import qbracket

    _f0, _f1, grid, w_modes, strata = _weaknull_parts()
    r = grid.r[1:]
    st = StepSchedule((6.0, 4.3, 2.0), dt_cap=0.1).stage_times
    nonzero = 0
    for i in range(0, len(st), BLOCK_TIMES):
        ts = st[i:i + BLOCK_TIMES]
        block = _strata_rows(strata, w_modes, StageBlock(np.array(ts), r))
        assert block.shape == (len(ts), len(w_modes), grid.J + 1)
        for row, t in zip(block, ts):
            single = _strata_rows(strata, w_modes, StageBlock(np.array([t]), r))[0]
            assert np.array_equal(row.view(np.int64), single.view(np.int64)), t
            c2 = chi_wave_zone.value(qbracket(r - t) / r) ** 2
            j = np.flatnonzero(c2)
            whole = np.zeros_like(row)
            for k, srcp in strata.items():
                for m, lm in enumerate(w_modes):
                    if lm in srcp.modes:
                        whole[m, 1 + j] += srcp.modes[lm].value(r[j] - t) * r[j] ** -float(k) * c2[j]
            assert np.array_equal(row.view(np.int64), whole.view(np.int64)), t
            nonzero += bool(np.any(row))
    assert 0 < nonzero < len(st)
    zero = _strata_rows(strata, w_modes, StageBlock(np.array([2.0]), r))
    assert np.all(zero.view(np.int64) == 0)


def test_dt_psi_modes_add_dt_psi_e_only_where_it_lives_bit_for_bit():
    # d_t psi_e = -M chi_e'(r - t)/r vanishes off 1 < r - t < 2, where it
    # would add -0.0: the block equals the whole-grid sum bit for bit
    from backwave.radiation import eval_dt_psi01_exact, psi_e_terms
    from backwave.kernel_pipelines import _dt_psi_modes

    f0, f1, grid, _w_modes, _strata = _weaknull_parts()
    r = grid.r[1:]
    v = np.random.default_rng(3).standard_normal((1, r.size))
    v[0, ::7] = -0.0
    for t in (2.0, 9.5, 20.0):
        block = _dt_psi_modes(f0, f1, 0.02, [(2, 0), (0, 0)])(v, t, r, None)
        whole = np.zeros((2, r.size))
        whole[0] = v[0] / r
        whole[0] += eval_dt_psi01_exact(f0, f1, t, r)[0]
        whole[1] += psi_e_terms(0.02, t, r)[1]
        assert np.array_equal(block.view(np.int64), whole.view(np.int64)), t
        assert np.any(block[1])


def test_dt_psi_modes_on_schedule_blocks_equal_single_time_rows_bit_for_bit():
    # with the march's schedule, d_t psi01 and d_t psi_e come from blocks of
    # BLOCK_TIMES stage times: each block equals the one of a call without a
    # schedule, as int64 views, across a record time
    from backwave.engine import StepSchedule
    from backwave.kernel_pipelines import _dt_psi_modes

    f0, f1, grid, _w_modes, _strata = _weaknull_parts()
    r = grid.r[1:]
    v = np.random.default_rng(5).standard_normal((1, r.size))
    v[0, ::5] = -0.0
    schedule = StepSchedule((24.0, 9.7, 2.0), dt_cap=0.125)
    dt_psi = _dt_psi_modes(f0, f1, 0.02, [(2, 0), (0, 0)])
    with_psi_e = 0
    for t in schedule.stage_times:
        block, single = dt_psi(v, t, r, schedule), dt_psi(v, t, r, None)
        assert np.array_equal(block.view(np.int64), single.view(np.int64)), t
        with_psi_e += bool(np.any(block[1]))
    assert with_psi_e == len(schedule.stage_times)
