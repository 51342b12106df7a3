import math

import numpy as np
import pytest

from backwave.engine import (ContainmentError, EngineError, FieldState, RadialGrid,
                             convergence_order, discrete_box_field, solve_backward,
                             solve_backward_system, stable_dt)
from backwave.functionals import ConeFlux, StepStates, _cone_foot, origin_decay_check


def g(x, c=10.0):
    return np.exp(-(x - c) ** 2)


def exact_u(t, r):
    return g(t - r) - g(t + r)


def exact_v(t, r):
    return -2 * (t - r - 10.0) * g(t - r) + 2 * (t + r - 10.0) * g(t + r)


def make_state(T, grid):
    return FieldState(T, grid, [(0, 0)], exact_u(T, grid.r)[None, :],
                      exact_v(T, grid.r)[None, :])


def test_zero_data_zero_source_stays_zero():
    grid = RadialGrid(h=0.1, J=100)
    st = FieldState(5.0, grid, [(0, 0), (2, 0)])
    traj = solve_backward(st, None, 5.0, 1.0, [1.0, 3.0], cfl=0.5)
    for rec in traj.field_states():
        assert np.all(rec.u == 0.0) and np.all(rec.v == 0.0)


def test_dalembert_backward_convergence():
    errs = []
    for h in (0.1, 0.05, 0.025):
        grid = RadialGrid(h=h, J=int(round(18.0 / h)))
        traj = solve_backward(make_state(6.0, grid), None, 6.0, 1.0, [1.0], cfl=0.5)
        end = traj.field_states()[-1]
        errs.append(float(np.max(np.abs(end.u[0] - exact_u(1.0, grid.r)))))
    assert abs(convergence_order(errs) - 2.0) <= 0.1, errs


def test_discrete_box_of_traveling_wave():
    errs = []
    for h in (0.1, 0.05, 0.025):
        grid = RadialGrid(h=h, J=int(round(24.0 / h)))
        # u = r * (g(t-r)/r) = g(t-r), pulse centered at r = 5 at t = 5
        res = discrete_box_field(lambda t: np.exp(-(t - grid.r) ** 2), 5.0,
                                 h / 2.0, grid, 0)
        errs.append(float(np.max(np.abs(res))))
    order = convergence_order(errs)
    assert abs(order - 2.0) <= 0.1, (errs, order)


def test_discrete_box_zero_field():
    grid = RadialGrid(h=0.1, J=64)
    z = np.zeros(grid.J + 1)
    assert np.all(discrete_box_field(lambda t: z, 1.0, 0.05, grid, 3) == 0.0)


def test_time_reversal_round_trip():
    h = 0.05
    grid = RadialGrid(h=h, J=int(round(18.0 / h)))
    st = make_state(6.0, grid)
    down = solve_backward(st, None, 6.0, 1.0, [1.0], cfl=0.5)
    end = down.field_states()[-1]
    reflected = FieldState(6.0, grid, [(0, 0)], end.u, -end.v)
    up = solve_backward(reflected, None, 6.0, 1.0, [1.0], cfl=0.5)
    back = up.field_states()[-1]
    assert float(np.max(np.abs(back.u[0] - exact_u(6.0, grid.r)))) < 50 * h**2


def test_linearity_in_data_and_source():
    h = 0.05
    grid = RadialGrid(h=h, J=400)

    def src(t, view):
        return (np.exp(-((view.grid.r - 4.0) ** 2) - (t - 3.0) ** 2))[None, :]

    def run(data_scale, src_scale):
        st = make_state(5.0, grid)
        st.u *= data_scale
        st.v *= data_scale
        fn = (lambda t, v: src_scale * src(t, v)) if src_scale else None
        traj = solve_backward(st, fn, 5.0, 1.0, [1.0], cfl=0.5)
        return traj.field_states()[-1]

    a = run(1.0, 0.0)
    b = run(0.0, 1.0)
    c = run(2.0, 3.0)
    combo = 2.0 * a.u[0] + 3.0 * b.u[0]
    assert np.max(np.abs(c.u[0] - combo)) < 1e-11


def test_finite_speed_support_growth():
    h = 0.05
    grid = RadialGrid(h=h, J=400)
    u0 = np.where(np.abs(grid.r - 5.0) < 1.0, np.exp(-1.0 / np.maximum(1 - (grid.r - 5.0) ** 2, 1e-12)), 0.0)
    st = FieldState(4.0, grid, [(0, 0)], u0[None, :], np.zeros((1, grid.J + 1)))
    traj = solve_backward(st, None, 4.0, 1.0, [1.0], cfl=0.5)
    end = traj.field_states()[-1]
    span = 3.0  # elapsed time; numerical precursors decay fast past the front
    beyond = grid.r > 6.0 + span + 1.0
    assert float(np.max(np.abs(end.u[0][beyond]))) < 1e-9


def test_containment_breach_aborts():
    h = 0.1
    grid = RadialGrid(h=h, J=80)   # r_max = 8, too small for the pulse
    st = make_state(6.0, grid)
    with pytest.raises(ContainmentError):
        solve_backward(st, None, 6.0, 1.0, [1.0], cfl=0.5)


def test_cfl_and_stability_caps():
    assert stable_dt(0.1, 0, 0.5) == pytest.approx(0.05)
    assert stable_dt(0.1, 8, 0.5) < 0.05   # angular potential tightens the cap


def test_grid_containment_validator():
    # for_run sizes the grid past the support's reach 2T + (T - t0), plus a margin
    for h, T, t0 in ((0.1, 10.0, 2.0), (0.08, 28.0, 2.0), (0.25, 160.0, 2.0)):
        grid = RadialGrid.for_run(h, T, t0)
        assert grid.r_max >= 2.0 * T + (T - t0) + 10 * h


def test_cone_foot_interpolates_within_the_last_cell():
    h, J = 0.1, 40
    r = np.arange(J + 1) * h
    rows = np.stack([2.0 * r + 1.0, -r])          # per-mode profiles linear in r
    for foot in ((J - 0.5) * h, (J - 0.01) * h, 12.3 * h):
        _j, lam, (vals,) = _cone_foot(foot, h, rows)
        assert 0.0 <= lam < 1.0
        assert np.allclose(vals, [2.0 * foot + 1.0, -foot], rtol=1e-14, atol=1e-14)


def test_on_step_sees_T_then_every_step_in_march_order():
    # one call at t = T, one after every step, t strictly descending; the
    # views' arrays are not written after the call
    grid = RadialGrid(h=0.1, J=240)
    calls = []
    traj = solve_backward(make_state(5.0, grid), None, 5.0, 1.0, [4.3, 2.7], cfl=0.5,
                          on_step=lambda t, views: calls.append((t, views)))
    ts = [t for t, _views in calls]
    assert len(calls) == traj.steps + 1
    assert ts[0] == 5.0
    assert all(a > b for a, b in zip(ts, ts[1:]))
    assert ts[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(list(views) == ["phi"] and views["phi"].t == t for t, views in calls)
    records = traj.field_states()
    for st, (_t, views) in ((records[0], calls[0]), (records[-1], calls[-1])):
        assert np.array_equal(views["phi"].u, st.u) and np.array_equal(views["phi"].v, st.v)


def test_source_is_called_at_exactly_the_schedules_stage_times():
    # uneven segments, one shorter than dt_cap (4.3 -> 4.28), and segment ends
    # where the last step's t - dt is not the record time it snaps to
    grid = RadialGrid(h=0.1, J=100)
    seen = []

    def source(t, view):
        seen.append((t, view.schedule))
        return np.zeros((1, grid.J + 1))

    traj = solve_backward(FieldState(5.0, grid, [(0, 0)]), source, 5.0, 1.0,
                          [4.3, 4.28, 2.7, 1.9], cfl=0.5)
    sched = seen[0][1]
    assert all(s is sched for _t, s in seen)
    steps = list(sched.steps())
    assert len(steps) == traj.steps and len(seen) == 4 * traj.steps
    assert 4.3 - 4.28 < sched.dt_cap
    assert any(end is not None and t - dt != end for t, dt, end in steps)
    assert {t for t, _s in seen} == set(sched.stage_times)
    assert len(sched.stage_times) == len(set(sched.stage_times))


def test_record_times_exact_and_ordered():
    grid = RadialGrid(h=0.1, J=100)
    st = FieldState(5.0, grid, [(0, 0)])
    traj = solve_backward(st, None, 5.0, 1.0, [4.3, 2.7, 1.9], cfl=0.5)
    assert traj.record_times == sorted({5.0, 4.3, 2.7, 1.9, 1.0}, reverse=True)
    for t, rec in zip(traj.record_times, traj.field_states()):
        assert rec.t == t


def test_convergence_order_utilities():
    assert convergence_order([1.0, 0.25, 0.0625]) == pytest.approx(2.0)
    assert convergence_order([1.0, 0.5, 0.25]) == pytest.approx(1.0)
    with pytest.warns(UserWarning):
        convergence_order([1.0, 2.0])


def test_energy_flux_accumulator_nonnegative():
    h = 0.05
    grid = RadialGrid(h=h, J=int(round(18.0 / h)))
    cone = ConeFlux(s=1.0, R=10.0, t2=6.0)
    traj = solve_backward(make_state(6.0, grid), None, 6.0, 1.0, [1.0], cfl=0.5, on_step=cone)
    assert cone.name == "flux_s1_R10"
    totals = cone.totals_at(traj.record_times)
    assert len(totals) == len(traj.record_times)
    assert totals[0] == 0.0 and totals[-1] > 0.0


def test_origin_series_characteristic_oracle():
    # l=0 free field: phi(t, 0) = [g(t-r) - g(t+r)]/r -> -2 g'(t)
    h = 0.025
    grid = RadialGrid(h=h, J=int(round(18.0 / h)))
    steps = StepStates()
    traj = solve_backward(make_state(6.0, grid), None, 6.0, 1.0, [1.0], cfl=0.5, on_step=steps)
    out = origin_decay_check(steps, traj.record_times[::-1], 0.8, None)
    ts, vals = out["origin_t"], out["origin"]
    assert ts.size == traj.steps + 1
    # characteristic oracle: lim_{r->0} [g(t-r) - g(t+r)]/r = -2 g'(t);
    # the series is the physical field (coefficient times Y00 = 1/sqrt(4pi))
    want = 2.0 * 2.0 * (ts - 10.0) * g(ts) / math.sqrt(4 * math.pi) * -1.0
    err = np.max(np.abs(vals - want))
    assert err < 100 * h**2, err


def test_multi_field_coupling_sees_substage_values():
    # field "b" is driven by d_t of field "a"; co-evolution must agree with
    # the analytic solution of the chained system at second order
    h = 0.05
    grid = RadialGrid(h=h, J=int(round(18.0 / h)))

    def src(t, views):
        a = views["a"]
        out = np.zeros_like(a.v)
        out[:, 1:] = a.v[:, 1:] / grid.r[1:]
        return {"b": out}

    fields = {"a": make_state(6.0, grid), "b": FieldState(6.0, grid, [(0, 0)])}
    traj = solve_backward_system(fields, src, 6.0, 2.0, [2.0], cfl=0.5)
    for errname in ("a", "b"):
        assert np.all(np.isfinite(traj.states[errname][-1].u))
    # "a" remains the exact free wave
    end = traj.states["a"][-1]
    assert float(np.max(np.abs(end.u[0] - exact_u(2.0, grid.r)))) < 50 * h**2


def test_uncoupled_fields_march_in_their_rows_as_they_do_alone():
    # fields of 1 and 3 modes share one stacked march; the source drives "b"
    # only, so "a" gets zero source.  l <= 3 keeps dt at cfl * h, as alone
    h = 0.1
    grid = RadialGrid(h=h, J=180)
    b_modes = [(1, 0), (2, 0), (3, 0)]
    assert stable_dt(h, 3, 0.5) == stable_dt(h, 0, 0.5)
    b_u = np.array([(k + 1.0) * grid.r ** (l + 1) * np.exp(-(grid.r - 5.0) ** 2)
                    for k, (l, _m) in enumerate(b_modes)])

    def bump(t):
        return np.array([[(k + 1.0)] for k in range(3)]) * np.exp(
            -((grid.r - 4.0) ** 2) - (t - 4.0) ** 2)

    fields = {"a": make_state(6.0, grid), "b": FieldState(6.0, grid, b_modes, b_u)}
    records = [2.0, 3.3, 5.1]
    traj = solve_backward_system(fields, lambda t, views: {"b": bump(t)}, 6.0, 2.0, records,
                                 cfl=0.5)
    alone = {"a": solve_backward(fields["a"], None, 6.0, 2.0, records, cfl=0.5),
             "b": solve_backward(fields["b"], lambda t, view: bump(t), 6.0, 2.0, records,
                                 cfl=0.5)}
    for name, single in alone.items():
        assert single.steps == traj.steps
        for st, ref in zip(traj.states[name], single.field_states(), strict=True):
            assert st.t == ref.t and st.modes == ref.modes
            for got, want in ((st.u, ref.u), (st.v, ref.v)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, st.t)
    assert np.any(traj.states["b"][-1].u) and np.any(traj.states["a"][-1].u)


def test_containment_breach_in_the_second_field_names_it_at_its_own_step():
    # "a" stays clear of r_max; "b", the larger field, reaches it, and the
    # system aborts where "b" alone does
    grid = RadialGrid(h=0.1, J=120)
    a = FieldState(6.0, grid, [(0, 0)],
                   (0.1 * grid.r * np.exp(-4.0 * (grid.r - 3.0) ** 2))[None, :])
    b = make_state(6.0, grid)
    solve_backward(a, None, 6.0, 1.0, [1.0], cfl=0.5)
    with pytest.raises(ContainmentError) as alone:
        solve_backward(b, None, 6.0, 1.0, [1.0], cfl=0.5)
    with pytest.raises(ContainmentError, match="in field 'b'") as system:
        solve_backward_system({"a": a, "b": b}, None, 6.0, 1.0, [1.0], cfl=0.5)
    assert str(system.value) == str(alone.value).replace("'phi'", "'b'")


def _bits_equal(states, refs):
    """Same times and modes, and u and v equal bit for bit (int64 views)."""
    assert [st.t for st in states] == [ref.t for ref in refs]
    for st, ref in zip(states, refs):
        assert st.modes == ref.modes
        for got, want in ((st.u, ref.u), (st.v, ref.v)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), st.t


def test_a_field_entering_at_a_record_time_marches_as_its_own_solve():
    # "b" joins the march of "a" at the record time 4.2; from there down it
    # steps, is recorded and gets its source as its own solve from 4.2 does,
    # and above 4.2 the source does not see it
    grid = RadialGrid(h=0.1, J=180)
    b_modes = [(1, 0), (2, 0)]
    b_u = np.array([(k + 1.0) * grid.r ** (l + 1) * np.exp(-(grid.r - 5.0) ** 2)
                    for k, (l, _m) in enumerate(b_modes)])
    b = FieldState(4.2, grid, b_modes, b_u, -0.5 * b_u)
    a = make_state(6.0, grid)
    seen = []

    def bump(t, n_modes):
        return np.exp(-((grid.r - 4.0) ** 2) - (t - 4.0) ** 2) * np.ones((n_modes, 1))

    def source(t, views):
        seen.append((t, sorted(views)))
        return {n: bump(t, len(view.modes)) for n, view in views.items()}

    records = [2.0, 3.3, 4.2, 5.1]
    traj = solve_backward_system({"b": b, "a": a}, source, 6.0, 2.0, records, cfl=0.5)
    assert list(traj.states) == ["b", "a"]
    alone_a = solve_backward(a, lambda t, view: bump(t, 1), 6.0, 2.0, records, cfl=0.5)
    alone_b = solve_backward(b, lambda t, view: bump(t, 2), 4.2, 2.0, [2.0, 3.3], cfl=0.5)
    _bits_equal(traj.states["a"], alone_a.field_states())
    _bits_equal(traj.states["b"], alone_b.field_states())
    assert traj.steps == alone_a.steps > alone_b.steps
    assert all(names == ["a"] for t, names in seen if t > 4.2 + 1e-9)
    assert all(names == ["a", "b"] for t, names in seen if t < 4.2 - 1e-9)
    assert np.any(traj.states["b"][-1].u)


def test_a_data_time_that_is_neither_T_nor_a_record_time_raises():
    grid = RadialGrid(h=0.1, J=100)
    with pytest.raises(EngineError, match="neither T nor a record time"):
        solve_backward_system({"a": FieldState(5.0, grid, [(0, 0)]),
                               "b": FieldState(4.0, grid, [(0, 0)])},
                              None, 5.0, 1.0, [4.3, 2.7], cfl=0.5)
    with pytest.raises(EngineError, match="no field has its data at t = T"):
        solve_backward_system({"b": FieldState(4.3, grid, [(0, 0)])},
                              None, 5.0, 1.0, [4.3, 2.7], cfl=0.5)


def test_a_late_field_that_breaches_is_named_at_the_step_where_it_breaches_alone():
    # "b" joins at 4.5 and reaches r_max; "a", far larger, stays clear of it.
    # Each field's edge is read against its own scale, so a's does not mask b's
    grid = RadialGrid(h=0.1, J=120)
    a = FieldState(6.0, grid, [(0, 0)],
                   (1e3 * grid.r * np.exp(-4.0 * (grid.r - 3.0) ** 2))[None, :])
    b = make_state(4.5, grid)
    solve_backward(a, None, 6.0, 1.0, [1.0], cfl=0.5)
    with pytest.raises(ContainmentError) as alone:
        solve_backward(b, None, 4.5, 1.0, [1.0], cfl=0.5)
    with pytest.raises(ContainmentError, match="in field 'b'") as system:
        solve_backward_system({"a": a, "b": b}, None, 6.0, 1.0, [1.0, 4.5], cfl=0.5)
    assert str(system.value) == str(alone.value).replace("'phi'", "'b'")


def test_the_march_writes_nothing_it_has_handed_out():
    # stage views, step views and recorded states share the march's arrays;
    # each still equals the copy taken when it was handed out
    grid = RadialGrid(h=0.1, J=160)
    handed = []

    def src(t, view):
        assert isinstance(view, FieldState) and view.schedule is not None
        handed.append((view, view.u.copy(), view.v.copy()))
        return (np.exp(-((view.grid.r - 4.0) ** 2) - (t - 4.0) ** 2))[None, :]

    steps = StepStates()

    def on_step(t, views):
        steps(t, views)
        view = views["phi"]
        handed.append((view, view.u.copy(), view.v.copy()))

    traj = solve_backward(make_state(6.0, grid), src, 6.0, 2.0, [5.0, 3.5], cfl=0.5,
                          on_step=on_step)
    records = traj.field_states()
    assert len(steps) == traj.steps + 1 and len(records) == 4
    assert all(isinstance(st, FieldState) for st in [*steps, *records])
    for view, u, v in handed:
        assert np.array_equal(view.u, u) and np.array_equal(view.v, v)
    # each record is the step view of its step, with the record time
    for rec in records:
        [k] = [k for k, st in enumerate(steps) if abs(st.t - rec.t) < 1e-9]
        assert np.shares_memory(rec.u, steps[k].u) and np.shares_memory(rec.v, steps[k].v)


def test_data_with_nonzero_ends_is_left_alone_and_recorded_with_zero_ends():
    grid = RadialGrid(h=0.1, J=120)
    u = np.stack([exact_u(6.0, grid.r), 0.3 * grid.r**2 * np.exp(-(grid.r - 5.0) ** 2)])
    v = np.stack([exact_v(6.0, grid.r), np.zeros_like(grid.r)])
    u[:, 0], u[:, -1], v[:, 0], v[:, -1] = 1.0, -2.0, 3.0, -4.0
    data = FieldState(6.0, grid, [(0, 0), (1, 0)], u, v)
    assert np.shares_memory(data.u, u) and np.shares_memory(data.v, v)
    u0, v0 = u.copy(), v.copy()
    traj = solve_backward(data, None, 6.0, 5.0, [5.0], cfl=0.5)
    assert np.array_equal(u, u0) and np.array_equal(v, v0)
    at_T = traj.state_at(6.0, "phi")
    for arr, given in ((at_T.u, u), (at_T.v, v)):
        assert np.all(arr[:, [0, -1]] == 0.0)
        assert np.array_equal(arr[:, 1:-1], given[:, 1:-1])


def test_derived_arrays_are_their_formulas_with_the_origin_limits():
    # bit for bit (int64 views): centered d_r u, 0 at r_max; u/r; at r = 0
    # both u_r and u/r are u_1/h for l = 0, 0 for l > 0
    grid = RadialGrid(h=0.1, J=30)
    h, r = grid.h, grid.r
    rng = np.random.default_rng(7)
    u, v = rng.standard_normal((2, 3, grid.J + 1))
    st = FieldState(1.5, grid, [(0, 0), (1, -1), (2, 1)], u, v)
    ur = np.empty_like(u)
    ur[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * h)
    ur[:, -1] = 0.0
    u_over_r = np.empty_like(u)
    u_over_r[:, 1:] = u[:, 1:] / r[1:]
    for want in (ur, u_over_r):
        want[0, 0], want[1:, 0] = u[0, 1] / h, 0.0
    for got, want in ((st.ur, ur), (st.u_over_r, u_over_r)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(st.ll1, [0.0, 2.0, 6.0]) and np.array_equal(st.r, r)
