import math

import numpy as np
import pytest

from backwave.engine import (ConeSpec, ContainmentError, FieldState,
                             RadialGrid, cone_foot, convergence_order, discrete_box_field,
                             discrete_box_triplet, solve_backward, solve_backward_system,
                             stable_dt)


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
    traj = solve_backward(st, None, 5.0, 1.0, [1.0, 3.0])
    for rec in traj.field_states():
        assert np.all(rec.u == 0.0) and np.all(rec.v == 0.0)


def test_dalembert_backward_convergence():
    errs = []
    for h in (0.1, 0.05, 0.025):
        grid = RadialGrid(h=h, J=int(round(18.0 / h)))
        traj = solve_backward(make_state(6.0, grid), None, 6.0, 1.0, [1.0])
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
    assert np.all(discrete_box_triplet(z, z, z, 0.05, grid, 3) == 0.0)


def test_time_reversal_round_trip():
    h = 0.05
    grid = RadialGrid(h=h, J=int(round(18.0 / h)))
    st = make_state(6.0, grid)
    down = solve_backward(st, None, 6.0, 1.0, [1.0])
    end = down.field_states()[-1]
    reflected = FieldState(6.0, grid, [(0, 0)], end.u, -end.v)
    up = solve_backward(reflected, None, 6.0, 1.0, [1.0])
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
        traj = solve_backward(st, fn, 5.0, 1.0, [1.0])
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
    traj = solve_backward(st, None, 4.0, 1.0, [1.0])
    end = traj.field_states()[-1]
    span = 3.0  # elapsed time; numerical precursors decay fast past the front
    beyond = grid.r > 6.0 + span + 1.0
    assert float(np.max(np.abs(end.u[0][beyond]))) < 1e-9


def test_containment_breach_aborts():
    h = 0.1
    grid = RadialGrid(h=h, J=80)   # r_max = 8, too small for the pulse
    st = make_state(6.0, grid)
    with pytest.raises(ContainmentError):
        solve_backward(st, None, 6.0, 1.0, [1.0])


def test_cfl_and_stability_caps():
    assert stable_dt(0.1, 0) == pytest.approx(0.05)
    assert stable_dt(0.1, 8) < 0.05   # angular potential tightens the cap


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
        lam, (vals,) = cone_foot(foot, h, rows)
        assert 0.0 <= lam < 1.0
        assert np.allclose(vals, [2.0 * foot + 1.0, -foot], rtol=1e-14, atol=1e-14)


def test_record_times_exact_and_ordered():
    grid = RadialGrid(h=0.1, J=100)
    st = FieldState(5.0, grid, [(0, 0)])
    traj = solve_backward(st, None, 5.0, 1.0, [4.3, 2.7, 1.9])
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
    cones = [ConeSpec(s=1.0, R=10.0, t2=6.0)]
    traj = solve_backward(make_state(6.0, grid), None, 6.0, 1.0, [1.0],
                          cone_specs=cones)
    assert traj.cone_history["s1_R10"][-1] >= 0.0
    assert len(traj.cone_history["s1_R10"]) == len(traj.record_times)


def test_origin_series_characteristic_oracle():
    # l=0 free field: phi(t, 0) = [g(t-r) - g(t+r)]/r -> -2 g'(t)
    h = 0.025
    grid = RadialGrid(h=h, J=int(round(18.0 / h)))
    traj = solve_backward(make_state(6.0, grid), None, 6.0, 1.0, [1.0],
                          track_origin=True)
    ts, vals = traj.origin_series["phi"]
    # characteristic oracle: lim_{r->0} [g(t-r) - g(t+r)]/r = -2 g'(t);
    # the tracked value is the physical field (coefficient times Y00 = 1/sqrt(4pi))
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
    traj = solve_backward_system(fields, src, 6.0, 2.0, [2.0])
    for errname in ("a", "b"):
        assert np.all(np.isfinite(traj.states[errname][-1].u))
    # "a" remains the exact free wave
    end = traj.states["a"][-1]
    assert float(np.max(np.abs(end.u[0] - exact_u(2.0, grid.r)))) < 50 * h**2
