import math

import numpy as np
import pytest
from scipy import integrate

from backwave.engine import FieldState, RadialGrid, solve_backward
from backwave.functionals import (FunctionalError, WeightSpec, bulk_sign_check,
                                  conformal_energy_ER, conformal_norm_plus,
                                  energy_weighted, fit_decay, hardy_checks,
                                  ks_pointwise_check, morawetz_identity_audit,
                                  norm_Z_weighted, origin_decay_check,
                                  sup_envelope, weight_eval)


def g(x):
    return np.exp(-(x - 10.0) ** 2)


def exact_u(t, r):
    return g(t - r) - g(t + r)


def exact_v(t, r):
    return -2 * (t - r - 10.0) * g(t - r) + 2 * (t + r - 10.0) * g(t + r)


def wave_state(t=6.0, h=0.01, r_max=24.0):
    grid = RadialGrid(h=h, J=int(round(r_max / h)))
    return FieldState(t, grid, [(0, 0)], exact_u(t, grid.r)[None, :],
                      exact_v(t, grid.r)[None, :])


def scaled_state(st, c):
    return FieldState(st.t, st.grid, st.modes, c * st.u, c * st.v)


def zero_state(h=0.1, J=64, modes=((0, 0),)):
    return FieldState(2.0, RadialGrid(h=h, J=J), list(modes))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_w0_values():
    spec = WeightSpec(kind="w0", mu=0.25)
    assert float(weight_eval(spec, 0.0 + 1e-15)) == pytest.approx(2.0, abs=1e-12)
    assert float(weight_eval(spec, 1e9)) == pytest.approx(1.0, abs=1e-4)
    q = np.linspace(-50, 50, 2001)
    w = weight_eval(spec, q)
    assert np.all((w >= 1.0) & (w <= 3.0))


def test_weight_validation():
    with pytest.raises(FunctionalError):
        WeightSpec(kind="w0", mu=-0.1)
    with pytest.raises(FunctionalError):
        WeightSpec(kind="mystery")


# ---------------------------------------------------------------------------
# energies and norms
# ---------------------------------------------------------------------------

def test_energy_zero_field():
    assert energy_weighted(zero_state()) == 0.0


def test_energy_matches_quadrature_oracle():
    # closed-form integrand of the l=0 traveling wave, adaptive quadrature
    st = wave_state(h=0.005)
    got = energy_weighted(st)

    def dens(r):
        t = st.t
        ut = exact_v(t, np.asarray([r]))[0]
        eps = 1e-6
        ur = (exact_u(t, np.asarray([r + eps]))[0] - exact_u(t, np.asarray([r - eps]))[0]) / (2 * eps)
        u = exact_u(t, np.asarray([r]))[0]
        return ut**2 + (ur - u / r) ** 2

    want, _ = integrate.quad(dens, 1e-9, 24.0, limit=400)
    assert got == pytest.approx(want, rel=1e-4)   # trapezoid at O(h^2), h=0.005


def test_energy_monotone_in_weight():
    st = wave_state(h=0.02)
    small = energy_weighted(st, WeightSpec())
    big = energy_weighted(st, WeightSpec(kind="w0", mu=0.2))   # w0 >= 1
    assert big >= small


def test_conformal_norm_zero_and_scaling():
    assert conformal_norm_plus(zero_state(), 1.2) == 0.0
    st = wave_state(h=0.02)
    a = conformal_norm_plus(st, 1.2)
    b = conformal_norm_plus(scaled_state(st, 3.0), 1.2)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


@pytest.mark.parametrize("c", [2.0, 10.0])
def test_all_norms_degree_one_homogeneous(c):
    st = wave_state(h=0.02)
    scaled = scaled_state(st, c)
    assert conformal_norm_plus(scaled, 1.2) == pytest.approx(
        c * conformal_norm_plus(st, 1.2), rel=1e-12)
    assert norm_Z_weighted(scaled, 1.2) == pytest.approx(
        c * norm_Z_weighted(st, 1.2), rel=1e-12)
    assert math.sqrt(energy_weighted(scaled)) == pytest.approx(
        c * math.sqrt(energy_weighted(st)), rel=1e-12)
    assert sup_envelope(scaled, 1.2) == pytest.approx(
        c * sup_envelope(st, 1.2), rel=1e-12)


def test_conformal_norm_quadrature_oracle():
    # per-mode closed-form integrand vs adaptive quadrature, 1e-6 relative
    st = wave_state(h=0.002)
    s = 1.2
    got = conformal_norm_plus(st, s)

    def dens(r):
        t = st.t
        eps = 1e-6
        u = exact_u(t, np.asarray([r]))[0]
        v = exact_v(t, np.asarray([r]))[0]
        ur = (exact_u(t, np.asarray([r + eps]))[0] - exact_u(t, np.asarray([r - eps]))[0]) / (2 * eps)
        fp = (1 + (t + r) ** 2) ** s
        fm = (1 + (t - r) ** 2) ** s
        return (fp * (v + ur) ** 2
                + fm * ((v - ur) ** 2 + (u / r) ** 2 + u**2 / (1 + (t - r) ** 2)))

    want, _ = integrate.quad(dens, 1e-9, 24.0, limit=400, epsabs=1e-12, epsrel=1e-9)
    assert got == pytest.approx(math.sqrt(want), rel=1e-6)


def test_conformal_energy_monotone_in_radius():
    st = wave_state(h=0.02)
    values = [conformal_energy_ER(st, 1.0, R) for R in (5.0, 10.0, 15.0, 20.0)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert conformal_energy_ER(zero_state(), 1.0, 5.0) == 0.0
    with pytest.raises(FunctionalError):
        conformal_energy_ER(st, 1.0, 500.0)


# ---------------------------------------------------------------------------
# multiplier identity
# ---------------------------------------------------------------------------

def run_identity(h, s, source=None, modes=((0, 0),)):
    T, t1 = 6.0, 2.0
    grid = RadialGrid(h=h, J=int(round(20.0 / h)))
    if source is None:
        st = FieldState(T, grid, list(modes), exact_u(T, grid.r)[None, :],
                        exact_v(T, grid.r)[None, :])
    else:
        st = FieldState(T, grid, list(modes))
    traj = solve_backward(st, source, T, t1, [t1], record_every_step=True)
    return morawetz_identity_audit(traj, s=s, R=12.0, source=source)


def test_identity_zero_field_guarded():
    grid = RadialGrid(h=0.1, J=200)
    st = FieldState(6.0, grid, [(0, 0)])
    traj = solve_backward(st, None, 6.0, 2.0, [2.0], record_every_step=True)
    out = morawetz_identity_audit(traj, s=1.0, R=12.0)
    assert out["residual"] == 0.0


@pytest.mark.parametrize("s", [1.0, 1.2])
def test_identity_refinement_free_wave(s):
    res = [abs(run_identity(h, s)["residual"]) for h in (0.1, 0.05, 0.025)]
    order = math.log2(res[0] / res[1]) * 0.5 + math.log2(res[1] / res[2]) * 0.5
    assert order > 1.9, (res, order)


def test_identity_refinement_sourced():
    def src(t, view):
        return (np.exp(-((view.grid.r - 4.0) ** 2) - (t - 4.0) ** 2))[None, :]

    res = [abs(run_identity(h, 1.2, source=src, modes=((1, 0),))["residual"])
           for h in (0.1, 0.05)]
    assert res[1] < res[0] / 3.0, res


# ---------------------------------------------------------------------------
# bulk sign
# ---------------------------------------------------------------------------

def test_bulk_sign_standard_grid():
    ts = np.linspace(0, 100, 200)
    rs = np.linspace(0, 100, 200)
    for a in (2.0, 2.5, 3.0, 4.0):
        assert bulk_sign_check(a, ts, rs) <= 1e-12


def test_bulk_sign_origin_limit():
    assert bulk_sign_check(3.0, [7.0], [0.0]) == 0.0


def test_bulk_sign_closed_forms():
    # computer-algebra oracle values of the deformation expression for a=3,
    # f=(1+v^2)^(3/2):   (f(t+r)-f(t-r))/r - f'(t+r) - f'(t-r)
    # (1,1): 5^(3/2)-1 - 6 sqrt(5)              = -(1+sqrt(5))
    # (2,1): (10^(3/2)-2^(3/2))/1 - 9 sqrt(10) - 3 sqrt(2) = 10^1.5-2^1.5-9*10^.5-3*2^.5
    cases = {
        (1.0, 1.0): -(1.0 + math.sqrt(5.0)),
        (2.0, 1.0): 10**1.5 - 2**1.5 - 9 * math.sqrt(10) - 3 * math.sqrt(2),
        (0.5, 2.0): ((1 + 6.25) ** 1.5 - (1 + 2.25) ** 1.5) / 2.0
                    - 3 * 2.5 * math.sqrt(7.25) + 3 * 1.5 * math.sqrt(3.25),
    }
    for (t, r), want in cases.items():
        got = bulk_sign_check(3.0, [t], [r])
        assert got == pytest.approx(want, rel=1e-12), (t, r)
        assert got <= 0.0


def test_bulk_sign_below_two_flagged():
    with pytest.warns(UserWarning):
        bulk_sign_check(1.5, [1.0], [1.0])


# ---------------------------------------------------------------------------
# Hardy and pointwise checks
# ---------------------------------------------------------------------------

def test_hardy_zero_field():
    out = hardy_checks(zero_state(), 1.2)
    assert out["ratio_zeroth"] == 0.0 and out["ratio_radial"] == 0.0


def test_hardy_scaling_invariance():
    st = wave_state(h=0.02)
    a = hardy_checks(st, 1.2)
    b = hardy_checks(scaled_state(st, 5.0), 1.2)
    assert a["ratio_zeroth"] == pytest.approx(b["ratio_zeroth"], rel=1e-12)
    assert a["ratio_radial"] == pytest.approx(b["ratio_radial"], rel=1e-12)


def test_hardy_stable_under_refinement():
    vals = [hardy_checks(wave_state(h=h), 1.2)["ratio_zeroth"] for h in (0.04, 0.02)]
    assert max(vals) / min(vals) < 1.1
    assert max(vals) < 10.0


def test_ks_zero_and_scaling():
    out = ks_pointwise_check(zero_state(), 1.2)
    assert out["constant"] == 0.0
    st = wave_state(h=0.02)
    a = ks_pointwise_check(st, 1.2)["constant"]
    b = ks_pointwise_check(scaled_state(st, 7.0), 1.2)["constant"]
    assert a == pytest.approx(b, rel=1e-12)
    assert a < 10.0


def test_norm_Z_zero_and_surrogate_comparison():
    assert norm_Z_weighted(zero_state(), 1.2) == 0.0
    # numerical instance of the norm comparison: surrogate <= C * full norm
    for t in (4.0, 6.0, 8.0):
        st = wave_state(t=t, h=0.02)
        surro = norm_Z_weighted(st, 1.2)
        full = conformal_norm_plus(st, 1.2)
        assert surro <= 10.0 * full, (t, surro / full)


def test_norm_Z_dt_component_oracle():
    # the d_t component equals the finite-difference-in-t norm at O(eps^2)
    st = wave_state(h=0.01)
    _tot, parts = norm_Z_weighted(st, 1.2, return_parts=True)
    eps = 1e-5
    up = wave_state(t=st.t + eps, h=0.01)
    dn = wave_state(t=st.t - eps, h=0.01)
    fd_v = (up.u - dn.u) / (2 * eps)
    wgt = (1 + (st.t - st.grid.r) ** 2) ** (1.2 - 1.0)
    want = math.sqrt(float(np.sum(np.trapezoid(fd_v**2 * wgt[None, :], st.grid.r))))
    assert parts["dt"] == pytest.approx(want, rel=1e-7)


def test_sup_envelope_matches_manual_l0():
    st = wave_state(h=0.01)
    env = (1 + (st.t + st.grid.r) ** 2) ** 0.5 * (1 + (st.t - st.grid.r) ** 2) ** 0.35
    phi = np.zeros_like(st.grid.r)
    phi[1:] = st.u[0, 1:] / st.grid.r[1:] / math.sqrt(4 * math.pi)
    phi[0] = st.u[0, 1] / st.grid.h / math.sqrt(4 * math.pi)
    assert sup_envelope(st, 1.2) == pytest.approx(float(np.max(np.abs(phi) * env)), rel=1e-12)


def test_origin_decay_requires_accumulators():
    grid = RadialGrid(h=0.1, J=100)
    st = FieldState(5.0, grid, [(0, 0)])
    traj = solve_backward(st, None, 5.0, 1.0, [1.0], track_origin=False)
    with pytest.raises(FunctionalError):
        origin_decay_check(traj, 0.8)


def test_origin_decay_bounded_on_sourced_run():
    grid = RadialGrid(h=0.05, J=400)
    st = FieldState(6.0, grid, [(0, 0)])

    def src(t, view):
        return (np.exp(-((view.grid.r - 3.0) ** 2) - (t - 4.0) ** 2))[None, :]

    traj = solve_backward(st, src, 6.0, 2.0, list(np.linspace(2.0, 6.0, 9)),
                          track_origin=True)
    out = origin_decay_check(traj, 0.8)
    good = out["cone_bound"] > 1e-12
    assert np.all(out["ratio"][good] < 10.0)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    t = np.geomspace(2, 100, 20)
    fit = fit_decay(t, 3.0 * t ** (-1.7))
    assert fit.exponent == pytest.approx(-1.7, abs=1e-12)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_series():
    t = np.geomspace(1, 50, 10)
    fit = fit_decay(t, np.full(10, 2.5))
    assert fit.exponent == pytest.approx(0.0, abs=1e-13)


def test_fit_noisy_synthetic():
    t = np.geomspace(5, 500, 60)
    y = t ** (-1.3) * (1.0 + 0.01 * np.sin(t))
    fit = fit_decay(t, y)
    assert fit.exponent == pytest.approx(-1.3, abs=0.02)


def test_fit_input_validation():
    with pytest.raises(FunctionalError):
        fit_decay([1, 2, 3], [1, 1, 1])
    with pytest.raises(FunctionalError):
        fit_decay([1, 2, 3, 4, 5], [1, 1, -1, 1, 1])
