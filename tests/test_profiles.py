import math

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.special import erf

from backwave.profiles import AntiderivativeProfile, ProfileError, SampledProfile, make_profile


def test_gaussian_peak_and_symmetry():
    g = make_profile({"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": 0.0})
    assert float(g.value(0.0)) == 1.0
    assert float(g.derivative(0.0)) == 0.0   # even symmetry


def test_poly_tail_value_matches_formula():
    # frozen from the direct formula A (1+q^2)^(-p/2) at q=2, p=1.2
    pt = make_profile({"kind": "poly-tail", "amplitude": 1.0, "p": 1.2})
    assert float(pt.value(2.0)) == pytest.approx(5.0 ** (-0.6), abs=1e-14)


@pytest.mark.parametrize("spec", [
    {"kind": "gaussian", "amplitude": 2.0, "width": 1.5, "center": 0.3},
    {"kind": "poly-tail", "amplitude": 0.7, "p": 1.4, "center": -0.2},
    {"kind": "poly-tail", "amplitude": 1.1, "p": 0.9, "scale": 0.5},
    {"kind": "compact-bump", "amplitude": 1.3, "width": 2.0, "center": 0.1},
])
def test_exact_derivatives_vs_finite_differences(spec):
    prof = make_profile(spec)
    h = 1e-5
    for q0 in (-1.2, 0.05, 0.4, 1.7):
        fd = (float(prof.value(q0 + h)) - float(prof.value(q0 - h))) / (2 * h)
        an = float(prof.derivative(q0))
        assert an == pytest.approx(fd, rel=2e-5, abs=2e-5)


def test_compact_bump_support():
    b = make_profile({"kind": "compact-bump", "amplitude": 1.0, "width": 2.0, "center": 0.5})
    q = np.linspace(-5, 6, 1001)
    vals = b.value(q)
    assert np.all(vals[np.abs(q - 0.5) >= 2.0] == 0.0)
    assert float(b.value(0.5)) == pytest.approx(1.0, abs=1e-15)
    # the derivative stays finite and supported as well
    d1 = b.derivative(q)
    assert np.all(np.isfinite(d1))
    assert np.all(d1[np.abs(q - 0.5) >= 2.0] == 0.0)


def test_sampled_zero_outside_table():
    qs = np.linspace(-2, 2, 41)
    sp = SampledProfile(qs, np.cos(qs))
    assert float(sp.value(5.0)) == 0.0
    assert float(sp.value(-3.0)) == 0.0
    assert float(sp.value(0.0)) == pytest.approx(1.0, abs=1e-3)


def test_sampled_matches_scipy_not_a_knot_spline():
    # the weak-null strata's table size and range, on a poly-tail; the
    # not-a-knot ends make the two splines agree up to the table's ends
    qs = np.linspace(-106.0, 38.6, 8192)
    vals = make_profile({"kind": "poly-tail", "amplitude": 2.0, "p": 0.85}).value(qs)
    sp, oracle = SampledProfile(qs, vals), CubicSpline(qs, vals, extrapolate=False)
    q = np.concatenate([qs, np.random.default_rng(0).uniform(-107.0, 39.6, 20000)])
    assert np.max(np.abs(sp.value(q) - np.nan_to_num(oracle(q)))) < 1e-13 * np.max(vals)
    assert np.max(np.abs(sp.derivative(q) - np.nan_to_num(oracle(q, 1)))) < 1e-11


def test_sampled_rejects_a_nonuniform_grid():
    qs = np.linspace(-2.0, 2.0, 41)
    qs[20] += 1e-3
    with pytest.raises(ProfileError):
        SampledProfile(qs, np.cos(qs))
    with pytest.raises(ProfileError):
        SampledProfile(np.linspace(2.0, -2.0, 41), np.cos(qs))


def test_antiderivative_matches_erf_oracle():
    # int_0^q e^(-x^2) dx = (sqrt(pi)/2) erf(q); adaptive-quadrature oracle
    g = make_profile({"kind": "gaussian"})
    anti = AntiderivativeProfile(g, 1.0, q_max=64.0)
    for q0 in (-4.0, -1.0, 0.0, 0.3, 2.0, 30.0, 60.0):
        want = math.sqrt(math.pi) / 2.0 * erf(q0)
        assert float(anti.value(q0)) == pytest.approx(want, abs=1e-10)
    # the derivative is the base profile, exactly
    assert float(anti.derivative(0.7)) == float(g.value(0.7))
    assert float(anti.derivative(-2.5)) == float(g.value(-2.5))


def test_antiderivative_is_defined_on_its_table_only():
    anti = AntiderivativeProfile(make_profile({"kind": "gaussian"}), 1.0, q_max=32.0)
    assert float(anti.value(32.0)) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)
    for q0 in (33.0, -33.0, np.array([0.0, 33.0])):
        with pytest.raises(ProfileError):
            anti.value(q0)


def test_antiderivative_quadrature_oracle_poly_tail():
    pt = make_profile({"kind": "poly-tail", "amplitude": 1.0, "p": 0.9})
    anti = AntiderivativeProfile(pt, -1.0, q_max=64.0)
    for q0 in (-8.0, 3.5, 20.0):
        want, _ = integrate.quad(lambda x: float(pt.value(x)), 0.0, q0, limit=200)
        assert float(anti.value(q0)) == pytest.approx(-want, rel=1e-9, abs=1e-10)


def test_make_profile_errors():
    with pytest.raises(ProfileError):
        make_profile({"kind": "mystery"})
    with pytest.raises(ProfileError):
        make_profile({"kind": "gaussian", "width": -1.0})
    with pytest.raises(ProfileError):
        make_profile({"kind": "gaussian", "sigma": 2.0})
