import numpy as np
import pytest

from backwave.cutoffs import Cutoff, chi_exterior, chi_wave_zone, smooth_step


def test_wave_zone_sandwich():
    # value in [0,1], nonincreasing, pinned plateaus, on a dense sample
    s = np.linspace(-0.5, 1.0, 4001)
    c = chi_wave_zone.value(s)
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert np.all(np.diff(c) <= 1e-15)
    assert np.all(c[s <= 0.125] == 1.0)
    assert np.all(c[s >= 0.25] == 0.0)


def test_wave_zone_midpoint_symmetry():
    assert chi_wave_zone.value(3.0 / 16.0) == pytest.approx(0.5, abs=1e-15)


def test_exterior_instance():
    s = np.linspace(0.0, 3.0, 2001)
    c = chi_exterior.value(s)
    assert np.all(np.diff(c) >= -1e-15)
    assert np.all(c[s <= 1.0] == 0.0)
    assert np.all(c[s >= 2.0] == 1.0)
    assert chi_exterior.value(5.0) == 1.0
    assert chi_exterior.value(0.5) == 0.0


@pytest.mark.parametrize("s0", [0.13, 0.15, 0.1875, 0.21, 0.24])
def test_derivatives_match_finite_differences(s0):
    h = 1e-6
    fd1 = (chi_wave_zone.value(s0 + h) - chi_wave_zone.value(s0 - h)) / (2 * h)
    assert chi_wave_zone.derivative(s0) == pytest.approx(fd1, rel=1e-5, abs=1e-8)
    h2 = 1e-4   # larger step: the second difference amplifies roundoff by h^-2
    fd2 = (chi_wave_zone.value(s0 + h2) - 2 * chi_wave_zone.value(s0)
           + chi_wave_zone.value(s0 - h2)) / h2**2
    assert chi_wave_zone.terms(s0)[2][0] == pytest.approx(fd2, rel=1e-3, abs=1e-2)


def test_derivatives_vanish_on_plateaus():
    for s0 in (0.0, 0.125, 0.25, 0.4, -1.0):
        assert chi_wave_zone.derivative(s0) == 0.0
        assert chi_wave_zone.terms(s0)[2][0] == 0.0


def test_smooth_step_endpoints_flat():
    # C-infinity flatness: all computed derivatives -> 0 at the endpoints
    for x in (1e-4, 1.0 - 1e-4):
        assert abs(smooth_step(x, order=1)) < 1e-3 or x > 0.5
    assert smooth_step(0.0) == 0.0 and smooth_step(1.0) == 1.0
    with pytest.raises(ValueError):
        smooth_step(0.5, order=2)            # Cutoff.terms gives the second derivative
    assert smooth_step(0.5) == pytest.approx(0.5, abs=1e-15)


def test_bad_cutoff_rejected():
    with pytest.raises(ValueError):
        Cutoff(lower=1.0, upper=1.0)
    with pytest.raises(ValueError):
        Cutoff(lower=0.0, upper=1.0, orientation="sideways")


@pytest.mark.parametrize("cut", [chi_wave_zone, chi_exterior], ids=["wave_zone", "exterior"])
def test_one_pass_terms_equal_value_and_derivatives(cut):
    # both plateaus, both edges (with their neighbouring floats) and the
    # transition; equality of the bytes also pins the sign of each zero
    edges = [cut.lower, cut.upper]
    near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    w = cut.upper - cut.lower
    s = np.concatenate([np.linspace(cut.lower - w, cut.upper + w, 3001), edges, near])
    c, c1, c2 = cut.terms(s)
    assert c.tobytes() == cut.value(s).tobytes()
    assert c1.tobytes() == cut.derivative(s).tobytes()
    assert np.count_nonzero(c2) > 900     # ~1000 points lie in the transition
