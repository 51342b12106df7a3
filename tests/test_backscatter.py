import math

import numpy as np
import pytest
from scipy import integrate

from backwave.backscatter import (BackscatterError, KernelQuadratureSpec,
                                  SourceProfile, brute_force_phi_k, envelope_sweep,
                                  n_norm, phi2_asymptotic, phi_k,
                                  source_residual_check)
from backwave.profiles import make_profile

OMEGA = np.array([0.0, 0.0, 1.0])
GAUSS = make_profile({"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": 0.0})
BUMP = make_profile({"kind": "compact-bump", "amplitude": 0.5, "width": 2.0, "center": 0.5})


def monopole(amplitude=1.0):
    return SourceProfile({(0, 0): make_profile({"kind": "gaussian", "amplitude": amplitude})},
                         a=0.0)


def axisym():
    return SourceProfile({(0, 0): GAUSS, (2, 0): BUMP}, a=0.0)


def test_zero_source():
    n = SourceProfile({}, a=0.0)
    assert phi_k(n, 2, 10.0, 8.0, OMEGA) == 0.0
    assert n_norm(n, 0, 0.0) == 0.0
    assert phi2_asymptotic(n, 10.0, 8.0, OMEGA) == 0.0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kernel_vs_brute_force_oracle(k):
    n = axisym()
    v = phi_k(n, k, 40.0, 30.0, OMEGA)
    bf = brute_force_phi_k(n, k, 40.0, 30.0, OMEGA, n_q=500, n_theta=260, n_phi=96)
    assert v == pytest.approx(bf, rel=1e-6)


def test_monopole_source_isotropic():
    n = monopole()
    dirs = [np.array(w, dtype=float) / np.linalg.norm(w)
            for w in ([0, 0, 1], [1, 1, 1], [1, 0, 0], [0, -1, 0.5])]
    vals = [phi_k(n, 2, 40.0, 30.0, d) for d in dirs]
    assert max(vals) - min(vals) < 1e-10
    assert vals[0] > 0.0


def test_linearity():
    n1 = monopole(1.0)
    n2 = monopole(2.0)
    a = phi_k(n1, 2, 40.0, 30.0, OMEGA)
    b = phi_k(n2, 2, 40.0, 30.0, OMEGA)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_positivity():
    # nonnegative source, positive kernels: Phi >= 0 wherever defined
    n = monopole()
    for (t, r) in ((20.0, 15.0), (40.0, 30.0), (60.0, 58.0)):
        for k in (2, 3, 4):
            assert phi_k(n, k, t, r, OMEGA) >= 0.0


def test_r_zero_rejected():
    with pytest.raises(BackscatterError):
        phi_k(monopole(), 2, 10.0, 0.0, OMEGA)
    with pytest.raises(BackscatterError):
        phi_k(monopole(), 5, 10.0, 5.0, OMEGA)


def test_n_norm_quadrature_oracle():
    # l=0 gaussian, N=0, a=0: reduces to int |n(q)| dq with mean-normalized
    # synthesis (the l=0 basis function is 1)
    got = n_norm(monopole(), 0, 0.0)
    want, _ = integrate.quad(lambda q: math.exp(-q * q), -12, 12)
    assert got == pytest.approx(want, rel=1e-10)


def test_n_norm_monotone_in_a():
    n = SourceProfile({(0, 0): make_profile({"kind": "compact-bump", "amplitude": 1.0,
                                             "width": 1.0, "center": 2.0})}, a=0.0)
    assert n_norm(n, 0, 1.0) >= n_norm(n, 0, 0.0)


def test_phi2_asymptotic_direct_formula():
    # at t = r the leading term is (1/2r) ln<t+r> int_0^inf n dq
    n = monopole()
    r = 30.0
    got = phi2_asymptotic(n, r, r, OMEGA)
    integral, _ = integrate.quad(lambda q: math.exp(-q * q), 0.0, 12.0)
    want = integral / math.sqrt(4 * math.pi) * math.log(math.sqrt(1 + 4 * r * r)) / (2 * r)
    assert got == pytest.approx(want, rel=1e-8)
    with pytest.raises(BackscatterError):
        phi2_asymptotic(n, 30.0, 10.0, OMEGA)   # outside r >= t/2


def test_phi2_asymptotic_remainder_bounded():
    # |phi2 - leading| <t+r> <q+>^a bounded along the cone sweep
    n = monopole()
    rem = []
    for r in (20.0, 40.0, 80.0, 160.0):
        t = r + 5.0
        full = phi_k(n, 2, t, r, OMEGA)
        lead = phi2_asymptotic(n, t, r, OMEGA)
        rem.append(abs(full - lead) * math.sqrt(1 + (t + r) ** 2))
    assert max(rem) < 5.0 * n_norm(n, 0, 0.0), rem
    assert max(rem) / min(rem) < 3.0, rem   # single constant along the sweep


@pytest.mark.parametrize("k", [2, 3, 4])
def test_source_residual(k):
    out = source_residual_check(monopole(), k, [(12.0, 11.0), (16.0, 15.0)], h=0.05)
    assert out["max_rel_residual"] <= 1e-2, out
    assert not out["inconclusive"]


def test_source_residual_improves_under_refinement():
    res = [source_residual_check(monopole(), 2, [(12.0, 11.0)], h=h)["max_rel_residual"]
           for h in (0.1, 0.05)]
    assert res[1] < res[0] / 2.5


def test_source_residual_zero_source():
    out = source_residual_check(SourceProfile({}, a=0.0), 2, [(12.0, 11.0)], h=0.1)
    assert out["max_rel_residual"] == 0.0


def test_envelope_sweep_k34():
    n = monopole()
    sweep = [(r + 5.0, r) for r in (20.0, 40.0, 80.0)]
    for k in (3, 4):
        out = envelope_sweep(n, k, sweep, OMEGA, 0.0)
        env = out["envelope"]
        assert np.all(env > 0.0)
        assert float(np.max(env)) < 10.0 * n_norm(n, 0, 0.0)
        assert float(np.max(env)) / float(np.min(env)) < 5.0


def test_quadrature_spec_validation():
    with pytest.raises(BackscatterError):
        KernelQuadratureSpec(q_tol=-1e-9)
    with pytest.raises(BackscatterError):
        KernelQuadratureSpec(q_tol=0.0)
    with pytest.raises(BackscatterError):
        SourceProfile({(0, 0): GAUSS}, a=-1.0)
