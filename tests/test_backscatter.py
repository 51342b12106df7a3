import math

import numpy as np
import pytest
from scipy import integrate

from backwave import backscatter
from backwave.angular import ylm_at
from backwave.backscatter import (FIVE_POINTS, BackscatterError, brute_force_phi_k,
                                  envelope_sweep, five_point_box, n_norm, phi2_asymptotic, phi_k,
                                  phi_k_modes, source_residual_check)
from backwave.cutoffs import chi_wave_zone
from backwave.engine import FieldState, RadialGrid
from backwave.functionals import sup_envelope
from backwave.profiles import make_profile, qbracket
from backwave.radiation import RadiationField

OMEGA = np.array([0.0, 0.0, 1.0])
KQ = 1e-9   # q-panel tolerance
GAUSS = make_profile({"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": 0.0})
BUMP = make_profile({"kind": "compact-bump", "amplitude": 0.5, "width": 2.0, "center": 0.5})


def monopole(amplitude=1.0):
    return RadiationField({(0, 0): make_profile({"kind": "gaussian", "amplitude": amplitude})})


def axisym():
    return RadiationField({(0, 0): GAUSS, (2, 0): BUMP})


def test_zero_source():
    n = RadiationField({})
    assert phi_k(n, 2, 10.0, 8.0, OMEGA, KQ) == 0.0
    assert n_norm(n, 0.0) == 0.0
    assert phi2_asymptotic(n, 10.0, 8.0, OMEGA) == 0.0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kernel_vs_brute_force_oracle(k):
    n = axisym()
    v = phi_k(n, k, 40.0, 30.0, OMEGA, KQ)
    bf = brute_force_phi_k(n, k, 40.0, 30.0, OMEGA, n_q=500, n_theta=260, n_phi=96)
    assert v == pytest.approx(bf, rel=1e-6)


def test_monopole_source_isotropic():
    n = monopole()
    dirs = [np.array(w, dtype=float) / np.linalg.norm(w)
            for w in ([0, 0, 1], [1, 1, 1], [1, 0, 0], [0, -1, 0.5])]
    vals = [phi_k(n, 2, 40.0, 30.0, d, KQ) for d in dirs]
    assert max(vals) - min(vals) < 1e-10
    assert vals[0] > 0.0


def test_linearity():
    n1 = monopole(1.0)
    n2 = monopole(2.0)
    a = phi_k(n1, 2, 40.0, 30.0, OMEGA, KQ)
    b = phi_k(n2, 2, 40.0, 30.0, OMEGA, KQ)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_positivity():
    # nonnegative source, positive kernels: Phi >= 0 wherever defined
    n = monopole()
    for (t, r) in ((20.0, 15.0), (40.0, 30.0), (60.0, 58.0)):
        for k in (2, 3, 4):
            assert phi_k(n, k, t, r, OMEGA, KQ) >= 0.0


def test_r_zero_rejected():
    with pytest.raises(BackscatterError):
        phi_k(monopole(), 2, 10.0, 0.0, OMEGA, KQ)
    with pytest.raises(BackscatterError):
        phi_k(monopole(), 5, 10.0, 5.0, OMEGA, KQ)
    # no q-node is live here (the source lies below r - t): k is still checked
    with pytest.raises(BackscatterError):
        phi_k_modes(monopole(), (5,), 10.0, 30.0, KQ)
    with pytest.raises(BackscatterError):
        phi_k_modes(monopole(), (2, 5), 40.0, 30.0, KQ)


def test_mu_integrals_batch_equals_single_nodes(monkeypatch):
    # dead nodes (alpha < 0, alpha = 0, empty cutoff window), many lam panel
    # counts, and more nodes of one count than fit in one array pass
    t, r = 165.0, 160.0
    qs = np.concatenate([[-6.0, r - t, 60.0], np.linspace(-4.9, 40.0, 1000)])
    passes = []
    legendre = backscatter._legendre_all

    def spy(l_max, mu):
        passes.append(mu.shape)
        return legendre(l_max, mu)

    monkeypatch.setattr(backscatter, "_legendre_all", spy)
    batch = backscatter._mu_integrals((2, 3, 4), qs, t, r, 4)
    assert batch.shape == (3, qs.size, 5)
    assert not batch[:, :3].any() and batch[:, 3:, 0].all()
    # one lam pass (one Legendre table) per chunk serves all three kernels
    counts = [n_lam // 16 for _rows, n_lam in passes]
    assert len(set(counts)) >= 3
    assert max(counts.count(c) for c in counts) > 1    # a group split into chunks
    for i, k in enumerate((2, 3, 4)):
        alone = backscatter._mu_integrals((k,), qs, t, r, 4)
        assert alone[0].tobytes() == batch[i].tobytes(), k
    for i, q in enumerate(qs):
        single = backscatter._mu_integrals((2, 3, 4), np.array([q]), t, r, 4)
        assert single[:, 0].tobytes() == batch[:, i].tobytes(), q


def test_refined_panels_meet_the_oracle(monkeypatch):
    # q_tol = 1e-11 splits panels, so halves are evaluated past the first
    # pass, each for the one kernel index whose bisection reached it
    n = axisym()
    calls = []
    mu_integrals = backscatter._mu_integrals

    def counted(*args):
        calls.append((tuple(args[0]), args[1].size))
        return mu_integrals(*args)

    monkeypatch.setattr(backscatter, "_mu_integrals", counted)
    coeffs = phi_k_modes(n, (2, 3, 4), 40.0, 30.0, 1e-11)
    assert len(calls) > 1
    assert calls[0][0] == (2, 3, 4) and all(len(ks) == 1 for ks, _size in calls[1:])
    v = phi_k(n, 2, 40.0, 30.0, OMEGA, 1e-11)
    assert v == backscatter._point_value(n, coeffs[0], OMEGA)
    bf = brute_force_phi_k(n, 2, 40.0, 30.0, OMEGA, n_q=500, n_theta=260, n_phi=96)
    assert v == pytest.approx(bf, rel=1e-4)


@pytest.mark.parametrize("q_tol", [1e-9, 1e-11])
def test_kernel_triples_equal_single_k_calls_bit_for_bit(q_tol):
    # at 1e-11 panels split past the first pass (see above); each k keeps its
    # own bisection, so its row is the single-k call's
    for n, (t, r) in ((axisym(), (40.0, 30.0)), (monopole(), (12.0, 11.0))):
        triple = phi_k_modes(n, (2, 3, 4), t, r, q_tol)
        assert triple.shape == (3, len(n.modes))
        for i, k in enumerate((2, 3, 4)):
            single = phi_k_modes(n, (k,), t, r, q_tol)
            assert single.shape == (1, len(n.modes))
            assert single[0].tobytes() == triple[i].tobytes(), (k, t, r)
    assert phi_k_modes(RadiationField({}), (2, 3, 4), 40.0, 30.0, q_tol).shape == (3, 0)


def _brute_force_per_direction(n, k, t, r, omega, n_q, n_theta, n_phi):
    """The oracle as it was before it computed the kernel once per distinct
    mu: the kernel on every direction at every q-node."""
    omega = np.asarray(omega, dtype=float)
    s_lo, s_hi = n.support()
    q_lo = max(r - t, s_lo)
    q_hi = min(s_hi, (t + r) / 7.0 + 2.0)
    if q_hi <= q_lo:
        return 0.0
    xq, wq = np.polynomial.legendre.leggauss(n_q)
    qs = 0.5 * (q_hi + q_lo) + 0.5 * (q_hi - q_lo) * xq
    wqs = 0.5 * (q_hi - q_lo) * wq
    xc, wc = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    st = np.sqrt(1.0 - xc**2)
    dirs = np.empty((n_theta, n_phi, 3))
    dirs[:, :, 0] = st[:, None] * np.cos(phis)[None, :]
    dirs[:, :, 1] = st[:, None] * np.sin(phis)[None, :]
    dirs[:, :, 2] = xc[:, None]
    y = ylm_at(list(n.modes), dirs.reshape(-1, 3))
    mu = dirs.reshape(-1, 3) @ omega
    wang = (wc[:, None] * np.full((1, n_phi), 2.0 * math.pi / n_phi)).reshape(-1)
    nq = np.array([prof.value(qs) for prof in n.modes.values()])
    total = 0.0
    for qi, wqi, n_qi in zip(qs, wqs, nq.T):
        alpha = t - r + qi
        beta = t + r + qi
        if alpha <= 0:
            continue
        lam = alpha + r * (1.0 - mu)
        rho = 0.5 * alpha * beta / lam
        chi2 = chi_wave_zone.value(float(qbracket(qi)) / rho) ** 2
        if k == 2:
            ker = chi2 / lam
        elif k == 3:
            ker = chi2 * 2.0 / (alpha * beta)
        else:
            ker = chi2 * 4.0 * lam / (alpha * beta) ** 2
        nvals = np.zeros(mu.size)
        for n_lm, y_lm in zip(n_qi, y):
            nvals += n_lm * y_lm
        total += wqi * float(np.sum(wang * nvals * ker)) / (4.0 * math.pi)
    return total


@pytest.mark.parametrize("omega", [OMEGA, np.array([0.6, 0.0, 0.8])])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_oracle_equals_its_per_direction_sum_bit_for_bit(k, omega):
    # an m = 1 mode makes the field depend on azimuth; at the tilted omega
    # mu varies along each polar ring, so the rings share no kernel values
    n = RadiationField({(0, 0): GAUSS, (2, 0): BUMP, (2, 1): GAUSS})
    grid = dict(n_q=40, n_theta=24, n_phi=12)
    got = brute_force_phi_k(n, k, 40.0, 30.0, omega, **grid)
    want = _brute_force_per_direction(n, k, 40.0, 30.0, omega, **grid)
    assert got != 0.0
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_oracle_kernel_runs_on_one_value_per_polar_node_at_the_pole(monkeypatch):
    sizes = []
    value = backscatter.chi_wave_zone.value

    class Spy:
        def value(self, s):
            sizes.append(np.size(s))
            return value(s)

    monkeypatch.setattr(backscatter, "chi_wave_zone", Spy())
    brute_force_phi_k(axisym(), 2, 40.0, 30.0, OMEGA, n_q=40, n_theta=24, n_phi=12)
    assert sizes and max(sizes) <= 24


def test_n_norm_quadrature_oracle():
    # l=0 gaussian, a=0: reduces to int |n(q)| dq with mean-normalized
    # synthesis (the l=0 basis function is 1)
    got = n_norm(monopole(), 0.0)
    want, _ = integrate.quad(lambda q: math.exp(-q * q), -12, 12)
    assert got == pytest.approx(want, rel=1e-10)


def test_n_norm_takes_its_sup_at_the_poles():
    # sqrt(4 pi) Y_20 peaks at the poles at sqrt(5) and Y_00 is 1 everywhere,
    # so the quadrupole's norm is sqrt(5) times the monopole's; the Gauss-
    # Legendre nodes of a band-2 grid reach only P_2 = 0.4
    gauss = make_profile({"kind": "gaussian", "amplitude": 1.0})
    quad = n_norm(RadiationField({(2, 0): gauss}), 0.0)
    assert quad == pytest.approx(math.sqrt(5.0) * n_norm(RadiationField({(0, 0): gauss}), 0.0),
                                 rel=1e-14)
    # an m = 1 mode peaks at theta = pi/4 on the azimuth 0, and sqrt(4 pi)
    # |Y_21| there is sqrt(15)/2 (P_2^1 in the real, orthonormal convention)
    tilted = n_norm(RadiationField({(2, 1): gauss}), 0.0)
    assert tilted == pytest.approx(math.sqrt(15.0) / 2.0 / math.sqrt(5.0) * quad, rel=1e-14)


def test_sup_envelope_takes_its_sup_at_the_poles():
    # a pure (2, 0) field: |Y_20| peaks at the poles at sqrt(5 / 4 pi) = 0.631,
    # where the Gauss-Legendre nodes of a band-2 grid reach only 0.315
    grid = RadialGrid(h=0.1, J=64)
    u = (grid.r * np.exp(-(grid.r - 3.0) ** 2))[None, :]
    st = FieldState(2.0, grid, [(2, 0)], u)
    env = (1 + (st.t + grid.r) ** 2) ** 0.5 * (1 + (st.t - grid.r) ** 2) ** 0.35
    want = math.sqrt(5.0 / (4.0 * math.pi)) * float(np.max(np.abs(st.u_over_r[0]) * env))
    assert sup_envelope(st, 1.2) == pytest.approx(want, rel=1e-14)


def test_n_norm_monotone_in_a():
    n = RadiationField({(0, 0): make_profile({"kind": "compact-bump", "amplitude": 1.0,
                                             "width": 1.0, "center": 2.0})})
    assert n_norm(n, 1.0) >= n_norm(n, 0.0)


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
        full = phi_k(n, 2, t, r, OMEGA, KQ)
        lead = phi2_asymptotic(n, t, r, OMEGA)
        rem.append(abs(full - lead) * math.sqrt(1 + (t + r) ** 2))
    assert max(rem) < 5.0 * n_norm(n, 0.0), rem
    assert max(rem) / min(rem) < 3.0, rem   # single constant along the sweep


@pytest.mark.parametrize("k", [2, 3, 4])
def test_source_residual(k):
    out = source_residual_check(monopole(), (k,), [(12.0, 11.0), (16.0, 15.0)], h=0.05,
                                q_tol=KQ)[k]
    assert 2.0 * out["noise_floor"] <= out["max_rel_residual"] <= 1e-2, out


def test_source_residual_triple_equals_single_k_checks():
    points = [(12.0, 11.0), (16.0, 15.0)]
    triple = source_residual_check(monopole(), (2, 3, 4), points, h=0.05, q_tol=KQ)
    assert list(triple) == [2, 3, 4]
    for k, out in triple.items():
        assert out == source_residual_check(monopole(), (k,), points, h=0.05, q_tol=KQ)[k]


def test_source_residual_improves_under_refinement():
    res = [source_residual_check(monopole(), (2,), [(12.0, 11.0)], h=h,
                                 q_tol=KQ)[2]["max_rel_residual"]
           for h in (0.1, 0.05)]
    assert res[1] < res[0] / 2.5


def test_source_residual_zero_source():
    out = source_residual_check(RadiationField({}), (2,), [(12.0, 11.0)], h=0.1, q_tol=KQ)
    assert out[2]["max_rel_residual"] == 0.0


def test_five_point_box_of_t2_minus_r2_is_eight():
    # c = t^2 - r^2 at l = 0: d_t^2 c - d_r^2 c - (2/r) d_r c = 2 + 2 + 4, and
    # the centered differences of a quadratic are exact up to rounding
    t, r, h = 3.0, 2.0, 0.1
    stencil = [np.array([(t + dt * h) ** 2 - (r + dr * h) ** 2]) for dt, dr in FIVE_POINTS]
    box = five_point_box(stencil, h, r, np.array([0.0]))
    assert box.shape == (1,)
    assert box[0] == pytest.approx(8.0, rel=1e-12)


def test_envelope_sweep_k34():
    n = monopole()
    sweep = [(r + 5.0, r) for r in (20.0, 40.0, 80.0)]
    sweeps = envelope_sweep(n, (3, 4), sweep, OMEGA, 0.0, KQ)
    assert list(sweeps) == [3, 4]
    for k, out in sweeps.items():
        assert out["value"].tolist() == [phi_k(n, k, t, r, OMEGA, KQ) for (t, r) in sweep]
        env = out["envelope"]
        assert np.all(env > 0.0)
        assert float(np.max(env)) < 10.0 * n_norm(n, 0.0)
        assert float(np.max(env)) / float(np.min(env)) < 5.0


def test_quadrature_spec_validation():
    for q_tol in (-1e-9, 0.0):
        with pytest.raises(BackscatterError):
            phi_k_modes(monopole(), (2,), 40.0, 30.0, q_tol)


def test_an_inconclusive_source_residual_fails_its_item(monkeypatch):
    # a noise floor above half the residual makes the check inconclusive:
    # the item keeps its measured value but fails, its lo twice the floor
    from backwave import kernel_pipelines
    from backwave.scenarios import RunSpec

    def residual(n, ks, points, h, q_tol):
        return {k: {"max_rel_residual": 1e-3, "noise_floor": 8e-4 if k == 3 else 1e-4}
                for k in ks}

    monkeypatch.setattr(kernel_pipelines, "source_residual_check", residual)
    monkeypatch.setattr(kernel_pipelines, "brute_force_phi_k", lambda *a, **k: 1.0)
    spec = RunSpec(scenario="backscatter",
                   f0_modes=[(2, 0, {"kind": "gaussian", "amplitude": 1.0})]).validate()
    items = {it.name: it for it in kernel_pipelines.run_backscatter_audit(spec).items}
    assert items["source_residual_k2"].passed and items["source_residual_k4"].passed
    item = items["source_residual_k3"]
    assert item.kind == "bound" and item.measured == 1e-3 and not item.passed
    assert (item.lo, item.hi) == (1.6e-3, 1e-2) and item.note == "noise floor 8.00e-04"


def test_news_table_spans_the_fields_support_as_before_bit_for_bit():
    # mixed centres: the news is sampled on [-sup, sup] with sup read from
    # support() as max(|lo|, |hi|), which equals max(|centre| + radius) over
    # the modes bit for bit
    from backwave import kernel_pipelines
    from backwave.scenarios import RunSpec

    spec = RunSpec(scenario="backscatter", l_max=4, f0_modes=[
        (1, 0, {"kind": "gaussian", "amplitude": 1.0, "width": 1.1, "center": -3.3}),
        (2, 0, {"kind": "compact-bump", "amplitude": 0.5, "width": 0.7, "center": 2.9}),
        (2, 1, {"kind": "gaussian", "amplitude": 0.3, "width": 0.7, "center": 5.9})]).validate()
    f0 = spec.field_from(spec.f0_modes)
    lo, hi = f0.support()
    old_sup = max(abs(p.center) + p.support_radius() for p in f0.modes.values())
    assert max(abs(lo), abs(hi)) == old_sup > 4.0
    assert abs(lo) != abs(hi)
    n = kernel_pipelines._news_source(spec, f0)
    # a sampled profile on [-sup, sup] is centred at 0 with radius sup + 1
    assert n.support() == (-(old_sup + 1.0), old_sup + 1.0)
