import math

import numpy as np
import pytest
from scipy.special import erf

from backwave.cutoffs import chi_exterior, chi_wave_zone
from backwave import radiation
from backwave.engine import (BLOCK_TIMES, EngineError, RadialGrid, StepSchedule,
                             discrete_box_field, stable_dt)
from backwave.profiles import SampledProfile, make_profile
from backwave.scenarios import RunSpec, ScenarioError
from backwave.radiation import (RadiationDataError, RadiationField,
                                SQRT4PI, derive_F1, eval_approximant,
                                eval_dt_psi01_exact, psi_e_terms,
                                realized_decay_class, residual_box_psi01)

GAUSS = {"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "center": 0.0}


def gaussian_field(lm=(2, 0), amplitude=1.0):
    spec = dict(GAUSS, amplitude=amplitude)
    return RadiationField({lm: make_profile(spec)})


# ---------------------------------------------------------------------------
# derive_F1
# ---------------------------------------------------------------------------

def test_f1_of_monopole_vanishes():
    f0 = gaussian_field(lm=(0, 0))
    f1 = derive_F1(f0, q_max=64.0)
    assert f1.is_zero()


def test_f1_erf_oracle():
    # l=1 gaussian: F1(q) = -(sqrt(pi)/2) erf(q), oracle = defining integral
    f0 = gaussian_field(lm=(1, 0))
    f1 = derive_F1(f0, q_max=64.0)
    prof = f1.modes[(1, 0)]
    for q0 in (-3.0, -0.5, 0.0, 1.0, 2.5):
        want = -(math.sqrt(math.pi) / 2.0) * erf(q0)
        assert float(prof.value(q0)) == pytest.approx(want, abs=1e-10)


def test_f1_vanishes_at_zero_for_all_modes():
    modes = {(1, 0): make_profile(GAUSS),
             (2, 1): make_profile({"kind": "compact-bump", "amplitude": 0.5,
                                   "width": 1.5, "center": 0.4})}
    f1 = derive_F1(RadiationField(modes), q_max=64.0)
    for lm, prof in f1.modes.items():
        assert abs(float(prof.value(0.0))) < 1e-14, lm


def test_f1_linearity():
    f = gaussian_field(lm=(2, 0), amplitude=1.0)
    g = RadiationField({(2, 0): make_profile({"kind": "compact-bump", "amplitude": 0.7,
                                              "width": 2.0})})
    combo = RadiationField({(2, 0): make_profile(dict(GAUSS, amplitude=2.0))})
    f1a = derive_F1(f, q_max=64.0)
    f1c = derive_F1(combo, q_max=64.0)
    qs = np.linspace(-4, 4, 17)
    assert np.allclose(f1c.modes[(2, 0)].value(qs), 2.0 * f1a.modes[(2, 0)].value(qs),
                       rtol=1e-12, atol=1e-13)
    del g


def test_f1_accepts_slowly_decaying_admissible_tails():
    # p in (gamma, 1]: the antiderivative grows like q^(1-p) but its
    # weighted norm is finite, so the derivation goes through
    prof = make_profile({"kind": "poly-tail", "p": 0.9})
    f0 = RadiationField({(1, 0): prof})
    f1 = derive_F1(f0, q_max=32.0)
    assert abs(float(f1.modes[(1, 0)].value(0.0))) < 1e-14


# ---------------------------------------------------------------------------
# realized decay class
# ---------------------------------------------------------------------------

def poly_tail_field(p, lm=(2, 0)):
    prof = make_profile({"kind": "poly-tail", "p": p, "scale": 0.3})
    return RadiationField({lm: prof})


def test_realized_class_gaussian_is_borderline():
    # F1 = -3 int_0^q F0 tends to the nonzero constants -/+ 3 sqrt(pi)/2
    assert realized_decay_class(derive_F1(gaussian_field(), q_max=64.0)) == 1.0


def test_realized_class_poly_tail_below_one_is_its_exponent():
    assert realized_decay_class(derive_F1(poly_tail_field(0.85), q_max=64.0)) == 0.85


def test_realized_class_poly_tail_above_one_is_borderline():
    assert realized_decay_class(derive_F1(poly_tail_field(1.5), q_max=64.0)) == 1.0


def test_realized_class_minimum_over_modes():
    f0 = RadiationField({(1, 0): make_profile(GAUSS),
                         (2, 0): make_profile({"kind": "poly-tail", "p": 0.9})})
    assert realized_decay_class(derive_F1(f0, q_max=64.0)) == 0.9


def test_realized_class_monopole_only_is_none():
    assert realized_decay_class(derive_F1(gaussian_field(lm=(0, 0)), q_max=64.0)) is None


def test_realized_class_tailless_f1_is_none():
    # F0 = d/dq (q e^{-q^2}) integrates to zero on both half-lines, so
    # F1 = -3 q e^{-q^2} has no tail
    q = np.linspace(-8.0, 8.0, 801)
    prof = SampledProfile(q, (1.0 - 2.0 * q * q) * np.exp(-q * q))
    f0 = RadiationField({(2, 0): prof})
    assert realized_decay_class(derive_F1(f0, q_max=64.0)) is None


# ---------------------------------------------------------------------------
# approximants
# ---------------------------------------------------------------------------

def test_approximant_outside_wave_zone_vanishes():
    f0 = gaussian_field(lm=(0, 0))
    f1 = derive_F1(f0, q_max=64.0)
    out = eval_approximant(f0, f1, 10.0, np.array([1.0]))
    assert out.shape == (1, 1) and np.all(out == 0.0)


def test_psi01_support_invariant():
    # psi01 = 0 whenever <t-r>/r >= 1/4, on a dense sample
    f0 = gaussian_field()
    f1 = derive_F1(f0, q_max=64.0)
    t = 20.0
    r = np.linspace(0.5, 120.0, 1200)
    vals = eval_approximant(f0, f1, t, r)[0]
    outside = np.sqrt(1 + (t - r) ** 2) / r >= 0.25
    assert np.all(vals[outside] == 0.0)


def test_cutoff_plateau_value():
    f0 = gaussian_field(lm=(0, 0))
    f1 = derive_F1(f0, q_max=64.0)
    # l = 0 data has no second-order field, so psi01 is F0(r-t)/r chi
    out = eval_approximant(f0, f1, 100.0, np.array([100.0]))
    assert out[0, 0] == pytest.approx(1.0 / 100.0, rel=1e-14)


def test_mass_term_physical_value():
    value, _dt = psi_e_terms(2.0, 0.0, np.array([5.0]))
    # physical value = mode coefficient * Y00
    assert value[0] / SQRT4PI == pytest.approx(2.0 / 5.0, rel=1e-14)


def test_psi_e_terms_equal_the_separate_cutoff_calls_bit_for_bit():
    # value and d_t from one pass over chi_e, across its transition 1 < r - t < 2
    t, r = 3.0, np.linspace(3.5, 6.5, 61)
    value, dt = psi_e_terms(0.25, t, r)
    want_value = 0.25 * chi_exterior.value(r - t) / r * SQRT4PI
    want_dt = -0.25 * chi_exterior.derivative(r - t) / r * SQRT4PI
    assert np.array_equal(value.view(np.int64), want_value.view(np.int64))
    assert np.array_equal(dt.view(np.int64), want_dt.view(np.int64))
    assert np.any(dt != 0.0)


def test_approximant_rejects_origin():
    f0 = gaussian_field(lm=(0, 0))
    f1 = derive_F1(f0, q_max=64.0)
    with pytest.raises(RadiationDataError):
        eval_approximant(f0, f1, 1.0, np.array([0.0]))


def test_dt_psi01_matches_time_difference():
    f0 = gaussian_field()
    f1 = derive_F1(f0, q_max=64.0)
    r = np.linspace(5.0, 30.0, 40)
    t, eps = 12.0, 1e-6
    up = eval_approximant(f0, f1, t + eps, r)[0]
    dn = eval_approximant(f0, f1, t - eps, r)[0]
    fd = (up - dn) / (2 * eps)
    an = eval_dt_psi01_exact(f0, f1, t, r)[0]
    assert np.max(np.abs(fd - an)) < 1e-6


# ---------------------------------------------------------------------------
# analytic wave-operator residual
# ---------------------------------------------------------------------------

def test_residual_vanishes_where_cutoff_flat_and_f1_zero():
    f0 = gaussian_field(lm=(0, 0))
    f1 = derive_F1(f0, q_max=64.0)
    # deep wave zone: chi = 1, l = 0 has no second-order term
    out = residual_box_psi01(f0, f1, 40.0, np.array([40.0, 42.0]))
    assert out.shape == (1, 2) and np.all(out == 0.0)


def test_residual_matches_discrete_operator():
    # discrete box applied to sampled psi01 agrees at O(h^2)
    f0 = gaussian_field()
    f1 = derive_F1(f0, q_max=64.0)
    t = 12.0
    errs = []
    for h in (0.05, 0.025, 0.0125):
        grid = RadialGrid(h=h, J=int(round(40.0 / h)))

        def u_of(tt):
            out = np.zeros(grid.J + 1)
            out[1:] = eval_approximant(f0, f1, tt, grid.r[1:])[0] * grid.r[1:]
            return out

        disc = discrete_box_field(u_of, t, h, grid, 2)
        ana = residual_box_psi01(f0, f1, t, grid.r[1:-1])[0] * grid.r[1:-1]
        errs.append(float(np.max(np.abs(disc - ana))))
    order = math.log2(errs[1] / errs[2])
    assert order > 1.7, (errs, order)


def test_residual_envelope_sweep():
    # |residual| <= C <t+r>^(-4) x (q-weighted data size); report C and pin it
    f0 = gaussian_field()
    f1 = derive_F1(f0, q_max=400.0)
    worst = 0.0
    for t in (10.0, 20.0, 40.0, 80.0):
        r = np.linspace(0.5, 3 * t, 900)
        vals = residual_box_psi01(f0, f1, t, r)[0]
        worst = max(worst, float(np.max(np.abs(vals) * (1 + (t + r) ** 2) ** 2)))
    # the <t+r>^4-scaled residual stays below one sweep-wide constant (the
    # q-weighted data factors and the cutoff slope are folded into it)
    assert worst < 4.0e4, worst


def test_banded_evaluation_equals_pointwise_and_vanishes_off_band():
    # psi01 terms are computed on the wave-zone band <r-t>/r < 1/4 only;
    # on a full grid they must equal one-point evaluations bit for bit and
    # be exactly 0 off the band
    f0 = RadiationField({(1, 0): make_profile(GAUSS),
                         (2, 0): make_profile({"kind": "poly-tail", "p": 0.85,
                                               "scale": 0.3})})
    f1 = derive_F1(f0, q_max=64.0)
    r = 0.125 * np.arange(1, 321)
    for t in (2.0, 12.0, 20.0):
        off = np.sqrt(1.0 + (r - t) ** 2) / r >= 0.25
        for fn in (residual_box_psi01, eval_dt_psi01_exact, eval_approximant):
            full = fn(f0, f1, t, r)
            assert full.shape == (2, r.size)
            point = np.concatenate([fn(f0, f1, t, r[i:i + 1]) for i in range(r.size)], axis=1)
            assert np.array_equal(full, point), t
            for k, vals in enumerate(full):
                assert np.all(vals[off] == 0.0), (t, k)
                assert t == 2.0 or np.any(vals[~off] != 0.0), (t, k)


def test_rows_come_in_field_mode_order_bit_for_bit():
    # each row of a three-mode field's stack equals the row of the field that
    # carries only that mode, bit for bit, in f0.modes order
    profs = {(2, 1): make_profile({"kind": "compact-bump", "amplitude": 0.5, "width": 1.5,
                                   "center": 0.4}),
             (1, 0): make_profile(GAUSS),
             (2, 0): make_profile({"kind": "poly-tail", "p": 0.85, "scale": 0.3})}
    f0 = RadiationField(profs)
    f1 = derive_F1(f0, q_max=64.0)
    assert list(f0.modes) == [(1, 0), (2, 0), (2, 1)]
    r = 0.125 * np.arange(1, 321)
    for fn in (residual_box_psi01, eval_dt_psi01_exact, eval_approximant):
        for t in (12.0, 20.0):
            full = fn(f0, f1, t, r)
            assert full.shape == (3, r.size)
            for k, lm in enumerate(f0.modes):
                one = RadiationField({lm: profs[lm]})
                row = fn(one, derive_F1(one, q_max=64.0), t, r)
                assert row.shape == (1, r.size)
                assert np.array_equal(full[k].view(np.int64), row[0].view(np.int64)), (t, lm)
                assert np.any(full[k] != 0.0), (t, lm)


def test_residual_requires_derived_second_order_field():
    f0 = gaussian_field()
    with pytest.raises(RadiationDataError):
        residual_box_psi01(f0, RadiationField({}), 5.0,
                           np.array([5.0]))


def test_mass_term_is_exact_solution():
    # discrete box of r * psi_e converges to 0 at second order for r >= 1/2;
    # the mollifier's fourth derivative is spiky, so the asymptotic range
    # starts around h = 0.025
    errs = []
    for h in (0.025, 0.0125, 0.00625):
        grid = RadialGrid(h=h, J=int(round(12.0 / h)))
        res = discrete_box_field(lambda t: chi_exterior.value(grid.r - t),
                                 3.0, h / 2.0, grid, 0)
        sel = grid.r[1:-1] >= 0.5
        errs.append(float(np.max(np.abs(res[sel]))))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.9, (errs, order)


def test_field_invariants():
    # the band limit, the poly-tail exponent and the decay class are checks
    # of the run's config data, made by RunSpec.validate before any field is
    # used; a RadiationField itself is any sorted mode map
    poly = {"kind": "poly-tail", "p": 0.6}
    for spec, message in (
            (RunSpec(scenario="homogeneous", l_max=2, f0_modes=[(3, 0, GAUSS)]),
             "mode (3,0) outside band limit 2"),
            (RunSpec(scenario="homogeneous", g0_modes=[(1, 0, poly)]),
             "mode (1, 0): poly-tail exponent 0.6 must exceed gamma=0.8"),
            (RunSpec(scenario="homogeneous", gamma=1.2, f0_modes=[(1, 0, GAUSS)]),
             "gamma must satisfy 1/2 < gamma < 1, got 1.2")):
        with pytest.raises(ScenarioError) as err:
            spec.validate()
        assert str(err.value) == message
    # every band check runs before any exponent check
    with pytest.raises(RadiationDataError, match=r"^mode \(3,0\) outside band limit 2$"):
        RunSpec("homogeneous", l_max=2).field_from([(1, 0, poly), (3, 0, GAUSS)])
    field = RadiationField({(3, 0): make_profile(GAUSS), (1, 0): make_profile(poly)})
    assert list(field.modes) == [(1, 0), (3, 0)] and field.ells() == [1, 3]


def test_block_rows_equal_single_time_rows_bit_for_bit():
    # configs/homogeneous.cfg's poly-tail l=2 data and grid, plus a monopole,
    # whose formulas give -0.0 off the band; a schedule from t = 5 down to
    # t0 = 2: blocks cross segment boundaries, and below t = sqrt(15) no
    # radius has <r-t>/r < 1/4, so rows (and whole blocks) have an empty band
    f0 = RadiationField({(0, 0): make_profile(GAUSS),
                         (2, 0): make_profile({"kind": "poly-tail", "p": 0.85,
                                               "scale": 0.3})})
    grid = RadialGrid.for_run(0.125, 80.0, 2.0)
    f1 = derive_F1(f0, q_max=grid.r_max + 2.0)
    r = grid.r[1:]
    sched = StepSchedule((5.0, 4.3, 3.0, 2.0), dt_cap=stable_dt(grid.h, 2, 0.5))
    st = sched.stage_times
    starts = range(0, len(st), BLOCK_TIMES)
    assert any(st[i] > 4.3 > st[min(i + BLOCK_TIMES, len(st)) - 1] for i in starts)
    assert any(st[i] < math.sqrt(15.0) for i in starts)
    for fn in (residual_box_psi01, eval_dt_psi01_exact):
        for t in st:
            block, single = fn(f0, f1, t, r, sched), fn(f0, f1, t, r)
            assert block.shape == single.shape == (2, r.size)
            assert np.array_equal(block.view(np.int64), single.view(np.int64)), t
        assert np.all(fn(f0, f1, 2.0, r).view(np.int64) == 0)


def test_scheduled_rows_are_kept_read_only_and_other_times_raise(monkeypatch):
    f0 = gaussian_field()
    f1 = derive_F1(f0, q_max=64.0)
    r = np.linspace(5.0, 30.0, 40)
    sched = StepSchedule((14.0, 10.0), dt_cap=0.05)
    passes = []
    for name in ("_residual_block", "_dt_psi01_block"):
        block = getattr(radiation, name)
        monkeypatch.setattr(radiation, name,
                            lambda *args, _b=block: passes.append(len(args[3])) or _b(*args))
    for fn in (residual_box_psi01, eval_dt_psi01_exact):
        t = sched.stage_times[3]
        own = fn(f0, f1, t, r)
        own[:] = 1.0         # without a schedule, the caller's own array
        first = fn(f0, f1, t, r, sched)
        with pytest.raises(ValueError):
            first[:] = 1.0   # with one, a read-only view into the kept block
        assert np.array_equal(first, fn(f0, f1, t, r))
        for later in sched.stage_times[4:3 + BLOCK_TIMES]:
            fn(f0, f1, later, r, sched)
        # a time off the schedule raises instead of evaluating one row
        with pytest.raises(EngineError):
            fn(f0, f1, np.nextafter(t, 0.0), r, sched)
        # the schedule serves only the radii array its block was built on:
        # another one, even an equal copy, raises instead of a rebuild
        for radii in (r + 0.5, r.copy()):
            with pytest.raises(EngineError):
                fn(f0, f1, t, radii, sched)
    # per function: one pass for its 16 stage times, plus the two unscheduled calls
    assert passes == [1, BLOCK_TIMES, 1] * 2


def _whole_grid_rows(block, f0, f1, t, r):
    """The rows of ``block`` at t with the band <r-t>/r < 1/4 tested at every
    radius and the block's terms evaluated on all of r."""
    q = (r - t)[None, :]
    br = np.sqrt(1.0 + q * q)
    inside = br / r < chi_wave_zone.upper
    chi = chi_wave_zone.terms(br / r)
    rows = block(f0, f1, r, q, br, *chi, lambda prof: (prof.value(q), prof.derivative(q)))
    return np.array([np.where(inside, vals, 0.0)[0] for vals in rows])


def test_rows_on_the_bounded_band_equal_whole_grid_rows_bit_for_bit():
    # the band's columns are found among 0.8 t - 1/4 <= r < 4 t/3 + 1/4 only,
    # and each block's wave zone serves both forcings; blocks whose bands are
    # empty (t < 3), interior, or reach r_max = 40 (t > 30): scheduled rows,
    # unscheduled rows and rows built on the whole grid agree as int64 views
    f0 = RadiationField({(0, 0): make_profile(GAUSS),
                         (2, 0): make_profile({"kind": "poly-tail", "p": 0.85})})
    grid = RadialGrid(h=0.125, J=320)
    f1 = derive_F1(f0, q_max=grid.r_max + 40.0)
    r = grid.r[1:]
    sched = StepSchedule((36.0, 20.0, 2.0, 1.0), dt_cap=0.25)
    st = sched.stage_times
    kinds = {"empty": 0, "interior": 0, "edge": 0}
    for t in st:
        band = np.sqrt(1.0 + (r - t) ** 2) / r < chi_wave_zone.upper
        kinds["empty" if not band.any() else "edge" if band[-1] else "interior"] += 1
        for fn, block in ((residual_box_psi01, radiation._residual_block),
                          (eval_dt_psi01_exact, radiation._dt_psi01_block)):
            rows, single = fn(f0, f1, t, r, sched), fn(f0, f1, t, r)
            whole = _whole_grid_rows(block, f0, f1, t, r)
            assert np.array_equal(rows.view(np.int64), single.view(np.int64)), t
            assert np.array_equal(rows.view(np.int64), whole.view(np.int64)), t
    assert min(kinds.values()) >= BLOCK_TIMES, kinds
    assert not np.any(residual_box_psi01(f0, f1, 2.5, r).view(np.int64))


def test_two_radii_arrays_in_one_schedule_never_share_a_wave_zone(monkeypatch):
    # the forcings asked on one radii array share each block's wave zone, and
    # every row is its unscheduled call's; a second array, even an equal
    # copy, raises instead of rebuilding the block, which stays in place
    built = []
    zone = radiation.wave_zone
    monkeypatch.setattr(radiation, "wave_zone",
                        lambda block: built.append((block.ts.size, block.r)) or zone(block))

    def scheduled():
        return [radii for size, radii in built if size > 1]

    f0 = gaussian_field()
    f1 = derive_F1(f0, q_max=64.0)
    r = np.linspace(5.0, 30.0, 40)
    sched = StepSchedule((14.0, 10.0), dt_cap=0.05)
    block = sched.stage_times[:BLOCK_TIMES]
    fns = (residual_box_psi01, eval_dt_psi01_exact)
    for t in block[:-1]:
        for fn in fns:
            assert np.array_equal(fn(f0, f1, t, r, sched), fn(f0, f1, t, r))
    for radii in (r + 0.3, r.copy()):
        for fn in fns:
            with pytest.raises(EngineError):
                fn(f0, f1, block[1], radii, sched)
    for fn in fns:
        assert np.array_equal(fn(f0, f1, block[-1], r, sched), fn(f0, f1, block[-1], r))
    assert len(scheduled()) == 1 and scheduled()[0] is r
