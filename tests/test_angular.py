import math

import numpy as np
import pytest

from backwave.angular import (band_modes, mode_rows, normalized_legendre, product_closures,
                              ylm_at)

SQRT4PI = math.sqrt(4.0 * math.pi)


def row(l, m):
    """The row of (l, m) in a full-band stack, whose rows follow band_modes."""
    return l * l + l + m


def n_band(l_max):
    return len(band_modes(l_max))


def random_coeffs(l_max, seed, n_radial=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_band(l_max), n_radial))


def unit_coeffs(l_max, lm, value=1.0):
    out = np.zeros((n_band(l_max), 1))
    out[row(*lm)] = value
    return out


def gl_sphere(n_theta, n_phi):
    """Gauss-Legendre nodes x in cos(theta), equispaced azimuths phi and the
    product weights, flat in (theta, phi) order (sum 4 pi)."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return x, phi, (w[:, None] * np.full((1, n_phi), 2.0 * math.pi / n_phi)).reshape(-1)


def gl_directions(x, phi):
    """Unit vectors of the (x, phi) product grid, flat in (theta, phi) order."""
    st = np.sqrt(1.0 - x * x)[:, None]
    dirs = np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), x[:, None]), axis=-1)
    return dirs.reshape(-1, 3)


def grid_table(l_max, x, phi):
    """The full band's harmonics on the (x, phi) product grid from the
    convention's formula, (n_band, n_theta * n_phi)."""
    leg = normalized_legendre(l_max, x)[..., None]
    out = np.empty((n_band(l_max), x.size, phi.size))
    for i, (l, m) in enumerate(band_modes(l_max)):
        trig = np.cos if m > 0 else np.sin
        out[i] = leg[l, 0] if m == 0 else math.sqrt(2.0) * leg[l, abs(m)] * trig(abs(m) * phi)
    return out.reshape(n_band(l_max), -1)


def dense_oracle():
    """(harmonics, weights) of a quadrature far beyond exactness needs:
    ``ylm_at`` of the band up to l = 12 on a 48 x 96 product grid."""
    x, phi, weights = gl_sphere(48, 96)
    return ylm_at(band_modes(12), gl_directions(x, phi)), weights


def closures(l_in, l_out):
    """The product closures of the full (l, m) lists up to l_in and l_out."""
    return product_closures(band_modes(l_in), band_modes(l_out))


def product_modes(l_in, l_out, a, b):
    to_values, to_modes = closures(l_in, l_out)
    return to_modes(to_values(a) * to_values(b))


def axisymmetric(l_max):
    return [(l, 0) for l in range(l_max + 1)]


def test_mode_rows_are_a_slice_only_when_consecutive_and_in_order():
    band = band_modes(2)
    assert mode_rows([(1, -1), (1, 0), (1, 1)], band) == slice(1, 4)
    assert mode_rows([], band) == slice(0, 0)
    assert mode_rows([(0, 0), (2, 0)], band) == [0, 6]
    assert mode_rows([(1, 0), (1, -1)], band) == [2, 1]
    with pytest.raises(ValueError):
        mode_rows([(3, 0)], band)


def test_grid_weights_sum_to_sphere_area():
    # the (0, 0) row of to_modes is Y00 times the quadrature weights
    to_values, to_modes = closures(6, 6)
    n_pts = to_values(np.zeros((n_band(6), 1))).shape[0]
    weights = to_modes(np.eye(n_pts))[row(0, 0)] * SQRT4PI
    assert float(weights.sum()) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert np.all(weights > 0)


def test_constant_mode_synthesis():
    to_values, _ = closures(2, 2)
    vals = to_values(unit_coeffs(2, (0, 0), 3.0))
    assert np.allclose(vals, 3.0 / SQRT4PI, rtol=1e-14)


def test_constant_field_analysis():
    to_values, to_modes = closures(3, 3)
    n_pts = to_values(np.zeros((n_band(3), 1))).shape[0]
    mv = to_modes(np.ones((n_pts, 1)))[:, 0]
    assert mv[row(0, 0)] == pytest.approx(SQRT4PI, rel=1e-13)
    rest = mv.copy()
    rest[0] = 0.0
    assert np.max(np.abs(rest)) < 1e-13


def test_round_trip_exact():
    for l_max in (1, 3, 8):
        coeffs = random_coeffs(l_max, seed=l_max, n_radial=3)
        to_values, to_modes = closures(l_max, l_max)
        back = to_modes(to_values(coeffs))
        assert np.max(np.abs(back - coeffs)) < 1e-12


def test_y10_closed_form():
    # the l = 1 samples are sqrt(3/4pi) times the coordinates of the sample
    # direction: Y10 = c z, Y1,1 = -c x, Y1,-1 = -c y
    to_values, _ = closures(3, 3)
    table = to_values(np.eye(n_band(3)))          # (n_pts, n_modes)
    c = math.sqrt(3.0 / (4.0 * math.pi))
    dirs = np.stack([-table[:, row(1, 1)], -table[:, row(1, -1)],
                     table[:, row(1, 0)]], axis=1) / c
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)
    # every harmonic sampled by the closures is the harmonic at that direction
    assert np.allclose(ylm_at(band_modes(3), dirs).T, table, atol=1e-13)


def test_cos_squared_mixture():
    # cos^2(theta) = 1/3 + (2/3) P_2: exact coefficients from the Legendre
    # expansion are c00 = sqrt(4 pi)/3 and c20 = (4/3) sqrt(pi/5)
    to_values, to_modes = closures(1, 4)
    cos_theta = to_values(unit_coeffs(1, (1, 0))) / math.sqrt(3.0 / (4.0 * math.pi))
    mv = to_modes(cos_theta**2)[:, 0]
    assert mv[row(0, 0)] == pytest.approx(SQRT4PI / 3.0, rel=1e-13)
    assert mv[row(2, 0)] == pytest.approx(4.0 / 3.0 * math.sqrt(math.pi / 5.0), rel=1e-13)
    others = mv.copy()
    others[row(0, 0)] = 0.0
    others[row(2, 0)] = 0.0
    assert np.max(np.abs(others)) < 1e-13


def test_zero_field_analysis():
    to_values, to_modes = closures(2, 2)
    n_pts = to_values(np.zeros((n_band(2), 1))).shape[0]
    assert np.all(to_modes(np.zeros((n_pts, 1))) == 0.0)


def test_parseval():
    coeffs = random_coeffs(5, seed=7)
    to_values, to_modes = closures(5, 5)
    vals = to_values(coeffs)
    # int f^2 dS is sqrt(4 pi) times the (0, 0) coefficient of f^2
    quad = SQRT4PI * float(to_modes(vals**2)[row(0, 0), 0])
    assert quad == pytest.approx(float(np.sum(coeffs**2)), rel=1e-12)


def test_product_with_zero():
    out = product_modes(3, 3, random_coeffs(3, seed=1), np.zeros((n_band(3), 1)))
    assert np.all(out == 0.0)


def test_product_constants_multiply_like_scalars():
    out = product_modes(2, 2, unit_coeffs(2, (0, 0), 2.0), unit_coeffs(2, (0, 0), 3.0))[:, 0]
    assert out[0] == pytest.approx(6.0 / SQRT4PI, rel=1e-13)
    rest = out.copy()
    rest[0] = 0.0
    assert np.max(np.abs(rest)) < 1e-13


def test_product_commutative():
    a = random_coeffs(3, seed=2)
    b = random_coeffs(3, seed=3)
    assert np.allclose(product_modes(3, 3, a, b), product_modes(3, 3, b, a), atol=1e-13)


def test_product_exact_vs_dense_quadrature_oracle():
    # Gaunt-style consistency at small band limits: the truncated product
    # matches an independent dense-grid quadrature of Y_a Y_b Y_c
    l_in, l_out = 2, 4
    a = random_coeffs(l_in, seed=11)
    b = random_coeffs(l_in, seed=12)
    out = product_modes(l_in, l_out, a, b)
    ymat, weights = dense_oracle()
    n_in = n_band(l_in)
    va = ymat[:n_in].T @ a
    vb = ymat[:n_in].T @ b
    oracle = ymat[:n_band(l_out)] @ (va * vb * weights.reshape(-1, 1))
    assert np.max(np.abs(out - oracle)) < 1e-12


@pytest.mark.parametrize("l_in, l_out", [(1, 2), (1, 4), (2, 4), (3, 3), (8, 8)])
def test_full_mode_lists_give_the_product_grid_bit_for_bit(l_in, l_out):
    # the grid of full (l, m) lists: n_theta = max(deg // 2 + 1, l_tab + 1)
    # Gauss-Legendre nodes times n_phi = max(deg + 1, 2 l_tab + 1) equispaced
    # azimuths, with deg = 2 l_in + l_out
    deg, l_tab = 2 * l_in + l_out, max(l_in, l_out)
    x, phi, weights = gl_sphere(max(deg // 2 + 1, l_tab + 1), max(deg + 1, 2 * l_tab + 1))
    ymat = grid_table(l_tab, x, phi)
    a = random_coeffs(l_in, seed=l_in + 10 * l_out, n_radial=9)
    to_values, to_modes = closures(l_in, l_out)
    vals = ymat[:n_band(l_in)].T @ a
    sq = ymat[:n_band(l_out)] @ (vals * vals * weights.reshape(-1, 1))
    assert np.array_equal(to_values(a).view(np.int64), vals.view(np.int64))
    assert np.array_equal(to_modes(vals * vals).view(np.int64), sq.view(np.int64))


def test_axisymmetric_lists_agree_with_the_full_grid_and_the_dense_oracle():
    # m = 0 lists integrate on l_in + l_out/2 + 1 cos(theta) nodes and one
    # azimuth node; their product is the m = 0 part of the full-list product
    l_in, l_out = 2, 4
    zin, zout = axisymmetric(l_in), axisymmetric(l_out)
    to_values, to_modes = product_closures(zin, zout)
    assert to_values(np.zeros((len(zin), 1))).shape == (5, 1)
    rng = np.random.default_rng(5)
    a = np.zeros((n_band(l_in), 40))
    a[[row(*lm) for lm in zin]] = rng.standard_normal((len(zin), 40))
    out = to_modes(to_values(a[[row(*lm) for lm in zin]]) ** 2)
    full = product_modes(l_in, l_out, a, a)[[row(*lm) for lm in zout]]
    ymat, weights = dense_oracle()
    va = ymat[:n_band(l_in)].T @ a
    oracle = (ymat[:n_band(l_out)] @ (va * va * weights.reshape(-1, 1)))[
        [row(*lm) for lm in zout]]
    scale = np.max(np.abs(full))
    assert np.max(np.abs(out - full)) <= 1e-14 * scale
    # the 4,608-point oracle carries its own rounding (about 5e-14 relative
    # here, for the full grid too): the m = 0 rule sits no further from it
    assert np.max(np.abs(out - oracle)) < 1e-12
    assert np.max(np.abs(out - oracle)) <= np.max(np.abs(full - oracle)) + 1e-14 * scale


def test_closures_read_and_return_rows_in_list_order():
    # the same modes listed in another order give the same rows, permuted
    mixed_in, mixed_out = [(2, 1), (0, 0), (1, -1)], [(2, 2), (0, 0), (1, 0), (2, -1)]
    to_values, to_modes = product_closures(mixed_in, mixed_out)
    rev_values, rev_modes = product_closures(mixed_in[::-1], mixed_out[::-1])
    a = np.random.default_rng(8).standard_normal((3, 4))
    vals = to_values(a)
    assert np.allclose(rev_values(a[::-1]), vals, rtol=0.0, atol=1e-14)
    assert np.allclose(rev_modes(vals * vals), to_modes(vals * vals)[::-1], rtol=0.0, atol=1e-13)
    # and they are the listed rows of the full-list product
    full = np.zeros((n_band(2), 4))
    full[[row(*lm) for lm in mixed_in]] = a
    ref = product_modes(2, 2, full, full)[[row(*lm) for lm in mixed_out]]
    assert np.allclose(to_modes(vals * vals), ref, rtol=0.0, atol=1e-13)


def test_ylm_at_matches_grid_tables():
    x, phi, _weights = gl_sphere(4, 7)
    table = ylm_at(band_modes(3), gl_directions(x, phi))
    assert np.allclose(table, grid_table(3, x, phi), atol=1e-12)


def test_ylm_at_rows_follow_the_mode_list_bit_for_bit():
    # a list out of band order and with gaps gets, row for row, the full
    # band's rows of its modes
    rng = np.random.default_rng(7)
    dirs = rng.standard_normal((9, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    modes = [(3, -2), (0, 0), (2, 1), (3, 3), (1, -1)]
    band = ylm_at(band_modes(3), dirs)
    rows = ylm_at(modes, dirs)
    assert rows.shape == (len(modes), dirs.shape[0])
    want = band[[row(*lm) for lm in modes]]
    assert np.array_equal(rows.view(np.int64), want.view(np.int64))

