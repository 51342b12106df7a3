"""Real spherical-harmonic machinery on Gauss-Legendre collocation grids.

Conventions
-----------
Real orthonormal harmonics on the unit sphere,

    Y_{l,0}            = Ptilde_{l,0}(cos th)
    Y_{l,m}  (m > 0)   = sqrt(2) Ptilde_{l,m}(cos th) cos(m ph)
    Y_{l,-m} (m > 0)   = sqrt(2) Ptilde_{l,m}(cos th) sin(m ph)

with Ptilde the fully normalized associated Legendre functions, computed by
the standard stable recurrences, so that int_{S^2} Y_{lm} Y_{l'm'} dS =
delta.  In particular Y_{00} = 1/sqrt(4 pi).  Physical fields are real and
their coefficients in this basis are real, so the conjugate-symmetry
constraint of a real field holds by construction.

Quadratic products of radial coefficient stacks go through
:func:`product_closures`, which takes the lists of input and output modes
and sizes a collocation grid from them: n_theta Gauss-Legendre nodes in
cos(theta), from their degrees, times n_phi equispaced azimuths, from their
largest |m|.  The grid integrates every listed mode of the product exactly;
for m = 0 lists it is one azimuth node, the Gauss-Legendre rule in
cos(theta).  Gauss-Legendre nodes miss the poles, so a sup over the sphere
is read elsewhere: on the directions of :func:`sup_harmonics`, equispaced
polar angles with both poles, times equispaced azimuths.
"""

from __future__ import annotations

import math

import numpy as np


def band_modes(l_max: int):
    """Every (l, m) with l <= l_max, by degree and then by m from -l to l."""
    return [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]


def mode_rows(modes, within):
    """The rows of ``modes`` in the list ``within`` (each must be in it): a
    slice when they are consecutive rows in order, else a list of indices."""
    rows = [within.index(lm) for lm in modes]
    start, stop = (rows[0], rows[0] + len(rows)) if rows else (0, 0)
    return slice(start, stop) if rows == list(range(start, stop)) else rows


def normalized_legendre(l_max: int, x: np.ndarray) -> np.ndarray:
    """Ptilde_{l,m}(x) for 0 <= m <= l <= l_max, shape (l_max+1, l_max+1, len(x)).

    Recurrences (all coefficients positive, stable):
        Ptilde_{0,0} = 1/sqrt(4 pi)
        Ptilde_{m,m} = -sqrt((2m+1)/(2m)) s Ptilde_{m-1,m-1},  s = sqrt(1-x^2)
        Ptilde_{m+1,m} = sqrt(2m+3) x Ptilde_{m,m}
        Ptilde_{l,m} = a_lm (x Ptilde_{l-1,m} - b_lm Ptilde_{l-2,m})
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = np.zeros((l_max + 1, l_max + 1, x.size))
    out[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, l_max + 1):
        out[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * out[m - 1, m - 1]
    for m in range(0, l_max):
        out[m + 1, m] = math.sqrt(2.0 * m + 3.0) * x * out[m, m]
    for m in range(0, l_max + 1):
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            out[l, m] = a * (x * out[l - 1, m] - b * out[l - 2, m])
    return out


def ylm_at(modes, dirs: np.ndarray) -> np.ndarray:
    """Y_{lm} at arbitrary unit vectors, one row per (l, m) of ``modes`` in
    list order, shape (len(modes), n_dirs)."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    ct = np.clip(dirs[:, 2], -1.0, 1.0)
    ph = np.arctan2(dirs[:, 1], dirs[:, 0])
    l_max = max((l for (l, _m) in modes), default=0)
    return _ylm_rows(modes, normalized_legendre(l_max, ct), ph)


def _ylm_rows(modes, leg: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Y_{lm} for each (l, m) of ``modes``, one row each, from Ptilde_{l,m} at
    the points' cos(theta) (``leg``'s trailing axes) and their azimuths."""
    out = np.empty((len(modes),) + np.broadcast_shapes(leg.shape[2:], np.shape(phi)))
    for i, (l, m) in enumerate(modes):
        trig = np.cos if m > 0 else np.sin
        out[i] = leg[l, 0] if m == 0 else math.sqrt(2.0) * leg[l, abs(m)] * trig(abs(m) * phi)
    return out


def sup_harmonics(modes) -> np.ndarray:
    """Y_{lm} of each (l, m) of ``modes`` (one row each, in list order) at the
    directions every sup over the sphere is read on, shape (len(modes),
    n_dirs): 4L + 1 equispaced polar angles, the poles included, times 8L
    equispaced azimuths (one when every m is 0), L the largest degree (at
    least 1)."""
    L = max([l for (l, _m) in modes] + [1])
    n_azimuth = 8 * L if any(m for (_l, m) in modes) else 1
    polar = np.linspace(0.0, math.pi, 4 * L + 1)[:, None]
    azimuth = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)[None, :]
    dirs = np.stack(np.broadcast_arrays(np.sin(polar) * np.cos(azimuth),
                                        np.sin(polar) * np.sin(azimuth), np.cos(polar)), axis=-1)
    return ylm_at(modes, dirs.reshape(-1, 3))


def product_closures(modes_in, modes_out):
    """Batched pointwise product helper for radial stacks of coefficients.

    Returns a closure pair (to_values, to_modes): to_values maps a stack of
    coefficients, one row per mode of ``modes_in`` in list order, shape
    (len(modes_in), n_radial), to samples (n_pts, n_radial); to_modes
    analyzes samples into rows of ``modes_out``.  The grid, n_theta
    Gauss-Legendre nodes in cos(theta) times n_phi equispaced azimuths, is
    sized from the lists: it analyzes a product of two input-mode fields
    exactly (degree 2 l_in + l_out in cos(theta), azimuthal order
    2 |m_in| + |m_out|), and any output-mode field (order 2 |m_out|).  m = 0
    lists get one azimuth node: the Gauss-Legendre rule in cos(theta).
    """
    l_in, m_in = np.abs(modes_in).max(axis=0).tolist()
    l_out, m_out = np.abs(modes_out).max(axis=0).tolist()
    l_tab = max(l_in, l_out)
    x, w = np.polynomial.legendre.leggauss(max((2 * l_in + l_out) // 2 + 1, l_tab + 1))
    n_phi = max(2 * m_in + m_out, 2 * m_out) + 1
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    leg = normalized_legendre(l_tab, x)[..., None]
    y_in = _ylm_rows(modes_in, leg, phi).reshape(len(modes_in), -1)     # (modes, pts)
    y_out = _ylm_rows(modes_out, leg, phi).reshape(len(modes_out), -1)
    wflat = np.repeat(w * (2.0 * math.pi / n_phi), n_phi)              # sum = 4 pi

    def to_values(block):
        return y_in.T @ block                      # (pts, n_radial)

    def to_modes(values):
        return y_out @ (values * wflat[:, None])

    return to_values, to_modes
