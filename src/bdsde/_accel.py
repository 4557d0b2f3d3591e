"""Hot numeric kernels, in numpy.

`_moments_numpy` is the reference implementation over full query-by-knot
matrices; `_moments_numpy_fast`, which `pl_gauss_moments` runs, restricts
each query to the knots within 10 sigma on a uniform lattice and falls back
to the reference otherwise.  Given several value rows (one per backward
path), the Gaussian terms are computed once and combined row by row, so
each row's moments are those of a call with that row alone.

The central kernel computes, for a piecewise-linear function f tabulated on
knots (with linear extension beyond both ends) and X ~ N(mu, sigma^2),

    m0 = E[f(X)]        and        m1 = E[f(X) * (X - mu)]

in closed form segment by segment.  This is the one-step conditional
expectation used by the dynamic-programming solver and its diagnostics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_ZMAX = 10.0  # Gaussian mass beyond 10 sigma is ~1e-23; segments outside are skipped


def linear_interp(xq, knots, vals):
    """Piecewise-linear interpolation along the last axis of vals, with linear
    extension beyond the ends."""
    xq = np.asarray(xq, dtype=float)
    idx = np.clip(np.searchsorted(knots, xq) - 1, 0, len(knots) - 2)
    slope = (vals[..., idx + 1] - vals[..., idx]) / (knots[idx + 1] - knots[idx])
    return vals[..., idx] + slope * (xq - knots[idx])


def _per_row(moments, vals):
    """moments(v) -> (m0, m1) for 1-D vals; stacked row by row for 2-D vals."""
    if vals.ndim == 1:
        return moments(vals)
    m0, m1 = zip(*map(moments, vals))
    return np.array(m0), np.array(m1)


def _moments_numpy(knots, vals, mu, sigma):
    """Reference implementation: full (n_query, n_knot) matrices."""
    mu = np.asarray(mu, dtype=float)
    z = (knots[None, :] - mu[:, None]) / sigma
    z = np.clip(z, -38.0, 38.0)
    cdf = ndtr(z)
    pdf = _INV_SQRT2PI * np.exp(-0.5 * z * z)
    slopes = np.diff(vals) / np.diff(knots)

    # interior segments
    a_mat = vals[None, :-1] + slopes[None, :] * (mu[:, None] - knots[None, :-1])
    i0 = cdf[:, 1:] - cdf[:, :-1]
    i1 = pdf[:, :-1] - pdf[:, 1:]
    i2 = i0 + z[:, :-1] * pdf[:, :-1] - z[:, 1:] * pdf[:, 1:]
    m0 = np.sum(a_mat * i0 + sigma * slopes[None, :] * i1, axis=1)
    m1 = np.sum(sigma * a_mat * i1 + sigma * sigma * slopes[None, :] * i2, axis=1)

    # left tail: slope slopes[0] anchored at knots[0]
    a_l = vals[0] + slopes[0] * (mu - knots[0])
    i0 = cdf[:, 0]
    i1 = -pdf[:, 0]
    i2 = cdf[:, 0] - z[:, 0] * pdf[:, 0]
    m0 += a_l * i0 + sigma * slopes[0] * i1
    m1 += sigma * a_l * i1 + sigma * sigma * slopes[0] * i2

    # right tail: slope slopes[-1] anchored at knots[-1]
    a_r = vals[-1] + slopes[-1] * (mu - knots[-1])
    i0 = 1.0 - cdf[:, -1]
    i1 = pdf[:, -1]
    i2 = i0 + z[:, -1] * pdf[:, -1]
    m0 += a_r * i0 + sigma * slopes[-1] * i1
    m1 += sigma * a_r * i1 + sigma * sigma * slopes[-1] * i2
    return m0, m1


def _moments_numpy_fast(knots, vals, mu, sigma):
    """Windowed numpy path: only knots within 10 sigma of each query matter."""
    mu = np.asarray(mu, dtype=float)
    n = len(knots)
    reference = lambda v: _moments_numpy(knots, v, mu, sigma)
    if n < 3:
        return _per_row(reference, vals)
    dx = np.diff(knots)
    if abs(dx.max() - dx.min()) > 1e-12 * abs(dx.mean()):
        return _per_row(reference, vals)
    h = dx[0]
    half = int(math.ceil(_ZMAX * sigma / h)) + 1
    if 2 * half >= n - 1:
        return _per_row(reference, vals)

    center = np.clip(((mu - knots[0]) / h).astype(int), 0, n - 1)
    lo = np.clip(center - half, 0, n - 1 - 2 * half)
    cols = lo[:, None] + np.arange(2 * half + 1)[None, :]
    kn = knots[cols]

    z = np.clip((kn - mu[:, None]) / sigma, -38.0, 38.0)
    cdf = ndtr(z)
    pdf = _INV_SQRT2PI * np.exp(-0.5 * z * z)
    gap = np.subtract(mu[:, None], kn, out=kn)  # mu - knot, in kn's buffer: no extra band array
    offset, off_l, off_r = gap[:, :-1], gap[:, 0], gap[:, -1]
    i0 = cdf[:, 1:] - cdf[:, :-1]
    i1 = pdf[:, :-1] - pdf[:, 1:]
    i2 = i0 + z[:, :-1] * pdf[:, :-1] - z[:, 1:] * pdf[:, 1:]
    # window-edge tails extend the local edge segments to +-infinity; the
    # global lattice tails are recovered exactly when the window hits an end
    cdf_l, pdf_l, i2_l = cdf[:, 0], pdf[:, 0], cdf[:, 0] - z[:, 0] * pdf[:, 0]
    t0, pdf_r = 1.0 - cdf[:, -1], pdf[:, -1]
    i2_r = t0 + z[:, -1] * pdf_r

    def moments(v):
        vl = v[cols]
        slopes = (vl[:, 1:] - vl[:, :-1]) / h
        a_mat = vl[:, :-1] + slopes * offset
        m0 = np.sum(a_mat * i0 + sigma * slopes * i1, axis=1)
        m1 = np.sum(sigma * a_mat * i1 + sigma * sigma * slopes * i2, axis=1)
        a_l = vl[:, 0] + slopes[:, 0] * off_l
        m0 += a_l * cdf_l - sigma * slopes[:, 0] * pdf_l
        m1 += -sigma * a_l * pdf_l + sigma * sigma * slopes[:, 0] * i2_l
        a_r = vl[:, -1] + slopes[:, -1] * off_r
        m0 += a_r * t0 + sigma * slopes[:, -1] * pdf_r
        m1 += sigma * a_r * pdf_r + sigma * sigma * slopes[:, -1] * i2_r
        return m0, m1
    return _per_row(moments, vals)


def pl_gauss_moments(knots, vals, mu, sigma):
    """(E[f(X)], E[f(X)(X - mu)]) for PL f and X ~ N(mu, sigma^2), vectorized over mu.

    vals is one row of knot values, or a 2-D array of rows whose moments come
    back as rows of the same shape.
    """
    knots = np.ascontiguousarray(knots, dtype=float)
    vals = np.ascontiguousarray(vals, dtype=float)
    mu = np.ascontiguousarray(np.atleast_1d(mu), dtype=float)
    return _moments_numpy_fast(knots, vals, mu, float(sigma))
