"""Hot numeric kernels, in numpy.

The central kernel computes, for a piecewise-linear function f tabulated on
knots (with linear extension beyond both ends) and X ~ N(mu, sigma^2),

    m0 = E[f(X)]        and        m1 = E[f(X) * (X - mu)]

in closed form segment by segment.  This is the one-step conditional
expectation used by the dynamic-programming solver and its diagnostics.

`GaussWindow` is the one implementation, split into a setup and an apply.
The setup, for fixed (knots, mu, sigma) on a uniform lattice at any offset,
restricts each query to the knots within 10 sigma, or to the whole lattice
when that band would span it, and keeps what no value row changes: each
query's band start, the segment integrals i0, i1, i2 over its band and six
tail vectors.  The apply combines one value row, or a stack of rows (one
per backward path), against them; each row's moments are bit for bit those
of a call with that row alone.  Both walk the queries in row blocks of at
most _BLOCK_ENTRIES band entries, and the knot band and its mu - knot
offsets are gathered per block rather than stored, so the window holds
three (queries, band) arrays and no temporary grows with the lattice.  A
lattice solver builds one window per volatility and step size and applies
it at every step; `pl_gauss_moments` is setup-then-apply in one call.
Knots must be increasing and uniform up to `linspace` rounding; anything
else raises `InvalidArgumentError`.  `_moments_numpy`, the same moments
over full query-by-knot matrices with each segment's own width, is kept
only as the oracle the tests compare the window against.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_ZMAX = 10.0  # Gaussian mass beyond 10 sigma is ~1e-23; segments outside are skipped
_BLOCK_ENTRIES = 1 << 14  # band entries per row block: its temporaries stay in cache
_UNIFORM_ULPS = 8  # linspace knots are uniform to ~3 ulp of max|knot| at any offset


def _ndtr(z):
    """Normal cdf; scipy.special loads on the first kernel call, not on import."""
    from scipy.special import ndtr
    return ndtr(z)


def linear_interp(xq, knots, vals):
    """Piecewise-linear interpolation along the last axis of vals, with linear
    extension beyond the ends."""
    xq = np.asarray(xq, dtype=float)
    idx = np.clip(np.searchsorted(knots, xq) - 1, 0, len(knots) - 2)
    slope = (vals[..., idx + 1] - vals[..., idx]) / (knots[idx + 1] - knots[idx])
    return vals[..., idx] + slope * (xq - knots[idx])


def _moments_numpy(knots, vals, mu, sigma):
    """Test oracle for `GaussWindow`: full (n_query, n_knot) matrices, each
    segment with its own width, on any increasing knots."""
    mu = np.asarray(mu, dtype=float)
    z = (knots[None, :] - mu[:, None]) / sigma
    z = np.clip(z, -38.0, 38.0)
    cdf = _ndtr(z)
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


class GaussWindow:
    """The Gaussian terms of the moments for fixed (knots, mu, sigma).

    Each query mu[j] sees only the band of `width` knots from lo[j]: those
    within 10 sigma of it, or all knots when that band would span the
    lattice, in which case lo is 0 and the band's edge tails are the
    lattice's own.  The window keeps lo, the segment integrals i0, i1, i2
    over each band and six tail vectors, and `apply` combines value rows
    against them.  The knots must number at least 2 and be increasing and
    uniform up to `linspace` rounding, at any offset; slopes use the one
    spacing h of the first segment.
    """

    def __init__(self, knots, mu, sigma):
        self.knots = knots = np.ascontiguousarray(knots, dtype=float)
        self.mu = mu = np.ascontiguousarray(np.atleast_1d(mu), dtype=float)
        self.sigma = sigma = float(sigma)
        n = len(knots)
        if n < 2:
            raise InvalidArgumentError(f"the kernel needs at least 2 knots, got {n}")
        dx = np.diff(knots)
        self.h = h = dx[0]
        slack = _UNIFORM_ULPS * np.spacing(np.abs(knots).max())
        if not (h > 0 and np.abs(dx - h).max() <= slack):
            raise InvalidArgumentError("kernel knots must be increasing and uniformly spaced")
        half = int(math.ceil(_ZMAX * sigma / h)) + 1
        self.width = min(2 * half + 1, n)

        center = np.clip(((mu - knots[0]) / h).astype(int), 0, n - 1)
        self.lo = np.clip(center - half, 0, n - self.width)
        self.i0, self.i1, self.i2 = (np.empty((len(mu), self.width - 1)) for _ in range(3))
        # window-edge tails extend the local edge segments to +-infinity; the
        # global lattice tails are recovered exactly when the window hits an end
        self.tails = np.empty((6, len(mu)))   # cdf_l, pdf_l, i2_l, t0, pdf_r, i2_r
        band = sliding_window_view(knots, self.width)
        for rows in self._blocks(1):
            z = np.clip((band[self.lo[rows]] - mu[rows, None]) / sigma, -38.0, 38.0)
            cdf = _ndtr(z)
            pdf = _INV_SQRT2PI * np.exp(-0.5 * z * z)
            zpdf = z * pdf
            i0 = np.subtract(cdf[:, 1:], cdf[:, :-1], out=self.i0[rows])
            np.subtract(pdf[:, :-1], pdf[:, 1:], out=self.i1[rows])
            self.i2[rows] = i0 + zpdf[:, :-1] - zpdf[:, 1:]
            t0 = 1.0 - cdf[:, -1]
            self.tails[:, rows] = (cdf[:, 0], pdf[:, 0], cdf[:, 0] - zpdf[:, 0],
                                   t0, pdf[:, -1], t0 + zpdf[:, -1])

    def _blocks(self, stack):
        """Row slices of at most _BLOCK_ENTRIES band entries for `stack` value rows."""
        step = max(1, _BLOCK_ENTRIES // (stack * self.width))
        return (slice(r, r + step) for r in range(0, len(self.mu), step))

    def apply(self, vals):
        """(m0, m1) of one row of knot values, or row by row of a 2-D stack."""
        vals = np.ascontiguousarray(vals, dtype=float)
        knots, mu, sigma = self.knots, self.mu, self.sigma
        seg = self.width - 1
        # a band's slopes and left values are windows of the whole row's
        slope_band = sliding_window_view(np.diff(vals) / self.h, seg, axis=-1)
        val_band = sliding_window_view(vals, seg, axis=-1)
        knot_band = sliding_window_view(knots, seg)
        cdf_l, pdf_l, i2_l, t0, pdf_r, i2_r = self.tails
        m0 = np.empty(vals.shape[:-1] + mu.shape)
        m1 = np.empty_like(m0)
        for rows in self._blocks(1 if vals.ndim == 1 else len(vals)):
            lo, mu_b = self.lo[rows], mu[rows]
            i0, i1, i2 = self.i0[rows], self.i1[rows], self.i2[rows]
            slopes = slope_band[..., lo, :]
            offset = knot_band[lo]
            np.subtract(mu_b[:, None], offset, out=offset)     # mu - knot
            a_mat = val_band[..., lo, :]
            a_mat += slopes * offset
            # the sums of a_mat i0 + sigma slopes i1 and of
            # sigma a_mat i1 + sigma^2 slopes i2, in two reused buffers
            t = a_mat * i0
            u = np.multiply(slopes, sigma)
            u *= i1
            t += u
            s0 = np.sum(t, axis=-1)
            np.multiply(a_mat, sigma, out=t)
            t *= i1
            np.multiply(slopes, sigma * sigma, out=u)
            u *= i2
            t += u
            s1 = np.sum(t, axis=-1)
            a_l, s_l, s_r = a_mat[..., 0], slopes[..., 0], slopes[..., -1]
            s0 += a_l * cdf_l[rows] - sigma * s_l * pdf_l[rows]
            s1 += -sigma * a_l * pdf_l[rows] + sigma * sigma * s_l * i2_l[rows]
            hi = lo + seg
            a_r = vals[..., hi] + s_r * (mu_b - knots[hi])
            s0 += a_r * t0[rows] + sigma * s_r * pdf_r[rows]
            s1 += sigma * a_r * pdf_r[rows] + sigma * sigma * s_r * i2_r[rows]
            m0[..., rows], m1[..., rows] = s0, s1
        return m0, m1


def pl_gauss_moments(knots, vals, mu, sigma):
    """(E[f(X)], E[f(X)(X - mu)]) for PL f and X ~ N(mu, sigma^2), vectorized over mu.

    vals is one row of knot values, or a 2-D array of rows whose moments come
    back as rows of the same shape.
    """
    return GaussWindow(knots, mu, sigma).apply(vals)
