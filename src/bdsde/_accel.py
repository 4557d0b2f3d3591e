"""Hot numeric kernels, in numpy.

The central kernel computes, for a piecewise-linear function f tabulated on
knots (with linear extension beyond both ends) and X ~ N(mu, sigma^2),

    m0 = E[f(X)]        and        m1 = E[f(X) * (X - mu)]

in closed form segment by segment.  This is the one-step conditional
expectation used by the dynamic-programming solver and its diagnostics.
m1 comes from Stein's identity, E[f(X)(X - mu)] = sigma^2 E[f'(X)] (Stein,
Ann. Statist. 9(6), 1981): sigma^2 times each slope of f times the Gaussian
mass of its segment.

`GaussWindow` is the one implementation, split into a setup and an apply.
The setup, for fixed (knots, mu, sigma) on a uniform lattice at any offset,
restricts each query to the knots within 10 sigma, or to the whole lattice
when that band would span it, and keeps what no value row changes: each
query's band start, the segment integrals i0 (mass) and i1 (pdf drop) over
its band and four tail vectors.  The apply combines one value row, or a
stack of rows (one per backward path), against them; each row's moments are
bit for bit those of a call with that row alone.  Both walk the queries in
row blocks of at most _BLOCK_ENTRIES band entries, and the knot band and its
mu - knot offsets are gathered per block rather than stored, so the window
holds two (queries, band) arrays and no temporary grows with the lattice.
Per block, the apply does band arithmetic alone: it gathers the band's
slopes, knots and values, sums a i0 + sigma slope i1 into m0 and dots the
slopes with i0 into m1.  Once per apply, over every query, it takes the
row's slopes and the two edge tails, which extend each band's end segments
to +-infinity and are added after the band sums.  A lattice solver builds
one window per volatility and step size and applies it at every step;
`pl_gauss_moments` is setup-then-apply in one call.
Knots must be increasing and uniform up to `linspace` rounding; anything
else raises `InvalidArgumentError`.  The setup's normal cdf is `_ndtr`, a
numpy port of Cephes `ndtr`.  `_moments_numpy`, the same moments over full
query-by-knot matrices with each segment's own width, m1 by direct
integration and the normal cdf of `math.erfc`, is kept only as the oracle
the tests compare the window against.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidArgumentError

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_ZMAX = 10.0  # Gaussian mass beyond 10 sigma is ~1e-23; segments outside are skipped
_BLOCK_ENTRIES = 1 << 14  # band entries per row block: its temporaries stay in cache
_UNIFORM_ULPS = 8  # linspace knots are uniform to ~3 ulp of max|knot| at any offset
_MU_MAX = 1e300  # |mu| beyond it: slope * (mu - knot) overflows for slopes above ~1e8


# Cephes `ndtr` (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), on W. J. Cody's rational Chebyshev erf and erfc (Math. Comp. 23, 1969)
_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2   # log(DBL_MAX): exp(-x^2) underflows beyond it
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)


def _polevl(x, coefs):
    """Horner's rule, highest power first."""
    y = coefs[0] * x
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def _p1evl(x, coefs):
    """Horner's rule with an implicit leading coefficient 1."""
    y = x + coefs[0]
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _erf(x):
    """erf(x) for |x| <= 1."""
    x2 = x * x
    return x * _polevl(x2, _ERF_T) / _p1evl(x2, _ERF_U)


def _half_erfc(x, num, den):
    """0.5 erfc(x) = 0.5 exp(-x^2) P(x) / Q(x) for 1 <= x and x^2 <= _MAXLOG."""
    y = np.exp(-x * x)
    y *= _polevl(x, num)
    y /= _p1evl(x, den)
    y *= 0.5
    return y


def _ndtr(z):
    """Normal cdf, Cephes `ndtr` in numpy with its branches, coefficients and
    operation order.  Each branch runs on its own entries only, and NaN,
    which fails every branch test, stays NaN."""
    x = np.multiply(z, _SQRT1_2, dtype=float).ravel()
    ax = np.abs(x)
    y = np.full_like(x, np.nan)
    # 0.5 erfc(|x|) from |x| = 1/sqrt(2): 1 - erf below 1, P/Q below 8, R/S
    # from 8 and 0 once exp(-x^2) underflows; then 1 - y for x > 0
    small = np.flatnonzero(ax < 1.0)
    near = ax[small] < _SQRT1_2
    i = small[~near]
    y[i] = 0.5 * (1.0 - _erf(ax[i]))
    i = np.flatnonzero((ax >= 1.0) & (ax < 8.0))
    y[i] = _half_erfc(ax[i], _ERFC_P, _ERFC_Q)
    i = np.flatnonzero(ax >= 8.0)
    under = ax[i] * ax[i] > _MAXLOG
    y[i[under]] = 0.0
    i = i[~under]
    y[i] = _half_erfc(ax[i], _ERFC_R, _ERFC_S)
    y = np.where(x > 0, 1.0 - y, y)
    # 0.5 + 0.5 erf(x) below |x| = 1/sqrt(2)
    i = small[near]
    y[i] = 0.5 + 0.5 * _erf(x[i])
    return y.reshape(np.shape(z))


def linear_interp(xq, knots, vals):
    """Piecewise-linear interpolation along the last axis of vals, with linear
    extension beyond the ends."""
    xq = np.asarray(xq, dtype=float)
    idx = np.clip(np.searchsorted(knots, xq) - 1, 0, len(knots) - 2)
    slope = (vals[..., idx + 1] - vals[..., idx]) / (knots[idx + 1] - knots[idx])
    return vals[..., idx] + slope * (xq - knots[idx])


# the oracle's own normal cdf, from the standard library, independent of _ndtr
_phi_erfc = np.frompyfunc(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)), 1, 1)


def _moments_numpy(knots, vals, mu, sigma):
    """Test oracle for `GaussWindow`: full (n_query, n_knot) matrices, each
    segment with its own width, on any increasing knots."""
    mu = np.asarray(mu, dtype=float)
    z = (knots[None, :] - mu[:, None]) / sigma
    z = np.clip(z, -38.0, 38.0)
    cdf = _phi_erfc(z).astype(float)
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


def _windows(rows, width):
    """Read-only windows of `width` entries along the last axis of a contiguous
    array: entry k of window j is rows[..., j + k], a view."""
    shape = rows.shape[:-1] + (rows.shape[-1] - width + 1, width)
    return as_strided(rows, shape, rows.strides + rows.strides[-1:], writeable=False)


class GaussWindow:
    """The Gaussian terms of the moments for fixed (knots, mu, sigma).

    Each query mu[j] sees only the band of `width` knots from lo[j]: those
    within 10 sigma of it, or all knots when that band would span the
    lattice, in which case lo is 0 and the band's edge tails are the
    lattice's own.  The window keeps lo, the segment integrals i0 and i1
    over each band and four tail vectors, and `apply` combines value rows
    against them: m0 from both, m1 by Stein's identity from i0 and the tail
    masses alone.  The knots must number at least 2 and be increasing and
    uniform up to `linspace` rounding, at any offset; slopes use the one
    spacing h of the first segment.
    """

    def __init__(self, knots, mu, sigma):
        self.knots = knots = np.ascontiguousarray(knots, dtype=float)
        self.mu = mu = np.ascontiguousarray(np.atleast_1d(mu), dtype=float)
        self.sigma = sigma = float(sigma)
        if not 0.0 < sigma < math.inf:
            raise InvalidArgumentError(f"the kernel needs a positive, finite sigma, got {sigma}")
        if not (np.abs(mu) <= _MU_MAX).all():
            j = int(np.argmin(np.abs(mu) <= _MU_MAX))
            raise InvalidArgumentError(
                f"the kernel needs |mu| <= {_MU_MAX:g}, got mu[{j}] = {mu[j]}")
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

        # a mu beyond the lattice sees every band knot at |z| > 38, as it does clipped
        # to 40 sigma and one step past the ends, where no cast or division overflows
        near = np.clip(mu, knots[0] - 40.0 * sigma - h, knots[-1] + 40.0 * sigma + h)
        center = np.clip((near - knots[0]) / h, 0, n - 1).astype(int)
        self.lo = np.clip(center - half, 0, n - self.width)
        self.i0, self.i1 = np.empty((2, len(mu), self.width - 1))
        # window-edge tails extend the local edge segments to +-infinity; the
        # global lattice tails are recovered exactly when the window hits an end
        self.tails = np.empty((4, len(mu)))   # cdf_l, pdf_l, t0 = 1 - cdf_r, pdf_r
        self.knot_band = _windows(knots, self.width - 1)  # a view of the knots
        band = _windows(knots, self.width)
        for rows in self._blocks(1):
            z = np.clip((band[self.lo[rows]] - near[rows, None]) / sigma, -38.0, 38.0)
            cdf = _ndtr(z)
            pdf = _INV_SQRT2PI * np.exp(-0.5 * z * z)
            np.subtract(cdf[:, 1:], cdf[:, :-1], out=self.i0[rows])
            np.subtract(pdf[:, :-1], pdf[:, 1:], out=self.i1[rows])
            self.tails[:, rows] = cdf[:, 0], pdf[:, 0], 1.0 - cdf[:, -1], pdf[:, -1]

    def _blocks(self, stack):
        """Row slices of at most _BLOCK_ENTRIES band entries for `stack` value rows."""
        step = max(1, _BLOCK_ENTRIES // (stack * self.width))
        return (slice(r, r + step) for r in range(0, len(self.mu), step))

    def apply(self, vals):
        """(m0, m1) of one row of knot values, or row by row of a 2-D stack."""
        vals = np.ascontiguousarray(vals, dtype=float)
        knots, mu, sigma, lo = self.knots, self.mu, self.sigma, self.lo
        seg = self.width - 1
        slope = np.diff(vals) / self.h
        # a band's slopes and left values are windows of the whole row's
        slope_band, val_band = _windows(slope, seg), _windows(vals, seg)
        m0 = np.empty(vals.shape[:-1] + mu.shape)
        m1 = np.empty_like(m0)
        for rows in self._blocks(1 if vals.ndim == 1 else len(vals)):
            lo_b, i0 = lo[rows], self.i0[rows]
            s = slope_band[..., lo_b, :]
            # m1 = sigma^2 E[f'(X)] by Stein's identity: each slope times its mass
            np.vecdot(s, i0, out=m1[..., rows])
            a = self.knot_band[lo_b]
            np.subtract(mu[rows, None], a, out=a)     # mu - knot
            a = s * a
            a += val_band[..., lo_b, :]               # a = v + s (mu - knot)
            # m0: the sum of a i0 + sigma s i1
            a *= i0
            s *= sigma
            s *= self.i1[rows]
            a += s
            np.add.reduce(a, axis=-1, out=m0[..., rows])
        # the band's edge segments extended to +-infinity, for every query at once
        cdf_l, pdf_l, t0, pdf_r = self.tails
        hi = lo + seg
        s_l, s_r = slope[..., lo], slope[..., hi - 1]
        a_l = vals[..., lo] + s_l * (mu - knots[lo])
        a_r = vals[..., hi] + s_r * (mu - knots[hi])
        m0 += a_l * cdf_l - sigma * s_l * pdf_l
        m0 += a_r * t0 + sigma * s_r * pdf_r
        m1 += s_l * cdf_l + s_r * t0
        m1 *= sigma * sigma
        return m0, m1


def pl_gauss_moments(knots, vals, mu, sigma):
    """(E[f(X)], E[f(X)(X - mu)]) for PL f and X ~ N(mu, sigma^2), vectorized over mu.

    vals is one row of knot values, or a 2-D array of rows whose moments come
    back as rows of the same shape.
    """
    return GaussWindow(knots, mu, sigma).apply(vals)
