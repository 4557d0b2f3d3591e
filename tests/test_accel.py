import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bdsde import _accel
from bdsde.errors import InvalidArgumentError
from bdsde.grids import build_time_grid, build_volatility_grid
from bdsde.second_order import lattice_bounds


def brute_moments(knots, vals, mu, sigma):
    """Dense-quadrature oracle for the PL-Gaussian moments."""
    t = np.linspace(mu - 12 * sigma, mu + 12 * sigma, 200_001)
    idx = np.clip(np.searchsorted(knots, t) - 1, 0, len(knots) - 2)
    s = (vals[idx + 1] - vals[idx]) / (knots[idx + 1] - knots[idx])
    f = vals[idx] + s * (t - knots[idx])
    w = np.exp(-0.5 * ((t - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    m0 = np.trapezoid(f * w, t)
    m1 = np.trapezoid(f * (t - mu) * w, t)
    return m0, m1


@pytest.mark.parametrize("case", ["quad", "kinked", "rough"])
def test_moments_match_quadrature_oracle(case):
    rng = np.random.default_rng(5)
    knots = np.linspace(-4.0, 4.0, 161)
    if case == "quad":
        vals = knots**2
    elif case == "kinked":
        vals = np.abs(knots - 0.3) + 0.1 * knots
    else:
        vals = rng.standard_normal(knots.shape)
    for sigma in (0.05, 0.4):
        mus = np.array([-3.0, -0.7, 0.0, 1.234, 3.9])
        m0, m1 = _accel.pl_gauss_moments(knots, vals, mus, sigma)
        for q, mu in enumerate(mus):
            e0, e1 = brute_moments(knots, vals, mu, sigma)
            # tolerance limited by the trapezoid oracle, not the kernel
            assert m0[q] == pytest.approx(e0, rel=1e-6, abs=1e-7)
            assert m1[q] == pytest.approx(e1, rel=1e-6, abs=1e-7)


def test_moments_exact_for_linear_function():
    # f(t) = 2t + 1: E[f] = 2 mu + 1, E[f (X-mu)] = 2 sigma^2, for all mu
    knots = np.linspace(-1.0, 1.0, 11)
    vals = 2 * knots + 1
    mus = np.array([-5.0, 0.0, 0.3, 7.0])  # includes far-outside queries
    m0, m1 = _accel.pl_gauss_moments(knots, vals, mus, 0.7)
    np.testing.assert_allclose(m0, 2 * mus + 1, rtol=1e-12)
    np.testing.assert_allclose(m1, 2 * 0.7**2 * np.ones_like(mus), rtol=1e-12)


def test_moments_exact_for_quadratic_on_fine_limit():
    # for f = x^2 the exact answer is mu^2 + sigma^2 plus the PL interp bias,
    # which vanishes as the lattice refines
    sigma = 0.3
    errs = []
    for n in (41, 81, 161):
        knots = np.linspace(-3.0, 3.0, n)
        m0, _ = _accel.pl_gauss_moments(knots, knots**2, np.array([0.2]), sigma)
        errs.append(abs(m0[0] - (0.2**2 + sigma**2)))
    assert errs[0] > errs[1] > errs[2]
    # PL bias is positive for convex data and O(dx^2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)
    assert m0[0] > 0.2**2 + sigma**2


def test_numpy_paths_agree():
    rng = np.random.default_rng(11)
    knots = np.linspace(-2.0, 2.0, 301)
    vals = np.cumsum(rng.standard_normal(knots.shape)) * 0.1
    mus = np.linspace(-1.9, 1.9, 57)
    f0, f1 = _accel.pl_gauss_moments(knots, vals, mus, 0.08)
    r0, r1 = _accel._moments_numpy(knots, vals, mus, 0.08)
    np.testing.assert_allclose(f0, r0, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(f1, r1, rtol=1e-10, atol=1e-14)


def phi_reference(z):
    return np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in z])


def test_ndtr_matches_the_standard_library_over_the_clip_range():
    # the window clips z to [-38, 38] before it takes the normal cdf
    z = np.linspace(-38.0, 38.0, 152_001)
    phi, ref = _accel._ndtr(z), phi_reference(z)
    np.testing.assert_allclose(phi, ref, rtol=0, atol=2.3e-16)
    core = np.abs(z) <= 8.3
    np.testing.assert_allclose(phi[core], ref[core], rtol=1.5e-14, atol=0)


def branch_edges():
    """z at each branch edge of the port, x = z / sqrt(2) at 1/sqrt(2), 1 and 8
    and where exp(-x^2) underflows, with 3 floats either side."""
    edges = math.sqrt(2.0) * np.array([math.sqrt(0.5), 1.0, 8.0, math.sqrt(_accel._MAXLOG)])
    near = [edges]
    for direction in (np.inf, -np.inf):
        z = edges
        for _ in range(3):
            z = np.nextafter(z, direction)
            near.append(z)
    return np.concatenate(near)


def test_ndtr_is_symmetric_monotone_and_keeps_nan():
    z = np.linspace(0.0, 38.0, 380_001)
    phi, mirror = _accel._ndtr(z), _accel._ndtr(-z)
    assert _accel._ndtr(np.zeros(1))[0] == 0.5
    # exp(-x^2) underflows from z = -37.68: Phi is exactly 0 there, as in Cephes
    np.testing.assert_array_equal(_accel._ndtr(np.array([-38.0, -37.7, 37.7, 38.0])),
                                  [0.0, 0.0, 1.0, 1.0])
    assert _accel._ndtr(np.array([-37.6]))[0] > 0
    assert np.all(phi + mirror == 1.0)
    # nondecreasing, so every segment mass i0 = cdf[j + 1] - cdf[j] is >= 0
    assert np.all(np.diff(np.concatenate([mirror[::-1], phi])) >= 0)
    assert (block_lattice()[2].i0 >= 0).all()
    # Cephes steps back by one ulp of Phi where it turns from erf to erfc
    # (z = +-sqrt(2), between adjacent floats of z), far inside any lattice
    # segment; the port keeps that step
    edges = np.sort(np.concatenate([-branch_edges(), branch_edges()]))
    assert np.diff(_accel._ndtr(edges)).min() >= -1.2e-16
    np.testing.assert_allclose(_accel._ndtr(branch_edges()), phi_reference(branch_edges()),
                               rtol=1.5e-14, atol=0)
    out = _accel._ndtr(np.array([[np.nan, 1.0], [-2.0, np.nan]]))
    assert out.shape == (2, 2) and np.isnan(out.diagonal()).all()
    np.testing.assert_allclose([out[0, 1], out[1, 0]], phi_reference([1.0, -2.0]),
                               rtol=1.5e-14, atol=0)


def block_lattice():
    """A lattice window whose rows span several row blocks: (knots, sigma, window)."""
    knots, sigma = np.linspace(-2.0, 2.0, 1601), 0.03
    window = _accel.GaussWindow(knots, knots, sigma)
    assert window.width >= 200
    assert len(knots) * window.width >= 3 * _accel._BLOCK_ENTRIES
    return knots, sigma, window


def test_window_reuse_is_stateless():
    knots, sigma, window = block_lattice()
    rng = np.random.default_rng(4)
    r1, r2 = np.cumsum(rng.standard_normal((2, len(knots))), axis=1) * 0.1
    first, second, again = window.apply(r1), window.apply(r2), window.apply(r1)
    once = _accel.pl_gauss_moments(knots, r1, knots, sigma)
    once2 = _accel.pl_gauss_moments(knots, r2, knots, sigma)
    for m in range(2):
        np.testing.assert_array_equal(first[m], again[m])
        np.testing.assert_array_equal(first[m], once[m])
        np.testing.assert_array_equal(second[m], once2[m])


def exact_lattice(lo, n, k):
    """n knots from lo spaced 2**-k: every knot and every spacing is exact."""
    return lo + np.arange(n) * 2.0**-k


def window_cases():
    """(name, knots, mus, sigma, window): the multi-block lattice, then exact
    lattices with bands of 67 knots, 311 of 2049 (rows span many row blocks)
    and the whole 33-knot lattice, queried on, between and off the knots."""
    knots, sigma, window = block_lattice()
    yield "blocks", knots, knots, sigma, window
    for name, knots, sigma in (("narrow", exact_lattice(-2.0, 257, 6), 0.05),
                               ("block-spanning", exact_lattice(-2.0, 2049, 9), 0.03),
                               ("lattice-wide", exact_lattice(-2.0, 33, 3), 0.5)):
        h, ends = knots[1] - knots[0], knots[[0, 0, -1, -1]]
        mus = np.concatenate([knots, knots[:-1] + 0.37 * h, ends + [-1.3, -0.01, 0.02, 4.0]])
        window = _accel.GaussWindow(knots, mus, sigma)
        assert (window.width == len(knots)) == (name == "lattice-wide")
        yield name, knots, mus, sigma, window


def test_window_blocks_agree_with_reference():
    for name, knots, mus, sigma, window in window_cases():
        rng = np.random.default_rng(6)
        rows = np.cumsum(rng.standard_normal((3, len(knots))), axis=1) * 0.1
        stacked = window.apply(rows)
        # the reference on every 7th query row and the last four
        probe = np.union1d(np.arange(0, len(mus), 7), np.arange(len(mus) - 4, len(mus)))
        for r, v in enumerate(rows):
            single = window.apply(v)
            ref = _accel._moments_numpy(knots, v, mus[probe], sigma)
            for m, (rtol, s, b) in enumerate(zip((1e-12, 1e-10), single, stacked)):
                np.testing.assert_array_equal(b[r], s)
                np.testing.assert_allclose(s[probe], ref[m], rtol=rtol, atol=1e-14,
                                           err_msg=name)


def test_window_caches_only_the_segment_integrals():
    # two (rows, band - 1) float arrays, i0 and i1, plus O(rows): the int64 band
    # columns and the mu - knot band, each (rows, band), must not be kept.  A lattice
    # far from 0, uniform only up to linspace rounding, still gets a band
    # narrower than the lattice.
    shifted = np.linspace(1000.0, 1017.0, 401)
    for knots, window in (block_lattice()[::2],
                          (shifted, _accel.GaussWindow(shifted, shifted, 0.1))):
        q, w = len(knots), window.width
        assert w < q
        slack = 16 * 8 * q
        assert slack < q * w * 8
        owners = {}
        for value in vars(window).values():
            # a view counts as its owner, also through the wrapper that a
            # sliding window view keeps as its base
            while getattr(value, "base", None) is not None:
                value = value.base
            if isinstance(value, np.ndarray):
                owners[id(value)] = value.nbytes
        assert sum(owners.values()) <= 2 * q * (w - 1) * 8 + slack


# m0 of a 2-row stack on a 2049-knot lattice (band 311, 26 rows per row block),
# as float.hex, recorded before m1 was taken by Stein's identity: the apply's
# m0 arithmetic is pinned, operation for operation.  numpy's AVX-512 exp and
# the C library's differ in one last bit on one entry, recorded for each.
M0_PINNED = [
    ["0x1.59a0985379e1bp+2", "0x1.590b0603a1d62p+2", "0x1.07069b23e8842p+2",
     "0x1.d83149dd520e8p-11", "-0x1.c91c6a391228ap-4", "0x1.4c093f3a76defp+1",
     "0x1.4cdaca408d5c8p+1", "0x1.59693f0cd1dc4p+2", "0x1.af90bb8a94d23p-1",
     "-0x1.c818c78263ab5p-4", "0x1.4c56c368bff34p+1", "0x1.703d1eb851f80p+3",
     "0x1.5c9f4929d36aep+2", "0x1.554265f6014ccp+1", "0x1.f959999999933p+3"],
    ["0x1.0000000000000p+0", "0x1.ff80000000000p-1", "0x1.b500000000000p-1",
     "-0x1.fffffc4cc4013p-61", "-0x1.fe27ceb622ae0p-4", "0x1.074fa5a0dd456p+1",
     "0x1.080dfd73c08fbp+1", "0x1.ffd0a3d70a3d7p-1", "0x1.43a147ae147aep-2",
     "-0x1.fbc0cc0f51564p-4", "0x1.07960f2f67e2ep+1", "0x1.a666666666666p+0",
     "0x1.0147ae147ae14p+0", "0x1.0fb0fd83512c2p+1", "0x1.c1c0000000000p+3"],
]
M0_PINNED_LIBM_EXP = {(1, 4): "-0x1.fe27ceb622adfp-4"}


def test_window_m0_keeps_its_pinned_bits():
    knots = exact_lattice(-2.0, 2049, 9)
    h = knots[1] - knots[0]
    mus = np.concatenate([knots, knots[:-1] + 0.37 * h,
                          knots[[0, 0, -1, -1]] + [-1.3, -0.01, 0.02, 4.0]])
    rows = np.array([knots**2 - 0.7 * knots, np.maximum(knots - 0.25, 0.0) ** 2 - 0.5 * knots])
    window = _accel.GaussWindow(knots, mus, 0.03)
    assert window.width == 311 and len(mus) // (_accel._BLOCK_ENTRIES // (2 * 311)) > 100
    m0 = window.apply(rows)[0]
    # on the knots (ends, middle and past the kink), between them and off the lattice
    probe = [0, 1, 150, 1024, 1152, 2047, 2048, 2049, 2749, 3200, 4096, 4097, 4098, 4099, 4100]
    got = [[float(m0[r, j]).hex() for j in probe] for r in range(2)]
    libm = [list(row) for row in M0_PINNED]
    for (r, k), v in M0_PINNED_LIBM_EXP.items():
        libm[r][k] = v
    assert got in (M0_PINNED, libm)


@given(n=st.integers(2, 400), start=st.floats(-50.0, 50.0), h=st.floats(1e-3, 1.0),
       bands=st.floats(0.02, 1.0), frac=st.floats(0.0, 1.0, exclude_max=True),
       off=st.floats(0.0, 30.0), seed=st.integers(0, 2**20))
# bands of 19 and 243 of 400 knots; one band spanning the lattice
@example(n=400, start=-2.0, h=0.01, bands=0.02, frac=0.37, off=1.3, seed=1)
@example(n=400, start=7.5, h=0.01, bands=0.3, frac=0.5, off=0.02, seed=2)
@example(n=33, start=-2.0, h=0.125, bands=1.0, frac=0.0, off=4.0, seed=3)
def test_window_apply_does_not_depend_on_the_row_blocks(n, start, h, bands, frac, off, seed):
    # sigma from a band of a few knots (bands -> 0) to past the whole lattice
    # (bands = 1); the queries sit on the knots, at frac of each segment and
    # off both ends
    knots = np.linspace(start, start + (n - 1) * h, n)
    sigma = bands * n * h / 10.0
    mus = np.concatenate([knots, knots[:-1] + frac * h,
                          knots[[0, 0, -1, -1]] + [-off, -0.5 * h, 0.5 * h, off]])
    window = _accel.GaussWindow(knots, mus, sigma)
    rows = np.cumsum(np.random.default_rng(seed).standard_normal((3, n)), axis=1) * 0.1
    for vals in (rows[0], rows):
        stack = 1 if vals.ndim == 1 else len(vals)
        results = []
        # one row per block, the default, and the whole window in one block
        for entries in (1, _accel._BLOCK_ENTRIES, stack * len(mus) * window.width):
            with mock.patch.object(_accel, "_BLOCK_ENTRIES", entries):
                results.append(window.apply(vals))
        for m0, m1 in results[1:]:
            assert m0.tobytes() == results[0][0].tobytes()
            assert m1.tobytes() == results[0][1].tobytes()


@pytest.mark.parametrize("sigma", [0.03, 0.2, 0.7])
def test_window_m1_is_steins_identity_on_a_kink(sigma):
    # f = |x - c| + 2x, c a knot: f' is 1 left of c and 3 right of it, so
    # m1 = sigma^2 E[f'(X)] = sigma^2 (1 + 2 Phi((mu - c) / sigma))
    knots = np.linspace(-2.0, 2.0, 401)
    h, c = knots[1] - knots[0], knots[150]
    mus = np.concatenate([knots, knots[:-1] + 0.37 * h, [-9.0, -2.5, 2.01, 6.0],
                          [c, c + 1e-3, c - 0.05]])
    m1 = _accel.GaussWindow(knots, mus, sigma).apply(np.abs(knots - c) + 2 * knots)[1]
    exact = sigma**2 * (1.0 + 2.0 * phi_reference((mus - c) / sigma))
    np.testing.assert_allclose(m1, exact, rtol=5e-14, atol=0)


@pytest.mark.parametrize("sigma", [0.0, -0.0, -0.3, np.nan, np.inf, -np.inf])
def test_window_refuses_a_sigma_that_is_not_positive_and_finite(sigma):
    knots = np.linspace(-1.0, 1.0, 21)
    with pytest.raises(InvalidArgumentError, match=f"sigma, got {sigma}$"):
        _accel.GaussWindow(knots, knots, sigma)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_window_refuses_a_non_finite_mu(bad):
    knots = np.linspace(-1.0, 1.0, 21)
    mu = knots.copy()
    mu[[3, 7]] = bad
    with pytest.raises(InvalidArgumentError, match=re.escape(f"mu[3] = {bad}")):
        _accel.GaussWindow(knots, mu, 0.1)
    with pytest.raises(InvalidArgumentError, match=re.escape(f"mu[0] = {bad}")):
        _accel.pl_gauss_moments(knots, knots, bad, 0.1)


@pytest.mark.parametrize("mu", [1e300, -1e300, 1.7e308])
def test_window_takes_a_huge_finite_mu_without_a_warning(mu):
    # finite moments, those of the linear extension, or a refusal naming the value
    knots = np.linspace(-1.0, 1.0, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m0, m1 = _accel.pl_gauss_moments(knots, knots**2, [mu], 0.1)
        except InvalidArgumentError as exc:
            assert f"mu[0] = {mu}" in str(exc)
            return
    slope = (knots[-1]**2 - knots[-2]**2) / (knots[-1] - knots[-2])
    assert m0[0] == pytest.approx(1.0 + slope * (abs(mu) - 1.0), rel=1e-12)
    assert np.isfinite(m1).all()


@pytest.mark.parametrize("sigma", [1e-300, 0.1, 1e6])
def test_window_keeps_a_valid_inputs_bits(sigma):
    # the checks read sigma and mu and change neither: the window holds them
    # bit for bit, and each query's moments are those of its own window
    knots = np.linspace(-1.0, 1.0, 21)
    mus = np.array([-40.0, -1.0, -0.13, 0.0, 0.5, 1.0, 40.0])
    vals = knots**2 - knots
    window = _accel.GaussWindow(knots, mus, np.float64(sigma))
    assert window.sigma == sigma and np.array_equal(window.mu, mus)
    m0, m1 = window.apply(vals)
    assert np.isfinite(m0).all() and np.isfinite(m1).all()
    for j, mu in enumerate(mus):
        one = _accel.GaussWindow(knots, mu, sigma).apply(vals)
        assert (one[0][0], one[1][0]) == (m0[j], m1[j])


@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("n, x_steps", [(64, 400), (16, 800), (32, 200)])
def test_lattice_operator_is_monotone_off_the_edge_band(n, x_steps, a):
    """The one-step lattice operator (the weights of each knot's value in
    the moment m0 at each query knot) has no negative weight beyond
    rounding in rows at least ceil(10 sigma / h) + 1 knots from both ends:
    the worst over these cases is -2.1e-14.

    The edge band is a known weak spot: the linear extension of the values
    beyond the lattice's ends gives negative weights in the rows nearest
    each end (-1.57 at n = 64, x_steps = 400, a = 2; -6.6 at n = 16,
    x_steps = 800, a = 2), so within the band the operator is not monotone.
    """
    grid = build_time_grid(0, 1, n)
    xs = np.linspace(*lattice_bounds(grid, build_volatility_grid(0.5, 2.0, 5), 0.0, 6.0),
                     x_steps + 1)
    sigma = math.sqrt(a * grid.dt)
    weights = _accel.GaussWindow(xs, xs, sigma).apply(np.eye(len(xs)))[0].T  # [query, knot]
    band = math.ceil(10 * sigma / (xs[1] - xs[0])) + 1
    assert weights[band:len(xs) - band].min() >= -1e-13
    assert weights[:band].min() < -0.1 and weights[len(xs) - band:].min() < -0.1


def test_linear_interp_extends_linearly():
    knots = np.linspace(0.0, 1.0, 5)
    vals = 3 * knots + 2
    xq = np.array([-1.0, 0.1, 2.0])
    np.testing.assert_allclose(_accel.linear_interp(xq, knots, vals), 3 * xq + 2)
