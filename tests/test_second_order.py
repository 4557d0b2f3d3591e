import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bdsde import _accel, second_order
from bdsde.classical import READINGS, backward_step, solve_tree
from bdsde.config import ExperimentConfig
from bdsde.doss import FlowCoefficient, build_y_lattice, solve_flow, transform_solution
from bdsde.errors import (
    ConvergenceError,
    InvalidArgumentError,
    NonFiniteError,
    VerificationError,
)
from bdsde.grids import (
    build_time_grid,
    build_tree,
    build_volatility_grid,
    sample_backward_path,
    sample_forward_ensemble,
)
from bdsde.problems import REGISTRY
from bdsde.second_order import (
    DpOptions,
    TbdsdeProblem,
    extract_k,
    feynman_kac_residual,
    hamiltonian,
    lattice_bounds,
    lattice_cond,
    minimality_gap,
    solve_dp,
)

FZERO = lambda t, x, y, z, a: np.zeros_like(np.asarray(x, dtype=float))
ZERO = lambda t, x, y, z: np.zeros_like(np.asarray(x, dtype=float))
HALF_Y = lambda t, x, y, z: 0.5 * y


def bsb_problem(terminal=lambda x: x**2, g=ZERO, n_a=5, reading="ito"):
    vg = build_volatility_grid(0.5, 2.0, n_a)
    return TbdsdeProblem(terminal=terminal, F=FZERO, g=g, volgrid=vg, reading=reading)


def best_constant_gap(prob, sol, grid, w):
    """y0 minus the best constant-control value, each solved under prob's reading."""
    best = max(solve_tree(prob.classical_problem(float(a)),
                          build_tree(grid, float(a), x0=1.0), w).y0
               for a in prob.finite_volatilities())
    return sol.y0 - best


class TestSingletonReduction:
    def test_tree_backend_matches_classical_nodewise(self):
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_path(grid, seed=7)
        vg = build_volatility_grid(1.0, 1.0, 1)
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO,
                             g=lambda t, x, y, z: 0.3 * np.cos(y), volgrid=vg)
        sol2 = solve_dp(prob, grid, w, x0=1.0)
        tree = build_tree(grid, 1.0, x0=1.0)
        sol1 = solve_tree(prob.classical_problem(1.0), tree, w)
        for i in range(grid.n_steps + 1):
            assert np.max(np.abs(sol2.Y[i] - sol1.y[i])) < 1e-10
        assert extract_k(sol2, volatility=1.0).k_terminal == 0.0

    def test_backend_follows_finite_volatilities(self):
        grid = build_time_grid(0, 1, 4)
        w = sample_backward_path(grid, seed=1)
        assert solve_dp(bsb_problem(), grid, w, opts=DpOptions(x_steps=40)).backend == "lattice"
        singleton = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO,
                                  volgrid=build_volatility_grid(1.0, 1.0, 1))
        assert solve_dp(singleton, grid, w).backend == "tree"


class TestInputs:
    @pytest.mark.parametrize("kwargs, match", [
        ({"x_steps": 2.5}, "x_steps must be an integer >= 1, got 2.5"),
        ({"x_steps": 0}, "x_steps must be an integer >= 1, got 0"),
        ({"span_sigmas": -1.0}, "span_sigmas must be positive and finite, got -1.0"),
        ({"span_sigmas": math.nan}, "span_sigmas must be positive and finite, got nan")])
    def test_dp_options_refuse_an_invalid_value(self, kwargs, match):
        with pytest.raises(InvalidArgumentError, match=match):
            DpOptions(**kwargs)

    def test_dp_options_store_an_integral_x_steps_as_an_int(self):
        opts = DpOptions(x_steps=40.0)
        assert type(opts.x_steps) is int and opts == DpOptions(x_steps=40)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n_a", [1, 3])
    def test_solve_dp_refuses_a_non_finite_start(self, x0, n_a):
        grid = build_time_grid(0, 1, 4)
        with pytest.raises(InvalidArgumentError, match=f"x0 must be one finite start, got {x0}"):
            solve_dp(bsb_problem(n_a=n_a), grid, sample_backward_path(grid, seed=1), x0=x0,
                     opts=DpOptions(x_steps=20))


class TestBsbOracle:
    def test_value_and_argmax(self):
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_path(grid, seed=1)
        sol = solve_dp(bsb_problem(), grid, w, x0=1.0, opts=DpOptions(x_steps=400))
        assert sol.y0 == pytest.approx(3.0, rel=0.02)
        frac = np.mean([np.mean(np.asarray(a) == 2.0) for a in sol.argmax_a[:-1]])
        assert frac >= 0.99

    def test_error_halves_with_dt(self):
        errs = []
        for n, xs in [(16, 100), (32, 200), (64, 400)]:
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, seed=1)
            sol = solve_dp(bsb_problem(), grid, w, x0=1.0, opts=DpOptions(x_steps=xs))
            errs.append(abs(sol.y0 - 3.0))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.3)

    def test_interpolation_bias_grows_linearly_in_n(self):
        # each step adds the piecewise-linear bias of the quadratic value, its
        # mean over a lattice cell h^2 / 6; h = 12 sqrt(2) / x_steps spans
        # 6 sigmas of a_high = 2 over T = 1 either side of x0
        for x_steps in (200, 400):
            h = 12 * np.sqrt(2) / x_steps
            for n in (16, 32, 64):
                grid = build_time_grid(0, 1, n)
                w = sample_backward_path(grid, seed=1)
                sol = solve_dp(bsb_problem(), grid, w, x0=1.0,
                               opts=DpOptions(x_steps=x_steps))
                assert sol.y0 - 3.0 == pytest.approx(n * h**2 / 6, rel=0.02)

    def test_shifted_lattice_translates(self):
        # terminal (x - c)^2 from x0 = c is the c = 0 problem moved along x; a
        # lattice around c = 300 is uniform only up to linspace rounding
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, seed=1)
        y0 = [solve_dp(bsb_problem(lambda x, c=c: (x - c) ** 2), grid, w, x0=c,
                       opts=DpOptions(x_steps=400)).y0 for c in (0.0, 300.0)]
        assert y0[1] == pytest.approx(y0[0], rel=1e-13)

    def test_concave_terminal_selects_low_volatility(self):
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_path(grid, seed=1)
        sol = solve_dp(bsb_problem(terminal=lambda x: -(x**2)), grid, w, x0=1.0,
                       opts=DpOptions(x_steps=400))
        assert sol.y0 == pytest.approx(-1.5, rel=0.02)
        frac = np.mean([np.mean(np.asarray(a) == 0.5) for a in sol.argmax_a[:-1]])
        assert frac >= 0.99

    def test_volgrid_enlargement_never_decreases_value(self):
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, seed=3)
        opts = DpOptions(x_steps=200)
        small = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO,
                              volgrid=build_volatility_grid(1.0, 1.5, 2))
        big = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO,
                            volgrid=build_volatility_grid(0.5, 2.0, 7))
        # the 7-point grid on [0.5, 2] contains both points of [1, 1.5]
        assert set(np.round(small.volgrid.a_values, 12)).issubset(
            set(np.round(big.volgrid.a_values, 12)))
        y_small = solve_dp(small, grid, w, x0=1.0, opts=opts).y0
        y_big = solve_dp(big, grid, w, x0=1.0, opts=opts).y0
        assert y_big >= y_small - 1e-10

    def test_refinement_differences_decrease(self):
        vals = []
        for n, xs in [(8, 50), (16, 100), (32, 200), (64, 400)]:
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, seed=1)
            vals.append(solve_dp(bsb_problem(), grid, w, x0=1.0,
                                 opts=DpOptions(x_steps=xs)).y0)
        diffs = np.abs(np.diff(vals))
        assert diffs[0] > diffs[1] > diffs[2]


class TestCompensator:
    def setup_method(self):
        self.grid = build_time_grid(0, 1, 32)
        self.w = sample_backward_path(self.grid, seed=5)
        self.prob = bsb_problem()
        self.sol = solve_dp(self.prob, self.grid, self.w, x0=1.0,
                            opts=DpOptions(x_steps=200))

    @pytest.mark.parametrize("reading", READINGS)
    @pytest.mark.parametrize("terminal", [lambda x: x**2, lambda x: -(x**2)],
                             ids=["convex", "concave"])
    def test_argmax_compensator_vanishes(self, terminal, reading):
        prob = bsb_problem(terminal=terminal, g=HALF_Y, reading=reading)
        sol = solve_dp(prob, self.grid, self.w, x0=1.0, opts=DpOptions(x_steps=200))
        # at every step and node the argmax control's defect is exactly 0
        assert np.all(sol.meta["defects"].min(axis=1) == 0.0)
        # the gap is measured under the solve's own reading
        assert minimality_gap(sol) == pytest.approx(
            best_constant_gap(prob, sol, self.grid, self.w), abs=1e-12)

    def test_suboptimal_control_sees_positive_compensator(self):
        # under the low control the expected compensator equals the value gap
        k_low = extract_k(self.sol, volatility=0.5)
        assert k_low.k_terminal > 1.0
        assert np.all(k_low.increments >= 0)
        assert np.all(np.diff(k_low.expected_cumulative) >= -1e-15)
        # a singleton grid solves on its tree, which carries only its own control
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO,
                             volgrid=build_volatility_grid(1.0, 1.0, 1))
        sol = solve_dp(prob, self.grid, self.w, x0=1.0)
        assert extract_k(sol, volatility=1.0).k_terminal == 0.0
        for foreign in (0.5, 2.0):
            with pytest.raises(InvalidArgumentError):
                extract_k(sol, volatility=foreign)
        # a volatility off the lattice's grid is refused, not solved for
        with pytest.raises(InvalidArgumentError, match="foreign"):
            extract_k(self.sol, volatility=0.7)

    @pytest.mark.parametrize("x_steps", [201, 200])
    def test_expected_compensator_matches_full_matrix_moments(self, x_steps):
        # at odd x_steps x0 is not a knot, so the forward law's query at x0
        # falls between knots; the windowed kernel must still agree with the
        # full-matrix oracle there
        sol = solve_dp(self.prob, self.grid, self.w, x0=1.0, opts=DpOptions(x_steps=x_steps))
        xs = sol.meta["lattice"]
        assert (1.0 in xs) == (x_steps % 2 == 0)
        k = extract_k(sol, volatility=0.5)
        ref = [0.0, float(_accel.linear_interp(np.array([1.0]), xs, k.increments[0])[0])]
        for i in range(1, self.grid.n_steps):
            sigma = np.sqrt(0.5 * (self.grid.time(i) - self.grid.t0))
            ref.append(ref[-1] + _accel._moments_numpy(xs, k.increments[i], [1.0], sigma)[0][0])
        assert k.k_terminal > 1.0
        np.testing.assert_allclose(k.expected_cumulative, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("reading", READINGS)
    def test_affine_terminal_all_controls_optimal(self, reading):
        prob = bsb_problem(terminal=lambda x: x, g=HALF_Y, reading=reading)
        sol = solve_dp(prob, self.grid, self.w, x0=1.0, opts=DpOptions(x_steps=200))
        assert extract_k(sol, volatility=0.5).k_terminal < 1e-9
        assert minimality_gap(sol) == pytest.approx(
            best_constant_gap(prob, sol, self.grid, self.w), abs=1e-12)

    def test_infinite_generator_entry_excluded(self):
        def F(t, x, y, z, a):
            base = np.zeros_like(np.asarray(x, dtype=float))
            return base + np.where(np.asarray(a) > 1.9, np.inf, 0.0)
        vg = build_volatility_grid(0.5, 2.0, 2)
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=F, g=ZERO, volgrid=vg)
        assert list(prob.finite_volatilities()) == [0.5]
        sol = solve_dp(prob, self.grid, self.w, x0=1.0, opts=DpOptions(x_steps=200))
        # only the low control survives, so the sup is that control's value,
        # solved on its exact tree
        assert sol.backend == "tree"
        assert sol.y0 == pytest.approx(1.0 + 0.5, abs=1e-12)


def recomputed_compensator(prob, sol, w, a, z_T=None):
    """(increments, expected_cumulative, clamped) of the constant control a,
    from backward_step under a at every level against the solve's levels, as
    extract_k once computed it; z_T, if given, replaces sol.Z[n] at step n - 1."""
    grid, xs, x0 = (sol.meta[k] for k in ("grid", "lattice", "x0"))
    n = grid.n_steps
    cond = lattice_cond(xs, a, grid.dt)
    incs, clamped = [None] * n, 0
    for i in range(n - 1, -1, -1):
        z_next = z_T if i == n - 1 and z_T is not None else sol.Z[i + 1]
        dw = (w.values[i + 1] - w.values[i])[..., None]
        cand = backward_step(prob.classical_problem(a), cond, lambda _: xs, i, grid,
                             sol.Y[i + 1], z_next, dw, a)[0]
        delta = sol.Y[i] - cand
        clamped += int(np.sum(delta < 0))
        incs[i] = np.maximum(delta, 0.0)
    cum = np.zeros(n + 1)
    for i in range(n):
        t_i = grid.time(i) - grid.t0
        cum[i + 1] = cum[i] + float(
            _accel.linear_interp(np.array([x0]), xs, incs[i])[0] if t_i <= 0 else
            _accel.pl_gauss_moments(xs, incs[i], np.array([x0]), math.sqrt(a * t_i))[0][0])
    return np.array(incs), cum, clamped


def assert_trace_is(k, expected):
    incs, cum, clamped = expected
    np.testing.assert_array_equal(k.increments, incs)
    np.testing.assert_array_equal(k.expected_cumulative, cum)
    assert clamped == 0


class TestCompensatorFromSweep:
    """extract_k reads the defects the lattice step formed; it solves nothing."""

    @pytest.mark.parametrize("reading", READINGS)
    @pytest.mark.parametrize("n, x_steps", [(16, 200), (32, 201)])
    @pytest.mark.parametrize("name", ["bsb_mixed", "bsb_doss"])
    def test_stored_compensator_is_the_recomputed_one(self, name, n, x_steps, reading):
        pdef = REGISTRY[name]
        prob = replace(pdef.equation(ExperimentConfig.from_defaults()), reading=reading)
        grid = build_time_grid(0, 1, n)
        w = sample_backward_path(grid, seed=3)
        sol = solve_dp(prob, grid, w, x0=pdef.x0, opts=DpOptions(x_steps=x_steps))
        a_vals = prob.finite_volatilities()
        assert len(a_vals) == 5
        for a in a_vals:
            assert_trace_is(extract_k(sol, volatility=a),
                            recomputed_compensator(prob, sol, w, float(a)))
        assert extract_k(sol, volatility=a_vals[0]).increments.max() > 0.0

    def test_z_dependent_g_reads_each_volatility_own_phantom(self):
        # at step n - 1 the solve formed each volatility's candidate with its
        # own phantom z_T, where sol.Z[n] is the argmax's
        prob = bsb_problem(terminal=lambda x: np.where(x > 0, x**2, -(x**2)),
                           g=lambda t, x, y, z: 0.2 * z + 0.1 * y)
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, seed=3)
        sol = solve_dp(prob, grid, w, x0=0.0, opts=DpOptions(x_steps=200))
        xs = sol.meta["lattice"]
        moved = 0
        for a in prob.finite_volatilities():
            k = extract_k(sol, volatility=a)
            with_argmax_z = recomputed_compensator(prob, sol, w, float(a))[0]
            np.testing.assert_array_equal(k.increments[:-1], with_argmax_z[:-1])
            own_z = lattice_cond(xs, float(a), grid.dt)(prob.terminal(xs))[1]
            assert_trace_is(k, recomputed_compensator(prob, sol, w, float(a), z_T=own_z))
            moved += not np.array_equal(k.increments[-1], with_argmax_z[-1])
        assert moved > 0


@given(c=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0), s=st.floats(-0.5, 0.5),
       a_low=st.floats(0.2, 1.2), a_high=st.floats(1.3, 2.5), n_a=st.integers(2, 6),
       beta=st.floats(-0.5, 0.5), reading=st.sampled_from(READINGS),
       n=st.sampled_from([8, 16]), seed=st.integers(0, 2**20))
def test_every_constant_control_sees_a_nonnegative_compensator(c, b, s, a_low, a_high, n_a,
                                                               beta, reading, n, seed):
    prob = TbdsdeProblem(terminal=lambda x: c * x**2 + b * np.abs(x - s), F=FZERO,
                         g=lambda t, x, y, z: beta * y,
                         volgrid=build_volatility_grid(a_low, a_high, n_a), reading=reading)
    grid = build_time_grid(0, 1, n)
    sol = solve_dp(prob, grid, sample_backward_path(grid, seed=seed), x0=0.0,
                   opts=DpOptions(x_steps=80))
    a_vals, defects = sol.meta["a_values"], sol.meta["defects"]
    for a in a_vals:
        assert np.all(np.diff(extract_k(sol, volatility=a).expected_cumulative) >= 0.0)
    # the argmax's defect is exactly 0, every smaller volatility's is positive
    rows = np.arange(len(a_vals))[:, None]
    for i in range(n):
        own = np.searchsorted(a_vals, sol.argmax_a[i])
        assert np.all(defects[i][own, np.arange(defects.shape[-1])] == 0.0)
        assert np.all((defects[i] > 0.0) | (rows >= own))


def test_tree_trace_rides_through_the_flow_transform():
    # a singleton's K is one zero array per tree level, so it transforms with Y and Z
    grid = build_time_grid(0, 1, 8)
    w = sample_backward_path(grid, seed=3)
    g = lambda t, x, y: 0.5 * y
    prob = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=lambda t, x, y, z: g(t, x, y),
                         volgrid=build_volatility_grid(1.0, 1.0, 1))
    sol = solve_dp(prob, grid, w, x0=0.0)
    k = extract_k(sol, volatility=1.0)
    assert [inc.shape for inc in k.increments] == [(i + 1,) for i in range(grid.n_steps)]
    states = [sol.meta["tree"].states(i) for i in range(grid.n_steps + 1)]
    y_lo = min(float(v.min()) for v in sol.Y) - 1.0
    y_hi = max(float(v.max()) for v in sol.Y) + 1.0
    flow = solve_flow(FlowCoefficient(g=g), w, np.linspace(-3.0, 3.0, 25),
                      build_y_lattice(y_lo, y_hi, 81, pad=1.0), y_core=(y_lo, y_hi))
    U, V, Kt = transform_solution(sol.Y, sol.Z, k.increments, flow, states)
    assert [kt.shape for kt in Kt] == [inc.shape for inc in k.increments]
    assert all(np.all(kt == 0.0) for kt in Kt)
    assert [u.shape for u in U] == [y.shape for y in sol.Y]


def test_expected_compensator_is_nondecreasing_through_rounding():
    # at step 4 the forward-law kernel weighs increments of 0 and ~1e-15 to
    # -9.7e-31; the trace clamps each step's expectation at 0
    prob = TbdsdeProblem(terminal=lambda x: -np.abs(x + 0.5), F=FZERO, g=ZERO,
                         volgrid=build_volatility_grid(1.0, 2.0, 2))
    grid = build_time_grid(0, 1, 8)
    sol = solve_dp(prob, grid, sample_backward_path(grid, seed=0), x0=0.0,
                   opts=DpOptions(x_steps=80))
    k = extract_k(sol, volatility=1.0)
    assert k.increments.max() > 0.0
    assert np.all(np.diff(k.expected_cumulative) >= 0.0)


class TestNonFinite:
    def test_nan_terminal_names_step_volatility_and_node(self):
        # sqrt of the terminal is NaN on the lattice knots left of 0
        grid = build_time_grid(0, 1, 8)
        w = sample_backward_path(grid, seed=5)
        prob = TbdsdeProblem(terminal=np.sqrt, F=FZERO, g=ZERO,
                             volgrid=build_volatility_grid(0.5, 2.0, 3))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as info:
            solve_dp(prob, grid, w, x0=1.0, opts=DpOptions(x_steps=50))
        err = info.value
        assert (err.step, err.volatility, err.node) == (7, 0.5, 0)
        assert "step 7" in str(err) and "volatility 0.5" in str(err) and "node 0" in str(err)

    @pytest.mark.parametrize("n_a", [1, 3], ids=["tree", "lattice"])
    def test_nan_in_one_path_names_that_path(self, n_a):
        # W_{t_k} = NaN spoils dW_k and dW_{k-1}; the backward sweep meets step k first
        grid, k = build_time_grid(0, 1, 8), 5
        paths = [sample_backward_path(grid, seed=s) for s in (1, 2, 3)]
        paths[1].values[k] = np.nan
        prob = TbdsdeProblem(terminal=lambda x: x**2 + 1.0, F=FZERO, g=HALF_Y,
                             volgrid=build_volatility_grid(0.5, 2.0, n_a))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as info:
            solve_dp(prob, grid, paths, x0=1.0, opts=DpOptions(x_steps=50))
        err = info.value
        assert (err.path, err.step, err.volatility, err.node) == (1, k, 0.5, 0)
        assert f"step {k}" in str(err) and "path 1, node 0" in str(err)

    def test_nan_at_one_interior_volatility_names_that_volatility(self):
        # F is NaN right of x = 1.5 under a = 1.25 only, the middle of five
        grid = build_time_grid(0, 1, 8)
        w = sample_backward_path(grid, seed=5)
        vg = build_volatility_grid(0.5, 2.0, 5)
        F = lambda t, x, y, z, a: np.where((np.asarray(a) == 1.25) & (np.asarray(x) > 1.5),
                                           np.nan, 0.0)
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=F, g=ZERO, volgrid=vg)
        xs = np.linspace(*lattice_bounds(grid, vg, 1.0, 6.0), 51)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as info:
            solve_dp(prob, grid, w, x0=1.0, opts=DpOptions(x_steps=50))
        err = info.value
        node = int(np.argmax(xs > 1.5))
        assert (err.step, err.volatility, err.node, err.path) == (7, 1.25, node, None)
        assert f"volatility 1.25, node {node}" in str(err)


class TestStackedVolatilities:
    """One backward step of every volatility at once on the lattice."""

    @pytest.mark.parametrize("m", [1, 3], ids=["path", "batch"])
    def test_one_g_evaluation_per_ito_step(self, m):
        calls = []

        def g(t, x, y, z):
            calls.append(t)
            return 0.5 * y
        grid = build_time_grid(0, 1, 32)
        paths = [sample_backward_path(grid, seed=s) for s in range(1, m + 1)]
        solve_dp(bsb_problem(g=g), grid, paths if m > 1 else paths[0], x0=1.0,
                 opts=DpOptions(x_steps=60))
        assert len(calls) == 32

    def test_one_f_call_per_hamiltonian_evaluation(self):
        calls = []

        def F(t, x, y, z, a):
            calls.append(np.shape(a))
            return FZERO(t, x, y, z, a)
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=F, g=ZERO,
                             volgrid=build_volatility_grid(0.5, 2.0, 5))
        assert list(prob.finite_volatilities()) == [0.5, 0.875, 1.25, 1.625, 2.0]
        assert calls == [(5, 1)]
        H = hamiltonian(prob)
        del calls[:]
        x = np.linspace(-1.0, 1.0, 7)
        assert H(0.0, x, x**2, 2 * x, 2.0) == pytest.approx(np.full(7, 2.0))
        assert calls == [(5, 1)]

    @pytest.mark.parametrize("m", [1, 2], ids=["path", "batch"])
    def test_divergence_at_the_high_volatility_names_it(self, m):
        # f = -1.5 y / dt under a_high only: that row's implicit update diverges
        grid = build_time_grid(0, 1, 4)
        paths = [sample_backward_path(grid, seed=s) for s in range(1, m + 1)]
        F = lambda t, x, y, z, a: np.where(np.asarray(a) == 2.0, -1.5 * y / grid.dt, 0.0)
        prob = TbdsdeProblem(terminal=lambda x: 1.0 + x**2, F=F, g=ZERO,
                             volgrid=build_volatility_grid(0.5, 2.0, 5))
        where = "path 0, node" if m > 1 else "at node"
        with pytest.raises(ConvergenceError, match=rf"{where} .*at step 3, volatility 2$"):
            solve_dp(prob, grid, paths if m > 1 else paths[0], x0=1.0,
                     opts=DpOptions(x_steps=40))


class TestMinimalityGap:
    def test_singleton_gap_vanishes(self):
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, seed=2)
        vg = build_volatility_grid(1.0, 1.0, 1)
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO, volgrid=vg)
        sol = solve_dp(prob, grid, w, x0=1.0)
        gap = minimality_gap(sol)
        assert np.max(np.abs(gap)) < 1e-9

    @pytest.mark.parametrize("n_a", [5, 1])
    def test_batch_gap_is_path_0s(self, n_a):
        # the gap reads the solve's own problem and path 0: a batch's is path 0's solve's
        grid = build_time_grid(0, 1, 16)
        paths = [sample_backward_path(grid, seed=s) for s in (7, 8)]
        prob = bsb_problem(g=lambda t, x, y, z: 0.3 * y, n_a=n_a)
        opts = DpOptions(x_steps=100)
        batch = solve_dp(prob, grid, paths, x0=1.0, opts=opts)
        alone = solve_dp(prob, grid, paths[0], x0=1.0, opts=opts)
        assert batch.meta["w"] is paths[0] and batch.meta["problem"] is prob
        assert minimality_gap(batch) == minimality_gap(alone)
        assert (minimality_gap(batch) > 0.0) == (n_a > 1)

    def test_bsb_gap_shrinks_linearly(self):
        gaps = []
        for n, xs in [(16, 100), (32, 200), (64, 400)]:
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, seed=1)
            prob = bsb_problem()
            sol = solve_dp(prob, grid, w, x0=1.0, opts=DpOptions(x_steps=xs))
            gaps.append(minimality_gap(sol))
        assert gaps[0] > 0
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.3)
        assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.3)


BAND_PROBLEMS = ["bsb_quadratic", "bsb_concave", "bsb_mixed", "bsb_doss"]


@example(name="bsb_doss", a_low=1.0, a_high=1.5, n_points=1, x_steps=21, m=3, n=4, seed=5)
@given(name=st.sampled_from(BAND_PROBLEMS), a_low=st.floats(0.2, 1.2),
       a_high=st.floats(1.3, 2.5), n_points=st.integers(1, 6), x_steps=st.integers(20, 61),
       m=st.sampled_from([1, 3]), n=st.sampled_from([4, 8]), seed=st.integers(0, 2**20))
def test_minimality_gap_is_the_root_surplus_over_constant_controls(name, a_low, a_high,
                                                                   n_points, x_steps, m, n,
                                                                   seed):
    pdef = REGISTRY[name]
    prob = pdef.equation(ExperimentConfig.from_defaults(**{
        "volgrid.a_low": a_low, "volgrid.a_high": a_high, "volgrid.n_points": n_points}))
    grid = build_time_grid(0, 1, n)
    paths = [sample_backward_path(grid, seed=seed + k) for k in range(m)]
    sol = solve_dp(prob, grid, paths if m > 1 else paths[0], x0=pdef.x0,
                   opts=DpOptions(x_steps=x_steps))
    gap = minimality_gap(sol)
    best = max(solve_tree(prob.classical_problem(float(a)), build_tree(grid, float(a), x0=pdef.x0),
                          paths[0]).y0 for a in prob.finite_volatilities())
    assert type(gap) is float and gap == sol.y0 - best
    assert (sol.backend == "tree") == (n_points == 1)
    if sol.backend == "tree":
        assert gap == 0.0


class TestRepresentation:
    """minimality_gap as the root's surplus over the constant controls."""

    @staticmethod
    def counted_solve_tree(monkeypatch):
        """Record each second_order.solve_tree call's arguments and solution."""
        calls = []

        def counted(*args):
            calls.append((args, solve_tree(*args)))
            return calls[-1][1]
        monkeypatch.setattr(second_order, "solve_tree", counted)
        return calls

    def test_singleton_surplus_zero(self, monkeypatch):
        # the tree solution is its sole constant control's solve: nothing is solved again
        calls = self.counted_solve_tree(monkeypatch)
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, seed=4)
        vg = build_volatility_grid(1.3, 1.3, 1)
        prob = TbdsdeProblem(terminal=lambda x: np.abs(x), F=FZERO, g=ZERO, volgrid=vg)
        gap = minimality_gap(solve_dp(prob, grid, w, x0=0.5))
        assert gap == 0.0 and len(calls) == 1
        # several volatilities: their trees are one column, swept once, each its own solve
        prob = bsb_problem(terminal=lambda x: np.abs(x), n_a=4)
        sol = solve_dp(prob, grid, w, x0=0.5, opts=DpOptions(x_steps=40))
        calls.clear()
        gap = minimality_gap(sol)
        (args, column), = calls
        assert np.shape(args[1].a) == (4, 1)
        assert column.y0_paths.tolist() == [
            solve_tree(prob.classical_problem(a), build_tree(grid, a, x0=0.5), w).y0
            for a in prob.finite_volatilities().tolist()]
        assert gap == sol.y0 - column.y0_paths.max()

    def test_bsb_surplus_order_dt(self, monkeypatch):
        calls = self.counted_solve_tree(monkeypatch)
        surpluses = []
        for n, xs in [(32, 200), (64, 400)]:
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, seed=4)
            prob = bsb_problem()
            sol = solve_dp(prob, grid, w, x0=1.0, opts=DpOptions(x_steps=xs))
            surpluses.append(minimality_gap(sol))
            # convex data: the highest volatility is the best constant control
            best = np.argmax(calls[-1][1].y0_paths)
            assert sol.meta["a_values"][best] == 2.0
        assert surpluses[1] < surpluses[0]
        assert surpluses[0] == pytest.approx(2 * surpluses[1], rel=0.3)

    def test_mixed_convexity_strict_surplus(self):
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_path(grid, seed=4)
        prob = bsb_problem(terminal=lambda x: np.where(x > 0, x**2, -x**2))
        sol = solve_dp(prob, grid, w, x0=0.0, opts=DpOptions(x_steps=400))
        assert minimality_gap(sol) > 0.1  # time-varying optimal control beats any constant


class TestComparisonPrinciple:
    def test_randomized_ordered_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(4, 9))
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, seed=int(rng.integers(1 << 30)))
            a_lo = float(rng.uniform(0.3, 1.0))
            a_hi = float(rng.uniform(a_lo, 2.5))
            vg = build_volatility_grid(a_lo, a_hi, int(rng.integers(2, 4)))
            c = rng.uniform(0.1, 0.5)
            bump = rng.uniform(0.0, 1.0)
            shift = rng.uniform(0.0, 2.0)
            F2 = lambda t, x, y, z, a, c=c: c * np.tanh(y)
            F1 = lambda t, x, y, z, a, F2=F2, b=bump: F2(t, x, y, z, a) + b
            g = lambda t, x, y, z: 0.2 * np.sin(y)
            p1 = TbdsdeProblem(terminal=lambda x, s=shift: np.abs(x) + s, F=F1, g=g,
                               volgrid=vg, lipschitz_f=c)
            p2 = TbdsdeProblem(terminal=lambda x: np.abs(x), F=F2, g=g,
                               volgrid=vg, lipschitz_f=c)
            opts = DpOptions(x_steps=60)
            s1 = solve_dp(p1, grid, w, opts=opts)
            s2 = solve_dp(p2, grid, w, opts=opts)
            for i in range(n + 1):
                assert np.all(s1.Y[i] >= s2.Y[i] - 1e-11)


class TestFeynmanKac:
    def u_bsb(self):
        u = lambda t, x: x**2 + 2.0 * (1.0 - t)
        du = lambda t, x: 2.0 * x
        d2u = lambda t, x: 2.0 + 0.0 * x
        return u, du, d2u

    def test_optimal_control_saturates(self):
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, seed=6)
        ens = sample_forward_ensemble(grid, 2000, 2.0, seed=8, x0=1.0)
        rep = feynman_kac_residual(*self.u_bsb(), bsb_problem(), ens, w)
        assert abs(rep.min_k) < 1e-12 and abs(rep.mean_k) < 1e-12

    def test_suboptimal_control_constant_rate(self):
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, seed=6)
        ens = sample_forward_ensemble(grid, 2000, 0.5, seed=8, x0=1.0)
        rep = feynman_kac_residual(*self.u_bsb(), bsb_problem(), ens, w)
        # k = hhat(2) - a_low + 0 = a_high - a_low = 1.5
        assert rep.mean_k == pytest.approx(1.5, abs=1e-10)
        assert rep.min_k == pytest.approx(1.5, abs=1e-10)

    def test_affine_candidate_zero_rate(self):
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, seed=6)
        ens = sample_forward_ensemble(grid, 500, 1.0, seed=8)
        u = lambda t, x: 2.0 * x + 1.0
        rep = feynman_kac_residual(u, lambda t, x: 2.0 + 0 * x, lambda t, x: 0.0 * x,
                                   bsb_problem(terminal=lambda x: 2 * x + 1),
                                   ens, w)
        assert abs(rep.mean_k) < 1e-12

    def test_residual_shrinks_with_dt(self):
        res = []
        for n in (16, 64):
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, seed=6)
            ens = sample_forward_ensemble(grid, 4000, 2.0, seed=8, x0=1.0)
            rep = feynman_kac_residual(*self.u_bsb(), bsb_problem(), ens, w)
            res.append(rep.mean_abs_residual)
        assert res[1] < res[0]
        assert res[0] / res[1] > 1.4  # at least the half-order MC decay

    def test_inconsistent_hamiltonian_rejected(self):
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, seed=6)
        ens = sample_forward_ensemble(grid, 200, 3.0, seed=8, x0=1.0)
        # a control a = 3 above the band [0.5, 2] is not dominated by the
        # Hamiltonian: the rate is H(2) - a = 2 - 3 = -1 < 0, so the
        # candidate cannot be a supersolution under it
        with pytest.raises(VerificationError):
            feynman_kac_residual(*self.u_bsb(), bsb_problem(), ens, w)

    def test_time_varying_control_rejected(self):
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, seed=6)
        ens = sample_forward_ensemble(grid, 200, np.linspace(0.5, 2.0, 16), seed=8, x0=1.0)
        with pytest.raises(InvalidArgumentError, match="constant control"):
            feynman_kac_residual(*self.u_bsb(), bsb_problem(), ens, w)

    def test_generator_enters_with_the_solver_sign(self):
        # F = 0.3 on the band: solve_dp's value is x^2 + 2.3 (1 - t), since
        # the Hamiltonian at curvature 2 is max_a (a + 0.3) = 2.3
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=lambda t, x, y, z, a: 0.3 + 0.0 * x,
                             g=ZERO, volgrid=build_volatility_grid(0.5, 2.0, 5))
        du, d2u = (lambda t, x: 2.0 * x), (lambda t, x: 2.0 + 0.0 * x)
        reps = {}
        for n in (16, 64):
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, seed=6)
            ens = sample_forward_ensemble(grid, 2000, 2.0, seed=8, x0=1.0)
            for slope in (2.3, 1.7):
                u = lambda t, x, c=slope: x**2 + c * (1.0 - t)
                reps[n, slope] = feynman_kac_residual(u, du, d2u, prob, ens, w)
        assert abs(reps[64, 2.3].mean_residual) < 0.05
        assert reps[16, 2.3].mean_abs_residual / reps[64, 2.3].mean_abs_residual > 1.4
        assert abs(reps[16, 1.7].mean_residual) > 0.4
        assert abs(reps[64, 1.7].mean_residual) > 0.4

    @pytest.mark.parametrize("n, a, prob, slope, bits", [
        # the suboptimal control case, and the generator-sign case's wrong slope
        (32, 0.5, bsb_problem(), 2.0,
         ("0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x0.0p+0",
          "0x1.97462ef00624ap-4", "0x1.4f0e7764b921cp-10")),
        (16, 2.0, TbdsdeProblem(terminal=lambda x: x**2, F=lambda t, x, y, z, a: 0.3 + 0.0 * x,
                                g=ZERO, volgrid=build_volatility_grid(0.5, 2.0, 5)), 1.7,
         ("-0x1.8000000000000p-53", "-0x1.8000000000000p-53", "0x0.0p+0",
          "0x1.68a1e72a2facdp-1", "-0x1.2b784cf74472bp-1")),
        # a g that reads y and z, read Stratonovich, so both endpoints' g dW enter the residual
        (16, 2.0, bsb_problem(g=lambda t, x, y, z: 0.3 * np.sin(y) + 0.1 * z,
                              reading="stratonovich"), 2.0,
         ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.2c839087f2521p-1", "0x1.b0762fec9391bp-4")),
    ], ids=["suboptimal", "generator-sign", "g-of-y-and-z"])
    def test_report_keeps_its_pinned_bits(self, n, a, prob, slope, bits):
        # every field as the two-pass version of the check computed it
        grid = build_time_grid(0, 1, n)
        w = sample_backward_path(grid, seed=6)
        ens = sample_forward_ensemble(grid, 2000, a, seed=8, x0=1.0)
        _, du, d2u = self.u_bsb()
        rep = feynman_kac_residual(lambda t, x: x**2 + slope * (1.0 - t), du, d2u, prob, ens, w)
        assert tuple(float(v).hex() for v in (rep.min_k, rep.mean_k, rep.frac_negative,
                                              rep.mean_abs_residual, rep.mean_residual)) == bits

    def test_residual_reads_g_dw_as_the_problem_does(self):
        # the registry's bsb_doss is read Ito (g = y/2, F = y/8) and is the Stratonovich
        # equation F = 0, g = y/2 converted; u = e^{(W_T - W_t)/2} (x^2 + 2 (T - t)) solves
        # both, and each residual reads g dW as its own solve does.  On one W path the two
        # readings' sums differ by about (sum dW^2 - T) y / 8 (strong order 1/2); g dW
        # read at the midpoint on the Ito-read problem left -0.364 and -0.427 here.
        ito = REGISTRY["bsb_doss"].equation(ExperimentConfig.from_defaults())
        strat = replace(ito, F=FZERO, reading="stratonovich")
        reps = {}
        for n in (64, 256):
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, seed=3)
            ens = sample_forward_ensemble(grid, 4000, 2.0, seed=8, x0=1.0)
            s = lambda t, w=w, grid=grid: math.exp(0.5 * float(w.tail_increment(grid.index(t))))
            u, du, d2u = (lambda t, x, s=s: s(t) * (x**2 + 2.0 * (1.0 - t)),
                          lambda t, x, s=s: s(t) * 2.0 * x, lambda t, x, s=s: s(t) * 2.0 + 0.0 * x)
            rep_ito, rep_strat = (feynman_kac_residual(u, du, d2u, p, ens, w) for p in (ito, strat))
            qv_error = abs(float(np.sum(np.diff(w.values) ** 2)) - 1.0)
            assert abs(rep_ito.mean_residual - rep_strat.mean_residual) < qv_error
            assert rep_ito.mean_abs_residual == pytest.approx(rep_strat.mean_abs_residual, rel=0.1)
            reps[n] = rep_ito
        assert reps[64].mean_abs_residual / reps[256].mean_abs_residual > 1.4

    def test_wrong_candidate_leaves_o1_residual(self):
        # a candidate with the wrong time slope passes the rate check (the
        # rate is nonnegative by conjugacy) but its residual plateaus
        u = lambda t, x: x**2 + 0.5 * (1.0 - t)
        du = lambda t, x: 2.0 * x
        d2u = lambda t, x: 2.0 + 0.0 * x
        res = []
        for n in (16, 64):
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, seed=6)
            ens = sample_forward_ensemble(grid, 2000, 2.0, seed=8, x0=1.0)
            res.append(feynman_kac_residual(u, du, d2u, bsb_problem(), ens, w).mean_abs_residual)
        assert min(res) > 1.0  # true slope is 2.0, defect ~ 1.5 independent of dt
