import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdsde.doss import (
    DERIV_NAMES,
    FlowCoefficient,
    build_y_lattice,
    consistency_check_transform,
    derivative_identity_report,
    growth_check,
    invert_flow,
    solve_flow,
    transform_solution,
    transformed_generator,
    untransform_solution,
)
from bdsde.errors import InvalidArgumentError, NonFiniteError, RangeError, SingularFlowError
from bdsde.generators import FD_STEP, GeneratorConstants, validate_assumptions
from bdsde.grids import BackwardPath, build_time_grid, build_volatility_grid, sample_backward_path
from bdsde.oracles import RandomPdeProblem
from bdsde.second_order import TbdsdeProblem, hamiltonian


def smooth_path(grid, amp=0.3):
    vals = amp * np.sin(2 * np.pi * grid.nodes / grid.horizon)
    return BackwardPath(grid, vals)


def skew_path(grid):
    # asymmetric smooth driver: avoids the error cancellation a symmetric
    # path produces in the order study
    t = grid.nodes
    vals = 0.3 * np.sin(2.3 * t + 0.7) + 0.15 * t * t
    return BackwardPath(grid, vals - vals[0])


def linear_flow(beta=0.5, n=64, seed=3, nx=9, ny=41):
    grid = build_time_grid(0, 1, n)
    w = sample_backward_path(grid, seed=seed)
    xs = np.linspace(-2, 2, nx)
    ys = build_y_lattice(-1.5, 1.5, ny)
    coef = FlowCoefficient(g=lambda t, x, y: beta * y,
                           g_y=lambda t, x, y: beta + 0 * np.asarray(y),
                           g_x=lambda t, x, y: 0 * np.asarray(y),
                           g_xx=lambda t, x, y: 0 * np.asarray(y),
                           g_xy=lambda t, x, y: 0 * np.asarray(y),
                           g_yy=lambda t, x, y: 0 * np.asarray(y))
    return solve_flow(coef, w, xs, ys, y_core=(-1.5, 1.5)), w, beta


@pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0)])
def test_y_lattice_refuses_a_non_finite_range(lo, hi):
    with pytest.raises(InvalidArgumentError, match="y range must be finite"):
        build_y_lattice(lo, hi, 5)


@pytest.mark.parametrize("n, pad, match", [
    (0, 3.0, "n must be an integer >= 2, got 0"), (1, 3.0, "n must be an integer >= 2, got 1"),
    (2.5, 3.0, "n must be an integer >= 2, got 2.5"),
    (5, -1.0, "pad must be nonnegative and finite, got -1.0"),
    (5, np.nan, "pad must be nonnegative and finite, got nan"),
    (5, np.inf, "pad must be nonnegative and finite, got inf")])
def test_y_lattice_refuses_too_few_points_or_an_invalid_pad(n, pad, match):
    with pytest.raises(InvalidArgumentError, match=match):
        build_y_lattice(0.0, 1.0, n, pad=pad)


def test_y_lattice_keeps_its_points_at_valid_sizes():
    for n in (17, 41):
        np.testing.assert_array_equal(build_y_lattice(-1.0, 2.0, n),
                                      np.linspace(-10.0, 11.0, n))
    np.testing.assert_array_equal(build_y_lattice(0.0, 1.0, 2.0, pad=0.0), [0.0, 1.0])


class TestFlowIntegration:
    def test_parts_evaluate_each_stencil_point_once(self):
        calls = []

        def g(t, x, y):
            calls.append(1)
            return np.exp(np.sin(3 * x) * y) + x * y**3

        x = np.linspace(-1, 1, 5)[:, None] + 0 * np.linspace(-2, 2, 7)
        y = np.linspace(-2, 2, 7) + 0 * x
        p = FlowCoefficient(g=g).parts(0.3, x, y)
        assert len(calls) <= 9
        # the central differences, each with its own evaluations of g
        h, G = FD_STEP, lambda u, v: g(0.3, u, v)
        expected = {
            "g": G(x, y),
            "x": (G(x + h, y) - G(x - h, y)) / (2 * h),
            "y": (G(x, y + h) - G(x, y - h)) / (2 * h),
            "xx": (G(x + h, y) - 2 * G(x, y) + G(x - h, y)) / h**2,
            "xy": (G(x + h, y + h) - G(x + h, y - h)
                   - G(x - h, y + h) + G(x - h, y - h)) / (4 * h**2),
            "yy": (G(x, y + h) - 2 * G(x, y) + G(x, y - h)) / h**2,
        }
        for k, v in expected.items():
            np.testing.assert_array_equal(p[k], v, err_msg=k)

        calls.clear()
        zero = lambda t, x, y: 0 * y
        FlowCoefficient(g=g, g_x=zero, g_y=zero, g_xx=zero, g_xy=zero,
                        g_yy=zero).parts(0.3, x, y)
        assert len(calls) == 1

    def test_non_finite_flow_names_step_and_node(self):
        # sqrt(y) is NaN on the negative half of the y-lattice from the first step
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, seed=3)
        coef = FlowCoefficient(g=lambda t, x, y: 0.3 * np.sqrt(y))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as info:
            solve_flow(coef, w, np.linspace(-1, 1, 5), np.linspace(-2, 2, 17))
        err = info.value
        assert (err.step, err.node) == (15, (0, 0))
        assert "step 15" in str(err) and "node (0, 0)" in str(err)

    def test_zero_intensity_identity(self):
        grid = build_time_grid(0, 1, 8)
        w = sample_backward_path(grid, seed=1)
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-2, 2, 9)
        flow = solve_flow(FlowCoefficient(g=lambda t, x, y: 0.0 * np.asarray(y)),
                          w, xs, ys)
        for i in (0, 4, 8):
            np.testing.assert_allclose(flow.tables["eta"][i],
                                       np.broadcast_to(ys, (5, 9)), atol=1e-15)
            np.testing.assert_allclose(flow.tables["d_y"][i], 1.0, atol=1e-15)
            np.testing.assert_allclose(flow.tables["d_x"][i], 0.0, atol=1e-15)

    def test_terminal_condition_is_identity(self):
        flow, w, beta = linear_flow()
        n = flow.grid.n_steps
        np.testing.assert_allclose(flow.tables["eta"][n],
                                   np.broadcast_to(flow.y_lattice, flow.tables["eta"][n].shape))

    def test_linear_flow_matches_exponential(self):
        flow, w, beta = linear_flow(n=64)
        dw_total = w.tail_increment(0)
        got = flow.eval(["eta"], 0, np.array([0.0]), np.array([1.0]))[0][0]
        # per-step midpoint error is cubic in the Brownian increments
        assert got == pytest.approx(np.exp(beta * dw_total), rel=2e-3)

    def test_linear_flow_derivative_equals_value_at_one(self):
        # d/dy of a linear flow equals the flow at y = 1 (same recursion)
        flow, w, beta = linear_flow()
        v, d = (c[0] for c in flow.eval(["eta", "d_y"], 0, np.array([0.3]), np.array([1.0])))
        assert d == pytest.approx(v, rel=1e-13)
        # second derivatives of a linear flow vanish
        assert abs(flow.tables["d_yy"][0]).max() < 1e-13
        assert abs(flow.tables["d_xx"][0]).max() < 1e-13

    def test_midpoint_integrator_second_order_on_smooth_driver(self):
        # nonlinear intensity, smooth manufactured driver: global order 2
        coef = FlowCoefficient(g=lambda t, x, y: 0.4 * np.sin(y) + 0.1 * np.cos(x))
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-2, 2, 9)
        ref_grid = build_time_grid(0, 1, 4096)
        ref = solve_flow(coef, skew_path(ref_grid), xs, ys).tables["eta"][0]
        errs = []
        for n in (32, 64, 128):
            grid = build_time_grid(0, 1, n)
            flow = solve_flow(coef, skew_path(grid), xs, ys)
            errs.append(np.max(np.abs(flow.tables["eta"][0] - ref)))
        order = np.log2(errs[0] / errs[2]) / 2
        assert order == pytest.approx(2.0, abs=0.4)


class TestInversion:
    def test_zero_intensity_inverse_is_identity(self):
        grid = build_time_grid(0, 1, 6)
        w = sample_backward_path(grid, seed=2)
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-2, 2, 21)
        flow = solve_flow(FlowCoefficient(g=lambda t, x, y: 0.0 * np.asarray(y)),
                          w, xs, ys, y_core=(-1.0, 1.0))
        inv = invert_flow(flow)
        for i in (0, 3, 6):
            np.testing.assert_allclose(inv.tables["eps"][i],
                                       np.broadcast_to(inv.y_lattice, (5, 21)), atol=1e-12)

    def test_linear_flow_inverse_closed_form(self):
        flow, w, beta = linear_flow()
        inv = invert_flow(flow)
        for i in (0, 17, 40):
            scale = np.exp(-beta * w.tail_increment(i))
            got, = inv.eval(["eps"], i, np.zeros(3), np.array([-1.0, 0.2, 1.3]))
            # the tabulated flow is the Heun product, not the exact
            # exponential; invert the tabulated map itself for the reference
            eta_one = flow.eval(["eta"], i, np.zeros(1), np.ones(1))[0][0]
            np.testing.assert_allclose(got, np.array([-1.0, 0.2, 1.3]) / eta_one,
                                       rtol=1e-10)
            np.testing.assert_allclose(got, np.array([-1.0, 0.2, 1.3]) * scale,
                                       rtol=2e-3)

    def test_roundtrip_on_full_lattice(self):
        flow, w, _ = linear_flow()
        n = flow.grid.n_steps
        core = (flow.y_lattice >= flow.y_core[0]) & (flow.y_lattice <= flow.y_core[1])
        y_in = flow.y_lattice[core]
        for i in (0, n // 2, n):
            for k in (0, len(flow.x_lattice) - 1):
                x = np.full_like(y_in, flow.x_lattice[k])
                eta_vals, = flow.eval(["eta"], i, x, y_in)
                back = flow.inverse_at(i, x, eta_vals)
                assert np.max(np.abs(back - y_in)) < 1e-8

    def test_tabulated_inverse_equals_pointwise_inverse(self):
        coef = FlowCoefficient(g=lambda t, x, y: 0.3 * np.sin(y) + 0.1 * np.cos(x))
        grid = build_time_grid(0, 1, 16)
        xs = np.linspace(-1, 1, 7)
        flow = solve_flow(coef, sample_backward_path(grid, seed=4), xs,
                          build_y_lattice(-1.0, 1.0, 41), y_core=(-1.0, 1.0))
        targets = np.linspace(-1.0, 1.0, 23)
        inv = invert_flow(flow, targets)
        for i in range(grid.n_steps + 1):
            for r, x_r in enumerate(xs):
                np.testing.assert_array_equal(inv.tables["eps"][i][r],
                                              flow.inverse_at(i, x_r, targets))

    def test_out_of_range_target_raises(self):
        flow, w, _ = linear_flow()
        far = flow.y_lattice[-1] * 50.0
        with pytest.raises(RangeError):
            flow.inverse_at(0, np.array([0.0]), np.array([far]))


    def test_nan_queries_raise(self):
        flow, w, _ = linear_flow(n=16)
        with pytest.raises(RangeError):
            flow.eval(["eta"], 0, np.array([np.nan]), np.array([0.0]))
        with pytest.raises(RangeError):
            flow.eval(["eta"], 0, np.array([0.0]), np.array([np.nan]))
        with pytest.raises(RangeError):
            flow.inverse_at(0, np.array([0.0]), np.array([np.nan]))
        states = [np.zeros(2) for _ in range(flow.grid.n_steps + 1)]
        U = [np.array([0.1, np.nan]) for _ in states]
        with pytest.raises(RangeError):
            untransform_solution(U, [np.zeros(2) for _ in states], None, flow, states)


NONLINEAR_FLOW = solve_flow(FlowCoefficient(g=lambda t, x, y: 0.3 * np.sin(y) + 0.1 * np.cos(x)),
                            sample_backward_path(build_time_grid(0, 1, 8), seed=2),
                            np.linspace(-1.0, 1.0, 5), np.linspace(-2.0, 2.0, 9))


def bilinear(table, xs, ys, x, y):
    """The bilinear interpolant of table at one point (x, y), written out."""
    ix = min(max(int(np.searchsorted(xs, x)) - 1, 0), len(xs) - 2)
    iy = min(max(int(np.searchsorted(ys, y)) - 1, 0), len(ys) - 2)
    tx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
    ty = (y - ys[iy]) / (ys[iy + 1] - ys[iy])
    return ((1 - tx) * (1 - ty) * table[ix, iy] + tx * (1 - ty) * table[ix + 1, iy]
            + (1 - tx) * ty * table[ix, iy + 1] + tx * ty * table[ix + 1, iy + 1])


def lattice_coordinate(lattice):
    # a node (the edges among them) or any point in between
    return st.one_of(st.sampled_from(lattice.tolist()), st.floats(lattice[0], lattice[-1]))


@given(names=st.lists(st.sampled_from(DERIV_NAMES), min_size=1, max_size=8),
       i=st.integers(0, 8),
       points=st.lists(st.tuples(lattice_coordinate(NONLINEAR_FLOW.x_lattice),
                                 lattice_coordinate(NONLINEAR_FLOW.y_lattice)),
                       min_size=1, max_size=5))
def test_eval_reads_every_name_at_one_point_bit_for_bit(names, i, points):
    flow = NONLINEAR_FLOW
    x, y = (np.array(c) for c in zip(*points))
    got = flow.eval(names, i, x, y)
    assert len(got) == len(names)
    for name, values in zip(names, got):
        expected = [bilinear(flow.tables[name][i], flow.x_lattice, flow.y_lattice, u, v)
                    for u, v in points]
        np.testing.assert_array_equal(values, expected, err_msg=name)
    with pytest.raises(RangeError):
        flow.eval(names + ["eta"], i, np.append(x, np.nan), np.append(y, 0.0))


def test_eval_refuses_a_single_name():
    with pytest.raises(InvalidArgumentError, match="sequence of table names, got 'eta'"):
        NONLINEAR_FLOW.eval("eta", 0, np.zeros(1), np.zeros(1))


class TestDerivativeIdentities:
    def test_linear_flow_identities_tight(self):
        flow, w, _ = linear_flow()
        inv = invert_flow(flow)
        rep = derivative_identity_report(flow, inv, n_samples=400, seed=1)
        for name, v in rep.per_identity.items():
            if name == "chain_dx":
                continue  # limited by the finite-difference reference, O(dx^2)
            assert v < 1e-8, (name, v)
        assert rep.per_identity["chain_dx"] < 5e-2

    def test_nonlinear_flow_identities_improve_with_dt(self):
        coef = FlowCoefficient(g=lambda t, x, y: 0.3 * np.sin(y))
        xs = np.linspace(-1, 1, 7)
        ys = build_y_lattice(-1.0, 1.0, 81)
        viols = []
        for n in (16, 64):
            grid = build_time_grid(0, 1, n)
            flow = solve_flow(coef, smooth_path(grid), xs, ys, y_core=(-1.0, 1.0))
            inv = invert_flow(flow)
            rep = derivative_identity_report(flow, inv, n_samples=200, seed=2)
            v = max(val for k, val in rep.per_identity.items() if k != "chain_dx")
            viols.append(v)
        assert viols[1] < viols[0]


class TestTransformedGenerator:
    def test_zero_intensity_passthrough(self):
        grid = build_time_grid(0, 1, 4)
        w = sample_backward_path(grid, seed=4)
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-3, 3, 13)
        flow = solve_flow(FlowCoefficient(g=lambda t, x, y: 0.0 * np.asarray(y)), w, xs, ys)
        f = lambda t, x, y, z, a: np.sin(x) + y - 0.3 * z + a
        ft = transformed_generator(f, flow)
        x = np.array([-0.5, 0.0, 0.5])
        t = flow.grid.time(2)
        got = ft(t, x, np.array([1.0, 2.0, 2.5]), np.array([0.1, 0.2, 0.3]), 1.3)
        np.testing.assert_allclose(
            got, f(t, x, np.array([1.0, 2.0, 2.5]), np.array([0.1, 0.2, 0.3]), 1.3),
            atol=1e-13)

    def test_nan_query_raises(self):
        flow, w, beta = linear_flow()
        ft = transformed_generator(lambda t, x, y, z, a: y, flow)
        with pytest.raises(SingularFlowError, match="step 3"):
            ft(flow.grid.time(3), np.zeros(2), np.array([0.5, np.nan]), np.zeros(2), 1.0)

    @pytest.mark.parametrize("t", [1 / 128, -1 / 64, 1 + 1 / 64, np.nan, np.inf])
    def test_refuses_a_time_off_the_flow_grid(self, t):
        flow, w, beta = linear_flow()
        ft = transformed_generator(lambda t, x, y, z, a: y, flow)
        with pytest.raises(InvalidArgumentError, match=r"node of the time grid on \[0.0, 1.0\]"):
            ft(t, np.zeros(2), np.full(2, 0.5), np.zeros(2), 1.0)

    @staticmethod
    def noise_free_problem(seed):
        """(grid, problem): g = 0.3 sin y on a 16-step flow, the problem's F
        -transformed_generator(0, flow), on lattices that hold the sampled checks' draws."""
        grid = build_time_grid(0, 1, 16)
        flow = solve_flow(FlowCoefficient(g=lambda t, x, y: 0.3 * np.sin(y)),
                          sample_backward_path(grid, seed=seed), np.linspace(-6.0, 6.0, 25),
                          build_y_lattice(-2.0, 2.0, 49))
        ftil = transformed_generator(lambda t, x, y, z, a: 0.0 * x, flow)
        return grid, TbdsdeProblem(terminal=lambda x: x**2,
                                   F=lambda t, x, y, z, a: -ftil(t, x, y, z, a),
                                   g=lambda t, x, y, z: 0.0 * y,
                                   volgrid=build_volatility_grid(0.5, 2.0, 3))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_transformed_hamiltonian_is_parabolic_on_the_flow_grid(self, seed):
        grid, p = self.noise_free_problem(seed)
        pde = RandomPdeProblem(hhat_tilde=hamiltonian(p), terminal=lambda x: x**2,
                               x_domain=(-3.0, 3.0))
        assert pde.parabolicity_report(grid) >= 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_validate_assumptions_runs_on_the_transformed_generator(self, seed):
        grid, p = self.noise_free_problem(seed)
        rep = validate_assumptions(p, GeneratorConstants(C=1.0, alpha=0.0, lam=0.0), grid)
        assert rep["g_contraction"].passed and rep["g_growth"].passed
        assert np.isfinite(rep["F_lipschitz"].worst_violation)  # F compared at every pair

    def test_linear_flow_scaling_form(self):
        # for g = beta y: ftilde(t,x,y,z,a) = s^{-1} f(t, x, s y, s z, a),
        # s = flow scale at time t (all x-derivatives vanish)
        flow, w, beta = linear_flow()
        f = lambda t, x, y, z, a: y**2 + 0.5 * z + a * np.cos(x)
        ft = transformed_generator(f, flow)
        i = 11
        s = flow.eval(["eta"], i, np.zeros(1), np.ones(1))[0][0]
        x = np.array([0.0, 0.7])
        y = np.array([0.4, -0.2])
        z = np.array([0.3, 0.9])
        t = flow.grid.time(i)
        np.testing.assert_allclose(ft(t, x, y, z, 1.2),
                                   f(t, x, s * y, s * z, 1.2) / s, rtol=1e-9)

    def test_quadratic_gradient_envelope(self):
        # bounded f: the transformed generator obeys an
        # alpha + beta |y| + (gamma/2) a z^2 envelope with finite constants
        coef = FlowCoefficient(g=lambda t, x, y: 0.3 * np.sin(y) + 0.1)
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, seed=5)
        xs = np.linspace(-1, 1, 7)
        ys = build_y_lattice(-1.0, 1.0, 81)
        flow = solve_flow(coef, w, xs, ys, y_core=(-1.0, 1.0))
        f = lambda t, x, y, z, a: np.tanh(y) + np.cos(z)  # bounded
        ft = transformed_generator(f, flow)
        rs = np.random.default_rng(0)
        a = 1.5
        ratios = []
        for _ in range(200):
            i = int(rs.integers(0, 33))
            x = rs.uniform(-0.9, 0.9, size=4)
            y = rs.uniform(-0.9, 0.9, size=4)
            z = rs.uniform(-3, 3, size=4)
            vals = np.abs(ft(grid.time(i), x, y, z, a))
            ratios.append(np.max(vals / (1.0 + np.abs(y) + 0.5 * a * z**2)))
        assert max(ratios) < 50.0


class TestSolutionTransform:
    def traces(self, flow):
        n = flow.grid.n_steps
        states = [np.linspace(-1.5, 1.5, 11) for _ in range(n + 1)]
        rs = np.random.default_rng(7)
        Y = [0.8 * np.cos(s) + 0.2 for s in states]
        Z = [0.3 * np.sin(s) for s in states]
        K = [np.abs(rs.normal(size=11)) * 0.01 for _ in range(n)]
        return states, Y, Z, K

    def test_zero_intensity_is_identity_map(self):
        grid = build_time_grid(0, 1, 5)
        w = sample_backward_path(grid, seed=6)
        xs = np.linspace(-2, 2, 9)
        ys = np.linspace(-3, 3, 25)
        flow = solve_flow(FlowCoefficient(g=lambda t, x, y: 0.0 * np.asarray(y)), w, xs, ys)
        states, Y, Z, K = self.traces(flow)
        U, V, Kt = transform_solution(Y, Z, K, flow, states)
        for i in range(6):
            np.testing.assert_allclose(U[i], Y[i], atol=1e-12)
            np.testing.assert_allclose(V[i], Z[i], atol=1e-12)

    def test_roundtrip_recovers_traces(self):
        flow, w, beta = linear_flow(n=32)
        states, Y, Z, K = self.traces(flow)
        U, V, Kt = transform_solution(Y, Z, K, flow, states)
        Y2, Z2, K2 = untransform_solution(U, V, Kt, flow, states)
        for i in range(flow.grid.n_steps + 1):
            np.testing.assert_allclose(Y2[i], Y[i], atol=1e-8)
            np.testing.assert_allclose(Z2[i], Z[i], atol=1e-8)
        for i in range(flow.grid.n_steps):
            np.testing.assert_allclose(K2[i], K[i], atol=1e-10)
            assert np.all(Kt[i] >= 0)  # positivity preserved

    def test_constant_value_trace_moves_with_flow_only(self):
        flow, w, beta = linear_flow(n=16)
        n = flow.grid.n_steps
        states = [np.zeros(3) for _ in range(n + 1)]
        Y = [np.full(3, 0.9) for _ in range(n + 1)]
        Z = [np.zeros(3) for _ in range(n + 1)]
        U, V, _ = transform_solution(Y, Z, None, flow, states)
        for i in range(n + 1):
            scale = flow.eval(["eta"], i, np.zeros(1), np.ones(1))[0][0]
            np.testing.assert_allclose(U[i], 0.9 / scale, rtol=1e-12)


class TestConsistencyAndGrowth:
    def test_transform_identity_linear_flow(self):
        flow, w, beta = linear_flow()
        inv = invert_flow(flow)
        f = lambda t, x, y, z, a: 0.2 * y + 0.1 * z + np.sin(x)
        rs = np.random.default_rng(3)
        samples = [(int(rs.integers(0, 65)), rs.uniform(-1.5, 1.5, 3),
                    rs.uniform(-1.2, 1.2, 3), rs.uniform(-1, 1, 3))
                   for _ in range(50)]
        assert consistency_check_transform(f, flow, inv, samples, a=1.3) < 1e-8

    def test_transform_identity_nonlinear_improves(self):
        coef = FlowCoefficient(g=lambda t, x, y: 0.25 * np.sin(y))
        xs = np.linspace(-1, 1, 9)
        f = lambda t, x, y, z, a: 0.2 * y + 0.1 * z
        worsts = []
        for n, ny in ((16, 81), (64, 161)):
            ys = build_y_lattice(-1.0, 1.0, ny)
            grid = build_time_grid(0, 1, n)
            flow = solve_flow(coef, smooth_path(grid), xs, ys, y_core=(-1.0, 1.0))
            inv = invert_flow(flow)
            rs = np.random.default_rng(4)
            samples = [(int(rs.integers(0, n + 1)), rs.uniform(-0.9, 0.9, 3),
                        rs.uniform(-0.8, 0.8, 3), rs.uniform(-1, 1, 3))
                       for _ in range(40)]
            worsts.append(consistency_check_transform(f, flow, inv, samples, a=1.0))
        assert worsts[1] < worsts[0]

    def test_growth_zero_intensity(self):
        grid = build_time_grid(0, 1, 8)
        w = sample_backward_path(grid, seed=8)
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-2, 2, 11)
        flow = solve_flow(FlowCoefficient(g=lambda t, x, y: 0.0 * np.asarray(y)),
                          w, xs, ys, y_core=(-1.0, 1.0))
        inv = invert_flow(flow)
        rep = growth_check(flow, inv)
        assert rep.value_bound_c["flow"]["position"] == pytest.approx(0.0, abs=1e-12)
        assert rep.within_cap

    def test_growth_constant_intensity(self):
        # g = beta: flow = y + beta (W_T - W_t); the increment-sup variant
        # fits C = |beta| exactly
        beta = 0.8
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, seed=9)
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-2, 2, 11)
        flow = solve_flow(FlowCoefficient(
            g=lambda t, x, y: beta + 0.0 * np.asarray(y)), w, xs, ys, y_core=(-1, 1))
        inv = invert_flow(flow)
        rep = growth_check(flow, inv)
        assert rep.value_bound_c["flow"]["increment_sup"] == pytest.approx(beta, rel=1e-6)

    def test_growth_constants_match_the_per_level_fit(self):
        # the fit written level by level: the value constants bit for bit, and each
        # derivative constant the least (to the bisection's precision) that bounds
        # every level's largest derivative
        flow, w, beta = linear_flow(n=16)
        inv = invert_flow(flow)
        rep = growth_check(flow, inv)
        n, wv = flow.grid.n_steps, w.values
        norms = {"position": np.abs(wv),
                 "increment_sup": [np.max(np.abs(wv[i:] - wv[i])) for i in range(n + 1)]}
        for field, value, lattice in ((flow, "eta", flow.y_lattice), (inv, "eps", inv.y_lattice)):
            key = "flow" if field is flow else "inverse"
            for nm, m in norms.items():
                c = 0.0
                for i in range(n + 1):
                    if m[i] >= 1e-12:
                        c = max(c, float(np.max(np.abs(field.tables[value][i])
                                                - np.abs(lattice)[None, :])) / m[i])
                assert rep.value_bound_c[key][nm] == c, (key, nm)
                dmax = [max(float(np.max(np.abs(field.tables[k][i])))
                            for k in field.tables if k != value) for i in range(n + 1)]
                bounds = lambda c: all(np.log(c) + c * m[i] >= np.log(dmax[i]) - 1e-12
                                       for i in range(n + 1))
                got = rep.derivative_bound_c[key][nm]
                assert bounds(got) and not bounds(got * (1 - 1e-9)), (key, nm)

    def test_growth_bounded_intensity_stable_under_refinement(self):
        coef = FlowCoefficient(g=lambda t, x, y: 0.3 * np.sin(y))
        fits = []
        for ny in (41, 81):
            grid = build_time_grid(0, 1, 32)
            w = sample_backward_path(grid, seed=10)
            flow = solve_flow(coef, w, np.linspace(-1, 1, 5),
                              build_y_lattice(-1, 1, ny), y_core=(-1, 1))
            inv = invert_flow(flow)
            rep = growth_check(flow, inv)
            assert rep.within_cap
            fits.append(rep.derivative_bound_c["flow"]["increment_sup"])
        assert fits[1] == pytest.approx(fits[0], rel=0.05)
