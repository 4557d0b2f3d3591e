import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdsde import rng
from bdsde.classical import (
    MAX_ITERS,
    READINGS,
    RIDGE,
    BdsdeProblem,
    _fixed_point,
    _regress_on_state,
    check_comparison,
    solve_regression,
    solve_tree,
)
from bdsde.errors import (ConvergenceError, InvalidArgumentError, NonFiniteError, RegressionError,
                          StepSizeError)
from bdsde.grids import (
    BrownianTree,
    build_time_grid,
    build_tree,
    build_volatility_grid,
    sample_backward_path,
    sample_forward_ensemble,
)
from bdsde.second_order import DpOptions, TbdsdeProblem, solve_dp

ZERO = lambda t, x, y, z: np.zeros_like(np.asarray(x, dtype=float))


def make_setup(n=16, a=1.0, T=1.0, x0=0.0, seed=11):
    grid = build_time_grid(0.0, T, n)
    tree = build_tree(grid, a, x0=x0)
    w = sample_backward_path(grid, seed=seed)
    return grid, tree, w


class TestTreeSolver:
    def test_martingale_identity(self):
        # f = 0, g = 0, xi = X_T: y = X, z = 1 at every node, residual 0
        grid, tree, w = make_setup()
        prob = BdsdeProblem(terminal=lambda x: x, f=ZERO, g=ZERO)
        sol = solve_tree(prob, tree, w)
        for i in range(grid.n_steps + 1):
            np.testing.assert_allclose(sol.y[i], tree.states(i), atol=1e-13)
            np.testing.assert_allclose(sol.z[i], 1.0, atol=1e-13)
        assert sol.residual.max() == pytest.approx(0.0, abs=1e-14)

    def test_additive_backward_integral(self):
        # f = 0, g = beta constant, xi = X_T^2:
        # y(i, x) = x^2 + a (T - t_i) + beta (W_T - W_{t_i})  (exact on the tree)
        beta = 0.7
        a, T = 1.3, 1.0
        grid, tree, w = make_setup(n=12, a=a, T=T, seed=3)
        prob = BdsdeProblem(terminal=lambda x: x**2, f=ZERO,
                            g=lambda t, x, y, z: np.full_like(np.asarray(x, dtype=float), beta))
        sol = solve_tree(prob, tree, w)
        for i in range(grid.n_steps + 1):
            x = tree.states(i)
            expected = x**2 + a * (T - grid.time(i)) + beta * w.tail_increment(i)
            np.testing.assert_allclose(sol.y[i], expected, atol=1e-12)
            np.testing.assert_allclose(sol.z[i], 2 * x, atol=1e-12)

    def test_linear_ode_closed_form_and_order(self):
        # f = c y, g = 0, xi = 1: y_i = exp(c (T - t_i)) up to O(dt)
        c = 0.8
        errs = []
        for n in (16, 32, 64):
            grid, tree, w = make_setup(n=n)
            prob = BdsdeProblem(terminal=lambda x: np.ones_like(x),
                                f=lambda t, x, y, z: c * y, g=ZERO, lipschitz_f=c)
            sol = solve_tree(prob, tree, w)
            errs.append(abs(sol.y0 - np.exp(c)))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.3)

    def test_step_size_guard(self):
        grid, tree, w = make_setup(n=2)
        prob = BdsdeProblem(terminal=lambda x: x, f=lambda t, x, y, z: 5.0 * y,
                            g=ZERO, lipschitz_f=5.0)
        with pytest.raises(StepSizeError):
            solve_tree(prob, tree, w)

    def test_divergent_fixed_point_names_step_and_volatility(self):
        # f = -1.5 y / dt makes the implicit update y <- base - 1.5 y; with no
        # Lipschitz constant declared, the step guard cannot pre-empt it
        grid, tree, w = make_setup(n=4)
        prob = BdsdeProblem(terminal=lambda x: 1.0 + x**2,
                            f=lambda t, x, y, z: -1.5 * y / grid.dt, g=ZERO)
        for paths in (w, [w, sample_backward_path(grid, seed=12)]):
            with pytest.raises(ConvergenceError, match="at step 3, volatility 1$"):
                solve_tree(prob, tree, paths)

    def test_linearity_in_terminal_data(self):
        # affine (f, g): solve(a xi1 + b xi2) = a solve(xi1) + b solve(xi2)
        grid, tree, w = make_setup(n=10, seed=5)
        f = lambda t, x, y, z: 0.3 * y + 0.1 * z + 0.2
        g = lambda t, x, y, z: 0.4 * y + 0.05
        xi1 = lambda x: x**2
        xi2 = lambda x: np.sin(x)
        al, be = 1.7, -0.6
        # combination minus superposition must cancel the affine offsets:
        # solve(al xi1 + be xi2 + (1 - al - be) * 0) with affine maps is
        # al sol1 + be sol2 + (1 - al - be) sol0 where sol0 solves xi = 0
        s1 = solve_tree(BdsdeProblem(terminal=xi1, f=f, g=g, lipschitz_f=0.4), tree, w)
        s2 = solve_tree(BdsdeProblem(terminal=xi2, f=f, g=g, lipschitz_f=0.4), tree, w)
        s0 = solve_tree(BdsdeProblem(terminal=lambda x: np.zeros_like(x), f=f, g=g,
                                     lipschitz_f=0.4), tree, w)
        sc = solve_tree(BdsdeProblem(
            terminal=lambda x: al * xi1(x) + be * xi2(x), f=f, g=g, lipschitz_f=0.4),
            tree, w)
        for i in range(grid.n_steps + 1):
            combo = al * s1.y[i] + be * s2.y[i] + (1 - al - be) * s0.y[i]
            np.testing.assert_allclose(sc.y[i], combo, atol=5e-11)

    def test_terminal_scaling_scales_supnorm_exactly(self):
        grid, tree, w = make_setup(n=8, seed=2)
        f = lambda t, x, y, z: 0.5 * y
        kappa = 3.7
        s1 = solve_tree(BdsdeProblem(terminal=lambda x: x**2, f=f, g=ZERO,
                                     lipschitz_f=0.5), tree, w)
        s2 = solve_tree(BdsdeProblem(terminal=lambda x: kappa * x**2, f=f, g=ZERO,
                                     lipschitz_f=0.5), tree, w)
        m1 = max(np.abs(v).max() for v in s1.y)
        m2 = max(np.abs(v).max() for v in s2.y)
        assert m2 == pytest.approx(kappa * m1, rel=1e-10)

    def test_markov_property_on_subtree(self):
        # with g = 0 and Markovian terminal data, the node value equals the
        # value of a fresh solve started at that node
        grid, tree, w = make_setup(n=8, a=1.5, seed=4)
        prob = BdsdeProblem(terminal=lambda x: np.cos(x),
                            f=lambda t, x, y, z: 0.2 * y + 0.1 * np.tanh(z),
                            g=ZERO, lipschitz_f=0.3)
        sol = solve_tree(prob, tree, w)
        i = 3
        for j in [0, 2, tree.n_nodes(i) - 1]:
            x_node = tree.states(i)[j]
            sub_grid = build_time_grid(grid.time(i), grid.horizon, grid.n_steps - i)
            sub_tree = build_tree(sub_grid, 1.5, x0=x_node)
            sub_w = sample_backward_path(sub_grid, seed=0)
            sub = solve_tree(prob, sub_tree, sub_w)
            assert sub.y0 == pytest.approx(sol.y[i][j], abs=1e-12)

    @pytest.mark.parametrize("reading", READINGS)
    def test_a_column_of_trees_is_each_trees_own_solve(self, reading):
        # V trees swept together on one path: every level, y0, z and the
        # worst residual and iteration count are those of the solo solves
        grid = build_time_grid(0.0, 1.0, 12)
        w = sample_backward_path(grid, seed=3)
        prob = BdsdeProblem(terminal=lambda x: np.abs(x - 0.2),
                            f=lambda t, x, y, z: 0.3 * np.sin(y) - 0.2 * z,
                            g=lambda t, x, y, z: 0.5 * np.cos(y), reading=reading)
        a = np.array([0.5, 0.8, 1.4, 2.0])[:, None]
        trees = BrownianTree(grid=grid, a=a, x0=0.3, step=np.sqrt(a * grid.dt))
        both = solve_tree(prob, trees, w)
        solo = [solve_tree(prob, build_tree(grid, v, x0=0.3), w) for v in a[:, 0]]
        assert both.y0_paths.tolist() == [s.y0 for s in solo] and both.y0 == solo[0].y0
        for i in range(grid.n_steps + 1):
            np.testing.assert_array_equal(both.y[i], [s.y[i] for s in solo])
            np.testing.assert_array_equal(both.z[i], [s.z[i] for s in solo])
        np.testing.assert_array_equal(both.residual, np.max([s.residual for s in solo], axis=0))
        np.testing.assert_array_equal(both.picard_iters,
                                      np.max([s.picard_iters for s in solo], axis=0))
        assert len({tuple(s.picard_iters) for s in solo}) > 1
        with pytest.raises(InvalidArgumentError, match="one backward path"):
            solve_tree(prob, trees, [w, sample_backward_path(grid, seed=4)])


def affine_update(c, b, calls):
    """y <- c_r y + b_r on each row r, counting its calls."""
    def update(y):
        calls.append(None)
        return c[..., None] * y + b
    return update


class TestReading:
    """The backward integral's reading is the equation's, checked where it is built."""

    @pytest.mark.parametrize("reading", ["Ito", "midpoint", ""])
    def test_both_problem_classes_refuse_an_unknown_reading(self, reading):
        vg = build_volatility_grid(0.5, 2.0, 3)
        with pytest.raises(InvalidArgumentError, match=f"unknown reading {reading!r}"):
            BdsdeProblem(terminal=lambda x: x, f=ZERO, g=ZERO, reading=reading)
        with pytest.raises(InvalidArgumentError, match=f"unknown reading {reading!r}"):
            TbdsdeProblem(terminal=lambda x: x, F=lambda t, x, y, z, a: 0.0 * x, g=ZERO,
                          volgrid=vg, reading=reading)

    @pytest.mark.parametrize("reading", READINGS)
    def test_the_classical_problem_keeps_the_reading(self, reading):
        prob = TbdsdeProblem(terminal=lambda x: x, F=lambda t, x, y, z, a: 0.0 * x, g=ZERO,
                             volgrid=build_volatility_grid(0.5, 2.0, 3), reading=reading)
        assert prob.classical_problem(0.5).reading == reading

    @given(c=st.floats(-0.5, 0.5), n=st.integers(1, 12), n_a=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**20))
    def test_a_state_free_noise_reads_alike_either_way(self, c, n, n_a, seed):
        # with g = c the endpoint and the midpoint integrals are one sum, so
        # the two readings are one equation: on the tree (one volatility) and
        # on the lattice they agree up to rounding
        prob = TbdsdeProblem(terminal=lambda x: 2.0 + x**2,
                             F=lambda t, x, y, z, a: 0.3 * np.sin(y) - 0.2 * z,
                             g=lambda t, x, y, z: c + 0.0 * y,
                             volgrid=build_volatility_grid(0.5, 2.0, n_a), lipschitz_f=0.3)
        grid = build_time_grid(0.0, 1.0, n)
        paths = [sample_backward_path(grid, seed=seed + k) for k in range(2)]
        ito, strat = (solve_dp(replace(prob, reading=r), grid, paths, x0=0.3,
                               opts=DpOptions(x_steps=40)) for r in READINGS)
        assert ito.backend == strat.backend == ("tree" if n_a == 1 else "lattice")
        np.testing.assert_allclose(strat.y0_paths, ito.y0_paths, rtol=1e-12, atol=0.0)


class TestFixedPoint:
    @pytest.mark.parametrize("shape, a", [((), 1.0), ((4,), 1.0),
                                          ((2, 3), np.array([[[0.5]], [[2.0]]]))])
    def test_each_row_is_its_own_solve(self, shape, a):
        gen = np.random.default_rng(4)
        c = np.linspace(0.05, 0.8, max(1, int(np.prod(shape)))).reshape(shape)
        b, y_start = gen.normal(size=(2,) + shape + (5,))
        calls = []
        y, iters, defect = _fixed_point(affine_update(c, b, calls), y_start, 3, a)
        assert isinstance(iters, np.ndarray) and iters.shape == shape == defect.shape
        assert y.shape == y_start.shape
        assert len(calls) == iters.max() + 1
        assert len(np.unique(iters)) == c.size  # every rate freezes at its own pass
        for r in np.ndindex(shape):
            alone = _fixed_point(affine_update(c[r], b[r], []), y_start[r], 3, 1.0)
            for got, own in zip((y[r], iters[r], defect[r]), alone):
                assert np.asarray(got).tobytes() == np.asarray(own).tobytes()

    @pytest.mark.parametrize("shape, a, stuck, where", [
        ((4,), 1.0, (2,), "path 2, node 3 did not reach 1e-12 in {} iterations at step 5, "
                          "volatility 1$"),
        ((2, 3), np.array([[[0.5]], [[2.0]]]), (1, 1),
         "path 1, node 3 did not reach 1e-12 in {} iterations at step 5, volatility 2$"),
        ((), 1.0, (), "at node 3 did not reach 1e-12 in {} iterations at step 5, volatility 1$")])
    def test_convergence_error_names_the_first_live_row(self, shape, a, stuck, where):
        # rows from stuck on contract at 0.99: they need ~2750 passes
        c = np.full(shape, 0.5)
        c.reshape(-1)[np.ravel_multi_index(stuck, shape):] = 0.99
        b = np.zeros(shape + (5,))
        b[..., 3] = 1.0
        b[..., 1] = 0.5
        with pytest.raises(ConvergenceError, match=where.format(MAX_ITERS)):
            _fixed_point(affine_update(c, b, []), np.zeros_like(b), 5, a)

    @pytest.mark.parametrize("shape, where", [((), "node 2$"), ((4,), "path 0, node 2$")])
    def test_a_non_finite_iterate_names_its_node(self, shape, where):
        # y <- 0.5 y + b, with b's node 2 turning to NaN on the third pass
        b, calls = np.ones(shape + (5,)), []

        def update(y):
            calls.append(None)
            if len(calls) == 3:
                b[..., 2] = np.nan
            return 0.5 * y + b
        with pytest.raises(NonFiniteError, match="non-finite iterate at step 5, volatility 1, "
                                                 + where):
            _fixed_point(update, np.zeros(shape + (5,)), 5, 1.0)
        assert len(calls) == 3


class TestForcing:
    def test_zero_forcing_bit_identical(self):
        grid, tree, w = make_setup(n=9, seed=8)
        base = BdsdeProblem(terminal=lambda x: x**2,
                            f=lambda t, x, y, z: 0.3 * np.sin(y) + z,
                            g=lambda t, x, y, z: 0.2 * y, lipschitz_f=1.3)
        forced = BdsdeProblem(terminal=base.terminal, f=base.f, g=base.g,
                              forcing=np.zeros(grid.n_steps + 1), lipschitz_f=1.3)
        s0 = solve_tree(base, tree, w)
        s1 = solve_tree(forced, tree, w)
        for i in range(grid.n_steps + 1):
            assert np.array_equal(s0.y[i], s1.y[i])
            assert np.array_equal(s0.z[i], s1.z[i])

    def test_linear_forcing_closed_form(self):
        # f = 0, g = 0, xi = 0, V_t = t: y_t = V_T - V_t = T - t
        grid, tree, w = make_setup(n=10)
        V = grid.nodes.copy()
        prob = BdsdeProblem(terminal=lambda x: np.zeros_like(x), f=ZERO, g=ZERO,
                            forcing=V)
        sol = solve_tree(prob, tree, w)
        for i in range(grid.n_steps + 1):
            np.testing.assert_allclose(sol.y[i], 1.0 - grid.time(i), atol=1e-13)

    @pytest.mark.parametrize("m", [1, 3], ids=["path", "batch"])
    def test_superposition_of_terminal_and_forcing(self, m):
        # f = c y and g = beta y make the scheme linear in (xi, V):
        # y[xi, V] - y[xi, 0] = y[0, V] at every node
        grid, tree, _ = make_setup(n=7)
        w = [sample_backward_path(grid, seed=6 + k) for k in range(m)]
        V = np.cumsum(np.abs(np.sin(np.arange(8))))
        common = dict(f=lambda t, x, y, z: 0.4 * y, g=lambda t, x, y, z: 0.1 * y,
                      lipschitz_f=0.4)
        xi = lambda x: np.abs(x)
        both = solve_tree(BdsdeProblem(terminal=xi, forcing=V, **common), tree, w)
        xi_only = solve_tree(BdsdeProblem(terminal=xi, **common), tree, w)
        v_only = solve_tree(BdsdeProblem(terminal=np.zeros_like, forcing=V, **common), tree, w)
        for i in range(grid.n_steps + 1):
            np.testing.assert_allclose(both.y[i] - xi_only.y[i], v_only.y[i], rtol=0, atol=1e-10)
        np.testing.assert_allclose(both.y0_paths - xi_only.y0_paths, v_only.y0_paths,
                                   rtol=0, atol=1e-10)
        assert np.abs(v_only.y0_paths).min() > 1.0  # the forcing is felt on every path

    @pytest.mark.parametrize("backend", ["tree", "mc"])
    def test_forcing_needs_one_value_per_node(self, backend):
        grid, tree, w = make_setup(n=4, seed=3)
        if backend == "tree":
            solve = lambda prob: solve_tree(prob, tree, w)
        else:
            ens = sample_forward_ensemble(grid, 200, 1.0, seed=4)
            solve = lambda prob: solve_regression(prob, ens, w, basis_degree=2)
        forced = lambda V: BdsdeProblem(terminal=lambda x: x**2, f=ZERO, g=ZERO, forcing=V)
        for V in (np.arange(4.0), np.arange(6.0), np.ones((5, 2))):
            with pytest.raises(InvalidArgumentError,
                               match=rf"shape \(5,\), got {re.escape(str(V.shape))}"):
                solve(forced(V))
        # V_t = t adds T - t = 1 at the root, up to the regression's ridge bias
        sol, unforced = solve(forced(grid.nodes.copy())), solve(forced(None))
        assert sol.y0 == pytest.approx(unforced.y0 + 1.0, abs=1e-9)

    def test_nondecreasing_forcing_dominates(self):
        # comparison with V^1 - V^2 nondecreasing (Snell-style forcing)
        grid, tree, w = make_setup(n=6, seed=9)
        V1 = np.cumsum(np.linspace(0, 0.5, 7))
        common = dict(terminal=lambda x: x**2, f=lambda t, x, y, z: 0.2 * y,
                      g=ZERO, lipschitz_f=0.2)
        p1 = BdsdeProblem(forcing=V1, **common)
        p2 = BdsdeProblem(forcing=None, **common)
        s1 = solve_tree(p1, tree, w)
        s2 = solve_tree(p2, tree, w)
        rep = check_comparison(s1, s2)
        assert rep.preconditions_hold and rep.ordered


class TestComparison:
    def test_reflexive_equality(self):
        grid, tree, w = make_setup(n=5)
        p = BdsdeProblem(terminal=lambda x: x, f=ZERO, g=ZERO)
        s = solve_tree(p, tree, w)
        rep = check_comparison(s, s)
        assert rep.ordered and rep.worst_margin == 0.0

    def test_refuses_solves_on_different_trees(self):
        grid, tree, w = make_setup(n=5)
        p = BdsdeProblem(terminal=lambda x: x, f=ZERO, g=ZERO)
        s = solve_tree(p, tree, w)
        # an equal tree built again is the same tree
        assert check_comparison(s, solve_tree(p, build_tree(grid, 1.0), w)).ordered
        for other in (build_tree(grid, 1.5), build_tree(grid, 1.0, x0=0.5),
                      build_tree(build_time_grid(0, 1, 6), 1.0)):
            with pytest.raises(InvalidArgumentError, match="on one tree"):
                check_comparison(s, solve_tree(p, other, sample_backward_path(other.grid, 11)))
        ens = sample_forward_ensemble(grid, 100, 1.0, seed=1)
        with pytest.raises(InvalidArgumentError, match="a BdsdeSolution of backend 'mc'"):
            check_comparison(s, solve_regression(p, ens, w, basis_degree=1))
        # a singleton dp solve runs on its tree but solves a TbdsdeProblem
        dp = solve_dp(TbdsdeProblem(terminal=lambda x: x, F=lambda t, x, y, z, a: 0.0 * x,
                                    g=ZERO, volgrid=build_volatility_grid(1.0, 1.0, 1)), grid, w)
        with pytest.raises(InvalidArgumentError, match="a TbdsdeSolution of backend 'tree'"):
            check_comparison(dp, s)

    def test_shifted_terminal_linear_generator(self):
        # xi2 = xi1 - 1 with f = c y: y1 - y2 = exp(c (T - t)) +- O(dt) > 0
        c = 0.6
        grid, tree, w = make_setup(n=32, seed=13)
        f = lambda t, x, y, z: c * y
        p1 = BdsdeProblem(terminal=lambda x: x**2, f=f, g=ZERO, lipschitz_f=c)
        p2 = BdsdeProblem(terminal=lambda x: x**2 - 1.0, f=f, g=ZERO, lipschitz_f=c)
        s1, s2 = solve_tree(p1, tree, w), solve_tree(p2, tree, w)
        rep = check_comparison(s1, s2)
        assert rep.preconditions_hold and rep.ordered
        for i in [0, 10, 31]:
            gap = s1.y[i] - s2.y[i]
            np.testing.assert_allclose(gap, np.exp(c * (1.0 - grid.time(i))),
                                       rtol=3 * grid.dt)

    def test_randomized_ordered_instances(self):
        # property harness: 100 randomized ordered instances, no violations
        rng_ = np.random.default_rng(21)
        eps = 1e-11
        for _ in range(100):
            n = int(rng_.integers(4, 10))
            a = float(rng_.uniform(0.3, 2.5))
            grid = build_time_grid(0, 1, n)
            tree = build_tree(grid, a, x0=float(rng_.normal()))
            w = sample_backward_path(grid, seed=int(rng_.integers(1 << 30)))
            c1 = rng_.uniform(0.1, 0.6)
            c2 = rng_.uniform(0.1, 0.6)
            bump = rng_.uniform(0.0, 1.0)
            shift = rng_.uniform(0.0, 2.0)
            f2 = lambda t, x, y, z, c1=c1, c2=c2: c1 * np.tanh(y) + c2 * np.sin(z)
            f1 = lambda t, x, y, z, f2=f2, bump=bump: f2(t, x, y, z) + bump
            g = lambda t, x, y, z: 0.3 * np.cos(y)
            xi2 = lambda x: np.abs(x)
            xi1 = lambda x, shift=shift: np.abs(x) + shift
            p1 = BdsdeProblem(terminal=xi1, f=f1, g=g, lipschitz_f=c1 + c2)
            p2 = BdsdeProblem(terminal=xi2, f=f2, g=g, lipschitz_f=c1 + c2)
            s1, s2 = solve_tree(p1, tree, w), solve_tree(p2, tree, w)
            rep = check_comparison(s1, s2, eps=eps)
            assert rep.ordered, f"violation {rep.worst_margin}"


class TestRegressionSolver:
    @pytest.mark.parametrize("degree", [-1, 2.5])
    def test_refuses_a_basis_degree_that_is_not_a_count(self, degree):
        grid = build_time_grid(0, 1, 4)
        ens = sample_forward_ensemble(grid, 100, 1.0, seed=1)
        prob = BdsdeProblem(terminal=lambda x: x, f=ZERO, g=ZERO)
        with pytest.raises(InvalidArgumentError,
                           match=f"basis_degree must be an integer >= 0, got {degree}"):
            solve_regression(prob, ens, sample_backward_path(grid, seed=1), basis_degree=degree)

    def test_martingale_y0_near_zero(self):
        grid = build_time_grid(0, 1, 8)
        ens = sample_forward_ensemble(grid, 40_000, 1.0, seed=17)
        w = sample_backward_path(grid, seed=1)
        prob = BdsdeProblem(terminal=lambda x: x, f=ZERO, g=ZERO)
        sol = solve_regression(prob, ens, w, basis_degree=2)
        se = ens.states[:, -1].std() / np.sqrt(ens.n_paths)
        assert abs(sol.y0) < 3 * se

    def test_matches_tree_on_additive_problem(self):
        # tree backend is the oracle; y0 agreement within 3 s.e. over reruns
        beta = 0.5
        grid = build_time_grid(0, 1, 16)
        tree = build_tree(grid, 1.0)
        w = sample_backward_path(grid, seed=23)
        prob = BdsdeProblem(terminal=lambda x: x**2, f=ZERO,
                            g=lambda t, x, y, z: np.full_like(np.asarray(x, dtype=float), beta))
        ref = solve_tree(prob, tree, w).y0
        vals = []
        for s in range(8):
            ens = sample_forward_ensemble(grid, 20_000, 1.0, seed=100 + s)
            vals.append(solve_regression(prob, ens, w, basis_degree=3).y0)
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - ref) < max(3 * se, 2e-3)

    def test_underparameterized_basis_reports_bias(self):
        # a degree-0 projection of a state-dependent regressand leaves the
        # full cross-sectional spread in the residual diagnostic, while an
        # adequate basis leaves only the O(sqrt(dt)) conditional noise
        grid = build_time_grid(0, 1, 64)
        ens = sample_forward_ensemble(grid, 20_000, 1.0, seed=3)
        w = sample_backward_path(grid, seed=2)
        prob = BdsdeProblem(terminal=lambda x: x**2, f=ZERO, g=ZERO)
        s0 = solve_regression(prob, ens, w, basis_degree=0)
        s2 = solve_regression(prob, ens, w, basis_degree=2)
        assert s0.projection_rms[-1] > 4 * s2.projection_rms[-1]

    def test_deterministic_given_seed(self):
        grid = build_time_grid(0, 1, 6)
        w = sample_backward_path(grid, seed=5)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(x, 0.0), f=ZERO, g=ZERO)
        outs = []
        for _ in range(2):
            ens = sample_forward_ensemble(grid, 5000, 1.0, seed=9, workers=2)
            outs.append(solve_regression(prob, ens, w, basis_degree=2))
        # what an LSMC solution holds: level 0 and every step's diagnostics
        for field in ("y0_paths", "projection_rms", "residual", "picard_iters"):
            assert np.array_equal(getattr(outs[0], field), getattr(outs[1], field))
        assert len(outs[0].y) == len(outs[0].z) == 1
        assert np.array_equal(outs[0].y[0], outs[1].y[0])
        assert np.array_equal(outs[0].z[0], outs[1].z[0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ensemble_and_solve_hold_about_the_states_alone(self, workers):
        # sampling holds the states and, per worker, one Philox block's normals;
        # the solve keeps level 0, not every level
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_path(grid, seed=2)
        prob = BdsdeProblem(terminal=lambda x: x**2, f=lambda t, x, y, z: 0.5 * y - 0.2 * z,
                            g=lambda t, x, y, z: 0.3 * y, lipschitz_f=0.5)
        block = rng.BLOCK_SIZE * grid.n_steps * 8
        tracemalloc.start()
        try:
            ens = sample_forward_ensemble(grid, 20_000, 1.0, seed=3, workers=workers)
            sampled = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solve_regression(prob, ens, w, basis_degree=3)
            solved = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        states = ens.states.nbytes
        assert sampled <= states + workers * block + 2**21
        assert solved <= states

    def test_condition_guard(self):
        grid = build_time_grid(0, 1, 3)
        ens = sample_forward_ensemble(grid, 200, 1.0, seed=4)
        w = sample_backward_path(grid, seed=4)
        prob = BdsdeProblem(terminal=lambda x: x, f=ZERO, g=ZERO)
        # degree 14 on 200 states: the ridged Gram matrix's condition number is 8e14
        with pytest.raises(RegressionError, match=r"exceeds 1e\+12"):
            solve_regression(prob, ens, w, basis_degree=14)


class TestRegressOnState:
    @staticmethod
    def column_fit(x, target, degree, ridge):
        # normal equations on a column-layout basis of the normalized state
        u = (x - np.mean(x)) / np.std(x)
        phi = np.column_stack([u**k for k in range(degree + 1)])
        gram = phi.T @ phi / len(x) + ridge * np.eye(degree + 1)
        rows = np.reshape(target, (-1, len(x)))
        fits = [phi @ np.linalg.solve(gram, phi.T @ row / len(x)) for row in rows]
        return np.reshape(fits, np.shape(target))

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_matches_column_layout_fit(self, degree):
        rng = np.random.default_rng(degree)
        x = 1.0 + 0.4 * rng.normal(size=3000)
        targets = [np.sin(3 * x) + 0.2 * rng.normal(size=3000),
                   x**2 + rng.normal(size=(3, 3000))]
        fits, rms = _regress_on_state(x, targets, degree)
        wants = [self.column_fit(x, t, degree, RIDGE) for t in targets]
        for t, fit, want in zip(targets, fits, wants):
            assert fit.shape == t.shape
            np.testing.assert_allclose(fit, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))
        assert rms == pytest.approx([np.sqrt(np.mean((targets[0] - wants[0]) ** 2))],
                                    rel=1e-12)

    @pytest.mark.parametrize("x", [np.full(500, 2.0), np.linspace(-1, 1, 500)],
                             ids=["constant", "spread"])
    def test_fits_own_their_memory(self, x):
        # a view into one block of all fits would keep every row of a step alive
        rng = np.random.default_rng(1)
        targets = [rng.normal(size=500), rng.normal(size=(2, 500)), rng.normal(size=500)]
        fits, _ = _regress_on_state(x, targets, 2)
        for k, fit in enumerate(fits):
            assert fit.base is None or fit.base.nbytes == fit.nbytes
            assert not any(np.shares_memory(fit, other) for other in fits[k + 1:] + targets)
        if np.std(x) == 0:  # degenerate state: every fit is its row's mean
            np.testing.assert_array_equal(fits[1], np.mean(targets[1], axis=1)[:, None]
                                          * np.ones(500))


class TestAprioriBoundedness:
    def test_affine_envelope_stable_under_refinement(self):
        # sup|y| <= A + B sup|xi| fitted on coarse instances keeps holding
        # after a grid refinement (Lipschitz data fixed)
        rng = np.random.default_rng(41)
        f = lambda t, x, y, z: 0.3 * np.tanh(y) + 0.1
        g = lambda t, x, y, z: 0.2 * np.cos(y)

        def sup_pair(n, scale, seed):
            grid = build_time_grid(0, 1, n)
            tree = build_tree(grid, 1.0)
            w = sample_backward_path(grid, seed=seed)
            prob = BdsdeProblem(terminal=lambda x, s=scale: s * np.abs(np.sin(x)),
                                f=f, g=g, lipschitz_f=0.3)
            sol = solve_tree(prob, tree, w)
            sup_y = max(float(np.max(np.abs(v))) for v in sol.y)
            sup_xi = scale
            return sup_xi, sup_y

        pts = [sup_pair(8, float(rng.uniform(0.5, 5)), int(rng.integers(1 << 30)))
               for _ in range(25)]
        X = np.array([[1.0, sx] for sx, _ in pts])
        yv = np.array([sy for _, sy in pts])
        _, B = np.linalg.lstsq(X, yv, rcond=None)[0]
        # upper envelope: intercept from the worst coarse instance, widened
        # to cover the cross-seed spread of the backward-noise contribution
        A = max(sy - B * sx for sx, sy in pts)
        margin = 0.5 * (1.0 + A + B)

        for _ in range(40):
            sx, sy = sup_pair(16, float(rng.uniform(0.5, 5)), int(rng.integers(1 << 30)))
            assert sy <= A + B * sx + margin
