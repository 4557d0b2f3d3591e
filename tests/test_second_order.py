import numpy as np
import pytest

from bdsde import second_order
from bdsde.classical import BdsdeProblem, SolverOptions, solve_tree
from bdsde.errors import InvalidArgumentError, NonFiniteError, VerificationError
from bdsde.grids import (
    build_time_grid,
    build_tree,
    build_volatility_grid,
    sample_backward_path,
    sample_forward_ensemble,
    subsample_path,
)
from bdsde.second_order import (
    DpOptions,
    TbdsdeProblem,
    extract_k,
    feynman_kac_residual,
    minimality_gap,
    representation_check,
    solve_dp,
)

FZERO = lambda t, x, y, z, a: np.zeros_like(np.asarray(x, dtype=float))
ZERO = lambda t, x, y, z: np.zeros_like(np.asarray(x, dtype=float))
HALF_Y = lambda t, x, y, z: 0.5 * y


def bsb_problem(terminal=lambda x: x**2, g=ZERO, n_a=5):
    vg = build_volatility_grid(0.5, 2.0, n_a)
    return TbdsdeProblem(terminal=terminal, F=FZERO, g=g, volgrid=vg)


def best_constant_gap(prob, sol, grid, w, g_scheme):
    """y0 minus the best constant-control value, each solved under g_scheme."""
    opts = SolverOptions(g_scheme=g_scheme)
    best = max(solve_tree(prob.classical_problem(float(a)),
                          build_tree(grid, float(a), x0=1.0), w, opts).y0
               for a in prob.finite_volatilities())
    return sol.y0 - best


class TestSingletonReduction:
    def test_tree_backend_matches_classical_nodewise(self):
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_path(grid, 1, seed=7)
        vg = build_volatility_grid(1.0, 1.0, 1)
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO,
                             g=lambda t, x, y, z: 0.3 * np.cos(y), volgrid=vg)
        sol2 = solve_dp(prob, grid, w, x0=1.0)
        tree = build_tree(grid, 1.0, x0=1.0)
        sol1 = solve_tree(prob.classical_problem(1.0), tree, w)
        for i in range(grid.n_steps + 1):
            assert np.max(np.abs(sol2.Y[i] - sol1.y[i])) < 1e-10
        assert sol2.K.k_terminal < 1e-9

    def test_backend_follows_finite_volatilities(self):
        grid = build_time_grid(0, 1, 4)
        w = sample_backward_path(grid, 1, seed=1)
        assert solve_dp(bsb_problem(), grid, w, opts=DpOptions(x_steps=40)).backend == "lattice"
        singleton = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO,
                                  volgrid=build_volatility_grid(1.0, 1.0, 1))
        assert solve_dp(singleton, grid, w).backend == "tree"


class TestBsbOracle:
    def test_value_and_argmax(self):
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_path(grid, 1, seed=1)
        sol = solve_dp(bsb_problem(), grid, w, x0=1.0, opts=DpOptions(x_steps=400))
        assert sol.y0 == pytest.approx(3.0, rel=0.02)
        frac = np.mean([np.mean(np.asarray(a) == 2.0) for a in sol.argmax_a[:-1]])
        assert frac >= 0.99

    def test_error_halves_with_dt(self):
        errs = []
        for n, xs in [(16, 100), (32, 200), (64, 400)]:
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, 1, seed=1)
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
                w = sample_backward_path(grid, 1, seed=1)
                sol = solve_dp(bsb_problem(), grid, w, x0=1.0,
                               opts=DpOptions(x_steps=x_steps))
                assert sol.y0 - 3.0 == pytest.approx(n * h**2 / 6, rel=0.02)

    def test_shifted_lattice_translates(self):
        # terminal (x - c)^2 from x0 = c is the c = 0 problem moved along x; a
        # lattice around c = 300 is uniform only up to linspace rounding
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, 1, seed=1)
        y0 = [solve_dp(bsb_problem(lambda x, c=c: (x - c) ** 2), grid, w, x0=c,
                       opts=DpOptions(x_steps=400)).y0 for c in (0.0, 300.0)]
        assert y0[1] == pytest.approx(y0[0], rel=1e-13)

    def test_concave_terminal_selects_low_volatility(self):
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_path(grid, 1, seed=1)
        sol = solve_dp(bsb_problem(terminal=lambda x: -(x**2)), grid, w, x0=1.0,
                       opts=DpOptions(x_steps=400))
        assert sol.y0 == pytest.approx(-1.5, rel=0.02)
        frac = np.mean([np.mean(np.asarray(a) == 0.5) for a in sol.argmax_a[:-1]])
        assert frac >= 0.99

    def test_volgrid_enlargement_never_decreases_value(self):
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, 1, seed=3)
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
            w = sample_backward_path(grid, 1, seed=1)
            vals.append(solve_dp(bsb_problem(), grid, w, x0=1.0,
                                 opts=DpOptions(x_steps=xs)).y0)
        diffs = np.abs(np.diff(vals))
        assert diffs[0] > diffs[1] > diffs[2]


class TestCompensator:
    def setup_method(self):
        self.grid = build_time_grid(0, 1, 32)
        self.w = sample_backward_path(self.grid, 1, seed=5)
        self.prob = bsb_problem()
        self.sol = solve_dp(self.prob, self.grid, self.w, x0=1.0,
                            opts=DpOptions(x_steps=200))

    @pytest.mark.parametrize("g_scheme", ["ito", "stratonovich"])
    @pytest.mark.parametrize("terminal", [lambda x: x**2, lambda x: -(x**2)],
                             ids=["convex", "concave"])
    def test_argmax_compensator_vanishes(self, terminal, g_scheme):
        prob = bsb_problem(terminal=terminal, g=HALF_Y)
        sol = solve_dp(prob, self.grid, self.w, x0=1.0,
                       opts=DpOptions(x_steps=200, g_scheme=g_scheme))
        assert sol.K.k_terminal < 1e-9
        assert np.all(np.diff(sol.K.expected_cumulative) >= 0)
        # the gap is measured under the solve's own scheme
        assert minimality_gap(prob, sol, self.w)[0] == pytest.approx(
            best_constant_gap(prob, sol, self.grid, self.w, g_scheme), abs=1e-12)

    def test_suboptimal_control_sees_positive_compensator(self):
        # under the low control the expected compensator equals the value gap
        k_low = extract_k(self.sol, self.prob, self.w, volatility=0.5)
        assert k_low.k_terminal > 1.0
        assert np.all(k_low.increments >= 0)
        assert np.all(np.diff(k_low.expected_cumulative) >= -1e-15)
        # a singleton grid solves on its tree, which carries only its own control
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO,
                             volgrid=build_volatility_grid(1.0, 1.0, 1))
        sol = solve_dp(prob, self.grid, self.w, x0=1.0)
        assert extract_k(sol, prob, self.w, volatility=1.0).k_terminal == 0.0
        for foreign in (0.5, 2.0):
            with pytest.raises(InvalidArgumentError):
                extract_k(sol, prob, self.w, volatility=foreign)
        # a path off the solve's grid is rejected, not read as a compensator
        fine = sample_backward_path(build_time_grid(0, 1, 64), 1, seed=5)
        with pytest.raises(InvalidArgumentError, match="share the grid"):
            extract_k(self.sol, self.prob, fine, volatility=0.5)

    @pytest.mark.parametrize("g_scheme", ["ito", "stratonovich"])
    def test_affine_terminal_all_controls_optimal(self, g_scheme):
        prob = bsb_problem(terminal=lambda x: x, g=HALF_Y)
        sol = solve_dp(prob, self.grid, self.w, x0=1.0,
                       opts=DpOptions(x_steps=200, g_scheme=g_scheme))
        assert sol.K.k_terminal < 1e-9
        assert extract_k(sol, prob, self.w, volatility=0.5).k_terminal < 1e-9
        assert minimality_gap(prob, sol, self.w)[0] == pytest.approx(
            best_constant_gap(prob, sol, self.grid, self.w, g_scheme), abs=1e-12)

    def test_infinite_generator_entry_excluded(self):
        def F(t, x, y, z, a):
            base = np.zeros_like(np.asarray(x, dtype=float))
            return base + (np.inf if a > 1.9 else 0.0)
        vg = build_volatility_grid(0.5, 2.0, 2)
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=F, g=ZERO, volgrid=vg)
        assert list(prob.finite_volatilities()) == [0.5]
        sol = solve_dp(prob, self.grid, self.w, x0=1.0, opts=DpOptions(x_steps=200))
        # only the low control survives, so the sup is that control's value,
        # solved on its exact tree
        assert sol.backend == "tree"
        assert sol.y0 == pytest.approx(1.0 + 0.5, abs=1e-12)


class TestNonFinite:
    def test_nan_terminal_names_step_volatility_and_node(self):
        # sqrt of the terminal is NaN on the lattice knots left of 0
        grid = build_time_grid(0, 1, 8)
        w = sample_backward_path(grid, 1, seed=5)
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
        paths = [sample_backward_path(grid, 1, seed=s) for s in (1, 2, 3)]
        paths[1].values[k] = np.nan
        prob = TbdsdeProblem(terminal=lambda x: x**2 + 1.0, F=FZERO, g=HALF_Y,
                             volgrid=build_volatility_grid(0.5, 2.0, n_a))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as info:
            solve_dp(prob, grid, paths, x0=1.0, opts=DpOptions(x_steps=50))
        err = info.value
        assert (err.path, err.step, err.volatility, err.node) == (1, k, 0.5, 0)
        assert f"step {k}" in str(err) and "path 1, node 0" in str(err)


class TestMinimalityGap:
    def test_singleton_gap_vanishes(self):
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, 1, seed=2)
        vg = build_volatility_grid(1.0, 1.0, 1)
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO, volgrid=vg)
        sol = solve_dp(prob, grid, w, x0=1.0)
        gap = minimality_gap(prob, sol, w)
        assert np.max(np.abs(gap)) < 1e-9

    def test_bsb_gap_shrinks_linearly(self):
        gaps = []
        for n, xs in [(16, 100), (32, 200), (64, 400)]:
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, 1, seed=1)
            prob = bsb_problem()
            sol = solve_dp(prob, grid, w, x0=1.0, opts=DpOptions(x_steps=xs))
            gaps.append(minimality_gap(prob, sol, w)[0])
        assert gaps[0] > 0
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.3)
        assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.3)


class TestRepresentation:
    def test_singleton_surplus_zero(self, monkeypatch):
        # the tree solution is its sole constant control's solve: reused, not solved again
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_tree(*args)
        monkeypatch.setattr(second_order, "solve_tree", counted)
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, 1, seed=4)
        vg = build_volatility_grid(1.3, 1.3, 1)
        prob = TbdsdeProblem(terminal=lambda x: np.abs(x), F=FZERO, g=ZERO, volgrid=vg)
        rep = representation_check(prob, grid, w, x0=0.5)
        assert rep.surplus == 0.0 and len(calls) == 1
        calls.clear()
        gap = minimality_gap(prob, solve_dp(prob, grid, w, x0=0.5), w)
        assert gap[0] == 0.0 and np.max(np.abs(gap)) < 1e-15 and len(calls) == 1

    def test_bsb_surplus_order_dt(self):
        surpluses = []
        for n, xs in [(32, 200), (64, 400)]:
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, 1, seed=4)
            rep = representation_check(bsb_problem(), grid, w, x0=1.0,
                                       opts=DpOptions(x_steps=xs))
            assert rep.best_a == 2.0
            surpluses.append(rep.surplus)
        assert surpluses[1] < surpluses[0]
        assert surpluses[0] == pytest.approx(2 * surpluses[1], rel=0.3)

    def test_mixed_convexity_strict_surplus(self):
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_path(grid, 1, seed=4)
        prob = bsb_problem(terminal=lambda x: np.where(x > 0, x**2, -x**2))
        rep = representation_check(prob, grid, w, x0=0.0, opts=DpOptions(x_steps=400))
        assert rep.surplus > 0.1  # time-varying optimal control beats any constant


class TestComparisonPrinciple:
    def test_randomized_ordered_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(4, 9))
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, 1, seed=int(rng.integers(1 << 30)))
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
        w = sample_backward_path(grid, 1, seed=6)
        ens = sample_forward_ensemble(grid, 2000, 2.0, seed=8, x0=1.0)
        rep = feynman_kac_residual(*self.u_bsb(), bsb_problem(), ens, w)
        assert abs(rep.min_k) < 1e-12 and abs(rep.mean_k) < 1e-12

    def test_suboptimal_control_constant_rate(self):
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, 1, seed=6)
        ens = sample_forward_ensemble(grid, 2000, 0.5, seed=8, x0=1.0)
        rep = feynman_kac_residual(*self.u_bsb(), bsb_problem(), ens, w)
        # k = hhat(2) - a_low + 0 = a_high - a_low = 1.5
        assert rep.mean_k == pytest.approx(1.5, abs=1e-10)
        assert rep.min_k == pytest.approx(1.5, abs=1e-10)

    def test_affine_candidate_zero_rate(self):
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, 1, seed=6)
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
            w = sample_backward_path(grid, 1, seed=6)
            ens = sample_forward_ensemble(grid, 4000, 2.0, seed=8, x0=1.0)
            rep = feynman_kac_residual(*self.u_bsb(), bsb_problem(), ens, w)
            res.append(rep.mean_abs_residual)
        assert res[1] < res[0]
        assert res[0] / res[1] > 1.4  # at least the half-order MC decay

    def test_inconsistent_hamiltonian_rejected(self):
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, 1, seed=6)
        ens = sample_forward_ensemble(grid, 200, 2.0, seed=8, x0=1.0)
        # an hhat smaller than the conjugate of F makes the rate negative:
        # the candidate cannot be a supersolution under the high control
        low_hhat = lambda t, x, y, z, gam: 0.25 * gam
        with pytest.raises(VerificationError):
            feynman_kac_residual(*self.u_bsb(), bsb_problem(), ens, w, hhat=low_hhat)

    def test_generator_enters_with_the_solver_sign(self):
        # F = 0.3 on the band: solve_dp's value is x^2 + 2.3 (1 - t), since
        # the Hamiltonian at curvature 2 is max_a (a + 0.3) = 2.3
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=lambda t, x, y, z, a: 0.3 + 0.0 * x,
                             g=ZERO, volgrid=build_volatility_grid(0.5, 2.0, 5))
        du, d2u = (lambda t, x: 2.0 * x), (lambda t, x: 2.0 + 0.0 * x)
        reps = {}
        for n in (16, 64):
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, 1, seed=6)
            ens = sample_forward_ensemble(grid, 2000, 2.0, seed=8, x0=1.0)
            for slope in (2.3, 1.7):
                u = lambda t, x, c=slope: x**2 + c * (1.0 - t)
                reps[n, slope] = feynman_kac_residual(u, du, d2u, prob, ens, w)
        assert abs(reps[64, 2.3].mean_residual) < 0.05
        assert reps[16, 2.3].mean_abs_residual / reps[64, 2.3].mean_abs_residual > 1.4
        assert abs(reps[16, 1.7].mean_residual) > 0.4
        assert abs(reps[64, 1.7].mean_residual) > 0.4

    def test_wrong_candidate_leaves_o1_residual(self):
        # a candidate with the wrong time slope passes the rate check (the
        # rate is nonnegative by conjugacy) but its residual plateaus
        u = lambda t, x: x**2 + 0.5 * (1.0 - t)
        du = lambda t, x: 2.0 * x
        d2u = lambda t, x: 2.0 + 0.0 * x
        res = []
        for n in (16, 64):
            grid = build_time_grid(0, 1, n)
            w = sample_backward_path(grid, 1, seed=6)
            ens = sample_forward_ensemble(grid, 2000, 2.0, seed=8, x0=1.0)
            res.append(feynman_kac_residual(u, du, d2u, bsb_problem(), ens, w).mean_abs_residual)
        assert min(res) > 1.0  # true slope is 2.0, defect ~ 1.5 independent of dt


class TestStratonovichItoEquivalence:
    def test_ensemble_mean_gap_is_order_dt(self):
        # midpoint discretization of the Stratonovich form vs right-endpoint
        # discretization of the converted form with the realized bracket
        beta = 0.5
        g = lambda t, x, y, z: beta * y
        levels = (16, 32, 64)
        sums = {n: 0.0 for n in levels}
        n_seeds = 40
        from bdsde.classical import SolverOptions
        for seed in range(n_seeds):
            fine = sample_backward_path(build_time_grid(0, 1, 64), 1, seed=seed)
            for n in levels:
                w = subsample_path(fine, 64 // n)
                tree = build_tree(w.grid, 1.0, x0=1.0)
                br = {round(w.grid.time(i), 12): float(w.increments[i, 0] ** 2) / w.grid.dt
                      for i in range(n)}
                p_s = BdsdeProblem(terminal=lambda x: x**2,
                                   f=lambda t, x, y, z: np.zeros_like(x), g=g)
                p_i = BdsdeProblem(terminal=lambda x: x**2,
                                   f=lambda t, x, y, z, br=br: 0.5 * beta**2 * y * br[round(t, 12)],
                                   g=g)
                ys = solve_tree(p_s, tree, w, SolverOptions(g_scheme="stratonovich")).y0
                yi = solve_tree(p_i, tree, w, SolverOptions(g_scheme="ito")).y0
                sums[n] += abs(ys - yi)
        means = {n: sums[n] / n_seeds for n in levels}
        dts = np.array([1.0 / n for n in levels])
        d = np.array([means[n] for n in levels])
        c = float(np.sum(d * dts) / np.sum(dts * dts))  # O(dt) envelope fit
        assert np.all(d <= 1.5 * c * dts)
        assert means[16] / means[32] == pytest.approx(2.0, rel=0.35)
        assert means[32] / means[64] == pytest.approx(2.0, rel=0.35)
