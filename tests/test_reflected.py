import numpy as np
import pytest

from bdsde.classical import READINGS, BdsdeProblem, solve_tree
from bdsde.errors import InvalidArgumentError, InvalidBarrierError
from bdsde.grids import build_time_grid, build_tree, sample_backward_path
from bdsde.reflected import (
    Barrier,
    skorokhod_diagnostic,
    snell_envelope,
    solve_penalized,
    solve_reflected,
)

ZERO = lambda t, x, y, z: np.zeros_like(np.asarray(x, dtype=float))


def setup(n=16, a=1.0, x0=0.0, seed=3):
    grid = build_time_grid(0, 1, n)
    tree = build_tree(grid, a, x0=x0)
    w = sample_backward_path(grid, seed=seed)
    return grid, tree, w


def stop_now_barrier():
    # level 1 before maturity, 0 at maturity (compatible with xi = 0)
    return Barrier(fn=lambda t, x: np.where(t < 1.0 - 1e-12, 1.0, 0.0) + 0.0 * x)


class TestSnellEnvelope:
    def test_zero_payoff(self):
        _, tree, _ = setup()
        vals = snell_envelope(tree, lambda t, x: 0.0 * x, lambda x: 0.0 * x)
        assert all(np.max(np.abs(v)) == 0.0 for v in vals)

    def test_unit_payoff_before_maturity(self):
        _, tree, _ = setup()
        vals = snell_envelope(tree, lambda t, x: 1.0 + 0.0 * x, lambda x: 0.0 * x)
        for i in range(tree.grid.n_steps):
            np.testing.assert_allclose(vals[i], 1.0)

    def test_matches_brute_force_over_stopping_rules(self):
        # enumerate every adapted stopping rule on a 3-step tree
        grid, tree, _ = setup(n=3)
        payoff = lambda t, x: np.maximum(1.0 - x, 0.0) * (1.0 - t)
        terminal = lambda x: np.maximum(1.2 - x, 0.0)
        vals = snell_envelope(tree, payoff, terminal)

        pay = [payoff(grid.time(i), tree.states(i)) for i in range(3)]
        term = terminal(tree.states(3))
        best = -np.inf
        # rule: stop/continue flag per non-terminal node (6 nodes -> 64 rules)
        import itertools
        nodes = [(i, j) for i in range(3) for j in range(i + 1)]
        for rule_bits in itertools.product([0, 1], repeat=len(nodes)):
            rule = dict(zip(nodes, rule_bits))
            value = 0.0
            # each full path, weighted by its full probability, pays at the
            # first stopping node it visits (or the terminal leaf)
            for moves in itertools.product([0, 1], repeat=3):
                p_full = 0.5**3
                j = 0
                reward = None
                for i, m in enumerate(moves):
                    if rule[(i, j)]:
                        reward = pay[i][j]
                        break
                    j += 1 - m  # m = 0 is the up branch (child j + 1)
                if reward is None:
                    reward = term[j]
                value += p_full * reward
            best = max(best, value)
        assert vals[0][0] == pytest.approx(best, abs=1e-12)

    def test_decreasing_deterministic_payoff_stops_now(self):
        _, tree, _ = setup(n=8)
        payoff = lambda t, x: (1.0 - t) + 0.0 * x
        vals = snell_envelope(tree, payoff, lambda x: 0.0 * x)
        for i in range(8):
            np.testing.assert_allclose(vals[i], 1.0 - tree.grid.time(i), atol=1e-12)


class TestReflected:
    @pytest.mark.parametrize("reading", READINGS)
    def test_inactive_barrier_matches_unconstrained(self, reading):
        grid, tree, w = setup()
        prob = BdsdeProblem(terminal=lambda x: x**2, f=lambda t, x, y, z: 0.2 * y,
                            g=lambda t, x, y, z: 0.1 * y, lipschitz_f=0.2, reading=reading)
        low = Barrier(fn=lambda t, x: -100.0 + 0.0 * x)
        ref = solve_reflected(prob, low, tree, w)
        pen = solve_penalized(prob, low, 100.0, tree, w)
        unc = solve_tree(prob, tree, w)
        for i in range(grid.n_steps + 1):
            np.testing.assert_allclose(ref.y[i], unc.y[i], atol=1e-12)
            np.testing.assert_allclose(pen.y[i], unc.y[i], atol=1e-12)
        assert ref.k.k_terminal == pytest.approx(0.0, abs=1e-12)
        assert ref.skorokhod_sum == pytest.approx(0.0, abs=1e-12)

    def test_stop_now_oracle(self):
        grid, tree, w = setup(n=16)
        prob = BdsdeProblem(terminal=lambda x: 0.0 * x, f=ZERO, g=ZERO)
        sol = solve_reflected(prob, stop_now_barrier(), tree, w)
        for i in range(grid.n_steps):
            np.testing.assert_allclose(sol.y[i], 1.0, atol=1e-12)
        # all compensator mass sits at the barrier's maturity jump: every push
        # before step n - 1 is exactly 0, and step n - 1 carries all of K_T
        n = grid.n_steps
        assert all(np.all(inc == 0.0) for inc in sol.k.increments[:n - 1])
        np.testing.assert_array_equal(sol.k.expected_cumulative[:n], 0.0)
        assert sol.k.k_terminal == pytest.approx(1.0, abs=1e-12)
        assert sol.k.expected_cumulative[n] - sol.k.expected_cumulative[n - 1] == sol.k.k_terminal

    def test_solution_dominates_barrier_and_unconstrained(self):
        grid, tree, w = setup(n=12, x0=1.0)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0), f=ZERO, g=ZERO)
        bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
        sol = solve_reflected(prob, bar, tree, w)
        unc = solve_tree(prob, tree, w)
        for i in range(grid.n_steps + 1):
            assert np.all(sol.y[i] >= bar.values(tree, i) - 1e-12)
            assert np.all(sol.y[i] >= unc.y[i] - 1e-12)

    def test_contact_set_carries_the_compensator(self):
        grid, tree, w = setup(n=12, x0=1.0)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0), f=ZERO, g=ZERO)
        bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
        sol = solve_reflected(prob, bar, tree, w)
        for i in range(grid.n_steps):
            gap = sol.y[i] - bar.values(tree, i)
            active = sol.k.increments[i] > 1e-14
            assert np.all(gap[active] < 1e-10)

    def test_snell_shift_equivalence_exact(self):
        # g constant in (y, z): the additive change of variables maps the
        # reflected solution onto a Snell envelope, exactly on the tree
        grid, tree, w = setup(n=10, x0=1.0, seed=8)
        beta = 0.7
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0), f=ZERO,
                            g=lambda t, x, y, z: np.full_like(np.asarray(x, dtype=float), beta))
        bar = Barrier(fn=lambda t, x: np.maximum(0.8 - x, 0.0))
        sol = solve_reflected(prob, bar, tree, w)

        gw = np.concatenate([[0.0], np.cumsum(beta * w.increments)])
        shifted_payoff = [bar.values(tree, i) + gw[i] for i in range(grid.n_steps + 1)]
        shifted_term = prob.terminal(tree.states(grid.n_steps)) + gw[-1]
        vals = snell_envelope(tree, shifted_payoff, shifted_term)
        for i in range(grid.n_steps + 1):
            np.testing.assert_allclose(sol.y[i], vals[i] - gw[i], atol=1e-11)

    def test_terminal_incompatibility_raises(self):
        grid, tree, w = setup()
        prob = BdsdeProblem(terminal=lambda x: 0.0 * x, f=ZERO, g=ZERO)
        bad = Barrier(fn=lambda t, x: 1.0 + 0.0 * x)  # S_T = 1 > xi = 0
        with pytest.raises(InvalidBarrierError):
            solve_reflected(prob, bad, tree, w)


class TestPenalization:
    @pytest.mark.parametrize("n_pen", [-1.0, np.nan, np.inf])
    def test_refuses_a_penalty_that_is_negative_or_not_finite(self, n_pen):
        _, tree, w = setup()
        prob = BdsdeProblem(terminal=lambda x: 0.0 * x, f=ZERO, g=ZERO)
        with pytest.raises(InvalidArgumentError,
                           match=f"nonnegative and finite, got {n_pen}"):
            solve_penalized(prob, stop_now_barrier(), n_pen, tree, w)

    def test_zero_penalty_is_unconstrained(self):
        grid, tree, w = setup()
        prob = BdsdeProblem(terminal=lambda x: x**2, f=lambda t, x, y, z: 0.3 * y,
                            g=ZERO, lipschitz_f=0.3)
        sol = solve_penalized(prob, stop_now_barrier(), 0.0, tree, w)
        unc = solve_tree(prob, tree, w)
        for i in range(grid.n_steps + 1):
            np.testing.assert_allclose(sol.y[i], unc.y[i], atol=1e-12)

    def test_inactive_barrier_any_penalty(self):
        grid, tree, w = setup()
        prob = BdsdeProblem(terminal=lambda x: x**2, f=ZERO, g=ZERO)
        low = Barrier(fn=lambda t, x: -50.0 + 0.0 * x)
        unc = solve_tree(prob, tree, w)
        for n_pen in (1.0, 100.0, 1e4):
            sol = solve_penalized(prob, low, n_pen, tree, w)
            for i in range(grid.n_steps + 1):
                np.testing.assert_allclose(sol.y[i], unc.y[i], atol=1e-12)

    def test_monotone_in_penalty_toward_snell_value(self):
        grid, tree, w = setup(n=64)
        prob = BdsdeProblem(terminal=lambda x: 0.0 * x, f=ZERO, g=ZERO)
        vals = [solve_penalized(prob, stop_now_barrier(), n, tree, w).y0
                for n in (1.0, 10.0, 100.0, 1000.0)]
        assert all(vals[i] <= vals[i + 1] + 1e-14 for i in range(3))
        assert all(v <= 1.0 + 1e-12 for v in vals)
        assert abs(vals[-1] - 1.0) < 1e-3  # oracle: stop immediately

    def test_penalized_approaches_reflected_nodewise(self):
        # discounting makes early exercise optimal, so the barrier binds
        grid, tree, w = setup(n=16, x0=1.0)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                            f=lambda t, x, y, z: -0.4 * y, g=ZERO, lipschitz_f=0.4)
        bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
        ref = solve_reflected(prob, bar, tree, w)
        assert ref.k.k_terminal > 0.01  # the constraint is genuinely active
        gaps = []
        for n_pen in (10.0, 100.0, 1000.0):
            sol = solve_penalized(prob, bar, n_pen, tree, w)
            gaps.append(max(np.max(np.abs(sol.y[i] - ref.y[i]))
                            for i in range(grid.n_steps + 1)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-3


class TestSkorokhod:
    def test_projection_backend_flat_off_exactly(self):
        grid, tree, w = setup(n=16, x0=1.0)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                            f=lambda t, x, y, z: -0.4 * y, g=ZERO, lipschitz_f=0.4)
        bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
        sol = solve_reflected(prob, bar, tree, w)
        assert sol.k.k_terminal > 0.01
        assert abs(skorokhod_diagnostic(sol)) < 1e-12

    def test_penalized_trace_halves_with_dt(self):
        # with the penalty tied to 1/dt the flat-off defect is O(dt)
        sums = []
        for n in (16, 32, 64):
            grid, tree, w = setup(n=n, x0=1.0)
            prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                                f=lambda t, x, y, z: -0.4 * y, g=ZERO, lipschitz_f=0.4)
            bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
            sol = solve_penalized(prob, bar, 4.0 * n, tree, w)
            assert abs(sol.skorokhod_sum) < grid.dt * 1.0
            sums.append(abs(sol.skorokhod_sum))
        assert sums[0] / sums[1] == pytest.approx(2.0, rel=0.3)
        assert sums[1] / sums[2] == pytest.approx(2.0, rel=0.3)

    def test_artificial_violation_detected(self):
        grid, tree, w = setup(n=8, x0=1.0)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                            f=lambda t, x, y, z: -0.4 * y, g=ZERO, lipschitz_f=0.4)
        bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
        sol = solve_reflected(prob, bar, tree, w)
        fake = [inc.copy() for inc in sol.k.increments]
        off_contact = sol.y[2] - bar.values(tree, 2) > 0.1
        fake[2][off_contact] += 1.0  # push where Y > S
        assert skorokhod_diagnostic(sol, k_increments=fake) > 0.01

    @pytest.mark.parametrize("fake", [
        lambda incs: incs[:3],                       # too few steps
        lambda incs: incs + [np.ones(9)] * 3,        # too many
        lambda incs: [1.0] * len(incs),              # scalars, one per step
        lambda incs: incs[:-1] + [np.ones(3)],       # the last step's array mis-shaped
    ], ids=["short", "long", "scalars", "misshaped"])
    def test_refuses_increments_that_are_not_one_array_per_step(self, fake):
        grid, tree, w = setup(n=8, x0=1.0)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                            f=lambda t, x, y, z: -0.4 * y, g=ZERO, lipschitz_f=0.4)
        sol = solve_reflected(prob, Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0)), tree, w)
        with pytest.raises(InvalidArgumentError, match="k_increments must be one array per step"):
            skorokhod_diagnostic(sol, k_increments=fake(list(sol.k.increments)))

    @pytest.mark.parametrize("penalty", [None, 40.0])
    def test_diagnostic_reads_its_own_solve(self, penalty):
        # the solve's own tree, barrier levels and increments: the solve's own sum
        grid, tree, w = setup(n=16, x0=1.0)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                            f=lambda t, x, y, z: -0.4 * y, g=lambda t, x, y, z: 0.2 * y,
                            lipschitz_f=0.4)
        bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
        sol = (solve_reflected(prob, bar, tree, w) if penalty is None
               else solve_penalized(prob, bar, penalty, tree, w))
        assert skorokhod_diagnostic(sol) == sol.skorokhod_sum


class TestCompensatorTrace:
    @pytest.mark.parametrize("penalty", [None, 40.0])
    @pytest.mark.parametrize("shift", [0.0, 0.3])
    def test_expected_cumulative_never_decreases(self, penalty, shift):
        grid, tree, w = setup(n=24, x0=1.0)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                            f=lambda t, x, y, z: -0.4 * y - 0.2 * z,
                            g=lambda t, x, y, z: 0.3 * y, lipschitz_f=0.4)
        bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0) - shift * (1.0 - t))
        sol = (solve_reflected(prob, bar, tree, w) if penalty is None
               else solve_penalized(prob, bar, penalty, tree, w))
        k = sol.k
        assert k.k_terminal > 0.0 and k.volatility == 1.0
        assert np.all(np.diff(k.expected_cumulative) >= 0.0)
        # one nonnegative array per level, summed under the tree's forward law
        probs = tree.level_probabilities()
        assert [inc.shape for inc in k.increments] == [(i + 1,) for i in range(grid.n_steps)]
        assert all(np.all(inc >= 0.0) for inc in k.increments)
        assert k.expected_cumulative[0] == 0.0
        np.testing.assert_allclose(k.expected_cumulative[1:],
                                   np.cumsum([p @ inc for p, inc in zip(probs, k.increments)]),
                                   rtol=1e-14, atol=0.0)
