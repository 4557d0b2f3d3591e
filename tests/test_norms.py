import itertools

import numpy as np
import pytest

from bdsde.classical import BdsdeProblem, solve_regression, solve_tree
from bdsde.errors import InvalidArgumentError
from bdsde.grids import (
    build_time_grid,
    build_tree,
    build_volatility_grid,
    sample_backward_path,
    sample_forward_ensemble,
)
from bdsde.norms import (
    compute_norms,
    pathwise_sup_sq_expectation,
    pathwise_terminal_k_sq,
    terminal_l2,
)
from bdsde.reflected import Barrier, solve_reflected
from bdsde.second_order import DpOptions, TbdsdeProblem, solve_dp

ZERO = lambda t, x, y, z: np.zeros_like(np.asarray(x, dtype=float))


def tree_for(a=1.0, n=8):
    grid = build_time_grid(0, 1, n)
    return build_tree(grid, a)


class TestPathwiseSup:
    def test_zero_traces(self):
        tree = tree_for()
        zero = BdsdeProblem(terminal=lambda x: 0.0 * x, f=ZERO, g=ZERO)
        sol = solve_tree(zero, tree, sample_backward_path(tree.grid, seed=1))
        rep = compute_norms([sol])
        assert rep.d2_norm == 0.0 and rep.h2_norm == 0.0 and rep.i2_norm == 0.0

    def test_matches_explicit_enumeration(self):
        # independent oracle: walk every path with itertools
        n = 6
        tree = tree_for(a=1.0, n=n)
        levels = [tree.states(i) for i in range(n + 1)]  # Y = X
        got = pathwise_sup_sq_expectation(tree, levels)

        expect = 0.0
        for moves in itertools.product([0, 1], repeat=n):
            j = 0
            best = abs(levels[0][0])
            for i, m in enumerate(moves):
                j += 1 - m
                best = max(best, abs(levels[i + 1][j]))
            expect += 0.5**n * best**2
        assert got == pytest.approx(expect, rel=1e-14)

    def test_scaling_is_quadratic(self):
        tree = tree_for(n=7)
        levels = [np.cos(tree.states(i)) for i in range(8)]
        base = pathwise_sup_sq_expectation(tree, levels)
        scaled = pathwise_sup_sq_expectation(tree, [3.0 * v for v in levels])
        assert scaled == pytest.approx(9.0 * base, rel=1e-14)

    def test_step_guard(self):
        tree = tree_for(n=8)
        grid = build_time_grid(0, 1, 24)
        big = build_tree(grid, 1.0)
        with pytest.raises(InvalidArgumentError):
            pathwise_sup_sq_expectation(big, [np.zeros(big.n_nodes(i)) for i in range(25)])


class TestComputeNorms:
    def solve_family(self, prob, a_values, n=8, seed=5):
        grid = build_time_grid(0, 1, n)
        w = sample_backward_path(grid, seed=seed)
        return [solve_tree(prob, build_tree(grid, a), w) for a in a_values]

    def test_supremum_over_family(self):
        prob = BdsdeProblem(terminal=lambda x: x**2, f=ZERO, g=ZERO)
        sols = self.solve_family(prob, [0.5, 2.0])
        rep = compute_norms(sols)
        rep_low = compute_norms(sols[:1])
        assert rep.d2_norm >= rep_low.d2_norm
        assert rep.h2_norm >= rep_low.h2_norm

    def test_integrability_statistics(self):
        prob = BdsdeProblem(terminal=lambda x: x, f=ZERO, g=ZERO)
        rep = compute_norms(self.solve_family(prob, [1.0]),
                            F0=lambda t, x, a: 2.0 + 0.0 * x,
                            g0=lambda t, x, a: 0.5 + 0.0 * x, eps=0.5)
        assert rep.phi_eps == pytest.approx(2.0**2.5, rel=1e-12)
        assert rep.psi_eps == pytest.approx(0.5**2.5, rel=1e-12)

    def test_reflected_solve_carries_its_compensator(self):
        tree = tree_for(n=6)
        prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0), f=ZERO, g=ZERO)
        sol = solve_reflected(prob, Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0)), tree,
                              sample_backward_path(tree.grid, seed=2))
        rep = compute_norms([sol])
        assert rep.i2_norm == pathwise_terminal_k_sq(tree, sol.k.increments) > 0.0
        assert rep.d2_norm == pathwise_sup_sq_expectation(tree, sol.y)

    def test_refuses_a_solve_without_a_tree(self):
        grid = build_time_grid(0, 1, 4)
        w = sample_backward_path(grid, seed=1)
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=lambda t, x, y, z, a: 0.0 * y,
                             g=ZERO, volgrid=build_volatility_grid(0.5, 2.0, 3))
        mc = solve_regression(prob.classical_problem(1.0),
                              sample_forward_ensemble(grid, 200, 1.0, seed=3), w)
        lattice = solve_dp(prob, grid, w, opts=DpOptions(x_steps=20))
        for sol, backend in ((mc, "mc"), (lattice, "lattice")):
            with pytest.raises(InvalidArgumentError, match=f"backend '{backend}'"):
                compute_norms([sol])
        with pytest.raises(InvalidArgumentError, match="at least one"):
            compute_norms([])

    def test_triangle_inequality_d_norm(self):
        rng = np.random.default_rng(2)
        tree = tree_for(n=7)
        for _ in range(20):
            y1 = [rng.normal(size=tree.n_nodes(i)) for i in range(8)]
            y2 = [rng.normal(size=tree.n_nodes(i)) for i in range(8)]
            n1 = np.sqrt(pathwise_sup_sq_expectation(tree, y1))
            n2 = np.sqrt(pathwise_sup_sq_expectation(tree, y2))
            n12 = np.sqrt(pathwise_sup_sq_expectation(
                tree, [a + b for a, b in zip(y1, y2)]))
            assert n12 <= n1 + n2 + 1e-12


class TestStabilitySurrogate:
    def test_linear_problem_exact_ratio_under_scaling(self):
        grid = build_time_grid(0, 1, 8)
        tree = build_tree(grid, 1.0)
        w = sample_backward_path(grid, seed=3)
        f = lambda t, x, y, z: 0.4 * y
        xi = lambda x: np.sin(x)
        kappa = 2.5
        s1 = solve_tree(BdsdeProblem(terminal=xi, f=f, g=ZERO, lipschitz_f=0.4), tree, w)
        s2 = solve_tree(BdsdeProblem(terminal=lambda x: kappa * xi(x), f=f, g=ZERO,
                                     lipschitz_f=0.4), tree, w)
        d_y = np.sqrt(pathwise_sup_sq_expectation(
            tree, [b - a for a, b in zip(s1.y, s2.y)]))
        d_xi = terminal_l2(tree, (kappa - 1) * xi(tree.states(8)))
        base_y = np.sqrt(pathwise_sup_sq_expectation(tree, s1.y))
        base_xi = terminal_l2(tree, xi(tree.states(8)))
        # for a linear problem the ratio is exactly scale-invariant
        assert d_y / d_xi == pytest.approx(base_y / base_xi, rel=1e-10)

    def test_ratio_bounded_over_random_instances(self):
        # fit the stability constant once, then verify fresh instances at
        # the same Lipschitz data never exceed it (with margin)
        rng = np.random.default_rng(9)
        grid = build_time_grid(0, 1, 8)
        tree = build_tree(grid, 1.0)

        def ratio(seed, shift):
            w = sample_backward_path(grid, seed=seed)
            f = lambda t, x, y, z: 0.3 * np.tanh(y)
            g = lambda t, x, y, z: 0.2 * np.cos(y)
            xi1 = lambda x: np.abs(x)
            xi2 = lambda x: np.abs(x) + shift * np.cos(x)
            p1 = BdsdeProblem(terminal=xi1, f=f, g=g, lipschitz_f=0.3)
            p2 = BdsdeProblem(terminal=xi2, f=f, g=g, lipschitz_f=0.3)
            s1, s2 = solve_tree(p1, tree, w), solve_tree(p2, tree, w)
            dy = np.sqrt(pathwise_sup_sq_expectation(
                tree, [b - a for a, b in zip(s1.y, s2.y)]))
            dxi = terminal_l2(tree, xi2(tree.states(8)) - xi1(tree.states(8)))
            return dy / dxi

        fit = max(ratio(int(rng.integers(1 << 30)), float(rng.uniform(0.1, 2)))
                  for _ in range(20))
        for _ in range(100):
            r = ratio(int(rng.integers(1 << 30)), float(rng.uniform(0.1, 2)))
            assert r <= 1.5 * fit
