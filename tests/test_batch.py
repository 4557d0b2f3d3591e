"""Batched backward paths: one sweep over m frozen W paths equals m solves, bit for bit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdsde._accel import pl_gauss_moments
from bdsde.classical import BdsdeProblem, SolverOptions, solve_regression, solve_tree
from bdsde.errors import InvalidArgumentError, StepSizeError
from bdsde.grids import (
    batch_paths,
    build_time_grid,
    build_tree,
    build_volatility_grid,
    sample_backward_path,
    sample_forward_ensemble,
)
from bdsde.reflected import Barrier, solve_penalized, solve_reflected
from bdsde.second_order import DpOptions, TbdsdeProblem, extract_k, solve_dp

SCHEMES = st.sampled_from(["ito", "stratonovich"])
SEEDS = st.integers(0, 2**20)


def paths_for(grid, seed, m):
    return [sample_backward_path(grid, 1, seed=seed + k) for k in range(m)]


def assert_levels_equal(a, b):
    assert len(a) == len(b)
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)


def assert_meta_equal(batch, single):
    assert batch.keys() == single.keys()
    for key in batch:
        if isinstance(batch[key], np.ndarray):
            np.testing.assert_array_equal(batch[key], single[key])
        else:
            assert batch[key] == single[key]


@given(branching=st.sampled_from([2, 3]), scheme=SCHEMES, beta=st.floats(-0.9, 0.9),
       c=st.floats(-1.0, 1.0), n=st.integers(1, 24), m=st.integers(2, 4), seed=SEEDS)
def test_tree_batch_equals_per_path_solves(branching, scheme, beta, c, n, m, seed):
    grid = build_time_grid(0, 1, n)
    tree = build_tree(grid, 1.2, branching=branching, x0=0.3)
    prob = BdsdeProblem(terminal=lambda x: x**2 - x, f=lambda t, x, y, z: c * y - 0.2 * z,
                        g=lambda t, x, y, z: beta * y, lipschitz_f=abs(c))
    opts = SolverOptions(g_scheme=scheme)
    paths = paths_for(grid, seed, m)
    batch = solve_tree(prob, tree, paths, opts)
    singles = [solve_tree(prob, tree, w, opts) for w in paths]

    np.testing.assert_array_equal(batch.y0_paths, [s.y0 for s in singles])
    first = singles[0]
    assert batch.y0 == first.y0
    assert_levels_equal(batch.y, first.y)
    assert_levels_equal(batch.z, first.z)
    np.testing.assert_array_equal(batch.residual, first.residual)
    np.testing.assert_array_equal(batch.picard_iters, first.picard_iters)
    assert_meta_equal(batch.meta, first.meta)

    order = np.random.default_rng(seed).permutation(m)
    permuted = solve_tree(prob, tree, [paths[k] for k in order], opts)
    np.testing.assert_array_equal(permuted.y0_paths, batch.y0_paths[order])


@given(a_low=st.floats(0.3, 1.0), a_high=st.floats(1.2, 2.5), n_a=st.integers(2, 5),
       scheme=SCHEMES, beta=st.floats(-0.8, 0.8), n=st.integers(1, 6), x_steps=st.integers(20, 60),
       m=st.integers(2, 4), seed=SEEDS)
def test_lattice_batch_equals_per_path_solves(a_low, a_high, n_a, scheme, beta, n, x_steps, m,
                                              seed):
    grid = build_time_grid(0, 1, n)
    prob = TbdsdeProblem(terminal=lambda x: np.abs(x - 0.2), F=lambda t, x, y, z, a: 0.3 * y,
                         g=lambda t, x, y, z: beta * y,
                         volgrid=build_volatility_grid(a_low, a_high, n_a), lipschitz_f=0.3)
    opts = DpOptions(x_steps=x_steps, g_scheme=scheme)
    paths = paths_for(grid, seed, m)
    batch = solve_dp(prob, grid, paths, x0=0.5, opts=opts)
    singles = [solve_dp(prob, grid, w, x0=0.5, opts=opts) for w in paths]

    assert batch.backend == "lattice"
    np.testing.assert_array_equal(batch.y0_paths, [s.y0 for s in singles])
    first = singles[0]
    assert batch.y0 == first.y0
    for levels in ("Y", "Z", "argmax_a"):
        assert_levels_equal(getattr(batch, levels), getattr(first, levels))
    np.testing.assert_array_equal(batch.residual, first.residual)
    np.testing.assert_array_equal(batch.K.increments, first.K.increments)
    assert_meta_equal(batch.meta, first.meta)
    # diagnostics of the batch read path 0's solution
    np.testing.assert_array_equal(extract_k(batch, prob, paths[0], a_low).increments,
                                  extract_k(first, prob, paths[0], a_low).increments)

    order = np.random.default_rng(seed).permutation(m)
    permuted = solve_dp(prob, grid, [paths[k] for k in order], x0=0.5, opts=opts)
    np.testing.assert_array_equal(permuted.y0_paths, batch.y0_paths[order])


@given(scheme=SCHEMES, beta=st.floats(-0.5, 0.5), c=st.floats(-1.0, 1.0),
       n=st.integers(4, 10), m=st.integers(2, 4), seed=SEEDS)
def test_regression_batch_equals_per_path_solves(scheme, beta, c, n, m, seed):
    grid = build_time_grid(0, 1, n)
    ens = sample_forward_ensemble(grid, 2000, 0.8, seed=seed, x0=0.3)
    # f and g both depend on z, so the z fit feeds the next step's targets
    prob = BdsdeProblem(terminal=lambda x: x**2 - x, f=lambda t, x, y, z: c * y - 0.2 * z,
                        g=lambda t, x, y, z: beta * y + 0.1 * z, lipschitz_f=abs(c))
    opts = SolverOptions(g_scheme=scheme)
    paths = paths_for(grid, seed, m)
    batch = solve_regression(prob, ens, paths, basis_degree=3, opts=opts)
    singles = [solve_regression(prob, ens, w, basis_degree=3, opts=opts) for w in paths]

    np.testing.assert_array_equal(batch.y0_paths, [s.y0 for s in singles])
    first = singles[0]
    assert batch.y0 == first.y0
    # per-level values, one per ensemble path, as the tree's are per node
    assert isinstance(batch.y, list) and len(batch.y) == n + 1
    assert_levels_equal(batch.y, first.y)
    for field in ("y", "z", "projection_rms", "residual", "picard_iters"):
        np.testing.assert_array_equal(getattr(batch, field), getattr(first, field))
    assert_meta_equal(batch.meta, first.meta)

    order = np.random.default_rng(seed).permutation(m)
    permuted = solve_regression(prob, ens, [paths[k] for k in order], basis_degree=3, opts=opts)
    np.testing.assert_array_equal(permuted.y0_paths, batch.y0_paths[order])


@given(penalty=st.sampled_from([None, 5.0, 80.0]), scheme=SCHEMES, beta=st.floats(-0.5, 0.5),
       c=st.floats(0.0, 1.0), shift=st.floats(0.0, 0.3), n=st.integers(2, 16),
       m=st.integers(2, 4), seed=SEEDS)
def test_reflected_batch_equals_per_path_solves(penalty, scheme, beta, c, shift, n, m, seed):
    grid = build_time_grid(0, 1, n)
    tree = build_tree(grid, 1.0, x0=1.0)
    prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                        f=lambda t, x, y, z: -c * y - 0.2 * z,
                        g=lambda t, x, y, z: beta * y + 0.1 * z, lipschitz_f=c)
    barrier = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0) - shift * (1.0 - t))
    opts = SolverOptions(g_scheme=scheme)

    def solve(w):  # projection backend (penalty None) or penalization at that level
        if penalty is None:
            return solve_reflected(prob, barrier, tree, w, opts)
        return solve_penalized(prob, barrier, penalty, tree, w, opts)

    paths = paths_for(grid, seed, m)
    batch = solve(paths)
    singles = [solve(w) for w in paths]

    np.testing.assert_array_equal(batch.y0_paths, [s.y0 for s in singles])
    first = singles[0]
    assert batch.y0 == first.y0
    assert batch.skorokhod_sum == first.skorokhod_sum
    for levels in ("y", "z", "k_increments"):
        assert_levels_equal(getattr(batch, levels), getattr(first, levels))
    for field in ("k_continuous", "k_jump", "residual"):
        np.testing.assert_array_equal(getattr(batch, field), getattr(first, field))
    np.testing.assert_array_equal(first.y0_paths, [first.y0])

    order = np.random.default_rng(seed).permutation(m)
    np.testing.assert_array_equal(solve([paths[k] for k in order]).y0_paths,
                                  batch.y0_paths[order])


@given(knots=st.sampled_from([np.linspace(-3, 3, 41), np.linspace(-3, 3, 5),
                              np.array([-2.0, -0.5, 0.0, 1.5, 3.0])]),
       sigma=st.floats(0.05, 1.0), rows=st.integers(1, 4), seed=SEEDS)
def test_kernel_rows_equal_one_row_calls(knots, sigma, rows, seed):
    # a narrow band, a band as wide as the lattice, and non-uniform knots,
    # which the kernel rejects
    vals = np.random.default_rng(seed).normal(size=(rows, len(knots)))
    if np.ptp(np.diff(knots)) > 0.1:
        with pytest.raises(InvalidArgumentError, match="uniformly spaced"):
            pl_gauss_moments(knots, vals, knots, sigma)
        return
    m0, m1 = pl_gauss_moments(knots, vals, knots, sigma)
    for r in range(rows):
        r0, r1 = pl_gauss_moments(knots, vals[r], knots, sigma)
        np.testing.assert_array_equal(m0[r], r0)
        np.testing.assert_array_equal(m1[r], r1)


def test_batch_paths_rejects_mixed_grids():
    coarse, fine = build_time_grid(0, 1, 4), build_time_grid(0, 1, 8)
    with pytest.raises(InvalidArgumentError, match="share the grid"):
        batch_paths([sample_backward_path(coarse, 1, 1), sample_backward_path(fine, 1, 2)])
    with pytest.raises(InvalidArgumentError, match="at least one"):
        batch_paths([])


@pytest.mark.parametrize("solver", ["tree", "regression", "dp"])
def test_solvers_check_the_path_grid_and_the_step(solver):
    # every backend sweeps through the same checks: W lives on the solver's
    # whole grid (steps and horizon), and dt * Lip(F) < 1
    grid = build_time_grid(0, 1, 8)

    def solve(w, lipschitz_f=0.5):
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=lambda t, x, y, z, a: 0.5 * y,
                             g=lambda t, x, y, z: 0.0 * y, lipschitz_f=lipschitz_f,
                             volgrid=build_volatility_grid(0.5, 2.0, 3))
        if solver == "tree":
            return solve_tree(prob.classical_problem(1.0), build_tree(grid, 1.0), w)
        if solver == "regression":
            ens = sample_forward_ensemble(grid, 500, 1.0, seed=3)
            return solve_regression(prob.classical_problem(1.0), ens, w, basis_degree=2)
        return solve_dp(prob, grid, w, opts=DpOptions(x_steps=40))

    for other in (build_time_grid(0, 1, 16), build_time_grid(0, 2, 8)):
        for w in (sample_backward_path(other, 1, seed=1), paths_for(other, 1, 2)):
            with pytest.raises(InvalidArgumentError, match="share the grid"):
                solve(w)
    w = sample_backward_path(grid, 1, seed=1)
    with pytest.raises(StepSizeError):
        solve(w, lipschitz_f=8.0)
    assert np.isfinite(solve(w).y0)
