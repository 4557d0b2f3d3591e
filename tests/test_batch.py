"""Batched backward paths: one sweep over m frozen W paths equals m solves, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bdsde import classical
from bdsde._accel import pl_gauss_moments
from bdsde.classical import BdsdeProblem, solve_regression, solve_tree
from bdsde.errors import BdsdeError, InvalidArgumentError, StepSizeError
from bdsde.grids import (
    build_time_grid,
    build_tree,
    build_volatility_grid,
    sample_backward_path,
    sample_forward_ensemble,
)
from bdsde.reflected import Barrier, solve_penalized, solve_reflected
from bdsde.second_order import DpOptions, TbdsdeProblem, extract_k, solve_dp

READINGS = st.sampled_from(classical.READINGS)
SEEDS = st.integers(0, 2**20)


def paths_for(grid, seed, m):
    return [sample_backward_path(grid, seed=seed + k) for k in range(m)]


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


@given(reading=READINGS, beta=st.floats(-0.9, 0.9), c=st.floats(-1.0, 1.0),
       n=st.integers(1, 24), m=st.integers(2, 4), seed=SEEDS)
# refused per path: dt * Lip = 1 (StepSizeError), and a contraction of 0.875
# that needs more than MAX_ITERS Picard iterations (ConvergenceError)
@example(reading="ito", beta=0.0, c=1.0, n=1, m=2, seed=0)
@example(reading="ito", beta=0.0, c=0.875, n=1, m=2, seed=0)
def test_tree_batch_equals_per_path_solves(reading, beta, c, n, m, seed):
    grid = build_time_grid(0, 1, n)
    tree = build_tree(grid, 1.2, x0=0.3)
    prob = BdsdeProblem(terminal=lambda x: x**2 - x, f=lambda t, x, y, z: c * y - 0.2 * z,
                        g=lambda t, x, y, z: beta * y, lipschitz_f=abs(c), reading=reading)
    paths = paths_for(grid, seed, m)
    try:
        singles = [solve_tree(prob, tree, w) for w in paths]
    except BdsdeError as refused:
        # what one path's solve refuses, the batch refuses with the same error
        with pytest.raises(BdsdeError) as batch_refused:
            solve_tree(prob, tree, paths)
        assert type(batch_refused.value) is type(refused)
        return
    batch = solve_tree(prob, tree, paths)

    np.testing.assert_array_equal(batch.y0_paths, [s.y0 for s in singles])
    first = singles[0]
    assert batch.y0 == first.y0
    assert_levels_equal(batch.y, first.y)
    assert_levels_equal(batch.z, first.z)
    np.testing.assert_array_equal(batch.residual, first.residual)
    np.testing.assert_array_equal(batch.picard_iters, first.picard_iters)
    assert_meta_equal(batch.meta, first.meta)

    order = np.random.default_rng(seed).permutation(m)
    permuted = solve_tree(prob, tree, [paths[k] for k in order])
    np.testing.assert_array_equal(permuted.y0_paths, batch.y0_paths[order])


@given(a_low=st.floats(0.3, 1.0), a_high=st.floats(1.2, 2.5), n_a=st.integers(2, 5),
       reading=READINGS, beta=st.floats(-0.8, 0.8), n=st.integers(1, 6),
       x_steps=st.integers(20, 60), m=st.integers(2, 4), seed=SEEDS)
# path 1's one implicit step contracts by ~0.56 from values ~8, past 50 iterations
@example(a_low=1.0, a_high=2.0, n_a=2, reading="stratonovich", beta=0.5, n=1, x_steps=20, m=2,
         seed=0)
def test_lattice_batch_equals_per_path_solves(a_low, a_high, n_a, reading, beta, n, x_steps, m,
                                              seed):
    grid = build_time_grid(0, 1, n)
    prob = TbdsdeProblem(terminal=lambda x: np.abs(x - 0.2), F=lambda t, x, y, z, a: 0.3 * y,
                         g=lambda t, x, y, z: beta * y,
                         volgrid=build_volatility_grid(a_low, a_high, n_a), lipschitz_f=0.3,
                         reading=reading)
    opts = DpOptions(x_steps=x_steps)
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
    assert_meta_equal(batch.meta, first.meta)
    # diagnostics of the batch read path 0's solution
    np.testing.assert_array_equal(extract_k(batch, volatility=a_low).increments,
                                  extract_k(first, volatility=a_low).increments)

    order = np.random.default_rng(seed).permutation(m)
    permuted = solve_dp(prob, grid, [paths[k] for k in order], x0=0.5, opts=opts)
    np.testing.assert_array_equal(permuted.y0_paths, batch.y0_paths[order])


@given(reading=READINGS, beta=st.floats(-0.5, 0.5), c=st.floats(-1.0, 1.0),
       n=st.integers(4, 10), m=st.integers(2, 4), seed=SEEDS)
def test_regression_batch_equals_per_path_solves(reading, beta, c, n, m, seed):
    grid = build_time_grid(0, 1, n)
    ens = sample_forward_ensemble(grid, 2000, 0.8, seed=seed, x0=0.3)
    # f and g both depend on z, so the z fit feeds the next step's targets
    prob = BdsdeProblem(terminal=lambda x: x**2 - x, f=lambda t, x, y, z: c * y - 0.2 * z,
                        g=lambda t, x, y, z: beta * y + 0.1 * z, lipschitz_f=abs(c),
                        reading=reading)
    paths = paths_for(grid, seed, m)
    batch = solve_regression(prob, ens, paths, basis_degree=3)
    singles = [solve_regression(prob, ens, w, basis_degree=3) for w in paths]

    np.testing.assert_array_equal(batch.y0_paths, [s.y0 for s in singles])
    first = singles[0]
    assert batch.y0 == first.y0
    # level 0 alone, one value per ensemble path, and every step's diagnostics
    assert len(batch.y) == len(batch.z) == 1 and batch.y[0].shape == (2000,)
    assert_levels_equal(batch.y, first.y)
    assert_levels_equal(batch.z, first.z)
    for field in ("projection_rms", "residual", "picard_iters"):
        assert len(getattr(batch, field)) == n
        np.testing.assert_array_equal(getattr(batch, field), getattr(first, field))
    assert_meta_equal(batch.meta, first.meta)

    order = np.random.default_rng(seed).permutation(m)
    permuted = solve_regression(prob, ens, [paths[k] for k in order], basis_degree=3)
    np.testing.assert_array_equal(permuted.y0_paths, batch.y0_paths[order])


@given(penalty=st.sampled_from([None, 5.0, 80.0]), reading=READINGS, beta=st.floats(-0.5, 0.5),
       c=st.floats(0.0, 1.0), shift=st.floats(0.0, 0.3), n=st.integers(2, 16),
       m=st.integers(2, 4), seed=SEEDS)
def test_reflected_batch_equals_per_path_solves(penalty, reading, beta, c, shift, n, m, seed):
    grid = build_time_grid(0, 1, n)
    tree = build_tree(grid, 1.0, x0=1.0)
    prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                        f=lambda t, x, y, z: -c * y - 0.2 * z,
                        g=lambda t, x, y, z: beta * y + 0.1 * z, lipschitz_f=c, reading=reading)
    barrier = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0) - shift * (1.0 - t))

    def solve(w):  # projection backend (penalty None) or penalization at that level
        if penalty is None:
            return solve_reflected(prob, barrier, tree, w)
        return solve_penalized(prob, barrier, penalty, tree, w)

    paths = paths_for(grid, seed, m)
    batch = solve(paths)
    singles = [solve(w) for w in paths]

    np.testing.assert_array_equal(batch.y0_paths, [s.y0 for s in singles])
    first = singles[0]
    assert batch.y0 == first.y0
    assert batch.skorokhod_sum == first.skorokhod_sum
    for levels in ("y", "z"):
        assert_levels_equal(getattr(batch, levels), getattr(first, levels))
    assert_levels_equal(batch.k.increments, first.k.increments)
    np.testing.assert_array_equal(batch.k.expected_cumulative, first.k.expected_cumulative)
    np.testing.assert_array_equal(batch.residual, first.residual)
    np.testing.assert_array_equal(first.y0_paths, [first.y0])

    order = np.random.default_rng(seed).permutation(m)
    np.testing.assert_array_equal(solve([paths[k] for k in order]).y0_paths,
                                  batch.y0_paths[order])


@pytest.mark.parametrize("per_chunk", [1, 2])
@pytest.mark.parametrize("backend", ["tree", "lattice", "mc"])
def test_chunked_sweep_equals_per_path_solves(monkeypatch, backend, per_chunk):
    """A list of paths wider than the sweep's value budget is swept in chunks
    (here of per_chunk paths, the last of one), and gives every path's y0
    and path 0's levels bit for bit as the per-path solves do (mc keeps
    level 0 alone)."""
    grid = build_time_grid(0, 1, 6)
    prob = TbdsdeProblem(terminal=lambda x: x**2 - x, F=lambda t, x, y, z, a: 0.3 * y - 0.2 * z,
                         g=lambda t, x, y, z: 0.4 * y + 0.1 * z,
                         volgrid=build_volatility_grid(0.5, 2.0, 3), lipschitz_f=0.3)
    if backend == "tree":
        tree = build_tree(grid, 1.2, x0=0.3)
        nodes, fields = grid.n_steps + 1, ("y", "z", "residual", "picard_iters")
        solve = lambda w: solve_tree(prob.classical_problem(1.2), tree, w)
    elif backend == "lattice":
        opts = DpOptions(x_steps=40)
        nodes, fields = opts.x_steps + 1, ("Y", "Z", "argmax_a", "residual")
        solve = lambda w: solve_dp(prob, grid, w, x0=0.3, opts=opts)
    else:
        ens = sample_forward_ensemble(grid, 1000, 1.2, seed=5, x0=0.3)
        nodes, fields = 1000, ("y", "z", "residual", "picard_iters", "projection_rms")
        solve = lambda w: solve_regression(prob.classical_problem(1.2), ens, w, basis_degree=3)
    monkeypatch.setattr(classical, "SWEEP_VALUES", per_chunk * nodes)
    sizes = []
    chunks = classical._path_chunks
    monkeypatch.setattr(classical, "_path_chunks",
                        lambda w, size: sizes.append(size) or chunks(w, size))
    paths = paths_for(grid, 11, 2 * per_chunk + 1)
    batch = solve(paths)
    assert sizes == [per_chunk]
    singles = [solve(w) for w in paths]

    np.testing.assert_array_equal(batch.y0_paths, [s.y0 for s in singles])
    assert batch.y0 == singles[0].y0
    for name in fields:
        assert_levels_equal(getattr(batch, name), getattr(singles[0], name))
    assert len(getattr(batch, fields[0])) == (1 if backend == "mc" else grid.n_steps + 1)


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
    # a batch is a non-empty list of paths on one grid: the sweep refuses a
    # list whose later paths live on another grid, and the empty list
    coarse, fine = build_time_grid(0, 1, 4), build_time_grid(0, 1, 8)
    prob = BdsdeProblem(terminal=lambda x: x**2, f=lambda t, x, y, z: 0.5 * y,
                        g=lambda t, x, y, z: 0.0 * y, lipschitz_f=0.5)
    tree = build_tree(coarse, 1.0)
    with pytest.raises(InvalidArgumentError, match="share the grid"):
        solve_tree(prob, tree, [sample_backward_path(coarse, 1), sample_backward_path(fine, 2)])
    with pytest.raises(InvalidArgumentError, match="non-empty list"):
        solve_tree(prob, tree, [])


@pytest.mark.parametrize("solver", ["tree", "regression", "dp", "reflected", "penalized"])
def test_solvers_check_the_path_grid_and_the_step(solver):
    # every backend sweeps through the same checks: W is one path or a
    # non-empty list of paths on the solver's whole grid (steps and horizon),
    # and dt * Lip(F) < 1
    grid = build_time_grid(0, 1, 8)
    barrier = Barrier(fn=lambda t, x: x**2 - 1.0)

    def solve(w, lipschitz_f=0.5):
        prob = TbdsdeProblem(terminal=lambda x: x**2, F=lambda t, x, y, z, a: 0.5 * y,
                             g=lambda t, x, y, z: 0.0 * y, lipschitz_f=lipschitz_f,
                             volgrid=build_volatility_grid(0.5, 2.0, 3))
        if solver == "tree":
            return solve_tree(prob.classical_problem(1.0), build_tree(grid, 1.0), w)
        if solver == "regression":
            ens = sample_forward_ensemble(grid, 500, 1.0, seed=3)
            return solve_regression(prob.classical_problem(1.0), ens, w, basis_degree=2)
        if solver == "reflected":
            return solve_reflected(prob.classical_problem(1.0), barrier, build_tree(grid, 1.0), w)
        if solver == "penalized":
            return solve_penalized(prob.classical_problem(1.0), barrier, 20.0,
                                   build_tree(grid, 1.0), w)
        return solve_dp(prob, grid, w, opts=DpOptions(x_steps=40))

    refused = [[], paths_for(grid, 1, 1) + paths_for(build_time_grid(0, 1, 16), 2, 1)]
    for other in (build_time_grid(0, 1, 16), build_time_grid(0, 2, 8)):
        refused += [sample_backward_path(other, seed=1), paths_for(other, 1, 2)]
    for w in refused:
        with pytest.raises(InvalidArgumentError,
                           match="one backward path or a non-empty list of paths that share "
                                 "the grid"):
            solve(w)
    w = sample_backward_path(grid, seed=1)
    with pytest.raises(StepSizeError):
        solve(w, lipschitz_f=8.0)
    assert np.isfinite(solve(w).y0)
