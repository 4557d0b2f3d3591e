import sys
from math import comb

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bdsde import rng
from bdsde.doss import FlowCoefficient, solve_flow
from bdsde.errors import InvalidArgumentError
from bdsde.grids import (
    BackwardPath,
    BrownianTree,
    build_time_grid,
    build_tree,
    build_volatility_grid,
    sample_backward_bridge,
    sample_backward_path,
    sample_forward_ensemble,
    subsample_path,
)
from bdsde.oracles import ItoProcess, ito_product_check, linear_spde_closed_form
from bdsde.second_order import TbdsdeProblem, feynman_kac_residual


class TestTimeGrid:
    def test_quarter_grid(self):
        g = build_time_grid(0, 1, 4)
        assert g.dt == 0.25
        np.testing.assert_allclose(g.nodes, [0, 0.25, 0.5, 0.75, 1.0])

    def test_single_step(self):
        g = build_time_grid(0, 1, 1)
        assert g.dt == 1.0
        assert len(g.nodes) == 2

    def test_shifted(self):
        g = build_time_grid(0.5, 1.5, 10)
        assert g.dt == pytest.approx(0.1)

    def test_dt_times_n_recovers_span(self):
        g = build_time_grid(0.0, 0.7, 7)
        assert g.dt * g.n_steps == pytest.approx(g.horizon - g.t0, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(InvalidArgumentError):
            build_time_grid(1, 1, 4)
        with pytest.raises(InvalidArgumentError):
            build_time_grid(0, 1, 0)

    @pytest.mark.parametrize("t0, horizon", [(0, np.nan), (np.nan, 1), (0, np.inf),
                                             (-np.inf, 0)])
    def test_refuses_non_finite_ends(self, t0, horizon):
        with pytest.raises(InvalidArgumentError, match="finite"):
            build_time_grid(t0, horizon, 4)

    @pytest.mark.parametrize("n", [2.5, np.nan, np.inf, "4", None])
    def test_refuses_non_integral_step_counts(self, n):
        with pytest.raises(InvalidArgumentError, match="n_steps"):
            build_time_grid(0, 1, n)

    @given(t0=st.floats(-5.0, 5.0), span=st.floats(0.01, 10.0), n=st.integers(1, 300))
    def test_index_maps_each_node_time_to_its_node(self, t0, span, n):
        g = build_time_grid(t0, t0 + span, n)
        assert [g.index(g.time(i)) for i in range(n + 1)] == list(range(n + 1))
        assert g.index(g.time(n) + 1e-12 * span) == n  # within the 1e-9 (1 + |t|) slack
        # half a step off a node, one step outside the grid, and the non-finite times
        for t in (g.time(n // 2) + 0.5 * g.dt, g.t0 - g.dt, g.horizon + g.dt,
                  np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidArgumentError, match="node of the time grid"):
                g.index(t)

    @pytest.mark.parametrize("n", [4, 4.0, np.int64(4), np.float64(4.0)])
    def test_integral_step_counts_build_one_grid(self, n):
        g = build_time_grid(0, 1, n)
        assert g == build_time_grid(0, 1, 4) and type(g.n_steps) is int


class TestBackwardPath:
    def test_deterministic_given_seed(self):
        g = build_time_grid(0, 1, 16)
        w1 = sample_backward_path(g, seed=42)
        w2 = sample_backward_path(g, seed=42)
        assert np.array_equal(w1.values, w2.values)

    def test_starts_at_zero_and_shapes(self):
        g = build_time_grid(0, 1, 1)
        w = sample_backward_path(g, seed=0)
        assert w.values.shape == (2,)
        assert w.values[0] == 0.0

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_values_are_running_sum_of_seeded_normals(self, n):
        g = build_time_grid(0, 1, n)
        draws = np.sqrt(g.dt) * rng.stream(7).standard_normal(n)
        np.testing.assert_array_equal(sample_backward_path(g, seed=7).values,
                                      np.concatenate([[0.0], np.cumsum(draws)]))

    def test_terminal_variance_matches_horizon(self):
        # sample variance of W_T over many seeds ~ T within 3 standard errors
        g = build_time_grid(0, 1, 1)
        n = 100_000
        vals = np.array([sample_backward_path(g, seed=s).values[-1]
                         for s in range(n)])
        v = vals.var(ddof=1)
        se = 1.0 * np.sqrt(2.0 / (n - 1))
        assert abs(v - 1.0) < 3 * se

    def test_increment_variance(self):
        g = build_time_grid(0, 1, 64)
        w = sample_backward_path(g, seed=3)
        # single-path QV of a Brownian path concentrates near T
        assert w.increments.var() * 64 == pytest.approx(1.0, rel=0.5)

    def test_bridge_hits_endpoint(self):
        g = build_time_grid(0, 1, 32)
        w = sample_backward_bridge(g, seed=9, total=0.25)
        assert w.values[-1] == pytest.approx(0.25, abs=1e-14)
        assert w.values[0] == 0.0

    @pytest.mark.parametrize("total", [np.nan, np.inf, -np.inf])
    def test_bridge_refuses_non_finite_endpoint(self, total):
        with pytest.raises(InvalidArgumentError, match="finite"):
            sample_backward_bridge(build_time_grid(0, 1, 8), seed=9, total=total)

    @pytest.mark.parametrize("factor", [2.5, 0, -2])
    def test_subsample_refuses_a_factor_that_is_not_a_count(self, factor):
        w = sample_backward_path(build_time_grid(0, 1, 8), seed=1)
        with pytest.raises(InvalidArgumentError, match=f"an integer >= 1, got {factor}$"):
            subsample_path(w, factor)

    def test_subsample_takes_an_integral_float_as_its_count(self):
        w = sample_backward_path(build_time_grid(0, 1, 8), seed=1)
        coarse = subsample_path(w, 2.0)
        assert coarse.grid == subsample_path(w, 2).grid and coarse.grid.n_steps == 4
        np.testing.assert_array_equal(coarse.values, w.values[::2])

    @pytest.mark.parametrize("shape", [(5, 1), (1, 5), (5, 2), (3,), (7,)])
    def test_holds_one_value_per_grid_node(self, shape):
        # one path only: a 2-D array (a stacked batch) or a length off the grid
        g = build_time_grid(0, 1, 4)
        with pytest.raises(InvalidArgumentError, match=r"5 values in a 1-D array, got shape"):
            BackwardPath(g, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_value_that_is_not_finite(self, bad):
        g = build_time_grid(0, 1, 4)
        with pytest.raises(InvalidArgumentError, match=f"must be finite, got {bad} at node 2$"):
            BackwardPath(g, [0.0, 0.1, bad, bad, 0.3])

    def test_stores_its_values_as_floats(self):
        w = BackwardPath(build_time_grid(0, 1, 4), [0, 1, 2, 3, 4])
        assert w.values.dtype == np.float64
        np.testing.assert_array_equal(w.values, [0.0, 1.0, 2.0, 3.0, 4.0])


ONE_PATH = sample_backward_path(build_time_grid(0, 1, 4), seed=1)
ENSEMBLE = sample_forward_ensemble(ONE_PATH.grid, 10, 1.0, seed=2)
ZERO = lambda t, x, *rest: 0.0 * np.asarray(x)


@pytest.mark.parametrize("consume", [
    lambda w: solve_flow(FlowCoefficient(g=lambda t, x, y: 0.1 * y), w,
                         np.linspace(-1, 1, 3), np.linspace(-1, 1, 5)),
    lambda w: ito_product_check(ItoProcess(), ItoProcess(), ENSEMBLE, w),
    lambda w: linear_spde_closed_form(0.4, [0.0, 0.0, 1.0], w, 0.0, 0.0),
    lambda w: feynman_kac_residual(
        ZERO, ZERO, ZERO, TbdsdeProblem(terminal=lambda x: 0.0 * x, F=ZERO, g=ZERO,
                                        volgrid=build_volatility_grid(0.5, 2.0, 2)),
        ENSEMBLE, w),
], ids=["solve_flow", "ito_product_check", "linear_spde_closed_form", "feynman_kac_residual"])
def test_single_path_consumers_refuse_a_list_of_paths(consume):
    # only the solvers sweep a list of paths; these read one path's values
    consume(ONE_PATH)
    with pytest.raises(InvalidArgumentError, match="takes one BackwardPath, got list"):
        consume([ONE_PATH, ONE_PATH])


class TestVolatilityGrid:
    def test_bounds_and_order(self):
        vg = build_volatility_grid(0.5, 2.0, 4)
        assert vg.a_low == 0.5 and vg.a_high == 2.0
        assert np.all(np.diff(vg.a_values) > 0)
        assert np.all(vg.a_values >= vg.a_low) and np.all(vg.a_values <= vg.a_high)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            build_volatility_grid(0.0, 1.0)

    @pytest.mark.parametrize("a_low, a_high", [(np.nan, 1.0), (1.0, np.nan), (1.0, np.inf),
                                               (np.inf, np.inf)])
    def test_refuses_non_finite_bounds(self, a_low, a_high):
        with pytest.raises(InvalidArgumentError, match="finite"):
            build_volatility_grid(a_low, a_high, 3)

    @pytest.mark.parametrize("n_points", [2.5, np.nan, 0, "3"])
    def test_refuses_non_integral_point_counts(self, n_points):
        with pytest.raises(InvalidArgumentError, match="n_points"):
            build_volatility_grid(0.5, 2.0, n_points)

    @pytest.mark.parametrize("n_points", [3.0, np.int32(3)])
    def test_integral_point_counts_build_one_grid(self, n_points):
        np.testing.assert_array_equal(build_volatility_grid(0.5, 2.0, n_points).a_values,
                                      [0.5, 1.25, 2.0])


class TestTree:
    def test_symmetric_binomial(self):
        g = build_time_grid(0, 1, 4)
        t = build_tree(g, 1.0)
        assert t.step == pytest.approx(np.sqrt(0.25))
        np.testing.assert_allclose(t.states(1), [-0.5, 0.5])

    def test_moment_matching_scaled(self):
        # a = 4, dt = 0.25: step = 1, conditional variance = 1 = a dt
        g = build_time_grid(0, 1, 4)
        t = build_tree(g, 4.0)
        assert t.step == pytest.approx(1.0)
        assert 0.5 * t.step + 0.5 * -t.step == pytest.approx(0.0, abs=1e-15)
        assert 0.5 * t.step**2 + 0.5 * (-t.step) ** 2 == pytest.approx(4.0 * 0.25)

    def test_terminal_second_moment_exact(self):
        # brute-force sum over all leaves: E[X_T^2] = a T (x0 = 0)
        a, T = 1.7, 1.3
        g = build_time_grid(0, T, 9)
        t = build_tree(g, a)
        probs = t.level_probabilities()[-1]
        states = t.states(g.n_steps)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.dot(probs, states**2) == pytest.approx(a * T, rel=1e-12)

    def test_one_step_conditional_moments(self):
        g = build_time_grid(0, 1, 5)
        t = build_tree(g, 0.8, x0=1.0)
        assert 0.5 * t.step + 0.5 * -t.step == pytest.approx(0.0, abs=1e-15)
        assert 0.5 * t.step**2 + 0.5 * (-t.step) ** 2 == pytest.approx(0.8 * g.dt, rel=1e-14)

    def test_level_probabilities_are_binomial(self):
        t = build_tree(build_time_grid(0, 1, 20), 1.0)
        for i, probs in enumerate(t.level_probabilities()):
            np.testing.assert_allclose(probs, [comb(i, j) / 2**i for j in range(i + 1)],
                                       rtol=0, atol=1e-15)

    def test_child_expectation_consistency(self):
        g = build_time_grid(0, 1, 6)
        t = build_tree(g, 1.0, x0=0.5)
        # E_i[X_{i+1}] = X_i and E_i[X_{i+1} dX] = a dt
        for i in range(g.n_steps):
            nxt = t.states(i + 1)
            np.testing.assert_allclose(t.child_expectation(nxt), t.states(i), atol=1e-13)
            np.testing.assert_allclose(t.child_cross(nxt),
                                       np.full(t.n_nodes(i), t.a * g.dt), atol=1e-13)

    def test_rejects_bad_inputs(self):
        g = build_time_grid(0, 1, 4)
        with pytest.raises(InvalidArgumentError):
            build_tree(g, -1.0)
        for a in (np.eye(2), np.eye(1), [1.0, 4.0, 4.0, 4.0], np.nan, np.inf, 0.0):
            with pytest.raises(InvalidArgumentError):
                build_tree(g, a)

    @pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf, np.zeros(2)])
    def test_refuses_a_non_finite_start(self, x0):
        with pytest.raises(InvalidArgumentError, match="x0"):
            build_tree(build_time_grid(0, 1, 4), 1.0, x0=x0)

    @pytest.mark.parametrize("a", [1.7, np.array([[0.5], [1.0], [2.0]])])
    def test_states_are_each_levels_nodes_read_only(self, a):
        # node j of level i is x0 + (2j - i) step, bit for bit, on a scalar tree
        # and on a (3, 1) column of trees; a level is a view nobody may write
        g = build_time_grid(0, 1, 7)
        t = BrownianTree(grid=g, a=a, x0=0.3, step=np.sqrt(a * g.dt))
        for i in range(g.n_steps + 1):
            got = t.states(i)
            want = 0.3 + (2 * np.arange(i + 1) - i) * t.step
            assert got.shape == want.shape == np.shape(a)[:-1] + (i + 1,)
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[..., 0] = 1.0
        for level in (-1, g.n_steps + 1):
            with pytest.raises(InvalidArgumentError, match=f"levels 0 to 7, got {level}$"):
                t.states(level)


class TestEnsemble:
    def test_mean_of_terminal_state(self):
        g = build_time_grid(0, 1, 8)
        ens = sample_forward_ensemble(g, 100_000, 1.0, seed=1)
        xt = ens.states[:, -1]
        se = xt.std(ddof=1) / np.sqrt(len(xt))
        assert abs(xt.mean()) < 3 * se

    @pytest.mark.parametrize("n_paths", [2.5, np.nan, 0])
    def test_refuses_non_integral_path_counts(self, n_paths):
        with pytest.raises(InvalidArgumentError, match="n_paths"):
            sample_forward_ensemble(build_time_grid(0, 1, 4), n_paths, 1.0, seed=1)

    @pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_start(self, x0):
        with pytest.raises(InvalidArgumentError, match=f"x0 must be one finite start, got {x0}"):
            sample_forward_ensemble(build_time_grid(0, 1, 4), 10, 1.0, seed=1, x0=x0)

    def test_zero_control_rejected(self):
        g = build_time_grid(0, 1, 4)
        with pytest.raises(InvalidArgumentError):
            sample_forward_ensemble(g, 10, 0.0, seed=1)

    @pytest.mark.parametrize("control", [np.nan, np.inf, [1.0, 1.0, -1.0, 1.0]])
    def test_nonpositive_or_nonfinite_control_rejected(self, control):
        g = build_time_grid(0, 1, 4)
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            sample_forward_ensemble(g, 10, control, seed=1)

    def test_variance_scaling(self):
        g = build_time_grid(0, 1, 8)
        e1 = sample_forward_ensemble(g, 50_000, 1.0, seed=2)
        e4 = sample_forward_ensemble(g, 50_000, 4.0, seed=2)
        r = e4.states[:, -1].var() / e1.states[:, -1].var()
        assert r == pytest.approx(4.0, rel=0.05)

    def test_control_length_mismatch(self):
        g = build_time_grid(0, 1, 4)
        with pytest.raises(InvalidArgumentError):
            sample_forward_ensemble(g, 10, np.ones(3), seed=1)

    def test_worker_count_does_not_change_output(self):
        # four threads, more than the cores, fill three blocks' columns of one
        # states array; a short switch interval interleaves them finely
        g = build_time_grid(0, 1, 16)
        e1 = sample_forward_ensemble(g, 20_000, 1.3, seed=7, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            e4 = sample_forward_ensemble(g, 20_000, 1.3, seed=7, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(e1.states, e4.states)

    def test_quadratic_variation_concentrates(self):
        # fluctuation of realized QV around int a dt is order sqrt(dt)
        maes = []
        for n in (16, 64):
            g = build_time_grid(0, 1, n)
            ens = sample_forward_ensemble(g, 4000, 2.0, seed=5)
            qv = np.sum(ens.increments ** 2, axis=1)  # realized QV per path
            maes.append(np.abs(qv - 2.0).mean())
        assert maes[1] < maes[0]
        assert maes[0] / maes[1] == pytest.approx(2.0, rel=0.3)  # sqrt(4) for dt/4

    def test_matrix_control_rejected(self):
        g = build_time_grid(0, 1, 4)
        with pytest.raises(InvalidArgumentError, match=r"shape \(2, 2\)"):
            sample_forward_ensemble(g, 10, np.array([[1.0, 0.3], [0.3, 2.0]]), seed=1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("control", [1.3, np.array([0.5, 2.0, 1.0, 4.0, 0.25])])
    @given(n_paths=st.integers(1, 3 * rng.BLOCK_SIZE), x0=st.floats(-3.0, 3.0).filter(bool),
           seed=st.integers(0, 2**20))
    # one path; three full blocks; a ragged third block
    @example(n_paths=1, x0=0.4, seed=9)
    @example(n_paths=3 * rng.BLOCK_SIZE, x0=-1.0, seed=9)
    @example(n_paths=2 * rng.BLOCK_SIZE + 100, x0=0.4, seed=9)
    def test_states_are_cumulated_scaled_blocked_normals(self, control, workers, n_paths, x0,
                                                         seed):
        g = build_time_grid(0, 1, 5)
        ens = sample_forward_ensemble(g, n_paths, control, seed=seed, x0=x0, workers=workers)
        a = np.broadcast_to(control, (5,))
        incs = np.sqrt(g.dt) * (np.sqrt(a) * rng.blocked_normals(seed, n_paths, (5,)))
        states = np.zeros((n_paths, 6))
        states[:, 1:] = np.cumsum(incs, axis=1)
        states += x0
        assert np.array_equal(ens.control, a)
        assert np.array_equal(ens.states, states)
        assert np.array_equal(ens.increments, np.diff(ens.states, axis=1))
        assert ens.states[:, 2].flags.c_contiguous
