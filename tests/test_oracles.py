import tracemalloc

import numpy as np
import pytest

from bdsde.errors import (InvalidArgumentError, NonFiniteError, StabilityError,
                          UnsupportedOracleError)
from bdsde.grids import (
    build_time_grid,
    sample_backward_bridge,
    sample_backward_path,
    sample_forward_ensemble,
    BackwardPath,
)
from bdsde.oracles import (
    GAMMA_PROBE,
    Z_PROBE,
    ItoProcess,
    RandomPdeProblem,
    bsb_closed_form,
    fd_random_pde,
    heat_semigroup,
    ito_product_check,
    linear_spde_closed_form,
)


class TestHeatSemigroup:
    def test_quadratic(self):
        p = heat_semigroup([0.0, 0.0, 1.0], a=1.3, tau=0.7)
        xs = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(p(xs), xs**2 + 1.3 * 0.7, rtol=1e-14)

    def test_linear_is_invariant(self):
        p = heat_semigroup([0.0, 1.0], a=2.0, tau=1.0)
        xs = np.array([-3.0, 0.5])
        np.testing.assert_allclose(p(xs), xs, atol=1e-14)

    def test_quartic_moments(self):
        a, tau = 0.8, 0.6
        p = heat_semigroup([0.0, 0.0, 0.0, 0.0, 1.0], a=a, tau=tau)
        xs = np.array([0.0, 1.0, -2.0])
        s2 = a * tau
        np.testing.assert_allclose(p(xs), xs**4 + 6 * xs**2 * s2 + 3 * s2**2, rtol=1e-13)

    @pytest.mark.parametrize("a, tau", [(-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                                        (1.0, -0.5), (1.0, np.nan), (1.0, np.inf)])
    def test_refuses_a_negative_or_non_finite_variance(self, a, tau):
        for phi in ([0.0, 0.0, 1.0], lambda x: x**2):
            with pytest.raises(InvalidArgumentError, match="nonnegative and finite"):
                heat_semigroup(phi, a, tau)

    def test_callable_route_matches_polynomial_route(self):
        a, tau = 1.1, 0.4
        p_poly = heat_semigroup([1.0, -0.5, 2.0], a, tau)
        p_quad = heat_semigroup(lambda x: 1.0 - 0.5 * x + 2.0 * x**2, a, tau)
        xs = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(p_quad(xs), p_poly(xs), rtol=1e-12)


class TestBsbClosedForm:
    def test_convex_quadratic(self):
        assert bsb_closed_form(lambda x: x**2, 0.5, 2.0, 1.0, 0.0, 1.0) == \
            pytest.approx(3.0, rel=1e-12)

    def test_concave_quadratic(self):
        got = bsb_closed_form(lambda x: -(x**2), 0.5, 2.0, 1.0, 0.25, 1.0)
        assert got == pytest.approx(-(1.0 + 0.5 * 0.75), rel=1e-12)

    def test_affine_any_regime(self):
        xs = np.array([-1.0, 0.3])
        np.testing.assert_allclose(
            bsb_closed_form(lambda x: x, 0.5, 2.0, 1.0, 0.0, xs), xs, atol=1e-10)

    def test_mixed_curvature_rejected(self):
        with pytest.raises(UnsupportedOracleError):
            bsb_closed_form(lambda x: np.where(x > 0, x**2, -x**2), 0.5, 2.0, 1.0, 0.0, 0.0)

    def test_non_quadratic_rejected(self):
        with pytest.raises(UnsupportedOracleError):
            bsb_closed_form(lambda x: x**4, 0.5, 2.0, 1.0, 0.0, 0.0)


class TestLinearSpdeClosedForm:
    def test_pinned_endpoint_value(self):
        grid = build_time_grid(0, 1, 64)
        w = sample_backward_bridge(grid, seed=5, total=0.25)
        got = linear_spde_closed_form(0.4, [0.0, 0.0, 1.0], w, 0.0, 0.0)
        assert got == pytest.approx(np.exp(0.1), rel=1e-12)

    def test_zero_beta_reduces_to_heat(self):
        grid = build_time_grid(0, 1, 16)
        w = sample_backward_path(grid, seed=2)
        got = linear_spde_closed_form(0.0, [0.0, 0.0, 1.0], w, 0.0, np.array([0.7]))
        assert got[0] == pytest.approx(0.7**2 + 1.0, rel=1e-12)

    def test_path_negation_scales_value(self):
        grid = build_time_grid(0, 1, 32)
        w = sample_backward_path(grid, seed=9)
        w_neg = BackwardPath(grid, -w.values)
        beta = 0.4
        v = linear_spde_closed_form(beta, [0.0, 0.0, 1.0], w, 0.0, 0.0)
        v_neg = linear_spde_closed_form(beta, [0.0, 0.0, 1.0], w_neg, 0.0, 0.0)
        ratio = np.exp(-2 * beta * w.tail_increment(0))
        assert v_neg / v == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("t", [-0.5, 2.0, 0.3, np.nan, np.inf, -np.inf])
    def test_refuses_a_time_off_the_grid(self, t):
        # -0.5 and 2.0 round to node indices -2 and 8, outside 0..4; 0.3 lies between
        # nodes; a time that is not finite is on no node
        w = sample_backward_path(build_time_grid(0, 1, 4), seed=1)
        with pytest.raises(InvalidArgumentError, match=r"node of the time grid on "
                                                       r"\[0.0, 1.0\], got"):
            linear_spde_closed_form(0.4, [0.0, 0.0, 1.0], w, t, 0.0)
        # the horizon itself is node 4: no noise left, and phi itself
        assert linear_spde_closed_form(0.4, [0.0, 0.0, 1.0], w, 1.0, 0.5) == 0.25


def heat_problem(boundary=None):
    return RandomPdeProblem(
        hhat_tilde=lambda t, x, y, z, gam: 0.5 * gam,
        terminal=lambda x: x**2,
        x_domain=(-6.0, 6.0),
        boundary=boundary,
    )


def bsb_hhat(a_low=0.5, a_high=2.0):
    return lambda t, x, y, z, gam: 0.5 * np.maximum(a_low * gam, a_high * gam)


def quartic_problem():
    return RandomPdeProblem(
        hhat_tilde=lambda t, x, y, z, gam: 0.5 * gam,
        terminal=lambda x: x**4, x_domain=(-6.0, 6.0),
        boundary=lambda t, x: heat_semigroup([0.0, 0.0, 0.0, 0.0, 1.0], 1.0, 1.0 - t)(x))


def bsb_fd_problem():
    return RandomPdeProblem(
        hhat_tilde=bsb_hhat(), terminal=lambda x: x**2, x_domain=(-9.0, 11.0),
        boundary=lambda t, x: bsb_closed_form(lambda u: u**2, 0.5, 2.0, 1.0, t, x))


def full_table_fd(problem, grid, x_steps):
    """The reference for fd_random_pde's level 0: the same scheme filling the whole
    (n_steps + 1, x_steps + 1) table, without the stability probe or finiteness check."""
    lo, hi = problem.x_domain
    xs = np.linspace(lo, hi, x_steps + 1)
    dx = xs[1] - xs[0]
    n, dt = grid.n_steps, grid.dt
    v = np.empty((n + 1, len(xs)))
    v[n] = np.asarray(problem.terminal(xs), dtype=float)
    for i in range(n - 1, -1, -1):
        t_next = grid.time(i + 1)
        cur = v[i + 1]
        inner = slice(1, -1)
        d2 = (cur[2:] - 2 * cur[1:-1] + cur[:-2]) / dx**2
        fwd = (cur[2:] - cur[1:-1]) / dx
        bwd = (cur[1:-1] - cur[:-2]) / dx
        ctr = 0.5 * (fwd + bwd)
        h_zp = np.asarray(problem.hhat_tilde(t_next, xs[inner], cur[inner], ctr + Z_PROBE, d2))
        h_zm = np.asarray(problem.hhat_tilde(t_next, xs[inner], cur[inner], ctr - Z_PROBE, d2))
        dz = np.where(h_zp - h_zm >= 0, fwd, bwd)
        v[i, inner] = cur[inner] + dt * np.asarray(
            problem.hhat_tilde(t_next, xs[inner], cur[inner], dz, d2), dtype=float)
        if problem.boundary is not None:
            t_i = grid.time(i)
            v[i, 0] = problem.boundary(t_i, xs[0])
            v[i, -1] = problem.boundary(t_i, xs[-1])
        else:
            v[i, 0] = 2 * v[i, 1] - v[i, 2]
            v[i, -1] = 2 * v[i, -2] - v[i, -3]
    return xs, v


class TestFdRandomPde:
    @pytest.mark.parametrize("x_steps", [1, 0, 2.5])
    def test_refuses_fewer_than_two_cells(self, x_steps):
        with pytest.raises(InvalidArgumentError,
                           match=f"x_steps must be an integer >= 2, got {x_steps}"):
            fd_random_pde(heat_problem(), build_time_grid(0, 1, 4), x_steps)

    def test_heat_value_at_origin(self):
        grid = build_time_grid(0, 1, 64)
        xs, v0 = fd_random_pde(heat_problem(), grid, x_steps=64)
        i0 = np.argmin(np.abs(xs))
        assert v0[i0] == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("problem, n, x_steps", [
        (heat_problem(), 64, 64), (quartic_problem(), 64, 48), (bsb_fd_problem(), 256, 100),
    ], ids=["heat", "quartic-boundary", "bsb-hhat"])
    def test_level_0_is_the_full_tables_row_0(self, problem, n, x_steps):
        grid = build_time_grid(0, 1, n)
        xs, v0 = fd_random_pde(problem, grid, x_steps)
        ref_xs, ref = full_table_fd(problem, grid, x_steps)
        assert v0.shape == (x_steps + 1,)
        assert xs.tobytes() == ref_xs.tobytes() and v0.tobytes() == ref[0].tobytes()

    def test_holds_rows_not_the_table(self):
        # at (2000, 400) the (n_steps + 1, x_steps + 1) table alone was 6.4 MB
        prob, grid = bsb_fd_problem(), build_time_grid(0, 1, 2000)
        tracemalloc.start()
        try:
            fd_random_pde(prob, grid, x_steps=400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_heat_convergence_on_quartic_data(self):
        # quadratic data is propagated exactly by the stencil; quartic data
        # has genuine O(dx^2 + dt) error against the moment oracle
        oracle_fn = heat_semigroup([0.0, 0.0, 0.0, 0.0, 1.0], 1.0, 1.0)
        errs = []
        for n, m in [(64, 48), (256, 96)]:
            grid = build_time_grid(0, 1, n)
            xs, v0 = fd_random_pde(quartic_problem(), grid, x_steps=m)
            i0 = np.argmin(np.abs(xs))
            errs.append(abs(v0[i0] - oracle_fn(0.0)))
        assert errs[1] < errs[0] / 2.5

    def test_cfl_violation_reports_suggested_dt(self):
        grid = build_time_grid(0, 1, 8)
        with pytest.raises(StabilityError) as ei:
            fd_random_pde(heat_problem(), grid, x_steps=200)
        assert ei.value.suggested_dt is not None
        assert ei.value.suggested_dt < grid.dt

    def test_blow_up_names_its_largest_step(self):
        # y^2 in the generator blows 3 + x^2 up in finite time: the first
        # non-finite entry in backward order is at step 157, node 0
        prob = RandomPdeProblem(hhat_tilde=lambda t, x, y, z, gam: 0.5 * gam + y**2,
                                terminal=lambda x: 3.0 + x**2, x_domain=(-2.0, 2.0))
        with pytest.raises(NonFiniteError, match="at step 157, node 0$") as ei:
            fd_random_pde(prob, build_time_grid(0, 1, 200), x_steps=40)
        assert (ei.value.step, ei.value.node) == (157, 0)

    def test_non_finite_terminal_is_step_n(self):
        prob = RandomPdeProblem(hhat_tilde=lambda t, x, y, z, gam: 0.5 * gam,
                                terminal=lambda x: np.where(x > 1.0, np.nan, x**2),
                                x_domain=(-6.0, 6.0))
        with pytest.raises(NonFiniteError) as ei:
            fd_random_pde(prob, build_time_grid(0, 1, 16), x_steps=40)
        assert (ei.value.step, ei.value.node) == (16, 24)  # x = 1.2, the first above 1

    def test_matches_uncertain_volatility_closed_form(self):
        grid = build_time_grid(0, 1, 256)
        xs, v0 = fd_random_pde(bsb_fd_problem(), grid, x_steps=100)
        i1 = np.argmin(np.abs(xs - 1.0))
        oracle = bsb_closed_form(lambda u: u**2, 0.5, 2.0, 1.0, 0.0, xs[i1])
        assert v0[i1] == pytest.approx(oracle, rel=0.02)

    def test_comparison_principle(self):
        # ordered terminal data stay ordered at every time t: each t in
        # {0, 1/4, 1/2, 3/4} is level 0 of a solve on [t, 1] at dt = 1/64
        rng = np.random.default_rng(3)
        for _ in range(10):
            c, bump = rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0)
            phi1 = lambda x, c=c: np.cos(c * x)
            phi2 = lambda x, c=c, b=bump: np.cos(c * x) + b
            p1 = RandomPdeProblem(hhat_tilde=bsb_hhat(), terminal=phi1, x_domain=(-6, 6))
            p2 = RandomPdeProblem(hhat_tilde=bsb_hhat(), terminal=phi2, x_domain=(-6, 6))
            for t, n in ((0.0, 64), (0.25, 48), (0.5, 32), (0.75, 16)):
                grid = build_time_grid(t, 1, n)
                _, v1 = fd_random_pde(p1, grid, x_steps=60)
                _, v2 = fd_random_pde(p2, grid, x_steps=60)
                assert np.all(v1 <= v2 + 1e-12)

    def test_parabolicity_report(self):
        assert heat_problem().parabolicity_report(build_time_grid(0, 1, 8)) >= 0.0
        bad = RandomPdeProblem(hhat_tilde=lambda t, x, y, z, g: -0.5 * g,
                               terminal=lambda x: x, x_domain=(-1, 1))
        assert bad.parabolicity_report(build_time_grid(0, 1, 8)) < 0.0

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_parabolicity_report_refuses_no_samples(self, n_samples):
        # a report over no sample would read 0.0, a vacuous pass
        with pytest.raises(InvalidArgumentError, match="n_samples must be an integer >= 1"):
            heat_problem().parabolicity_report(build_time_grid(0, 1, 8), n_samples=n_samples)


class TestItoProduct:
    def make(self, n, n_paths=4000, a=1.0, seed=11):
        grid = build_time_grid(0, 1, n)
        ens = sample_forward_ensemble(grid, n_paths, a, seed=3)
        w = sample_backward_path(grid, seed=seed)
        return grid, ens, w

    def test_deterministic_drift_case(self):
        # X1 = X2 = t: only the Riemann-sum bias of order dt remains
        grid, ens, w = self.make(16, n_paths=10)
        p = ItoProcess(alpha=lambda t, b, wv: 1.0)
        rep = ito_product_check(p, p, ens, w)
        assert rep.mean_abs_residual == pytest.approx(grid.dt, rel=1e-10)

    def test_forward_squared_converges(self):
        res = []
        for n in (16, 64, 256):
            grid, ens, w = self.make(n)
            p = ItoProcess(beta=lambda t, b, wv: 1.0)
            res.append(ito_product_check(p, p, ens, w).mean_abs_residual)
        assert res[0] > res[1] > res[2]
        assert res[0] / res[2] == pytest.approx(4.0, rel=0.4)  # half-order in dt

    def test_backward_bracket_sign_witness(self):
        correct, flipped = [], []
        for n in (16, 64, 256):
            grid, ens, w = self.make(n, n_paths=50)
            p = ItoProcess(gamma=lambda t, b, wv: 1.0)
            correct.append(ito_product_check(p, p, ens, w).mean_abs_residual)
            flipped.append(ito_product_check(p, p, ens, w,
                                             flip_backward_bracket=True).mean_abs_residual)
        assert correct[2] < correct[0]
        # the flipped bracket plateaus at ~2T while the correct sign vanishes
        assert flipped[2] > 10 * correct[2]
        assert flipped[2] == pytest.approx(2.0, rel=0.3)

    def test_forward_bracket_reads_each_steps_control(self):
        # volatility 1 on the first half of the steps and 4 on the second: the
        # bracket must integrate a_i step by step; reading step 0's volatility
        # throughout leaves a residual of ~1.6 at every n
        p = ItoProcess(beta=lambda t, b, wv: 1.0)
        stepped, const = {}, {}
        for n in (64, 256):
            grid, ens, w = self.make(n, a=np.where(np.arange(n) < n // 2, 1.0, 4.0), seed=4)
            stepped[n] = ito_product_check(p, p, ens, w).mean_abs_residual
            grid, ens, w = self.make(n, a=2.5, seed=4)
            const[n] = ito_product_check(p, p, ens, w).mean_abs_residual
        assert stepped[256] < 0.6 * stepped[64]
        for n in (64, 256):
            assert stepped[n] < 1.5 * const[n]

    def test_independent_drivers_cross_bracket_zero(self):
        grid, ens, w = self.make(64, n_paths=20000)
        p1 = ItoProcess(gamma=lambda t, b, wv: 1.0)
        p2 = ItoProcess(beta=lambda t, b, wv: 1.0)
        rep = ito_product_check(p1, p2, ens, w)
        # no common bracket: residual is pure MC noise around zero
        assert abs(rep.mean_residual) < 0.05

    def test_bounded_variation_part(self):
        # deterministic BV against a drift: the only defect is the
        # left-endpoint Riemann bias, O(dt * K_T)
        res = []
        for n in (32, 128):
            grid, ens, w = self.make(n, n_paths=10)
            k = np.cumsum(np.abs(np.sin(np.linspace(0, 9, n + 1)))) * (32.0 / n)
            p1 = ItoProcess(k=k)
            p2 = ItoProcess(alpha=lambda t, b, wv: 2.0)
            rep = ito_product_check(p1, p2, ens, w)
            assert rep.mean_abs_residual < 3 * grid.dt * k[-1]
            res.append(rep.mean_abs_residual)
        assert res[1] < res[0]
