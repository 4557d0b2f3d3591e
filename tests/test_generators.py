import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bdsde.errors import InvalidArgumentError
from bdsde.generators import (
    GeneratorConstants,
    HamiltonianSpec,
    fenchel_conjugate,
    make_conjugate_map,
    stratonovich_correction,
    validate_assumptions,
)
from bdsde.grids import build_time_grid, build_volatility_grid, sample_backward_path
from bdsde.oracles import RandomPdeProblem
from bdsde.second_order import DpOptions, TbdsdeProblem, hamiltonian, solve_dp

STATE = (0.0, 0.0, 0.0, 0.0)
GRID = build_time_grid(0, 1, 8)
FZERO = lambda t, x, y, z, a: np.zeros_like(np.asarray(x, dtype=float))


def grid(lo=-10.0, hi=10.0, n=2001):
    return np.linspace(lo, hi, n)


def problem(vg, F=FZERO, g=lambda t, x, y, z: 0.0 * np.asarray(y), reading="ito"):
    return TbdsdeProblem(terminal=lambda x: x**2, F=F, g=g, volgrid=vg, reading=reading)


def conjugate_problem(spec, vg):
    """The problem whose hamiltonian conjugates make_conjugate_map(spec) over vg."""
    F_conj = make_conjugate_map(spec)
    return problem(vg, F=lambda t, x, y, z, a: -F_conj(t, x, y, z, a))


class TestFenchelConjugate:
    def test_linear_h_identity_volatility(self):
        spec = HamiltonianSpec(h=lambda t, x, y, z, g: 0.5 * g, gamma_domain=grid())
        assert fenchel_conjugate(spec, STATE, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_linear_h_blows_up_off_identity(self):
        spec = HamiltonianSpec(h=lambda t, x, y, z, g: 0.5 * g, gamma_domain=grid())
        assert math.isinf(fenchel_conjugate(spec, STATE, 2.0))
        assert math.isinf(fenchel_conjugate(spec, STATE, 0.5))

    def test_quadratic_h(self):
        # brute force over the gamma grid: analytic max at gamma = a/2
        spec = HamiltonianSpec(h=lambda t, x, y, z, g: g**2 / 2, gamma_domain=grid())
        a = 2.0
        brute = np.max(0.5 * a * grid() - grid() ** 2 / 2)
        val = fenchel_conjugate(spec, STATE, a)
        assert val == pytest.approx(brute, abs=1e-14)
        assert val == pytest.approx(a * a / 8, abs=1e-4)

    def test_uncertain_volatility_envelope(self):
        h = lambda t, x, y, z, g: 0.5 * np.maximum(0.5 * g, 2.0 * g)
        spec = HamiltonianSpec(h=h, gamma_domain=grid())
        brute = np.max(0.5 * 1.0 * grid() - h(*STATE, grid()))
        assert fenchel_conjugate(spec, STATE, 1.0) == pytest.approx(brute, abs=1e-14)
        assert fenchel_conjugate(spec, STATE, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert math.isinf(fenchel_conjugate(spec, STATE, 3.0))

    def test_empty_domain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            HamiltonianSpec(h=lambda *a: 0.0, gamma_domain=np.array([]))

    def test_domain_must_contain_zero(self):
        with pytest.raises(InvalidArgumentError):
            HamiltonianSpec(h=lambda *a: 0.0, gamma_domain=np.array([1.0, 2.0]))


class TestConjugateMap:
    def test_column_of_volatilities_matches_scalar_calls(self):
        # F_conj(a) = a^2 / (8 (1 + x^2)) - y z, on a gamma grid that misses the argmax
        h = lambda t, x, y, z, g: (1 + x * x) * np.maximum(g, 0.0) ** 2 / 2 + y * z
        F = make_conjugate_map(HamiltonianSpec(h=h, gamma_domain=grid(-10, 10, 1001)))
        x, y, z = np.array([0.0, 0.3, -1.2]), 0.4, np.array([1.0, -0.5, 2.0])
        a = np.array([0.5, 1.0, 2.0])
        rows = F(0.2, x, y, z, a[:, None])
        assert rows.shape == (3, 3)
        for k in range(3):
            assert np.array_equal(rows[k], F(0.2, x, y, z, float(a[k])))
        assert rows[1] == pytest.approx(1.0 / (8 * (1 + x * x)) - y * z, abs=1e-4)


    def test_point_set_equals_per_point_conjugates(self):
        # a (V, nodes) point set: volatilities outside the envelope's band [0.5, 2]
        # are +inf, those inside keep their domain supremum; h ignores x
        seen = []
        h = lambda t, x, y, z, g: 0.5 * np.maximum(0.5 * g, 2.0 * g) + np.sin(y) * z
        spec = HamiltonianSpec(h=lambda *args: seen.append(1) or h(*args), gamma_domain=grid())
        x = np.linspace(-1.0, 1.0, 7)
        y, z = np.cos(3 * x), x**2 - 0.3
        a = np.array([0.3, 0.5, 0.8, 1.3, 2.0, 2.6])[:, None]
        out = make_conjugate_map(spec)(0.4, x, y, z, a)
        assert 1 <= len(seen) <= 13
        assert out.shape == (6, 7)
        per_point = np.array([[fenchel_conjugate(spec, (0.4, x[j], y[j], z[j]), float(a[k, 0]))
                               for j in range(7)] for k in range(6)])
        assert np.array_equal(out, per_point)
        inside = (a[:, 0] >= 0.5) & (a[:, 0] <= 2.0)
        assert np.isinf(out[~inside]).all() and np.isfinite(out[inside]).all()
        # a bounded point keeps the supremum over the domain itself
        dom = grid()[:, None, None]
        assert np.array_equal(out[inside], np.max(
            0.5 * a[inside] * dom - h(0.4, x, y, z, dom), axis=0))

    def test_refuses_a_volatility_that_is_not_positive(self):
        F = make_conjugate_map(HamiltonianSpec(h=lambda t, x, y, z, g: g**2 / 2,
                                               gamma_domain=grid()))
        with pytest.raises(InvalidArgumentError, match="a must be positive definite"):
            F(0.0, np.zeros(3), 0.0, 0.0, np.array([1.0, 0.0, 2.0]))


class TestBiconjugate:
    """The problem's hamiltonian conjugates its F back over the volatility grid."""

    def flat_hamiltonian(self):
        return hamiltonian(problem(build_volatility_grid(0.5, 2.0, 7)))

    def test_flat_conjugate(self):
        # F = 0 on [0.5, 2]: hhat(gamma) = max_a a*gamma/2
        H = self.flat_hamiltonian()
        assert H(*STATE, 2.0) == pytest.approx(2.0)
        assert H(*STATE, -2.0) == pytest.approx(-0.5)

    def test_gamma_zero(self):
        H = self.flat_hamiltonian()
        assert H(*STATE, 0.0) == pytest.approx(0.0)

    def test_biconjugate_recovers_convex_nondecreasing_h(self):
        # h(gamma) = (gamma^+)^2 / 2 is convex nondecreasing: hhat == h on
        # sampled points, within conjugation tolerance of the grids
        h = lambda t, x, y, z, g: np.maximum(g, 0.0) ** 2 / 2
        spec = HamiltonianSpec(h=h, gamma_domain=grid(-30, 30, 4001))
        vg = build_volatility_grid(0.25, 8.0, 400)
        H = hamiltonian(conjugate_problem(spec, vg))
        a_spacing = vg.a_values[1] - vg.a_values[0]
        for gamma in [0.3, 1.0, 2.5]:
            slope = gamma  # local slope bound of h
            tol = max(a_spacing, 60.0 / 4000) * max(slope, 1.0)
            assert H(*STATE, gamma) == pytest.approx(h(0, 0, 0, 0, gamma), abs=tol)

    def test_biconjugate_below_h(self):
        h = lambda t, x, y, z, g: np.abs(g)  # convex but not nondecreasing
        spec = HamiltonianSpec(h=h, gamma_domain=grid(-20, 20, 2001))
        H = hamiltonian(conjugate_problem(spec, build_volatility_grid(0.1, 1.0, 50)))
        for gamma in [-3.0, -1.0, 0.0, 0.5, 2.0]:
            assert H(*STATE, gamma) <= h(0, 0, 0, 0, gamma) + 1e-9

    def test_all_infinite_rejected(self):
        vg = build_volatility_grid(0.5, 2.0, 3)
        p = problem(vg, F=lambda t, x, y, z, a: np.full_like(np.asarray(x, dtype=float), -np.inf))
        with pytest.raises(InvalidArgumentError):
            hamiltonian(p)(*STATE, 1.0)

    def test_infinite_at_every_volatility_off_the_probe_rejected(self):
        # F is finite at the probe state x = 0 but -inf at x = 1 for every a
        F = lambda t, x, y, z, a: np.where(np.asarray(x) == 1.0, -np.inf, 0.0)
        H = hamiltonian(problem(build_volatility_grid(0.5, 2.0, 3), F=F))
        assert H(0.0, np.array([0.0, 0.5]), 0.0, 0.0, 1.0) == pytest.approx([1.0, 1.0])
        with pytest.raises(InvalidArgumentError, match=r"t = 0.25.*\(1.0, 0.0, 0.0\)"):
            H(0.25, np.array([0.0, 1.0]), 0.0, 0.0, 1.0)

    def test_hhat_convex_nondecreasing_along_lines(self):
        H = self.flat_hamiltonian()
        gammas = np.linspace(-3, 3, 41)
        vals = np.array([H(*STATE, g) for g in gammas])
        slopes = np.diff(vals)
        assert np.all(slopes >= -1e-12)          # nondecreasing
        assert np.all(np.diff(slopes) >= -1e-12)  # convex


class TestOrderReversal:
    def test_h1_below_h2_implies_f1_above_f2(self):
        rng = np.random.default_rng(7)
        gam = grid(-8, 8, 801)
        for _ in range(100):
            c = rng.uniform(0.1, 2.0)
            bump = rng.uniform(0.0, 1.5)
            h1 = lambda t, x, y, z, g, c=c: c * g**2 / 2
            h2 = lambda t, x, y, z, g, c=c, b=bump: c * g**2 / 2 + b
            s1 = HamiltonianSpec(h=h1, gamma_domain=gam)
            s2 = HamiltonianSpec(h=h2, gamma_domain=gam)
            for a in (0.5, 1.0, 2.7):
                f1 = fenchel_conjugate(s1, STATE, a)
                f2 = fenchel_conjugate(s2, STATE, a)
                assert f1 >= f2 - 1e-12


class TestStratonovichCorrection:
    VG = build_volatility_grid(0.5, 2.0, 3)

    def strat(self, **kwargs):
        """A Stratonovich-read problem over VG."""
        return problem(self.VG, reading="stratonovich", **kwargs)

    def test_y_free_g_is_identity(self):
        p = stratonovich_correction(self.strat(F=lambda t, x, y, z, a: 2.5,
                                               g=lambda t, x, y, z: 0.7 * z + 1.0))
        assert p.F(0, 0, 1.0, 1.0, 1.0) == pytest.approx(2.5, abs=1e-9)

    def test_returns_the_ito_read_problem_and_refuses_one(self):
        p = stratonovich_correction(self.strat(g=lambda t, x, y, z: 0.5 * y))
        assert p.reading == "ito"
        # so a problem is never converted twice
        for ito_read in (p, problem(self.VG, g=lambda t, x, y, z: 0.5 * y)):
            with pytest.raises(InvalidArgumentError, match="takes a Stratonovich-read problem"):
                stratonovich_correction(ito_read)

    def test_linear_g_hand_value(self):
        p = stratonovich_correction(self.strat(F=lambda t, x, y, z, a: 1.0,
                                               g=lambda t, x, y, z: 0.4 * y),
                                    dy_g=lambda t, x, y, z: 0.4 + 0.0 * np.asarray(y))
        # F = 1, y = 2: f = 1 + 0.5 * (0.8) * (0.4) = 1.16
        assert p.F(0, 0, 2.0, 0.0, 1.0) == pytest.approx(1.16)

    def test_correction_is_elementwise_on_batched_paths(self):
        # g = y / 2 pairs with W's first component at every node of every
        # path: the correction is g g_y / 2 = y / 8, never a sum over nodes
        p = stratonovich_correction(self.strat(g=lambda t, x, y, z: 0.5 * y))
        ys = np.array([1.0, 2.0, 3.0, 4.0])
        expected = [0.125, 0.25, 0.375, 0.5]
        batched = p.F(0.0, np.zeros(4), np.stack([ys, ys]), 0.0, 1.0)
        np.testing.assert_allclose(batched, [expected, expected], rtol=1e-9)
        np.testing.assert_allclose(p.F(0.0, 0.0, ys, 0.0, 1.0), expected, rtol=1e-9)

    def test_nonlinear_g_finite_difference(self):
        # g = 0.3 cos y: g g_y / 2 = -0.045 sin y cos y = -0.0225 sin 2y
        F = lambda t, x, y, z, a: 0.5 * y + 0.0 * np.asarray(x)
        p = stratonovich_correction(self.strat(F=F, g=lambda t, x, y, z: 0.3 * np.cos(y)))
        ys = np.linspace(-4.0, 4.0, 81)
        np.testing.assert_allclose(p.F(0.3, np.zeros(81), ys, 0.0, 1.0),
                                   F(0.3, 0, ys, 0, 1.0) - 0.0225 * np.sin(2 * ys),
                                   rtol=0, atol=1e-9)

    def test_nonlinear_g_solves_over_a_batch(self):
        p = stratonovich_correction(TbdsdeProblem(
            terminal=lambda x: x**2, F=lambda t, x, y, z, a: 0.5 * y + 0.0 * np.asarray(x),
            g=lambda t, x, y, z: 0.3 * np.cos(y), volgrid=self.VG, lipschitz_f=0.55,
            reading="stratonovich"))
        grid = build_time_grid(0, 1, 8)
        paths = [sample_backward_path(grid, seed=s) for s in range(4)]
        opts = DpOptions(x_steps=60)
        batch = solve_dp(p, grid, paths, x0=1.0, opts=opts)
        assert np.all(np.isfinite(batch.y0_paths))
        np.testing.assert_array_equal(
            batch.y0_paths, [solve_dp(p, grid, w, x0=1.0, opts=opts).y0 for w in paths])


class TestValidateAssumptions:
    def test_passing_bundle(self):
        p = problem(build_volatility_grid(0.5, 2.0, 3), g=lambda t, x, y, z: 0.3 * z)
        rep = validate_assumptions(p, GeneratorConstants(C=0.01, alpha=0.09, lam=0.5, c=0.1),
                                   GRID, n_samples=300)
        assert rep["g_contraction"].passed
        assert rep["ellipticity"].passed  # (1 - 0.5) * 0.5 = 0.25 >= 0.09

    def test_alpha_one_fails(self):
        p = problem(build_volatility_grid(1.0, 2.0, 2), g=lambda t, x, y, z: z)
        rep = validate_assumptions(p, GeneratorConstants(C=0.0, alpha=1.0, lam=0.0),
                                   GRID, n_samples=50)
        assert not rep["alpha_below_one"].passed

    def test_linear_y_growth_constant(self):
        beta = 0.4
        p = problem(build_volatility_grid(1.0, 2.0, 2), g=lambda t, x, y, z: beta * y)
        rep = validate_assumptions(p, GeneratorConstants(C=beta**2, alpha=0.0, lam=0.0,
                                                         c=beta**2), GRID, n_samples=300)
        assert rep["g_growth"].passed
        assert rep.passed

    def test_f_lipschitz_fails_when_no_sample_is_finite(self):
        # every sampled pair is skipped, so the check has compared nothing
        F = lambda t, x, y, z, a: np.full_like(np.asarray(x, dtype=float), -np.inf)
        p = problem(build_volatility_grid(0.5, 2.0, 3), F=F)
        rep = validate_assumptions(p, GeneratorConstants(C=1.0, alpha=0.0, lam=0.0),
                                   GRID, n_samples=20)
        assert not rep["F_lipschitz"].passed
        assert rep["F_lipschitz"].worst_violation == -math.inf


    @staticmethod
    def spied_checks(grid, n_samples, seed):
        """{name: times} that g, F and hhat_tilde received in validate_assumptions
        and parabolicity_report on grid."""
        seen = {"g": [], "F": [], "hhat_tilde": []}

        def spy(name, fn):
            def called(t, *args):
                seen[name].append(t)
                return fn(t, *args)
            return called
        p = problem(build_volatility_grid(0.5, 2.0, 3),
                    F=spy("F", lambda t, x, y, z, a: 0.5 * y - 0.2 * a * z + 0.0 * x),
                    g=spy("g", lambda t, x, y, z: 0.3 * np.sin(y)))
        validate_assumptions(p, GeneratorConstants(C=1.0, alpha=0.0, lam=0.0), grid,
                             n_samples=n_samples, seed=seed)
        RandomPdeProblem(hhat_tilde=spy("hhat_tilde", lambda t, x, y, z, gam: 0.5 * gam),
                         terminal=lambda x: x**2, x_domain=(-1.0, 1.0)).parabolicity_report(
                             grid, n_samples=n_samples, seed=seed)
        return seen

    @given(t0=st.floats(-3.0, 3.0).filter(bool), span=st.floats(0.1, 6.0),
           n=st.integers(1, 40), n_samples=st.integers(1, 60), seed=st.integers(0, 2**16))
    def test_sampled_checks_call_only_at_node_times(self, t0, span, n, n_samples, seed):
        grid = build_time_grid(t0, t0 + span, n)
        assume(grid.horizon != 1.0)
        seen = self.spied_checks(grid, n_samples, seed)
        nodes = {name: [grid.index(t) for t in times] for name, times in seen.items()}
        # once per drawn node for g, F and hhat_tilde (its gamma_lo, gamma_hi pair stacked)
        assert nodes["g"] == nodes["F"] == nodes["hhat_tilde"] == sorted(set(nodes["g"]))

    def test_a_long_horizon_is_sampled_to_its_end(self):
        grid = build_time_grid(2.0, 7.0, 4)
        seen = self.spied_checks(grid, 200, 0)
        assert all(sorted(set(times)) == grid.nodes.tolist() for times in seen.values())

    @pytest.mark.parametrize("n_samples", [0, -1, 2.5])
    def test_refuses_a_sample_count_below_one(self, n_samples):
        p = problem(build_volatility_grid(0.5, 2.0, 3))
        with pytest.raises(InvalidArgumentError, match="n_samples must be an integer >= 1"):
            validate_assumptions(p, GeneratorConstants(C=1.0, alpha=0.0, lam=0.0), GRID,
                                 n_samples=n_samples)


class TestConjugateLipschitz:
    def test_f_lipschitz_check_with_declared_constants(self):
        # H affine in (y, z) with slope L: the conjugate inherits the same
        # Lipschitz structure, checked on sampled pairs through the report
        L = 0.7
        h = lambda t, x, y, z, g: g**2 / 2 + L * y + L * z
        spec = HamiltonianSpec(h=h, gamma_domain=grid(-20, 20, 2001))
        p = replace(conjugate_problem(spec, build_volatility_grid(0.5, 2.0, 4)),
                    g=lambda t, x, y, z: 0.1 * y)
        rep = validate_assumptions(p, GeneratorConstants(C=2.0, alpha=0.0, lam=0.0),
                                   GRID, n_samples=60)
        assert rep["F_lipschitz"].passed

    def test_f_lipschitz_flagged_when_constant_too_small(self):
        L = 5.0
        h = lambda t, x, y, z, g: g**2 / 2 + L * y
        spec = HamiltonianSpec(h=h, gamma_domain=grid(-20, 20, 2001))
        p = replace(conjugate_problem(spec, build_volatility_grid(0.5, 2.0, 2)),
                    g=lambda t, x, y, z: 0.1 * y)
        rep = validate_assumptions(p, GeneratorConstants(C=0.01, alpha=0.0, lam=0.0),
                                   GRID, n_samples=60)
        assert not rep["F_lipschitz"].passed
