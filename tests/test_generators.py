import math

import numpy as np
import pytest

from bdsde.errors import InvalidArgumentError
from bdsde.generators import (
    ConjugatePair,
    GeneratorBundle,
    GeneratorConstants,
    HamiltonianSpec,
    biconjugate,
    fenchel_conjugate,
    make_conjugate_map,
    stratonovich_correction,
    validate_assumptions,
)
from bdsde.grids import build_volatility_grid

STATE = (0.0, 0.0, 0.0, 0.0)


def grid(lo=-10.0, hi=10.0, n=2001):
    return np.linspace(lo, hi, n)


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


class TestBiconjugate:
    def pair_flat(self):
        vg = build_volatility_grid(0.5, 2.0, 7)
        return ConjugatePair(F=lambda t, x, y, z, a: np.zeros_like(np.asarray(x)),
                             domain=vg)

    def test_flat_conjugate(self):
        # F = 0 on [0.5, 2]: hhat(gamma) = max_a a*gamma/2
        pair = self.pair_flat()
        assert biconjugate(pair, STATE, 2.0) == pytest.approx(2.0)
        assert biconjugate(pair, STATE, -2.0) == pytest.approx(-0.5)

    def test_gamma_zero(self):
        pair = self.pair_flat()
        assert biconjugate(pair, STATE, 0.0) == pytest.approx(0.0)

    def test_biconjugate_recovers_convex_nondecreasing_h(self):
        # h(gamma) = (gamma^+)^2 / 2 is convex nondecreasing: hhat == h on
        # sampled points, within conjugation tolerance of the grids
        h = lambda t, x, y, z, g: np.maximum(g, 0.0) ** 2 / 2
        spec = HamiltonianSpec(h=h, gamma_domain=grid(-30, 30, 4001))
        vg = build_volatility_grid(0.25, 8.0, 400)
        pair = ConjugatePair(F=make_conjugate_map(spec), domain=vg)
        a_spacing = vg.a_values[1] - vg.a_values[0]
        for gamma in [0.3, 1.0, 2.5]:
            slope = gamma  # local slope bound of h
            tol = max(a_spacing, 60.0 / 4000) * max(slope, 1.0)
            assert biconjugate(pair, STATE, gamma) == pytest.approx(
                h(0, 0, 0, 0, gamma), abs=tol)

    def test_biconjugate_below_h(self):
        h = lambda t, x, y, z, g: np.abs(g)  # convex but not nondecreasing
        spec = HamiltonianSpec(h=h, gamma_domain=grid(-20, 20, 2001))
        vg = build_volatility_grid(0.1, 1.0, 50)
        pair = ConjugatePair(F=make_conjugate_map(spec), domain=vg)
        for gamma in [-3.0, -1.0, 0.0, 0.5, 2.0]:
            assert biconjugate(pair, STATE, gamma) <= h(0, 0, 0, 0, gamma) + 1e-9

    def test_all_infinite_rejected(self):
        vg = build_volatility_grid(0.5, 2.0, 3)
        pair = ConjugatePair(F=lambda t, x, y, z, a: np.full_like(np.asarray(x, dtype=float), np.inf),
                             domain=vg)
        with pytest.raises(InvalidArgumentError):
            biconjugate(pair, STATE, 1.0)

    def test_hhat_convex_nondecreasing_along_lines(self):
        pair = self.pair_flat()
        gammas = np.linspace(-3, 3, 41)
        vals = np.array([biconjugate(pair, STATE, g) for g in gammas])
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
    def test_y_free_g_is_identity(self):
        b = GeneratorBundle(g=lambda t, x, y, z: 0.7 * z + 1.0,
                            constants=GeneratorConstants(C=1, alpha=0.49, lam=0.2))
        assert stratonovich_correction(b, 2.5, 0, 0, 1.0, 1.0) == pytest.approx(2.5, abs=1e-9)

    def test_linear_g_hand_value(self):
        b = GeneratorBundle(g=lambda t, x, y, z: 0.4 * y,
                            constants=GeneratorConstants(C=0.16, alpha=0.0, lam=0.0),
                            dy_g=lambda t, x, y, z: 0.4 + 0.0 * np.asarray(y))
        # F = 1, y = 2: f = 1 + 0.5 * (0.8) * (0.4) = 1.16
        assert stratonovich_correction(b, 1.0, 0, 0, 2.0, 0.0) == pytest.approx(1.16)

    def test_fd_derivative_matches_analytic_at_order_two(self):
        errs = []
        for h in (1e-2, 1e-3):
            b = GeneratorBundle(g=lambda t, x, y, z: np.sin(y),
                                constants=GeneratorConstants(C=1, alpha=0, lam=0),
                                fd_step=h)
            errs.append(abs(b.dy_g_eval(0, 0, 0.7, 0.0) - np.cos(0.7)))
        assert errs[1] / errs[0] == pytest.approx(1e-2, rel=0.2)


class TestValidateAssumptions:
    def test_passing_bundle(self):
        b = GeneratorBundle(g=lambda t, x, y, z: 0.3 * z,
                            constants=GeneratorConstants(C=0.01, alpha=0.09, lam=0.5, c=0.1))
        vg = build_volatility_grid(0.5, 2.0, 3)
        rep = validate_assumptions(b, None, vg, n_samples=300)
        assert rep["g_contraction"].passed
        assert rep["ellipticity"].passed  # (1 - 0.5) * 0.5 = 0.25 >= 0.09

    def test_alpha_one_fails(self):
        b = GeneratorBundle(g=lambda t, x, y, z: z,
                            constants=GeneratorConstants(C=0.0, alpha=1.0, lam=0.0))
        vg = build_volatility_grid(1.0, 2.0, 2)
        rep = validate_assumptions(b, None, vg, n_samples=50)
        assert not rep["alpha_below_one"].passed

    def test_linear_y_growth_constant(self):
        beta = 0.4
        b = GeneratorBundle(g=lambda t, x, y, z: beta * y,
                            constants=GeneratorConstants(C=beta**2, alpha=0.0, lam=0.0,
                                                         c=beta**2))
        vg = build_volatility_grid(1.0, 2.0, 2)
        rep = validate_assumptions(b, None, vg, n_samples=300)
        assert rep["g_growth"].passed
        assert rep.passed


class TestConjugateLipschitz:
    def test_f_lipschitz_check_with_declared_constants(self):
        # H affine in (y, z) with slope L: the conjugate inherits the same
        # Lipschitz structure, checked on sampled pairs through the report
        L = 0.7
        h = lambda t, x, y, z, g: g**2 / 2 + L * y + L * z
        spec = HamiltonianSpec(h=h, gamma_domain=grid(-20, 20, 2001))
        vg = build_volatility_grid(0.5, 2.0, 4)
        pair = ConjugatePair(F=make_conjugate_map(spec), domain=vg)
        b = GeneratorBundle(g=lambda t, x, y, z: 0.1 * y,
                            constants=GeneratorConstants(C=2.0, alpha=0.0, lam=0.0))
        rep = validate_assumptions(b, pair, vg, n_samples=60)
        assert rep["F_lipschitz"].passed

    def test_f_lipschitz_flagged_when_constant_too_small(self):
        L = 5.0
        h = lambda t, x, y, z, g: g**2 / 2 + L * y
        spec = HamiltonianSpec(h=h, gamma_domain=grid(-20, 20, 2001))
        vg = build_volatility_grid(0.5, 2.0, 2)
        pair = ConjugatePair(F=make_conjugate_map(spec), domain=vg)
        b = GeneratorBundle(g=lambda t, x, y, z: 0.1 * y,
                            constants=GeneratorConstants(C=0.01, alpha=0.0, lam=0.0))
        rep = validate_assumptions(b, pair, vg, n_samples=60)
        assert not rep["F_lipschitz"].passed
