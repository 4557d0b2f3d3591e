"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import io
import math
import time

import numpy as np
import pytest

from bdsde.classical import BdsdeProblem, solve_tree
from bdsde.config import ExperimentConfig
from bdsde.doss import (
    FlowCoefficient,
    build_y_lattice,
    solve_flow,
    transform_solution,
    transformed_generator,
    untransform_solution,
)
from bdsde.generators import HamiltonianSpec, make_conjugate_map, stratonovich_correction
from bdsde.grids import (
    build_time_grid,
    build_tree,
    build_volatility_grid,
    sample_backward_bridge,
    sample_backward_path,
    sample_forward_ensemble,
    subsample_path,
)
from bdsde.harness import property_suite, run, write_csv
from bdsde.oracles import (
    ItoProcess,
    RandomPdeProblem,
    fd_random_pde,
    ito_product_check,
    linear_spde_closed_form,
)
from bdsde.reflected import Barrier, solve_penalized
from bdsde.second_order import (DpOptions, TbdsdeProblem, extract_k, hamiltonian, minimality_gap,
                                 solve_dp)

FZERO = lambda t, x, y, z, a: np.zeros_like(np.asarray(x, dtype=float))
ZERO = lambda t, x, y, z: np.zeros_like(np.asarray(x, dtype=float))


def check(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:2d}] {status}  {desc}  {detail}")
    assert ok, f"criterion {num}: {desc} {detail}"


def bsb_problem(n_a=5):
    return TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO,
                         volgrid=build_volatility_grid(0.5, 2.0, n_a))


def test_criterion_01_classical_reduction():
    grid = build_time_grid(0, 1, 64)
    w = sample_backward_path(grid, seed=7)
    vg = build_volatility_grid(1.0, 1.0, 1)
    prob2 = TbdsdeProblem(terminal=lambda x: x**2,
                          F=lambda t, x, y, z, a: 0.5 * y,
                          g=lambda t, x, y, z: 0.3 * np.cos(y),
                          volgrid=vg, lipschitz_f=0.5)
    t0 = time.perf_counter()
    sol2 = solve_dp(prob2, grid, w, x0=1.0)
    elapsed = time.perf_counter() - t0
    tree = build_tree(grid, 1.0, x0=1.0)
    sol1 = solve_tree(prob2.classical_problem(1.0), tree, w)
    diff = max(float(np.max(np.abs(sol2.Y[i] - sol1.y[i]))) for i in range(65))
    k_T = extract_k(sol2, volatility=1.0).k_terminal
    check(1, "classical reduction (singleton grid, tree backend)",
          diff < 1e-10 and k_T < 1e-9 and elapsed < 1.0,
          f"nodewise diff={diff:.2e} K_T={k_T:.2e} time={elapsed:.3f}s")


def test_criterion_02_bsb_quadratic_oracle():
    prob = bsb_problem()
    errs = []
    t_ref = None
    for n, xs in [(32, 200), (64, 400), (128, 800)]:
        grid = build_time_grid(0, 1, n)
        w = sample_backward_path(grid, seed=1)
        t0 = time.perf_counter()
        sol = solve_dp(prob, grid, w, x0=1.0, opts=DpOptions(x_steps=xs))
        if n == 64:
            t_ref = time.perf_counter() - t0
            y064 = sol.y0
            frac = float(np.mean([np.mean(np.asarray(a) == 2.0)
                                  for a in sol.argmax_a[:-1]]))
        errs.append(abs(sol.y0 - 3.0))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = (abs(y064 - 3.0) <= 0.02 * 3.0 and 1.4 <= r1 <= 2.6 and 1.4 <= r2 <= 2.6
          and frac >= 0.99 and t_ref < 30.0)
    check(2, "uncertain-volatility quadratic oracle",
          ok, f"Y0={y064:.5f} ratios=({r1:.2f},{r2:.2f}) argmax_high={frac:.3f} "
              f"time={t_ref:.2f}s")


def test_criterion_03_flow_transform_roundtrip():
    beta = 0.5
    vg = build_volatility_grid(0.5, 2.0, 5)
    p_direct = stratonovich_correction(
        TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=lambda t, x, y, z: beta * y,
                      volgrid=vg, lipschitz_f=0.5 * beta**2, reading="stratonovich"),
        dy_g=lambda t, x, y, z: beta)
    grid = build_time_grid(0, 1, 64)
    w = sample_backward_path(grid, seed=2)
    oracle = math.exp(beta * float(w.tail_increment(0))) * 3.0

    sd = solve_dp(p_direct, grid, w, x0=1.0, opts=DpOptions(x_steps=400))
    xs = sd.meta["lattice"]
    y_lo = min(float(np.min(v)) for v in sd.Y) - 1.0
    y_hi = max(float(np.max(v)) for v in sd.Y) * 1.3 + 1.0
    coef = FlowCoefficient(g=lambda t, x, y: beta * y,
                           g_y=lambda t, x, y: beta + 0.0 * np.asarray(y),
                           g_x=lambda t, x, y: 0.0 * np.asarray(y),
                           g_xx=lambda t, x, y: 0.0 * np.asarray(y),
                           g_xy=lambda t, x, y: 0.0 * np.asarray(y),
                           g_yy=lambda t, x, y: 0.0 * np.asarray(y))
    flow = solve_flow(coef, w, xs, build_y_lattice(y_lo, y_hi, 201, pad=1.0),
                      y_core=(y_lo, y_hi))

    states = [xs for _ in range(65)]
    U, V, Kt = transform_solution(sd.Y, sd.Z, list(extract_k(sd, volatility=0.5).increments),
                                 flow, states)
    Y2, Z2, _ = untransform_solution(U, V, Kt, flow, states)
    rt = max(float(np.max(np.abs(Y2[i] - sd.Y[i]))) for i in range(65))

    # transformed noise-free problem: the generator is the flow transform of
    # the Stratonovich-form conjugate (identically zero for this family)
    ftil = transformed_generator(FZERO, flow)
    p_transf = TbdsdeProblem(
        terminal=lambda x: x**2,
        F=lambda t, x, y, z, a: -ftil(t, x, y, z, a),
        g=ZERO, volgrid=vg)
    st = solve_dp(p_transf, grid, w, x0=1.0, opts=DpOptions(x_steps=400))
    y_transf = float(flow.eval(["eta"], 0, np.array([1.0]), np.array([st.y0]))[0][0])

    measured = abs(sd.y0 - oracle)
    ok = rt < 1e-8 and abs(sd.y0 - y_transf) <= 3.0 * measured
    check(3, "flow transform: roundtrip and end-to-end agreement", ok,
          f"roundtrip={rt:.2e} direct={sd.y0:.5f} transformed={y_transf:.5f} "
          f"oracle={oracle:.5f} gap={abs(sd.y0 - y_transf):.3e} <= 3x{measured:.3e}")


def test_criterion_04_midpoint_vs_converted_endpoint():
    # midpoint discretization of the Stratonovich form against the
    # right-endpoint discretization of the converted form (realized bracket),
    # averaged over the driver ensemble: the gap closes at first order
    beta = 0.5
    g = lambda t, x, y, z: beta * y
    levels = (16, 32, 64)
    sums = {n: 0.0 for n in levels}
    n_seeds = 40
    for seed in range(n_seeds):
        fine = sample_backward_path(build_time_grid(0, 1, 64), seed=seed)
        for n in levels:
            w = subsample_path(fine, 64 // n)
            tree = build_tree(w.grid, 1.0, x0=1.0)
            bracket = lambda t, w=w: float(w.increments[w.grid.index(t)] ** 2) / w.grid.dt
            p_s = BdsdeProblem(terminal=lambda x: x**2, f=ZERO, g=g, reading="stratonovich")
            p_i = BdsdeProblem(
                terminal=lambda x: x**2,
                f=lambda t, x, y, z, br=bracket: 0.5 * beta**2 * y * br(t), g=g)
            sums[n] += abs(solve_tree(p_s, tree, w).y0 - solve_tree(p_i, tree, w).y0)
    means = np.array([sums[n] / n_seeds for n in levels])
    dts = np.array([1.0 / n for n in levels])
    c = float(np.sum(means * dts) / np.sum(dts * dts))
    # each halving of dt halves the mean gap, within 35%
    ratios = means[:-1] / means[1:]
    ok = (bool(np.all(means <= 1.5 * c * dts)) and means[0] > means[1] > means[2]
          and bool(np.all(np.abs(ratios - 2.0) <= 0.35 * 2.0)))
    check(4, "midpoint/endpoint discretizations differ within the O(dt) envelope",
          ok, f"mean gaps={np.round(means, 5).tolist()} envelope c={c:.4f} "
              f"ratios={np.round(ratios, 2).tolist()}")


def test_criterion_05_semilinear_noise_oracle():
    beta = 0.4
    grid = build_time_grid(0, 1, 64)
    w = sample_backward_bridge(grid, seed=5, total=0.25)
    oracle = float(np.asarray(linear_spde_closed_form(beta, [0, 0, 1.0], w, 0.0, 0.0)))
    assert oracle == pytest.approx(math.exp(0.1), rel=1e-12)

    # probabilistic route: midpoint scheme on the exact tree
    prob = BdsdeProblem(terminal=lambda x: x**2, f=ZERO, g=lambda t, x, y, z: beta * y,
                        reading="stratonovich")
    tree = build_tree(grid, 1.0, x0=0.0)
    y0 = solve_tree(prob, tree, w).y0
    solver_ok = abs(y0 - oracle) <= 0.02 * oracle

    # transformed-equation route: numeric flow + finite differences
    coef = FlowCoefficient(g=lambda t, x, y: beta * y,
                           g_y=lambda t, x, y: beta + 0.0 * np.asarray(y),
                           g_x=lambda t, x, y: 0.0 * np.asarray(y),
                           g_xx=lambda t, x, y: 0.0 * np.asarray(y),
                           g_xy=lambda t, x, y: 0.0 * np.asarray(y),
                           g_yy=lambda t, x, y: 0.0 * np.asarray(y))
    xs_dom = np.linspace(-6.0, 6.0, 61)
    flow = solve_flow(coef, w, xs_dom, build_y_lattice(-2.0, 45.0, 121, pad=1.0),
                      y_core=(-2.0, 45.0))
    ftil = transformed_generator(FZERO, flow)

    def hhat_tilde(t, x, y, z, gam):
        return 0.5 * gam - ftil(t, x, y, z, 1.0)

    pde = RandomPdeProblem(hhat_tilde=hhat_tilde, terminal=lambda x: x**2,
                           x_domain=(-6.0, 6.0))
    xs_fd, v0 = fd_random_pde(pde, grid, x_steps=60)
    i0 = int(np.argmin(np.abs(xs_fd)))
    u_fd = float(flow.eval(["eta"], 0, np.array([0.0]), np.array([v0[i0]]))[0][0])
    fd_ok = abs(u_fd - oracle) <= 0.02 * oracle
    check(5, "semilinear multiplicative-noise oracle (solver and FD routes)",
          solver_ok and fd_ok,
          f"solver={y0:.5f} fd={u_fd:.5f} oracle={oracle:.5f}")


def test_criterion_06_comparison_suites():
    res1 = property_suite("comparison", seed=17)

    # ordered second-order instances
    rng = np.random.default_rng(23)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(4, 9))
        grid = build_time_grid(0, 1, n)
        w = sample_backward_path(grid, seed=int(rng.integers(1 << 30)))
        vg = build_volatility_grid(float(rng.uniform(0.3, 1.0)),
                                   float(rng.uniform(1.0, 2.5)),
                                   int(rng.integers(2, 4)))
        c = float(rng.uniform(0.1, 0.5))
        bump = float(rng.uniform(0.0, 1.0))
        shift = float(rng.uniform(0.0, 2.0))
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
        if not all(np.all(s1.Y[i] >= s2.Y[i] - 1e-11) for i in range(n + 1)):
            violations += 1
    check(6, "comparison principles (100 + 100 ordered instances)",
          res1.passed and violations == 0,
          f"classical violations={len(res1.violations)} second-order={violations}")


def test_criterion_07_minimality_gap_decay():
    prob = bsb_problem()
    gaps = []
    for n, xs in [(16, 100), (32, 200), (64, 400)]:
        grid = build_time_grid(0, 1, n)
        w = sample_backward_path(grid, seed=1)
        sol = solve_dp(prob, grid, w, x0=1.0, opts=DpOptions(x_steps=xs))
        gaps.append(minimality_gap(sol))
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    ok = gaps[0] > 0 and 1.5 <= r1 <= 2.5 and 1.5 <= r2 <= 2.5
    check(7, "expected remaining compensator decays with dt", ok,
          f"gaps={np.round(gaps, 5).tolist()} ratios=({r1:.2f},{r2:.2f})")


def test_criterion_08_reflected_equation():
    grid = build_time_grid(0, 1, 64)
    tree = build_tree(grid, 1.0, x0=0.0)
    w = sample_backward_path(grid, seed=3)
    prob = BdsdeProblem(terminal=lambda x: 0.0 * x, f=ZERO, g=ZERO)
    bar = Barrier(fn=lambda t, x: np.where(t < 1.0 - 1e-12, 1.0, 0.0) + 0.0 * x)
    vals = [solve_penalized(prob, bar, n, tree, w).y0 for n in (1.0, 10.0, 100.0, 1000.0)]
    monotone = all(vals[i] <= vals[i + 1] + 1e-14 for i in range(3))
    snell_gap = abs(vals[-1] - 1.0)

    put = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                       f=lambda t, x, y, z: -0.4 * y, g=ZERO, lipschitz_f=0.4)
    put_bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
    sums = []
    for n in (16, 32, 64):
        g_n = build_time_grid(0, 1, n)
        tr = build_tree(g_n, 1.0, x0=1.0)
        wn = sample_backward_path(g_n, seed=3)
        sol = solve_penalized(put, put_bar, 4.0 * n, tr, wn)
        assert abs(sol.skorokhod_sum) < g_n.dt * 1.0
        sums.append(abs(sol.skorokhod_sum))
    r1, r2 = sums[0] / sums[1], sums[1] / sums[2]
    ok = monotone and snell_gap < 1e-3 and 1.4 <= r1 <= 2.6 and 1.4 <= r2 <= 2.6
    check(8, "reflected equation: penalization ladder, Snell gap, flat-off decay",
          ok, f"ladder={np.round(vals, 6).tolist()} snell_gap={snell_gap:.2e} "
              f"skorokhod ratios=({r1:.2f},{r2:.2f})")


def test_criterion_09_conjugate_layer():
    h = lambda t, x, y, z, g: np.maximum(g, 0.0) ** 2 / 2  # convex nondecreasing
    spec = HamiltonianSpec(h=h, gamma_domain=np.linspace(-30, 30, 4001))
    vg = build_volatility_grid(0.25, 8.0, 400)
    F_conj = make_conjugate_map(spec)
    h_hat = hamiltonian(TbdsdeProblem(terminal=lambda x: x**2,
                                      F=lambda t, x, y, z, a: -F_conj(t, x, y, z, a),
                                      g=ZERO, volgrid=vg))
    a_spacing = float(vg.a_values[1] - vg.a_values[0])
    g_spacing = 60.0 / 4000
    state = (0.0, 0.0, 0.0, 0.0)
    eq_ok = True
    for gamma in (0.3, 1.0, 2.5):
        tol = max(a_spacing, g_spacing) * max(gamma, 1.0)  # spacing x slope bound
        if abs(h_hat(*state, gamma) - h(0, 0, 0, 0, gamma)) > tol:
            eq_ok = False
    # the gamma-grid conjugation underestimates F, so domination holds up to
    # the same spacing-times-slope tolerance as the equality check
    below_ok = all(
        h_hat(*state, gm) <= h(0, 0, 0, 0, gm)
        + max(a_spacing, g_spacing) * max(abs(gm), 1.0)
        for gm in np.linspace(-3, 3, 25))
    order = property_suite("conjugate-order", seed=29)
    check(9, "conjugate layer: biconjugate identity, domination, order reversal",
          eq_ok and below_ok and order.passed,
          f"order violations={len(order.violations)}")


def test_criterion_10_product_formula_witness():
    res = []
    for n in (16, 64, 256):
        grid = build_time_grid(0, 1, n)
        ens = sample_forward_ensemble(grid, 4000, 1.0, seed=3)
        w = sample_backward_path(grid, seed=11)
        p = ItoProcess(beta=lambda t, b, wv: 1.0)
        res.append(ito_product_check(p, p, ens, w).mean_abs_residual)
    decays = res[0] > res[1] > res[2]

    grid = build_time_grid(0, 1, 256)
    ens = sample_forward_ensemble(grid, 500, 1.0, seed=3)
    w = sample_backward_path(grid, seed=11)
    pw = ItoProcess(gamma=lambda t, b, wv: 1.0)
    good = ito_product_check(pw, pw, ens, w).mean_abs_residual
    bad = ito_product_check(pw, pw, ens, w, flip_backward_bracket=True).mean_abs_residual
    check(10, "mixed product formula: residual decay and bracket-sign witness",
          decays and bad > 10 * good,
          f"residuals={np.round(res, 4).tolist()} flip={bad:.3f} vs correct={good:.5f}")


def test_criterion_11_determinism():
    def csv_bytes(workers):
        cfg = ExperimentConfig.from_defaults()
        cfg.set("problem", "name", "heat_quadratic")
        cfg.set("problem", "backend", "mc")
        cfg.set("grid", "n_steps", 8)
        cfg.set("mc", "n_paths", 20_000)
        cfg.set("mc", "workers", workers)
        buf = io.StringIO()
        write_csv([run(cfg)], buf)
        return buf.getvalue()

    one = csv_bytes(1)
    check(11, "byte-identical CSV across re-runs and worker counts",
          one == csv_bytes(4) and one == csv_bytes(1),
          f"{len(one)} bytes")
