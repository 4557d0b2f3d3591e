"""Experiment runner: executes configured problems, compares to oracles,
emits machine-readable CSV, and drives the randomized property suites.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .classical import SolverOptions, solve_regression, solve_tree
from .config import ExperimentConfig
from .doss import FlowCoefficient, build_y_lattice, solve_flow
from .errors import ConfigError
from .grids import BackwardPath, build_tree, sample_forward_ensemble
from .oracles import RandomPdeProblem, fd_random_pde
from .problems import ProblemDef, backward_path_for, get_problem, grid_from
from .reflected import solve_reflected
from .second_order import DpOptions, hamiltonian, lattice_bounds, minimality_gap, solve_dp

CSV_COLUMNS = ("quantity", "dt", "value", "oracle", "abs_error", "seed_w", "seed_b")


@dataclass
class RunRecord:
    config_hash: str
    problem: str
    backend: str
    dt: float
    seed_w: int
    seed_b: int
    quantities: dict                  # name -> value
    oracle: Optional[float]
    abs_error: Optional[float]
    tolerance_ok: Optional[bool]
    wall_time: float
    versions: dict = field(default_factory=dict)

    def csv_rows(self):
        rows = []
        for name, value in self.quantities.items():
            oracle = self.oracle if name == "y0" else None
            err = self.abs_error if name == "y0" else None
            rows.append((name, self.dt, value, oracle, err, self.seed_w, self.seed_b))
        return rows


def _fmt(value, precision):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.{precision}g}"


def write_csv(records, path_or_buffer, precision=17):
    buf = path_or_buffer if hasattr(path_or_buffer, "write") else io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        for row in rec.csv_rows():
            buf.write(",".join(_fmt(v, precision) for v in row) + "\n")
    if not hasattr(path_or_buffer, "write"):
        with open(path_or_buffer, "w") as fh:
            fh.write(buf.getvalue())


def _solve_paths(pdef: ProblemDef, cfg: ExperimentConfig, backend: str,
                 paths: list) -> tuple:
    """(quantities of path 0, y0 of every path) from one solve of all paths.

    dp solves the problem's equation; tree, mc and reflected solve its
    classical equation under the sole finite volatility; fd solves the PDE
    of its Hamiltonian on the dp lattice's domain.  The registry's FD
    problems carry no W, so fd solves its PDE once."""
    grid = paths[0].grid
    opts = SolverOptions(g_scheme=pdef.g_scheme)
    prob = pdef.equation(cfg)
    if backend in ("tree", "mc", "reflected"):
        a_vals = prob.finite_volatilities()
        if len(a_vals) != 1:
            raise ConfigError(f"backend {backend!r} needs one finite volatility, "
                              f"problem {pdef.name!r} has {len(a_vals)}")
        a = float(a_vals[0])
        classical = prob.classical_problem(a)
    if backend == "tree":
        sol = solve_tree(classical, build_tree(grid, a, x0=pdef.x0), paths, opts)
        out = {"y0": sol.y0, "residual_max": float(sol.residual.max(initial=0.0))}
    elif backend == "dp":
        dp_opts = DpOptions(x_steps=cfg.get("spatial", "x_steps"),
                            span_sigmas=cfg.get("spatial", "span_sigmas"),
                            g_scheme=pdef.g_scheme)
        sol = solve_dp(prob, grid, paths, x0=pdef.x0, opts=dp_opts)
        out = {"y0": sol.y0, "k_terminal": sol.K.k_terminal}
        if sol.backend == "lattice":
            a_high = float(np.max(sol.meta["a_values"]))
            frac = float(np.mean([np.mean(np.asarray(lv) == a_high)
                                  for lv in sol.argmax_a[:-1]]))
            out["argmax_high_frac"] = frac
            out["gap_min0"] = float(minimality_gap(prob, sol, paths[0])[0])
    elif backend == "mc":
        ens = sample_forward_ensemble(grid, cfg.get("mc", "n_paths"), a,
                                      seed=cfg.get("seeds", "b_seed"), x0=pdef.x0,
                                      workers=cfg.get("mc", "workers"))
        sol = solve_regression(classical, ens, paths, basis_degree=cfg.get("mc", "basis_degree"),
                               opts=opts)
        out = {"y0": sol.y0, "projection_rms_max": float(sol.projection_rms.max(initial=0.0))}
    elif backend == "reflected":
        sol = solve_reflected(classical, pdef.barrier(cfg), build_tree(grid, a, x0=pdef.x0),
                              paths, opts)
        out = {"y0": sol.y0, "k_terminal": float(sol.k_continuous[-1] + sol.k_jump[-1]),
               "skorokhod_sum": sol.skorokhod_sum}
    elif backend == "fd":
        domain = lattice_bounds(grid, prob.volgrid, pdef.x0, cfg.get("spatial", "span_sigmas"))
        pde = RandomPdeProblem(hhat_tilde=hamiltonian(prob), terminal=prob.terminal,
                               x_domain=domain)
        xs, v = fd_random_pde(pde, grid, cfg.get("spatial", "x_steps"))
        y0 = float(v[0, int(np.argmin(np.abs(xs - pdef.x0)))])
        return {"y0": y0}, [y0] * len(paths)
    else:
        raise ConfigError(f"unknown backend {backend!r}")
    return out, sol.y0_paths


def run(cfg: ExperimentConfig) -> RunRecord:
    """Execute one configured problem; compare to its oracle when it has one."""
    t_start = time.perf_counter()
    cfg.validate()
    pdef = get_problem(cfg.get("problem", "name"))
    backend = cfg.get("problem", "backend")
    if backend not in pdef.backends:
        raise ConfigError(
            f"problem {pdef.name!r} supports backends {pdef.backends}, not {backend!r}")
    grid = grid_from(cfg)
    w_seed = cfg.get("seeds", "w_seed")
    m = cfg.get("seeds", "w_ensemble")
    # path k of the W ensemble keeps seed w_seed + k; the record reports path 0
    paths = [backward_path_for(pdef, grid, w_seed + k) for k in range(m)]
    w = paths[0]
    quantities, y0s = _solve_paths(pdef, cfg, backend, paths)
    if m > 1:
        dev = np.asarray(y0s) - y0s[0]  # deviations from path 0: exactly 0 where paths agree
        quantities["y0_w_mean"] = float(y0s[0] + np.mean(dev))
        quantities["y0_w_std"] = float(np.std(dev, ddof=1))

    oracle = abs_error = tolerance_ok = None
    if pdef.oracle is not None:
        oracle = float(pdef.oracle(cfg, w))
        abs_error = abs(quantities["y0"] - oracle)
    tol = cfg.get("tolerances", "y0_rel")
    if tol is not None:
        if oracle is None:
            raise ConfigError(
                f"problem {pdef.name!r} declares no oracle; tolerance check refused")
        tolerance_ok = abs_error <= tol * max(abs(oracle), 1e-12)

    return RunRecord(config_hash=cfg.config_hash, problem=pdef.name, backend=backend,
                     dt=grid.dt, seed_w=w_seed, seed_b=cfg.get("seeds", "b_seed"),
                     quantities=quantities, oracle=oracle, abs_error=abs_error,
                     tolerance_ok=tolerance_ok,
                     wall_time=time.perf_counter() - t_start,
                     versions={"bdsde": __version__, "numpy": np.__version__})


@dataclass
class StudyResult:
    records: list
    fitted_order: Optional[float]


def convergence_study(cfg: ExperimentConfig, halvings: int = 3) -> StudyResult:
    """Repeat the run with dt halved per round; spatial resolution follows dt
    (lattice spacing proportional to the step) and path counts quadruple."""
    if halvings < 2:
        raise ConfigError("halvings must be >= 2")
    base_n = cfg.get("grid", "n_steps")
    base_x = cfg.get("spatial", "x_steps")
    base_paths = cfg.get("mc", "n_paths")
    records = []
    for k in range(halvings):
        level = ExperimentConfig(values={s: dict(v) for s, v in cfg.values.items()})
        level.set("grid", "n_steps", base_n * 2**k)
        level.set("spatial", "x_steps", base_x * 2**k)
        level.set("mc", "n_paths", base_paths * 4**k)
        records.append(run(level))

    order = None
    errs = np.array([r.abs_error if r.abs_error is not None else np.nan
                     for r in records])
    if np.all(np.isfinite(errs)) and np.all(errs > 1e-13):
        dts = np.array([r.dt for r in records])
        order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    return StudyResult(records=records, fitted_order=order)


def flow_order_study(halvings: int = 3, base_n: int = 32) -> StudyResult:
    """Convergence of the flow integrator on a smooth asymmetric driver."""
    from .grids import build_time_grid

    coef = FlowCoefficient(g=lambda t, x, y: 0.4 * np.sin(y) + 0.1 * np.cos(x))
    xs = np.linspace(-1.0, 1.0, 5)
    ys = build_y_lattice(-1.0, 1.0, 17)

    def driver(grid):
        t = grid.nodes
        vals = 0.3 * np.sin(2.3 * t + 0.7) + 0.15 * t * t
        return BackwardPath.from_values(grid, vals - vals[0])

    ref = solve_flow(coef, driver(build_time_grid(0, 1, 4096)), xs, ys)
    ref_val = ref.eval("eta", 0, np.array([0.0]), np.array([0.5]))[0]

    records = []
    errs, dts = [], []
    for k in range(halvings):
        n = base_n * 2**k
        grid = build_time_grid(0, 1, n)
        flow = solve_flow(coef, driver(grid), xs, ys)
        val = flow.eval("eta", 0, np.array([0.0]), np.array([0.5]))[0]
        err = abs(val - ref_val)
        errs.append(err)
        dts.append(grid.dt)
        records.append(RunRecord(
            config_hash="flow_roundtrip", problem="flow_roundtrip", backend="flow",
            dt=grid.dt, seed_w=-1, seed_b=-1, quantities={"y0": float(val)},
            oracle=float(ref_val), abs_error=float(err), tolerance_ok=None,
            wall_time=0.0))
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    return StudyResult(records=records, fitted_order=order)


# ---------------------------------------------------------------------------
# randomized property suites


@dataclass
class PropertyResult:
    name: str
    passed: bool
    n_instances: int
    violations: list

    def repro(self) -> str:
        return json.dumps(self.violations[:1], default=str)


def _suite_comparison(seed: int) -> PropertyResult:
    from .classical import BdsdeProblem, check_comparison
    from .grids import build_time_grid, sample_backward_path

    rng = np.random.default_rng(seed)
    violations = []
    n_inst = 100
    for k in range(n_inst):
        params = {"n": int(rng.integers(4, 10)), "a": float(rng.uniform(0.3, 2.5)),
                  "x0": float(rng.normal()), "w_seed": int(rng.integers(1 << 30)),
                  "c": float(rng.uniform(0.1, 0.6)), "bump": float(rng.uniform(0, 1)),
                  "shift": float(rng.uniform(0, 2))}
        grid = build_time_grid(0, 1, params["n"])
        tree = build_tree(grid, params["a"], x0=params["x0"])
        w = sample_backward_path(grid, 1, seed=params["w_seed"])
        f2 = lambda t, x, y, z, c=params["c"]: c * np.tanh(y)
        f1 = lambda t, x, y, z, f2=f2, b=params["bump"]: f2(t, x, y, z) + b
        g = lambda t, x, y, z: 0.3 * np.cos(y)
        p1 = BdsdeProblem(terminal=lambda x, s=params["shift"]: np.abs(x) + s,
                          f=f1, g=g, lipschitz_f=params["c"])
        p2 = BdsdeProblem(terminal=lambda x: np.abs(x), f=f2, g=g,
                          lipschitz_f=params["c"])
        s1, s2 = solve_tree(p1, tree, w), solve_tree(p2, tree, w)
        rep = check_comparison(s1, s2, p1, p2, tree, eps=1e-11)
        if not rep.ordered:
            violations.append({"instance": params, "margin": rep.worst_margin})
    return PropertyResult("comparison", not violations, n_inst, violations)


def _suite_minimality(seed: int) -> PropertyResult:
    from .grids import build_time_grid, build_volatility_grid, sample_backward_path
    from .second_order import TbdsdeProblem

    violations = []
    fz = lambda t, x, y, z, a: np.zeros_like(np.asarray(x, dtype=float))
    prob1 = TbdsdeProblem(terminal=lambda x: x**2, F=fz, g=lambda t, x, y, z: 0.0 * x,
                          volgrid=build_volatility_grid(1.0, 1.0, 1))
    grid = build_time_grid(0, 1, 16)
    w = sample_backward_path(grid, 1, seed=seed)
    sol = solve_dp(prob1, grid, w, x0=1.0)
    gap = minimality_gap(prob1, sol, w)
    if np.max(np.abs(gap)) > 1e-9:
        violations.append({"case": "singleton", "gap": float(np.max(np.abs(gap)))})

    prob2 = TbdsdeProblem(terminal=lambda x: x**2, F=fz, g=lambda t, x, y, z: 0.0 * x,
                          volgrid=build_volatility_grid(0.5, 2.0, 5))
    gaps = []
    for n, x_steps in ((16, 100), (32, 200)):
        grid = build_time_grid(0, 1, n)
        w = sample_backward_path(grid, 1, seed=seed)
        sol = solve_dp(prob2, grid, w, x0=1.0, opts=DpOptions(x_steps=x_steps))
        gaps.append(minimality_gap(prob2, sol, w)[0])
    if not (gaps[0] > 0 and 1.5 <= gaps[0] / gaps[1] <= 2.5):
        violations.append({"case": "halving", "gaps": gaps})
    return PropertyResult("minimality", not violations, 2, violations)


def _suite_doss_identities(seed: int) -> PropertyResult:
    from .doss import derivative_identity_report, invert_flow
    from .grids import build_time_grid, sample_backward_path

    grid = build_time_grid(0, 1, 48)
    w = sample_backward_path(grid, 1, seed=seed)
    beta = 0.5
    coef = FlowCoefficient(g=lambda t, x, y: beta * y,
                           g_y=lambda t, x, y: beta + 0.0 * np.asarray(y),
                           g_x=lambda t, x, y: 0.0 * np.asarray(y),
                           g_xx=lambda t, x, y: 0.0 * np.asarray(y),
                           g_xy=lambda t, x, y: 0.0 * np.asarray(y),
                           g_yy=lambda t, x, y: 0.0 * np.asarray(y))
    flow = solve_flow(coef, w, np.linspace(-2, 2, 9), build_y_lattice(-1.5, 1.5, 41),
                      y_core=(-1.5, 1.5))
    inv = invert_flow(flow)
    rep = derivative_identity_report(flow, inv, n_samples=300, seed=seed)
    bad = {k: v for k, v in rep.per_identity.items()
           if k != "chain_dx" and v > 1e-8}
    return PropertyResult("doss-identities", not bad, 300,
                          [{"identities": bad}] if bad else [])


def _suite_skorokhod(seed: int) -> PropertyResult:
    from .classical import BdsdeProblem
    from .grids import build_time_grid, sample_backward_path
    from .reflected import Barrier, skorokhod_diagnostic, solve_reflected

    grid = build_time_grid(0, 1, 16)
    tree = build_tree(grid, 1.0, x0=1.0)
    w = sample_backward_path(grid, 1, seed=seed)
    prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                        f=lambda t, x, y, z: -0.4 * y,
                        g=lambda t, x, y, z: 0.0 * x, lipschitz_f=0.4)
    bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
    sol = solve_reflected(prob, bar, tree, w)
    violations = []
    flat = abs(skorokhod_diagnostic(sol, bar, tree))
    if flat > 1e-10:
        violations.append({"case": "flat-off", "sum": flat})
    fake = [inc.copy() for inc in sol.k_increments]
    fake[2] = fake[2] + 1.0
    if skorokhod_diagnostic(sol, bar, tree, k_increments=fake) <= 0.0:
        violations.append({"case": "violation-not-detected"})
    return PropertyResult("skorokhod", not violations, 2, violations)


def _suite_conjugate_order(seed: int) -> PropertyResult:
    from .generators import HamiltonianSpec, fenchel_conjugate

    rng = np.random.default_rng(seed)
    gam = np.linspace(-8, 8, 801)
    violations = []
    n_inst = 100
    for k in range(n_inst):
        c = float(rng.uniform(0.1, 2.0))
        bump = float(rng.uniform(0.0, 1.5))
        a = float(rng.uniform(0.2, 3.0))
        s1 = HamiltonianSpec(h=lambda t, x, y, z, g, c=c: c * g**2 / 2, gamma_domain=gam)
        s2 = HamiltonianSpec(h=lambda t, x, y, z, g, c=c, b=bump: c * g**2 / 2 + b,
                             gamma_domain=gam)
        f1 = fenchel_conjugate(s1, (0, 0, 0, 0), a)
        f2 = fenchel_conjugate(s2, (0, 0, 0, 0), a)
        if f1 < f2 - 1e-12:
            violations.append({"c": c, "bump": bump, "a": a, "f1": f1, "f2": f2})
    return PropertyResult("conjugate-order", not violations, n_inst, violations)


def _suite_ito_product(seed: int) -> PropertyResult:
    from .grids import build_time_grid, sample_backward_path
    from .oracles import ItoProcess, ito_product_check

    violations = []
    res = []
    for n in (16, 64, 256):
        grid = build_time_grid(0, 1, n)
        ens = sample_forward_ensemble(grid, 2000, 1.0, seed=seed)
        w = sample_backward_path(grid, 1, seed=seed + 1)
        p = ItoProcess(beta=lambda t, b, wv: 1.0, gamma=lambda t, b, wv: 1.0)
        res.append(ito_product_check(p, p, ens, w).mean_abs_residual)
    if not (res[0] > res[2]):
        violations.append({"case": "no-decay", "residuals": res})
    grid = build_time_grid(0, 1, 256)
    ens = sample_forward_ensemble(grid, 500, 1.0, seed=seed)
    w = sample_backward_path(grid, 1, seed=seed + 1)
    p = ItoProcess(gamma=lambda t, b, wv: 1.0)
    good = ito_product_check(p, p, ens, w).mean_abs_residual
    bad = ito_product_check(p, p, ens, w, flip_backward_bracket=True).mean_abs_residual
    if bad < 10 * good:
        violations.append({"case": "sign-flip-not-detected", "good": good, "bad": bad})
    return PropertyResult("ito-product", not violations, 4, violations)


PROPERTY_SUITES = {
    "comparison": _suite_comparison,
    "minimality": _suite_minimality,
    "doss-identities": _suite_doss_identities,
    "skorokhod": _suite_skorokhod,
    "conjugate-order": _suite_conjugate_order,
    "ito-product": _suite_ito_product,
}


def property_suite(name: str, seed: int = 0) -> PropertyResult:
    if name not in PROPERTY_SUITES:
        raise ConfigError(f"unknown property suite {name!r}; "
                          f"choose from {sorted(PROPERTY_SUITES)}")
    return PROPERTY_SUITES[name](seed)
