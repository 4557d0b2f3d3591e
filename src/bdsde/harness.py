"""Experiment runner: executes configured problems, compares to oracles,
emits machine-readable CSV, and drives the randomized property suites.
"""

from __future__ import annotations

import io
import json
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from ._accel import linear_interp
from .classical import solve_regression, solve_tree
from .config import ExperimentConfig
from .doss import FlowCoefficient, build_y_lattice, solve_flow
from .errors import ConfigError
from .grids import (BackwardPath, build_time_grid, build_tree, sample_forward_ensemble,
                    subsample_path)
from .oracles import RandomPdeProblem, fd_random_pde
from .problems import FZERO, ZERO, ProblemDef, backward_path_for, get_problem, grid_from
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


def _solve_paths(pdef: ProblemDef, prob, cfg: ExperimentConfig, backend: str,
                 paths: list) -> tuple:
    """(quantities of path 0, y0 of every path) from one solve of all paths.

    dp solves prob, pdef's equation; tree, mc and reflected solve its
    classical equation under the sole finite volatility; fd solves the PDE
    of its Hamiltonian on the dp lattice's domain, reading y0 at x0 as dp
    does.  The registry's FD problems carry no W, so fd solves its PDE once."""
    grid = paths[0].grid
    if backend in ("tree", "mc", "reflected"):
        a_vals = prob.finite_volatilities()
        if len(a_vals) != 1:
            raise ConfigError(f"backend {backend!r} needs one finite volatility, "
                              f"problem {pdef.name!r} has {len(a_vals)}")
        a = float(a_vals[0])
        classical = prob.classical_problem(a)
    if backend == "tree":
        sol = solve_tree(classical, build_tree(grid, a, x0=pdef.x0), paths)
        out = {"y0": sol.y0, "residual_max": float(sol.residual.max(initial=0.0))}
    elif backend == "dp":
        dp_opts = DpOptions(x_steps=cfg.get("spatial", "x_steps"),
                            span_sigmas=cfg.get("spatial", "span_sigmas"))
        sol = solve_dp(prob, grid, paths, x0=pdef.x0, opts=dp_opts)
        # the compensator under the per-node argmax control vanishes by construction:
        # the value is that control's own step
        out = {"y0": sol.y0, "k_terminal": 0.0}
        if sol.backend == "lattice":
            a_high = float(np.max(sol.meta["a_values"]))
            frac = float(np.mean([np.mean(np.asarray(lv) == a_high)
                                  for lv in sol.argmax_a[:-1]]))
            out["argmax_high_frac"] = frac
            out["gap_min0"] = minimality_gap(sol)
    elif backend == "mc":
        ens = sample_forward_ensemble(grid, cfg.get("mc", "n_paths"), a,
                                      seed=cfg.get("seeds", "b_seed"), x0=pdef.x0,
                                      workers=cfg.get("mc", "workers"))
        sol = solve_regression(classical, ens, paths, basis_degree=cfg.get("mc", "basis_degree"))
        out = {"y0": sol.y0, "projection_rms_max": float(sol.projection_rms.max(initial=0.0))}
    elif backend == "reflected":
        sol = solve_reflected(classical, pdef.barrier(grid), build_tree(grid, a, x0=pdef.x0), paths)
        out = {"y0": sol.y0, "k_terminal": sol.k.k_terminal, "skorokhod_sum": sol.skorokhod_sum}
    elif backend == "fd":
        domain = lattice_bounds(grid, prob.volgrid, pdef.x0, cfg.get("spatial", "span_sigmas"))
        pde = RandomPdeProblem(hhat_tilde=hamiltonian(prob), terminal=prob.terminal,
                               x_domain=domain)
        xs, v0 = fd_random_pde(pde, grid, cfg.get("spatial", "x_steps"))
        y0 = float(linear_interp(np.array([pdef.x0]), xs, v0)[0])
        return {"y0": y0}, [y0] * len(paths)
    else:
        raise ConfigError(f"unknown backend {backend!r}")
    return out, sol.y0_paths


def run(cfg: ExperimentConfig, paths: Optional[list] = None) -> RunRecord:
    """Execute one configured problem on the W ensemble paths (by default path k
    sampled with seed w_seed + k); compare to its oracle when it has one."""
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
    if paths is None:  # path k of the W ensemble keeps seed w_seed + k
        paths = [backward_path_for(pdef, grid, w_seed + k) for k in range(m)]
    w = paths[0]  # the record reports path 0
    prob = pdef.equation(cfg)
    quantities, y0s = _solve_paths(pdef, prob, cfg, backend, paths)
    if m > 1:
        dev = np.asarray(y0s) - y0s[0]  # deviations from path 0: exactly 0 where paths agree
        quantities["y0_w_mean"] = float(y0s[0] + np.mean(dev))
        quantities["y0_w_std"] = float(np.std(dev, ddof=1))

    oracle = abs_error = tolerance_ok = None
    if pdef.oracle is not None:
        oracle = float(pdef.oracle(prob, w, pdef.x0))
        abs_error = abs(quantities["y0"] - oracle)
    tol = cfg.get("tolerances", "y0_rel")
    if tol is not None:
        if oracle is None:
            raise ConfigError(
                f"problem {pdef.name!r} declares no oracle; tolerance check refused")
        tolerance_ok = abs_error <= tol * max(abs(oracle), 1e-12)

    return RunRecord(config_hash=cfg.config_hash, problem=pdef.name, backend=backend,
                     dt=w.grid.dt, seed_w=w_seed, seed_b=cfg.get("seeds", "b_seed"),
                     quantities=quantities, oracle=oracle, abs_error=abs_error,
                     tolerance_ok=tolerance_ok,
                     wall_time=time.perf_counter() - t_start,
                     versions={"bdsde": __version__, "numpy": np.__version__})


@dataclass
class StudyResult:
    records: list
    fitted_order: Optional[float]
    no_order: str = ""                # why fitted_order is None


def _study(records) -> StudyResult:
    """records with the slope of log error on log dt, fitted only if every
    level's error is above 1e-13 and below the previous level's."""
    errs = np.array([np.nan if r.abs_error is None else r.abs_error for r in records])
    why = ("no oracle" if not np.all(np.isfinite(errs)) else
           "an error is at rounding level (<= 1e-13)" if not np.all(errs > 1e-13) else
           "the error does not fall at every level" if not np.all(np.diff(errs) < 0) else "")
    order = None if why else float(np.polyfit(np.log([r.dt for r in records]), np.log(errs), 1)[0])
    return StudyResult(records=records, fitted_order=order, no_order=why)


def _halvings(halvings) -> int:
    """halvings as an int, or ConfigError naming it unless it is an integral number >= 2."""
    if not (isinstance(halvings, numbers.Real) and float(halvings).is_integer()):
        raise ConfigError(f"halvings must be an integer, got {halvings!r}")
    if halvings < 2:
        raise ConfigError(f"halvings must be >= 2, got {halvings!r}")
    return int(halvings)


def convergence_study(cfg: ExperimentConfig, halvings: int = 3) -> StudyResult:
    """Repeat the run with dt halved per round; spatial resolution follows dt
    (lattice spacing proportional to the step) and path counts quadruple.
    Each W seed's path is sampled once, on the finest round's grid, and every
    round solves its restriction: the rounds refine one driver.

    The fd backend's explicit step needs 2 D dt <= dx^2, so there each round
    quarters dt while x_steps doubles: every round keeps round 0's dt / dx^2,
    and so its stability margin."""
    halvings = _halvings(halvings)
    cfg.validate()
    refine = 4 if cfg.get("problem", "backend") == "fd" else 2
    levels = []
    for k in range(halvings):
        level = ExperimentConfig(values={s: dict(v) for s, v in cfg.values.items()})
        level.set("grid", "n_steps", cfg.get("grid", "n_steps") * refine**k)
        level.set("spatial", "x_steps", cfg.get("spatial", "x_steps") * 2**k)
        level.set("mc", "n_paths", cfg.get("mc", "n_paths") * 4**k)
        levels.append(level)
    pdef, w_seed = get_problem(cfg.get("problem", "name")), cfg.get("seeds", "w_seed")
    finest = [backward_path_for(pdef, grid_from(levels[-1]), w_seed + k)
              for k in range(cfg.get("seeds", "w_ensemble"))]
    records = [run(level, [subsample_path(w, refine ** (halvings - 1 - k)) for w in finest])
               for k, level in enumerate(levels)]
    return _study(records)


def _flow_eta0(n: int, straight: bool = False) -> float:
    """eta(0, 0, 0.5) of the flow study's flow along its driver W on n steps,
    or along n equal steps from 0 to W_T - W_0 if straight."""
    grid = build_time_grid(0, 1, n)
    t = grid.nodes
    w = 0.3 * np.sin(2.3 * t + 0.7) + 0.15 * t * t
    w = np.linspace(0.0, w[-1] - w[0], n + 1) if straight else w - w[0]
    coef = FlowCoefficient(g=lambda t, x, y: 0.4 * np.sin(y) + 0.1 * np.cos(x))
    flow = solve_flow(coef, BackwardPath(grid, w),
                      np.linspace(-1.0, 1.0, 5), build_y_lattice(-1.0, 1.0, 17))
    return flow.eval(("eta",), 0, np.array([0.0]), np.array([0.5]))[0][0]


def flow_order_study(halvings: int = 3, base_n: int = 32) -> StudyResult:
    """Convergence of the flow integrator on a smooth asymmetric driver.

    The oracle is the exact flow.  g = 0.4 sin y + 0.1 cos x does not depend
    on t, so d eta = g(x, eta) o dW is an ODE in the driver's value and
    eta(0) depends on W only through W_T - W_0: every path with those end
    points has the same limit.  On 64 equal steps of the straight path the
    integrator's O(h^2) error is at rounding level (6e-16 from 256 steps).
    """
    halvings = _halvings(halvings)
    ref_val = _flow_eta0(64, straight=True)
    records = []
    for k in range(halvings):
        grid = build_time_grid(0, 1, base_n * 2**k)
        val = _flow_eta0(grid.n_steps)
        records.append(RunRecord(
            config_hash="flow_roundtrip", problem="flow_roundtrip", backend="flow",
            dt=grid.dt, seed_w=-1, seed_b=-1, quantities={"y0": float(val)},
            oracle=float(ref_val), abs_error=float(abs(val - ref_val)), tolerance_ok=None,
            wall_time=0.0))
    return _study(records)


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
    from .grids import sample_backward_path

    rng = np.random.default_rng(seed)
    violations = []
    n_inst = 100
    for k in range(n_inst):
        params = {"n": int(rng.integers(4, 10)), "a": float(rng.uniform(0.3, 2.5)),
                  "x0": float(rng.normal()), "w_seed": int(rng.integers(1 << 30)),
                  "c": float(rng.uniform(0.1, 0.6)), "bump": float(rng.random()),
                  "shift": float(rng.uniform(0, 2))}
        grid = build_time_grid(0, 1, params["n"])
        tree = build_tree(grid, params["a"], x0=params["x0"])
        w = sample_backward_path(grid, seed=params["w_seed"])
        f2 = lambda t, x, y, z, c=params["c"]: c * np.tanh(y)
        f1 = lambda t, x, y, z, f2=f2, b=params["bump"]: f2(t, x, y, z) + b
        g = lambda t, x, y, z: 0.3 * np.cos(y)
        p1 = BdsdeProblem(terminal=lambda x, s=params["shift"]: np.abs(x) + s,
                          f=f1, g=g, lipschitz_f=params["c"])
        p2 = BdsdeProblem(terminal=lambda x: np.abs(x), f=f2, g=g,
                          lipschitz_f=params["c"])
        s1, s2 = solve_tree(p1, tree, w), solve_tree(p2, tree, w)
        rep = check_comparison(s1, s2, eps=1e-11)
        if not rep.ordered:
            violations.append({"instance": params, "margin": rep.worst_margin})
    return PropertyResult("comparison", not violations, n_inst, violations)


def _suite_minimality(seed: int) -> PropertyResult:
    from .grids import build_volatility_grid, sample_backward_path
    from .second_order import TbdsdeProblem

    violations = []
    prob1 = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO,
                          volgrid=build_volatility_grid(1.0, 1.0, 1))
    grid = build_time_grid(0, 1, 16)
    w = sample_backward_path(grid, seed=seed)
    gap = minimality_gap(solve_dp(prob1, grid, w, x0=1.0))
    if gap != 0.0:
        violations.append({"case": "singleton", "gap": gap})

    prob2 = TbdsdeProblem(terminal=lambda x: x**2, F=FZERO, g=ZERO,
                          volgrid=build_volatility_grid(0.5, 2.0, 5))
    gaps = []
    for n, x_steps in ((16, 100), (32, 200)):
        grid = build_time_grid(0, 1, n)
        w = sample_backward_path(grid, seed=seed)
        gaps.append(minimality_gap(solve_dp(prob2, grid, w, x0=1.0,
                                            opts=DpOptions(x_steps=x_steps))))
    if not (gaps[0] > 0 and 1.5 <= gaps[0] / gaps[1] <= 2.5):
        violations.append({"case": "halving", "gaps": gaps})
    return PropertyResult("minimality", not violations, 2, violations)


def _suite_doss_identities(seed: int) -> PropertyResult:
    from .doss import derivative_identity_report, invert_flow
    from .grids import sample_backward_path

    grid = build_time_grid(0, 1, 48)
    w = sample_backward_path(grid, seed=seed)
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
    from .grids import sample_backward_path
    from .reflected import Barrier, skorokhod_diagnostic, solve_reflected

    grid = build_time_grid(0, 1, 16)
    tree = build_tree(grid, 1.0, x0=1.0)
    w = sample_backward_path(grid, seed=seed)
    prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                        f=lambda t, x, y, z: -0.4 * y,
                        g=lambda t, x, y, z: 0.0 * x, lipschitz_f=0.4)
    bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
    sol = solve_reflected(prob, bar, tree, w)
    violations = []
    flat = abs(skorokhod_diagnostic(sol))
    if flat > 1e-10:
        violations.append({"case": "flat-off", "sum": flat})
    fake = [inc.copy() for inc in sol.k.increments]
    fake[2] = fake[2] + 1.0
    if skorokhod_diagnostic(sol, k_increments=fake) <= 0.0:
        violations.append({"case": "violation-not-detected"})
    return PropertyResult("skorokhod", not violations, 2, violations)


def _suite_conjugate_order(seed: int) -> PropertyResult:
    from .generators import HamiltonianSpec, make_conjugate_map

    # instance k draws (c, bump, a): h1 = c g^2 / 2 <= h2 = h1 + bump, conjugated at a
    # in one call per Hamiltonian, with c and bump riding in the x and y slots
    n_inst = 100
    c, bump, a = np.random.default_rng(seed).uniform([0.1, 0.0, 0.2], [2.0, 1.5, 3.0],
                                                     (n_inst, 3)).T
    gam, h1 = np.linspace(-8, 8, 801), lambda t, x, y, z, g: x * g**2 / 2
    f1, f2 = (make_conjugate_map(HamiltonianSpec(h=h, gamma_domain=gam))(0.0, c, bump, 0.0, a)
              for h in (h1, lambda t, x, y, z, g: h1(t, x, y, z, g) + y))
    violations = [{"c": c[k], "bump": bump[k], "a": a[k], "f1": f1[k], "f2": f2[k]}
                  for k in np.flatnonzero(f1 < f2 - 1e-12).tolist()]
    return PropertyResult("conjugate-order", not violations, n_inst, violations)


def _suite_ito_product(seed: int) -> PropertyResult:
    from .grids import sample_backward_path
    from .oracles import ItoProcess, ito_product_check

    violations = []
    res = []
    for n in (16, 64, 256):
        grid = build_time_grid(0, 1, n)
        ens = sample_forward_ensemble(grid, 2000, 1.0, seed=seed)
        w = sample_backward_path(grid, seed=seed + 1)
        p = ItoProcess(beta=lambda t, b, wv: 1.0, gamma=lambda t, b, wv: 1.0)
        res.append(ito_product_check(p, p, ens, w).mean_abs_residual)
    if not (res[0] > res[2]):
        violations.append({"case": "no-decay", "residuals": res})
    grid = build_time_grid(0, 1, 256)
    ens = sample_forward_ensemble(grid, 500, 1.0, seed=seed)
    w = sample_backward_path(grid, seed=seed + 1)
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
