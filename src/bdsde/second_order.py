"""Uncertain-volatility backward solver: per-step supremum over a volatility grid.

The backend follows from the volatilities where the generator is finite.
With several, the value is propagated backward on a shared spatial lattice;
under each admissible volatility the one-step conditional expectation is
the exact Gaussian integral of the piecewise-linear continuation (see
_accel), the control gets the per-node argmax with ties resolved toward the
smallest volatility, and the nondecreasing compensator K is diagnosed as
the defect of the value against each fixed-volatility one-step operator.

With one, the equation is the classical one and K vanishes: it is solved on
that volatility's exact tree, nodewise equal to the classical solver.
Either backend sweeps several frozen backward paths at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._accel import GaussWindow, linear_interp, pl_gauss_moments
from .classical import BdsdeProblem, SolverOptions, backward_step, backward_sweep, solve_tree
from .errors import ConsistencyError, InvalidArgumentError, VerificationError
from .generators import g_dot
from .grids import (
    BackwardPath,
    PathEnsemble,
    TimeGrid,
    VolatilityGrid,
    build_tree,
)


@dataclass(frozen=True)
class TbdsdeProblem:
    """Terminal data, per-volatility generator, and the admissible grid.

    The problem denotes the equation that `solve_dp` solves, whose Markovian
    value solves -u_t = H(t, x, u, Du, D^2 u) with the Hamiltonian

        H(t, x, y, z, gamma) = max over finite volatilities a of a gamma / 2 + F(t, x, y, z, a)

    (`hamiltonian`): F enters with a plus sign.  A single finite volatility
    is the classical equation with generator F(., a) (`classical_problem`).
    A problem built from a conjugate-layer Hamiltonian h takes
    F = -generators.make_conjugate_map(spec).
    """

    terminal: Callable                 # x array -> xi array
    F: Callable                        # (t, x, y, z, a) -> array
    g: Callable                        # (t, x, y, z) -> array
    volgrid: VolatilityGrid
    lipschitz_f: Optional[float] = None

    def classical_problem(self, a: float) -> BdsdeProblem:
        return BdsdeProblem(terminal=self.terminal,
                            f=lambda t, x, y, z: self.F(t, x, y, z, a),
                            g=self.g, lipschitz_f=self.lipschitz_f)

    def finite_volatilities(self) -> np.ndarray:
        """Volatilities where the generator is finite at a probe point."""
        keep = []
        for a in self.volgrid:
            probe = float(np.asarray(self.F(0.0, np.zeros(1), 0.0, 0.0, float(a))).reshape(-1)[0])
            if math.isfinite(probe):
                keep.append(float(a))
        if not keep:
            raise InvalidArgumentError("generator infinite on the entire volatility grid")
        return np.asarray(keep)


@dataclass(frozen=True)
class DpOptions(SolverOptions):
    """Lattice options of `solve_dp`.

    x_steps is the number of lattice cells.  Each backward step adds the
    piecewise-linear interpolation bias of the value, h^2 / 6 for quadratic
    data with cell width h, so at a fixed x_steps the error grows linearly
    in the number of steps: x_steps should grow at least like sqrt(n).
    """

    x_steps: int = 400
    span_sigmas: float = 6.0


@dataclass
class KTrace:
    increments: np.ndarray          # (n_steps, n_nodes) nonnegative defects
    expected_cumulative: np.ndarray  # (n_steps + 1,) forward-law expectation
    clamped: int
    volatility: Optional[float]     # None = per-node argmax

    @property
    def k_terminal(self) -> float:
        return float(self.expected_cumulative[-1])


@dataclass
class TbdsdeSolution:
    Y: list
    Z: list
    argmax_a: list
    K: KTrace
    residual: np.ndarray
    y0: float
    y0_paths: np.ndarray            # every backward path's y0, in order
    meta: dict = field(default_factory=dict)

    @property
    def backend(self) -> str:
        return self.meta.get("backend", "lattice")


def hamiltonian(problem: TbdsdeProblem) -> Callable:
    """(t, x, y, z, gamma) -> max over the finite volatilities a of
    a gamma / 2 + F(t, x, y, z, a): the Hamiltonian of the problem's PDE.
    The volatilities are fixed when it is built."""
    a_vals = [float(a) for a in problem.finite_volatilities()]

    def h(t, x, y, z, gamma):
        best = None
        for a in a_vals:
            cand = 0.5 * a * gamma + np.asarray(problem.F(t, x, y, z, a), dtype=float)
            best = cand if best is None else np.maximum(best, cand)
        return best
    return h


def lattice_bounds(grid: TimeGrid, volgrid: VolatilityGrid, x0: float,
                   span_sigmas: float) -> tuple:
    """(lo, hi) of the spatial domain: span_sigmas standard deviations of the
    highest volatility over the horizon on either side of x0."""
    reach = span_sigmas * math.sqrt(volgrid.a_high * (grid.horizon - grid.t0))
    return x0 - reach, x0 + reach


def lattice_cond(xs: np.ndarray, a: float, dt: float) -> Callable:
    """One-step moments R -> (E[R], E[R dX] / (a dt)) on the lattice under volatility a.

    The step's Gaussian window is built here, once, and every call applies
    it to R: one row, or a stack of rows with paths as the leading axis."""
    window = GaussWindow(xs, xs, math.sqrt(a * dt))

    def cond(r):
        m0, m1 = window.apply(r)
        return m0, m1 / (a * dt)
    return cond


def solve_dp(problem: TbdsdeProblem, grid: TimeGrid, w: BackwardPath | list,
             x0: float = 0.0, opts: DpOptions = DpOptions()) -> TbdsdeSolution:
    """Backward induction with a per-step, per-node supremum over volatilities.

    A single finite volatility is solved on its exact tree (sol.backend
    "tree"); several share the lattice ("lattice"), where each step of the
    `backward_sweep` keeps the per-node argmax of every volatility's step.
    w is one BackwardPath or a list of paths on grid, swept together; the
    solution is path 0's (Y, Z, argmax, K and residual as if solved alone)
    and y0_paths holds every path's y0, each equal to its own solve.
    """
    a_vals = problem.finite_volatilities()
    if len(a_vals) == 1:
        return _solve_dp_tree(problem, grid, w, x0, opts, a_vals)
    n, dt = grid.n_steps, grid.dt
    xs = np.linspace(*lattice_bounds(grid, problem.volgrid, x0, opts.span_sigmas),
                     opts.x_steps + 1)
    problems = [problem.classical_problem(float(a)) for a in a_vals]
    conds = [lattice_cond(xs, float(a), dt) for a in a_vals]
    y_T = np.asarray(problem.terminal(xs), dtype=float)
    phantom = np.array([cond(y_T)[1] for cond in conds])   # z_T under each volatility

    def step(i, y_next, z_next, w):
        # one (y, z, iters, defect) per volatility, each (volatility, [path,] node)
        y, z, iters, defect, _ = zip(*(
            backward_step(problems[k], conds[k], lambda _: xs, i, grid, y_next,
                          z_next[k] if i == n - 1 else z_next, w, float(a), opts)
            for k, a in enumerate(a_vals)))
        cands = np.array(y)
        best = np.argmax(cands, axis=0)  # first max = smallest volatility on ties
        return (np.take_along_axis(cands, best[None], axis=0)[0],
                np.take_along_axis(np.array(z), best[None], axis=0)[0],
                np.maximum.reduce(iters), np.maximum.reduce(defect), best)

    Y, Z, residual, _, best, level0 = backward_sweep(problem, grid, w, y_T, phantom, step)
    # level n takes the control, and so the z_T, of the first step's argmax
    argmax = [a_vals[b] for b in best + best[-1:]]
    Z[n] = np.take_along_axis(phantom, best[-1][None], axis=0)[0]
    # Y[i] is its node's argmax candidate cands[best], so the defect of the
    # value against the step under the argmax control vanishes identically
    k_argmax = KTrace(increments=np.zeros((n, len(xs))), expected_cumulative=np.zeros(n + 1),
                      clamped=0, volatility=None)
    y0_paths = linear_interp(np.array([x0]), xs, level0).reshape(-1)
    return TbdsdeSolution(Y=Y, Z=Z, argmax_a=argmax, K=k_argmax, residual=residual,
                          y0=float(y0_paths[0]), y0_paths=y0_paths,
                          meta={"backend": "lattice", "lattice": xs, "x0": x0,
                                "grid": grid, "a_values": a_vals, "opts": opts})


def _solve_dp_tree(problem, grid, w, x0, opts, a_vals):
    """Singleton-volatility exact backend; coincides with the classical solver."""
    a = float(a_vals[0])
    tree = build_tree(grid, a, x0=x0)
    base = solve_tree(problem.classical_problem(a), tree, w, opts)
    n = grid.n_steps
    argmax = [np.full(tree.n_nodes(i), a) for i in range(n + 1)]
    # the value is the sole control's own step, so its compensator vanishes
    k_sole = KTrace(increments=np.zeros((n, tree.n_nodes(n - 1))),
                    expected_cumulative=np.zeros(n + 1), clamped=0, volatility=a)
    return TbdsdeSolution(Y=base.y, Z=base.z, argmax_a=argmax, K=k_sole,
                          residual=base.residual, y0=base.y0, y0_paths=base.y0_paths,
                          meta={"backend": "tree", "tree": tree, "x0": x0,
                                "grid": grid, "a_values": a_vals, "opts": opts})


def _value_at(sol: TbdsdeSolution, i: int, x: np.ndarray) -> np.ndarray:
    """Solution value Y_i evaluated at arbitrary states."""
    if sol.backend == "tree":
        tree = sol.meta["tree"]
        return linear_interp(x, tree.states(i), sol.Y[i]) if i > 0 else \
            np.full_like(np.asarray(x, dtype=float), sol.Y[0][0])
    return linear_interp(x, sol.meta["lattice"], sol.Y[i])


def extract_k(sol: TbdsdeSolution, problem: TbdsdeProblem, w: BackwardPath,
              volatility: Optional[float] = None) -> KTrace:
    """Per-step defect of the value against the one-step operator of a control.

    volatility None returns the solve's own compensator, under each node's
    argmax control (where it vanishes: the value is that control's step).
    A tree solution holds one volatility, whose compensator that is; any
    other volatility raises InvalidArgumentError.  On the lattice a fixed
    volatility gives the compensator seen under that constant control, with
    the cumulative trace integrated against its forward law from x0.  The
    step runs under the solve's own options, on a w of the solve's grid.
    """
    w.require_grid(sol.meta["grid"])
    if volatility is None:
        return sol.K
    if sol.backend == "tree":
        if float(volatility) != sol.K.volatility:
            raise InvalidArgumentError(
                f"volatility {volatility} is foreign to a tree solution at {sol.K.volatility}")
        return sol.K
    grid, x0, opts, xs = sol.meta["grid"], sol.meta["x0"], sol.meta["opts"], sol.meta["lattice"]
    n = grid.n_steps
    a = float(volatility)
    cond = lattice_cond(xs, a, grid.dt)
    step_problem = problem.classical_problem(a)
    scale = 1.0 + max(abs(float(np.max(v))) for v in sol.Y)
    eps = 1e-9 * scale

    incs = [None] * n
    clamped = 0
    for i in range(n - 1, -1, -1):
        cand = backward_step(step_problem, cond, lambda _: xs, i, grid, sol.Y[i + 1],
                             sol.Z[i + 1], w, a, opts)[0]
        delta = sol.Y[i] - cand
        if float(delta.min()) < -10 * eps:
            raise ConsistencyError(
                f"compensator increment {delta.min():.3e} below -10 eps at step {i}")
        clamped += int(np.sum(delta < 0))
        incs[i] = np.maximum(delta, 0.0)

    cum = np.zeros(n + 1)
    for i in range(n):
        t_i = grid.time(i) - grid.t0
        if t_i <= 0:
            e_i = float(linear_interp(np.array([x0]), xs, incs[i])[0])
        else:
            e_i = float(pl_gauss_moments(xs, incs[i], np.array([x0]),
                                         math.sqrt(a * t_i))[0][0])
        cum[i + 1] = cum[i] + e_i
    return KTrace(increments=np.array(incs), expected_cumulative=cum, clamped=clamped,
                  volatility=a)


def _constant_control_solves(problem: TbdsdeProblem, sol: TbdsdeSolution,
                             w: BackwardPath):
    """(a, tree, levels) per finite volatility: the constant-control classical
    solve on a's exact tree, under the solve's grid, x0 and options.  A tree
    solution is that solve for its sole volatility, so its levels are reused."""
    if sol.backend == "tree":
        yield sol.K.volatility, sol.meta["tree"], sol.Y
        return
    grid, x0, opts = sol.meta["grid"], sol.meta["x0"], sol.meta["opts"]
    for a in problem.finite_volatilities():
        tree = build_tree(grid, float(a), x0=x0)
        yield float(a), tree, solve_tree(problem.classical_problem(float(a)), tree, w, opts).y


def minimality_gap(problem: TbdsdeProblem, sol: TbdsdeSolution,
                   w: BackwardPath) -> np.ndarray:
    """Per-step min over constant controls of the expected remaining compensator.

    Under a constant control the remaining compensator from t_i is, through
    the equation itself, the gap between the value and the constant-control
    solution restarted from the terminal data; that solution is computed on
    the control's exact tree and the gap is integrated against the tree's
    forward law.  Vanishes at O(dt) for problems whose optimal control is a
    constant element of the grid.  The constant-control solves run under
    the solve's own options, on w, the path sol was solved on (path 0 of a
    batch).
    """
    gaps = []
    for _, tree, ya in _constant_control_solves(problem, sol, w):
        probs = tree.level_probabilities()
        gaps.append([float(np.dot(probs[i], _value_at(sol, i, tree.states(i)) - ya[i]))
                     for i in range(len(probs))])
    return np.min(gaps, axis=0)


@dataclass
class RepresentationReport:
    y0_dp: float
    best_constant: float
    best_a: float
    surplus: float
    per_a: dict


def representation_check(problem: TbdsdeProblem, grid: TimeGrid, w: BackwardPath,
                         x0: float = 0.0, opts: DpOptions = DpOptions(),
                         eps: Optional[float] = None) -> RepresentationReport:
    """Value at the root dominates every constant-control value.

    The value comes from solve_dp, so its backend follows from the finite
    volatilities; each constant-control value from that volatility's tree.
    """
    sol = solve_dp(problem, grid, w, x0=x0, opts=opts)
    per_a = {a: float(ya[0][0]) for a, _, ya in _constant_control_solves(problem, sol, w)}
    best_a = max(per_a, key=per_a.get)
    best = per_a[best_a]
    surplus = sol.y0 - best
    if eps is None:
        eps = 10.0 * grid.dt * (1.0 + abs(sol.y0))
    if surplus < -10 * eps:
        raise ConsistencyError(
            f"value {sol.y0} fell {-surplus:.3e} below the best constant control")
    return RepresentationReport(y0_dp=sol.y0, best_constant=best, best_a=best_a,
                                surplus=surplus, per_a=per_a)


@dataclass
class FeynmanKacReport:
    min_k: float
    mean_k: float
    frac_negative: float
    mean_abs_residual: float
    mean_residual: float


def feynman_kac_residual(u: Callable, du: Callable, d2u: Callable,
                         problem: TbdsdeProblem, ensemble: PathEnsemble,
                         w: BackwardPath, eps: float = 1e-8,
                         hhat: Optional[Callable] = None) -> FeynmanKacReport:
    """Verify a candidate classical solution along simulated paths.

    Along paths under the ensemble's constant control a, with Y = u, Z = Du
    and curvature G = D^2 u, the compensator rate

        k = hhat(., G) - a G / 2 - F(., a)

    must be nonnegative, and the discrete closed-loop defect of the value
    equation Y_0 = xi + int F(., a) + int g dW + K_T - int Z dX (with the
    backward integral at the midpoint) must vanish with the step size.
    F enters with the sign `solve_dp` gives it, so hhat defaults to the
    problem's own `hamiltonian`, under which k >= 0 holds by construction;
    a negative rate therefore flags an hhat supplied inconsistently with F,
    or a control outside the generator's domain.  A candidate u that fails
    to solve the equation shows up as a residual that does not vanish
    under step refinement.

    hhat: optional (t, x, y, z, gamma) -> array overriding `hamiltonian(problem)`.
    """
    grid = ensemble.grid
    n, dt = grid.n_steps, grid.dt
    a = float(np.asarray(ensemble.control).reshape(-1)[0])
    X = ensemble.states[:, :, 0]
    if hhat is None:
        hhat = hamiltonian(problem)

    min_k, mean_k, n_neg, total = math.inf, 0.0, 0, 0
    k_path = np.zeros((ensemble.n_paths, n + 1))
    f_path = np.zeros((ensemble.n_paths, n + 1))
    g_half = np.zeros(ensemble.n_paths)
    z_dx = np.zeros(ensemble.n_paths)

    uv = {}
    for i in range(n + 1):
        t, x = grid.time(i), X[:, i]
        yv, zv, gv = u(t, x), du(t, x), d2u(t, x)
        uv[i] = (yv, zv, gv)
        f_here = np.asarray(problem.F(t, x, yv, zv, a), dtype=float)
        k = np.asarray(hhat(t, x, yv, zv, gv), dtype=float) - 0.5 * a * gv - f_here
        k_path[:, i] = k
        f_path[:, i] = f_here
        min_k = min(min_k, float(k.min()))
        mean_k += float(k.sum())
        n_neg += int(np.sum(k < -eps))
        total += k.size

    if min_k < -10 * eps:
        raise VerificationError(
            f"compensator rate {min_k:.3e} < -10 eps: candidate is not a supersolution here")

    for i in range(n):
        t, t_next = grid.time(i), grid.time(i + 1)
        wi = w.values[i + 1] - w.values[i]
        y_i, z_i, _ = uv[i]
        y_n, _, _ = uv[i + 1]
        g_i = g_dot(problem.g(t, X[:, i], y_i, z_i), wi)
        g_n = g_dot(problem.g(t_next, X[:, i + 1], y_n, uv[i + 1][1]), wi)
        g_half += 0.5 * (g_i + g_n)
        z_dx += z_i * ensemble.increments[:, i, 0]

    trap = 0.5 * dt * (f_path[:, 0] + f_path[:, -1] + 2 * f_path[:, 1:-1].sum(axis=1))
    trap_k = 0.5 * dt * (k_path[:, 0] + k_path[:, -1] + 2 * k_path[:, 1:-1].sum(axis=1))
    xi = np.asarray(problem.terminal(X[:, -1]), dtype=float)
    res = uv[0][0] - (xi + trap + g_half - z_dx + trap_k)
    return FeynmanKacReport(min_k=min_k, mean_k=mean_k / total,
                            frac_negative=n_neg / total,
                            mean_abs_residual=float(np.abs(res).mean()),
                            mean_residual=float(res.mean()))
