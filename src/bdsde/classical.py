"""Backward pair solver conditional on a frozen backward path.

Solves, under a fixed volatility measure,

    y_t = xi + int_t^T f(s, X_s, y_s, z_s) ds + int_t^T g(s, X_s, y_s, z_s) . dW(backward)
          + V_T - V_t - int_t^T z_s . dB_s

by one backward induction, `backward_sweep`.  The backward integral anchors
g at the RIGHT endpoint against dW_i = W_{t_{i+1}} - W_{t_i} ("ito"); the
midpoint ("stratonovich") scheme averages the two endpoints instead.  The
y-update is implicit with an inner fixed point (contraction for
dt * Lip(f) < 1); z comes from an explicit conditional projection against
the forward increment.  The conditional expectation backend is either exact
(a recombining tree, d = 1) or least-squares Monte Carlo.  Both sweep several
frozen backward paths at once, as a leading axis of their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    NonFiniteError,
    RegressionError,
    StepSizeError,
)
from .generators import g_dot
from .grids import BackwardPath, BrownianTree, PathEnsemble, batch_paths

PHANTOM_STREAM_BASE = 1_000_001
FP_TOL = 1e-12      # the implicit step's fixed point stops at a change <= FP_TOL
MAX_ITERS = 50      # ... or raises ConvergenceError after MAX_ITERS iterations


@dataclass(frozen=True)
class BdsdeProblem:
    """Data of one classical backward equation under a fixed volatility."""

    terminal: Callable                 # x array -> xi array (Markovian)
    f: Callable                        # (t, x, y, z) -> array
    g: Callable                        # (t, x, y, z) -> array; pairs with W's first component
    forcing: Optional[np.ndarray] = None   # V at grid nodes, shape (n_steps + 1,)
    lipschitz_f: Optional[float] = None


@dataclass(frozen=True)
class SolverOptions:
    g_scheme: str = "ito"              # "ito" (right endpoint) or "stratonovich" (midpoint)

    def __post_init__(self):
        if self.g_scheme not in ("ito", "stratonovich"):
            raise InvalidArgumentError(f"unknown g_scheme {self.g_scheme!r}")


@dataclass
class BdsdeSolution:
    y: list                            # per-level values: tree nodes, or MC paths (N,)
    z: list
    residual: np.ndarray               # per-step fixed-point defect (max-norm)
    picard_iters: np.ndarray
    y0: float
    y0_paths: np.ndarray               # every backward path's y0, in order
    projection_rms: Optional[np.ndarray] = None  # MC only: per-step regression residual
    meta: dict = field(default_factory=dict)


def _check_contraction(problem: BdsdeProblem, dt: float):
    if problem.lipschitz_f is not None and dt * problem.lipschitz_f >= 1.0:
        raise StepSizeError(
            f"dt * Lip(f) = {dt * problem.lipschitz_f:.3g} >= 1: implicit step not contracting",
            suggested_dt=0.5 / problem.lipschitz_f)


def _fixed_point(update, y_start, i, a):
    """Iterate y <- update(y) to FP_TOL at step i under volatility a; returns
    (y, n_iters, defect), or raises ConvergenceError after MAX_ITERS iterations.

    A 2-D y holds one row per backward path, and update must act on each row
    on its own.  A row's result is frozen at its own first change <= FP_TOL,
    with its own n_iters and its defect taken at the frozen value, so it is
    what the row would give alone; the batch iterates until its last row is
    frozen.
    """
    y, out = y_start, None  # out holds the frozen rows once rows freeze at different passes
    shape = np.shape(y)[:-1]
    iters, defect = [0] * math.prod(shape), [0.0] * math.prod(shape)
    live, owed = list(range(len(iters))), []
    for k in range(1, MAX_ITERS + 2):
        y_new = update(y)
        change = np.abs(y_new - y).max(axis=-1, initial=0.0).reshape(-1).tolist()
        for r in owed:  # a frozen row's next change is its defect
            defect[r] = change[r]
        if not live:
            if not shape:  # one path: plain numbers, as callers store them per step
                return y, iters[0], defect[0]
            return y if out is None else out, np.array(iters), np.array(defect)
        if k > MAX_ITERS:
            break
        owed = [r for r in live if change[r] <= FP_TOL]
        live = [r for r in live if not change[r] <= FP_TOL]
        for r in owed:
            iters[r] = k
        if owed and out is not None:
            out.reshape(len(iters), -1)[owed] = y_new.reshape(len(iters), -1)[owed]
        elif owed and live:
            out = y_new.copy()
        if not math.isfinite(sum(change)):  # name the first bad entry of a live row
            if out is not None:
                out.reshape(len(iters), -1)[live] = y_new.reshape(len(iters), -1)[live]
            _check_finite(i, a, iterate=y_new if out is None else out)
        y = y_new
    raise ConvergenceError(f"inner fixed point did not reach {FP_TOL:g} in {MAX_ITERS} "
                           f"iterations at step {i}, volatility {a:g}")


def tree_cond(tree: BrownianTree) -> Callable:
    """Exact one-step moments R -> (E[R], E[R dX] / (a dt)) on a recombining tree."""
    return lambda r: (tree.child_expectation(r), tree.child_cross(r) / (tree.a * tree.grid.dt))


def _check_finite(i, a, **arrays):
    """NonFiniteError naming the step, volatility, path (rows of a batch) and
    node of the first bad entry of the first bad array."""
    for what, values in arrays.items():
        bad = np.argwhere(~np.isfinite(np.atleast_1d(values)))
        if bad.size:
            *path, node = (int(v) for v in bad[0])
            where = f"path {path[0]}, node {node}" if path else f"node {node}"
            raise NonFiniteError(f"non-finite {what} at step {i}, volatility {a:g}, {where}",
                                 step=i, volatility=float(a), node=node,
                                 path=path[0] if path else None)


def backward_step(problem: BdsdeProblem, cond: Callable, states: Callable, i: int, grid,
                  y_next, z_next, w: BackwardPath, a: float, opts: SolverOptions,
                  constraint: Optional[Callable] = None):
    """One Euler step of the backward pair from level i + 1 to level i (states: level -> x).

    cond maps R = y' + h g' dW_i to (E[R], E[R dX] / (a dt)); the implicit update
    carries the other (1 - h) of the noise term, h = 1 ("ito") or 1/2 ("stratonovich"),
    and constraint(i, u) maps its value u onto the admissible set.  Returns
    (y, z, iters, defect, push), push = y - u(y) under a constraint, else None.
    For a batch w (grids.batch_paths) the values gain a leading path axis and
    iters and defect are arrays with one entry per path.
    """
    t_i, t_next, dt = grid.time(i), grid.time(i + 1), grid.dt
    # dW_i as (1, l), or (m, 1, l) against (m, nodes) values
    wi = (w.values[i + 1] - w.values[i])[..., None, :]
    x_i, x_next = states(i), states(i + 1)
    dV = 0.0 if problem.forcing is None else problem.forcing[i + 1] - problem.forcing[i]
    half = 0.5 if opts.g_scheme == "stratonovich" else 1.0

    r = y_next + half * g_dot(problem.g(t_next, x_next, y_next, z_next), wi)
    e_mean, z = cond(r)
    if not (np.isfinite(e_mean).all() and np.isfinite(z).all()):
        _check_finite(i, a, R=r, mean=e_mean, z=z)  # a bad R poisons its moments
    base = e_mean + dV

    def unconstrained(y):
        u = base if half == 1.0 else base + (1.0 - half) * g_dot(problem.g(t_i, x_i, y, z), wi)
        return u + problem.f(t_i, x_i, y, z) * dt

    project = (lambda u: u) if constraint is None else (lambda u: constraint(i, u))
    y, iters, defect = _fixed_point(lambda y: project(unconstrained(y)), project(base), i, a)
    return y, z, iters, defect, None if constraint is None else y - unconstrained(y)


def backward_sweep(problem, grid, w: BackwardPath | list, y_T, z_T, step: Callable) -> tuple:
    """Backward induction from the terminal data (y_T, z_T) at level n to level 0.

    w is one BackwardPath or a list of paths on grid, swept together as one
    batch (grids.batch_paths): the values carry paths as a leading axis.
    step(i, y_next, z_next, w) -> (y, z, iters, defect, extra) moves level
    i + 1 to level i, extra None or one value per node.  Checks that w lives
    on grid and that the implicit step contracts (dt * Lip(f) < 1).  Returns
    (y, z, residual, iters, extras, level0): path 0's levels (y[n], z[n] the
    terminal data) and per-step defects, iterations and extras, as if it
    were solved alone, and every path's level-0 y, from which a solver reads
    its y0_paths.
    """
    w = batch_paths(w)
    w.require_grid(grid)
    _check_contraction(problem, grid.dt)
    n = grid.n_steps
    # path 0's entry of a step's results: row 0 of a batch, copied so that
    # the other rows are freed, or a single path's values as they are
    keep = (lambda values: values[0].copy()) if w.values.ndim == 3 else (lambda values: values)
    y, z, extras = [None] * n + [y_T], [None] * n + [z_T], [None] * n
    residual, iters = np.zeros(n), np.zeros(n, dtype=int)
    y_next, z_next = y_T, z_T
    for i in range(n - 1, -1, -1):
        y_next, z_next, it, res, extra = step(i, y_next, z_next, w)
        y[i], z[i], iters[i], residual[i] = keep(y_next), keep(z_next), keep(it), keep(res)
        extras[i] = None if extra is None else keep(extra)
    return y, z, residual, iters, extras, y_next


def _solve_on_tree(problem: BdsdeProblem, tree: BrownianTree, w: BackwardPath | list,
                   opts: SolverOptions, constraint: Optional[Callable] = None):
    """The sweep on the tree for one path or a list of paths; returns path 0's
    solution, with every path's y0, and path 0's per-step pushes."""
    grid = tree.grid
    cond = tree_cond(tree)
    leaves = tree.states(grid.n_steps)
    y_T = np.asarray(problem.terminal(leaves), dtype=float)
    # phantom-step projection z_T = E[xi(x + dX) dX] / (a dt) per leaf
    z_T = sum(pk * problem.terminal(leaves + ok) * ok for pk, ok in
              zip(tree.transition_probs, tree.branch_offsets())) / (tree.a * grid.dt)
    y, z, residual, iters, pushes, level0 = backward_sweep(
        problem, grid, w, y_T, z_T, lambda i, y, z, w: backward_step(
            problem, cond, tree.states, i, grid, y, z, w, tree.a, opts, constraint))
    return BdsdeSolution(y=y, z=z, residual=residual, picard_iters=iters, y0=float(y[0][0]),
                         y0_paths=level0[..., 0].reshape(-1),
                         meta={"backend": "tree", "a": tree.a}), pushes


def solve_tree(problem: BdsdeProblem, tree: BrownianTree, w: BackwardPath | list,
               opts: SolverOptions = SolverOptions()) -> BdsdeSolution:
    """Exact-expectation backward induction on a recombining tree (d = 1).

    w is one BackwardPath or a list of paths on the tree's grid, solved in
    one `backward_sweep` with the paths as a leading batch axis.  The
    solution is path 0's (levels, z, residual and iterations as if solved
    alone) and y0_paths holds every path's y0 in list order, each equal to
    that path's own solve.
    """
    return _solve_on_tree(problem, tree, w, opts)[0]


def solve_with_forcing(problem: BdsdeProblem, tree: BrownianTree, w: BackwardPath,
                       opts: SolverOptions = SolverOptions()) -> BdsdeSolution:
    """Forced equation solved via the additive substitution ybar = y + V."""
    V = problem.forcing
    if V is None:
        V = np.zeros(tree.grid.n_steps + 1)
    V = np.asarray(V, dtype=float)
    if V.shape != (tree.grid.n_steps + 1,):
        raise InvalidArgumentError("forcing must carry one value per grid node")

    v_of_t = {round(tree.grid.time(i), 12): V[i] for i in range(len(V))}

    def vt(t):
        return v_of_t[round(t, 12)]

    shifted = replace(
        problem,
        terminal=lambda x: problem.terminal(x) + V[-1],
        f=lambda t, x, y, z: problem.f(t, x, y - vt(t), z),
        g=lambda t, x, y, z: problem.g(t, x, y - vt(t), z),
        forcing=None,
    )
    bar = solve_tree(shifted, tree, w, opts)
    y_levels = [bar.y[i] - V[i] for i in range(len(bar.y))]
    return BdsdeSolution(y=y_levels, z=bar.z, residual=bar.residual,
                         picard_iters=bar.picard_iters, y0=float(y_levels[0][0]),
                         y0_paths=bar.y0_paths - V[0],
                         meta={"backend": "tree+forcing", "a": tree.a})


@dataclass
class ComparisonReport:
    ordered: bool
    worst_margin: float      # min over nodes of y1 - y2 (negative = violation)
    preconditions_hold: bool
    detail: dict = field(default_factory=dict)


def check_comparison(sol1: BdsdeSolution, sol2: BdsdeSolution,
                     problem1: BdsdeProblem, problem2: BdsdeProblem,
                     tree: BrownianTree, eps: float = 1e-11) -> ComparisonReport:
    """Monotone data => monotone solution, nodewise on a shared tree."""
    n = tree.grid.n_steps
    xi1 = np.asarray(problem1.terminal(tree.states(n)), dtype=float)
    xi2 = np.asarray(problem2.terminal(tree.states(n)), dtype=float)
    pre_xi = bool(np.all(xi1 >= xi2 - eps))

    pre_f = True
    for i in range(n):
        t, x = tree.grid.time(i), tree.states(i)
        f1 = np.asarray(problem1.f(t, x, sol1.y[i], sol1.z[i]), dtype=float)
        f2 = np.asarray(problem2.f(t, x, sol1.y[i], sol1.z[i]), dtype=float)
        if not np.all(f1 >= f2 - eps):
            pre_f = False
            break

    v1 = problem1.forcing if problem1.forcing is not None else np.zeros(n + 1)
    v2 = problem2.forcing if problem2.forcing is not None else np.zeros(n + 1)
    pre_v = bool(np.all(np.diff(np.asarray(v1) - np.asarray(v2)) >= -eps))

    worst = math.inf
    for i in range(n + 1):
        worst = min(worst, float(np.min(sol1.y[i] - sol2.y[i])))
    return ComparisonReport(ordered=worst >= -eps, worst_margin=worst,
                            preconditions_hold=pre_xi and pre_f and pre_v,
                            detail={"xi": pre_xi, "f": pre_f, "forcing": pre_v})


# ---------------------------------------------------------------------------
# least-squares Monte Carlo backend


def polynomial_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomials 1, x, ..., x^degree of the (normalized) 1-D state, shape (N, degree + 1)."""
    cols = [np.ones(len(x))]
    for _ in range(degree):
        cols.append(cols[-1] * x)
    return np.column_stack(cols)


def _step_controls(ensemble: PathEnsemble) -> np.ndarray:
    c = np.asarray(ensemble.control, dtype=float)
    n = ensemble.grid.n_steps
    if c.ndim == 0:
        return np.full(n, float(c))
    if c.ndim == 1:
        return c
    raise InvalidArgumentError("regression backend supports scalar controls (d = 1)")


def solve_regression(problem: BdsdeProblem, ensemble: PathEnsemble, w: BackwardPath | list,
                     basis_degree: int = 3, opts: SolverOptions = SolverOptions(),
                     ridge: float = 1e-10, cond_max: float = 1e12) -> BdsdeSolution:
    """Least-squares Monte Carlo backward induction (d = 1).

    w is one BackwardPath or a list of paths on the ensemble's grid, solved as
    in `solve_tree`: one sweep over the shared ensemble with one regression
    basis per step, path 0's solution and every path's y0 in y0_paths.  The
    levels y[i] and z[i] hold one value per ensemble path.
    """
    grid = ensemble.grid
    if ensemble.d_dim != 1:
        raise InvalidArgumentError("regression backend implemented for d = 1")

    n, dt = grid.n_steps, grid.dt
    a_steps = _step_controls(ensemble)
    X = ensemble.states[:, :, 0]
    dX = ensemble.increments[:, :, 0]
    N = ensemble.n_paths
    proj_rms = np.zeros(n)

    y_T = np.asarray(problem.terminal(X[:, n]), dtype=float)
    # phantom projection for the terminal z: one extra seeded step on a
    # shifted key so it cannot collide with the ensemble's own streams
    zp = rng.blocked_normals(ensemble.seed + PHANTOM_STREAM_BASE, N, (1,))[:, 0]
    dx_ph = math.sqrt(a_steps[-1] * dt) * zp
    x_ph = X[:, n] + dx_ph
    xi_ph = problem.terminal(x_ph)
    z_T = _regress_on_state(X[:, n], [xi_ph * dx_ph / (a_steps[-1] * dt)],
                            basis_degree, ridge, cond_max)[0][0]

    def step(i, y_next, z_next, w):
        def cond(r):
            fits, rms = _regress_on_state(X[:, i], [r, r * dX[:, i] / (a_steps[i] * dt)],
                                          basis_degree, ridge, cond_max)
            proj_rms[i] = rms[0]
            return fits
        return backward_step(problem, cond, lambda j: X[:, j], i, grid, y_next, z_next, w,
                             a_steps[i], opts)

    y, z, residual, iters, _, level0 = backward_sweep(problem, grid, w, y_T, z_T, step)
    return BdsdeSolution(y=y, z=z, residual=residual, picard_iters=iters, y0=float(y[0][0]),
                         y0_paths=level0[..., 0].reshape(-1), projection_rms=proj_rms,
                         meta={"backend": "mc", "n_paths": N, "basis_degree": basis_degree})


def _regress_on_state(x, targets, degree, ridge, cond_max):
    """Conditional-expectation estimates E[t | x] of each target t on one basis.

    The polynomial basis of the normalized state, its ridge-regularized Gram
    matrix and the condition-number guard are computed once; each target, and
    each row of a 2-D target (one row per backward path), is fitted on its
    own.  Returns (fitted targets, rms residual of each row of the first).
    """
    std = float(np.std(x))
    if std < 1e-12 * (1.0 + float(np.abs(np.mean(x)))):
        fit = lambda t: np.full_like(t, float(np.mean(t)))
    else:
        phi = polynomial_features((x - np.mean(x)) / std, degree)
        gram = phi.T @ phi / phi.shape[0] + ridge * np.eye(phi.shape[1])
        cond = np.linalg.cond(gram)
        if cond > cond_max:
            raise RegressionError(
                f"normal equations condition number {cond:.3g} exceeds {cond_max:.3g}",
                condition_number=cond)
        fit = lambda t: phi @ np.linalg.solve(gram, phi.T @ t / phi.shape[0])
    fits = [np.array([fit(row) for row in np.reshape(t, (-1, len(x)))]).reshape(np.shape(t))
            for t in targets]
    rms = [float(np.sqrt(np.mean((t - f) ** 2)))
           for t, f in zip(np.reshape(targets[0], (-1, len(x))), fits[0].reshape(-1, len(x)))]
    return fits, rms
