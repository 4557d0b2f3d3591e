"""Backward pair solver conditional on a frozen backward path.

Solves, under a fixed volatility measure,

    y_t = xi + int_t^T f(s, X_s, y_s, z_s) ds + int_t^T g(s, X_s, y_s, z_s) . dW(backward)
          + V_T - V_t - int_t^T z_s . dB_s

by one backward induction, `backward_sweep`.  The problem's `reading` of the
backward integral is "ito", g at the RIGHT endpoint against
dW_i = W_{t_{i+1}} - W_{t_i}, or "stratonovich", the midpoint of the two
endpoints.  The y-update is implicit with an inner fixed point (contraction
for dt * Lip(f) < 1), and a forcing V enters it as the increment
V_{i+1} - V_i; z comes from an explicit conditional projection against the
forward increment.  The conditional expectation backend is either exact
(the binomial tree, d = 1) or least-squares Monte Carlo.  Both take one
frozen backward path or a list of them; `backward_sweep` alone stacks a list
and sweeps its paths at once, as a leading axis of the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .grids import BackwardPath, BrownianTree, PathEnsemble, _count

PHANTOM_STREAM_BASE = 1_000_001
FP_TOL = 1e-12      # the implicit step's fixed point stops at a change <= FP_TOL
MAX_ITERS = 200     # ... or raises ConvergenceError after MAX_ITERS iterations: a
                    # contraction q from a first change d needs ln(d / FP_TOL) / ln(1 / q),
                    # 184 at q = 0.85, d = 10
SWEEP_VALUES = 1 << 16  # values per level (paths x nodes) one batched sweep carries
RIDGE = 1e-10       # the regression's Gram matrix gains RIDGE * I, intercept included,
COND_MAX = 1e12     # and a condition number above COND_MAX raises RegressionError
READINGS = ("ito", "stratonovich")  # the backward integral at the right endpoint, or the midpoint


def later_weight(reading: str) -> float:
    """Weight of a step's later node in its backward integral, 1 - it on the earlier node."""
    return 0.5 if reading == "stratonovich" else 1.0  # the midpoint, or the right endpoint


@dataclass(frozen=True)
class BdsdeProblem:
    """Data of one classical backward equation under a fixed volatility."""

    terminal: Callable                 # x array -> xi array (Markovian)
    f: Callable                        # (t, x, y, z) -> array
    g: Callable                        # (t, x, y, z) -> array; multiplies the scalar dW
    forcing: Optional[np.ndarray] = None   # V at grid nodes, shape (n_steps + 1,)
    lipschitz_f: Optional[float] = None
    reading: str = "ito"               # of the backward integral, one of READINGS

    def __post_init__(self):
        if self.reading not in READINGS:
            raise InvalidArgumentError(f"unknown reading {self.reading!r}, not one of {READINGS}")


@dataclass
class BdsdeSolution:
    y: list                            # per-level values at tree nodes; LSMC: level 0 alone, (N,)
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


def _fixed_point(update, y, i, a):
    """Iterate y <- update(y) to FP_TOL at step i under volatility a; returns
    (y, n_iters, defect), or raises ConvergenceError after MAX_ITERS iterations.

    y holds one row per index of its leading axes (path, or volatility and
    path against a column a), and update must act on each row on its own.
    A row freezes at the iterate of its first change <= FP_TOL, n_iters that
    pass, while others go on; once none is live, one more update gives each
    row's defect there.  So a row's results are those of its own solve.  A
    lone row, 1-D y, keeps its count and change as scalars, not 0-d masks.
    """
    if np.ndim(y) == 1:
        for k in range(MAX_ITERS + 1):
            y_new = update(y)
            change = np.abs(y_new - y).max(initial=0.0)
            if k == MAX_ITERS:
                raise _unconverged(i, a, (np.argmax(np.abs(y_new - y)),))
            if not math.isfinite(change):
                _check_finite(i, a, iterate=y_new)
            y = y_new
            if change <= FP_TOL:
                return y, np.asarray(k + 1), np.asarray(np.abs(update(y) - y).max(initial=0.0))
    live = np.ones(np.shape(y)[:-1], dtype=bool)
    iters = np.zeros(live.shape, dtype=int)
    for k in range(MAX_ITERS + 1):
        y_new = update(y)
        change = np.abs(y_new - y).max(axis=-1, initial=0.0)
        n_live = np.count_nonzero(live)
        if not n_live:
            return y, iters, change
        if k == MAX_ITERS:  # name the first live row's largest change
            row = tuple(np.argwhere(live)[0])
            raise _unconverged(i, a, row + (np.argmax(np.abs(y_new - y)[row]),))
        if n_live < live.size:  # frozen rows keep their value
            y_new[~live] = y[~live]
        if not math.isfinite(change.sum()):  # name the first bad entry of a live row
            _check_finite(i, a, iterate=y_new)
        iters += live
        live &= ~(change <= FP_TOL)
        y = y_new


def _unconverged(i, a, index):
    """The ConvergenceError of a fixed point whose largest live change is at index."""
    vol, _, _, where = _locate(a, index)
    return ConvergenceError(f"inner fixed point at {where} did not reach {FP_TOL:g} in "
                            f"{MAX_ITERS} iterations at step {i}, volatility {vol:g}")


def tree_cond(tree: BrownianTree) -> Callable:
    """Exact one-step moments R -> (E[R], E[R dX] / (a dt)) on the binomial tree."""
    return lambda r: (tree.child_expectation(r), tree.child_cross(r) / (tree.a * tree.grid.dt))


def _locate(a, index):
    """(volatility, path, node, "[path p, ]node j") of an index ([volatility,]
    [path,] node); the volatility axis is there when a is a column."""
    *rows, node = (int(v) for v in index)
    vol = float(np.reshape(a, -1)[rows.pop(0)]) if np.ndim(a) else float(a)
    path = rows[0] if rows else None
    return vol, path, node, f"node {node}" if path is None else f"path {path}, node {node}"


def _check_finite(i, a, **arrays):
    """NonFiniteError naming the step, volatility, path (rows of a batch) and
    node of the first bad entry of the first bad array.  An array without
    the volatility axis of a column a is shared by all and named under a[0]."""
    for what, values in arrays.items():
        values = np.broadcast_to(values, np.broadcast_shapes(np.shape(a), np.shape(values)))
        bad = np.argwhere(~np.isfinite(np.atleast_1d(values)))
        if bad.size:
            vol, path, node, where = _locate(a, bad[0])
            raise NonFiniteError(f"non-finite {what} at step {i}, volatility {vol:g}, {where}",
                                 step=i, volatility=vol, node=node, path=path)


def backward_step(problem: BdsdeProblem, cond: Callable, states: Callable, i: int, grid,
                  y_next, z_next, dw, a, constraint: Optional[Callable] = None):
    """One Euler step of the backward pair from level i + 1 to level i (states: level -> x).

    dw is the step's increment dW_i = W_{t_{i+1}} - W_{t_i} as (1,), or as
    (m, 1) for m paths, whose values then carry a leading path axis and whose
    iters and defect hold one entry per path.  cond maps R = y' + h g' dW_i to
    (E[R], E[R dX] / (a dt)); the implicit update carries the other (1 - h) of
    the noise term, h = later_weight(problem.reading), and constraint(i, u)
    maps its value u onto the admissible set.  Returns (y, z, iters, defect,
    push), push = y - u(y) under a constraint, else None.  A column a, (V, 1)
    or (V, 1, 1), stacks V volatilities as a further leading axis.
    """
    t_i, t_next, dt = grid.time(i), grid.time(i + 1), grid.dt
    x_i, x_next = states(i), states(i + 1)
    dV = 0.0 if problem.forcing is None else problem.forcing[i + 1] - problem.forcing[i]
    half = later_weight(problem.reading)

    r = y_next + half * (problem.g(t_next, x_next, y_next, z_next) * dw)
    e_mean, z = cond(r)
    if not (np.isfinite(e_mean).all() and np.isfinite(z).all()):
        _check_finite(i, a, R=r, mean=e_mean, z=z)  # a bad R poisons its moments
    base = e_mean + dV

    def unconstrained(y):
        u = base if half == 1.0 else base + (1.0 - half) * (problem.g(t_i, x_i, y, z) * dw)
        return u + problem.f(t_i, x_i, y, z) * dt

    project = (lambda u: u) if constraint is None else (lambda u: constraint(i, u))
    y, iters, defect = _fixed_point(lambda y: project(unconstrained(y)), project(base), i, a)
    return y, z, iters, defect, None if constraint is None else y - unconstrained(y)


def backward_sweep(problem, grid, w: BackwardPath | list, y_T, z_T, step: Callable,
                   y0_of: Callable = lambda level0: level0[..., 0],
                   all_levels: bool = True) -> tuple:
    """Backward induction from the terminal data (y_T, z_T) at level n to level 0.

    w is one BackwardPath or a non-empty list of paths on grid.  Only here is
    a list stacked, as an (n_steps + 1, m) array W with path k at W[:, k], and
    swept in batches whose values carry paths as a leading axis.  A batch
    holds at most SWEEP_VALUES values per level, so a wider list is swept in
    chunks of paths one after another, path 0's chunk last so that the
    levels it keeps never share memory with another chunk's working arrays;
    a chunk of one is that path alone.  Every path's values are those of
    its own solve either way.  step(i, y_next, z_next, dw) -> (y, z, iters,
    defect, extra) moves level i + 1 to level i, dw = (W[i + 1] - W[i])[..., None]
    the chunk's increments (see `backward_step`), extra None or an array with
    the leading axes of y.  Checks that w is a path or paths on grid, that a
    forcing holds one value per grid node and that the implicit step contracts
    (dt * Lip(f) < 1).  Returns (y, z, residual, iters, extras, y0_paths):
    path 0's levels (y[n], z[n] the terminal data; with all_levels False, y
    and z hold level 0 alone) and per-step defects, iterations and extras,
    as if it were solved alone, and y0_of(level-0 y) of every path in order
    (by default node 0's value: a tree's root, or any LSMC path, all of
    which start at x0).
    """
    paths = _paths(w, grid)
    _check_contraction(problem, grid.dt)
    forcing = getattr(problem, "forcing", None)  # a TbdsdeProblem carries none
    if forcing is not None and np.shape(forcing) != (grid.n_steps + 1,):
        raise InvalidArgumentError(f"forcing must carry one value per grid node, shape "
                                   f"{(grid.n_steps + 1,)}, got {np.shape(forcing)}")
    n = grid.n_steps
    chunks = _path_chunks(np.stack([p.values for p in paths], axis=1),
                          max(1, SWEEP_VALUES // np.shape(y_T)[-1]))
    # path 0's entry of a step's results: row 0 of a batch, copied so that
    # the other rows are freed, or a single path's values as they are
    keep = (lambda v: v[0].copy()) if chunks[0].ndim == 2 else (lambda v: v)
    last = n if all_levels else 0  # y and z hold levels 0..last, level i at min(i, last)
    y, z, extras = [None] * last + [y_T], [None] * last + [z_T], [None] * n
    residual, iters = np.zeros(n), np.zeros(n, dtype=int)
    y0_paths = [None] * len(chunks)
    for c in range(len(chunks) - 1, -1, -1):
        y_next, z_next = y_T, z_T
        for i in range(n - 1, -1, -1):
            dw = (chunks[c][i + 1] - chunks[c][i])[..., None]
            y_next, z_next, it, res, extra = step(i, y_next, z_next, dw)
            if c == 0:
                k = min(i, last)
                y[k], z[k], iters[i], residual[i] = keep(y_next), keep(z_next), keep(it), keep(res)
                extras[i] = None if extra is None else keep(extra)
        y0_paths[c] = np.array(np.reshape(y0_of(y_next), -1))  # a copy, not a view of a level
    return y, z, residual, iters, extras, np.concatenate(y0_paths)


def _paths(w, grid) -> list:
    """w as a list of paths: one BackwardPath, or a non-empty list of paths on grid."""
    paths = [w] if isinstance(w, BackwardPath) else list(w)
    if not paths or any(not isinstance(p, BackwardPath) or p.grid != grid for p in paths):
        raise InvalidArgumentError(f"the solver takes one backward path or a non-empty list "
                                   f"of paths that share the grid {grid}")
    return paths


def _path_chunks(W: np.ndarray, size: int) -> list:
    """The columns (paths) of a stacked (n_steps + 1, m) W in batches of at
    most size, a batch of one as that path's (n_steps + 1,) column."""
    chunks = (W[:, k:k + size] for k in range(0, W.shape[1], size))
    return [v.squeeze(axis=1) if v.shape[1] == 1 else v for v in chunks]


def _solve_on_tree(problem: BdsdeProblem, tree: BrownianTree, w: BackwardPath | list,
                   constraint: Optional[Callable] = None):
    """The sweep on the tree for one path or a list of paths; returns path 0's
    solution, with every path's y0, and path 0's per-step pushes.  A tree whose
    a and step are a (V, 1) column is V trees swept together on one path."""
    grid = tree.grid
    column = np.ndim(tree.a) > 0
    if column and not isinstance(w, BackwardPath):
        raise InvalidArgumentError("a column of trees is swept on one backward path")
    cond = tree_cond(tree)
    leaves = tree.states(grid.n_steps)
    y_T = np.asarray(problem.terminal(leaves), dtype=float)
    # phantom-step projection z_T = E[xi(x + dX) dX] / (a dt) per leaf
    h = tree.step
    z_T = (0.5 * problem.terminal(leaves + h) * h
           + 0.5 * problem.terminal(leaves - h) * -h) / (tree.a * grid.dt)

    def step(i, y, z, dw):
        y, z, iters, defect, push = backward_step(problem, cond, tree.states, i, grid, y, z, dw,
                                                  tree.a, constraint)
        if column:  # the worst volatility's, as in solve_dp's lattice step
            iters, defect = iters.max(axis=0), defect.max(axis=0)
        return y, z, iters, defect, push

    y, z, residual, iters, pushes, y0_paths = backward_sweep(problem, grid, w, y_T, z_T, step)
    return BdsdeSolution(y=y, z=z, residual=residual, picard_iters=iters,
                         y0=float(y0_paths[0]), y0_paths=y0_paths,
                         meta={"backend": "tree", "problem": problem, "tree": tree}), pushes


def solve_tree(problem: BdsdeProblem, tree: BrownianTree, w: BackwardPath | list) -> BdsdeSolution:
    """Exact-expectation backward induction on the binomial tree (d = 1).

    w is one BackwardPath or a list of paths on the tree's grid, solved in
    one `backward_sweep` with the paths as a leading batch axis.  The
    solution is path 0's (levels, z, residual and iterations as if solved
    alone) and y0_paths holds every path's y0 in list order, each equal to
    that path's own solve.  Over a column of trees (a and step (V, 1)) on one
    path, levels lead with the volatility, y0_paths holds each tree's own y0,
    and the residual and iterations are the worst volatility's.
    """
    return _solve_on_tree(problem, tree, w)[0]


@dataclass
class ComparisonReport:
    ordered: bool
    worst_margin: float      # min over nodes of y1 - y2 (negative = violation)
    preconditions_hold: bool
    detail: dict = field(default_factory=dict)


def check_comparison(sol1: BdsdeSolution, sol2: BdsdeSolution,
                     eps: float = 1e-11) -> ComparisonReport:
    """Monotone data => monotone solution, nodewise on the tree both were solved on.

    The problems and the tree are the ones each `solve_tree` solution keeps in
    its meta; two solves on different trees, or a solution of another
    backend, raise InvalidArgumentError."""
    for sol in (sol1, sol2):
        if not (isinstance(sol, BdsdeSolution) and "tree" in sol.meta):
            raise InvalidArgumentError("check_comparison compares solve_tree solutions, got a "
                                       f"{type(sol).__name__} of backend {sol.meta.get('backend')!r}")
    tree = sol1.meta["tree"]
    if sol2.meta["tree"] != tree:
        raise InvalidArgumentError(f"check_comparison needs two solves on one tree, "
                                   f"got {tree} and {sol2.meta['tree']}")
    problem1, problem2 = sol1.meta["problem"], sol2.meta["problem"]
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


def solve_regression(problem: BdsdeProblem, ensemble: PathEnsemble, w: BackwardPath | list,
                     basis_degree: int = 3) -> BdsdeSolution:
    """Least-squares Monte Carlo backward induction (d = 1).

    Step i regresses on the ensemble's states X[:, i] and its increments
    dX = X[:, i + 1] - X[:, i] under the volatility ensemble.control[i].  w is
    one BackwardPath or a list of paths on the ensemble's grid, solved as in
    `solve_tree`: one sweep over the shared ensemble with one regression basis
    per step, path 0's solution and every path's y0 in y0_paths.  y and z keep
    level 0 alone, one value per ensemble path; the diagnostics keep every step.
    """
    basis_degree = _count(basis_degree, "basis_degree", least=0)
    grid = ensemble.grid
    n, dt = grid.n_steps, grid.dt
    a_steps, X = ensemble.control, ensemble.states
    N = ensemble.n_paths

    y_T = np.asarray(problem.terminal(X[:, n]), dtype=float)
    # phantom projection for the terminal z: one extra seeded step on a
    # shifted key so it cannot collide with the ensemble's own streams
    zp = rng.blocked_normals(ensemble.seed + PHANTOM_STREAM_BASE, N, (1,))[:, 0]
    dx_ph = math.sqrt(a_steps[-1] * dt) * zp
    x_ph = X[:, n] + dx_ph
    xi_ph = problem.terminal(x_ph)
    z_T = _regress_on_state(X[:, n], [xi_ph * dx_ph / (a_steps[-1] * dt)], basis_degree)[0][0]

    def step(i, y_next, z_next, dw):
        rms = []  # each path's regression residual, the step's extra

        def cond(r):
            dx = X[:, i + 1] - X[:, i]
            fits, rms[:] = _regress_on_state(X[:, i], [r, r * dx / (a_steps[i] * dt)],
                                             basis_degree)
            return fits
        y, z, it, res, _ = backward_step(problem, cond, lambda j: X[:, j], i, grid,
                                         y_next, z_next, dw, a_steps[i])
        return y, z, it, res, np.reshape(rms, np.shape(y)[:-1])

    y, z, residual, iters, proj_rms, y0_paths = backward_sweep(problem, grid, w, y_T, z_T, step,
                                                               all_levels=False)
    return BdsdeSolution(y=y, z=z, residual=residual, picard_iters=iters, y0=float(y[0][0]),
                         y0_paths=y0_paths, projection_rms=np.array(proj_rms, dtype=float),
                         meta={"backend": "mc", "n_paths": N, "basis_degree": basis_degree})


def _regress_on_state(x, targets, degree):
    """Conditional-expectation estimates E[t | x] of each target t on one basis.

    The rows 1, u, ..., u^degree of the normalized state u, their Gram matrix
    plus RIDGE * I and the COND_MAX guard on its condition number are computed once;
    each target, and each row of a 2-D target (one row per backward path), is
    fitted on its own.  Returns (fitted targets, rms residual of each row of the first).
    """
    n, mean = len(x), float(np.mean(x))
    u = x - mean
    std = math.sqrt(float(np.mean(u * u)))  # np.std(x), bit for bit
    if std < 1e-12 * (1.0 + abs(mean)):
        fit = lambda t: np.full_like(t, float(np.mean(t)))
    else:
        u /= std
        basis = np.ones((degree + 1, n))
        for k in range(1, degree + 1):
            np.multiply(basis[k - 1], u, out=basis[k])
        gram = basis @ basis.T / n + RIDGE * np.eye(degree + 1)
        cond = np.linalg.cond(gram)
        if cond > COND_MAX:
            raise RegressionError(
                f"normal equations condition number {cond:.3g} exceeds {COND_MAX:.3g}",
                condition_number=cond)
        fit = lambda t: np.linalg.solve(gram, basis @ t / n) @ basis
    fits = [np.array([fit(row) for row in np.reshape(t, (-1, n))]).reshape(np.shape(t))
            for t in targets]
    rms = [float(np.sqrt(np.mean((t - f) ** 2)))
           for t, f in zip(np.reshape(targets[0], (-1, n)), fits[0].reshape(-1, n))]
    return fits, rms
