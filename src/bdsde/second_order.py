"""Uncertain-volatility backward solver: per-step supremum over a volatility grid.

The backend follows from the volatilities where the generator is finite.
With several, the value is propagated backward on a shared spatial lattice;
under each admissible volatility the one-step conditional expectation is
the exact Gaussian integral of the piecewise-linear continuation (see
_accel), the control gets the per-node argmax with ties resolved toward the
smallest volatility, and the nondecreasing compensator K is diagnosed as
the defect of the value against each fixed-volatility one-step operator.
The root value's surplus over every constant control, each solved on its
own exact tree, is `minimality_gap`.

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
from .classical import BdsdeProblem, _paths, backward_step, backward_sweep, later_weight, solve_tree
from .errors import InvalidArgumentError, VerificationError
from .grids import (
    BackwardPath,
    BrownianTree,
    PathEnsemble,
    TimeGrid,
    VolatilityGrid,
    _count,
    _one_path,
    _start,
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
    F = -generators.make_conjugate_map(spec), and its `hamiltonian` is the
    conjugate of that map over volgrid.  Its `reading` of the backward
    integral (classical.READINGS) is part of the equation, and every backend
    solves under it; generators.stratonovich_correction maps a
    Stratonovich-read problem to its Ito-read equivalent.

    F broadcasts over a column of volatilities, (V, 1) against x of shape
    (nodes,) or (V, 1, 1) against a batch's (m, nodes), and its result's
    leading axis is the volatility's; one volatility may come as a scalar.
    """

    terminal: Callable                 # x array -> xi array
    F: Callable                        # (t, x, y, z, a) -> array
    g: Callable                        # (t, x, y, z) -> array
    volgrid: VolatilityGrid
    lipschitz_f: Optional[float] = None
    reading: str = "ito"

    __post_init__ = BdsdeProblem.__post_init__  # the reading is one of classical.READINGS

    def classical_problem(self, a) -> BdsdeProblem:
        return BdsdeProblem(terminal=self.terminal,
                            f=lambda t, x, y, z: self.F(t, x, y, z, a),
                            g=self.g, lipschitz_f=self.lipschitz_f, reading=self.reading)

    def finite_volatilities(self) -> np.ndarray:
        """Volatilities where the generator is finite at a probe point (one F call)."""
        a = np.asarray(self.volgrid.a_values, dtype=float)
        probe = np.asarray(self.F(0.0, np.zeros(1), 0.0, 0.0, a[:, None]), dtype=float)
        keep = a[np.isfinite(np.broadcast_to(probe, (len(a), 1))[:, 0])]
        if not keep.size:
            raise InvalidArgumentError("generator infinite on the entire volatility grid")
        return keep


@dataclass(frozen=True)
class DpOptions:
    """Lattice options of `solve_dp`; the backward integral's reading is the
    problem's, not an option.

    x_steps is the number of lattice cells.  Each backward step adds the
    piecewise-linear interpolation bias of the value, h^2 / 6 for quadratic
    data with cell width h, so at a fixed x_steps the error grows linearly
    in the number of steps: x_steps should grow at least like sqrt(n).
    """

    x_steps: int = 400
    span_sigmas: float = 6.0

    def __post_init__(self):
        object.__setattr__(self, "x_steps", _count(self.x_steps, "x_steps"))
        if not 0 < self.span_sigmas < math.inf:
            raise InvalidArgumentError(
                f"span_sigmas must be positive and finite, got {self.span_sigmas!r}")


@dataclass
class KTrace:
    """A compensator K under the constant control volatility: its nonnegative
    increments at each step's nodes, a lattice (n_steps, nodes) array or a
    list with one array per tree level, and their running sum in expectation
    under the control's forward law from x0, shape (n_steps + 1,)."""

    increments: np.ndarray | list
    expected_cumulative: np.ndarray
    volatility: float

    @property
    def k_terminal(self) -> float:
        return float(self.expected_cumulative[-1])


@dataclass
class TbdsdeSolution:
    Y: list
    Z: list
    argmax_a: list
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
    The volatilities are fixed when it is built, and each evaluation calls F
    once, with them as a column (or with the one volatility as a scalar).
    A state where F is -inf at every one of them raises InvalidArgumentError."""
    a_vals = problem.finite_volatilities()
    several = len(a_vals) > 1  # one goes in as a scalar: no stack to broadcast or reduce

    def h(t, x, y, z, gamma):
        a = (a_vals.reshape((-1,) + (1,) * np.broadcast(x, y, z, gamma).ndim) if several
             else a_vals.item())
        best = 0.5 * a * gamma + np.asarray(problem.F(t, x, y, z, a), dtype=float)
        if several:
            best = best.max(axis=0)
        if best.min() == -math.inf:
            *state, best = np.broadcast_arrays(x, y, z, best)
            k = np.unravel_index(np.argmin(best), best.shape)
            raise InvalidArgumentError(
                f"F is -inf at every volatility at t = {t}, (x, y, z) = "
                f"{tuple(float(v[k]) for v in state)}")
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
    it to R: one row, or a stack of rows with paths as the leading axis.
    By Stein's identity z is R's expected slope, up to rounding."""
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
    `backward_sweep` is one `backward_step` of all volatilities along a leading
    axis, keeping the per-node argmax and each path's worst iterations and defect.
    w is one BackwardPath or a list of paths on grid, swept together; the
    solution is path 0's (Y, Z, argmax and residual as if solved alone)
    and y0_paths holds every path's y0, each equal to its own solve.  meta keeps
    what the solve fixed, which its diagnostics read: the problem (and so its
    reading), path 0 of w ("w"), grid, x0 and the finite volatilities
    ("a_values").  On the lattice, meta["lattice"] holds its knots and
    meta["defects"] path 0's defects Y[i] - cands[k] of the value against
    each volatility k's own step candidate (phantom z_T at step n - 1), an
    (n_steps, V, x_steps + 1) array (1.0 MB at 5 x 64 x 401): max - own,
    so >= 0, and exactly 0 at the argmax.
    """
    x0, a_vals = _start(x0), problem.finite_volatilities()
    meta = {"problem": problem, "w": _paths(w, grid)[0],
            "x0": x0, "grid": grid, "a_values": a_vals}
    if len(a_vals) == 1:
        return _solve_dp_tree(problem, grid, w, meta)
    n, dt = grid.n_steps, grid.dt
    xs = np.linspace(*lattice_bounds(grid, problem.volgrid, x0, opts.span_sigmas),
                     opts.x_steps + 1)
    conds = [lattice_cond(xs, float(a), dt) for a in a_vals]
    y_T = np.asarray(problem.terminal(xs), dtype=float)
    phantom = np.array([cond(y_T)[1] for cond in conds])   # z_T under each volatility

    def step(i, y_next, z_next, dw):
        # every volatility at once: values are (volatility, [path,] node) against a
        a = a_vals.reshape((-1,) + (1,) * dw.ndim)
        if i == n - 1:
            z_next = z_next.reshape(a.shape[:-1] + z_next.shape[-1:])

        def cond(r):  # volatility k's window on row k of R, or on R where all share it
            m0, m1 = zip(*(c(row) for c, row in
                           zip(conds, np.broadcast_to(r, np.broadcast_shapes(a.shape, r.shape)))))
            return np.array(m0), np.array(m1)
        cands, z, iters, defect, _ = backward_step(
            problem.classical_problem(a), cond, lambda _: xs, i, grid, y_next, z_next, dw, a)
        best = np.argmax(cands, axis=0)[None]  # first max = smallest volatility on ties
        y = np.take_along_axis(cands, best, axis=0)[0]
        # each volatility's defect, path axis first for the sweep to keep path 0's
        return (y, np.take_along_axis(z, best, axis=0)[0], iters.max(axis=0),
                defect.max(axis=0), np.moveaxis(y - cands, 0, -2))

    Y, Z, residual, _, defects, y0_paths = backward_sweep(
        problem, grid, w, y_T, phantom, step,
        lambda level0: linear_interp(np.array([x0]), xs, level0))
    defects = np.array(defects)
    # Y[i] is cands[best], whose defect is 0.0; every smaller volatility's is not
    best = np.argmax(defects == 0, axis=1)
    # level n takes the control, and so the z_T, of the first step's argmax
    argmax = [a_vals[b] for b in best] + [a_vals[best[-1]]]
    Z[n] = np.take_along_axis(phantom, best[-1][None], axis=0)[0]
    return TbdsdeSolution(Y=Y, Z=Z, argmax_a=argmax, residual=residual,
                          y0=float(y0_paths[0]), y0_paths=y0_paths,
                          meta={"backend": "lattice", "lattice": xs, "defects": defects, **meta})


def _solve_dp_tree(problem, grid, w, meta):
    """Singleton-volatility exact backend; coincides with the classical solver."""
    a = float(meta["a_values"][0])
    tree = build_tree(grid, a, x0=meta["x0"])
    base = solve_tree(problem.classical_problem(a), tree, w)
    n = grid.n_steps
    argmax = [np.full(tree.n_nodes(i), a) for i in range(n + 1)]
    return TbdsdeSolution(Y=base.y, Z=base.z, argmax_a=argmax,
                          residual=base.residual, y0=base.y0, y0_paths=base.y0_paths,
                          meta={"backend": "tree", "tree": tree, **meta})


def extract_k(sol: TbdsdeSolution, volatility: float) -> KTrace:
    """Per-step defect of the value against the one-step operator of the
    constant control volatility: the compensator seen under that control.

    A volatility outside the solve's finite ones (meta["a_values"]) raises
    InvalidArgumentError.  A tree solution holds one volatility, whose value
    is that control's own step, so its trace is zero: one zero array per
    tree level, the form of a reflected solution's K.  On the lattice it is
    the volatility's row of the solve's own defects (meta["defects"], see
    `solve_dp`), with the cumulative trace integrated against its forward
    law from x0 (each step's expectation clamped at 0, as the increments are
    >= 0, so the trace is nondecreasing).  Nothing is solved again.
    """
    a, a_vals = float(volatility), sol.meta["a_values"].tolist()
    if a not in a_vals:
        raise InvalidArgumentError(f"volatility {a} is foreign to the solution's {a_vals}")
    grid = sol.meta["grid"]
    n = grid.n_steps
    if sol.backend == "tree":
        return KTrace(increments=[np.zeros(sol.meta["tree"].n_nodes(i)) for i in range(n)],
                      expected_cumulative=np.zeros(n + 1), volatility=a)
    x0, xs = sol.meta["x0"], sol.meta["lattice"]
    incs = sol.meta["defects"][:, a_vals.index(a)]  # max - own >= 0 in IEEE arithmetic
    cum = np.zeros(n + 1)
    for i in range(n):
        t_i = grid.time(i) - grid.t0
        if t_i <= 0:
            e_i = float(linear_interp(np.array([x0]), xs, incs[i])[0])
        else:
            e_i = float(pl_gauss_moments(xs, incs[i], np.array([x0]),
                                         math.sqrt(a * t_i))[0][0])
        cum[i + 1] = cum[i] + max(e_i, 0.0)  # rounding can take e_i below 0
    return KTrace(increments=incs, expected_cumulative=cum, volatility=a)


def minimality_gap(sol: TbdsdeSolution) -> float:
    """The representation surplus: sol.y0 minus the best constant-control value at the root.

    Under a constant control the expected compensator K_T - K_0 is, through
    the equation itself, the gap between the value and that control's
    solution, so the gap is the least expected compensator over the constant
    controls; it vanishes at O(dt) for problems whose optimal control is a
    constant element of the grid.  Each constant control is solved on its
    exact tree under what the solve fixed (sol.meta: its problem, and so
    its reading, grid, x0 and path 0, the path sol's levels are from), all
    of them in one sweep over a (V, 1) column of trees.  A tree solution is its sole
    volatility's own solve, so its gap is exactly 0.0 and nothing is solved again.
    """
    if sol.backend == "tree":
        return 0.0
    meta = sol.meta
    grid, a = meta["grid"], meta["a_values"][:, None]
    trees = BrownianTree(grid=grid, a=a, x0=meta["x0"], step=np.sqrt(a * grid.dt))
    return sol.y0 - max(solve_tree(meta["problem"].classical_problem(a), trees,
                                   meta["w"]).y0_paths.tolist())


@dataclass
class FeynmanKacReport:
    min_k: float
    mean_k: float
    frac_negative: float
    mean_abs_residual: float
    mean_residual: float


def feynman_kac_residual(u: Callable, du: Callable, d2u: Callable,
                         problem: TbdsdeProblem, ensemble: PathEnsemble,
                         w: BackwardPath, eps: float = 1e-8) -> FeynmanKacReport:
    """Verify a candidate classical solution along simulated paths.

    Along paths under the ensemble's control a, which must be constant in
    time (InvalidArgumentError otherwise), with Y = u, Z = Du
    and curvature G = D^2 u, the compensator rate

        k = H(., G) - a G / 2 - F(., a)

    must be nonnegative, and the discrete closed-loop defect of the value
    equation Y_0 = xi + int F(., a) + int g dW + K_T - int Z dX (g dW under
    the problem's reading, as `backward_step` weighs it) must vanish with dt.
    F enters with the sign `solve_dp` gives it, and H is the problem's own
    `hamiltonian`, under which k >= 0 holds by construction for a control
    among its volatilities; a negative rate (VerificationError) therefore
    flags a control that H does not dominate, such as one outside the band.
    A candidate u that fails to solve the equation shows up as a residual
    that does not vanish under step refinement.  One pass over the levels
    evaluates u, Du, D^2 u, F, H and g once per level.
    """
    _one_path(w)
    grid = ensemble.grid
    n, dt = grid.n_steps, grid.dt
    a = float(ensemble.control[0])
    if np.any(ensemble.control != a):
        raise InvalidArgumentError(
            f"feynman_kac_residual needs a constant control, got {ensemble.control}")
    X = ensemble.states
    H = hamiltonian(problem)

    min_k, mean_k, n_neg, total = math.inf, 0.0, 0, 0
    k_path = np.zeros((ensemble.n_paths, n + 1))
    f_path = np.zeros((ensemble.n_paths, n + 1))
    g_dw, h = np.zeros(ensemble.n_paths), later_weight(problem.reading)
    z_dx = np.zeros(ensemble.n_paths)

    for i in range(n + 1):
        t, x = grid.time(i), X[:, i]
        yv, zv, gv = u(t, x), du(t, x), d2u(t, x)
        f_here = np.asarray(problem.F(t, x, yv, zv, a), dtype=float)
        k = np.asarray(H(t, x, yv, zv, gv), dtype=float) - 0.5 * a * gv - f_here
        k_path[:, i] = k
        f_path[:, i] = f_here
        min_k = min(min_k, float(k.min()))
        mean_k += float(k.sum())
        n_neg += int(np.sum(k < -eps))
        total += k.size
        g_here = problem.g(t, x, yv, zv)
        if i == 0:
            y_0 = yv
        else:  # the step from level i - 1: its endpoints' g dW, and z dX
            wi = w.values[i] - w.values[i - 1]
            g_dw += (1.0 - h) * (g_prev * wi) + h * (g_here * wi)
            z_dx += z_prev * (x - X[:, i - 1])
        g_prev, z_prev = g_here, zv

    if min_k < -10 * eps:
        raise VerificationError(
            f"compensator rate {min_k:.3e} < -10 eps: candidate is not a supersolution here")

    trap = 0.5 * dt * (f_path[:, 0] + f_path[:, -1] + 2 * f_path[:, 1:-1].sum(axis=1))
    trap_k = 0.5 * dt * (k_path[:, 0] + k_path[:, -1] + 2 * k_path[:, 1:-1].sum(axis=1))
    xi = np.asarray(problem.terminal(X[:, -1]), dtype=float)
    res = y_0 - (xi + trap + g_dw - z_dx + trap_k)
    return FeynmanKacReport(min_k=min_k, mean_k=mean_k / total,
                            frac_negative=n_neg / total,
                            mean_abs_residual=float(np.abs(res).mean()),
                            mean_residual=float(res.mean()))
