"""Lower-barrier reflected solver: projection backend, penalization, and the
optimal-stopping oracle.

The one-step reflected update projects the unconstrained backward step onto
{y >= S}; the compensator increment is the projection defect.  Penalization
replaces the constraint by the generator term n (y - S)^-, solved exactly
per step as a piecewise-affine fixed point (the outer iteration only
handles the generator, so the step-size restriction does not degrade with
the penalty level).  After an additive change of variables, problems with
state-free noise intensity reduce exactly to a Snell envelope on the tree,
which serves as the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import BdsdeProblem, _solve_on_tree
from .errors import InvalidArgumentError, InvalidBarrierError
from .grids import BackwardPath, BrownianTree
from .second_order import KTrace


@dataclass(frozen=True)
class Barrier:
    """Lower obstacle, a map (t, x) -> level."""

    fn: Callable

    def values(self, tree: BrownianTree, level: int) -> np.ndarray:
        t = tree.grid.time(level)
        return np.broadcast_to(
            np.asarray(self.fn(t, tree.states(level)), dtype=float),
            (tree.n_nodes(level),)).copy()

    def check_terminal(self, xi_vals: np.ndarray, tree: BrownianTree):
        s_T = self.values(tree, tree.grid.n_steps)
        if np.any(s_T > xi_vals + 1e-12 * (1 + np.abs(xi_vals))):
            raise InvalidBarrierError("barrier exceeds the terminal data at maturity")


@dataclass
class ReflectedSolution:
    y: list
    z: list
    k: KTrace                       # path 0's compensator: per-level pushes, forward-law sum
    skorokhod_sum: float
    residual: np.ndarray
    y0: float
    y0_paths: np.ndarray            # every backward path's y0, in order
    meta: dict                      # the solve's problem, tree and barrier levels


def snell_envelope(tree: BrownianTree, payoff, terminal) -> list:
    """Optimal-stopping value by backward max(payoff, continuation).

    payoff is a (t, x) map or per-level trace; terminal an array or x-map.
    Brute-force exact on the tree; the oracle for reflected problems with a
    state-free noise intensity after the additive change of variables.
    """
    n = tree.grid.n_steps
    term = terminal(tree.states(n)) if callable(terminal) else np.asarray(terminal, dtype=float)
    values = [None] * (n + 1)
    values[n] = np.asarray(term, dtype=float)
    for i in range(n - 1, -1, -1):
        cont = tree.child_expectation(values[i + 1])
        if callable(payoff):
            pay = np.asarray(payoff(tree.grid.time(i), tree.states(i)), dtype=float)
        else:
            pay = np.asarray(payoff[i], dtype=float)
        values[i] = np.maximum(pay, cont)
    return values


def _solve_with_barrier(problem, barrier, tree, w, constraint):
    """Backward induction under a per-level barrier constraint; shared K bookkeeping.

    constraint(u, s) maps the unconstrained implicit value u onto the
    admissible set of barrier level s.  K's increments are path 0's pushes
    y - u clamped at 0, one array per level, and its expected running sum
    is taken under the tree's forward node probabilities.
    """
    n = tree.grid.n_steps
    barrier.check_terminal(np.asarray(problem.terminal(tree.states(n)), dtype=float), tree)
    levels = [barrier.values(tree, i) for i in range(n)]
    sol, pushes = _solve_on_tree(problem, tree, w, lambda i, u: constraint(u, levels[i]))
    k_incs = [np.maximum(p, 0.0) for p in pushes]
    probs = tree.level_probabilities()
    cum = np.cumsum([0.0] + [np.dot(p, k) for p, k in zip(probs, k_incs)])
    return ReflectedSolution(y=sol.y, z=sol.z,
                             k=KTrace(increments=k_incs, expected_cumulative=cum,
                                      volatility=float(tree.a)),
                             skorokhod_sum=_flat_off_sum(probs, sol.y, levels, k_incs),
                             residual=sol.residual, y0=sol.y0, y0_paths=sol.y0_paths,
                             meta={"problem": problem, "tree": tree, "levels": levels})


def solve_reflected(problem: BdsdeProblem, barrier: Barrier, tree: BrownianTree,
                    w: BackwardPath | list) -> ReflectedSolution:
    """Backward induction with projection onto the barrier.

    w is one BackwardPath or a list of paths swept together as in `solve_tree`;
    y, z, K and the Skorokhod sum are path 0's, y0_paths every path's y0.
    """
    return _solve_with_barrier(problem, barrier, tree, w, lambda u, s: np.maximum(s, u))


def solve_penalized(problem: BdsdeProblem, barrier: Barrier, n_penalty: float,
                    tree: BrownianTree, w: BackwardPath | list) -> ReflectedSolution:
    """Penalty-term backend: generator f + n (y - S)^-.

    The penalty part of the implicit step is solved exactly (piecewise
    affine in y), so only the generator's own Lipschitz constant limits dt.
    A list of paths is solved in one sweep, as in `solve_reflected`.
    """
    if not 0 <= n_penalty < math.inf:
        raise InvalidArgumentError(
            f"penalty level must be nonnegative and finite, got {n_penalty!r}")
    dt = tree.grid.dt

    def penalty(u, s):
        # exact solve of y = u + n (s - y)^+ dt with the generator frozen
        return np.where(u >= s, u, (u + n_penalty * s * dt) / (1.0 + n_penalty * dt))

    return _solve_with_barrier(problem, barrier, tree, w, penalty)


def skorokhod_diagnostic(solution: ReflectedSolution, k_increments=None) -> float:
    """Flat-off diagnostic: sum of (Y - S) dK weighted by node probability.

    Reads the solve's own tree and barrier levels (solution.meta) and, by
    default, its own increments solution.k.increments, so it equals
    solution.skorokhod_sum.  Vanishes for the projection backend by
    construction (the compensator only acts on the contact set); the
    penalized backend leaves a signed O(dt) trace.  Passing modified
    increments, one array per step shaped like that level's nodes (anything
    else raises InvalidArgumentError), turns this into a guard.
    """
    levels = solution.meta["levels"]
    incs = solution.k.increments if k_increments is None else list(k_increments)
    shapes = [np.shape(k) for k in incs]
    if shapes != [s.shape for s in levels]:
        raise InvalidArgumentError(
            f"k_increments must be one array per step, {len(levels)} shaped like the "
            f"levels' nodes, got shapes {shapes}")
    return _flat_off_sum(solution.meta["tree"].level_probabilities(), solution.y, levels, incs)


def _flat_off_sum(probs, y, levels, k_incs):
    """Sum over steps i of E[(Y_i - S_i) dK_i] under the node probabilities."""
    total = 0.0
    for p, y_i, s_i, k_i in zip(probs, y, levels, k_incs):
        total += float(np.dot(p, (y_i - s_i) * np.asarray(k_i)))
    return total
