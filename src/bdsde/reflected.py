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

from .classical import BdsdeProblem, SolverOptions, _solve_on_tree
from .errors import InvalidArgumentError, InvalidBarrierError
from .grids import BackwardPath, BrownianTree


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
    k_increments: list              # per step, per node (projection defect)
    k_continuous: np.ndarray        # expected cumulative, smooth-barrier part
    k_jump: np.ndarray              # expected cumulative, barrier-jump part
    skorokhod_sum: float
    residual: np.ndarray
    y0: float
    y0_paths: np.ndarray            # every backward path's y0, in order


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


def _barrier_jump_flags(barrier, tree):
    """Per-step jump classification of the barrier's time motion.

    A step is a jump when the barrier moves by more than 10 dt times its
    typical smooth rate (estimated as the median per-step motion); purely
    diagnostic, used only to split the compensator trace.
    """
    n = tree.grid.n_steps
    moves = np.empty(n)
    for i in range(n):
        x = tree.states(i)
        s_now = np.asarray(barrier.fn(tree.grid.time(i), x), dtype=float)
        s_next = np.asarray(barrier.fn(tree.grid.time(i + 1), x), dtype=float)
        moves[i] = float(np.max(np.abs(s_next - s_now)))
    smooth_rate = float(np.median(moves)) / tree.grid.dt
    thresh = 10.0 * tree.grid.dt * (1.0 + smooth_rate)
    return moves > thresh


def _solve_with_barrier(problem, barrier, tree, w, opts, constraint, jump_flags):
    """Backward induction under a per-level barrier constraint; shared K bookkeeping.

    constraint(u, s) maps the unconstrained implicit value u onto the
    admissible set of barrier level s; the compensator increment is path 0's
    push y - u, split into its smooth and barrier-jump parts by jump_flags.
    """
    n = tree.grid.n_steps
    barrier.check_terminal(np.asarray(problem.terminal(tree.states(n)), dtype=float), tree)
    levels = [barrier.values(tree, i) for i in range(n)]
    sol, pushes = _solve_on_tree(problem, tree, w, opts,
                                 lambda i, u: constraint(u, levels[i]))
    k_incs = [np.maximum(p, 0.0) for p in pushes]

    probs = tree.level_probabilities()
    k_cont = np.zeros(n + 1)
    k_jump = np.zeros(n + 1)
    for i in range(n):
        e_inc = float(np.dot(probs[i], k_incs[i]))
        k_cont[i + 1] = k_cont[i] + (0.0 if jump_flags[i] else e_inc)
        k_jump[i + 1] = k_jump[i] + (e_inc if jump_flags[i] else 0.0)
    return ReflectedSolution(y=sol.y, z=sol.z, k_increments=k_incs,
                             k_continuous=k_cont, k_jump=k_jump,
                             skorokhod_sum=_flat_off_sum(probs, sol.y, levels, k_incs),
                             residual=sol.residual, y0=sol.y0,
                             y0_paths=sol.y0_paths)


def solve_reflected(problem: BdsdeProblem, barrier: Barrier, tree: BrownianTree,
                    w: BackwardPath | list,
                    opts: SolverOptions = SolverOptions()) -> ReflectedSolution:
    """Backward induction with projection onto the barrier.

    w is one BackwardPath or a list of paths swept together as in `solve_tree`;
    y, z, K and the Skorokhod sum are path 0's, y0_paths every path's y0.
    """
    return _solve_with_barrier(problem, barrier, tree, w, opts,
                               lambda u, s: np.maximum(s, u),
                               _barrier_jump_flags(barrier, tree))


def solve_penalized(problem: BdsdeProblem, barrier: Barrier, n_penalty: float,
                    tree: BrownianTree, w: BackwardPath | list,
                    opts: SolverOptions = SolverOptions()) -> ReflectedSolution:
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

    return _solve_with_barrier(problem, barrier, tree, w, opts, penalty,
                               np.zeros(tree.grid.n_steps, dtype=bool))


def skorokhod_diagnostic(solution: ReflectedSolution, barrier: Barrier,
                         tree: BrownianTree, k_increments=None) -> float:
    """Flat-off diagnostic: sum of (Y - S) dK weighted by node probability.

    Vanishes for the projection backend by construction (the compensator
    only acts on the contact set); the penalized backend leaves a signed
    O(dt) trace.  Passing modified increments turns this into a guard.
    """
    incs = solution.k_increments if k_increments is None else k_increments
    levels = [barrier.values(tree, i) for i in range(tree.grid.n_steps)]
    return _flat_off_sum(tree.level_probabilities(), solution.y, levels, incs)


def _flat_off_sum(probs, y, levels, k_incs):
    """Sum over steps i of E[(Y_i - S_i) dK_i] under the node probabilities."""
    total = 0.0
    for p, y_i, s_i, k_i in zip(probs, y, levels, k_incs):
        total += float(np.dot(p, (y_i - s_i) * np.asarray(k_i)))
    return total
