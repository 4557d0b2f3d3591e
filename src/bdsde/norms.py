"""Solution-space seminorms of solves on binomial trees.

The measure-family supremum is a max over the solves' volatilities; the
time supremum inside the D-norm is a pathwise max, computed by exact
enumeration of tree paths (feasible at desk scale, and the point of using
the exact backend).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .classical import BdsdeSolution
from .errors import InvalidArgumentError
from .grids import BrownianTree
from .reflected import ReflectedSolution

MAX_ENUM_STEPS = 16


@dataclass
class NormReport:
    d2_norm: float          # sup_a E[ sup_t |Y_t|^2 ]
    h2_norm: float          # sup_a E[ int ||a^{1/2} Z||^2 dt ]
    i2_norm: float          # sup_a E[ K_T^2 ]
    phi_eps: float          # sup_a E[ int |F0_t|^{2+eps} dt ]
    psi_eps: float          # sup_a E[ int ||g0_t||^{2+eps} dt ]
    exponent: float


def _path_node_indices(n_steps: int):
    """Node index per level for every binomial path (up-move counts)."""
    if n_steps > MAX_ENUM_STEPS:
        raise InvalidArgumentError(
            f"path enumeration limited to {MAX_ENUM_STEPS} steps, got {n_steps}")
    n_paths = 1 << n_steps
    codes = np.arange(n_paths, dtype=np.uint32)
    ups = ((codes[:, None] >> np.arange(n_steps, dtype=np.uint32)[None, :]) & 1)
    idx = np.zeros((n_paths, n_steps + 1), dtype=np.int32)
    np.cumsum(ups, axis=1, out=idx[:, 1:])
    return idx


def pathwise_sup_sq_expectation(tree: BrownianTree, levels: list) -> float:
    """E[ sup_t |Y_t|^2 ] by exact enumeration of all binomial tree paths."""
    n = tree.grid.n_steps
    idx = _path_node_indices(n)
    running = np.abs(np.asarray(levels[0], dtype=float))[idx[:, 0]]
    for i in range(1, n + 1):
        running = np.maximum(running, np.abs(np.asarray(levels[i], dtype=float))[idx[:, i]])
    return float(np.mean(running**2))  # uniform path probability 2^{-n}


def pathwise_terminal_k_sq(tree: BrownianTree, k_increments: list) -> float:
    """E[ K_T^2 ] with K_T accumulated along every binomial path."""
    n = tree.grid.n_steps
    idx = _path_node_indices(n)
    k_T = np.zeros(idx.shape[0])
    for i in range(n):
        k_T += np.asarray(k_increments[i], dtype=float)[idx[:, i]]
    return float(np.mean(k_T**2))


def compute_norms(solutions: list, F0: Optional[Callable] = None,
                  g0: Optional[Callable] = None, eps: float = 0.5) -> NormReport:
    """Norms of solves on trees, each a sup over the solves' volatilities.

    Each solution is a `classical.solve_tree` or reflected solve on one tree,
    read from its own meta["tree"] (volatility tree.a), y and z, and a
    reflected one's K from sol.k.increments; a solution with no such tree
    (mc, lattice dp) raises InvalidArgumentError.  F0 and g0 are the
    zero-state generator slices (t, x, a) -> array used for the
    integrability statistics; omitted entries count as zero.
    """
    if not solutions:
        raise InvalidArgumentError("at least one solution is required")

    d2 = h2 = i2 = phi = psi = 0.0
    for sol in solutions:
        tree = sol.meta.get("tree") if isinstance(sol, (BdsdeSolution, ReflectedSolution)) else None
        if tree is None or np.ndim(tree.a):
            raise InvalidArgumentError("compute_norms reads solves on one tree, got a "
                                       f"{type(sol).__name__} of backend "
                                       f"{getattr(sol, 'meta', {}).get('backend')!r}")
        a, grid = tree.a, tree.grid
        probs = tree.level_probabilities()

        def integrability(h):  # E[ int |h(t, X_t, a)|^{2+eps} dt ] on the tree
            return sum(float(np.dot(probs[i], np.abs(
                np.asarray(h(grid.time(i), tree.states(i), a), dtype=float))**(2 + eps)))
                * grid.dt for i in range(grid.n_steps))
        d2 = max(d2, pathwise_sup_sq_expectation(tree, sol.y))
        h2_a = sum(float(np.dot(probs[i], a * np.asarray(sol.z[i])**2)) * grid.dt
                   for i in range(grid.n_steps))
        h2 = max(h2, h2_a)
        if isinstance(sol, ReflectedSolution):
            i2 = max(i2, pathwise_terminal_k_sq(tree, sol.k.increments))
        if F0 is not None:
            phi = max(phi, integrability(F0))
        if g0 is not None:
            psi = max(psi, integrability(g0))
    return NormReport(d2_norm=d2, h2_norm=h2, i2_norm=i2,
                      phi_eps=phi, psi_eps=psi, exponent=2 + eps)


def terminal_l2(tree: BrownianTree, xi_vals: np.ndarray) -> float:
    """E[|xi|^2]^{1/2} under the tree's terminal law."""
    probs = tree.level_probabilities()[-1]
    return float(np.sqrt(np.dot(probs, np.asarray(xi_vals, dtype=float)**2)))
