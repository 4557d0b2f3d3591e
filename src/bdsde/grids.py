"""Time grids, frozen backward paths, and forward-noise structures.

The forward noise B is represented either exactly (a recombining tree in
one dimension) or by a seeded Monte Carlo ensemble under a piecewise
constant volatility control.  The backward Brownian path W is frozen per
run: a single sampled trajectory stands in for conditioning on the
external noise, and statistics over W come from a batch of such paths
solved together (see `batch_paths`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, UnsupportedBackendError
from . import rng

_BRANCH_PROBS = {2: np.array([0.5, 0.5]), 3: np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])}


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    horizon: float
    n_steps: int
    dt: float

    @property
    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def time(self, i: int) -> float:
        return self.t0 + self.dt * i


def build_time_grid(t0: float, horizon: float, n: int) -> TimeGrid:
    """Uniform grid of n steps on [t0, horizon]."""
    if horizon <= t0:
        raise InvalidArgumentError(f"horizon {horizon} must exceed t0 {t0}")
    if n < 1:
        raise InvalidArgumentError(f"n_steps must be >= 1, got {n}")
    return TimeGrid(t0=float(t0), horizon=float(horizon), n_steps=int(n),
                    dt=(float(horizon) - float(t0)) / int(n))


@dataclass(frozen=True)
class BackwardPath:
    """Frozen trajectory of the backward driver W on a time grid.

    values has shape (n_steps + 1, l) with values[0] = 0, or (n_steps + 1, m, l)
    for a batch of m paths (see `batch_paths`).
    """

    grid: TimeGrid
    values: np.ndarray
    seed: int

    @property
    def increments(self) -> np.ndarray:
        """dW_i = W_{t_{i+1}} - W_{t_i}, shape (n_steps, l) or (n_steps, m, l)."""
        return np.diff(self.values, axis=0)

    def tail_increment(self, i: int) -> np.ndarray:
        """W_T - W_{t_i}."""
        return self.values[-1] - self.values[i]

    def require_grid(self, grid: TimeGrid):
        """InvalidArgumentError unless the path lives on grid (start, horizon and steps)."""
        if self.grid != grid:
            raise InvalidArgumentError(
                f"backward path and solver must share the grid, got {self.grid} and {grid}")

    @classmethod
    def from_values(cls, grid: TimeGrid, values, seed: int = -1) -> "BackwardPath":
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] == 1 and grid.n_steps + 1 > 1:
            values = values.T
        if values.shape[0] != grid.n_steps + 1:
            raise InvalidArgumentError(
                f"need {grid.n_steps + 1} path values, got {values.shape[0]}")
        return cls(grid=grid, values=values, seed=seed)


def batch_paths(w: BackwardPath | list) -> BackwardPath:
    """A path as it is (so is a list of one), or a list of paths on one grid as
    one batch: values of shape (n_steps + 1, m, l), path k at values[:, k]."""
    paths = [w] if isinstance(w, BackwardPath) else list(w)
    if not paths:
        raise InvalidArgumentError("need at least one backward path")
    first = paths[0]
    if any(p.grid != first.grid or p.values.shape != first.values.shape
           or p.values.ndim != 2 for p in paths):
        raise InvalidArgumentError("batched backward paths must share the grid and dimension")
    if len(paths) == 1:
        return first
    return BackwardPath(grid=first.grid, values=np.stack([p.values for p in paths], axis=1),
                        seed=first.seed)


def sample_backward_path(grid: TimeGrid, l: int, seed: int) -> BackwardPath:
    """Sample one W trajectory; deterministic given seed."""
    if l < 1:
        raise InvalidArgumentError(f"l must be >= 1, got {l}")
    dW = np.sqrt(grid.dt) * rng.stream(seed).standard_normal((grid.n_steps, l))
    values = np.vstack([np.zeros((1, l)), np.cumsum(dW, axis=0)])
    return BackwardPath(grid=grid, values=values, seed=seed)


def subsample_path(w: BackwardPath, factor: int) -> BackwardPath:
    """Restriction of a path to every factor-th grid node.

    The restricted path is a genuine Brownian trajectory on the coarse grid,
    so solves at nested step counts see one consistent driver.
    """
    if factor < 1 or w.grid.n_steps % factor != 0:
        raise InvalidArgumentError("factor must divide the step count")
    coarse = build_time_grid(w.grid.t0, w.grid.horizon, w.grid.n_steps // factor)
    return BackwardPath(grid=coarse, values=w.values[::factor].copy(), seed=w.seed)


def sample_backward_bridge(grid: TimeGrid, l: int, seed: int, total) -> BackwardPath:
    """Sample W conditioned on W_T - W_0 = total (Brownian bridge plus drift).

    Keeps the quadratic variation of a genuine Brownian draw while pinning
    the endpoint, which matters for schemes carrying an Ito correction.
    """
    base = sample_backward_path(grid, l, seed)
    total = np.atleast_1d(np.asarray(total, dtype=float))
    if total.shape != (l,):
        raise InvalidArgumentError(f"total must have shape ({l},)")
    frac = ((grid.nodes - grid.t0) / (grid.horizon - grid.t0))[:, None]
    values = base.values + frac * (total[None, :] - base.values[-1])
    return BackwardPath(grid=grid, values=values, seed=seed)


@dataclass(frozen=True)
class VolatilityGrid:
    """Finite ascending family of admissible volatilities (scalars in d = 1)."""

    a_values: np.ndarray
    a_low: float
    a_high: float

    def __iter__(self):
        return iter(self.a_values)

    def __len__(self):
        return len(self.a_values)


def build_volatility_grid(a_low: float, a_high: float, n_points: int = 2) -> VolatilityGrid:
    if a_low <= 0:
        raise InvalidArgumentError("volatilities must be strictly positive definite")
    if a_high < a_low:
        raise InvalidArgumentError("a_high must be >= a_low")
    if n_points < 1:
        raise InvalidArgumentError("n_points must be >= 1")
    if a_high == a_low or n_points == 1:
        vals = np.array([a_low], dtype=float)
    else:
        vals = np.linspace(a_low, a_high, n_points)
    return VolatilityGrid(a_values=vals, a_low=float(a_low), a_high=float(vals[-1]))


@dataclass(frozen=True)
class BrownianTree:
    """Recombining moment-matched lattice for X = x0 + int a^{1/2} dB, d = 1.

    Level i holds (branching - 1) * i + 1 nodes.  One-step conditional
    moments are (0, a * dt) exactly by construction.
    """

    grid: TimeGrid
    a: float
    branching: int
    x0: float
    step: float
    transition_probs: np.ndarray = field(repr=False)

    def n_nodes(self, level: int) -> int:
        return (self.branching - 1) * level + 1

    def states(self, level: int) -> np.ndarray:
        j = np.arange(self.n_nodes(level))
        if self.branching == 2:
            return self.x0 + (2 * j - level) * self.step
        return self.x0 + (j - level) * self.step

    def branch_offsets(self) -> np.ndarray:
        if self.branching == 2:
            return np.array([self.step, -self.step])
        return np.array([self.step, 0.0, -self.step])

    def child_expectation(self, values_next: np.ndarray) -> np.ndarray:
        """E_i[v(child)] for each node at the coarser level.

        values_next is indexed over level i+1 nodes along its last axis (a
        leading axis holds one row per backward path); children of node j are
        j .. j + branching - 1 in DESCENDING state order under the indexing
        used by `states` (which ascends), so the slices below pair up with
        ascending offsets.
        """
        p = self.transition_probs
        if self.branching == 2:
            # child states of node j (state s): s + step -> index j+1, s - step -> index j
            return p[0] * values_next[..., 1:] + p[1] * values_next[..., :-1]
        return (p[0] * values_next[..., 2:] + p[1] * values_next[..., 1:-1]
                + p[2] * values_next[..., :-2])

    def child_cross(self, values_next: np.ndarray) -> np.ndarray:
        """E_i[v(child) * (X_{i+1} - X_i)] for each coarser-level node."""
        p = self.transition_probs
        h = self.step
        if self.branching == 2:
            return h * (p[0] * values_next[..., 1:] - p[1] * values_next[..., :-1])
        return h * (p[0] * values_next[..., 2:] - p[2] * values_next[..., :-2])

    def level_probabilities(self) -> list[np.ndarray]:
        """Forward node probabilities per level (root mass 1)."""
        probs = [np.array([1.0])]
        for i in range(self.grid.n_steps):
            nxt = np.zeros(self.n_nodes(i + 1))
            cur = probs[-1]
            for k, pk in enumerate(self.transition_probs):
                # branch k moves node j -> child j + (branching - 1 - k)
                off = self.branching - 1 - k
                nxt[off:off + len(cur)] += pk * cur
            probs.append(nxt)
        return probs


def build_tree(grid: TimeGrid, a, branching: int = 2, x0: float = 0.0) -> BrownianTree:
    """Moment-matched recombining tree; requires d = 1 and a > 0."""
    a_arr = np.asarray(a, dtype=float)
    if a_arr.ndim >= 2 and a_arr.shape != (1, 1):
        raise UnsupportedBackendError("tree backend requires d = 1")
    a_val = float(a_arr.reshape(-1)[0])
    if a_val <= 0:
        raise InvalidArgumentError("a must be positive definite")
    if branching not in (2, 3):
        raise InvalidArgumentError("branching must be 2 or 3")
    if branching == 2:
        step = np.sqrt(a_val * grid.dt)
    else:
        step = np.sqrt(3.0 * a_val * grid.dt)
    return BrownianTree(grid=grid, a=a_val, branching=branching, x0=float(x0),
                        step=float(step), transition_probs=_BRANCH_PROBS[branching])


@dataclass(frozen=True)
class PathEnsemble:
    """Seeded Monte Carlo ensemble of X = x0 + sum a_i^{1/2} dB_i.

    states has shape (n_paths, n_steps + 1, d); increments are the realized
    a^{1/2} dB draws.  Identical for any worker count at fixed seed.
    """

    grid: TimeGrid
    n_paths: int
    control: np.ndarray
    increments: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    seed: int
    x0: float = 0.0

    @property
    def d_dim(self) -> int:
        return self.states.shape[2]

    def quadratic_variation(self) -> np.ndarray:
        """Realized QV per path, summed over components."""
        return np.sum(self.increments ** 2, axis=(1, 2))


def _control_matrix_sqrt(control, n_steps: int):
    """Normalize control to per-step sqrt factors; returns (sqrts, d)."""
    c = np.asarray(control, dtype=float)
    if c.ndim == 0:
        c = np.full(n_steps, float(c))
    if c.ndim == 1:
        if c.shape[0] != n_steps:
            raise InvalidArgumentError(
                f"control must have one entry per step ({n_steps}), got {c.shape[0]}")
        if np.any(c <= 0):
            raise InvalidArgumentError("control must be positive definite at every step")
        return np.sqrt(c)[:, None, None] * np.eye(1)[None, :, :], 1
    if c.ndim == 2:  # single matrix, constant in time
        c = np.broadcast_to(c, (n_steps,) + c.shape)
    if c.ndim != 3 or c.shape[0] != n_steps or c.shape[1] != c.shape[2]:
        raise InvalidArgumentError("control must be scalar, (n_steps,), or (n_steps, d, d)")
    d = c.shape[1]
    sqrts = np.empty_like(c)
    for i in range(n_steps):
        w, v = np.linalg.eigh(0.5 * (c[i] + c[i].T))
        if np.any(w <= 0):
            raise InvalidArgumentError("control must be positive definite at every step")
        sqrts[i] = (v * np.sqrt(w)) @ v.T
    return sqrts, d


def sample_forward_ensemble(grid: TimeGrid, n_paths: int, control, seed: int,
                            x0: float = 0.0, workers: int = 1) -> PathEnsemble:
    """Simulate n_paths forward trajectories under a per-step control."""
    if n_paths < 1:
        raise InvalidArgumentError("n_paths must be >= 1")
    sqrts, d = _control_matrix_sqrt(control, grid.n_steps)
    z = rng.blocked_normals(seed, n_paths, (grid.n_steps, d), workers=workers)
    incs = np.sqrt(grid.dt) * np.einsum("ijk,pik->pij", sqrts, z)
    states = np.empty((n_paths, grid.n_steps + 1, d))
    states[:, 0, :] = x0
    np.cumsum(incs, axis=1, out=states[:, 1:, :])
    states[:, 1:, :] += x0
    return PathEnsemble(grid=grid, n_paths=n_paths, control=np.asarray(control, dtype=float),
                        increments=incs, states=states, seed=seed, x0=float(x0))
