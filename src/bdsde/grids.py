"""Time grids, frozen backward paths, and forward-noise structures.

The forward noise B is one-dimensional, represented either exactly (the
binomial tree) or by a seeded Monte Carlo ensemble under a piecewise
constant volatility control: a positive scalar or one volatility per step.
The backward Brownian path W is frozen per run: a single sampled trajectory
stands in for conditioning on the external noise.  A `BackwardPath` is one
such path; statistics over W come from a list of paths, which only
`classical.backward_sweep` stacks to solve them together.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError
from . import rng

@dataclass(frozen=True)
class TimeGrid:
    """n_steps steps of dt from t0 to horizon; index(t) maps a node's time(i) back to i."""

    t0: float
    horizon: float
    n_steps: int
    dt: float

    @property
    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def time(self, i: int) -> float:
        return self.t0 + self.dt * i

    def index(self, t: float) -> int:
        """The node i with |time(i) - t| <= 1e-9 (1 + |t|); any other t, NaN
        and the infinities included, raises InvalidArgumentError."""
        q = (float(t) - self.t0) / self.dt
        i = round(q) if math.isfinite(q) else -1
        if not (0 <= i <= self.n_steps and abs(self.time(i) - t) <= 1e-9 * (1 + abs(t))):
            raise InvalidArgumentError(f"t must be a node of the time grid on "
                                       f"[{self.t0}, {self.horizon}], got {t}")
        return i


def _count(value, name: str, least: int = 1) -> int:
    """value as an int, or InvalidArgumentError unless it is an integral number >= least."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer() and value >= least):
        raise InvalidArgumentError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _start(x0) -> float:
    """x0 as a float, or InvalidArgumentError unless it is one finite number."""
    if np.ndim(x0) != 0 or not math.isfinite(x0):
        raise InvalidArgumentError(f"x0 must be one finite start, got {x0!r}")
    return float(x0)


def build_time_grid(t0: float, horizon: float, n: int) -> TimeGrid:
    """Uniform grid of n steps on [t0, horizon]."""
    if not (np.isfinite(t0) and np.isfinite(horizon)):
        raise InvalidArgumentError(f"t0 and horizon must be finite, got {t0} and {horizon}")
    if horizon <= t0:
        raise InvalidArgumentError(f"horizon {horizon} must exceed t0 {t0}")
    n = _count(n, "n_steps")
    return TimeGrid(t0=float(t0), horizon=float(horizon), n_steps=n,
                    dt=(float(horizon) - float(t0)) / n)


@dataclass(frozen=True)
class BackwardPath:
    """Frozen trajectory of the scalar backward driver W on a time grid.

    values, stored as a float array, has shape (n_steps + 1,), values[0] = 0
    for a sampled path; any other shape, or a value that is not finite, raises
    InvalidArgumentError.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_steps + 1,):
            raise InvalidArgumentError(
                f"a backward path holds {self.grid.n_steps + 1} values in a 1-D array, "
                f"got shape {values.shape}")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InvalidArgumentError(f"a backward path must be finite, got "
                                       f"{values[bad[0]]} at node {bad[0]}")
        object.__setattr__(self, "values", values)

    @property
    def increments(self) -> np.ndarray:
        """dW_i = W_{t_{i+1}} - W_{t_i}, shape (n_steps,)."""
        return np.diff(self.values)

    def tail_increment(self, i: int):
        """W_T - W_{t_i}."""
        return self.values[-1] - self.values[i]


def _one_path(w) -> BackwardPath:
    """w, or InvalidArgumentError unless it is one BackwardPath: only the
    solvers take a list of paths."""
    if not isinstance(w, BackwardPath):
        raise InvalidArgumentError(f"this takes one BackwardPath, got {type(w).__name__}")
    return w


def sample_backward_path(grid: TimeGrid, seed: int) -> BackwardPath:
    """Sample one W trajectory: 0, then the running sum of sqrt(dt) times the
    n_steps standard normals of seed's stream."""
    dW = np.sqrt(grid.dt) * rng.stream(seed).standard_normal(grid.n_steps)
    return BackwardPath(grid=grid, values=np.concatenate([[0.0], np.cumsum(dW)]))


def subsample_path(w: BackwardPath, factor: int) -> BackwardPath:
    """Restriction of a path to every factor-th grid node.

    The restricted path is a genuine Brownian trajectory on the coarse grid,
    so solves at nested step counts see one consistent driver.
    """
    factor = _count(factor, "factor")
    if w.grid.n_steps % factor != 0:
        raise InvalidArgumentError("factor must divide the step count")
    coarse = build_time_grid(w.grid.t0, w.grid.horizon, w.grid.n_steps // factor)
    return BackwardPath(grid=coarse, values=w.values[::factor].copy())


def sample_backward_bridge(grid: TimeGrid, seed: int, total: float) -> BackwardPath:
    """Sample W conditioned on W_T - W_0 = total (Brownian bridge plus drift).

    Keeps the quadratic variation of a genuine Brownian draw while pinning
    the endpoint, which matters for schemes carrying an Ito correction.
    """
    if not np.isfinite(total):
        raise InvalidArgumentError(f"the bridge endpoint must be finite, got {total}")
    base = sample_backward_path(grid, seed)
    frac = (grid.nodes - grid.t0) / (grid.horizon - grid.t0)
    values = base.values + frac * (float(total) - base.values[-1])
    return BackwardPath(grid=grid, values=values)


@dataclass(frozen=True)
class VolatilityGrid:
    """Finite ascending family of admissible volatilities (scalars in d = 1)."""

    a_values: np.ndarray
    a_low: float
    a_high: float


def build_volatility_grid(a_low: float, a_high: float, n_points: int = 2) -> VolatilityGrid:
    if not (np.isfinite(a_low) and np.isfinite(a_high)):
        raise InvalidArgumentError(f"volatility bounds must be finite, got {a_low} and {a_high}")
    if a_low <= 0:
        raise InvalidArgumentError("volatilities must be strictly positive definite")
    if a_high < a_low:
        raise InvalidArgumentError("a_high must be >= a_low")
    n_points = _count(n_points, "n_points")
    if a_high == a_low or n_points == 1:
        vals = np.array([a_low], dtype=float)
    else:
        vals = np.linspace(a_low, a_high, n_points)
    return VolatilityGrid(a_values=vals, a_low=float(a_low), a_high=float(vals[-1]))


@dataclass(frozen=True)
class BrownianTree:
    """Binomial tree for X = x0 + int a^{1/2} dB, d = 1 (Cox, Ross and Rubinstein).

    Level i holds i + 1 nodes, node j at x0 + (2j - i) * step.  Each node moves
    up or down by step = sqrt(a * dt) with probability 1/2, so one-step
    conditional moments are (0, a * dt) exactly.  a and step may also be
    (V, 1) columns, V trees on one grid whose levels carry the volatility as
    a leading axis (see classical.solve_tree); build_tree builds a single tree.
    """

    grid: TimeGrid
    a: float
    x0: float
    step: float

    def n_nodes(self, level: int) -> int:
        return level + 1

    def states(self, level: int) -> np.ndarray:
        """The level's node states, a read-only view of every 2nd entry of `_line`."""
        n = self.grid.n_steps
        if not 0 <= level <= n:
            raise InvalidArgumentError(f"the tree has levels 0 to {n}, got {level}")
        return self._line[..., n - level:n + level + 1:2]

    @cached_property
    def _line(self) -> np.ndarray:
        """x0 + m * step for m = -n_steps, ..., n_steps: every state of every level."""
        n = self.grid.n_steps
        line = self.x0 + np.arange(-n, n + 1) * self.step
        line.flags.writeable = False
        return line

    def child_expectation(self, values_next: np.ndarray) -> np.ndarray:
        """E_i[v(child)] for each node at the coarser level.

        values_next is indexed over level i+1 nodes along its last axis (a
        leading axis holds one row per backward path); node j's children are
        j + 1 (up) and j (down).
        """
        return 0.5 * values_next[..., 1:] + 0.5 * values_next[..., :-1]

    def child_cross(self, values_next: np.ndarray) -> np.ndarray:
        """E_i[v(child) * (X_{i+1} - X_i)] for each coarser-level node."""
        return self.step * (0.5 * values_next[..., 1:] - 0.5 * values_next[..., :-1])

    def level_probabilities(self) -> list[np.ndarray]:
        """Forward node probabilities per level (root mass 1)."""
        probs = [np.array([1.0])]
        for i in range(self.grid.n_steps):
            nxt = np.zeros(self.n_nodes(i + 1))
            cur = probs[-1]
            nxt[1:] += 0.5 * cur   # up: node j -> child j + 1
            nxt[:-1] += 0.5 * cur  # down: node j -> child j
            probs.append(nxt)
        return probs


def build_tree(grid: TimeGrid, a, x0: float = 0.0) -> BrownianTree:
    """Binomial tree under one positive, finite scalar volatility a, rooted at a finite x0."""
    if np.ndim(a) != 0 or not (0 < float(a) < np.inf):
        raise InvalidArgumentError(f"a must be one positive, finite volatility, got {a!r}")
    a_val = float(a)
    return BrownianTree(grid=grid, a=a_val, x0=_start(x0), step=float(np.sqrt(a_val * grid.dt)))


@dataclass(frozen=True)
class PathEnsemble:
    """Seeded Monte Carlo ensemble of X = x0 + sum a_i^{1/2} dB_i in d = 1.

    control holds the volatility a_i of each step, shape (n_steps,).  states
    has shape (n_paths, n_steps + 1) and views a time-major array, so
    states[:, i] is contiguous; it is all the ensemble stores.  Identical for
    any worker count at fixed seed.
    """

    grid: TimeGrid
    n_paths: int
    control: np.ndarray
    states: np.ndarray = field(repr=False)
    seed: int
    x0: float = 0.0

    @property
    def increments(self) -> np.ndarray:
        """dX_i = X_{t_{i+1}} - X_{t_i}, shape (n_paths, n_steps), built on each access."""
        return np.diff(self.states, axis=1)


def _step_controls(control, n_steps: int) -> np.ndarray:
    """The (n_steps,) volatilities of a positive scalar or per-step control."""
    c = np.array(control, dtype=float)
    if c.ndim == 0:
        c = np.full(n_steps, float(c))
    if c.shape != (n_steps,):
        raise InvalidArgumentError(
            f"control must be a scalar or one volatility per step, shape ({n_steps},); "
            f"got shape {c.shape}")
    if not np.all((c > 0) & np.isfinite(c)):
        raise InvalidArgumentError(f"control must be positive and finite at every step, got {c}")
    return c


def sample_forward_ensemble(grid: TimeGrid, n_paths: int, control, seed: int,
                            x0: float = 0.0, workers: int = 1) -> PathEnsemble:
    """Simulate n_paths forward trajectories under a scalar or per-step control.

    Step i's increment of path p is sqrt(dt) * (sqrt(a_i) * z[p, i]), z the
    `rng.blocked_normals` draws of shape (n_paths, n_steps) for seed, and the
    states are x0 plus their running sums.  Each Philox block of z is summed
    into the states as it is drawn, so no increments or whole z are held.
    """
    n_paths, x0 = _count(n_paths, "n_paths"), _start(x0)
    a = _step_controls(control, grid.n_steps)
    states = np.zeros((grid.n_steps + 1, n_paths))

    def fill(lo, hi, z):
        block = states[:, lo:hi]  # summed row by row: np.cumsum along axis 0 strides
        for i in range(grid.n_steps):
            np.add(block[i], np.sqrt(a[i]) * z[:, i] * np.sqrt(grid.dt), out=block[i + 1])
        block += x0

    rng.for_blocks(seed, n_paths, (grid.n_steps,), fill, workers)
    return PathEnsemble(grid=grid, n_paths=n_paths, control=a, states=states.T, seed=seed,
                        x0=x0)
