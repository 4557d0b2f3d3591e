"""Nonlinearities: convex conjugation in the curvature slot, the Stratonovich
transform of a problem, and sampled generator checks.

The Hamiltonian h(t, x, y, z, gamma) is conjugated over a finite curvature
grid to obtain F_conj(t, x, y, z, a).  A TbdsdeProblem with F = -F_conj
conjugates it back over its volatility grid: second_order.hamiltonian of
that problem is the effective (convex, nondecreasing) Hamiltonian actually
solved, since the solver adds its F.
A numeric code needs an explicit blow-up rule for the extended-real F: the
grid supremum is probed on geometrically extended curvature grids and a
+inf sentinel is returned once it keeps growing past a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import InvalidArgumentError
from .grids import TimeGrid, _count

if TYPE_CHECKING:
    from .second_order import TbdsdeProblem

BLOWUP_THRESHOLD = 1.0e6
FD_STEP = 1.0e-5


@dataclass(frozen=True)
class HamiltonianSpec:
    """h(t, x, y, z, gamma) with a finite curvature grid (d = 1 scalars)."""

    h: Callable
    gamma_domain: np.ndarray

    def __post_init__(self):
        dom = np.asarray(self.gamma_domain, dtype=float)
        if dom.size == 0:
            raise InvalidArgumentError("gamma_domain must be nonempty")
        if not np.any(np.isclose(dom, 0.0)):
            raise InvalidArgumentError("gamma_domain must contain 0")
        object.__setattr__(self, "gamma_domain", dom)


def fenchel_conjugate(spec: HamiltonianSpec, state, a: float) -> float:
    """sup over the curvature grid of (a*gamma/2 - h); +inf when unbounded.

    Unboundedness is detected by re-evaluating the supremum on curvature
    grids with geometrically extended span: if it keeps growing and exceeds
    BLOWUP_THRESHOLD on two successive extensions, the conjugate is treated
    as +inf at this (state, a).  This is the conjugate layer's convention,
    h = sup_a (a gamma / 2 - F_conj(a)); the solver's Hamiltonian adds its F
    (second_order.hamiltonian), so it takes F = -F_conj.
    """
    if a <= 0:
        raise InvalidArgumentError("a must be positive definite")
    t, x, y, z = state
    gam = spec.gamma_domain
    vals = 0.5 * a * gam - spec.h(t, x, y, z, gam)
    best = float(np.max(vals))

    span = max(abs(gam[0]), abs(gam[-1]), 1.0)
    prev = best
    hits = 0
    for _ in range(12):
        span *= 4.0
        probe = np.linspace(-span, span, 129)
        v = float(np.max(0.5 * a * probe - spec.h(t, x, y, z, probe)))
        if v > BLOWUP_THRESHOLD:
            hits += 1
            if hits >= 2:
                return math.inf
        if v <= prev * (1 + 1e-12) + 1e-12:
            break
        prev = v
    return best


def make_conjugate_map(spec: HamiltonianSpec) -> Callable:
    """Vectorized F_conj(t, x, y, z, a) built by grid conjugation of h.

    a broadcasts with x, y and z, and each entry is conjugated at its own a.
    A TbdsdeProblem whose Hamiltonian is h takes F = -make_conjugate_map(spec),
    because second_order.hamiltonian adds F: max_a (a gamma / 2 + F(a)), the
    conjugate of F_conj over the problem's volatility grid.
    """

    def F(t, x, y, z, a):
        # a leading path axis of y and z, and a column a, broadcast over the states x
        x, y, z, a = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z, a)))
        out = np.empty(x.shape)
        for idx in np.ndindex(x.shape):
            out[idx] = fenchel_conjugate(
                spec, (t, x[idx], y[idx], z[idx]), float(a[idx]))
        return out

    return F


@dataclass(frozen=True)
class GeneratorConstants:
    C: float          # Lipschitz constant of F in (y, z)
    alpha: float      # z-contraction of g, in [0, 1)
    lam: float        # in [0, 1), pairs with alpha via (1 - lam) a >= alpha
    c: float = 1.0    # growth constant of g g^T
    beta: float = 0.0  # z z^T growth coefficient, in [0, 1)


def stratonovich_correction(problem: TbdsdeProblem,
                            dy_g: Optional[Callable] = None) -> TbdsdeProblem:
    """A Stratonovich-read problem's equation, read Ito (right endpoint):
    F becomes F + g * d_y g / 2 and the reading "ito".  An Ito-read problem
    raises InvalidArgumentError, so no problem is converted twice.

    g and the driver W are scalar, so the correction is elementwise at every
    state and path.  d_y g is the analytic dy_g(t, x, y, z) when given, else
    the central difference of g with step FD_STEP.  Everything else, the
    declared lipschitz_f too, is the problem's own: declare the constant of
    the corrected F.
    """
    if problem.reading != "stratonovich":
        raise InvalidArgumentError(f"stratonovich_correction takes a Stratonovich-read "
                                   f"problem, got one read {problem.reading!r}")
    F, g = problem.F, problem.g
    if dy_g is None:
        def dy_g(t, x, y, z):
            return (np.asarray(g(t, x, y + FD_STEP, z), dtype=float)
                    - np.asarray(g(t, x, y - FD_STEP, z), dtype=float)) / (2.0 * FD_STEP)

    def F_strat(t, x, y, z, a):
        return F(t, x, y, z, a) + 0.5 * np.asarray(g(t, x, y, z), dtype=float) * dy_g(t, x, y, z)
    return replace(problem, F=F_strat, reading="ito")


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst_violation: float
    worst_sample: tuple = field(default=())


@dataclass
class AssumptionReport:
    checks: list[AssumptionCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _node_draws(grid: TimeGrid, n_samples: int, seed: int) -> tuple:
    """(rs, nodes): the generator seeded with seed after it drew n_samples node
    indices of grid uniformly, and, per distinct one in ascending order, its
    time and its samples' indices.  n_samples < 1 raises InvalidArgumentError."""
    n_samples = _count(n_samples, "n_samples")
    rs = np.random.default_rng(seed)
    i = rs.integers(0, grid.n_steps + 1, size=n_samples)
    return rs, [(grid.time(int(j)), np.flatnonzero(i == j)) for j in np.unique(i)]


def _worst(name: str, violation: np.ndarray, tol: float, samples: tuple) -> AssumptionCheck:
    """The check that passes when the largest violation is finite and <= tol,
    with the sample it was found at; -inf, where nothing was compared, fails."""
    k = np.unravel_index(np.argmax(violation), violation.shape)
    worst = float(violation[k])
    at = tuple(float(np.broadcast_to(s, violation.shape)[k]) for s in samples)
    return AssumptionCheck(name, -math.inf < worst <= tol, worst,
                           at if worst > -math.inf else ())


def validate_assumptions(problem: TbdsdeProblem, constants: GeneratorConstants,
                         grid: TimeGrid, n_samples: int = 200,
                         seed: int = 0) -> AssumptionReport:
    """Sampled pass/fail report for the structural conditions on the
    problem's g, F and volatility grid under the declared constants.

    A sample is a node of grid (`_node_draws`), x, two states (y, z) and a
    volatility; g and F are called once per drawn node, at its time, on its
    samples' two states as a (2, samples) batch.  A pair where F is not
    finite is skipped, and a check that compared nothing fails at -inf.
    Report-only: each check carries the worst violating sample.  Sampling
    can refute but not certify the conditions.
    """
    rs, nodes = _node_draws(grid, n_samples, seed)
    cst, volgrid = constants, problem.volgrid
    x = rs.normal(size=n_samples)
    y, z = 2.0 * rs.normal(size=(2, 2, n_samples))
    a = rs.choice(volgrid.a_values, size=n_samples)
    t, gv, fv = np.empty(n_samples), np.empty(y.shape), np.empty(y.shape)
    for t_i, k in nodes:
        t[k] = t_i
        gv[:, k] = problem.g(t_i, x[k], y[:, k], z[:, k])
        fv[:, k] = problem.F(t_i, x[k], y[:, k], z[:, k], a[k])
    dy, dz = np.abs(y[0] - y[1]), np.abs(z[0] - z[1])
    pair = (t, x, y[0], y[1], z[0], z[1])

    # g contraction: ||g(y,z) - g(y',z')||^2 <= C|y-y'|^2 + alpha||z-z'||^2
    checks = [_worst("g_contraction", (gv[0] - gv[1]) ** 2 - (cst.C * dy**2 + cst.alpha * dz**2),
                     1e-10 * (1 + abs(cst.C)), pair)]

    # z-contraction coefficient must stay below 1 for the fixed point to close
    checks.append(AssumptionCheck("alpha_below_one", cst.alpha < 1.0,
                                  cst.alpha - 1.0, (cst.alpha,)))

    # (1 - lam) a >= alpha for every admissible volatility
    margin = (1.0 - cst.lam) * volgrid.a_low - cst.alpha
    checks.append(AssumptionCheck("ellipticity", margin >= 0.0, -margin,
                                  (volgrid.a_low,)))

    # growth: g g^T <= c (1 + y^2) + beta z z^T at both states
    checks.append(_worst("g_growth", gv**2 - (cst.c * (1 + y * y) + cst.beta * z * z),
                         1e-10 * (1 + cst.c), (t, x, y, z)))

    # F Lipschitz in (y, a^{1/2} z), on the pairs where F is finite at both states
    finite = np.isfinite(fv).all(axis=0)
    f1, f2 = np.where(finite, fv, 0.0)  # no inf - inf on a skipped pair
    lip = np.abs(f1 - f2) - cst.C * (dy + np.sqrt(a) * dz)
    checks.append(_worst("F_lipschitz", np.where(finite, lip, -math.inf),
                         1e-8 * (1 + cst.C), pair + (a,)))

    return AssumptionReport(checks)
