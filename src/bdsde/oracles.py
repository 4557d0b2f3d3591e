"""Independent ground truth: closed forms, a finite-difference solver, and
a numerical witness of the mixed forward/backward product formula.

These never share code paths with the probabilistic solvers they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidArgumentError,
    NonFiniteError,
    StabilityError,
    UnsupportedOracleError,
)
from .generators import _node_draws
from .grids import BackwardPath, PathEnsemble, TimeGrid, _count, _one_path

QUAD_NODES = 64      # Gauss-Hermite nodes of heat_semigroup on a callable
Z_PROBE = 1e-6       # gradient probe of the fd upwind choice
GAMMA_PROBE = 1e-4   # curvature probe of the fd stability bound


def heat_semigroup(phi, a: float, tau: float) -> Callable:
    """x -> E[phi(x + sqrt(a tau) N)] with N standard normal.

    phi given as ascending polynomial coefficients uses exact Gaussian
    moments; a callable phi is integrated by QUAD_NODES-point Gauss-Hermite
    quadrature.
    """
    if not (0.0 <= a < math.inf and 0.0 <= tau < math.inf):
        raise InvalidArgumentError(f"a and tau must be nonnegative and finite, got {a} and {tau}")
    sig2 = a * tau

    if not callable(phi):
        coeffs = np.asarray(phi, dtype=float)
        deg = len(coeffs) - 1
        out = np.zeros_like(coeffs)
        for k in range(deg + 1):
            for j in range(0, k + 1, 2):
                mom = float(np.prod(np.arange(j - 1, 0, -2)))  # (j - 1)!!
                out[k - j] += coeffs[k] * math.comb(k, j) * mom * sig2 ** (j // 2)

        def poly_value(x):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), out)

        return poly_value

    nodes, weights = np.polynomial.hermite.hermgauss(QUAD_NODES)
    weights = weights / math.sqrt(math.pi)
    shift = math.sqrt(2.0 * sig2)

    def quad_value(x):
        x = np.asarray(x, dtype=float)
        return np.sum(weights * phi(x[..., None] + shift * nodes), axis=-1)

    return quad_value


def fit_quadratic(phi: Callable, center: float, half_width: float):
    """Exact quadratic coefficients of phi, or raise if phi is not quadratic.

    Mixed curvature signs on the probe grid also raise: the uncertain
    volatility value has no single-regime closed form there.
    """
    xs = np.linspace(center - half_width, center + half_width, 41)
    vals = np.asarray(phi(xs), dtype=float)
    scale = 1.0 + float(np.max(np.abs(vals)))
    d2 = np.diff(vals, 2)
    if np.any(d2 > 1e-9 * scale) and np.any(d2 < -1e-9 * scale):
        raise UnsupportedOracleError("terminal data has mixed curvature; use the FD oracle")
    c = np.polynomial.polynomial.polyfit(xs, vals, 2)
    resid = np.max(np.abs(np.polynomial.polynomial.polyval(xs, c) - vals))
    if resid > 1e-8 * scale:
        raise UnsupportedOracleError("terminal data is not quadratic; use the FD oracle")
    return c  # ascending: c0 + c1 x + c2 x^2


def bsb_closed_form(phi: Callable, a_low: float, a_high: float, horizon: float,
                    t: float, x) -> np.ndarray:
    """Uncertain-volatility value for single-signed quadratic terminal data.

    Convex data propagates under the high volatility, concave under the low
    one; zero curvature makes the choice irrelevant.
    """
    half_width = 6.0 * math.sqrt(a_high * max(horizon, 1e-12)) + 1.0
    c0, c1, c2 = fit_quadratic(phi, float(np.mean(np.atleast_1d(x))), half_width)
    a_eff = a_high if c2 > 0 else a_low
    x = np.asarray(x, dtype=float)
    return c2 * (x**2 + a_eff * (horizon - t)) + c1 * x + c0


def linear_spde_closed_form(beta: float, phi, w: BackwardPath, t: float, x):
    """Value of the semilinear family with multiplicative backward noise.

    The noise-removing flow is the exponential scale exp(beta (W_T - W_t));
    what remains is the unit-volatility heat semigroup.  t must be a node of
    w's grid (`TimeGrid.index`), and w one `BackwardPath`; anything else
    raises InvalidArgumentError.
    """
    grid = _one_path(w).grid
    scale = math.exp(beta * float(w.tail_increment(grid.index(t))))
    return scale * heat_semigroup(phi, 1.0, grid.horizon - t)(x)


@dataclass(frozen=True)
class RandomPdeProblem:
    """Backward PDE for the FD oracle; a frozen W enters only through its coefficients."""

    hhat_tilde: Callable               # (t, x, y, z, gamma) -> array
    terminal: Callable
    x_domain: tuple
    boundary: Optional[Callable] = None  # (t, x) -> value; None = linear extrapolation

    def parabolicity_report(self, grid: TimeGrid, n_samples: int = 100, seed: int = 0) -> float:
        """Worst decrease of hhat_tilde along sampled curvature lines (>= 0 wanted):
        two calls per node of grid drawn by `generators._node_draws`, at its
        samples' sorted curvatures gamma_lo <= gamma_hi."""
        rs, nodes = _node_draws(grid, n_samples, seed)
        x = rs.uniform(*self.x_domain, size=n_samples)
        y, z = rs.normal(size=(2, n_samples))
        gam_lo, gam_hi = np.sort(3.0 * rs.normal(size=(2, n_samples)), axis=0)
        worst = 0.0
        for t, k in nodes:
            lo, hi = (np.asarray(self.hhat_tilde(t, x[k], y[k], z[k], gam[k]), dtype=float)
                      for gam in (gam_lo, gam_hi))
            worst = min(worst, float(np.min(hi - lo)))
        return worst


@np.errstate(all="ignore")  # a blow-up is one NonFiniteError at its step, not warnings
def fd_random_pde(problem: RandomPdeProblem, grid: TimeGrid, x_steps: int):
    """Explicit backward finite differences, upwinded first derivative.

    Returns (xs, v0), the level-0 row of x_steps + 1 values; the backward
    steps hold two rows, so memory is O(x_steps) whatever n_steps.  The
    curvature sensitivity is probed on the terminal data to enforce the
    parabolic stability bound before stepping.  The first row that is not
    finite raises NonFiniteError naming its step (the terminal row is step
    n_steps) and its first bad node.
    """
    lo, hi = problem.x_domain
    xs = np.linspace(lo, hi, _count(x_steps, "x_steps", least=2) + 1)
    dx = xs[1] - xs[0]
    n, dt = grid.n_steps, grid.dt

    cur = np.broadcast_to(np.asarray(problem.terminal(xs), dtype=float), xs.shape)
    inner = slice(1, -1)

    # stability probe: dt * 2 * dh/dgamma <= dx^2
    d2 = (cur[2:] - 2 * cur[1:-1] + cur[:-2]) / dx**2
    d1 = (cur[2:] - cur[:-2]) / (2 * dx)
    h_up, h_dn = (np.asarray(problem.hhat_tilde(grid.horizon, xs[inner], cur[inner], d1, d2 + gam))
                  for gam in (GAMMA_PROBE, -GAMMA_PROBE))
    diffusivity = float(np.max((h_up - h_dn) / (2 * GAMMA_PROBE)))
    if diffusivity > 0 and dt * 2.0 * diffusivity > dx**2:
        raise StabilityError(
            f"explicit step unstable: dt = {dt:.3g} exceeds dx^2 / (2 D) with D = {diffusivity:.3g}",
            suggested_dt=0.9 * dx**2 / (2.0 * diffusivity))

    for i in range(n, -1, -1):  # cur is level i: check it, then step to level i - 1
        if not np.isfinite(cur).all():
            node = int(np.argmax(~np.isfinite(cur)))
            raise NonFiniteError(f"non-finite fd value at step {i}, node {node}",
                                 step=i, node=node)
        if i == 0:
            return xs, cur
        t_i = grid.time(i)
        d2 = (cur[2:] - 2 * cur[1:-1] + cur[:-2]) / dx**2
        fwd = (cur[2:] - cur[1:-1]) / dx
        bwd = (cur[1:-1] - cur[:-2]) / dx
        ctr = 0.5 * (fwd + bwd)
        h_zp = np.asarray(problem.hhat_tilde(t_i, xs[inner], cur[inner], ctr + Z_PROBE, d2))
        h_zm = np.asarray(problem.hhat_tilde(t_i, xs[inner], cur[inner], ctr - Z_PROBE, d2))
        dz = np.where(h_zp - h_zm >= 0, fwd, bwd)  # monotone upwind choice
        row = np.empty(len(xs))
        row[inner] = cur[inner] + dt * np.asarray(
            problem.hhat_tilde(t_i, xs[inner], cur[inner], dz, d2), dtype=float)
        if problem.boundary is not None:
            row[0], row[-1] = (problem.boundary(grid.time(i - 1), x) for x in (xs[0], xs[-1]))
        else:
            row[0] = 2 * row[1] - row[2]
            row[-1] = 2 * row[-2] - row[-3]
        cur = row


@dataclass(frozen=True)
class ItoProcess:
    """Semimartingale components for the product-formula check.

    Callables take (t, b, w_val) with b the per-path forward states and
    w_val the frozen backward value at t; missing components are zero.
    k is a deterministic bounded-variation path sampled at grid nodes.
    """

    x0: float = 0.0
    alpha: Optional[Callable] = None
    beta: Optional[Callable] = None
    gamma: Optional[Callable] = None
    k: Optional[np.ndarray] = None

    def _eval(self, fn, t, b, w_val, n_paths):
        if fn is None:
            return np.zeros(n_paths)
        return np.broadcast_to(np.asarray(fn(t, b, w_val), dtype=float), (n_paths,)).copy()


@dataclass
class ItoProductReport:
    mean_abs_residual: float
    mean_residual: float
    bracket_sign: float


def ito_product_check(p1: ItoProcess, p2: ItoProcess, ensemble: PathEnsemble,
                      w: BackwardPath, flip_backward_bracket: bool = False) -> ItoProductReport:
    """Simulate both sides of the mixed product formula.

    The ds-bracket of step i carries a_i beta^1 beta^2 from the forward
    driver, a_i the ensemble's control on that step, and MINUS gamma^1 gamma^2
    from the backward one; flipping that sign (the control experiment) must
    break convergence.
    """
    _one_path(w)
    grid = ensemble.grid
    n, dt = grid.n_steps, grid.dt
    N = ensemble.n_paths
    B = ensemble.states
    dB_raw = ensemble.increments
    sign = +1.0 if flip_backward_bracket else -1.0

    def components(p, i):
        """(alpha, beta, gamma) of p on step i, each evaluated once."""
        t_i, t_next = grid.time(i), grid.time(i + 1)
        return (p._eval(p.alpha, t_i, B[:, i], w.values[i], N),
                p._eval(p.beta, t_i, B[:, i], w.values[i], N),
                p._eval(p.gamma, t_next, B[:, i + 1], w.values[i + 1], N))

    X1, X2 = np.empty((N, n + 1)), np.empty((N, n + 1))
    X1[:, 0], X2[:, 0] = p1.x0, p2.x0
    rhs = np.zeros(N)
    for i in range(n):
        dw = w.values[i + 1] - w.values[i]
        (al1, be1, ga1), (al2, be2, ga2) = components(p1, i), components(p2, i)
        for p, X, al, be, ga in ((p1, X1, al1, be1, ga1), (p2, X2, al2, be2, ga2)):
            dk = (p.k[i + 1] - p.k[i]) if p.k is not None else 0.0
            X[:, i + 1] = X[:, i] + al * dt + be * dB_raw[:, i] + ga * dw + dk
        rhs += (ensemble.control[i] * be1 * be2 + sign * ga1 * ga2
                + al1 * X2[:, i] + al2 * X1[:, i]) * dt
        rhs += (X2[:, i] * be1 + X1[:, i] * be2) * dB_raw[:, i]
        rhs += (X1[:, i + 1] * ga2 + X2[:, i + 1] * ga1) * dw
        if p2.k is not None:
            rhs += X1[:, i] * (p2.k[i + 1] - p2.k[i])
        if p1.k is not None:
            rhs += X2[:, i] * (p1.k[i + 1] - p1.k[i])

    lhs = X1[:, -1] * X2[:, -1] - X1[:, 0] * X2[:, 0]
    res = lhs - rhs
    return ItoProductReport(mean_abs_residual=float(np.abs(res).mean()),
                            mean_residual=float(res.mean()),
                            bracket_sign=sign)
