"""Noise-removing flow transform.

The flow eta(t, x, y) solves, backward from eta(T, x, y) = y,

    eta(t, x, y) = y + int_t^T g(s, x, eta(s, x, y)) o dW(backward),

pathwise along the frozen driver W.  Its y-inverse removes the backward
stochastic integral from the equations: composing the solver output with
the inverse turns the doubly stochastic problem into one driven by the
forward noise alone, at the price of a transformed generator (quadratic in
the gradient).  The integrator is a midpoint (Heun) step on the frozen
increments, which is consistent with the Stratonovich reading of the flow
equation; first and second derivatives are integrated alongside via their
variational equations, never by differencing tables.

The flow and its five variational derivatives are one stacked (6, nx, ny)
state (DERIV_NAMES order) that must stay finite at every step.  Partials of g
not supplied analytically are central differences on one shared 3x3 stencil,
g evaluated once per point.  One piecewise-linear root and one set of
inverse-function identities serve tabulated and pointwise inversion alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, NonFiniteError, RangeError, SingularFlowError
from .generators import FD_STEP
from .grids import BackwardPath, TimeGrid, _count, _one_path

DERIV_NAMES = ("eta", "d_y", "d_x", "d_yy", "d_xy", "d_xx")
INVERSE_NAMES = ("eps",) + DERIV_NAMES[1:]
MIN_DY = 1e-10
GROWTH_CAP = 1e6  # largest derivative growth constant growth_check searches


@dataclass(frozen=True)
class FlowCoefficient:
    """Noise intensity g(t, x, y) with optional analytic partials.

    Missing partials fall back to central differences with step FD_STEP.
    g must not depend on the gradient variable.
    """

    g: Callable
    g_x: Optional[Callable] = None
    g_y: Optional[Callable] = None
    g_xx: Optional[Callable] = None
    g_xy: Optional[Callable] = None
    g_yy: Optional[Callable] = None

    def parts(self, t, x, y):
        """g and its partials at (t, x, y), keyed g, x, y, xx, xy, yy.

        g is evaluated once at the centre and once at each point of the 3x3
        stencil (x +- h, y +- h) that a missing partial needs.
        """
        h = FD_STEP
        xv, yv = (x - h, x, x + h), (y - h, y, y + h)
        memo = {}

        def g(i, j):    # g at (x + i h, y + j h)
            if (i, j) not in memo:
                memo[i, j] = np.asarray(self.g(t, xv[i + 1], yv[j + 1]), dtype=float)
            return memo[i, j]

        def part(analytic, central):
            return np.asarray(analytic(t, x, y) if analytic else central(), dtype=float)

        return {
            "g": g(0, 0),
            "x": part(self.g_x, lambda: (g(1, 0) - g(-1, 0)) / (2 * h)),
            "y": part(self.g_y, lambda: (g(0, 1) - g(0, -1)) / (2 * h)),
            "xx": part(self.g_xx, lambda: (g(1, 0) - 2 * g(0, 0) + g(-1, 0)) / h**2),
            "xy": part(self.g_xy, lambda: (g(1, 1) - g(1, -1) - g(-1, 1) + g(-1, -1))
                       / (4 * h**2)),
            "yy": part(self.g_yy, lambda: (g(0, 1) - 2 * g(0, 0) + g(0, -1)) / h**2),
        }


@dataclass
class FlowField:
    """Tables per time index on an (x, y) lattice: the flow (DERIV_NAMES) or,
    from invert_flow, its y-inverse (INVERSE_NAMES) over the target lattice."""

    grid: TimeGrid
    x_lattice: np.ndarray
    y_lattice: np.ndarray
    w: BackwardPath
    tables: dict = field(repr=False)     # name -> (n_t + 1, nx, ny)
    y_core: tuple = None                 # pre-pad target range for inversion

    def eval(self, names, i: int, x, y) -> list:
        """Bilinear values at time index i and points (x, y) of the tables in the
        sequence names, in its order, from one range check (RangeError off the
        lattice, NaN included) and one set of cell weights."""
        if isinstance(names, str):
            raise InvalidArgumentError(f"names is a sequence of table names, got {names!r}")
        xs, ys = self.x_lattice, self.y_lattice
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        _check_range(x, xs, "x")
        _check_range(y, ys, "y")
        ix = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
        iy = np.clip(np.searchsorted(ys, y) - 1, 0, len(ys) - 2)
        tx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
        ty = (y - ys[iy]) / (ys[iy + 1] - ys[iy])
        w00, w10, w01, w11 = (1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty
        return [w00 * v[ix, iy] + w10 * v[ix + 1, iy] + w01 * v[ix, iy + 1]
                + w11 * v[ix + 1, iy + 1] for v in (self.tables[name][i] for name in names)]

    def inverse_at(self, i: int, x, y_target):
        """Solve eta(t_i, x, .) = y_target by monotone piecewise-linear inversion
        (x and y_target broadcast together)."""
        x, y_target = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                                          np.asarray(y_target, dtype=float))
        _check_range(x, self.x_lattice, "x")
        eta_rows = _interp_rows_x(self.tables["eta"][i], self.x_lattice, x)
        return _invert_rows(eta_rows, self.y_lattice, y_target[:, None])[:, 0]


def _check_range(v, lattice, label):
    # written so that a NaN query fails too
    tol = 1e-9 * (abs(lattice[-1] - lattice[0]) + 1.0)
    if not np.all((v >= lattice[0] - tol) & (v <= lattice[-1] + tol)):
        raise RangeError(f"{label} query outside tabulated lattice "
                         f"[{lattice[0]:.4g}, {lattice[-1]:.4g}]")


def _require_invertible(dy_eta, where):
    # written so that a NaN derivative fails too
    if not np.all(dy_eta > MIN_DY):
        raise SingularFlowError(f"flow y-derivative fell to {np.min(dy_eta):.3e} {where}, "
                                f"below the invertibility threshold {MIN_DY:g}")


def _interp_rows_x(table, xs, x):
    ix = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    tx = ((x - xs[ix]) / (xs[ix + 1] - xs[ix]))[:, None]
    return (1 - tx) * table[ix, :] + tx * table[ix + 1, :]


def _invert_rows(eta_rows, y_lattice, targets):
    """Rowwise inverse of monotone tabulated maps (closed-form PL roots):
    row r of targets holds the values sought on row r of eta_rows."""
    lo, hi = eta_rows[:, :1], eta_rows[:, -1:]
    tol = 1e-9 * (np.abs(hi - lo) + 1.0)
    if not np.all((targets >= lo - tol) & (targets <= hi + tol)):  # NaN fails too
        raise RangeError("inversion target outside the flow's range on the y-lattice")
    out = np.empty_like(targets, dtype=float)
    for r in range(eta_rows.shape[0]):
        j = np.clip(np.searchsorted(eta_rows[r], targets[r]) - 1, 0, len(y_lattice) - 2)
        denom = eta_rows[r, j + 1] - eta_rows[r, j]
        frac = (targets[r] - eta_rows[r, j]) / denom
        out[r] = y_lattice[j] + frac * (y_lattice[j + 1] - y_lattice[j])
    return out


def _inverse_partials(flow: FlowField, i: int, x, e, second: bool = True) -> dict:
    """Partials of the y-inverse at (t_i, x, eta(t_i, x, e)), keyed as in INVERSE_NAMES.

    Differentiating eta(t, x, eps(t, x, y)) = y once and twice gives them from
    the flow's partials at (x, e); second=False stops after d_y and d_x.
    """
    names = DERIV_NAMES[1:] if second else DERIV_NAMES[1:3]
    dy_eta, dx_eta, *second_partials = flow.eval(names, i, x, e)
    _require_invertible(dy_eta, f"at step {i}")
    d_y = 1.0 / dy_eta
    out = {"d_y": d_y, "d_x": -dx_eta * d_y}
    if second:
        dyy_eta, dxy_eta, dxx_eta = second_partials
        d_yy = -dyy_eta / dy_eta**3
        d_xy = -(d_yy * dx_eta * dy_eta + d_y * dxy_eta) / dy_eta
        out.update(d_yy=d_yy, d_xy=d_xy,
                   d_xx=-(2 * d_xy * dx_eta + d_yy * dx_eta**2 + d_y * dxx_eta))
    return out


def build_y_lattice(y_lo: float, y_hi: float, n: int, pad: float = 3.0) -> np.ndarray:
    """Target range padded by pad * span on both sides (inversion needs slack)."""
    if not (math.isfinite(y_lo) and math.isfinite(y_hi)):
        raise InvalidArgumentError(f"y range must be finite, got {y_lo} and {y_hi}")
    span = y_hi - y_lo
    if span <= 0:
        raise InvalidArgumentError("y range must have positive width")
    if not 0 <= pad < math.inf:
        raise InvalidArgumentError(f"pad must be nonnegative and finite, got {pad!r}")
    return np.linspace(y_lo - pad * span, y_hi + pad * span, _count(n, "n", least=2))


def solve_flow(coef: FlowCoefficient, w: BackwardPath, x_lattice, y_lattice,
               y_core: Optional[tuple] = None) -> FlowField:
    """Integrate the flow and its variational derivatives backward along one path W.

    Raises NonFiniteError naming the step and lattice node of the first
    non-finite entry, and SingularFlowError when d_y eta falls to MIN_DY.
    """
    xs = np.asarray(x_lattice, dtype=float)
    ys = np.asarray(y_lattice, dtype=float)
    grid = _one_path(w).grid
    n = grid.n_steps
    nx, ny = len(xs), len(ys)
    xm = np.broadcast_to(xs[:, None], (nx, ny))

    # one table per name: a single stacked block of all six measured ~6 MiB
    # more peak RSS on the off_lattice benchmark workload
    tables = {name: np.empty((n + 1, nx, ny)) for name in DERIV_NAMES}
    s = np.zeros((len(DERIV_NAMES), nx, ny))
    s[0], s[1] = ys, 1.0
    for name, v in zip(DERIV_NAMES, s):
        tables[name][n] = v

    def drift(t, s):
        eta, a, b, s_yy, s_xy, s_xx = s
        p = coef.parts(t, xm, eta)
        d = np.empty_like(s)
        d[0] = p["g"]
        d[1] = p["y"] * a
        d[2] = p["x"] + p["y"] * b
        d[3] = p["yy"] * a * a + p["y"] * s_yy
        d[4] = p["xy"] * a + p["yy"] * a * b + p["y"] * s_xy
        d[5] = p["xx"] + 2 * p["xy"] * b + p["yy"] * b * b + p["y"] * s_xx
        return d

    for i in range(n - 1, -1, -1):
        dw = w.values[i + 1] - w.values[i]
        k1 = drift(grid.time(i + 1), s) * dw
        k2 = drift(grid.time(i), s + k1) * dw
        s = s + 0.5 * (k1 + k2)
        bad = np.argwhere(~np.isfinite(s))
        if bad.size:
            k, ix, iy = (int(v) for v in bad[0])
            raise NonFiniteError(
                f"non-finite flow {DERIV_NAMES[k]} at step {i}, node ({ix}, {iy}) "
                f"at x = {xs[ix]:.4g}, y = {ys[iy]:.4g}", step=i, node=(ix, iy))
        _require_invertible(s[1], f"at step {i}")
        for name, v in zip(DERIV_NAMES, s):
            tables[name][i] = v

    if y_core is None:
        q = (ny - 1) // 8
        y_core = (float(ys[q]), float(ys[ny - 1 - q]))
    return FlowField(grid=grid, x_lattice=xs, y_lattice=ys, w=w,
                     tables=tables, y_core=y_core)


def invert_flow(flow: FlowField, targets: Optional[np.ndarray] = None) -> FlowField:
    """Tabulate the y-inverse and its derivatives on a target lattice.

    Derivatives come from the differentiation identities of the inverse
    composition (evaluated at the inverse point), not from differencing.
    """
    if targets is None:
        targets = np.linspace(flow.y_core[0], flow.y_core[1], len(flow.y_lattice))
    targets = np.asarray(targets, dtype=float)
    n = flow.grid.n_steps
    nx, nt = len(flow.x_lattice), len(targets)
    tables = {name: np.empty((n + 1, nx, nt)) for name in INVERSE_NAMES}
    x_mesh = np.broadcast_to(flow.x_lattice[:, None], (nx, nt))
    target_rows = np.broadcast_to(targets, (nx, nt))

    for i in range(n + 1):
        eps = _invert_rows(flow.tables["eta"][i], flow.y_lattice, target_rows)
        tables["eps"][i] = eps
        for name, v in _inverse_partials(flow, i, x_mesh, eps).items():
            tables[name][i] = v

    return FlowField(grid=flow.grid, x_lattice=flow.x_lattice, y_lattice=targets,
                     w=flow.w, tables=tables)


@dataclass
class IdentityReport:
    max_violation: float
    per_identity: dict


def derivative_identity_report(flow: FlowField, inv: FlowField,
                               n_samples: int = 300, seed: int = 0) -> IdentityReport:
    """Evaluate the inverse-composition identities and the chain rule off-lattice."""
    rs = np.random.default_rng(seed)
    n = flow.grid.n_steps
    xs, ys = inv.x_lattice, inv.y_lattice
    i_smp = rs.integers(0, n + 1, size=n_samples)
    x_smp = rs.uniform(xs[1], xs[-2], size=n_samples)
    y_smp = rs.uniform(ys[1], ys[-2], size=n_samples)

    viol = dict.fromkeys(("inverse_pair", "d_x_pair", "d_yy_pair", "d_xy_pair",
                          "d_xx_pair", "chain_dx", "roundtrip"), 0.0)

    def record(name, residual):
        viol[name] = max(viol[name], float(np.max(np.abs(residual))))

    for i in np.unique(i_smp):
        m = i_smp == i
        x, y = x_smp[m], y_smp[m]
        e, de_y, de_x, de_yy, de_xy, de_xx = inv.eval(INVERSE_NAMES, i, x, y)
        eta, dn_y, dn_x, dn_yy, dn_xy, dn_xx = flow.eval(DERIV_NAMES, i, x, e)
        record("inverse_pair", de_y * dn_y - 1.0)
        record("d_x_pair", de_x + de_y * dn_x)
        record("d_yy_pair", de_yy * dn_y**2 + de_y * dn_yy)
        record("d_xy_pair", de_xy * dn_y + de_yy * dn_x * dn_y + de_y * dn_xy)
        record("d_xx_pair", de_xx + 2 * de_xy * dn_x + de_yy * dn_x**2 + de_y * dn_xx)
        record("roundtrip", eta - y)

    # chain rule on a composite field psi(t, x) = eta(t, x, phi(t, x)) with a
    # smooth test phi; reference derivative by central differences across x
    phi = lambda t, x: 0.3 * np.sin(x) + 0.1 * x
    dphi = lambda t, x: 0.3 * np.cos(x) + 0.1
    xs_in = xs[2:-2]
    h = xs[1] - xs[0]
    for i in (0, n // 2, n):
        t = flow.grid.time(i)
        psi = lambda xv: flow.eval(("eta",), i, xv, phi(t, xv))[0]
        lhs = (psi(xs_in + h) - psi(xs_in - h)) / (2 * h)
        d_x, d_y = flow.eval(("d_x", "d_y"), i, xs_in, phi(t, xs_in))
        rhs = d_x + d_y * dphi(t, xs_in)
        record("chain_dx", lhs - rhs)

    return IdentityReport(max_violation=max(viol.values()), per_identity=viol)


def transformed_generator(f: Callable, flow: FlowField) -> Callable:
    """Generator of the transformed (noise-free) equation.

    Returns F(t, x, y, z, a), in the solver's time: t must be a node of the
    flow's grid (`TimeGrid.index`, InvalidArgumentError otherwise), so F
    plugs straight into a `TbdsdeProblem` or a `RandomPdeProblem`.  At the
    node t_i it evaluates

        (1 / d_y eta) [ f(t_i, x, eta, d_y eta z + d_x eta, a)
                        - a d_xx eta / 2 - z a d_xy eta - d_yy eta a z^2 / 2 ]

    with all flow derivatives read at (t_i, x, y).
    """

    def F(t, x, y, z, a):
        i = flow.grid.index(t)
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(y)):  # no flow derivative to invert at a NaN query
            raise SingularFlowError(f"non-finite y query at step {i}: flow not invertible there")
        eta, dy, dx, dyy, dxy, dxx = flow.eval(DERIV_NAMES, i, x, y)
        _require_invertible(dy, f"at a query at step {i}")
        inner = (np.asarray(f(flow.grid.time(i), x, eta, dy * z + dx, a), dtype=float)
                 - 0.5 * a * dxx - z * a * dxy - 0.5 * dyy * a * z * z)
        return inner / dy

    return F


def transform_solution(Y_levels, Z_levels, K_increments, flow: FlowField,
                       states_per_level) -> tuple:
    """Pointwise change of variables on solution traces.

        U = inverse(t, x, Y),  V = d_y inv * Z + d_x inv,  dKt = d_y inv * dK

    The inverse and its first derivatives are evaluated by rowwise inversion
    of the flow at the queried states, so traces need not sit on a lattice.
    The transformed compensator increments stay nonnegative.
    """
    n = flow.grid.n_steps
    U, V, Kt = [], [], []
    for i in range(n + 1):
        x = np.asarray(states_per_level[i], dtype=float)
        y = np.asarray(Y_levels[i], dtype=float)
        u = flow.inverse_at(i, x, y)
        d = _inverse_partials(flow, i, x, u, second=False)
        U.append(u)
        V.append(d["d_y"] * np.asarray(Z_levels[i], dtype=float) + d["d_x"])
        if K_increments is not None and i < n:
            Kt.append(d["d_y"] * np.asarray(K_increments[i], dtype=float))
    return U, V, (Kt if K_increments is not None else None)


def untransform_solution(U_levels, V_levels, Kt_increments, flow: FlowField,
                         states_per_level) -> tuple:
    """Inverse change of variables: Y = eta(t, x, U), Z = d_y eta V + d_x eta."""
    n = flow.grid.n_steps
    Y, Z, K = [], [], []
    for i in range(n + 1):
        x = np.asarray(states_per_level[i], dtype=float)
        u = np.asarray(U_levels[i], dtype=float)
        eta, dy_eta, dx_eta = flow.eval(DERIV_NAMES[:3], i, x, u)
        Y.append(eta)
        Z.append(dy_eta * np.asarray(V_levels[i], dtype=float) + dx_eta)
        if Kt_increments is not None and i < n:
            K.append(dy_eta * np.asarray(Kt_increments[i], dtype=float))
    return Y, Z, (K if Kt_increments is not None else None)


def consistency_check_transform(f: Callable, flow: FlowField, inv: FlowField,
                                samples, a: float) -> float:
    """Max discrepancy between the two routes to the transformed generator.

    The combination built from inverse derivatives at the original point,

        d_y inv * f + a d_xx inv / 2 + d_yy inv (a^{1/2} z)^2 / 2 + d_xy inv z a,

    must equal transformed_generator's F evaluated at the transformed point.
    samples is an iterable of (i, x, y, z) with i a time index.
    """
    F = transformed_generator(f, flow)
    worst = 0.0
    for (i, x, y, z) in samples:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
        z = np.broadcast_to(np.asarray(z, dtype=float), x.shape)
        u, de_y, de_x, de_yy, de_xy, de_xx = inv.eval(INVERSE_NAMES, i, x, y)
        t = flow.grid.time(i)
        lhs = (de_y * np.asarray(f(t, x, y, z, a), dtype=float)
               + 0.5 * de_xx * a + 0.5 * de_yy * a * z * z + de_xy * z * a)
        rhs = F(t, x, u, de_y * z + de_x, a)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@dataclass
class GrowthReport:
    value_bound_c: dict          # per field, per norm variant
    derivative_bound_c: dict
    cap: float
    within_cap: bool


def growth_check(flow: FlowField, inv: FlowField) -> GrowthReport:
    """Fit the smallest constants in the value and derivative growth bounds,
    searching derivative constants up to GROWTH_CAP.

    Two driver norms are reported for each bound because the bound's time
    argument is ambiguous for a flow integrating over [t, T]: the position
    |W_t| and the remaining-increment sup over [t, T].
    """
    n = flow.grid.n_steps
    wv = flow.w.values
    norms = {
        "position": np.abs(wv),
        "increment_sup": np.array([np.max(np.abs(wv[i:] - wv[i])) for i in range(n + 1)]),
    }

    def fit_value(table, lattice_y):
        excess = np.max(np.abs(table) - np.abs(lattice_y), axis=(1, 2))  # per level
        return {nm: float(np.max(excess[m >= 1e-12] / m[m >= 1e-12], initial=0.0))
                for nm, m in norms.items()}

    def fit_deriv(field, names):
        dmax = np.max([np.max(np.abs(field.tables[nm]), axis=(1, 2)) for nm in names], axis=0)
        out = {}
        for nm, mvals in norms.items():
            lo, hi = 0.0, GROWTH_CAP
            log_d = np.log(np.maximum(dmax, 1e-300))
            def feasible(c):
                if c <= 0.0:
                    return bool(np.all(dmax <= 1e-12))
                return bool(np.all(math.log(c) + c * mvals >= log_d - 1e-12))
            if not feasible(hi):
                out[nm] = math.inf
                continue
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    hi = mid
                else:
                    lo = mid
            out[nm] = hi
        return out

    value_c = {
        "flow": fit_value(flow.tables["eta"], flow.y_lattice),
        "inverse": fit_value(inv.tables["eps"], inv.y_lattice),
    }
    deriv_c = {
        "flow": fit_deriv(flow, DERIV_NAMES[1:]),
        "inverse": fit_deriv(inv, INVERSE_NAMES[1:]),
    }
    finite = all(math.isfinite(v) for d in deriv_c.values() for v in d.values())
    return GrowthReport(value_bound_c=value_c, derivative_bound_c=deriv_c,
                        cap=GROWTH_CAP, within_cap=finite)
