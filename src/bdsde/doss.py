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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, RangeError, SingularFlowError
from .generators import g_dot
from .grids import BackwardPath, TimeGrid

DERIV_NAMES = ("eta", "d_y", "d_x", "d_yy", "d_xy", "d_xx")
MIN_DY = 1e-10


@dataclass(frozen=True)
class FlowCoefficient:
    """Noise intensity g(t, x, y) with optional analytic partials.

    Missing partials fall back to central differences with step fd_step.
    g must not depend on the gradient variable.
    """

    g: Callable
    g_x: Optional[Callable] = None
    g_y: Optional[Callable] = None
    g_xx: Optional[Callable] = None
    g_xy: Optional[Callable] = None
    g_yy: Optional[Callable] = None
    fd_step: float = 1e-5

    def _fd(self, which, t, x, y):
        h = self.fd_step
        g = self.g
        if which == "x":
            return (g(t, x + h, y) - g(t, x - h, y)) / (2 * h)
        if which == "y":
            return (g(t, x, y + h) - g(t, x, y - h)) / (2 * h)
        if which == "xx":
            return (g(t, x + h, y) - 2 * g(t, x, y) + g(t, x - h, y)) / h**2
        if which == "yy":
            return (g(t, x, y + h) - 2 * g(t, x, y) + g(t, x, y - h)) / h**2
        return (g(t, x + h, y + h) - g(t, x + h, y - h)
                - g(t, x - h, y + h) + g(t, x - h, y - h)) / (4 * h**2)

    def parts(self, t, x, y):
        return {
            "g": np.asarray(self.g(t, x, y), dtype=float),
            "x": np.asarray(self.g_x(t, x, y) if self.g_x else self._fd("x", t, x, y), dtype=float),
            "y": np.asarray(self.g_y(t, x, y) if self.g_y else self._fd("y", t, x, y), dtype=float),
            "xx": np.asarray(self.g_xx(t, x, y) if self.g_xx else self._fd("xx", t, x, y), dtype=float),
            "xy": np.asarray(self.g_xy(t, x, y) if self.g_xy else self._fd("xy", t, x, y), dtype=float),
            "yy": np.asarray(self.g_yy(t, x, y) if self.g_yy else self._fd("yy", t, x, y), dtype=float),
        }


@dataclass
class FlowField:
    grid: TimeGrid
    x_lattice: np.ndarray
    y_lattice: np.ndarray
    w: BackwardPath
    tables: dict = field(repr=False)     # name -> (n_t + 1, nx, ny)
    y_core: tuple = None                 # pre-pad target range for inversion

    def eval(self, name: str, i: int, x, y):
        """Bilinear evaluation of a table at time index i."""
        return _bilinear(self.tables[name][i], self.x_lattice, self.y_lattice, x, y)

    def inverse_at(self, i: int, x, y_target):
        """Solve eta(t_i, x, .) = y_target by monotone piecewise-linear inversion."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y_target = np.atleast_1d(np.asarray(y_target, dtype=float))
        _check_range(x, self.x_lattice, "x")
        eta_rows = _interp_rows_x(self.tables["eta"][i], self.x_lattice, x)
        return _invert_rows(eta_rows, self.y_lattice, y_target)


@dataclass
class InverseField:
    grid: TimeGrid
    x_lattice: np.ndarray
    y_lattice: np.ndarray               # target values where the inverse is tabulated
    w: BackwardPath
    tables: dict = field(repr=False)

    def eval(self, name: str, i: int, x, y):
        return _bilinear(self.tables[name][i], self.x_lattice, self.y_lattice, x, y)


def _check_range(v, lattice, label):
    tol = 1e-9 * (abs(lattice[-1] - lattice[0]) + 1.0)
    if np.any(v < lattice[0] - tol) or np.any(v > lattice[-1] + tol):
        raise RangeError(f"{label} query outside tabulated lattice "
                         f"[{lattice[0]:.4g}, {lattice[-1]:.4g}]")


def _bilinear(table, xs, ys, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    _check_range(x, xs, "x")
    _check_range(y, ys, "y")
    ix = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    iy = np.clip(np.searchsorted(ys, y) - 1, 0, len(ys) - 2)
    tx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
    ty = (y - ys[iy]) / (ys[iy + 1] - ys[iy])
    v00 = table[ix, iy]
    v10 = table[ix + 1, iy]
    v01 = table[ix, iy + 1]
    v11 = table[ix + 1, iy + 1]
    return ((1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10
            + (1 - tx) * ty * v01 + tx * ty * v11)


def _interp_rows_x(table, xs, x):
    ix = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    tx = ((x - xs[ix]) / (xs[ix + 1] - xs[ix]))[:, None]
    return (1 - tx) * table[ix, :] + tx * table[ix + 1, :]


def _invert_rows(eta_rows, y_lattice, targets):
    """Rowwise inverse of monotone tabulated maps (closed-form PL roots)."""
    lo, hi = eta_rows[:, 0], eta_rows[:, -1]
    tol = 1e-9 * (np.abs(hi - lo) + 1.0)
    if np.any(targets < lo - tol) or np.any(targets > hi + tol):
        raise RangeError("inversion target outside the flow's range on the y-lattice")
    out = np.empty_like(targets, dtype=float)
    for r in range(eta_rows.shape[0]):
        j = np.clip(np.searchsorted(eta_rows[r], targets[r]) - 1, 0, len(y_lattice) - 2)
        denom = eta_rows[r, j + 1] - eta_rows[r, j]
        frac = (targets[r] - eta_rows[r, j]) / denom
        out[r] = y_lattice[j] + frac * (y_lattice[j + 1] - y_lattice[j])
    return out


def build_y_lattice(y_lo: float, y_hi: float, n: int, pad: float = 3.0) -> np.ndarray:
    """Target range padded by pad * span on both sides (inversion needs slack)."""
    span = y_hi - y_lo
    if span <= 0:
        raise InvalidArgumentError("y range must have positive width")
    return np.linspace(y_lo - pad * span, y_hi + pad * span, n)


def solve_flow(coef: FlowCoefficient, w: BackwardPath, x_lattice, y_lattice,
               y_core: Optional[tuple] = None) -> FlowField:
    """Integrate the flow and its variational derivatives backward along W."""
    xs = np.asarray(x_lattice, dtype=float)
    ys = np.asarray(y_lattice, dtype=float)
    grid = w.grid
    n = grid.n_steps
    nx, ny = len(xs), len(ys)
    xm = np.broadcast_to(xs[:, None], (nx, ny))

    tables = {name: np.empty((n + 1, nx, ny)) for name in DERIV_NAMES}
    state = {
        "eta": np.broadcast_to(ys[None, :], (nx, ny)).copy(),
        "d_y": np.ones((nx, ny)),
        "d_x": np.zeros((nx, ny)),
        "d_yy": np.zeros((nx, ny)),
        "d_xy": np.zeros((nx, ny)),
        "d_xx": np.zeros((nx, ny)),
    }
    for name in DERIV_NAMES:
        tables[name][n] = state[name]

    def drift(t, st):
        p = coef.parts(t, xm, st["eta"])
        a, b = st["d_y"], st["d_x"]
        return {
            "eta": p["g"],
            "d_y": p["y"] * a,
            "d_x": p["x"] + p["y"] * b,
            "d_yy": p["yy"] * a * a + p["y"] * st["d_yy"],
            "d_xy": p["xy"] * a + p["yy"] * a * b + p["y"] * st["d_xy"],
            "d_xx": p["xx"] + 2 * p["xy"] * b + p["yy"] * b * b + p["y"] * st["d_xx"],
        }

    for i in range(n - 1, -1, -1):
        t_i, t_next = grid.time(i), grid.time(i + 1)
        dw = w.values[i + 1] - w.values[i]
        k1 = drift(t_next, state)
        pred = {k: state[k] + g_dot(k1[k], dw) for k in state}
        k2 = drift(t_i, pred)
        state = {k: state[k] + 0.5 * (g_dot(k1[k], dw) + g_dot(k2[k], dw))
                 for k in state}
        if float(state["d_y"].min()) <= MIN_DY:
            raise SingularFlowError(
                f"flow y-derivative fell to {state['d_y'].min():.3e} at step {i}")
        for name in DERIV_NAMES:
            tables[name][i] = state[name]

    if y_core is None:
        q = (ny - 1) // 8
        y_core = (float(ys[q]), float(ys[ny - 1 - q]))
    return FlowField(grid=grid, x_lattice=xs, y_lattice=ys, w=w,
                     tables=tables, y_core=y_core)


def invert_flow(flow: FlowField, targets: Optional[np.ndarray] = None) -> InverseField:
    """Tabulate the y-inverse and its derivatives on a target lattice.

    Derivatives come from the differentiation identities of the inverse
    composition (evaluated at the inverse point), not from differencing.
    """
    if targets is None:
        targets = np.linspace(flow.y_core[0], flow.y_core[1], len(flow.y_lattice))
    targets = np.asarray(targets, dtype=float)
    n = flow.grid.n_steps
    nx, nt = len(flow.x_lattice), len(targets)
    tables = {name: np.empty((n + 1, nx, nt)) for name in
              ("eps", "d_y", "d_x", "d_yy", "d_xy", "d_xx")}

    for i in range(n + 1):
        eta_rows = flow.tables["eta"][i]
        for r in range(nx):
            row = eta_rows[r]
            j = np.clip(np.searchsorted(row, targets) - 1, 0, len(flow.y_lattice) - 2)
            denom = row[j + 1] - row[j]
            lo, hi = row[0], row[-1]
            tol = 1e-9 * (abs(hi - lo) + 1.0)
            if np.any(targets < lo - tol) or np.any(targets > hi + tol):
                raise RangeError("inversion target outside the flow's range")
            frac = (targets - row[j]) / denom
            e_vals = flow.y_lattice[j] + frac * (flow.y_lattice[j + 1] - flow.y_lattice[j])
            tables["eps"][i, r] = e_vals

        e_vals = tables["eps"][i]
        x_mesh = np.broadcast_to(flow.x_lattice[:, None], e_vals.shape)
        dy_eta = flow.eval("d_y", i, x_mesh, e_vals)
        dx_eta = flow.eval("d_x", i, x_mesh, e_vals)
        dyy_eta = flow.eval("d_yy", i, x_mesh, e_vals)
        dxy_eta = flow.eval("d_xy", i, x_mesh, e_vals)
        dxx_eta = flow.eval("d_xx", i, x_mesh, e_vals)
        if float(dy_eta.min()) <= MIN_DY:
            raise SingularFlowError("flow y-derivative below invertibility threshold")
        d_y = 1.0 / dy_eta
        d_x = -dx_eta * d_y
        d_yy = -dyy_eta / dy_eta**3
        d_xy = -(d_yy * dx_eta * dy_eta + d_y * dxy_eta) / dy_eta
        d_xx = -(2 * d_xy * dx_eta + d_yy * dx_eta**2 + d_y * dxx_eta)
        tables["d_y"][i], tables["d_x"][i] = d_y, d_x
        tables["d_yy"][i], tables["d_xy"][i], tables["d_xx"][i] = d_yy, d_xy, d_xx

    return InverseField(grid=flow.grid, x_lattice=flow.x_lattice, y_lattice=targets,
                        w=flow.w, tables=tables)


@dataclass
class IdentityReport:
    max_violation: float
    per_identity: dict


def derivative_identity_report(flow: FlowField, inv: InverseField,
                               n_samples: int = 300, seed: int = 0) -> IdentityReport:
    """Evaluate the inverse-composition identities and the chain rule off-lattice."""
    rs = np.random.default_rng(seed)
    n = flow.grid.n_steps
    xs, ys = inv.x_lattice, inv.y_lattice
    i_smp = rs.integers(0, n + 1, size=n_samples)
    x_smp = rs.uniform(xs[1], xs[-2], size=n_samples)
    y_smp = rs.uniform(ys[1], ys[-2], size=n_samples)

    viol = {k: 0.0 for k in ("inverse_pair", "d_x_pair", "d_yy_pair", "d_xy_pair",
                             "d_xx_pair", "chain_dx", "roundtrip")}
    for i in np.unique(i_smp):
        m = i_smp == i
        x, y = x_smp[m], y_smp[m]
        e = inv.eval("eps", i, x, y)
        de_y = inv.eval("d_y", i, x, y)
        de_x = inv.eval("d_x", i, x, y)
        de_yy = inv.eval("d_yy", i, x, y)
        de_xy = inv.eval("d_xy", i, x, y)
        de_xx = inv.eval("d_xx", i, x, y)
        dn_y = flow.eval("d_y", i, x, e)
        dn_x = flow.eval("d_x", i, x, e)
        dn_yy = flow.eval("d_yy", i, x, e)
        dn_xy = flow.eval("d_xy", i, x, e)
        dn_xx = flow.eval("d_xx", i, x, e)

        viol["inverse_pair"] = max(viol["inverse_pair"],
                                   float(np.max(np.abs(de_y * dn_y - 1.0))))
        viol["d_x_pair"] = max(viol["d_x_pair"],
                               float(np.max(np.abs(de_x + de_y * dn_x))))
        viol["d_yy_pair"] = max(viol["d_yy_pair"],
                                float(np.max(np.abs(de_yy * dn_y**2 + de_y * dn_yy))))
        viol["d_xy_pair"] = max(viol["d_xy_pair"],
                                float(np.max(np.abs(de_xy * dn_y + de_yy * dn_x * dn_y
                                                    + de_y * dn_xy))))
        viol["d_xx_pair"] = max(viol["d_xx_pair"],
                                float(np.max(np.abs(de_xx + 2 * de_xy * dn_x
                                                    + de_yy * dn_x**2 + de_y * dn_xx))))
        viol["roundtrip"] = max(viol["roundtrip"],
                                float(np.max(np.abs(flow.eval("eta", i, x, e) - y))))

    # chain rule on a composite field psi(t, x) = eta(t, x, phi(t, x)) with a
    # smooth test phi; reference derivative by central differences across x
    phi = lambda t, x: 0.3 * np.sin(x) + 0.1 * x
    dphi = lambda t, x: 0.3 * np.cos(x) + 0.1
    xs_in = xs[2:-2]
    h = xs[1] - xs[0]
    for i in (0, n // 2, n):
        t = flow.grid.time(i)
        psi = lambda xv: flow.eval("eta", i, xv, phi(t, xv))
        lhs = (psi(xs_in + h) - psi(xs_in - h)) / (2 * h)
        rhs = (flow.eval("d_x", i, xs_in, phi(t, xs_in))
               + flow.eval("d_y", i, xs_in, phi(t, xs_in)) * dphi(t, xs_in))
        viol["chain_dx"] = max(viol["chain_dx"], float(np.max(np.abs(lhs - rhs))))

    return IdentityReport(max_violation=max(viol.values()), per_identity=viol)


def transformed_generator(f: Callable, flow: FlowField) -> Callable:
    """Generator of the transformed (noise-free) equation.

    Returns ftilde(i, x, y, z, a) with i a time index: evaluates

        (1 / d_y eta) [ f(t, x, eta, d_y eta z + d_x eta, a)
                        - a d_xx eta / 2 - z a d_xy eta - d_yy eta a z^2 / 2 ]

    with all flow derivatives read at (t_i, x, y).
    """

    def ftilde(i, x, y, z, a):
        x = np.asarray(x, dtype=float)
        eta = flow.eval("eta", i, x, y)
        dy = flow.eval("d_y", i, x, y)
        if float(np.min(dy)) <= MIN_DY:
            raise SingularFlowError("flow y-derivative below threshold at query")
        dx = flow.eval("d_x", i, x, y)
        dxx = flow.eval("d_xx", i, x, y)
        dxy = flow.eval("d_xy", i, x, y)
        dyy = flow.eval("d_yy", i, x, y)
        t = flow.grid.time(i)
        inner = (np.asarray(f(t, x, eta, dy * z + dx, a), dtype=float)
                 - 0.5 * a * dxx - z * a * dxy - 0.5 * dyy * a * z * z)
        return inner / dy

    return ftilde


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
        dy_eta = flow.eval("d_y", i, x, u)
        dx_eta = flow.eval("d_x", i, x, u)
        de_y = 1.0 / dy_eta
        de_x = -dx_eta * de_y
        U.append(u)
        V.append(de_y * np.asarray(Z_levels[i], dtype=float) + de_x)
        if K_increments is not None and i < n:
            Kt.append(de_y * np.asarray(K_increments[i], dtype=float))
    return U, V, (Kt if K_increments is not None else None)


def untransform_solution(U_levels, V_levels, Kt_increments, flow: FlowField,
                         states_per_level) -> tuple:
    """Inverse change of variables: Y = eta(t, x, U), Z = d_y eta V + d_x eta."""
    n = flow.grid.n_steps
    Y, Z, K = [], [], []
    for i in range(n + 1):
        x = np.asarray(states_per_level[i], dtype=float)
        u = np.asarray(U_levels[i], dtype=float)
        dy_eta = flow.eval("d_y", i, x, u)
        dx_eta = flow.eval("d_x", i, x, u)
        Y.append(flow.eval("eta", i, x, u))
        Z.append(dy_eta * np.asarray(V_levels[i], dtype=float) + dx_eta)
        if Kt_increments is not None and i < n:
            K.append(dy_eta * np.asarray(Kt_increments[i], dtype=float))
    return Y, Z, (K if Kt_increments is not None else None)


def consistency_check_transform(f: Callable, flow: FlowField, inv: InverseField,
                                samples, a: float) -> float:
    """Max discrepancy between the two routes to the transformed generator.

    The combination built from inverse derivatives at the original point,

        d_y inv * f + a d_xx inv / 2 + d_yy inv (a^{1/2} z)^2 / 2 + d_xy inv z a,

    must equal ftilde evaluated at the transformed point.  samples is an
    iterable of (i, x, y, z).
    """
    ftilde = transformed_generator(f, flow)
    worst = 0.0
    for (i, x, y, z) in samples:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
        z = np.broadcast_to(np.asarray(z, dtype=float), x.shape)
        de_y = inv.eval("d_y", i, x, y)
        de_x = inv.eval("d_x", i, x, y)
        de_yy = inv.eval("d_yy", i, x, y)
        de_xy = inv.eval("d_xy", i, x, y)
        de_xx = inv.eval("d_xx", i, x, y)
        t = flow.grid.time(i)
        lhs = (de_y * np.asarray(f(t, x, y, z, a), dtype=float)
               + 0.5 * de_xx * a + 0.5 * de_yy * a * z * z + de_xy * z * a)
        u = inv.eval("eps", i, x, y)
        v = de_y * z + de_x
        rhs = ftilde(i, x, u, v, a)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@dataclass
class GrowthReport:
    value_bound_c: dict          # per field, per norm variant
    derivative_bound_c: dict
    cap: float
    within_cap: bool


def growth_check(flow: FlowField, inv: InverseField, cap: float = 1e6) -> GrowthReport:
    """Fit the smallest constants in the value and derivative growth bounds.

    Two driver norms are reported for each bound because the bound's time
    argument is ambiguous for a flow integrating over [t, T]: the position
    |W_t| and the remaining-increment sup over [t, T].
    """
    n = flow.grid.n_steps
    wv = flow.w.values[:, 0]
    norms = {
        "position": np.abs(wv),
        "increment_sup": np.array([np.max(np.abs(wv[i:] - wv[i])) for i in range(n + 1)]),
    }

    def fit_value(tables, lattice_y):
        out = {}
        for nm, mvals in norms.items():
            c = 0.0
            for i in range(n + 1):
                m = mvals[i]
                if m < 1e-12:
                    continue
                excess = np.abs(tables[i]) - np.abs(lattice_y)[None, :]
                c = max(c, float(np.max(excess)) / m)
            out[nm] = c
        return out

    def fit_deriv(field, names):
        dmax = np.zeros(n + 1)
        for i in range(n + 1):
            dmax[i] = max(float(np.max(np.abs(field.tables[nm][i]))) for nm in names)
        out = {}
        for nm, mvals in norms.items():
            lo, hi = 0.0, cap
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
        "flow": fit_deriv(flow, ("d_y", "d_x", "d_yy", "d_xy", "d_xx")),
        "inverse": fit_deriv(inv, ("d_y", "d_x", "d_yy", "d_xy", "d_xx")),
    }
    finite = all(math.isfinite(v) for d in deriv_c.values() for v in d.values())
    return GrowthReport(value_bound_c=value_c, derivative_bound_c=deriv_c,
                        cap=cap, within_cap=finite)
