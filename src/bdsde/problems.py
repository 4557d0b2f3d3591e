"""Named problem registry binding concrete data to solvers and oracles.

Each problem is one TbdsdeProblem; every backend derives what it solves
from it (see harness._solve_paths).  A classical problem is the one over
the volatility set {1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .generators import stratonovich_correction
from .grids import (
    TimeGrid,
    build_time_grid,
    build_volatility_grid,
    sample_backward_bridge,
    sample_backward_path,
)
from .oracles import bsb_closed_form, linear_spde_closed_form
from .reflected import Barrier
from .second_order import TbdsdeProblem

ZERO = lambda t, x, y, z: 0.0     # an absent g: the number 0 broadcasts
FZERO = lambda t, x, y, z, a: 0.0  # an absent F


@dataclass(frozen=True)
class ProblemDef:
    """One registry entry: the equation, the only reader of the config, an
    optional barrier, and its oracle (or None)."""

    name: str
    backends: tuple
    description: str
    x0: float = 0.0
    equation: Optional[Callable] = None           # (cfg) -> TbdsdeProblem
    barrier: Optional[Callable] = None            # (grid) -> Barrier (reflected backend)
    oracle: Optional[Callable] = None             # (problem, w, x0) -> y0 on W path 0
    w_sampler: Optional[Callable] = None          # (grid, seed) -> BackwardPath


def grid_from(cfg) -> TimeGrid:
    return build_time_grid(cfg.get("grid", "t0"), cfg.get("grid", "horizon"),
                           cfg.get("grid", "n_steps"))


DEFAULT_BAND = (0.5, 2.0)  # (a_low, a_high) of a config that sets neither bound


def volgrid_from(cfg):
    """The [volgrid] band, DEFAULT_BAND when it sets neither bound
    (ExperimentConfig.validate rejects a band with one bound)."""
    a_low, a_high = cfg.get("volgrid", "a_low"), cfg.get("volgrid", "a_high")
    band = DEFAULT_BAND if a_low is None and a_high is None else (a_low, a_high)
    return build_volatility_grid(*band, cfg.get("volgrid", "n_points"))


def backward_path_for(pdef: ProblemDef, grid: TimeGrid, seed: int):
    if pdef.w_sampler is not None:
        return pdef.w_sampler(grid, seed)
    return sample_backward_path(grid, seed)


# ---------------------------------------------------------------------------
# concrete problems

CLASSICAL = build_volatility_grid(1.0, 1.0, 1)


def _classical(terminal, F=FZERO, g=ZERO, lipschitz_f=None, reading="ito"):
    """The classical equation: one problem over the volatility set {1}."""
    problem = TbdsdeProblem(terminal=terminal, F=F, g=g, volgrid=CLASSICAL,
                            lipschitz_f=lipschitz_f, reading=reading)
    return lambda cfg: problem


def _bsb(terminal, F=FZERO, g=ZERO, lipschitz_f=None, reading="ito"):
    """A problem over the configured volatility band ([volgrid])."""
    return lambda cfg: TbdsdeProblem(terminal=terminal, F=F, g=g, volgrid=volgrid_from(cfg),
                                     lipschitz_f=lipschitz_f, reading=reading)


BETA_DOSS = 0.5   # g = BETA_DOSS y of bsb_doss
BETA_SPDE = 0.4   # g = BETA_SPDE y of linear_spde


def _bsb_oracle(problem, w, x0):
    """The uncertain-volatility closed form of the solved band's single-signed quadratic."""
    return float(bsb_closed_form(problem.terminal, problem.volgrid.a_low, problem.volgrid.a_high,
                                 w.grid.horizon, w.grid.t0, x0))


def _doss_oracle(problem, w, x0):
    """The noiseless convex quadratic's value under the exponential flow."""
    return math.exp(BETA_DOSS * float(w.tail_increment(0))) * (
        x0**2 + problem.volgrid.a_high * (w.grid.horizon - w.grid.t0))


def _put(x):
    return np.maximum(1.0 - x, 0.0)


REGISTRY = {
    "identity": ProblemDef(
        name="identity", backends=("tree", "mc"),
        description="terminal X_T with zero generators; exact at any step count",
        equation=_classical(lambda x: x),
        oracle=lambda problem, w, x0: x0),
    "heat_quadratic": ProblemDef(
        name="heat_quadratic", backends=("tree", "mc", "fd"),
        description="terminal X_T^2 under unit volatility; heat-kernel oracle",
        equation=_classical(lambda x: x**2),
        oracle=lambda problem, w, x0: x0**2 + (w.grid.horizon - w.grid.t0)),
    "classical_bdsde_linear": ProblemDef(
        name="classical_bdsde_linear", backends=("tree", "dp"),
        description="linear generator, unit terminal; exponential oracle; "
                    "singleton volatility grid exercises the classical reduction",
        equation=_classical(lambda x: np.ones_like(x), F=lambda t, x, y, z, a: 0.5 * y,
                            lipschitz_f=0.5),
        oracle=lambda problem, w, x0: math.exp(0.5 * (w.grid.horizon - w.grid.t0))),
    "bsb_quadratic": ProblemDef(
        name="bsb_quadratic", backends=("dp", "fd"),
        description="uncertain volatility, convex quadratic terminal", x0=1.0,
        equation=_bsb(lambda x: x**2), oracle=_bsb_oracle),
    "bsb_concave": ProblemDef(
        name="bsb_concave", backends=("dp",),
        description="uncertain volatility, concave quadratic terminal", x0=1.0,
        equation=_bsb(lambda x: -(x**2)), oracle=_bsb_oracle),
    "bsb_mixed": ProblemDef(
        name="bsb_mixed", backends=("dp", "fd"),
        description="mixed-convexity terminal; no closed form (the fd backend is the reference)",
        x0=0.0, equation=_bsb(lambda x: np.where(x > 0, x**2, -(x**2))),
        oracle=None),
    "bsb_doss": ProblemDef(
        name="bsb_doss", backends=("dp",),
        description="uncertain volatility with multiplicative backward noise "
                    "g = y/2; positively homogeneous Hamiltonian gives a "
                    "closed form through the exponential flow", x0=1.0,
        # F = 0 read Stratonovich is F = BETA_DOSS^2 y / 2 read Ito
        equation=lambda cfg: stratonovich_correction(
            _bsb(lambda x: x**2, g=lambda t, x, y, z: BETA_DOSS * y,
                 lipschitz_f=BETA_DOSS**2 / 2, reading="stratonovich")(cfg),
            dy_g=lambda t, x, y, z: BETA_DOSS),
        oracle=_doss_oracle),
    "linear_spde": ProblemDef(
        name="linear_spde", backends=("tree", "mc"),
        description="semilinear family with multiplicative backward noise, "
                    "frozen driver pinned to W_T - W_0 = 1/4", x0=0.0,
        # Stratonovich form of the semilinear family: zero generator, midpoint noise
        equation=_classical(lambda x: x**2, g=lambda t, x, y, z: BETA_SPDE * y,
                            reading="stratonovich"),
        w_sampler=lambda grid, seed: sample_backward_bridge(grid, seed, total=0.25),
        oracle=lambda problem, w, x0: float(linear_spde_closed_form(
            BETA_SPDE, [0.0, 0.0, 1.0], w, w.grid.t0, x0))),
    "reflected_stop_now": ProblemDef(
        name="reflected_stop_now", backends=("reflected",),
        description="unit barrier dropping to zero at maturity; immediate "
                    "stopping is optimal",
        equation=_classical(lambda x: 0.0 * x), oracle=lambda problem, w, x0: 1.0,
        barrier=lambda grid: Barrier(
            fn=lambda t, x: np.where(t < grid.horizon - 1e-12, 1.0, 0.0) + 0.0 * x)),
    "reflected_put": ProblemDef(
        name="reflected_put", backends=("reflected",),
        description="discounted put payoff as its own barrier", x0=1.0,
        equation=_classical(_put, F=lambda t, x, y, z, a: -0.4 * y, lipschitz_f=0.4),
        barrier=lambda grid: Barrier(fn=lambda t, x: _put(x)), oracle=None),
}


def get_problem(name: str) -> ProblemDef:
    if name not in REGISTRY:
        raise ConfigError(f"unknown problem {name!r}; see list-problems")
    return REGISTRY[name]
