"""Named problem registry binding concrete data to solvers and oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .classical import BdsdeProblem
from .errors import ConfigError
from .grids import (
    TimeGrid,
    build_time_grid,
    build_volatility_grid,
    sample_backward_bridge,
    sample_backward_path,
)
from .oracles import RandomPdeProblem, bsb_closed_form, linear_spde_closed_form
from .reflected import Barrier
from .second_order import TbdsdeProblem

ZERO = lambda t, x, y, z: np.zeros_like(np.asarray(x, dtype=float))
FZERO = lambda t, x, y, z, a: np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ProblemDef:
    """One registry entry: data builders plus its oracle (or None)."""

    name: str
    backends: tuple
    description: str
    x0: float = 0.0
    g_scheme: str = "ito"
    classical: Optional[Callable] = None          # (cfg) -> BdsdeProblem
    second_order: Optional[Callable] = None       # (cfg) -> TbdsdeProblem
    reflected: Optional[Callable] = None          # (cfg) -> (BdsdeProblem, Barrier)
    fd: Optional[Callable] = None                 # (cfg) -> RandomPdeProblem (no W)
    oracle: Optional[Callable] = None             # (cfg, w) -> float
    w_sampler: Optional[Callable] = None          # (grid, seed) -> BackwardPath


def grid_from(cfg) -> TimeGrid:
    return build_time_grid(cfg.get("grid", "t0"), cfg.get("grid", "horizon"),
                           cfg.get("grid", "n_steps"))


DEFAULT_BAND = (0.5, 2.0)  # (a_low, a_high) of a config that sets neither bound


def band_from(cfg) -> tuple:
    """(a_low, a_high) of [volgrid], or DEFAULT_BAND when it sets neither
    (ExperimentConfig.validate rejects a band with one bound)."""
    a_low, a_high = cfg.get("volgrid", "a_low"), cfg.get("volgrid", "a_high")
    return DEFAULT_BAND if a_low is None and a_high is None else (a_low, a_high)


def volgrid_from(cfg):
    return build_volatility_grid(*band_from(cfg), cfg.get("volgrid", "n_points"))


def backward_path_for(pdef: ProblemDef, grid: TimeGrid, seed: int):
    if pdef.w_sampler is not None:
        return pdef.w_sampler(grid, seed)
    return sample_backward_path(grid, 1, seed)


# ---------------------------------------------------------------------------
# concrete problems

def _identity_classical(cfg):
    return BdsdeProblem(terminal=lambda x: x, f=ZERO, g=ZERO, a=1.0)


def _heat_classical(cfg):
    return BdsdeProblem(terminal=lambda x: x**2, f=ZERO, g=ZERO, a=1.0)


def _linear_classical(cfg):
    c = 0.5
    return BdsdeProblem(terminal=lambda x: np.ones_like(x),
                        f=lambda t, x, y, z: c * y, g=ZERO, a=1.0, lipschitz_f=c)


def _linear_second_order(cfg):
    c = 0.5
    return TbdsdeProblem(terminal=lambda x: np.ones_like(x),
                         F=lambda t, x, y, z, a: c * y, g=ZERO,
                         volgrid=build_volatility_grid(1.0, 1.0, 1), lipschitz_f=c)


def _bsb(terminal):
    def build(cfg):
        return TbdsdeProblem(terminal=terminal, F=FZERO, g=ZERO,
                             volgrid=volgrid_from(cfg))
    return build


def _bsb_doss_second_order(cfg):
    beta = 0.5
    return TbdsdeProblem(
        terminal=lambda x: x**2,
        F=lambda t, x, y, z, a: 0.5 * beta * beta * y + np.zeros_like(np.asarray(x, dtype=float)),
        g=lambda t, x, y, z: beta * y,
        volgrid=volgrid_from(cfg), lipschitz_f=0.5 * beta * beta)


def _linear_spde_classical(cfg):
    beta = 0.4
    # Stratonovich form of the semilinear family: zero generator, midpoint noise
    return BdsdeProblem(terminal=lambda x: x**2, f=ZERO,
                        g=lambda t, x, y, z: beta * y, a=1.0)


def _linear_spde_w(grid, seed):
    return sample_backward_bridge(grid, 1, seed, total=0.25)


def _linear_spde_oracle(cfg, w):
    pdef_x0 = 0.0
    return float(np.asarray(linear_spde_closed_form(
        0.4, [0.0, 0.0, 1.0], w, w.grid.t0, pdef_x0)).reshape(-1)[0])


def _stop_now_reflected(cfg):
    prob = BdsdeProblem(terminal=lambda x: 0.0 * x, f=ZERO, g=ZERO, a=1.0)
    horizon = cfg.get("grid", "horizon")
    bar = Barrier(fn=lambda t, x: np.where(t < horizon - 1e-12, 1.0, 0.0) + 0.0 * x)
    return prob, bar


def _put_reflected(cfg):
    prob = BdsdeProblem(terminal=lambda x: np.maximum(1.0 - x, 0.0),
                        f=lambda t, x, y, z: -0.4 * y, g=ZERO, a=1.0, lipschitz_f=0.4)
    bar = Barrier(fn=lambda t, x: np.maximum(1.0 - x, 0.0))
    return prob, bar


def _heat_fd(cfg):
    span = cfg.get("spatial", "span_sigmas")
    return RandomPdeProblem(hhat_tilde=lambda t, x, y, z, g: 0.5 * g,
                            terminal=lambda x: x**2,
                            x_domain=(-span, span))


def _bsb_fd(cfg):
    vg = volgrid_from(cfg)
    span = cfg.get("spatial", "span_sigmas") * math.sqrt(
        vg.a_high * (cfg.get("grid", "horizon") - cfg.get("grid", "t0")))

    def hhat(t, x, y, z, gam):
        best = None
        for a in vg.a_values:
            cand = 0.5 * a * gam
            best = cand if best is None else np.maximum(best, cand)
        return best

    return RandomPdeProblem(hhat_tilde=hhat, terminal=lambda x: x**2,
                            x_domain=(1.0 - span, 1.0 + span))


REGISTRY = {
    "identity": ProblemDef(
        name="identity", backends=("tree", "mc"),
        description="terminal X_T with zero generators; exact at any step count",
        classical=_identity_classical,
        oracle=lambda cfg, w: 0.0),
    "heat_quadratic": ProblemDef(
        name="heat_quadratic", backends=("tree", "mc", "fd"),
        description="terminal X_T^2 under unit volatility; heat-kernel oracle",
        classical=_heat_classical, fd=_heat_fd,
        oracle=lambda cfg, w: cfg.get("grid", "horizon") - cfg.get("grid", "t0")),
    "classical_bdsde_linear": ProblemDef(
        name="classical_bdsde_linear", backends=("tree", "dp"),
        description="linear generator, unit terminal; exponential oracle; "
                    "singleton volatility grid exercises the classical reduction",
        classical=_linear_classical, second_order=_linear_second_order,
        oracle=lambda cfg, w: math.exp(0.5 * (cfg.get("grid", "horizon")
                                              - cfg.get("grid", "t0")))),
    "bsb_quadratic": ProblemDef(
        name="bsb_quadratic", backends=("dp", "fd"),
        description="uncertain volatility, convex quadratic terminal", x0=1.0,
        second_order=_bsb(lambda x: x**2), fd=_bsb_fd,
        oracle=lambda cfg, w: float(bsb_closed_form(
            lambda x: x**2, *band_from(cfg),
            cfg.get("grid", "horizon"), cfg.get("grid", "t0"), 1.0))),
    "bsb_concave": ProblemDef(
        name="bsb_concave", backends=("dp",),
        description="uncertain volatility, concave quadratic terminal", x0=1.0,
        second_order=_bsb(lambda x: -(x**2)),
        oracle=lambda cfg, w: float(bsb_closed_form(
            lambda x: -(x**2), *band_from(cfg),
            cfg.get("grid", "horizon"), cfg.get("grid", "t0"), 1.0))),
    "bsb_mixed": ProblemDef(
        name="bsb_mixed", backends=("dp",),
        description="mixed-convexity terminal; no closed form (use the FD oracle)",
        x0=0.0, second_order=_bsb(lambda x: np.where(x > 0, x**2, -(x**2))),
        oracle=None),
    "bsb_doss": ProblemDef(
        name="bsb_doss", backends=("dp",),
        description="uncertain volatility with multiplicative backward noise "
                    "g = y/2; positively homogeneous Hamiltonian gives a "
                    "closed form through the exponential flow", x0=1.0,
        second_order=_bsb_doss_second_order,
        oracle=lambda cfg, w: math.exp(0.5 * float(w.tail_increment(0)[0])) * (
            1.0 + band_from(cfg)[1] * (cfg.get("grid", "horizon") - cfg.get("grid", "t0")))),
    "linear_spde": ProblemDef(
        name="linear_spde", backends=("tree", "mc"),
        description="semilinear family with multiplicative backward noise, "
                    "frozen driver pinned to W_T - W_0 = 1/4", x0=0.0,
        g_scheme="stratonovich", classical=_linear_spde_classical,
        w_sampler=_linear_spde_w, oracle=_linear_spde_oracle),
    "reflected_stop_now": ProblemDef(
        name="reflected_stop_now", backends=("reflected",),
        description="unit barrier dropping to zero at maturity; immediate "
                    "stopping is optimal",
        reflected=_stop_now_reflected, oracle=lambda cfg, w: 1.0),
    "reflected_put": ProblemDef(
        name="reflected_put", backends=("reflected",),
        description="discounted put payoff as its own barrier", x0=1.0,
        reflected=_put_reflected, oracle=None),
}


def get_problem(name: str) -> ProblemDef:
    if name not in REGISTRY:
        raise ConfigError(f"unknown problem {name!r}; see list-problems")
    return REGISTRY[name]
