"""Workload definitions, seeded config generation and the answer check.

One operation is one in-process call of ``bdsde.cli.main`` on a generated
config, so it costs what a ``bdsde run`` user pays apart from interpreter
start-up.  This module uses the standard library only: it is imported
before ``bdsde`` so that set-up time measures the package, not the bench.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

# Quantities that vanish by construction (fixed-point dust); the reference
# comparison gives them an absolute floor instead of a purely relative bound.
ZERO_BY_CONSTRUCTION = {"k_terminal", "skorokhod_sum", "residual_max"}
REF_RTOL = 1e-12
REF_ATOL = 1e-12
DEFAULT_SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    kind is "run", "study" or "props".  lattice=True draws the volatility
    band per op.  tol is the relative oracle tolerance on y0, scaled by
    max(|oracle|, 1); None means the op has no oracle to check against.
    """

    kind: str
    problem: str
    backend: str = ""
    n_steps: int = 0
    x_steps: Optional[int] = None
    n_paths: Optional[int] = None
    w_ensemble: int = 1
    lattice: bool = False
    tol: Optional[float] = None

    @property
    def label(self) -> str:
        parts = [self.kind, self.problem, self.backend, f"n{self.n_steps}"]
        if self.x_steps:
            parts.append(f"x{self.x_steps}")
        if self.n_paths:
            parts.append(f"p{self.n_paths}")
        if self.w_ensemble > 1:
            parts.append(f"m{self.w_ensemble}")
        return ":".join(p for p in parts if p)


# Oracle tolerances come from the measured discretization error of each
# scheme.  bsb_doss has multiplicative backward noise: its single-path error
# is driven by the realized quadratic variation of W, with standard deviation
# about beta^2/2 * sqrt(2/n) (0.044 at n=16), so its bound is several of those.
WORKLOADS = {
    # The Gaussian convolution dominates; the two lattices give kernel bands
    # about 87 and 335 knots wide, either side of the banded-vs-FFT split.
    "uv_lattice": (
        Op("run", "bsb_quadratic", "dp", 64, x_steps=400, lattice=True, tol=0.02),
        Op("run", "bsb_concave", "dp", 64, x_steps=400, lattice=True, tol=0.03),
        Op("run", "bsb_mixed", "dp", 64, x_steps=400, lattice=True),
        Op("run", "bsb_doss", "dp", 64, x_steps=400, lattice=True, tol=0.15),
        Op("run", "bsb_quadratic", "dp", 16, x_steps=800, lattice=True, tol=0.005),
        Op("run", "bsb_doss", "dp", 16, x_steps=800, lattice=True, tol=0.25),
    ),
    # Many frozen W paths per op on one shared lattice or tree: the serial
    # w_ensemble loop that batching would replace.
    "w_batch": (
        Op("run", "bsb_doss", "dp", 32, x_steps=200, w_ensemble=16, lattice=True, tol=0.2),
        Op("run", "linear_spde", "tree", 512, w_ensemble=32, tol=1e-3),
    ),
    # Every registry pair that never calls the lattice kernel.
    "off_lattice": (
        Op("run", "heat_quadratic", "mc", 64, n_paths=100_000, tol=0.02),
        Op("run", "linear_spde", "mc", 64, n_paths=100_000, tol=0.02),
        Op("run", "heat_quadratic", "tree", 1024, tol=1e-9),
        Op("run", "identity", "tree", 1024, tol=1e-9),
        Op("run", "linear_spde", "tree", 1024, tol=1e-3),
        Op("run", "classical_bdsde_linear", "tree", 1024, tol=1e-3),
        Op("run", "classical_bdsde_linear", "dp", 1024, tol=1e-3),
        Op("run", "reflected_put", "reflected", 1024),
        Op("run", "reflected_stop_now", "reflected", 1024, tol=1e-9),
        Op("run", "heat_quadratic", "fd", 2000, tol=1e-6),
        Op("run", "bsb_quadratic", "fd", 2000, tol=1e-6),
        Op("study", "flow_roundtrip", "flow", 32),
        Op("props", "doss-identities"),
    ),
}


def tiny(op: Op) -> Op:
    """A seconds-long variant of op for the self-test; the oracle bound is
    loosened to catch only garbage, since n <= 8 is far from converged.  FD
    ops keep their step count: the explicit scheme needs it for stability."""
    n_steps = op.n_steps if op.backend == "fd" else min(op.n_steps, 8)
    return replace(op, n_steps=n_steps,
                   x_steps=None if op.x_steps is None else min(op.x_steps, 50),
                   n_paths=None if op.n_paths is None else 2000,
                   w_ensemble=min(op.w_ensemble, 2),
                   tol=None if op.tol is None else 0.5)


def workload_ops(name: str, small: bool = False) -> tuple:
    ops = WORKLOADS[name]
    return tuple(tiny(op) for op in ops) if small else ops


def configure_threads() -> int:
    """Pin the BLAS/OpenMP pools to at most two threads; call before numpy loads."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


@dataclass
class Draw:
    w_seed: int
    a_low: Optional[float] = None
    a_high: Optional[float] = None


def draw(seed: int, pass_idx: int, op_idx: int, op: Op) -> Draw:
    """Inputs of one op, a pure function of (seed, pass, op)."""
    key = hashlib.sha256(f"perfbench:{seed}:{pass_idx}:{op_idx}".encode()).digest()
    rnd = random.Random(int.from_bytes(key[:8], "little"))
    d = Draw(w_seed=rnd.randrange(1, 2**31))
    if op.lattice:
        d.a_low = rnd.uniform(0.4, 0.6)
        d.a_high = rnd.uniform(1.8, 2.2)
    return d


@dataclass
class Prepared:
    """An op with its drawn inputs, config file and argv for bdsde.cli.main."""

    index: int
    op: Op
    draw: Draw
    csv_path: Optional[Path]
    argv: list
    seconds: float = 0.0
    rc: Optional[int] = None
    error: str = ""
    quantities: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    ok: bool = False
    reason: str = ""
    err_rel: Optional[float] = None


def _ini(op: Op, d: Draw) -> str:
    sections = {"problem": {"name": op.problem, "backend": op.backend},
                "grid": {"n_steps": op.n_steps},
                "mc": {"workers": 1},
                "seeds": {"w_seed": d.w_seed, "w_ensemble": op.w_ensemble}}
    if op.x_steps is not None:
        sections["spatial"] = {"x_steps": op.x_steps}
    if op.n_paths is not None:
        sections["mc"]["n_paths"] = op.n_paths
    if op.lattice:
        sections["volgrid"] = {"a_low": repr(d.a_low), "a_high": repr(d.a_high)}
    lines = []
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    return "\n".join(lines) + "\n"


def prepare_pass(ops, seed: int, pass_idx: int, directory: Path) -> list:
    """Write the configs of one pass; returns the prepared ops in order."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for k, op in enumerate(ops):
        d = draw(seed, pass_idx, k, op)
        if op.kind == "props":
            argv = ["--quiet", "props", op.problem, "--seed", str(d.w_seed)]
            out.append(Prepared(k, op, d, None, argv))
            continue
        ini = directory / f"op{k}.ini"
        ini.write_text(_ini(op, d))
        csv_path = directory / f"op{k}.csv"
        argv = ["--quiet", op.kind, "--config", str(ini), "--out", str(csv_path)]
        if op.kind == "study":
            argv += ["--halvings", "3"]
        out.append(Prepared(k, op, d, csv_path, argv))
    return out


def call(cli_module, prep: Prepared) -> None:
    """Run one op through the module's current ``main`` binding; times it."""
    t0 = time.perf_counter()
    try:
        prep.rc = cli_module.main(prep.argv)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        prep.error = f"{type(exc).__name__}: {exc}"
    prep.seconds = time.perf_counter() - t0


def read_csv(prep: Prepared) -> None:
    with open(prep.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    prep.rows = rows
    if prep.op.kind == "run":
        prep.quantities = {r["quantity"]: float(r["value"]) for r in rows}
    else:
        prep.quantities = {f"{r['quantity']}@{r['dt']}": float(r["value"]) for r in rows}


def _close(value: float, ref: float, quantity: str) -> bool:
    atol = REF_ATOL if quantity.split("@")[0] in ZERO_BY_CONSTRUCTION else 0.0
    return abs(value - ref) <= REF_RTOL * abs(ref) + atol


def check(prep: Prepared, ref: Optional[dict]) -> None:
    """Answer check: exit code, finite outputs, oracle bound, stored reference."""
    prep.ok, prep.reason = False, ""
    if prep.error:
        prep.reason = f"raised {prep.error}"
        return
    if prep.rc != 0:
        prep.reason = f"exit code {prep.rc}"
        return
    if prep.csv_path is not None:
        try:
            read_csv(prep)
        except (OSError, KeyError, ValueError) as exc:
            prep.reason = f"unreadable output: {exc}"
            return
        bad = [q for q, v in prep.quantities.items() if not math.isfinite(v)]
        if bad:
            prep.reason = f"non-finite {bad}"
            return
        errs = []
        for r in prep.rows:
            if r["quantity"] == "y0" and r["oracle"]:
                oracle = float(r["oracle"])
                errs.append(abs(float(r["value"]) - oracle) / max(abs(oracle), 1.0))
        prep.err_rel = max(errs) if errs else None
        if prep.op.tol is not None:
            if prep.err_rel is None:
                prep.reason = "no oracle in output"
                return
            if prep.err_rel > prep.op.tol:
                prep.reason = f"oracle error {prep.err_rel:.3e} above {prep.op.tol:g}"
                return
        if prep.op.kind == "study":
            levels = [abs(float(r["abs_error"])) for r in prep.rows]
            if any(b > a / 1.5 for a, b in zip(levels, levels[1:])):
                prep.reason = f"error does not decay under dt halving: {levels}"
                return
    if ref is not None:
        if ref.get("op") != prep.op.label:
            prep.reason = f"reference is for {ref.get('op')}, not {prep.op.label}"
            return
        want = ref["values"]
        if set(want) != set(prep.quantities):
            prep.reason = f"quantities {sorted(prep.quantities)} != reference {sorted(want)}"
            return
        off = [q for q in want if not _close(prep.quantities[q], want[q], q)]
        if off:
            q = off[0]
            prep.reason = (f"{q} = {prep.quantities[q]!r} differs from reference "
                           f"{want[q]!r}")
            return
    prep.ok = True


def reference_for(reference: Optional[dict], workload: str, seed: int,
                  pass_idx: int, op_idx: int) -> Optional[dict]:
    if not reference or reference.get("seed") != seed:
        return None
    passes = reference.get("workloads", {}).get(workload, [])
    if pass_idx >= len(passes) or op_idx >= len(passes[pass_idx]):
        return None
    return passes[pass_idx][op_idx]
