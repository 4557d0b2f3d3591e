"""Per-layer spans recorded from outside the package.

Each entry of LAYERS names a function (or a method) by its home module in
``bdsde``.  ``Recorder.install`` replaces that object with a timing wrapper
in every ``bdsde`` module that bound it (``pl_gauss_moments`` lives in both
``_accel`` and ``second_order``), and ``uninstall`` puts the originals back,
so untraced passes run unmodified code.  Nothing under ``src/`` changes.

A name that no longer exists, or a counter whose argument was renamed, is
reported as absent rather than failing the run: refactors of the package
never require edits here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _gauss_counts(knots, mu, sigma):
    queries = int(getattr(mu, "size", 1))
    h = float(knots[1] - knots[0])
    band = min(len(knots), 2 * math.ceil(10.0 * float(sigma) / h) + 1)
    return {"queries": queries, "band_pairs": queries * band}


def _draws(n_rows, shape_per_row):
    return {"draws": int(n_rows) * math.prod(shape_per_row)}


@dataclass(frozen=True)
class Counter:
    """Work counted at a span: params are read from the call, result is the return value."""

    params: tuple
    fn: Callable
    uses_result: bool = False


LAYERS = {
    "_accel.pl_gauss_moments": Counter(("knots", "mu", "sigma"), _gauss_counts),
    "second_order.solve_dp": None,
    "second_order._dp_candidates": None,
    "second_order.extract_k": None,
    "second_order.minimality_gap": None,
    "classical._fixed_point": Counter((), lambda result: {"iters": int(result[1])},
                                      uses_result=True),
    "classical.solve_tree": None,
    "classical.solve_regression": None,
    "classical._regress_on_state": Counter(("x",), lambda x: {"rows": len(x)}),
    "grids.BrownianTree.child_expectation": None,
    "grids.BrownianTree.child_cross": None,
    "grids.BrownianTree.level_probabilities": None,
    "grids.build_tree": None,
    "grids.sample_forward_ensemble": None,
    "rng.blocked_normals": Counter(("n_rows", "shape_per_row"), _draws),
    "reflected.solve_reflected": None,
    "oracles.fd_random_pde": None,
    "oracles.bsb_closed_form": None,
    "doss.solve_flow": None,
    "doss.invert_flow": None,
    "harness.run": None,
    "harness.write_csv": None,
    "cli.main": None,
}

# (layer, field, unit): what the traced run reports, per pass.  field is
# calls, s (outermost spans), self_s (minus direct children) or a counter of
# that layer.  The metric is named "<layer>.<field>" without the leading
# underscore of a private module, since metric names start alphanumeric.
METRICS = (
    ("_accel.pl_gauss_moments", "calls", "count"),
    ("_accel.pl_gauss_moments", "s", "s"),
    ("_accel.pl_gauss_moments", "queries", "count"),
    ("_accel.pl_gauss_moments", "band_pairs", "count"),
    ("second_order.solve_dp", "calls", "count"),
    ("second_order.solve_dp", "s", "s"),
    ("second_order.solve_dp", "self_s", "s"),
    ("second_order._dp_candidates", "calls", "count"),
    ("second_order._dp_candidates", "s", "s"),
    ("second_order._dp_candidates", "self_s", "s"),
    ("second_order._dp_candidates", "recompute_frac", "1"),
    ("second_order.extract_k", "s", "s"),
    ("second_order.minimality_gap", "s", "s"),
    ("classical._fixed_point", "calls", "count"),
    ("classical._fixed_point", "s", "s"),
    ("classical._fixed_point", "iters", "count"),
    ("classical.solve_tree", "calls", "count"),
    ("classical.solve_tree", "s", "s"),
    ("classical.solve_tree", "self_s", "s"),
    ("classical.solve_regression", "s", "s"),
    ("classical._regress_on_state", "calls", "count"),
    ("classical._regress_on_state", "s", "s"),
    ("classical._regress_on_state", "rows", "count"),
    ("grids.BrownianTree.child_expectation", "calls", "count"),
    ("grids.BrownianTree.child_expectation", "s", "s"),
    ("grids.BrownianTree.child_cross", "calls", "count"),
    ("grids.BrownianTree.child_cross", "s", "s"),
    ("grids.BrownianTree.level_probabilities", "calls", "count"),
    ("grids.BrownianTree.level_probabilities", "s", "s"),
    ("grids.build_tree", "calls", "count"),
    ("grids.sample_forward_ensemble", "s", "s"),
    ("rng.blocked_normals", "s", "s"),
    ("rng.blocked_normals", "draws", "count"),
    ("reflected.solve_reflected", "s", "s"),
    ("oracles.fd_random_pde", "s", "s"),
    ("oracles.bsb_closed_form", "s", "s"),
    ("doss.solve_flow", "calls", "count"),
    ("doss.solve_flow", "s", "s"),
    ("doss.invert_flow", "s", "s"),
    ("harness.run", "calls", "count"),
    ("harness.run", "s", "s"),
    ("harness.run", "self_s", "s"),
    ("harness.write_csv", "s", "s"),
    ("cli.main", "self_s", "s"),
)


def metric_name(layer: str, field: str) -> str:
    return f"{layer.lstrip('_')}.{field}"


RECOMPUTE = ("second_order._dp_candidates", "second_order.extract_k")


def _resolve(layer: str):
    """(owner, attribute, original) for a layer name, or None if it is gone."""
    mod_name, *path = layer.split(".")
    try:
        owner = importlib.import_module(f"bdsde.{mod_name}")
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(path[-1]) if isinstance(owner, type) else getattr(owner, path[-1], None)
    if not callable(fn):
        return None
    return owner, path[-1], fn


def _param_reader(fn, names):
    """Positional index of each named parameter; None if any name is missing."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if not all(n in params for n in names):
        return None
    return tuple((n, params.index(n)) for n in names)


class Recorder:
    """Spans (name, start, end, parent index, counters) of the traced passes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.absent = set()

    def _wrap(self, name, fn, counter, reader):
        spans, stack, absent = self.spans, self._stack, self.absent
        counter_name = f"{name}:counter"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if counter is not None and counter_name not in absent:
                try:
                    if counter.uses_result:
                        counts = counter.fn(result)
                    else:
                        counts = counter.fn(*(kwargs[n] if n in kwargs else args[i]
                                              for n, i in reader))
                    spans[idx] = (name, t0, t1, parent, counts)
                except Exception:  # a changed signature or return value
                    absent.add(counter_name)
            return result

        return traced

    def install(self) -> None:
        bound = [m for n, m in sys.modules.items()
                 if m is not None and (n == "bdsde" or n.startswith("bdsde."))]
        for name, counter in LAYERS.items():
            found = _resolve(name)
            if found is None:
                self.absent.add(name)
                continue
            owner, attr, fn = found
            reader = None
            if counter is not None and not counter.uses_result:
                reader = _param_reader(fn, counter.params)
                if reader is None:
                    self.absent.add(f"{name}:counter")
            wrapped = self._wrap(name, fn, counter, reader)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod in bound:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def absent_metrics(self) -> list:
        out = []
        for layer, field, _ in METRICS:
            if layer in self.absent or (
                    field not in ("calls", "s", "self_s", "recompute_frac")
                    and f"{layer}:counter" in self.absent):
                out.append(metric_name(layer, field))
        return out


def pass_stats(spans, lo: int, hi: int, wall: float) -> dict:
    """Per-layer totals of spans[lo:hi], one traced pass; parents index spans."""
    stats = {}
    child_s = {}
    for idx in range(lo, hi):
        name, t0, t1, parent, _ = spans[idx]
        if parent >= 0:
            child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
    covered = 0.0
    recompute = 0
    for idx in range(lo, hi):
        name, t0, t1, parent, counts = spans[idx]
        dur = t1 - t0
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += dur - child_s.get(idx, 0.0)
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            st["s"] += dur
        if parent < 0:
            covered += dur
        if name == RECOMPUTE[0] and RECOMPUTE[1] in ancestors:
            recompute += 1
        for key, value in (counts or {}).items():
            st[key] = st.get(key, 0) + value
    cand = stats.get(RECOMPUTE[0], {}).get("calls", 0)
    stats["_pass"] = {"coverage": covered / wall if wall > 0 else 0.0,
                      "recompute_frac": recompute / cand if cand else 0.0}
    return stats


def layer_metrics(per_pass: list) -> dict:
    """Median over traced passes of every METRICS entry; absent fields read 0."""
    out = {}
    for layer, field, unit in METRICS:
        if field == "recompute_frac":
            values = [st["_pass"]["recompute_frac"] for st in per_pass]
        else:
            values = [st.get(layer, {}).get(field, 0) for st in per_pass]
        out[metric_name(layer, field)] = (statistics.median(values), unit)
    return out


def top_self(per_pass: list, k: int = 5) -> list:
    """The k layers with the largest median self time per pass."""
    names = {n for st in per_pass for n in st if n != "_pass"}
    ranked = [(statistics.median(st.get(n, {}).get("self_s", 0.0) for st in per_pass), n)
              for n in names]
    return sorted(ranked, reverse=True)[:k]


def write_spans(path, spans, pass_bounds) -> None:
    """Tab-separated spans of every traced pass, written once the run ends."""
    with open(path, "w") as fh:
        fh.write("pass\tindex\tname\tstart\tend\tparent\n")
        for p, lo, hi in pass_bounds:
            for idx in range(lo, hi):
                name, t0, t1, parent, _ = spans[idx]
                fh.write(f"{p}\t{idx}\t{name}\t{t0!r}\t{t1!r}\t{parent}\n")

