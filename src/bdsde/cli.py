"""Command-line entry points: run, study, props, list-problems."""

from __future__ import annotations

import argparse
import os
import sys

from .config import ExperimentConfig
from .errors import BdsdeError
from .harness import (
    convergence_study,
    flow_order_study,
    property_suite,
    run,
    write_csv,
    PROPERTY_SUITES,
)
from .problems import REGISTRY

OUT_DIR_ENV = "BDSDE_OUT_DIR"


def _out_path(cfg, override):
    if override:
        return override
    configured = cfg.get("outputs", "csv")
    if configured:
        return configured
    base = os.environ.get(OUT_DIR_ENV, ".")
    return os.path.join(base, f"{cfg.get('problem', 'name')}_{cfg.config_hash}.csv")


def _cmd_run(args):
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg.set("seeds", "w_seed", args.seed)
    rec = run(cfg)
    path = _out_path(cfg, args.out)
    write_csv([rec], path, precision=cfg.get("outputs", "precision"))
    if not args.quiet:
        print(f"{rec.problem} [{rec.backend}] y0 = {rec.quantities['y0']:.10g}", end="")
        if rec.oracle is not None:
            print(f"  oracle = {rec.oracle:.10g}  abs_error = {rec.abs_error:.3e}", end="")
        print(f"  ({rec.wall_time:.2f} s) -> {path}")
    if rec.tolerance_ok is False:
        if not args.quiet:
            print("tolerance check FAILED", file=sys.stderr)
        return 2
    return 0


def _cmd_study(args):
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg.set("seeds", "w_seed", args.seed)
    if cfg.get("problem", "name") == "flow_roundtrip":
        result = flow_order_study(halvings=args.halvings, base_n=cfg.get("grid", "n_steps"))
    else:
        result = convergence_study(cfg, halvings=args.halvings)
    path = _out_path(cfg, args.out)
    write_csv(result.records, path, precision=cfg.get("outputs", "precision"))
    if not args.quiet:
        for rec in result.records:
            err = "" if rec.abs_error is None else f"  abs_error = {rec.abs_error:.3e}"
            print(f"dt = {rec.dt:.6g}  y0 = {rec.quantities['y0']:.10g}{err}")
        if result.fitted_order is None:
            print(f"fitted order: none ({result.no_order})")
        else:
            print(f"fitted order: {result.fitted_order:.3f}")
        print(f"-> {path}")
    return 0


def _cmd_props(args):
    names = [args.suite] if args.suite != "all" else sorted(PROPERTY_SUITES)
    worst = 0
    for name in names:
        res = property_suite(name, seed=args.seed if args.seed is not None else 0)
        status = "pass" if res.passed else "FAIL"
        if not args.quiet:
            print(f"{name}: {status} ({res.n_instances} instances)")
        if not res.passed:
            worst = 2
            if not args.quiet:
                print(f"  minimal reproducing instance: {res.repro()}", file=sys.stderr)
    return worst


def _cmd_list(args):
    for name in sorted(REGISTRY):
        p = REGISTRY[name]
        oracle = "oracle" if p.oracle is not None else "no oracle"
        print(f"{name:24s} backends={','.join(p.backends):16s} [{oracle}]")
        if not args.quiet:
            print(f"    {p.description}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bdsde",
        description="Solver suite for doubly stochastic backward equations "
                    "under volatility uncertainty")
    parser.add_argument("--quiet", action="store_true", help="suppress chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured problem")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_study = sub.add_parser("study", help="convergence study with dt halvings")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--halvings", type=int, default=3)
    p_study.add_argument("--seed", type=int, default=None)
    p_study.add_argument("--out", default=None)
    p_study.set_defaults(fn=_cmd_study)

    p_props = sub.add_parser("props", help="randomized property suites")
    p_props.add_argument("suite", choices=sorted(PROPERTY_SUITES) + ["all"])
    p_props.add_argument("--seed", type=int, default=None)
    p_props.set_defaults(fn=_cmd_props)

    p_list = sub.add_parser("list-problems", help="registry contents")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BdsdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
