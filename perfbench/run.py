"""Layered benchmark of the bdsde solver suite.

    python3 perfbench/run.py --workload uv_lattice --seed 3 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 38 --trace 0

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter as a closed loop with one client: the next operation starts when
the previous one returns.  A pass is one run of the workload's operation
list (see ops.py); passes repeat until the next one would overrun --seconds.

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (see layers.py), plus the tracing overhead between the two.
The last line of standard output is one JSON object; the lines before it
print every metric by name with its unit.  Per-op records (inputs, seconds,
y0 and every reported quantity) and the spans of traced passes are written
under .perfbench_work/ in the checkout.

Exit codes: 0 all answers correct, 3 some operation failed its check,
2 the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_PROBES = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=ops.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="seconds-long variant of each op (self-test)")
    p.add_argument("--reference", type=Path, default=None,
                   help="reference values for the default seed "
                        "(default: perfbench/reference.json, none with --tiny)")
    p.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def import_package():
    """Import bdsde from this checkout's src/ only; returns (bdsde, bdsde.cli)."""
    sys.path.insert(0, str(SRC))
    import bdsde
    import bdsde.cli
    if Path(bdsde.__file__).resolve().parent != (SRC / "bdsde").resolve():
        raise ImportError(f"bdsde imported from {bdsde.__file__}, not {SRC}")
    return bdsde, bdsde.cli


def setup_probe(args) -> int:
    """Child process: time `import bdsde` plus writing one pass of configs."""
    ops.configure_threads()
    t0 = time.perf_counter()
    import_package()
    ops.prepare_pass(ops.workload_ops(args.workload, args.tiny), args.seed, 0,
                     args.setup_probe)
    print(repr(time.perf_counter() - t0))
    return 0


def env_stamp(bdsde, threads) -> dict:
    import numpy
    import scipy
    from bdsde import _accel
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "bdsde": bdsde.__version__,
            "has_numba": bool(getattr(_accel, "HAS_NUMBA", False)),
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": threads}


def run_all(args) -> int:
    """One fresh interpreter per workload; prints every workload's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in sorted(ops.WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if args.reference is not None:
            cmd += ["--reference", str(args.reference)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 3) or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bdsde" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/bdsde", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)

    threads = ops.configure_threads()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    op_list = ops.workload_ops(args.workload, args.tiny)

    t0 = time.perf_counter()
    bdsde, cli = import_package()
    first = ops.prepare_pass(op_list, args.seed, 0, work / "pass0")
    setup_samples = [time.perf_counter() - t0]

    stamp = env_stamp(bdsde, threads)
    ref_path = args.reference or (None if args.tiny else REFERENCE)
    reference = json.loads(ref_path.read_text()) if ref_path else None
    recorder = layers.Recorder() if args.trace else None

    walls = {False: [], True: []}
    cpus = []
    records = []
    per_pass = []
    bounds = []
    attempted = failed = 0
    errs = []
    loop_start = time.perf_counter()
    pass_idx = 0
    prepared = first
    while True:
        traced = bool(args.trace) and pass_idx % 2 == 1
        if traced:
            recorder.install()
            lo = len(recorder.spans)
        c0 = time.process_time()
        p0 = time.perf_counter()
        for prep in prepared:
            ops.call(cli, prep)
        wall = time.perf_counter() - p0
        cpu = time.process_time() - c0
        if traced:
            recorder.uninstall()
            hi = len(recorder.spans)
            bounds.append((pass_idx, lo, hi))
            per_pass.append(layers.pass_stats(recorder.spans, lo, hi, wall))
        else:
            cpus.append(cpu)
        walls[traced].append(wall)

        for prep in prepared:
            ref = ops.reference_for(reference, args.workload, args.seed, pass_idx, prep.index)
            ops.check(prep, ref)
            attempted += 1
            failed += not prep.ok
            if prep.err_rel is not None:
                errs.append(prep.err_rel)
            records.append({"pass": pass_idx, "op": prep.index, "label": prep.op.label,
                            "traced": traced, "w_seed": prep.draw.w_seed,
                            "a_low": prep.draw.a_low, "a_high": prep.draw.a_high,
                            "seconds": prep.seconds,
                            "y0": prep.quantities.get("y0"),
                            "quantities": prep.quantities, "ok": prep.ok,
                            "reason": prep.reason})

        pass_idx += 1
        elapsed = time.perf_counter() - loop_start
        need_traced = bool(args.trace) and not walls[True]
        if not need_traced and elapsed + max(walls[False] + walls[True]) > args.seconds:
            break
        prepared = ops.prepare_pass(op_list, args.seed, pass_idx, work / f"pass{pass_idx}")

    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-probe", str(work / "probe")]
                + (["--tiny"] if args.tiny else []),
                capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
            setup_samples.append(float(probe.stdout.strip().splitlines()[-1]))

    with open(work / "ops.jsonl", "w") as fh:
        fh.write(json.dumps({"env": stamp, "workload": args.workload, "seed": args.seed,
                             "trace": args.trace}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")

    untraced = walls[False]
    q1, med, q3 = quartiles(untraced)
    err_rel_max = max(errs) if errs else 0.0
    failed_frac = failed / attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(op_list)} passes={pass_idx}")
    print("env: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"wall_s: {med:.4f} s  (median of {len(untraced)} untraced passes, "
          f"q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"err_rel_max: {err_rel_max:.6g} 1  (worst over {len(errs)} ops with an oracle)")
    print(f"failed_frac: {failed_frac:.6g} 1  ({failed} of {attempted} ops)")
    for rec in records:
        if not rec["ok"]:
            print(f"  FAILED pass {rec['pass']} op {rec['op']} {rec['label']}: "
                  f"{rec['reason']}")

    if args.trace:
        layers.write_spans(work / "spans.tsv", recorder.spans, bounds)
        metrics = layers.layer_metrics(per_pass)
        t_med = statistics.median(walls[True])
        metrics["proc.cpu_s"] = (statistics.median(cpus), "s")
        metrics["trace.overhead_frac"] = (t_med / med - 1.0, "1")
        metrics["trace.coverage"] = (statistics.median(
            st["_pass"]["coverage"] for st in per_pass), "1")
        metrics["err_rel_max"] = (err_rel_max, "1")
        metrics["failed_frac"] = (failed_frac, "1")
        print(f"traced passes: {len(walls[True])}, traced wall_s {t_med:.4f} s")
        print("top self time: " + ", ".join(f"{n} {s:.3f} s"
                                            for s, n in layers.top_self(per_pass)))
        absent = recorder.absent_metrics()
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
        for name, (value, unit) in metrics.items():
            if name not in ("err_rel_max", "failed_frac"):
                print(f"{name}: {value:.6g} {unit}")
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (med, "s"),
                   "setup_s": (statistics.median(setup_samples), "s"),
                   "peak_rss_mb": (rss, "MiB")}
        print(f"setup_s: {metrics['setup_s'][0]:.4f} s  (median of "
              f"{len(setup_samples)} fresh interpreters)")
        print(f"peak_rss_mb: {rss:.1f} MiB")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
