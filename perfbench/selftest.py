"""Self-test of the benchmark on seconds-long variants of every workload.

    python3 perfbench/selftest.py

Checks that both trace modes emit exactly the metrics BENCHMARK.json
declares, each with its unit; that a reference value perturbed beyond the
answer-check tolerance is caught as a failed op with a nonzero exit; and
that the benchmark refuses to run, printing no result, where the package
source is missing.  Exits nonzero on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"
SEED = 5


class SelfTestError(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise SelfTestError(message)


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines):
    return json.loads(lines[-1])


def check_metrics(workload, declared):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, lines, err = bench("--workload", workload, "--seed", str(SEED),
                               "--seconds", "1", "--trace", str(trace), "--tiny")
        expect(rc == 0, f"{workload} trace={trace} exited {rc}: {err or lines[-3:]}")
        res = result_of(lines)
        expect(set(res) == {"correct", "attempted", "failed", "metrics"},
               f"{workload}: result keys {sorted(res)}")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{workload} trace={trace}: {res['failed']} of {res['attempted']} ops failed")
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        expect(got == want, f"{workload} trace={trace}: metrics differ from "
                            f"BENCHMARK.json {key}: {sorted(set(got) ^ set(want))} "
                            f"or units {[(n, got[n], want[n]) for n in got if n in want and got[n] != want[n]]}")
        expect(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
               f"{workload} trace={trace}: non-numeric metric value")
        for name, unit in want.items():
            expect(any(line.startswith(f"{name}: ") and f" {unit}" in line for line in lines),
                   f"{workload} trace={trace}: {name} not printed with unit {unit}")
        print(f"ok  {workload} trace={trace}: {len(got)} metrics with units")


def reference_from_run(workload, tweak):
    """Reference built from a finished tiny run's records; tweak edits pass 0."""
    records = (ROOT / ".perfbench_work" / f"{workload}-s{SEED}-t0" / "ops.jsonl")
    rows = [json.loads(line) for line in records.read_text().splitlines()[1:]]
    passes = {}
    for r in rows:
        passes.setdefault(r["pass"], []).append({"op": r["label"],
                                                 "values": dict(r["quantities"])})
    ref = {"seed": SEED, "workloads": {workload: [passes[p] for p in sorted(passes)]}}
    tweak(ref["workloads"][workload][0])
    return ref


def check_reference(workload):
    def perturb(pass0):
        values = pass0[0]["values"]
        values["y0"] = values["y0"] * (1 + 1e-9) + 1e-9

    for tweak, want_rc in ((lambda p: None, 0), (perturb, 3)):
        path = WORK / f"reference-{workload}-{want_rc}.json"
        path.write_text(json.dumps(reference_from_run(workload, tweak)))
        rc, lines, err = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                               "--trace", "0", "--tiny", "--reference", str(path))
        res = result_of(lines)
        expect(rc == want_rc, f"{workload}: exit {rc} with reference {path.name}, want {want_rc}")
        if want_rc:
            expect(not res["correct"] and res["failed"] == 1,
                   f"{workload}: perturbed reference gave {res['failed']} failed ops")
            expect(any("differs from reference" in line for line in lines),
                   f"{workload}: failure reason not printed")
    print(f"ok  {workload}: stored reference passes, perturbed y0 is a failed op")


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark files: no program to measure."""
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, lines, _ = bench("--workload", "uv_lattice", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
    expect(rc != 0, "bare directory: exit code 0")
    expect(not any(line.startswith("{") for line in lines),
           "bare directory: a result was printed")
    print(f"ok  bare directory: exit {rc}, no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in sorted(ops.WORKLOADS):
            check_metrics(workload, declared)
        check_reference("w_batch")
        check_bare_directory()
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
