"""Regenerate perfbench/reference.json: every quantity each op reports, for
the first passes of every workload at the default seed.

    python3 perfbench/make_reference.py [--passes 10]

Run it only when the workloads change; a program change that moves these
values beyond the answer-check tolerance is a failed op, not a new reference.
"""

from __future__ import annotations

import argparse
import json
import sys

import ops
import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--passes", type=int, default=10)
    args = p.parse_args(argv)
    ops.configure_threads()
    _, cli = run.import_package()
    out = {"seed": ops.DEFAULT_SEED, "workloads": {}}
    for name in sorted(ops.WORKLOADS):
        passes = []
        for k in range(args.passes):
            prepared = ops.prepare_pass(ops.workload_ops(name), ops.DEFAULT_SEED, k,
                                        run.WORK / "reference" / name / f"pass{k}")
            for prep in prepared:
                ops.call(cli, prep)
                ops.check(prep, None)
                if not prep.ok:
                    print(f"{name} pass {k} {prep.op.label}: {prep.reason}", file=sys.stderr)
                    return 1
            passes.append([{"op": prep.op.label, "values": prep.quantities}
                           for prep in prepared])
            print(f"{name}: pass {k} done", flush=True)
        out["workloads"][name] = passes
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
