#!/usr/bin/env python3
"""Write ``bench/reference.json``: one pass of every workload at the
default seed, summarised per operation.

    python3 bench/record_reference.py

Refuses to write when any operation raises or breaks an invariant.  Run it
only at a commit whose numbers are the accepted ones; the benchmark then
compares every later run against them to 1e-9.
"""

from __future__ import annotations

import json
import sys

import run

import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference, bad = {}, []
    for name in workloads.WORKLOADS:
        _, cl, wl, _ = run.timed_setups(name, workloads.DEFAULT_SEED,
                                        False, 1)
        _, _, results = run.run_pass(wl)
        problems = run.check_pass(wl, results, {}, lambda op: False)
        bad += [f"{name}/{op.name}: {p}" for op, ps in zip(wl.ops, problems)
                for p in ps]
        reference[name] = {op.name: op.record(value)
                           for op, (_, value, err) in zip(wl.ops, results)
                           if err is None}
        print(f"{name}: {len(reference[name])} operations", flush=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
