#!/usr/bin/env python3
"""Benchmark for circlehold, run from the root of a source checkout.

    python3 bench/run.py --workload {escape,verify-paper}
                         [--seed 7] [--seconds 40] [--trace 0|1]

The package is imported from ``src/`` of the checkout; nothing is
installed.  A run makes as many whole passes over the workload's
operations as fit in ``--seconds``, at least one, and sets the workload up
four times before and four times after them (``setup_s`` is the median).
Every result is checked against the paper's invariants and, where the
inputs do not depend on the seed or the seed is the default, against
``bench/reference.json``.

``--trace 0`` reports the end-to-end metrics: the median ``wall_s`` and
``cpu_s`` of a pass, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` runs
one untraced pass, then one pass with every public function in
``bench/tracing.py`` wrapped, and reports per-layer call counts and times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run record
(environment, per-pass and per-operation times, problems) and, for traced
runs, the spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 4             # before the passes, and again after them
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


class Package:
    """The freshly imported ``circlehold`` modules the workloads call."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "circlehold" or m.startswith("circlehold.")]:
            del sys.modules[name]
        pkg = importlib.import_module("circlehold")
        if not Path(pkg.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"circlehold imported from {pkg.__file__}, "
                              f"not from {SRC}")
        for mod in ("families", "holding", "planar", "polytope",
                    "projection", "verification"):
            setattr(self, mod, importlib.import_module(f"circlehold.{mod}"))
        self.TOL_OPT = pkg.TOL_OPT


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def set_up(workload: str, seed: int, tiny: bool):
    """Import the package, build the workload's inputs and load the
    reference.  Importing numpy and scipy is paid once per process before
    the first call and is not part of it."""
    cl = Package()
    wl = workloads.WORKLOADS[workload](cl, seed, tiny)
    return cl, wl, load_reference()


def timed_setups(workload: str, seed: int, tiny: bool, repeats: int):
    import numpy  # noqa: F401  (loaded once, outside the timed set-ups)
    import scipy.optimize  # noqa: F401
    import scipy.spatial  # noqa: F401
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cl, wl, ref = set_up(workload, seed, tiny)
        times.append(time.perf_counter() - t0)
    return times, cl, wl, ref


def run_pass(wl, tracer=None):
    """Run every operation once.  Returns wall and CPU seconds, and per
    operation its seconds and its result or the exception it raised."""
    results = []
    c0, t0 = time.process_time(), time.perf_counter()
    for i, op in enumerate(wl.ops):
        s0 = time.perf_counter()
        try:
            if tracer is None:
                value = op.run()
            else:
                tracer.current_op = i
                value = tracer.span(f"{wl.span_prefix}.{op.name}", op.run)
            err = None
        except Exception:
            value, err = None, traceback.format_exc(limit=3)
        results.append((time.perf_counter() - s0, value, err))
    return time.perf_counter() - t0, time.process_time() - c0, results


def check_pass(wl, results, ref: dict, use_reference) -> list[list[str]]:
    """Problems per operation: an exception, a broken invariant or a
    difference from the reference."""
    problems = []
    for op, (_, value, err) in zip(wl.ops, results):
        if err is not None:
            problems.append([f"raised: {err.strip().splitlines()[-1]}"])
            continue
        try:
            found = op.check(value)
            record = op.record(value)
        except Exception:
            problems.append([f"check raised: {traceback.format_exc(limit=2)}"])
            continue
        if use_reference(op) and op.name in ref:
            found += workloads.differences(record, ref[op.name], op.name)
        problems.append(found)
    return problems


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
            "commit": commit, "seed": seed}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """One benchmark run.  Returns the run record; its ``result`` is the
    object printed last.  ``tiny`` runs a small configuration of the
    workload, for the self-test, without the reference."""
    setups, cl, wl, ref = timed_setups(workload, seed, tiny,
                                       1 if trace else SETUP_REPEATS)
    ref = {} if tiny else ref.get(workload, {})
    default = seed == workloads.DEFAULT_SEED

    def compare(op):
        return default or not op.seeded

    passes, problems = [], []
    if not trace:
        # as many whole passes as fit in ``seconds``, judged by the last one
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(wl))
            if time.perf_counter() - t0 + passes[-1][0] > seconds:
                break
        setups += timed_setups(workload, seed, tiny, SETUP_REPEATS)[0]
    else:
        passes.append(run_pass(wl))
        tracer = tracing.Tracer()
        tracer.install(cl)
        try:
            passes.append(run_pass(wl, tracer))
        finally:
            tracer.uninstall()
    for _, _, results in passes:
        problems.append(check_pass(wl, results, ref, compare))

    attempted = sum(len(r) for _, _, r in passes)
    failed = sum(bool(p) for per_pass in problems for p in per_pass)
    walls = [w for w, _, _ in passes]
    cpus = [c for _, c, _ in passes]
    if trace:
        layer = tracer.layer_metrics()
        layer["trace.overhead_frac"] = (walls[1] / walls[0] - 1.0, "ratio")
        # suites timed from outside, in the untraced pass
        suite_s = dict.fromkeys(cl.verification.SUITES, 0.0)
        if workload == "verify-paper":
            suite_s.update((op.name, secs) for op, (secs, _, _)
                           in zip(wl.ops, passes[0][2]))
        for suite, secs in suite_s.items():
            layer[f"verification.{suite}.s"] = (secs, "s")
        metrics = layer
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(seed),
        "setup_s": setups, "pass_wall_s": walls, "pass_cpu_s": cpus,
        "fail_rate": failed / attempted,
        "op_s": {op.name: [p[2][i][0] for p in passes]
                 for i, op in enumerate(wl.ops)},
        "problems": {f"pass{k}/{op.name}": p
                     for k, per_pass in enumerate(problems)
                     for op, p in zip(wl.ops, per_pass) if p},
        "result": result,
    }
    if trace:
        record["escape_by_op"] = {wl.ops[i].name: v for i, v
                                  in tracer.escape_by_op.items()}
        record["tracer"] = tracer
    return record


def summary(record: dict) -> list[str]:
    """Human-readable lines printed before the result line."""
    walls = record["pass_wall_s"]
    lines = [f"env {json.dumps(record['environment'], sort_keys=True)}"]
    for name, secs in record["op_s"].items():
        lines.append(f"op {name}: {statistics.median(secs):.4f} s "
                     f"(median of {len(secs)})")
    q1, q2, q3 = quartiles(walls)
    lines.append(f"passes {len(walls)}: wall_s median {q2:.4f} "
                 f"[q1 {q1:.4f}, q3 {q3:.4f}]")
    lines.append(f"fail_rate {record['fail_rate']:.6g} "
                 f"({record['result']['failed']} of "
                 f"{record['result']['attempted']})")
    for where, probs in record["problems"].items():
        for p in probs:
            lines.append(f"FAILED {where}: {p}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "circlehold" / "__init__.py").is_file():
        print(f"error: no circlehold sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.save(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for line in summary(record):
        print(line)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
