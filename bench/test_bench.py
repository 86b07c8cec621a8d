"""Self-test of the benchmark: a tiny configuration of every workload emits
every metric named in BENCHMARK.json with its unit, and the checker fails
operations whose results are wrong.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    record = run.run(workload, seed=7, seconds=0.0, trace=bool(trace),
                     tiny=True)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.fixture(scope="module")
def tiny_escape():
    _, cl, wl, _ = run.timed_setups("escape", 7, True, 1)
    _, _, results = run.run_pass(wl)
    return cl, wl, results


def test_checker_fails_a_wrong_reference(tiny_escape):
    _, wl, results = tiny_escape
    ref = {op.name: op.record(value)
           for op, (_, value, _) in zip(wl.ops, results)}
    assert not any(run.check_pass(wl, results, ref, lambda op: True))
    wrong = dict(ref)
    victim = wl.ops[0].name
    wrong[victim] = {"outcome": "found"}
    problems = run.check_pass(wl, results, wrong, lambda op: True)
    assert [bool(p) for p in problems] == [op.name == victim for op in wl.ops]


def test_reference_tolerance():
    ref = {"width": 1.25, "got": "ratio 0.802469872 at 1e-3"}
    assert not workloads.differences(
        {"width": 1.25 + 1e-12, "got": "ratio 0.802469872 at 1e-3"}, ref)
    assert workloads.differences({"width": 1.25 + 1e-6, "got": ref["got"]},
                                 ref)
    assert workloads.differences(
        {"width": 1.25, "got": "ratio 0.802469972 at 1e-3"}, ref)


def test_checker_fails_a_penetrating_circle(tiny_escape):
    cl, _, _ = tiny_escape
    cube = workloads.unit_cube(cl)
    inside = cl.holding.Circle3((0.5, 0.5, 0.5), 0.5, (0.0, 0.0, 1.0))
    assert workloads.penetration_problems(cl, cube, inside, "circle")
    op = workloads.escape_op(cl, "cube/inside", cube, inside, 100,
                             seeded=False)
    wl = workloads.Workload([op])
    _, _, results = run.run_pass(wl)
    assert run.check_pass(wl, results, {}, lambda op: False) != [[]]


def test_verify_paper_checker_wants_exactly_the_red_checks():
    Res = type("Res", (), {})

    def res(name, passed):
        r = Res()
        r.name, r.passed, r.got = name, passed, ""
        return r

    red = "limits/diameter-near-two(a=1.001)"
    assert not workloads.suite_problems("limits", [res(red, False)])
    assert workloads.suite_problems("limits", [res(red, True)])
    assert workloads.suite_problems(
        "limits", [res(red, False), res("limits/width-near-three(h=500)",
                                         False)])


def test_refuses_to_run_without_sources():
    where = run.OUT / "selftest-no-sources"
    shutil.rmtree(where, ignore_errors=True)
    (where / "bench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", where)
        for f in run.BENCH.glob("*.py"):
            shutil.copy(f, where / "bench")
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "escape",
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=where, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reference_covers_every_operation(workload):
    _, _, wl, ref = run.timed_setups(workload, workloads.DEFAULT_SEED,
                                     False, 1)
    assert {op.name for op in wl.ops} == set(ref[workload])
