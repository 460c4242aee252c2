"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

CHEAP = ("A2", "X6", "D3", "X6_x_segment", "D_X6", "cube6_doublecone")


def polytopes_reached(P):
    """P and every polytope its ``_provenance`` reaches."""
    out, todo = [], [P]
    while todo:
        Q = todo.pop()
        out.append(Q)
        if Q._provenance is not None:
            todo.extend(Q._provenance[1])
    return out


def cheap_ops(name, seed=1):
    workload = workloads.build(name, seed)
    if name == "random-analyze":
        workload.ops = workload.ops[:30]
        workload.prepare(workload)
    else:
        workload.ops = [op for op in workload.ops if op.name.split("@")[0] in CHEAP]
    return workload


@pytest.mark.parametrize("name", ["catalog-verdicts", "falsifier"])
def test_every_op_input_reaches_the_op_with_empty_caches(name):
    workload = workloads.build(name, 3)
    for op in workload.ops:
        fresh = op.make_input()
        for Q in polytopes_reached(fresh):
            assert Q._points_cache == {}, (op.name, Q)
    # running an op leaves the next copy of the same input clean
    op = next(op for op in workload.ops if op.name.startswith("X6_x_segment"))
    op.call(op.make_input())
    for Q in polytopes_reached(op.make_input()):
        assert Q._points_cache == {}


@pytest.mark.parametrize("name", ["catalog-verdicts", "random-analyze", "falsifier"])
def test_two_passes_give_identical_outputs(name):
    workload = cheap_ops(name)
    deadline = time.perf_counter() + 600
    first, second = {}, {}
    result = run.run_pass(workload, deadline, first)
    assert not result.failed and not result.problems
    run.run_pass(workload, deadline, second)
    assert first == second
    assert len(first) == len(workload.ops)


def test_traced_outputs_equal_untraced_and_spans_are_counted():
    workload = cheap_ops("catalog-verdicts")
    deadline = time.perf_counter() + 600
    plain, with_spans = {}, {}
    run.run_pass(workload, deadline, plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(workload, deadline, with_spans, tracer)
    finally:
        tracer.uninstall()
    assert plain == with_spans
    metrics = tracer.metrics()
    assert metrics["stability.check_special_s"][0] > 0
    assert metrics["geometry.lattice_points_calls"][0] > 0
    # outermost spans only: classify recursing into product factors is
    # counted once, so no inclusive time exceeds the traced op time
    assert tracer.inclusive["stability.classify"] <= traced.op_seconds
    # uninstall restores every original function
    from chowtool import stability

    assert not hasattr(stability.classify, "__wrapped__")


def test_timeout_is_a_named_failed_op_not_a_wrong_output():
    assert not issubclass(workloads.OpTimeout, Exception)
    workload = workloads.build("falsifier", 1)
    workload.ops = [op for op in workload.ops if op.name == "X9_x_segment@k2"]
    original = workloads.OP_BUDGET_S
    workloads.OP_BUDGET_S = 0.05
    try:
        result = run.run_pass(workload, time.perf_counter() + 600, {})
    finally:
        workloads.OP_BUDGET_S = original
    assert result.failed == {"X9_x_segment@k2": "timeout"}
    assert result.problems == []


def test_golden_mismatch_is_reported():
    workload = cheap_ops("falsifier")
    name = workload.ops[0].name
    workload.goldens = {name: "not-the-output"}
    result = run.run_pass(workload, time.perf_counter() + 600, {})
    assert any("differs from golden" in p for p in result.problems)


def test_goldens_cover_every_op_of_the_seed_independent_workloads():
    for name in ("catalog-verdicts", "falsifier", "cli-cold"):
        workload = workloads.build(name, 5)
        assert {op.name for op in workload.ops} <= set(workload.goldens)
    workload = workloads.build("random-analyze", run.GOLDEN_SEEDS[0])
    workload.prepare(workload)
    assert {op.name for op in workload.ops} <= set(workload.goldens)


def test_random_inputs_follow_from_the_seed():
    assert workloads.random_polytope_texts(4, 12) == workloads.random_polytope_texts(4, 12)
    assert workloads.random_polytope_texts(4, 12) != workloads.random_polytope_texts(5, 12)


def smoke(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--ops", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith(run.RECORD_MARK)
    record = json.loads(lines[-2][len(run.RECORD_MARK):])
    for key in ("commit", "seed", "python", "nproc", "loadavg_at_start",
                "samples_per_op", "failed_ops"):
        assert key in record
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_named_metric_with_its_unit(name, trace):
    result = smoke(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "goldens.json").write_text((ROOT / "perfbench" / "goldens.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_an_output_that_changes_between_calls_is_reported():
    counter = iter(range(100))
    op = workloads.Op("flaky", lambda: None, lambda _: next(counter), str, lambda _: [])
    workload = workloads.Workload("flaky", [op])
    result = run.run_rounds(workload, time.perf_counter(), 0.2, {})
    assert result.rounds > 1
    assert any("differs from its first" in p for p in result.problems)


def test_rounds_call_long_ops_less_often_and_stop_with_the_window():
    def sleeper(seconds):
        return workloads.Op(f"sleep{seconds}", lambda: None,
                            lambda _: time.sleep(seconds), lambda _: "", lambda _: [])

    workload = workloads.Workload("sleeps", [sleeper(0.01), sleeper(0.1)],
                                  round_share_s=0.04)
    start = time.perf_counter()
    result = run.run_rounds(workload, start, 1.0, {})
    assert time.perf_counter() - start < 1.1
    calls = {name: len(ts) for name, ts in result.took.items()}
    # the 0.1 s op has a stride of 3 rounds
    assert calls["sleep0.1"] <= 1 + (result.rounds - 1) // 3 + 1
    assert calls["sleep0.01"] > 2 * calls["sleep0.1"]
