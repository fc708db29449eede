"""Tests of the benchmark itself: each output check rejects a deliberately
wrong output, the tracer counts and restores what it wraps, and a run prints
exactly the metrics BENCHMARK.json names.

    python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import pytest  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mlmkit import matching, simulate  # noqa: E402


def _flip_first_binary(t):
    """The term with its outermost and/or swapped."""
    swap = {"and": "or", "or": "and"}
    if t[0] in swap:
        return (swap[t[0]],) + t[1:]
    if len(t) == 2 and isinstance(t[1], tuple):
        return (t[0], _flip_first_binary(t[1]))
    if len(t) == 3:
        return (t[0], _flip_first_binary(t[1]), t[2])
    return t


def test_formula_check_rejects_a_changed_operator():
    t = ("U", ("atom", "a"), ("or", ("atom", "b"), ("const", False)))
    result = workloads.LtlRewrite(0).rewrite(t)
    oracle, library = oracles.term_step(t), workloads.library_step(t)
    assert checks.formula_ok(result, oracle, library)
    wrong = _flip_first_binary(result)
    assert wrong != result
    assert not checks.formula_ok(wrong, oracle, library)


def test_formula_rounds_are_seeded_orders_of_one_pool():
    wl = workloads.LtlRewrite(7)
    first = wl.formulas(0)
    assert first == workloads.LtlRewrite(7).formulas(0)
    assert first != workloads.LtlRewrite(8).formulas(0)
    assert first != wl.formulas(1)
    assert sorted(map(repr, first)) == sorted(map(repr, workloads.LtlRewrite(8).formulas(3)))
    assert len(first) == 4 * wl.PER_DEPTH


def test_fault_shapes():
    fault = workloads.fault_shape
    assert fault(("G", ("and", ("atom", "b"), ("G", ("atom", "a")))))
    assert not fault(("G", ("G", ("atom", "a"))))
    assert not fault(("G", ("U", ("atom", "a"), ("atom", "b"))))
    assert fault(("or", ("F", ("X", ("const", True))), ("atom", "b")))
    assert fault(("F", ("or", ("const", False), ("X", ("or", ("const", True), ("atom", "c"))))))
    assert fault(("F", ("X", ("X", ("const", True)))))
    assert not fault(("F", ("X", ("atom", "a"))))
    assert not fault(("F", ("X", ("const", False))))
    assert not fault(("G", ("not", ("X", ("atom", "a")))))


@pytest.fixture(scope="module")
def queries():
    return workloads.ModelQueries(0)


def test_query_check_rejects_a_binding_count_off_by_one(queries):
    q = workloads.QUERIES[1]  # robolang_fragment.mlh
    answer = queries.query(q)
    assert queries.verdict(q, answer)
    name = next(k for k in answer if k != "valid")
    bindings, lhs, rules_out = answer[name]
    wrong = dict(answer, **{name: (bindings + 1, lhs, rules_out)})
    assert not queries.verdict(q, wrong)


def test_query_check_holds_the_golden_fire_transition_count(queries, monkeypatch):
    q = workloads.QUERIES[0]  # robolang.mlh
    answer = queries.query(q)
    assert answer["FireTransition"][0] == queries.golden == 6
    assert queries.verdict(q, answer)
    bindings, lhs, _ = answer["FireTransition"]
    wrong = dict(answer, FireTransition=(bindings + 1, lhs, bindings + 1))
    # an oracle that agrees with the wrong count: the golden count still rejects it
    monkeypatch.setitem(queries._expected, q, dict(queries.expected(q), FireTransition=wrong["FireTransition"]))
    assert not queries.verdict(q, wrong)


def test_report_check_rejects_a_failed_pair(queries):
    answer = queries.query(workloads.REPORT)
    assert queries.verdict(workloads.REPORT, answer)
    wrong = dict(answer, report=answer["report"].replace("strict-inclusion", "FAIL"))
    assert not queries.verdict(workloads.REPORT, wrong)


def test_trace_check_rejects_a_removed_delete_task():
    wl = workloads.RobolangSim(0)
    sim = workloads._Simulation(wl, 3)
    records = [wl.observe(sim.step(k)) for k in range(1, workloads.PASSES + 1)]
    assert all(checks.sim_pass_ok(*rec) for rec in records)
    fired = [e.rule for e in sim.trace.entries]
    assert checks.sim_trace_ok(fired)
    assert "DeleteTask" in fired
    removed = list(fired)
    removed.remove("DeleteTask")
    assert not checks.sim_trace_ok(removed)
    assert not checks.sim_trace_ok(["Start"] + fired)


def test_simulation_rounds_cycle_through_one_pool():
    a, b = workloads.RobolangSim(4), workloads.RobolangSim(5)
    cycle = a.POOL // a.SIMS
    first = [s for r in range(cycle) for s in a.chooser_seeds(r)]
    assert sorted(first) == sorted(a.pool) == sorted(b.pool)
    assert first != [s for r in range(cycle) for s in b.chooser_seeds(r)]
    assert first != [s for r in range(cycle, 2 * cycle) for s in a.chooser_seeds(r)]


def test_pass_check_rejects_two_tasks_or_a_leftover():
    assert checks.sim_pass_ok(1, 0)
    assert not checks.sim_pass_ok(2, 0)
    assert not checks.sim_pass_ok(0, 0)
    assert not checks.sim_pass_ok(1, 1)


def test_tracer_counts_self_time_and_restores():
    original = matching.bind_lhs
    assert simulate.bind_lhs is original
    tracer = tracing.Tracer()
    tracer.install()
    tracer.install()  # a second install keeps the one set of wrappers
    try:
        assert matching.bind_lhs is not original
        assert simulate.bind_lhs is matching.bind_lhs
        wl = workloads.RobolangSim(0)
        sim = workloads._Simulation(wl, 1)
        tracer.recording = True
        sim.step(1)
        tracer.recording = False
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert matching.bind_lhs is original and simulate.bind_lhs is original
    summary = tracing.summarize(spans)
    fns = summary["functions"]
    assert fns["simulate.step"]["calls"] == 1
    assert fns["matching.bind_lhs"]["calls"] > 0
    total_self = sum(f["self_s"] for f in fns.values())
    assert total_self == pytest.approx(summary["top_s"])
    assert all(f["self_s"] >= 0 for f in fns.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_run_prints_the_metrics_of_benchmark_json(workload, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in spec["workloads"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0 and result["correct"]
        assert result["attempted"] > 0
        names = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
