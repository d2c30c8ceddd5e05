"""Tests of the benchmark itself: generator, span arithmetic, failure counts
(the `failed` count behind `ok_share`).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from gen import factory_instance  # noqa: E402
from spans import Span, Tracer, covered, layer_self_times, self_times  # noqa: E402
from tugplan import build_network, load_instance  # noqa: E402


# --- generator ---------------------------------------------------------------

@pytest.mark.parametrize("windows", ["tight", "loose"])
def test_generator_is_deterministic_per_seed(windows):
    assert factory_instance(7, 6, windows) == factory_instance(7, 6, windows)
    assert factory_instance(7, 6, windows) != factory_instance(8, 6, windows)


def test_generator_follows_the_stated_distribution():
    for seed in range(50):
        tight = factory_instance(seed, 6, "tight")
        loose = factory_instance(seed, 6, "loose")
        assert tight["vehicles"] == 4 and len(tight["tasks"]) == 6
        for t, l in zip(tight["tasks"], loose["tasks"]):
            assert t["from"] != t["to"] and {t["from"], t["to"]} <= set("ABCDE")
            assert t["earliest_pickup_s"] in {10.0 * k for k in range(8)}
            assert 40 <= t["latest_delivery_s"] - t["earliest_pickup_s"] <= 119
            assert (l["from"], l["to"], l["earliest_pickup_s"]) == (
                t["from"], t["to"], t["earliest_pickup_s"])
            assert l["latest_delivery_s"] - l["earliest_pickup_s"] == 1000.0


def test_generated_instances_load():
    network = build_network(load_instance(json.dumps(factory_instance(3, 5, "loose"))))
    assert network.n == 5 and network.vehicle_count == 4


def test_derived_seeds_differ_by_tag_and_index():
    seeds = {workloads.derive(0, tag, i) for tag in (1, 2, 3, 4) for i in range(20)}
    assert len(seeds) == 80
    assert workloads.derive(5, 1, 2) == workloads.derive(5, 1, 2)


def test_each_instance_draws_its_own_scenarios():
    seeds = {workloads.scenario_seed(0, f"loose-n4-{i:03d}", 30) for i in range(50)}
    assert len(seeds) == 50
    assert workloads.scenario_seed(0, "f6", 30) != workloads.scenario_seed(0, "f6", 300)
    assert workloads.scenario_seed(4, "f6", 30) == workloads.scenario_seed(4, "f6", 30)


# --- scaling -----------------------------------------------------------------

def test_class_sums_scale_each_kind_by_its_own_factor():
    solve = workloads.Solve("a/det", "a", "det", ("tight", "alpha0"))
    command = workloads.Command("cli/x", [], "", ("cli", "tight", "eval"), "a", trials=10)
    records = [run.Record(solve, wall=2.0), run.Record(command, wall=3.0, factor=1.5)]
    sums = run.class_sums(records, factor=2.0)
    assert sums["solve_tight_s"] == pytest.approx(1.0 + 3.0 / 1.5 ** run.INTERPRETER_ELASTICITY)
    assert sums["cli_wall_s"] == sums["eval_s"] == pytest.approx(3.0 / 1.5 ** 0.75)
    assert sums["solve_loose_s"] == 0.0
    assert run.class_sums(records)["solve_tight_s"] == pytest.approx(5.0)


def test_calibration_times_slices_for_its_share_of_the_work():
    calibration = run.Calibration()
    assert calibration.factor() == 1.0
    calibration.after(0.2)
    assert calibration.samples_s >= run.REFERENCE_SHARE * 0.2
    assert calibration.factor() > 0.0


# --- spans -------------------------------------------------------------------

def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == pytest.approx(4.0)
    assert covered(0.0, 10.0, [(2.0, 3.0), (1.0, 8.0)]) == pytest.approx(7.0)
    assert covered(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)


def test_self_time_is_duration_minus_covered_child_intervals():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("a.child", 2.0, 3.5, parent=1),
             Span("b", 5.0, 9.0, parent=0)]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_layer_self_times_account_for_the_root():
    spans = [Span("bench.pass", 0.0, 10.0), Span("solver.det", 1.0, 4.0, parent=0),
             Span("bench.op", 5.0, 9.0, parent=0), Span("cli.main", 5.5, 8.5, parent=2),
             Span("solver.sto", 6.0, 7.0, parent=3)]
    layers = layer_self_times(spans, run.layer_of)
    assert layers == pytest.approx({"bench": 4.0, "solver.det": 3.0, "cli": 2.0,
                                    "solver.sto": 1.0})


def test_tracer_nests_spans_and_restores_patched_functions():
    import types

    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    with tracer.patch([((module,), "inner", "inner", lambda r: {"value": r}),
                       ((module,), "outer", "outer", None)]):
        tracer.case = "c1"
        assert module.outer(1) == 4
    assert not hasattr(module.inner, "__wrapped__")
    names = [(s.name, s.parent, s.case, s.counts) for s in tracer.spans]
    assert names == [("outer", None, "c1", {}), ("inner", 0, "c1", {"value": 2})]
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration)


# --- failure counting --------------------------------------------------------

def _mini_workload(tmp_path: Path, count: int):
    """`count` nominal solves of generated five-task loose instances; each
    explores more than the 8192 nodes after which the search first looks at
    its deadline."""
    instances, ops = {}, []
    for i in range(count):
        key = f"loose-n5-{i:03d}"
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(factory_instance(100 + i, 5, "loose")), encoding="utf-8")
        instances[key] = str(path)
        ops.append(workloads.Solve(f"{key}/det", key, "det", ("loose", "alpha0")))
    workload = workloads.Workload("mini", instances, ops)
    state = workloads.State(tmp_path, workload.networks())
    return workload, state


def test_a_forced_timeout_counts_as_failed(tmp_path, monkeypatch):
    workload, state = _mini_workload(tmp_path, 3)
    monkeypatch.setattr(workloads, "TIME_LIMIT_S", 1e-9)
    records = run.run_pass(workload, state, deadline=float("inf")).records
    run.judge([records], state, golden=None, checks_deadline=float("inf"))
    attempted, failures, wrong = run.tally([records])
    assert attempted == 3 and not wrong
    assert failures == [(0, op.case, "time limit") for op in workload.ops]
    assert all(state.solutions[op.case].status.startswith("time-limit") for op in workload.ops)


def test_a_corrupted_golden_entry_counts_as_failed(tmp_path):
    workload, state = _mini_workload(tmp_path, 2)
    records = run.run_pass(workload, state, deadline=float("inf")).records
    golden = {r.op.case: dict(r.fingerprint) for r in records}
    run.judge([records], state, golden, checks_deadline=float("inf"))
    assert run.tally([records]) == (2, [], [])

    records = run.run_pass(workload, state, deadline=float("inf")).records
    golden[records[1].op.case]["objective"] += 1.0
    run.judge([records], state, golden, checks_deadline=float("inf"))
    attempted, failures, wrong = run.tally([records])
    assert attempted == 2 and len(failures) == 1 and wrong == failures
    assert failures[0][1] == records[1].op.case and "golden mismatch" in failures[0][2]


def test_later_passes_must_reproduce_the_first(tmp_path):
    workload, state = _mini_workload(tmp_path, 1)
    first = run.run_pass(workload, state, deadline=float("inf")).records
    second = run.run_pass(workload, state, deadline=float("inf")).records
    second[0].fingerprint = {"status": "infeasible"}
    run.judge([first, second], state, golden=None, checks_deadline=float("inf"))
    assert run.tally([first, second])[1] == [(1, first[0].op.case, "differs from the first pass")]
