import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tugplan import (STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_TIME_LIMIT_INCUMBENT,
                     STATUS_TIME_LIMIT_NO_INCUMBENT,
                     ScenarioConfig, ScenarioSet, Solution, SolveConfig,
                     assignment_from_solution, build_deterministic, build_network,
                     build_stochastic, check_solution, generate_scenarios, load_instance,
                     out_of_sample, replay_failures, single_scenario, solve_alpha_zero_fast,
                     solve_deterministic, solve_stochastic)
from tugplan import solver as solver_module
from tugplan.instance import shortest_path_closure
from tugplan.solver import RoutePlan, SearchStats, _location_table, _walk_table, route_times

from conftest import gen, instance_dict, single_task_dict
from instgen import random_instance_doc, random_network
from oracle import oracle_solve, oracle_solve_deterministic, plan_scenario_feasible


def _agrees_with_oracle(solution, reference) -> bool:
    """Assert that a solve matches the exhaustive oracle: the same status and,
    at an optimum, the same objective and plan.  Returns whether the oracle
    found an optimum."""
    assert solution.status == reference.status
    if reference.status != STATUS_OPTIMAL:
        return False
    assert solution.objective == pytest.approx(reference.objective, abs=1e-9)
    assert solution.plan.routes == reference.plan
    return True


class TestSolveDeterministic:
    def test_single_task_route_and_objective(self, single_task_network):
        solution = solve_deterministic(single_task_network)
        assert solution.status == STATUS_OPTIMAL
        assert solution.plan.routes == ((0, 1, 2, 3),)
        assert solution.objective == pytest.approx(15 + 15 + 30)
        reference = oracle_solve_deterministic(single_task_network)
        assert reference.objective == pytest.approx(solution.objective)

    def test_solutions_compare_and_hash_by_identity(self, tri3_network):
        # A solution holds a schedule, whose arrays have no single truth value.
        first, second = solve_deterministic(tri3_network), solve_deterministic(tri3_network)
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2

    def test_tri3_objective_matches_oracle(self, tri3_network):
        solution = solve_deterministic(tri3_network)
        reference = oracle_solve_deterministic(tri3_network)
        assert _agrees_with_oracle(solution, reference)
        # A single vehicle can chain both tasks inside the windows, so the
        # optimum is one 90 m tour plus an idle vehicle.
        assert reference.objective == pytest.approx(90.0)

    def test_window_shorter_than_travel_is_infeasible(self):
        doc = single_task_dict(latest=5.0)
        network = build_network(load_instance(json.dumps(doc)))
        solution = solve_deterministic(network)
        assert solution.status == STATUS_INFEASIBLE
        assert solution.infeasible_task == "T1"

    def test_schedule_is_earliest_feasible(self, tri3_network):
        solution = solve_deterministic(tri3_network)
        w = solution.schedule.times
        plan = solution.plan
        d = tri3_network.travel_time
        for k, route in enumerate(plan.routes):
            for prev, node in zip(route, route[1:]):
                expected = max(tri3_network.open_time[node], w[k, prev] + d[prev, node])
                if tri3_network.n + 1 <= node <= 2 * tri3_network.n:
                    pick = node - tri3_network.n
                    if pick in route:
                        expected = max(expected, w[k, pick] + d[pick, node])
                assert w[k, node] == pytest.approx(expected)

    def test_idle_vehicles_cost_nothing(self, tri3_instance):
        doc = instance_dict("tri3")
        doc["vehicles"] = 4
        network = build_network(load_instance(json.dumps(doc)))
        solution = solve_deterministic(network)
        assert solution.objective == pytest.approx(90.0)
        idle = [r for r in solution.plan.routes if r == (0, network.terminal)]
        assert len(idle) == 3

    def test_requires_alpha_zero(self, tri3_network):
        # The nominal model ignores no scenario; a positive alpha used to be
        # solved at alpha = 0 and reported as 0.
        with pytest.raises(ValueError, match="alpha"):
            solve_deterministic(tri3_network, SolveConfig(alpha=0.3))

    def test_limit_spent_in_set_up_stops_a_small_search(self, tri3_network):
        # tri3's whole search takes 14 nodes, far below the clock's period.
        # It stops at its first node, with only the seed plan to return.
        solution = solve_deterministic(tri3_network, SolveConfig(time_limit=1e-9))
        assert solution.status == STATUS_TIME_LIMIT_INCUMBENT
        assert solution.stats.nodes_explored == 1

    def test_deterministic_reruns_identical(self, tri3_network):
        s1 = solve_deterministic(tri3_network)
        s2 = solve_deterministic(tri3_network)
        assert s1.plan.routes == s2.plan.routes
        assert s1.objective == s2.objective
        assert np.array_equal(s1.schedule.times, s2.schedule.times)
        assert s1.stats == s2.stats


class TestSolveStochastic:
    def test_single_nominal_scenario_equals_deterministic(self, tri3_network):
        det = solve_deterministic(tri3_network)
        scen = single_scenario(tri3_network.travel_time)
        sto = solve_stochastic(tri3_network, scen, SolveConfig(alpha=0.0))
        assert sto.status == det.status == STATUS_OPTIMAL
        assert sto.objective == pytest.approx(det.objective)
        assert sto.plan.routes == det.plan.routes
        assert not sto.schedule.ignored.any()

    def test_robust_objective_at_least_deterministic(self, tri3_network):
        det = solve_deterministic(tri3_network)
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=30, seed=7))
        sto = solve_stochastic(tri3_network, scen, SolveConfig(alpha=0.0))
        assert sto.status == STATUS_OPTIMAL
        assert sto.objective >= det.objective - 1e-9

    def test_ignores_exactly_the_worst_scenario(self, tri3_network):
        # Tune the first task's deadline between the worst and second-worst
        # chain arrival so precisely one sampled scenario breaks the cheap
        # single-vehicle tour; at alpha = 0.1 with ten uniform scenarios the
        # optimum keeps the tour and switches that scenario off.
        doc = instance_dict("tri3")
        doc["tasks"][0]["latest_delivery_s"] = 54.0
        doc["tasks"][1]["latest_delivery_s"] = 200.0
        network = build_network(load_instance(json.dumps(doc)))
        scen = generate_scenarios(network, ScenarioConfig(count=10, seed=17))

        solution = solve_stochastic(network, scen, SolveConfig(alpha=0.1))
        assert solution.status == STATUS_OPTIMAL
        assert solution.objective == pytest.approx(90.0)
        assert int(solution.schedule.ignored.sum()) == 1
        assert int(np.flatnonzero(solution.schedule.ignored)[0]) == 4

        reference = oracle_solve(network, scen.travel_times, scen.probabilities, 0.1)
        assert reference.status == STATUS_OPTIMAL
        assert reference.objective == pytest.approx(solution.objective)
        assert reference.ignored == (4,)
        assert solution.plan.routes == reference.plan

    def test_alpha_monotonicity(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=10, seed=3))
        previous = None
        for alpha in (0.0, 0.1, 0.3, 0.5):
            solution = solve_stochastic(tri3_network, scen, SolveConfig(alpha=alpha))
            assert solution.status == STATUS_OPTIMAL
            if previous is not None:
                assert solution.objective <= previous + 1e-9
            previous = solution.objective

    def test_window_monotonicity(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            network = random_network(rng, max_tasks=2, max_vehicles=2)
            base = solve_deterministic(network)
            widened = _widen_deadlines(network)
            wider = solve_deterministic(widened)
            if base.status == STATUS_OPTIMAL:
                assert wider.status == STATUS_OPTIMAL
                assert wider.objective <= base.objective + 1e-9

    @pytest.mark.parametrize("solve", [solve_stochastic, solve_alpha_zero_fast],
                             ids=["sto", "sto-fast"])
    @pytest.mark.parametrize("stretches, limiting", [((1.0, 6.0), (1,)), ((6.0,), (0,))],
                             ids=["second-dead", "lone-dead"])
    def test_infeasible_reports_limiting_scenarios(self, tri3_network, solve, stretches,
                                                   limiting):
        # A stretch of 6 pushes task 1's pickup-to-delivery coupling far
        # beyond its deadline, so that scenario must be ignored; alpha 0
        # forbids that.  The fast path searches the supremum but must name
        # the culprits by their index in the full set, and a lone forced-dead
        # scenario is named like any other.
        nv = tri3_network.size
        mults = np.stack([np.full((nv, nv), f) for f in stretches])
        for m in mults:
            np.fill_diagonal(m, 1.0)
        scen = ScenarioSet(multipliers=mults,
                           nominal=tri3_network.travel_time,
                           probabilities=np.full(len(stretches), 1.0 / len(stretches)))
        solution = solve(tri3_network, scen, SolveConfig(alpha=0.0))
        assert solution.status == STATUS_INFEASIBLE
        assert solution.limiting_scenarios == limiting

    def test_lost_mass_within_alpha_names_no_limiting_scenario(self):
        # One of these 30 scenarios is lost to every plan.  At alpha 0 it
        # alone stops the solve and is named; at alpha 0.1 its mass is within
        # budget, so the search runs and the infeasibility lies in the plans
        # it tried, not in a scenario.
        network = build_network(load_instance(json.dumps(gen.factory_instance(28, 4, "tight"))))
        scen = generate_scenarios(network, ScenarioConfig(count=30, seed=28))
        strict = solve_stochastic(network, scen, SolveConfig(alpha=0.0))
        assert strict.status == STATUS_INFEASIBLE and len(strict.limiting_scenarios) == 1
        assert strict.stats.nodes_explored == 0
        solution = solve_stochastic(network, scen, SolveConfig(alpha=0.1))
        assert solution.status == STATUS_INFEASIBLE and solution.limiting_scenarios == ()
        assert solution.stats.nodes_explored > 0

    def test_lost_scenario_of_zero_probability(self, tri3_network):
        # Scenario 1 is lost to every plan but weighs nothing: the scenario
        # search ignores it at alpha 0, while the fast path's maxima take its
        # arcs and lose their one scenario, so the fast solve stops unsearched
        # and names it.
        nv = tri3_network.size
        mults = np.ones((2, nv, nv))
        mults[1] = 6.0
        np.fill_diagonal(mults[1], 1.0)
        scen = ScenarioSet(multipliers=mults, nominal=tri3_network.travel_time,
                           probabilities=np.array([1.0, 0.0]))
        sto = solve_stochastic(tri3_network, scen)
        assert sto.status == STATUS_OPTIMAL and sto.schedule.ignored.tolist() == [False, True]
        fast = solve_alpha_zero_fast(tri3_network, scen)
        assert fast.status == STATUS_INFEASIBLE and fast.limiting_scenarios == (1,)
        assert fast.stats == SearchStats(0, 0, 0)


class TestAlphaZeroFast:
    def test_single_scenario_matches_direct_solve(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=1, seed=9))
        fast = solve_alpha_zero_fast(tri3_network, scen)
        sto = solve_stochastic(tri3_network, scen, SolveConfig(alpha=0.0))
        assert fast.status == sto.status == STATUS_OPTIMAL
        assert fast.objective == pytest.approx(sto.objective)
        assert fast.plan.routes == sto.plan.routes

    def test_dominating_scenario_wins(self, tri3_network):
        nv = tri3_network.size
        mults = np.ones((2, nv, nv))
        mults[0] = 1.4
        np.fill_diagonal(mults[0], 1.0)
        scen = ScenarioSet(multipliers=mults,
                           nominal=tri3_network.travel_time,
                           probabilities=np.array([0.5, 0.5]))
        dominator = ScenarioSet(multipliers=mults[:1].copy(),
                                nominal=tri3_network.travel_time,
                                probabilities=np.array([1.0]))
        fast = solve_alpha_zero_fast(tri3_network, scen)
        alone = solve_stochastic(tri3_network, dominator, SolveConfig(alpha=0.0))
        assert fast.status == alone.status == STATUS_OPTIMAL
        assert fast.objective == pytest.approx(alone.objective)
        assert fast.plan.routes == alone.plan.routes

    def test_fast_path_is_conservative(self, tri3_network):
        # One schedule must absorb the element-wise worst case, so the fast
        # path can only restrict the feasible set: any plan it returns
        # replays cleanly on every sampled scenario, and its objective is
        # never below the per-scenario solve.  (On this instance the two
        # genuinely differ: per-scenario re-timing keeps a 120 m plan alive
        # while the combined worst case admits no plan at all.)
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=30, seed=7))
        sto = solve_stochastic(tri3_network, scen, SolveConfig(alpha=0.0))
        fast = solve_alpha_zero_fast(tri3_network, scen)
        assert sto.status == STATUS_OPTIMAL
        if fast.status == STATUS_OPTIMAL:
            assert fast.objective >= sto.objective - 1e-9
            assert (replay_failures(fast.plan, tri3_network, scen) == 0).all()
        else:
            assert fast.status == STATUS_INFEASIBLE

    def test_requires_alpha_zero(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=2, seed=1))
        with pytest.raises(ValueError, match="alpha"):
            solve_alpha_zero_fast(tri3_network, scen, SolveConfig(alpha=0.2))


class TestOracleEquivalence:
    def test_deterministic_sample(self):
        rng = np.random.default_rng(7)
        optima = infeasible = 0
        for _ in range(12):
            network = random_network(rng)
            solution = solve_deterministic(network)
            reference = oracle_solve_deterministic(network)
            if _agrees_with_oracle(solution, reference):
                optima += 1
            else:
                infeasible += 1
        assert optima >= 3 and infeasible >= 1

    def test_stochastic_sample(self):
        rng = np.random.default_rng(70)
        checked = 0
        for trial in range(10):
            network = random_network(rng, max_tasks=2)
            count = int(rng.integers(1, 4))
            scen = generate_scenarios(network, ScenarioConfig(count=count, seed=trial))
            alpha = float(rng.choice([0.0, 1.0 / 3.0, 0.5]))
            solution = solve_stochastic(network, scen, SolveConfig(alpha=alpha))
            reference = oracle_solve(network, scen.travel_times, scen.probabilities, alpha)
            if _agrees_with_oracle(solution, reference):
                checked += 1
        assert checked >= 3

    def test_horizon_at_latest_deadline(self):
        # instgen puts the horizon 50-200 s past the last deadline, where no
        # pickup or terminal window binds.  Here it is the latest deadline,
        # so late pickups and route closings miss windows too, and some
        # results differ from those under the generated horizon.  A pickup
        # past the horizon also dooms its delivery, so without its window
        # test the plans stay the same and the lookahead cuts the child
        # instead: only the pinned counters show that.
        rng = np.random.default_rng(99)
        changed = 0
        prunes = {}
        for trial in range(60):
            doc = random_instance_doc(rng, max_tasks=3, max_vehicles=2)
            wide = build_network(load_instance(json.dumps(doc)))
            doc["horizon"] = max(task["latest_delivery_s"] for task in doc["tasks"])
            network = build_network(load_instance(json.dumps(doc)))
            config = ScenarioConfig(count=6, seed=trial)
            scen, wide_scen = generate_scenarios(network, config), generate_scenarios(wide, config)
            cases = [("det", solve_deterministic(network), solve_deterministic(wide),
                      oracle_solve_deterministic(network))]
            for alpha in (0.0, 0.34):
                solve_config = SolveConfig(alpha=alpha)
                cases.append((f"sto-{alpha}", solve_stochastic(network, scen, solve_config),
                              solve_stochastic(wide, wide_scen, solve_config),
                              oracle_solve(network, scen.travel_times, scen.probabilities,
                                           alpha)))
            for mode, solution, widened, reference in cases:
                _agrees_with_oracle(solution, reference)
                changed += (solution.objective, solution.plan) != (widened.objective,
                                                                   widened.plan)
                stats = solution.stats
                window, lookahead, split = prunes.get(mode, (0, 0, 0))
                prunes[mode] = (window + stats.window_prunes,
                                lookahead + stats.lookahead_prunes, split + stats.split_prunes)
        assert changed >= 20
        assert prunes == {"det": (35, 128, 67), "sto-0.0": (130, 115, 0),
                          "sto-0.34": (186, 264, 0)}


def _detour_network():
    """Line DEP-A-B-C at 10 s per edge; T1 A->C and T2 B->C, both due at 35 s.

    Nodes: 0 DEP, 1 A (T1 pickup), 2 B (T2 pickup), 3 C (T1 delivery),
    4 C (T2 delivery), 5 DEP.  One vehicle can chain both tasks for 90 m
    (A at 10 s, B at 20 s, both deliveries at 30 s); two vehicles cost 180 m.
    """
    doc = {
        "layout": {"nodes": ["DEP", "A", "B", "C"],
                   "edges": [["DEP", "A", 15.0], ["A", "B", 15.0], ["B", "C", 15.0]]},
        "tasks": [{"id": "T1", "from": "A", "to": "C",
                   "earliest_pickup_s": 0, "latest_delivery_s": 35},
                  {"id": "T2", "from": "B", "to": "C",
                   "earliest_pickup_s": 0, "latest_delivery_s": 35}],
        "vehicles": 2, "depot": "DEP", "speed": 1.5, "horizon": 200,
    }
    return build_network(load_instance(json.dumps(doc)))


class TestDeadlineLookahead:
    def test_non_metric_detour_is_not_pruned(self):
        # Scenario 0 slows the direct arc from T2's pickup to T1's delivery
        # fivefold (10 s -> 50 s), so from B at 20 s the direct arc misses
        # T1's 35 s deadline, while the detour through T2's co-located
        # delivery (10 s + 0 s) meets it.  Only the chain 0-1-2-4-3-5 takes
        # that detour; a lookahead on direct arcs would cut it and settle
        # for two vehicles at 180 m.
        network = _detour_network()
        nv = network.size
        mults = np.ones((2, nv, nv))
        mults[0, 2, 3] = mults[0, 3, 2] = 5.0
        scen = ScenarioSet(multipliers=mults, nominal=network.travel_time,
                           probabilities=np.array([0.5, 0.5]))
        reference = oracle_solve(network, scen.travel_times, scen.probabilities, 0.0)
        assert reference.plan == ((0, 1, 2, 4, 3, 5), (0, 5))
        assert reference.objective == pytest.approx(90.0)
        for solution in (solve_stochastic(network, scen, SolveConfig(alpha=0.0)),
                         solve_alpha_zero_fast(network, scen)):
            assert solution.status == STATUS_OPTIMAL
            assert solution.plan.routes == reference.plan
            assert solution.objective == pytest.approx(reference.objective, abs=1e-9)

    def test_non_metric_nominal_times_match_oracle(self):
        # Stretched times break the triangle inequality in the nominal
        # matrix itself, so det's lookahead must cut on its closure like
        # any other stack's.  Trial 430 (3 tasks, 2 vehicles) is where a
        # det that trusted the network's times as their own closure cut the
        # oracle's 88 m plan and returned 112 m.
        rng = np.random.default_rng(17)
        for trial in range(431):
            network = _stretched(
                random_network(rng, max_tasks=3, max_vehicles=2,
                               tightness=("tight", "mixed", "loose")[trial % 3]),
                rng, "travel_time")
            reference = oracle_solve_deterministic(network)
            for solution in (solve_deterministic(network),
                             solve_stochastic(network, single_scenario(network.travel_time))):
                _agrees_with_oracle(solution, reference)
        assert (network.n, network.vehicle_count) == (3, 2)
        assert reference.objective == pytest.approx(88.0)
        assert not np.array_equal(shortest_path_closure(network.travel_time),
                                  network.travel_time)

    def test_tight_instances_match_oracle(self):
        # Tight deadlines are where the lookahead fires; every engine and
        # mode must still return the oracle's plan.  Each mode must also
        # have optimal solves on which the lookahead pruned something.  On
        # all-tight instances the seed's cutoff leaves the scenario modes
        # nothing to look ahead on, so every other instance has mixed
        # deadlines.
        rng = np.random.default_rng(4242)
        optima = 0
        fired = {"det": 0, "sto-0": 0, "sto-1/3": 0, "sto-fast": 0}
        for trial in range(160):
            network = random_network(rng, max_tasks=3, max_vehicles=2,
                                     tightness="tight" if trial % 2 == 0 else "mixed")
            scen = generate_scenarios(network, ScenarioConfig(count=3, seed=trial))
            cases = [("det", solve_deterministic(network),
                      oracle_solve_deterministic(network)),
                     ("sto-fast", solve_alpha_zero_fast(network, scen),
                      oracle_solve(network, scen.travel_times.max(axis=0, keepdims=True),
                                   np.ones(1), 0.0))]
            for name, alpha in (("sto-0", 0.0), ("sto-1/3", 1.0 / 3.0)):
                cases.append((name, solve_stochastic(network, scen, SolveConfig(alpha=alpha)),
                              oracle_solve(network, scen.travel_times, scen.probabilities,
                                           alpha)))
            for mode, solution, reference in cases:
                if _agrees_with_oracle(solution, reference):
                    optima += 1
                    fired[mode] += solution.stats.lookahead_prunes > 0
        assert optima >= 40
        assert all(count > 0 for count in fired.values()), fired

    def test_factory6_nominal_prunes_early_with_same_plan(self, factory6_network):
        solution = solve_deterministic(factory6_network)
        assert solution.stats.lookahead_prunes > 0
        assert solution.objective == pytest.approx(186.0)
        assert solution.plan.routes == (
            (0, 2, 5, 8, 11, 13), (0, 4, 3, 6, 1, 9, 10, 7, 12, 13),
            (0, 13), (0, 13), (0, 13))


def _late_task_network(vehicles):
    """A and C each 15 m (10 s) from DEP on either side, B 15 m past A.
    T1 A->B is due at 25 s, T2 C->A at 200 s.

    Nodes: 0 DEP, 1 A (T1 pickup), 2 C (T2 pickup), 3 B (T1 delivery),
    4 A (T2 delivery), 5 DEP.  A vehicle that fetches T2 first is at C at
    10 s and cannot deliver T1 before 40 s.
    """
    doc = {"layout": {"nodes": ["DEP", "A", "B", "C"],
                      "edges": [["DEP", "A", 15.0], ["A", "B", 15.0], ["DEP", "C", 15.0]]},
           "tasks": [{"id": "T1", "from": "A", "to": "B",
                      "earliest_pickup_s": 0, "latest_delivery_s": 25},
                     {"id": "T2", "from": "C", "to": "A",
                      "earliest_pickup_s": 0, "latest_delivery_s": 200}],
           "vehicles": vehicles, "depot": "DEP", "speed": 1.5, "horizon": 400}
    return build_network(load_instance(json.dumps(doc)))


def _slow_arc_network():
    """Line DEP-A-B-C at 10 s an edge, one vehicle.  T1 A->B is due at
    100 s, T2 C->B at 45 s, and T2's pickup closes at 50 s.

    Nodes: 0 DEP, 1 A (T1 pickup), 2 C (T2 pickup), 3 B (T1 delivery),
    4 B (T2 delivery), 5 DEP.  The plan 0-1-3-2-4-5 costs 90 m and
    0-2-4-1-3-5 120 m.
    """
    doc = {"layout": {"nodes": ["DEP", "A", "B", "C"],
                      "edges": [["DEP", "A", 15.0], ["A", "B", 15.0], ["B", "C", 15.0]]},
           "tasks": [{"id": "T1", "from": "A", "to": "B",
                      "earliest_pickup_s": 0, "latest_delivery_s": 100},
                     {"id": "T2", "from": "C", "to": "B",
                      "earliest_pickup_s": 0, "latest_delivery_s": 45}],
           "vehicles": 1, "depot": "DEP", "speed": 1.5, "horizon": 400}
    network = build_network(load_instance(json.dumps(doc)))
    close_time = network.close_time.copy()
    close_time[2] = 50.0
    return dataclasses.replace(network, close_time=close_time)


def _split_cases(network, scen):
    """det and sto-fast on `network`, each with its oracle."""
    worst = scen.travel_times.max(axis=0, keepdims=True)
    return [("det", solve_deterministic(network), oracle_solve_deterministic(network)),
            ("sto-fast", solve_alpha_zero_fast(network, scen),
             oracle_solve(network, worst, np.ones(1), 0.0))]


def _non_metric(times):
    return not np.array_equal(shortest_path_closure(times), times)


class TestSplitBound:
    # At S = 1 a node past the route start is cut once some unvisited task
    # is late for the current vehicle: on the last vehicle at once, else
    # when the split completion bound reaches the cutoff.  Plans must stay
    # the oracle's.

    def test_tight_layouts_match_oracle(self):
        rng = np.random.default_rng(31)
        optima = 0
        split = {"det": 0, "sto-fast": 0}
        for trial in range(120):
            network = random_network(rng, max_tasks=3, max_vehicles=2,
                                     tightness=("tight", "mixed")[trial % 2])
            scen = generate_scenarios(network, ScenarioConfig(count=3, seed=trial))
            for mode, solution, reference in _split_cases(network, scen):
                if _agrees_with_oracle(solution, reference):
                    optima += 1
                split[mode] += solution.stats.split_prunes > 0
        assert optima >= 40
        assert split["det"] >= 30 and split["sto-fast"] >= 10, split

    def test_non_metric_supremum_matches_oracle(self):
        # The supremum of sampled matrices breaks the triangle inequality,
        # so a detour can reach a pickup sooner than its direct arc: the
        # late test reads the closure of the searched matrix.
        rng = np.random.default_rng(32)
        split = 0
        for trial in range(200):
            network = random_network(rng, max_tasks=3, max_vehicles=2,
                                     tightness=("tight", "mixed")[trial % 2])
            scen = generate_scenarios(network, ScenarioConfig(count=4, seed=trial))
            worst = scen.travel_times.max(axis=0)
            solution = solve_alpha_zero_fast(network, scen)
            reference = oracle_solve(network, worst[np.newaxis], np.ones(1), 0.0)
            _agrees_with_oracle(solution, reference)
            split += solution.stats.split_prunes > 0 and _non_metric(worst)
        assert split >= 10

    def test_non_metric_nominal_times_match_oracle(self):
        # Stretched times break the triangle inequality in the nominal
        # matrix itself; det closes its stack like any other search.
        rng = np.random.default_rng(33)
        split = 0
        for trial in range(200):
            network = _stretched(random_network(rng, max_tasks=3, max_vehicles=2,
                                                tightness=("tight", "mixed")[trial % 2]),
                                 rng, "travel_time")
            scen = generate_scenarios(network, ScenarioConfig(count=3, seed=trial))
            for mode, solution, reference in _split_cases(network, scen):
                _agrees_with_oracle(solution, reference)
                split += (mode == "det" and solution.stats.split_prunes > 0
                          and _non_metric(network.travel_time))
        assert split >= 10

    @pytest.mark.parametrize("mode", ["det", "sto-fast"])
    def test_late_test_reads_the_closure(self, monkeypatch, mode):
        # The searched matrix takes 60 s from A to C (det's own times, or
        # one of sto-fast's scenarios), but A-B-C takes 20 s.  At A at 10 s
        # T2 is not late: C by 30 s, B by 40 s.  A late test on the direct
        # arc, or on the starting cut-offs without closing the stack, cuts A
        # and returns 0-2-4-1-3-5 at 120 m.  The seed alone would find the
        # 90 m plan, so its slack is lost to rounding; T2's pickup window
        # keeps the seed from closing the stack.
        monkeypatch.setattr(solver_module, "_SEED_SLACK", math.ulp(90.0) / 4)
        network = _slow_arc_network()
        if mode == "det":
            times = network.travel_time.copy()
            times[1, 2] = times[2, 1] = 60.0
            network = dataclasses.replace(network, travel_time=times)
            solution = solve_deterministic(network)
            reference = oracle_solve_deterministic(network)
        else:
            mults = np.ones((2,) + network.travel_time.shape)
            mults[0, 1, 2] = mults[0, 2, 1] = 3.0
            scen = ScenarioSet(multipliers=mults, nominal=network.travel_time,
                               probabilities=np.array([0.5, 0.5]))
            solution = solve_alpha_zero_fast(network, scen)
            reference = oracle_solve(network, scen.travel_times.max(axis=0, keepdims=True),
                                     np.ones(1), 0.0)
        assert reference.plan == ((0, 1, 3, 2, 4, 5),)
        assert solution.stats.seed_m is None
        assert solution.plan.routes == reference.plan
        assert solution.objective == pytest.approx(90.0)

    def test_last_vehicle_cuts_a_late_task(self, monkeypatch):
        # With a table that tracks only the depot the split bound reads 0,
        # so only the last-vehicle rule can cut: on one vehicle the node
        # that fetches T2 first leaves T1 late and is cut; with a second
        # vehicle nothing is.
        monkeypatch.setattr(solver_module, "_TABLE_LOCATIONS", 1)
        for vehicles, split_prunes in ((1, 1), (2, 0)):
            network = _late_task_network(vehicles)
            solution = solve_deterministic(network)
            reference = oracle_solve_deterministic(network)
            assert solution.plan.routes == reference.plan
            assert solution.objective == pytest.approx(reference.objective, abs=1e-9)
            assert solution.stats.split_prunes == split_prunes
        assert reference.plan == ((0, 1, 3, 2, 4, 5), (0, 5))


def _tracked_walk(network, loc, bit, mask, start):
    """Brute force: the shortest walk from location `start` through every
    location whose bit is in `mask`, ending at the depot."""
    node_at = {loc[v]: v for v in reversed(range(network.size))}
    members = sorted({loc[v] for v in range(network.size) if bit[v] & mask})
    best = math.inf
    for order in itertools.permutations(members):
        stops = [node_at[start]] + [node_at[u] for u in order] + [0]
        best = min(best, sum(network.travel_dist[u, v] for u, v in zip(stops, stops[1:])))
    return best


def _first_appearance_table(network):
    """A fresh build numbered as the network meets its locations: the table a
    per-solve build without the memo would give."""
    names = list(dict.fromkeys(network.locations))
    loc = [names.index(name) for name in network.locations]
    node_at = [loc.index(u) for u in range(len(names))]
    d = [[float(network.travel_dist[i, j]) for j in node_at] for i in node_at]
    hosted = [loc[1:network.terminal].count(u) for u in range(len(names))]
    tracked = sorted((u for u in range(1, len(names)) if hosted[u]),
                     key=lambda u: -hosted[u])[:solver_module._TABLE_LOCATIONS - 1]
    loc_bit = [0] * len(names)
    for b, u in enumerate(tracked):
        loc_bit[u] = 1 << b
    table = [[row[0] for row in d]]
    for mask in range(1, 1 << len(tracked)):
        steps = [(u, table[mask ^ loc_bit[u]]) for u in tracked if mask & loc_bit[u]]
        table.append([min(row[u] + rest[u] for u, rest in steps) for row in d])
    return table, loc, [loc_bit[u] for u in loc]


def _stretched(network, rng, field="travel_dist"):
    """`network` with each pair of locations' distances (or the matrix
    `field`) scaled by its own factor in [1, 3); co-located nodes stay
    0 apart."""
    names = sorted(set(network.locations))
    at = [names.index(name) for name in network.locations]
    factors = np.triu(rng.uniform(1.0, 3.0, (len(names), len(names))), 1)
    scale = (factors + factors.T)[np.ix_(at, at)]
    return dataclasses.replace(network, **{field: getattr(network, field) * scale})


class TestCompletionTable:
    def test_non_metric_distances_match_oracle(self):
        # Stretched distances break the triangle inequality: a detour
        # through a third location can beat the direct hop.  The table hops
        # over the closure of the distances, so it still bounds every
        # completion, and det and sto on the one nominal scenario return the
        # oracle's plan.  A table over the raw distances overshoots: on
        # trials 83 and 146 both solves return 164.6 m and 87.6 m where the
        # oracle finds 141.1 m and 53.3 m.
        rng = np.random.default_rng(17)
        detours = 0
        for trial in range(150):
            network = _stretched(
                random_network(rng, max_tasks=3, max_vehicles=2,
                               tightness=("tight", "mixed", "loose")[trial % 3]), rng)
            detours += not np.array_equal(shortest_path_closure(network.travel_dist),
                                          network.travel_dist)
            reference = oracle_solve_deterministic(network)
            for solution in (solve_deterministic(network),
                             solve_stochastic(network, single_scenario(network.travel_time))):
                _agrees_with_oracle(solution, reference)
        assert detours >= 50

    def test_entries_equal_brute_force_walks(self):
        rng = np.random.default_rng(808)
        for _ in range(25):
            network = random_network(rng, max_tasks=3, max_vehicles=2)
            table, loc, bit = _walk_table(network)
            # Small layouts fit under the cap: every task location is tracked.
            task_locations = {loc[v] for v in range(1, network.terminal)} - {0}
            assert len(table) == 2 ** len(task_locations)
            for mask, row in enumerate(table):
                assert len(row) == len(set(network.locations))
                for start, value in enumerate(row):
                    assert value == pytest.approx(
                        _tracked_walk(network, loc, bit, mask, start), abs=1e-9)
            solution = solve_deterministic(network)
            # A search that never starts reports no bound.
            started = solution.stats.nodes_explored > 0
            assert solution.stats.root_bound_m == (table[-1][0] if started else 0.0)
            if solution.status == STATUS_OPTIMAL:
                assert solution.stats.root_bound_m <= solution.objective + 1e-9

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_layouts_beyond_the_cap_match_oracle(self, monkeypatch, cap):
        # Locations beyond the cap count for nothing in the table; the bound
        # stays admissible, so plans still equal the oracle's.
        monkeypatch.setattr(solver_module, "_TABLE_LOCATIONS", cap)
        rng = np.random.default_rng(90 + cap)
        beyond = 0
        for trial in range(30):
            network = random_network(rng, max_tasks=3, max_vehicles=2,
                                     tightness="loose" if trial % 2 else "tight")
            _, loc, bit = _walk_table(network)
            beyond += any(loc[v] != 0 and not bit[v] for v in range(1, network.terminal))
            scen = generate_scenarios(network, ScenarioConfig(count=2, seed=trial))
            for solution, reference in (
                    (solve_deterministic(network), oracle_solve_deterministic(network)),
                    (solve_stochastic(network, scen),
                     oracle_solve(network, scen.travel_times, scen.probabilities, 0.0))):
                _agrees_with_oracle(solution, reference)
        assert beyond >= 10

    @pytest.mark.parametrize("cap", [10, 3, 2])
    def test_memo_serves_a_fresh_build_bit_for_bit(self, monkeypatch, cap):
        monkeypatch.setattr(solver_module, "_TABLE_LOCATIONS", cap)
        rng = np.random.default_rng(40 + cap)
        beyond = 0
        for _ in range(30):
            network = random_network(rng, max_tasks=4, max_vehicles=2)
            _location_table.cache_clear()
            fresh, loc, bit = _walk_table(network)
            served, served_loc, served_bit = _walk_table(network)
            assert _location_table.cache_info().hits == 1
            assert (served_loc, served_bit) == (loc, bit)
            assert np.array(served).tobytes() == np.array(fresh).tobytes()
            # Every lookup the search makes reads the same bits as in a table
            # numbered by first appearance.
            ref, ref_loc, ref_bit = _first_appearance_table(network)
            assert len(ref) == len(served)
            for ref_mask, row in enumerate(ref):
                mask = 0
                for v in range(network.size):
                    if ref_bit[v] & ref_mask:
                        mask |= bit[v]
                for v in range(network.size):
                    assert (np.float64(served[mask][loc[v]]).tobytes()
                            == np.float64(row[ref_loc[v]]).tobytes())
            beyond += len(set(network.locations)) > cap
        # Random layouts fit under the default cap; below it many do not.
        assert beyond >= 10 or cap == 10

    def test_same_names_other_distances_get_other_tables(self):
        doc = single_task_dict()
        first, loc, _ = _walk_table(build_network(load_instance(json.dumps(doc))))
        for edge in doc["layout"]["edges"]:
            edge[2] *= 2.0
        second, other_loc, _ = _walk_table(build_network(load_instance(json.dumps(doc))))
        assert other_loc == loc
        assert second != first
        assert second == tuple(tuple(2.0 * x for x in row) for row in first)

    def test_one_build_per_location_set(self):
        # Many task sets on one layout: the table is built once per distinct
        # set of locations (all under the cap, so all tracked), not per solve.
        doc = instance_dict("factory6")
        doc["vehicles"], doc["horizon"] = 2, 1200.0
        stations = ("A", "B", "C", "D", "J6")
        rng = np.random.default_rng(11)
        _location_table.cache_clear()
        location_sets = set()
        solves = 60
        for _ in range(solves):
            doc["tasks"] = []
            for t in range(int(rng.integers(2, 4))):
                a, b = rng.choice(len(stations), size=2, replace=False)
                doc["tasks"].append({"id": f"T{t}", "from": stations[a], "to": stations[b],
                                     "earliest_pickup_s": 0.0, "latest_delivery_s": 1000.0})
            network = build_network(load_instance(json.dumps(doc)))
            location_sets.add(frozenset(network.locations))
            assert solve_deterministic(network).status == STATUS_OPTIMAL
        assert len(location_sets) <= solver_module._TABLE_MEMO
        assert _location_table.cache_info().misses == len(location_sets) < solves // 4

    def test_equal_cost_subtree_is_cut(self):
        # Line DEP-A-B at 15 m per edge; T1 and T2 both A->B, one vehicle,
        # loose windows.  Nodes: 0 DEP, 1 and 2 at A, 3 and 4 at B, 5 DEP.
        # 0-1-2-3-4-5, 0-1-2-4-3-5, 0-2-1-3-4-5 and 0-2-1-4-3-5 all cost
        # 60 m; the first is the lexicographically smallest.  Once it is the
        # incumbent, [0,1,2,4] and [0,2] can only tie it and [0,1,3] can only
        # lose, so the search visits 8 nodes and makes 3 bound prunes.
        # Cutting only subtrees that lose would expand both tying ones.
        doc = {
            "layout": {"nodes": ["DEP", "A", "B"],
                       "edges": [["DEP", "A", 15.0], ["A", "B", 15.0]]},
            "tasks": [{"id": f"T{t}", "from": "A", "to": "B",
                       "earliest_pickup_s": 0, "latest_delivery_s": 500} for t in (1, 2)],
            "vehicles": 1, "depot": "DEP", "speed": 1.5, "horizon": 600,
        }
        network = build_network(load_instance(json.dumps(doc)))
        solution = solve_deterministic(network)
        assert solution.plan.routes == ((0, 1, 2, 3, 4, 5),)
        assert solution.plan.routes == oracle_solve_deterministic(network).plan
        assert solution.objective == pytest.approx(60.0)
        assert solution.stats.nodes_explored == 8
        assert solution.stats.bound_prunes == 3


class TestOneEngine:
    def test_two_copies_of_nominal_equal_deterministic(self):
        # Two identical scenarios run the per-scenario branch of the search;
        # one nominal scenario runs the float branch.  Both must return the
        # same plan, and where det's split bound cuts nothing (it cuts at
        # S = 1 only) they take the same decisions at every node, so even
        # the counters agree.
        rng = np.random.default_rng(515)
        optima = unsplit = 0
        for trial in range(60):
            tightness = "tight" if trial % 2 == 0 else "loose"
            network = random_network(rng, max_tasks=4, max_vehicles=2, tightness=tightness)
            twin = ScenarioSet(multipliers=np.ones((2,) + network.travel_time.shape),
                               nominal=network.travel_time,
                               probabilities=np.array([0.5, 0.5]))
            det = solve_deterministic(network)
            sto = solve_stochastic(network, twin)
            assert sto.status == det.status
            assert sto.objective == det.objective
            if det.stats.split_prunes == 0:
                assert sto.stats == det.stats
                unsplit += 1
            if det.plan is not None:
                assert sto.plan.routes == det.plan.routes
                assert not sto.schedule.ignored.any()
                optima += 1
        assert optima >= 30
        assert unsplit >= 40

    def test_ignored_set_equals_model_replay(self):
        # The ignored set of a returned plan is exactly the set of scenarios
        # the plan fails under the model's recursion, replayed independently.
        # Some of these plans fail a different set of scenarios without the
        # pickup-to-delivery coupling.
        rng = np.random.default_rng(616)
        plans = with_ignored = 0
        for trial in range(120):
            tightness = "tight" if trial % 2 == 0 else "mixed"
            network = random_network(rng, max_tasks=3, max_vehicles=2, tightness=tightness)
            scen = generate_scenarios(network, ScenarioConfig(count=6, seed=trial))
            for alpha in (0.2, 0.5):
                solution = solve_stochastic(network, scen, SolveConfig(alpha=alpha))
                if solution.plan is None:
                    continue
                replay = [not plan_scenario_feasible(solution.plan.routes, times,
                                                     network.open_time, network.close_time,
                                                     network.n)
                          for times in scen.travel_times]
                assert solution.schedule.ignored.tolist() == replay
                plans += 1
                with_ignored += any(replay)
        assert plans >= 60 and with_ignored >= 30

    def test_coupling_miss_behind_a_met_bound(self):
        # Scenario 0 doubles the direct arc from T2's pickup B to its
        # delivery at C (10 s -> 20 s); the chain 0-1-2-3-4-5 gets there
        # through T1's co-located delivery (10 s + 0 s).  It reaches B at
        # 20 s and C at 30 s in every scenario, inside T2's 35 s deadline,
        # so only the coupling w[4] >= w[2] + t[2][4] = 40 s fails it, and
        # only in scenario 0.  Scenario 1 slows that arc by a fifth, which
        # the chain absorbs.  The float bound at T2's delivery must carry the
        # coupling too, or the search skips the scenario step there: at
        # alpha = 0 the tasks then need two vehicles, at 0.3 the chain stays
        # and ignores scenario 0.
        doc = {
            "layout": {"nodes": ["DEP", "A", "B", "C"],
                       "edges": [["DEP", "A", 15.0], ["DEP", "B", 15.0],
                                 ["A", "B", 15.0], ["B", "C", 15.0]]},
            "tasks": [{"id": "T1", "from": "A", "to": "C",
                       "earliest_pickup_s": 0, "latest_delivery_s": 35},
                      {"id": "T2", "from": "B", "to": "C",
                       "earliest_pickup_s": 0, "latest_delivery_s": 35}],
            "vehicles": 2, "depot": "DEP", "speed": 1.5, "horizon": 200,
        }
        network = build_network(load_instance(json.dumps(doc)))
        mults = np.ones((3,) + network.travel_time.shape)
        mults[0, 2, 4] = mults[0, 4, 2] = 2.0
        mults[1, 2, 4] = mults[1, 4, 2] = 1.2
        scen = ScenarioSet(multipliers=mults, nominal=network.travel_time,
                           probabilities=np.array([0.25, 0.25, 0.5]))
        expected = {0.0: ((0, 1, 3, 5), (0, 2, 4, 5)), 0.3: ((0, 1, 2, 3, 4, 5), (0, 5))}
        for alpha, plan in expected.items():
            solution = solve_stochastic(network, scen, SolveConfig(alpha=alpha))
            reference = oracle_solve(network, scen.travel_times, scen.probabilities, alpha)
            assert reference.plan == plan
            assert _agrees_with_oracle(solution, reference)
            assert tuple(np.flatnonzero(solution.schedule.ignored)) == reference.ignored


def _weighted(network, scen, rng, alpha):
    """`scen`'s draws under non-uniform probabilities: scenario 0 gets none,
    the last exactly `alpha`, and the others share the rest by a Dirichlet
    draw."""
    probs = np.zeros(scen.count)
    probs[-1] = alpha
    probs[1:-1] = (1.0 - alpha) * rng.dirichlet(np.ones(scen.count - 2))
    return ScenarioSet(multipliers=scen.multipliers, nominal=network.travel_time,
                       probabilities=probs)


def _arc_major_builds(monkeypatch):
    """The searches that build their arc-major stack copy `t_fs`, once per
    build."""
    builds = []
    build = solver_module._Search.t_fs.func

    def counted(search):
        builds.append(search)
        return build(search)

    prop = functools.cached_property(counted)
    prop.__set_name__(solver_module._Search, "t_fs")
    monkeypatch.setattr(solver_module._Search, "t_fs", prop)
    return builds


def _closure_shapes(monkeypatch):
    """The shapes of the stacks the searches close, in call order.  The
    completion table's closures are not counted: its memo makes them
    depend on test order."""
    shapes = []
    close_stack = solver_module._Search._close_stack

    def counted(search):
        closed = close_stack(search)
        if closed:
            shapes.append(search.times.shape)
        return closed

    monkeypatch.setattr(solver_module._Search, "_close_stack", counted)
    return shapes


class TestScenarioVector:
    def test_weighted_scenarios_match_oracle(self):
        # Every mass test reads the probabilities themselves: a zero-mass
        # scenario may fail freely, one of mass alpha may fail alone, and
        # the others weigh unequally.
        rng = np.random.default_rng(2024)
        optima = window = lookahead = 0
        for trial in range(60):
            network = random_network(rng, max_tasks=3, max_vehicles=2,
                                     tightness=("tight", "mixed")[trial % 2])
            count = int(rng.integers(3, 6))
            drawn = generate_scenarios(network, ScenarioConfig(count=count, seed=trial))
            for alpha in (0.0, 0.34):
                scen = _weighted(network, drawn, rng, alpha)
                solution = solve_stochastic(network, scen, SolveConfig(alpha=alpha))
                reference = oracle_solve(network, scen.travel_times, scen.probabilities, alpha)
                if _agrees_with_oracle(solution, reference):
                    optima += 1
                window += solution.stats.window_prunes
                lookahead += solution.stats.lookahead_prunes
        assert optima >= 30
        assert window > 0 and lookahead > 0

    def test_lazy_closure_decides_as_closing_up_front(self):
        # The search starts from the cut-offs of the arc-wise maxima and
        # closes the stack the first time a bound passes one; a search that
        # closes it before its seed takes every decision alike, the seed's
        # included.  So does sto-fast's one-matrix stack.
        rng = np.random.default_rng(515)
        closed = {"sto": 0, "sto-fast": 0}
        for trial in range(90):
            network = random_network(rng, max_tasks=3, max_vehicles=2,
                                     tightness=("tight", "mixed", "loose")[trial % 3])
            scen = generate_scenarios(network, ScenarioConfig(count=4, seed=trial))
            stacks = {"sto": (scen.travel_times, scen.probabilities,
                              SolveConfig(alpha=(0.0, 0.25)[trial % 2])),
                      "sto-fast": (scen.travel_times.max(axis=0, keepdims=True), np.ones(1),
                                   SolveConfig())}
            for mode, (times, probs, config) in stacks.items():
                outcomes = []
                for up_front in (False, True):
                    search = solver_module._Search(network, times, probs, 0.0, config)
                    if up_front:
                        search._close_stack()
                    else:
                        lazy = search
                    search.run()
                    outcomes.append((search.best_plan, search.best_obj, search.stats()))
                closed[mode] += lazy.closed
                assert outcomes[0] == outcomes[1]
        assert all(0 < count < 90 for count in closed.values()), closed

    def test_seed_retests_a_passed_cutoff(self):
        # Line DEP-A-B with C and D off B; B-C is 10 s direct or through D.
        # T1 A->C is due at 35 s, T2 B->D at 100 s.  Scenario 0 slows B-C
        # and scenario 1 D-C fivefold, so each still reaches C from B in
        # 10 s, but the arc-wise maxima take 30 s: the starting cut-off at B
        # for T1 is 5 s, the exact one 25 s.  The seed meets B at 20 s after
        # A, must close the stack and keep B, and then finds no delivery in
        # time: no seed.  Cutting B on the starting cut-off would seed
        # 0-1-3-2-4-5.
        doc = {"layout": {"nodes": ["DEP", "A", "B", "C", "D"],
                          "edges": [["DEP", "A", 15.0], ["A", "B", 15.0], ["B", "C", 15.0],
                                    ["B", "D", 7.5], ["D", "C", 7.5]]},
               "tasks": [{"id": "T1", "from": "A", "to": "C",
                          "earliest_pickup_s": 0, "latest_delivery_s": 35},
                         {"id": "T2", "from": "B", "to": "D",
                          "earliest_pickup_s": 0, "latest_delivery_s": 100}],
               "vehicles": 2, "depot": "DEP", "speed": 1.5, "horizon": 200}
        network = build_network(load_instance(json.dumps(doc)))
        nv = network.size
        mults = np.ones((2, nv, nv))
        mults[0, 2, 3] = mults[0, 3, 2] = 5.0
        mults[1, 3, 4] = mults[1, 4, 3] = 5.0
        scen = ScenarioSet(multipliers=mults, nominal=network.travel_time,
                           probabilities=np.array([0.5, 0.5]))
        search = solver_module._Search(network, scen.travel_times, scen.probabilities, 0.0,
                                       SolveConfig())
        assert search.latest_min[2][1] < 20.0 and not search.closed
        assert search._nearest_next() is None
        assert search.closed and search.latest_min[2][1] > 20.0
        solution = solve_stochastic(network, scen)
        reference = oracle_solve(network, scen.travel_times, scen.probabilities, 0.0)
        assert solution.plan.routes == reference.plan == ((0, 1, 3, 2, 4, 5), (0, 5))
        assert solution.stats.seed_m is None

    @pytest.mark.parametrize("mode", ["det", "sto-fast", "sto"])
    def test_starting_cutoffs_lie_below_the_closed_ones(self, mode):
        # The closing rule's premise: every cut-off a search starts from,
        # column 0's smallest split cut-off included, is at most the exact
        # one, so a bound that passes none of them passes none of the exact
        # ones.  The closed tables hang together: at S > 1 the earliest
        # cut-off is the minimum over scenarios, at S = 1 column 0 is each
        # row's smallest split cut-off, inf at the route start.
        rng = np.random.default_rng(29)
        raised = 0
        for trial in range(24):
            network = random_network(rng, max_tasks=4, max_vehicles=2,
                                     tightness=("tight", "loose")[trial % 2])
            scen = generate_scenarios(network, ScenarioConfig(count=30, seed=trial))
            times, probs = {
                "det": (network.travel_time[np.newaxis], np.ones(1)),
                "sto-fast": (scen.travel_times.max(axis=0, keepdims=True), np.ones(1)),
                "sto": (scen.travel_times, scen.probabilities)}[mode]
            search = solver_module._Search(network, times, probs, 0.0, SolveConfig())
            start = np.array(search.latest_min)
            assert search.latest_fs is None and search.split is None
            assert search._close_stack()
            closed = np.array(search.latest_min)
            # A second call finds the stack closed and leaves the tables be.
            latest_min = search.latest_min
            assert not search._close_stack()
            assert search.latest_min is latest_min and latest_min == closed.tolist()
            assert (start <= closed).all()
            raised += (start < closed).any()
            if mode == "sto":
                assert search.split is None
                assert np.array_equal(closed, search.latest_fs.min(axis=2))
            else:
                assert search.latest_fs is None
                assert np.array_equal(closed[1:, 0], np.min(search.split, axis=1)[1:])
                assert closed[0, 0] == math.inf
        if mode != "det":
            assert raised > 0

    @pytest.mark.parametrize("solve", [lambda net, scen: solve_deterministic(net),
                                       solve_stochastic, solve_alpha_zero_fast],
                             ids=["det", "sto", "sto-fast"])
    def test_loose_solve_closes_nothing(self, tri3_wide_network, monkeypatch, solve):
        # No bound passes a cut-off of tri3_wide's far deadlines, so the
        # stack is never closed, and no scenario is stepped, so it is never
        # copied arc-major either.
        shapes = _closure_shapes(monkeypatch)
        builds = _arc_major_builds(monkeypatch)
        scen = generate_scenarios(tri3_wide_network, ScenarioConfig(count=30, seed=0))
        solution = solve(tri3_wide_network, scen)
        assert solution.status == STATUS_OPTIMAL
        assert shapes == [] and builds == []

    @pytest.mark.parametrize("solve, shape", [
        (lambda net, scen: solve_stochastic(net, scen, SolveConfig(alpha=0.1)), (30, 14, 14)),
        (solve_alpha_zero_fast, (1, 14, 14)),
    ], ids=["sto-0.1", "sto-fast"])
    def test_factory6_closes_the_stack_once(self, factory6_network, monkeypatch, solve, shape):
        # The scenario search steps its scenarios and builds its arc-major
        # copy once; the one-matrix search never builds it.
        shapes = _closure_shapes(monkeypatch)
        builds = _arc_major_builds(monkeypatch)
        scen = generate_scenarios(factory6_network, ScenarioConfig(count=30, seed=0))
        solution = solve(factory6_network, scen)
        assert solution.status == STATUS_OPTIMAL and solution.stats.lookahead_prunes > 0
        assert shapes == [shape]
        assert [search.times.shape for search in builds] == [shape] * (shape[0] > 1)

    def test_det_closes_like_a_unit_scenario(self, factory6_network, monkeypatch):
        # No stack starts closed, det's included: det and a one-scenario set
        # of unit multipliers search equal matrices, close them once each
        # and take the same decisions.
        shapes = _closure_shapes(monkeypatch)
        det = solve_deterministic(factory6_network)
        assert shapes == [(1, 14, 14)] and det.stats.lookahead_prunes > 0
        unit = single_scenario(factory6_network.travel_time)
        assert np.array_equal(unit.travel_times[0], factory6_network.travel_time)
        sto = solve_stochastic(factory6_network, unit)
        assert shapes == [(1, 14, 14)] * 2
        assert (sto.plan.routes, sto.objective, sto.stats) == (
            det.plan.routes, det.objective, det.stats)

    def test_forced_dead_solve_closes_no_stack(self, tri3_network, monkeypatch):
        # A stretch of 6 overshoots task 1's deadline on its own arc: the
        # dead mass stops the solve before its search.
        shapes = _closure_shapes(monkeypatch)
        nv = tri3_network.size
        mults = np.ones((2, nv, nv))
        mults[1] = 6.0
        np.fill_diagonal(mults[1], 1.0)
        scen = ScenarioSet(multipliers=mults, nominal=tri3_network.travel_time,
                           probabilities=np.full(2, 0.5))
        solution = solve_stochastic(tri3_network, scen)
        assert solution.status == STATUS_INFEASIBLE and solution.limiting_scenarios == (1,)
        assert shapes == []


def _seed_of(network):
    """The nearest-next seed `(distance, working routes)` of the nominal
    search, or None."""
    nominal = network.travel_time[np.newaxis]
    return solver_module._Search(network, nominal, np.ones(1), 0.0, SolveConfig())._nearest_next()


class TestNearestNextSeed:
    def test_seeded_solves_match_oracle_in_every_mode(self):
        # The seed only moves the starting cutoff: every mode still returns
        # the oracle's plan, and no seed undercuts the optimum.
        rng = np.random.default_rng(8181)
        seeded = seed_optimal = optima = 0
        for trial in range(90):
            tightness = ("tight", "loose", "mixed")[trial % 3]
            network = random_network(rng, max_tasks=3, max_vehicles=2, tightness=tightness)
            scen = generate_scenarios(network, ScenarioConfig(count=3, seed=trial))
            cases = [(solve_deterministic(network), oracle_solve_deterministic(network)),
                     (solve_alpha_zero_fast(network, scen),
                      oracle_solve(network, scen.travel_times.max(axis=0, keepdims=True),
                                   np.ones(1), 0.0))]
            for alpha in (0.0, 1.0 / 3.0):
                cases.append((solve_stochastic(network, scen, SolveConfig(alpha=alpha)),
                              oracle_solve(network, scen.travel_times, scen.probabilities,
                                           alpha)))
            for solution, reference in cases:
                if not _agrees_with_oracle(solution, reference):
                    assert solution.stats.seed_m is None
                    continue
                optima += 1
                if solution.stats.seed_m is not None:
                    assert solution.stats.seed_m >= solution.objective - 1e-9
                    seeded += 1
                    seed_optimal += solution.stats.seed_m <= solution.objective + 1e-9
        assert optima >= 150
        assert seeded > seed_optimal > 0

    def test_optimal_seed_still_returns_the_smallest_plan(self, tri3_network):
        # tri3's seed is optimal, but the exact pass still returns the
        # lexicographically smaller plan of the same cost.
        assert _seed_of(tri3_network) == (90.0, ((0, 1, 3, 2, 4, 5),))
        solution = solve_deterministic(tri3_network)
        assert solution.stats.seed_m == solution.objective == 90.0
        assert solution.plan.routes == ((0, 1, 2, 3, 4, 5), (0, 5))
        assert solution.plan.routes == oracle_solve_deterministic(tri3_network).plan

    def test_greedy_trap_has_no_seed(self):
        # D-B-DEP-A-C; T1 A->C is loose, T2 B->D is due at 35 s, one vehicle.
        # The seed takes the nearer A first and then cannot reach B in time,
        # so there is none; only B first serves both.
        doc = {"layout": {"nodes": ["DEP", "A", "B", "C", "D"],
                          "edges": [["DEP", "A", 15.0], ["A", "C", 15.0], ["DEP", "B", 30.0],
                                    ["B", "D", 15.0]]},
               "tasks": [{"id": "T1", "from": "A", "to": "C",
                          "earliest_pickup_s": 0, "latest_delivery_s": 1000},
                         {"id": "T2", "from": "B", "to": "D",
                          "earliest_pickup_s": 0, "latest_delivery_s": 35}],
               "vehicles": 1, "depot": "DEP", "speed": 1.5, "horizon": 2000}
        network = build_network(load_instance(json.dumps(doc)))
        assert _seed_of(network) is None
        solution = solve_deterministic(network)
        assert solution.status == STATUS_OPTIMAL and solution.stats.seed_m is None
        assert solution.plan.routes == ((0, 2, 4, 1, 3, 5),)
        assert solution.objective == pytest.approx(150.0)
        # Without a seed, a limit spent in set-up still returns no plan.
        stopped = solve_deterministic(network, SolveConfig(time_limit=1e-9))
        assert stopped.status == STATUS_TIME_LIMIT_NO_INCUMBENT and stopped.plan is None

    def test_time_out_returns_the_seed_plan(self, tri3_network):
        # The search stops at its first node, before a plan of its own.  The
        # seed holds the working route; the solve appends the idle one.
        solution = solve_deterministic(tri3_network, SolveConfig(time_limit=1e-9))
        assert solution.status == STATUS_TIME_LIMIT_INCUMBENT
        seed_m, routes = _seed_of(tri3_network)
        assert (solution.objective, solution.plan.routes) == (seed_m, routes + ((0, 5),))
        assert solution.stats.seed_m == 90.0

    def test_seed_cutoff_below_rounding_is_dropped(self, tri3_network, monkeypatch):
        # A slack lost to rounding would cut the seed's own plan and every
        # tie with it: no seed.
        monkeypatch.setattr(solver_module, "_SEED_SLACK", math.ulp(90.0) / 4)
        solution = solve_deterministic(tri3_network)
        assert solution.stats.seed_m is None
        assert solution.plan.routes == ((0, 1, 2, 3, 4, 5), (0, 5))


class TestIdleVehicles:
    """An unused vehicle costs nothing, so the fleet size changes no
    decision: the search holds the working routes only, and the solve
    appends the idle ones."""

    @pytest.mark.parametrize("solve", ["det", "sto", "sto-fast"])
    def test_large_fleet_adds_only_idle_routes(self, tri3_network, solve):
        fleet = dataclasses.replace(tri3_network, vehicle_count=3000)
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=5, seed=1))
        solvers = {"det": solve_deterministic,
                   "sto": lambda net: solve_stochastic(net, scen, SolveConfig(alpha=0.2)),
                   "sto-fast": lambda net: solve_alpha_zero_fast(net, scen)}
        small, large = solvers[solve](tri3_network), solvers[solve](fleet)
        assert small.status == large.status == STATUS_OPTIMAL
        assert large.objective == small.objective
        assert large.stats == small.stats
        assert large.plan.routes == small.plan.routes + ((0, 5),) * 2998
        assert large.schedule.times.shape[0] == 3000
        assert np.array_equal(large.schedule.times[:2], small.schedule.times)


class TestSearchCounters:
    # Every counter of three factory6 searches, pinned: where the distance
    # bound is tested and how the set-up is built must not change what the
    # search visits.  The split bound cuts at S = 1 only, so sto-0.1 keeps
    # the counters it had before it.
    @pytest.mark.parametrize("mode, expected", [
        ("det", SearchStats(nodes_explored=1591, bound_prunes=780, window_prunes=0,
                            lookahead_prunes=300, root_bound_m=123.0, seed_m=270.0,
                            split_prunes=153)),
        ("sto-fast", SearchStats(nodes_explored=1117, bound_prunes=31, window_prunes=54,
                                 lookahead_prunes=693, root_bound_m=123.0, split_prunes=51)),
        ("sto-0.1", SearchStats(nodes_explored=3006, bound_prunes=1315, window_prunes=444,
                                lookahead_prunes=765, root_bound_m=123.0)),
    ])
    def test_factory6_counters_pinned(self, factory6_network, mode, expected):
        scen = generate_scenarios(factory6_network, ScenarioConfig(count=30, seed=0))
        if mode == "det":
            solution = solve_deterministic(factory6_network)
        elif mode == "sto-fast":
            solution = solve_alpha_zero_fast(factory6_network, scen)
        else:
            solution = solve_stochastic(factory6_network, scen, SolveConfig(alpha=0.1))
        assert solution.status == STATUS_OPTIMAL
        assert solution.stats == expected

    def test_nominal_matrix_is_its_own_closure(self, monkeypatch):
        # On `build_network` inputs the nominal matrix holds shortest-path
        # times.  On these layouts the Floyd-Warshall closure rounds some
        # entries differently, and the lookahead's margin must absorb that:
        # a det search that closes its stack up front with the matrix as its
        # own closure, one that closes it lazily and one that closes it
        # before its seed take the same decision everywhere, split cuts
        # included.
        rng = np.random.default_rng(11)
        rounded = looked_ahead = split = 0
        for trial in range(32):
            network = random_network(rng, max_tasks=4, max_vehicles=2,
                                     tightness="mixed" if trial % 2 == 0 else "loose")
            nominal = network.travel_time[np.newaxis]
            outcomes = []
            for start in ("trusted", "lazy", "up-front"):
                search = solver_module._Search(network, nominal, np.ones(1), 0.0, SolveConfig())
                if start == "trusted":
                    with monkeypatch.context() as patch:
                        patch.setattr(solver_module, "shortest_path_closure", lambda t: t)
                        search._close_stack()
                elif start == "up-front":
                    search._close_stack()
                search.run()
                outcomes.append((search.best_plan, search.best_obj, search.stats()))
            assert outcomes[0] == outcomes[1] == outcomes[2]
            closure = shortest_path_closure(network.travel_time)
            rounded += not np.array_equal(closure, network.travel_time)
            looked_ahead += outcomes[0][2].lookahead_prunes > 0
            split += outcomes[0][2].split_prunes > 0
        assert rounded >= 5
        assert looked_ahead >= 10 and split >= 5


class TestCheckerAgreement:
    def test_solutions_pass_checker(self, tri3_network):
        from tugplan import build_deterministic
        det = solve_deterministic(tri3_network)
        system = build_deterministic(tri3_network)
        assignment = assignment_from_solution(system, tri3_network, det)
        assert check_solution(system, assignment).feasible

        scen = generate_scenarios(tri3_network, ScenarioConfig(count=8, seed=21))
        sto = solve_stochastic(tri3_network, scen, SolveConfig(alpha=0.25))
        assert sto.status == STATUS_OPTIMAL
        system = build_stochastic(tri3_network, scen, 0.25)
        assignment = assignment_from_solution(system, tri3_network, sto)
        result = check_solution(system, assignment)
        assert result.feasible, result.violations


def _infeasible():
    return Solution(status=STATUS_INFEASIBLE, plan=None, schedule=None, objective=None,
                    stats=SearchStats(0, 0, 0), alpha=0.0)


def _sto(network):
    scen = generate_scenarios(network, ScenarioConfig(count=3, seed=2))
    return build_stochastic(network, scen, 0.0), solve_stochastic(network, scen)


class TestAssignmentShapes:
    @pytest.mark.parametrize("make, message", [
        (lambda net: (build_deterministic(net), _infeasible()), "carries no plan"),
        (lambda net: (build_deterministic(net), _sto(net)[1]), "single-realization"),
        (lambda net: (_sto(net)[0], solve_deterministic(net)), "per-scenario"),
    ], ids=["no-plan", "det-system-sto-schedule", "sto-system-det-schedule"])
    def test_rejects_a_solution_of_another_shape(self, tri3_network, make, message):
        system, solution = make(tri3_network)
        with pytest.raises(ValueError, match=message):
            assignment_from_solution(system, tri3_network, solution)


class TestRoutePlanValidation:
    def test_rejects_delivery_before_pickup(self):
        with pytest.raises(ValueError, match="delivery"):
            RoutePlan(routes=((0, 3, 1, 5), (0, 2, 4, 5)), n=2)

    def test_rejects_unserved_pickup(self):
        with pytest.raises(ValueError, match="not served"):
            RoutePlan(routes=((0, 1, 3, 5), (0, 5)), n=2)

    def test_rejects_double_visit(self):
        with pytest.raises(ValueError, match="more than once"):
            RoutePlan(routes=((0, 1, 3, 5), (0, 1, 3, 2, 4, 5)), n=2)

    @pytest.mark.parametrize("routes, message", [
        (((), (0, 1, 3, 2, 4, 5)), "must start at 0 and end at 5"),
        (((1, 3, 5), (0, 2, 4, 5)), "must start at 0 and end at 5"),
        (((0, 1, 3), (0, 2, 4, 5)), "must start at 0 and end at 5"),
        (((0, 1, 3, 7, 5), (0, 2, 4, 5)), "node 7 is not a task node"),
        (((0, 1, 3, 0, 5), (0, 2, 4, 5)), "node 0 is not a task node"),
        (((0, 1, 2, 4, 5), (0, 5)), r"undelivered pickups \[1\]"),
    ], ids=["empty", "bad-start", "bad-end", "beyond-deliveries", "depot-inside",
            "undelivered"])
    def test_rejects_malformed_route(self, routes, message):
        with pytest.raises(ValueError, match=message):
            RoutePlan(routes=routes, n=2)

    @pytest.mark.parametrize("routes, n, message", [
        (((0, 1.0, 3, 5), (0, 2, 4, 5)), 2, "node 1.0 is not an integer"),
        (((0, True, 3, 5), (0, 2, 4, 5)), 2, "node True is not an integer"),
        (((0, 1, 3, 5), (0, 2, 4, "5")), 2, "node '5' is not an integer"),
        # Every node is scanned before the structure: this route also ends at 1.5.
        (((0, 3, 1.5), (0, 2, 4, 5)), 2, "node 1.5 is not an integer"),
        (((0, 1, 3, 5), (0, 2, 4, 5)), 2.0, "n must be an integer, got 2.0"),
        (((0, 1, 3, 5), (0, 2, 4, 5)), True, "n must be an integer, got True"),
    ], ids=["float-node", "bool-node", "str-node", "before-structure", "float-n", "bool-n"])
    def test_rejects_non_integers(self, routes, n, message):
        with pytest.raises(ValueError, match=message):
            RoutePlan(routes=routes, n=n)

    def test_accepts_numpy_integers(self, tri3_network):
        plan = RoutePlan(routes=((np.int64(0), np.int32(1), 3, 5), (0, 2, 4, np.uint8(5))),
                         n=np.int64(2))
        assert plan.route_strings() == ["0-1-3-5", "0-2-4-5"]
        report = out_of_sample(plan, tri3_network, ScenarioConfig(count=50, seed=1))
        reference = out_of_sample(RoutePlan(routes=((0, 1, 3, 5), (0, 2, 4, 5)), n=2),
                                  tri3_network, ScenarioConfig(count=50, seed=1))
        assert report.per_vehicle_failure == reference.per_vehicle_failure

    def test_route_strings(self, tri3_network):
        plan = RoutePlan(routes=((0, 1, 3, 5), (0, 2, 4, 5)), n=2)
        assert plan.route_strings() == ["0-1-3-5", "0-2-4-5"]
        assert plan.label_strings(tri3_network) == ["DEP-A-B-DEP", "DEP-C-B-DEP"]


def _widen_deadlines(network):
    """Rebuild the network with every deadline 1.5x further out."""
    from tugplan.instance import PdpNetwork
    close = network.close_time.copy()
    close[network.n + 1:] = close[network.n + 1:] * 1.5
    close[0] = close[network.terminal] = close.max()
    return PdpNetwork(
        n=network.n, vehicle_count=network.vehicle_count,
        locations=network.locations, labels=network.labels,
        task_ids=network.task_ids, open_time=network.open_time.copy(),
        close_time=close, travel_time=network.travel_time.copy(),
        travel_dist=network.travel_dist.copy())


class TestPermutationInvariance:
    def test_task_order_does_not_change_objective(self):
        # Reordering the task list relabels network nodes but describes the
        # same physical problem, so the optimal distance must not move.
        rng = np.random.default_rng(31415)
        from instgen import random_instance_doc
        checked = 0
        for _ in range(8):
            doc = random_instance_doc(rng, max_tasks=3, max_vehicles=2)
            if len(doc["tasks"]) < 2:
                continue
            base = solve_deterministic(build_network(load_instance(json.dumps(doc))))
            shuffled = dict(doc)
            shuffled["tasks"] = list(reversed(doc["tasks"]))
            other = solve_deterministic(build_network(load_instance(json.dumps(shuffled))))
            assert base.status == other.status
            if base.status == STATUS_OPTIMAL:
                assert base.objective == pytest.approx(other.objective, abs=1e-9)
            checked += 1
        assert checked >= 4

    def test_earlier_openings_never_cost_more(self):
        # Dropping every release time to zero enlarges the pickup windows.
        rng = np.random.default_rng(27182)
        from instgen import random_instance_doc
        improved = 0
        for _ in range(8):
            doc = random_instance_doc(rng, max_tasks=2, max_vehicles=2)
            base = solve_deterministic(build_network(load_instance(json.dumps(doc))))
            relaxed_doc = dict(doc)
            relaxed_doc["tasks"] = [dict(t, earliest_pickup_s=0.0) for t in doc["tasks"]]
            relaxed = solve_deterministic(build_network(load_instance(json.dumps(relaxed_doc))))
            if base.status == STATUS_OPTIMAL:
                assert relaxed.status == STATUS_OPTIMAL
                assert relaxed.objective <= base.objective + 1e-9
                improved += 1
        assert improved >= 3


# Arc times, window openings and slacks drawn often from a few round values,
# so that zero-length co-located arcs, ties and waits at an opening occur.
_ARC = st.sampled_from([0.0, 0.1, 1.0 / 3.0, 2.5, 7.0, 40.0]) | st.floats(0.0, 100.0)
_OPENING = st.sampled_from([0.0, 5.0, 30.0]) | st.floats(0.0, 150.0)
_SLACK = st.sampled_from([0.0, math.inf]) | st.floats(0.0, 200.0)


@st.composite
def route_stacks(draw):
    """(route, [S, nv, nv] times with S >= 2, openings, closings): a route
    from the source to the terminal over some tasks, each pickup before its
    delivery."""
    n = draw(st.integers(1, 3))
    nv = 2 * n + 2
    tasks = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
    order = draw(st.permutations(tasks + [i + n for i in tasks]))
    for i in tasks:
        p, q = order.index(i), order.index(i + n)
        if q < p:
            order[p], order[q] = i + n, i
    count = draw(st.integers(2, 4))
    times = np.array(draw(st.lists(_ARC, min_size=count * nv * nv, max_size=count * nv * nv)))
    opening = np.array(draw(st.lists(_OPENING, min_size=nv, max_size=nv)))
    closing = opening + np.array(draw(st.lists(_SLACK, min_size=nv, max_size=nv)))
    return (0, *order, nv - 1), times.reshape(count, nv, nv), opening, closing


class TestRouteTimes:
    @settings(max_examples=150, deadline=None)
    @given(route_stacks(), st.booleans())
    def test_one_matrix_equals_its_column_bit_for_bit(self, case, coupling):
        # One matrix takes float rows, several take numpy rows; each column
        # of the stack is the one-matrix result, to the last bit.
        route, times, opening, closing = case
        w, late = route_times(route, times, opening, closing, coupling)
        assert w.shape == late.shape == (len(route), times.shape[0])
        for s in range(times.shape[0]):
            w_s, late_s = route_times(route, times[s:s + 1], opening, closing, coupling)
            assert w_s.shape == late_s.shape == (len(route), 1)
            assert w_s.dtype == w.dtype and late_s.dtype == late.dtype
            assert w_s[:, 0].tobytes() == w[:, s].tobytes()
            assert late_s[:, 0].tobytes() == late[:, s].tobytes()

    def test_holds_waits_and_zero_arcs_agree(self):
        # Nodes: 0 source, pickups 1 and 2 at one location, deliveries 3
        # and 4, terminal 5.  Pickup 2 waits for its opening at 20, and
        # delivery 3 is held by pickup 1's direct arc (5 + 30 = 35 against
        # 24 along the route), which makes it late for its closing at 30.
        route = (0, 1, 2, 4, 3, 5)
        nominal = np.full((6, 6), 50.0)
        for i, j, t in [(0, 1, 5.0), (1, 2, 0.0), (2, 4, 3.0), (4, 3, 1.0), (3, 5, 2.0),
                        (1, 3, 30.0)]:
            nominal[i, j] = t
        opening = np.array([0.0, 0.0, 20.0, 0.0, 0.0, 0.0])
        closing = np.array([0.0, 100.0, 100.0, 30.0, 100.0, 100.0])
        stack = np.stack([nominal, 2.0 * nominal])
        held, free = (route_times(route, nominal[np.newaxis], opening, closing, coupling)
                      for coupling in (True, False))
        assert held[0][:, 0].tolist() == [0.0, 5.0, 20.0, 23.0, 35.0, 37.0]
        assert free[0][:, 0].tolist() == [0.0, 5.0, 20.0, 23.0, 24.0, 26.0]
        assert held[1][:, 0].tolist() == [False, False, False, False, True, False]
        assert not free[1].any()
        for coupling, (w, late) in ((True, held), (False, free)):
            w_stack, late_stack = route_times(route, stack, opening, closing, coupling)
            assert w[:, 0].tobytes() == w_stack[:, 0].tobytes()
            assert (late[:, 0] == late_stack[:, 0]).all()
