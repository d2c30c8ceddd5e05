import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import binomtest, norm

from tugplan import (EvaluationReport, RoutePlan, ScenarioConfig, SolveConfig, build_network,
                     generate_scenarios, load_instance, out_of_sample, replay_failures,
                     simulate_route, solve_deterministic, solve_stochastic)
from tugplan import evaluator
from tugplan.evaluator import _TRIAL_BLOCK, _late_routes, _wilson_half_width, wilson_interval
from tugplan.scenarios import EVALUATION_STREAM, sample_time_matrix, scenario_rng
from tugplan.solver import _full_schedule, route_times


# tri3 with both tasks on the first vehicle and the second one idle.
TRI3_CHAIN = RoutePlan(routes=((0, 1, 3, 2, 4, 5), (0, 5)), n=2)
# The one-leg network's only task on its only vehicle.
ONE_LEG = RoutePlan(routes=((0, 1, 2, 3),), n=1)


def one_leg_network():
    """Depot at the pickup location: the only random leg runs pickup to
    delivery, and the deadline equals its nominal travel time (10 s)."""
    doc = {
        "layout": {"nodes": ["A", "B"], "edges": [["A", "B", 15.0]]},
        "tasks": [{"id": "T1", "from": "A", "to": "B",
                   "earliest_pickup_s": 0.0, "latest_delivery_s": 10.0}],
        "vehicles": 1,
        "depot": "A",
        "speed": 1.5,
        "horizon": 500.0,
    }
    return build_network(load_instance(json.dumps(doc)))


class TestSimulateRoute:
    def test_unbounded_windows_always_succeed(self, tri3_network):
        nv = tri3_network.size
        open_t = np.zeros(nv)
        close_t = np.full(nv, np.inf)
        big = np.full((nv, nv), 1e6)
        np.fill_diagonal(big, 0.0)
        outcome = simulate_route((0, 1, 2, 3, 4, 5), big, open_t, close_t)
        assert outcome.ok

    def test_lateness_reported(self, tri3_network):
        nv = tri3_network.size
        realized = tri3_network.travel_time * 1.2  # 12 s on the 10 s leg
        close_t = tri3_network.close_time.copy()
        close_t[1] = 10.0
        outcome = simulate_route((0, 1, 3, 5), realized, tri3_network.open_time, close_t)
        assert not outcome.ok
        assert outcome.violated_node == 1
        assert outcome.lateness == pytest.approx(2.0)

    def test_optimal_plan_succeeds_under_nominal(self, tri3_network):
        solution = solve_deterministic(tri3_network)
        for route in solution.plan.routes:
            outcome = simulate_route(route, tri3_network.travel_time,
                                     tri3_network.open_time, tri3_network.close_time)
            assert outcome.ok

    def test_unknown_node_rejected(self, tri3_network):
        with pytest.raises(ValueError, match="unknown node"):
            simulate_route((0, 99), tri3_network.travel_time,
                           tri3_network.open_time, tri3_network.close_time)

    def test_waits_at_window_opening(self, tri3_network):
        # Pickup 1 opens at 10 s but is 10 s away, so no wait; shrink the
        # travel time and the dispatch must still hold until the opening.
        quick = tri3_network.travel_time * 0.5
        outcome = simulate_route((0, 1, 3, 5), quick, tri3_network.open_time,
                                 tri3_network.close_time)
        assert outcome.ok


def test_model_couples_delivery_to_pickup_but_dispatch_does_not(tri3_wide_network):
    # Route 0-1-2-3-4-5 picks up at A (node 1) and C (node 2) and delivers
    # both at B.  Stretching the direct arc A->B to 40 s makes it longer than
    # the way round through C (30 s), so the matrix is not metric.
    net = tri3_wide_network
    times = net.travel_time.copy()
    times[1, 3] = times[3, 1] = 40.0
    route = (0, 1, 2, 3, 4, 5)
    w, feasible = _full_schedule(net, RoutePlan(routes=(route, (0, 5)), n=net.n),
                                 times[np.newaxis])
    assert feasible.all()
    # Model: the delivery waits for pickup time (10 s) plus the direct arc.
    assert w[0, 1, 0] == 10.0 and w[0, 3, 0] == 50.0
    # Dispatch: the vehicle is at B at 40 s, 5 s late for a 35 s deadline
    # and in time for a 45 s one that the model's 50 s would miss.
    close = net.close_time.copy()
    close[3] = 35.0
    late = simulate_route(route, times, net.open_time, close)
    assert (late.ok, late.violated_node, late.lateness) == (False, 3, 5.0)
    close[3] = 45.0
    assert simulate_route(route, times, net.open_time, close).ok


class TestEvaluationReport:
    @pytest.mark.parametrize("per_vehicle, overall, message", [
        ((1.5,), 1.5, r"failure frequency 1.5 outside \[0, 1\]"),
        ((0.0,), -0.1, r"failure frequency -0.1 outside \[0, 1\]"),
        ((0.5, 0.2), 0.3, "overall failure cannot be below the worst vehicle"),
    ], ids=["vehicle-above-one", "overall-negative", "overall-below-worst"])
    def test_rejects_inconsistent_frequencies(self, per_vehicle, overall, message):
        with pytest.raises(ValueError, match=message):
            EvaluationReport(trials=10, seed=0, per_vehicle_failure=per_vehicle,
                             overall_failure=overall)


class TestOutOfSample:
    def test_idle_routes_never_fail(self, tri3_network):
        report = out_of_sample(TRI3_CHAIN, tri3_network, ScenarioConfig(count=200, seed=3))
        assert report.per_vehicle_failure[1] == 0.0
        assert report.overall_failure == report.per_vehicle_failure[0]

    def test_idle_vehicles_change_nothing(self, tri3_network, monkeypatch):
        # tri3's det plan padded to 3,000 vehicles: the working rows and the
        # overall failure are the 2-vehicle report's, every idle row reads
        # 0.0, and only the working route is dispatched.
        fleet = dataclasses.replace(tri3_network, vehicle_count=3000)
        small = solve_deterministic(tri3_network).plan
        large = RoutePlan(routes=small.routes + ((0, 5),) * 2998, n=2)
        config = ScenarioConfig(count=1000, seed=11)
        dispatched = []

        def counted(route, *args, **kwargs):
            dispatched.append(route)
            return route_times(route, *args, **kwargs)

        monkeypatch.setattr(evaluator, "route_times", counted)
        reference = out_of_sample(small, tri3_network, config)
        report = out_of_sample(large, fleet, config)
        # One block of trials each.
        assert dispatched == [small.routes[0]] * 2
        assert report.per_vehicle_failure[:2] == reference.per_vehicle_failure
        assert report.per_vehicle_failure[2:] == (0.0,) * 2998
        assert report.overall_failure == reference.overall_failure > 0.0
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=50, seed=5))
        counts = replay_failures(large, fleet, scen)
        assert counts.shape == (3000,) and not counts[2:].any()
        assert np.array_equal(counts[:2], replay_failures(small, tri3_network, scen))
        assert counts[0] > 0

    def test_deadline_equal_leg_failure_rate(self):
        network = one_leg_network()
        report = out_of_sample(ONE_LEG, network, ScenarioConfig(count=1000, seed=2718))
        # Exceeding the deadline means the multiplier drew above 1; for the
        # zero-truncated Normal(1, 0.5) that has probability 0.5 / Phi(2).
        expected = 0.5 / norm.cdf(2.0)
        assert expected == pytest.approx(0.51164, abs=1e-4)
        assert report.per_vehicle_failure[0] == pytest.approx(expected, abs=0.05)

    def test_deadline_equal_leg_against_large_simulation(self):
        rng = np.random.default_rng(999)
        draws = rng.normal(1.0, 0.5, size=400_000)
        draws = draws[draws > 0]
        assert draws.mean() > 1.0
        assert abs((draws > 1.0).mean() - 0.5 / norm.cdf(2.0)) < 0.005

    def test_robust_plan_clean_on_own_scenarios(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=30, seed=7))
        solution = solve_stochastic(tri3_network, scen, SolveConfig(alpha=0.0))
        assert solution.status == "optimal"
        assert (replay_failures(solution.plan, tri3_network, scen) == 0).all()

    def test_report_determinism(self, tri3_network):
        solution = solve_deterministic(tri3_network)
        cfg = ScenarioConfig(count=300, seed=5)
        r1 = out_of_sample(solution.plan, tri3_network, cfg)
        r2 = out_of_sample(solution.plan, tri3_network, cfg)
        assert r1 == r2

    def test_overall_at_least_worst_vehicle(self, factory6_network):
        solution = solve_deterministic(factory6_network)
        report = out_of_sample(solution.plan, factory6_network,
                               ScenarioConfig(count=400, seed=8))
        assert report.overall_failure >= max(report.per_vehicle_failure)
        assert all(0.0 <= f <= 1.0 for f in report.per_vehicle_failure)

    def test_half_width_scales_with_trials(self):
        network = one_leg_network()
        ratios = []
        for seed in (10, 11, 12):
            small = out_of_sample(ONE_LEG, network, ScenarioConfig(count=500, seed=seed))
            large = out_of_sample(ONE_LEG, network, ScenarioConfig(count=2000, seed=seed))
            ratios.append(large.per_vehicle_half_width[0] / small.per_vehicle_half_width[0])
        # Quadrupling the trials halves the half-width (1/sqrt(n) scaling).
        assert np.mean(ratios) == pytest.approx(0.5, abs=0.1)

    def test_half_width_positive_without_failures(self, tri3_wide_network):
        plan = solve_deterministic(tri3_wide_network).plan
        report = out_of_sample(plan, tri3_wide_network, ScenarioConfig(count=500, seed=3))
        assert report.overall_failure == 0.0
        assert report.overall_half_width > 0.0
        assert all(width > 0.0 for width in report.per_vehicle_half_width)

    @pytest.mark.parametrize("failures, trials", [(0, 500), (1, 500), (37, 500), (500, 500),
                                                  (3, 7), (0, 11), (0, 1), (1, 1)])
    def test_half_width_is_wilsons(self, failures, trials):
        interval = binomtest(failures, trials).proportion_ci(confidence_level=0.95,
                                                            method="wilson")
        # scipy takes the exact quantile 1.95996..., the report 1.96.
        assert _wilson_half_width(failures / trials, trials) == pytest.approx(
            (interval.high - interval.low) / 2, rel=2e-4)
        low, high = wilson_interval(failures / trials, trials)
        assert 0.0 <= low <= failures / trials <= high <= 1.0
        assert (low, high) == pytest.approx((interval.low, interval.high), rel=2e-4, abs=1e-12)
        # A share at an end of [0, 1] puts that bound there exactly (at 0 of
        # 11, centre minus half-width is 2.8e-17).
        if failures == 0:
            assert low == 0.0
        if failures == trials:
            assert high == 1.0

    def test_one_trial_block_equals_its_column(self, factory6_network):
        # A block of one trial takes float rows, a larger one numpy rows:
        # out_of_sample's last block at _TRIAL_BLOCK + 1 trials is the former.
        net = factory6_network
        plan = solve_deterministic(net).plan
        times = np.array([sample_time_matrix(net.travel_time,
                                             scenario_rng(5, EVALUATION_STREAM, t))[1]
                          for t in range(60)])
        block = _late_routes(plan.routes, times, net)
        assert block.any() and not block.all()
        for t in range(len(times)):
            alone = _late_routes(plan.routes, times[t:t + 1], net)
            assert alone.shape == (plan.vehicle_count, 1)
            assert (alone[:, 0] == block[:, t]).all()

    def test_trial_blocks_match_per_trial_simulation(self, factory6_network):
        net = factory6_network
        plan = solve_deterministic(net).plan
        trials = _TRIAL_BLOCK + 1

        def late_routes(seed, t):
            _, realized = sample_time_matrix(net.travel_time,
                                             scenario_rng(seed, EVALUATION_STREAM, t))
            return [not simulate_route(r, realized, net.open_time, net.close_time).ok
                    for r in plan.routes]

        # A seed whose one trial past the first block fails, so that a lost
        # or misplaced boundary trial changes the counts.
        seed = next(s for s in range(100) if any(late_routes(s, _TRIAL_BLOCK)))
        report = out_of_sample(plan, net, ScenarioConfig(count=trials, seed=seed))
        fails = np.zeros(plan.vehicle_count, dtype=int)
        any_fail = 0
        for t in range(trials):
            late = late_routes(seed, t)
            fails += late
            any_fail += any(late)
        assert report.per_vehicle_failure == tuple(float(f) / trials for f in fails)
        assert report.overall_failure == any_fail / trials
        assert any_fail < trials

    @pytest.mark.parametrize("seed", [4, 2**32 + 4])
    def test_blocks_equal_per_trial_reference_sampling(self, factory6_network, seed):
        # Two full blocks and a partial one, sampled in bulk or, at a seed
        # of two entropy words, trial by trial.
        net = factory6_network
        plan = solve_deterministic(net).plan
        trials = 2 * _TRIAL_BLOCK + 3
        times = np.array([sample_time_matrix(net.travel_time,
                                             scenario_rng(seed, EVALUATION_STREAM, t))[1]
                          for t in range(trials)])
        late = _late_routes(plan.routes, times, net)
        report = out_of_sample(plan, net, ScenarioConfig(count=trials, seed=seed))
        assert report.per_vehicle_failure == tuple(float(f) / trials for f in late.sum(axis=1))
        assert report.overall_failure == float(late.any(axis=0).sum()) / trials
        assert 0 < report.overall_failure < 1

    def test_eval_stream_disjoint_from_scenario_stream(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=5, seed=42))
        report = out_of_sample(TRI3_CHAIN, tri3_network, ScenarioConfig(count=5, seed=42))
        from tugplan.scenarios import EVALUATION_STREAM, SCENARIO_STREAM, scenario_rng
        assert SCENARIO_STREAM != EVALUATION_STREAM
        a = scenario_rng(42, SCENARIO_STREAM, 0).normal(1, 0.5)
        b = scenario_rng(42, EVALUATION_STREAM, 0).normal(1, 0.5)
        assert a != b
        assert report.trials == 5

    @pytest.mark.parametrize("plan", [
        # A bare route that serves node 1 twice and leaves task 2 unserved.
        [(0, 1, 1, 3, 5)],
        # A bare copy of a valid plan: only a RoutePlan is accepted.
        [list(route) for route in TRI3_CHAIN.routes],
        # A valid plan for a one-task network.
        ONE_LEG,
        # A valid plan on one vehicle more than tri3 has.
        RoutePlan(routes=TRI3_CHAIN.routes + ((0, 5),), n=2),
    ], ids=["invalid-bare", "valid-bare", "other-n", "extra-vehicle"])
    @pytest.mark.parametrize("evaluate", [
        lambda plan, net: out_of_sample(plan, net, ScenarioConfig(count=10, seed=1)),
        lambda plan, net: replay_failures(
            plan, net, generate_scenarios(net, ScenarioConfig(count=3, seed=1))),
    ], ids=["out_of_sample", "replay_failures"])
    def test_rejects_plans_of_other_forms(self, tri3_network, evaluate, plan):
        with pytest.raises(ValueError, match="RoutePlan"):
            evaluate(plan, tri3_network)
