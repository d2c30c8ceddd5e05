import ast
import dataclasses
import hashlib
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tugplan import (ScenarioConfig, Schedule, Solution, SolveConfig, build_deterministic,
                     build_network, build_stochastic, check_solution, compute_big_m,
                     generate_scenarios, load_instance, single_scenario, solve_deterministic,
                     solve_stochastic, write_lp_text)
from tugplan.formulation import (BINARY, ConstraintSystem, LinearConstraint, Variable, arc_list,
                                 assignment_from_solution, propagation_requirement, w_name,
                                 x_name, z_name)
import tugplan
from tugplan.solver import RoutePlan, _full_schedule

from conftest import single_task_dict
from oracle import enumerate_plans


def zero_assignment(system):
    return {v.name: 0.0 for v in system.variables}


def plan_assignment(system, network, plan_routes, scen_times):
    """Assignment for an arbitrary route plan: earliest-feasible times plus the
    canonical completion, exactly as a solution would be spelled out."""
    plan = RoutePlan(routes=plan_routes, n=network.n)
    w, feasible = _full_schedule(network, plan, scen_times)
    if system.model == "deterministic":
        schedule = Schedule(times=w[:, :, 0].copy())
    else:
        schedule = Schedule(times=w, ignored=~feasible)
    solution = Solution(status="optimal", plan=plan, schedule=schedule,
                        objective=plan.distance(network.travel_dist),
                        stats=None, alpha=0.0)
    return assignment_from_solution(system, network, solution), feasible


class TestBuildDeterministic:
    def test_variable_count_single_task(self, single_task_network):
        system = build_deterministic(single_task_network)
        # Arcs exclude self-loops plus entries into the source and exits from
        # the terminal: the 12 ordered pairs on 4 nodes reduce to 7.
        assert len(arc_list(4)) == 7
        binaries = [v for v in system.variables if v.kind == "binary"]
        assert len(binaries) == 7
        continuous = [v for v in system.variables if v.kind == "continuous"]
        assert len(continuous) == 4

    def test_single_pickup_coverage_constraint(self, single_task_network):
        system = build_deterministic(single_task_network)
        assert [c.tag for c in system.constraints].count("Eq2") == 1

    def test_tri3_family_counts(self, tri3_network):
        system = build_deterministic(tri3_network)
        n, fleet = tri3_network.n, tri3_network.vehicle_count
        tagged = Counter(c.tag for c in system.constraints)
        assert tagged["Eq2"] == n
        assert tagged["Eq3"] == n * fleet
        assert tagged["Eq4"] == fleet
        assert tagged["Eq5"] == fleet
        assert tagged["Eq6"] == 2 * n * fleet
        assert tagged["Eq7"] == len(arc_list(tri3_network.size)) * fleet
        assert tagged["Eq8"] == n * fleet
        assert tagged["Eq9"] == 2 * tri3_network.size * fleet

    def test_every_tag_in_allowed_set(self, tri3_network):
        system = build_deterministic(tri3_network)
        allowed = {f"Eq{i}" for i in range(2, 10)}
        assert {c.tag for c in system.constraints} <= allowed

    def test_constraints_reference_declared_variables(self, tri3_network):
        system = build_deterministic(tri3_network)
        declared = {v.name for v in system.variables}
        for con in system.constraints:
            assert set(con.coeffs) <= declared

    def test_objective_is_distance(self, tri3_network):
        system = build_deterministic(tri3_network)
        assert system.objective[x_name(0, 0, 1)] == pytest.approx(15.0)
        assert system.objective[x_name(1, 0, 3)] == pytest.approx(30.0)


class TestBuildStochastic:
    def test_time_variable_count(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=5, seed=2))
        system = build_stochastic(tri3_network, scen, alpha=0.0)
        times = [v for v in system.variables if v.name.startswith("w")]
        assert len(times) == 2 * 6 * 5

    def test_single_scenario_zero_alpha_forces_z(self, tri3_network):
        scen = single_scenario(tri3_network.travel_time)
        system = build_stochastic(tri3_network, scen, alpha=0.0)
        knapsack = [c for c in system.constraints if c.tag == "Eq21"]
        assert len(knapsack) == 1
        assert knapsack[0].rhs == 0.0
        assert knapsack[0].coeffs == {z_name(0): 1.0}

    def test_knapsack_allows_at_most_one_of_three(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=3, seed=4))
        system = build_stochastic(tri3_network, scen, alpha=0.34)
        [knapsack] = [c for c in system.constraints if c.tag == "Eq21"]

        def mass(bits):
            return sum(knapsack.coeffs[z_name(s)] * b for s, b in enumerate(bits))

        assert mass((1, 0, 0)) <= 0.34
        assert mass((0, 1, 0)) <= 0.34
        assert mass((1, 1, 0)) > 0.34

    def test_alpha_range_enforced(self, tri3_network):
        scen = single_scenario(tri3_network.travel_time)
        with pytest.raises(ValueError, match="alpha"):
            build_stochastic(tri3_network, scen, alpha=1.0)
        with pytest.raises(ValueError, match="alpha"):
            build_stochastic(tri3_network, scen, alpha=-0.1)

    def test_probability_sum_required(self, tri3_network):
        from tugplan import ScenarioSet
        nv = tri3_network.size
        with pytest.raises(ValueError, match="sum to 1"):
            ScenarioSet(
                multipliers=np.ones((2, nv, nv)),
                nominal=tri3_network.travel_time,
                probabilities=np.array([0.5, 0.4]),
            )

    def test_degenerate_system_matches_deterministic_feasibility(self):
        # One nominal scenario at alpha 0: the same route plans are feasible
        # in both systems (checked by full enumeration on a 2-task instance).
        doc = single_task_dict()
        doc["tasks"].append({"id": "T2", "from": "C", "to": "B",
                             "earliest_pickup_s": 0.0, "latest_delivery_s": 35.0})
        doc["vehicles"] = 2
        network = build_network(load_instance(json.dumps(doc)))
        det_system = build_deterministic(network)
        scen = single_scenario(network.travel_time)
        sto_system = build_stochastic(network, scen, alpha=0.0)
        nominal = network.travel_time[np.newaxis]

        agreements = 0
        for plan_routes in enumerate_plans(network.n, network.vehicle_count):
            try:
                det_assign, det_ok = plan_assignment(det_system, network, plan_routes, nominal)
                sto_assign, sto_ok = plan_assignment(sto_system, network, plan_routes, nominal)
            except ValueError:
                continue
            det_feasible = bool(det_ok[0]) and check_solution(det_system, det_assign).feasible
            sto_feasible = bool(sto_ok[0]) and check_solution(sto_system, sto_assign).feasible
            assert det_feasible == sto_feasible
            agreements += 1
        assert agreements > 10


class TestComputeBigM:
    def test_propagation_requirement_direct(self):
        assert propagation_requirement(30.0, 20.0, 0.0) == 50.0

    def test_uniform_window_bound(self):
        doc = single_task_dict()
        net = build_network(load_instance(json.dumps(doc)))
        horizon = doc["horizon"]
        assert (net.open_time == 0).all() and (net.close_time == horizon).all()
        assert float(net.travel_time.max()) <= horizon
        big_m = compute_big_m(net, net.travel_time)
        for value in (big_m.m1, big_m.m3, big_m.m4):
            assert 0.0 <= value <= 2 * horizon

    def test_tri3_m1_matches_enumeration(self, tri3_network):
        big_m = compute_big_m(tri3_network, tri3_network.travel_time)
        a, b, d = tri3_network.open_time, tri3_network.close_time, tri3_network.travel_time
        expected = max(max(0.0, b[i] + d[i, j] - a[j]) for i, j in arc_list(tri3_network.size))
        assert big_m.m1 == pytest.approx(expected)

    def test_scenario_supremum_used(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=10, seed=6))
        loose = compute_big_m(tri3_network, scen.travel_times.max(axis=0))
        tight = compute_big_m(tri3_network, tri3_network.travel_time)
        assert loose.m1 >= tight.m1
        assert loose.m3 >= tight.m3

    def test_all_values_finite_nonnegative(self, factory6_network):
        big_m = compute_big_m(factory6_network, factory6_network.travel_time)
        for value in (big_m.m1, big_m.m3, big_m.m4):
            assert np.isfinite(value) and value >= 0


class TestCheckSolution:
    def test_all_zeros_violates_coverage(self, single_task_network):
        system = build_deterministic(single_task_network)
        result = check_solution(system, zero_assignment(system))
        assert not result.feasible
        assert "Eq2" in {v.tag for v in result.violations}

    def test_hand_built_route_feasible(self, single_task_network):
        system = build_deterministic(single_task_network)
        assignment = zero_assignment(system)
        # Route 0 -> 1 -> 2 -> 3 with service at arrival: 10 s to the pickup,
        # 10 s on to the delivery, 20 s back to the terminal.
        for (i, j) in ((0, 1), (1, 2), (2, 3)):
            assignment[x_name(0, i, j)] = 1.0
        for node, t in enumerate((0.0, 10.0, 20.0, 40.0)):
            assignment[w_name(0, node)] = t
        result = check_solution(system, assignment)
        assert result.feasible, result.violations
        distance = sum(coef * assignment[name] for name, coef in system.objective.items())
        assert distance == pytest.approx(60.0)

    def test_window_perturbation_tagged(self):
        doc = single_task_dict(earliest=10.0)
        network = build_network(load_instance(json.dumps(doc)))
        system = build_deterministic(network)
        assignment = zero_assignment(system)
        for (i, j) in ((0, 1), (1, 2), (2, 3)):
            assignment[x_name(0, i, j)] = 1.0
        for node, t in enumerate((0.0, 10.0, 20.0, 40.0)):
            assignment[w_name(0, node)] = t
        assert check_solution(system, assignment).feasible
        assignment[w_name(0, 1)] = 5.0  # below the pickup's opening time
        result = check_solution(system, assignment)
        assert not result.feasible
        assert any(v.tag == "Eq9" for v in result.violations)

    def test_missing_variable_named(self, single_task_network):
        system = build_deterministic(single_task_network)
        assignment = zero_assignment(system)
        del assignment[w_name(0, 2)]
        with pytest.raises(ValueError, match=r"w\[0,2\]"):
            check_solution(system, assignment)

    @pytest.mark.parametrize("coeffs, relation, message", [
        ({"y": 1.0}, "<=", "assignment is missing variable y"),
        ({"x": 1.0}, "<", "unknown relation '<' in c"),
        ({"x": 1.0}, "==", "unknown relation '==' in c"),
    ], ids=["undeclared-variable", "unknown-relation", "lp-reader-relation"])
    def test_malformed_system_raises(self, coeffs, relation, message):
        # An unknown relation is rejected when its constraint is built, so
        # the LP export, which writes a relation verbatim, never meets one.
        with pytest.raises(ValueError, match=message):
            system = ConstraintSystem(
                model="deterministic", variables=(Variable("x", BINARY, "Eq10"),),
                constraints=(LinearConstraint("c", coeffs, relation, 1.0, "Eq2"),),
                objective={"x": 1.0})
            check_solution(system, {"x": 0.0})

    def test_fractional_binary_flagged(self, single_task_network):
        system = build_deterministic(single_task_network)
        assignment = zero_assignment(system)
        assignment[x_name(0, 0, 1)] = 0.5
        result = check_solution(system, assignment)
        assert any(v.tag == "Eq10" for v in result.violations)

    def test_all_nan_violates_everything(self, tri3_network):
        system = build_deterministic(tri3_network)
        result = check_solution(system, {v.name: math.nan for v in system.variables})
        assert not result.feasible
        binaries = [v for v in system.variables if v.kind == BINARY]
        assert len(result.violations) == len(system.constraints) + len(binaries)

    @pytest.mark.parametrize("variable", ["w", "x"])
    def test_one_nan_flags_only_what_contains_it(self, tri3_network, variable):
        system = build_deterministic(tri3_network)
        assignment = assignment_from_solution(system, tri3_network,
                                              solve_deterministic(tri3_network))
        assert check_solution(system, assignment).feasible
        pickup = tri3_network.pickups[0]
        name = w_name(0, pickup) if variable == "w" else x_name(0, 0, pickup)
        assignment[name] = math.nan
        result = check_solution(system, assignment)
        expected = [f"domain[{name}]"] if variable == "x" else []
        expected += [c.name for c in system.constraints if name in c.coeffs]
        assert [v.constraint for v in result.violations] == expected
        if variable == "w":
            assert {v.tag for v in result.violations} == {"Eq7", "Eq8", "Eq9"}


class TestLpExport:
    def test_structure(self, single_task_network):
        system = build_deterministic(single_task_network)
        text = write_lp_text(system)
        assert text.startswith("Minimize")
        assert "Subject To" in text
        assert "Binary" in text
        assert text.rstrip().endswith("End")
        assert "x_0_0_1" in text

    @pytest.mark.parametrize("model, digest", [
        ("det", "b0d4a94d0b9e45e4f07d711047e5edd6d968e7c7407517c2ab09e95650ef6e86"),
        ("sto", "f17f2e719428dfa265769a2e31ca9a32ba395bfc0bb713225627a5ce2f6a0253"),
    ])
    def test_pinned_bytes(self, tri3_network, tri3_wide_network, model, digest):
        # A changed name, order, coefficient or number format changes the digest.
        if model == "det":
            system = build_deterministic(tri3_network)
        else:
            scen = generate_scenarios(tri3_wide_network, ScenarioConfig(3, 4))
            system = build_stochastic(tri3_wide_network, scen, 0.34)
        assert hashlib.sha256(write_lp_text(system).encode()).hexdigest() == digest


class TestFleetSize:
    """The model states min(K, n) vehicles: every working route serves a
    task and idle vehicles are interchangeable.  tri3 has two tasks."""

    @pytest.fixture
    def fleet_network(self, tri3_network):
        return dataclasses.replace(tri3_network, vehicle_count=3000)

    def test_det_lp_equals_the_two_vehicle_one(self, tri3_network, fleet_network):
        assert write_lp_text(build_deterministic(fleet_network)) == \
            write_lp_text(build_deterministic(tri3_network))

    def test_scenario_model_size_ignores_the_fleet(self, fleet_network):
        scen = generate_scenarios(fleet_network, ScenarioConfig(30, 3))
        start = time.perf_counter()
        system = build_stochastic(fleet_network, scen, 0.1)
        assert time.perf_counter() - start < 1.0
        # 2 vehicles x (25 arcs + 6 nodes x 30 scenarios) + 30 switches.
        assert len(system.variables) == 432

    def test_checker_accepts_the_scenario_plan(self, tri3_network, fleet_network):
        scen = generate_scenarios(fleet_network, ScenarioConfig(30, 3))
        solution = solve_stochastic(fleet_network, scen, SolveConfig(alpha=0.1))
        reference = solve_stochastic(tri3_network, scen, SolveConfig(alpha=0.1))
        assert solution.objective == reference.objective
        assert solution.plan.routes[:2] == reference.plan.routes
        system = build_stochastic(fleet_network, scen, 0.1)
        assignment = assignment_from_solution(system, fleet_network, solution)
        result = check_solution(system, assignment)
        assert result.feasible, result.violations
        # Only the declared min(K, n) vehicles are spelled out.
        assert len(assignment) == len(assignment_from_solution(system, tri3_network, reference))


def _imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every import in a file, nested ones included: `from
    .x import y` in the package reads ("tugplan.x", "y"), `import a.b` reads
    ("a.b", "")."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.extend((alias.name, "") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "tugplan" + (f".{module}" if module else "")
            found.extend((module, alias.name) for alias in node.names)
    return found


def _from(imports: list[tuple[str, str]], module: str) -> list[tuple[str, str]]:
    """The imports that name `module`, a module inside it, or it by name."""
    return [(m, name) for m, name in imports
            if m == module or m.startswith(f"{module}.") or f"{m}.{name}" == module]


class TestIndependence:
    # The checker and the oracle verify the solver, so neither may lean on it.
    PACKAGE = Path(tugplan.__file__).parent

    def test_formulation_imports_nothing_from_the_solver(self):
        assert _from(_imports(self.PACKAGE / "formulation.py"), "tugplan.solver") == []

    def test_oracle_imports_nothing_from_the_package(self):
        assert _from(_imports(Path(__file__).with_name("oracle.py")), "tugplan") == []

    def test_solver_imports_only_the_alias_from_formulation(self):
        assert _from(_imports(self.PACKAGE / "solver.py"), "tugplan.formulation") == [
            ("tugplan.formulation", "assignment_from_solution")]

    def test_the_alias_is_the_formulation_function(self):
        from tugplan import formulation, solver
        assert solver.assignment_from_solution is formulation.assignment_from_solution
        assert tugplan.assignment_from_solution is formulation.assignment_from_solution
