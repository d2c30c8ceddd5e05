"""Cross-validate the emitted constraint systems with an external MILP solver.

The constraint systems are handed to scipy's HiGHS-backed `milp` and the
optimum compared against the route search.  One degeneracy of the equation
system matters here: when two task nodes share a physical location, the
zero-length arcs between them allow a cost-free two-node cycle that satisfies
flow conservation, pairing, time propagation, and the windows without any
vehicle actually travelling there, so the MILP optimum can fall below the
cheapest genuine tour.  On layouts whose task nodes are pairwise distinct no
zero-length cycle exists and the two optima must agree exactly; with
co-location the MILP optimum is a lower bound.
"""

import json

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from tugplan import (ScenarioConfig, SolveConfig, build_deterministic, build_network,
                     build_stochastic, generate_scenarios, load_instance,
                     solve_deterministic, solve_stochastic)

from conftest import single_task_dict
from instgen import random_instance_doc


def milp_optimum(system):
    """Solve a ConstraintSystem with scipy/HiGHS; returns (status, objective)."""
    names = [v.name for v in system.variables]
    index = {name: i for i, name in enumerate(names)}
    size = len(names)

    cost = np.zeros(size)
    for name, coef in system.objective.items():
        cost[index[name]] = coef

    integrality = np.array(
        [1 if v.kind == "binary" else 0 for v in system.variables])
    upper = np.array(
        [1.0 if v.kind == "binary" else np.inf for v in system.variables])

    rows = np.zeros((len(system.constraints), size))
    lo = np.empty(len(system.constraints))
    hi = np.empty(len(system.constraints))
    for r, con in enumerate(system.constraints):
        for name, coef in con.coeffs.items():
            rows[r, index[name]] = coef
        if con.relation == "<=":
            lo[r], hi[r] = -np.inf, con.rhs
        elif con.relation == ">=":
            lo[r], hi[r] = con.rhs, np.inf
        else:
            lo[r] = hi[r] = con.rhs

    result = milp(c=cost, constraints=LinearConstraint(rows, lo, hi),
                  integrality=integrality, bounds=Bounds(np.zeros(size), upper))
    if result.status == 0:
        return "optimal", float(result.fun)
    if result.status == 2:
        return "infeasible", None
    raise RuntimeError(f"unexpected milp status {result.status}: {result.message}")


def distinct_task_locations(network) -> bool:
    """True when no two task nodes share a location (no zero-length cycles)."""
    task_nodes = range(1, network.terminal)
    return all(network.travel_dist[i, j] > 0
               for i in task_nodes for j in task_nodes if i != j)


def compare(network, system, solution, exact: bool):
    status, objective = milp_optimum(system)
    assert status == solution.status
    if status != "optimal":
        return
    if exact:
        assert objective == pytest.approx(solution.objective, abs=1e-6)
    else:
        # Genuine tours are feasible points of the system, so the MILP can
        # only match them or undercut via zero-cost phantom cycles.
        assert objective <= solution.objective + 1e-6


class TestDeterministicAgainstHighs:
    def test_single_task_exact(self, single_task_network):
        assert distinct_task_locations(single_task_network)
        solution = solve_deterministic(single_task_network)
        compare(single_task_network, build_deterministic(single_task_network),
                solution, exact=True)

    def test_tri3_phantom_cycle_lower_bound(self, tri3_network):
        # Both deliveries sit at the same station, so the MILP may serve them
        # with a zero-length cycle and undercut the cheapest genuine tour.
        assert not distinct_task_locations(tri3_network)
        status, objective = milp_optimum(build_deterministic(tri3_network))
        solution = solve_deterministic(tri3_network)
        assert status == "optimal"
        assert objective == pytest.approx(60.0, abs=1e-6)
        assert solution.objective == pytest.approx(90.0, abs=1e-9)

    def test_randomized_instances(self):
        rng = np.random.default_rng(5150)
        exact = bounded = infeasible = 0
        for _ in range(14):
            doc = random_instance_doc(rng, max_tasks=2, max_vehicles=2)
            network = build_network(load_instance(json.dumps(doc)))
            solution = solve_deterministic(network)
            is_exact = distinct_task_locations(network)
            compare(network, build_deterministic(network), solution, exact=is_exact)
            if solution.status != "optimal":
                infeasible += 1
            elif is_exact:
                exact += 1
            else:
                bounded += 1
        assert exact >= 3 and infeasible >= 1


class TestStochasticAgainstHighs:
    def test_single_task_scenario_sets(self, single_task_network):
        for count, alpha, seed in ((1, 0.0, 3), (2, 0.0, 4), (2, 0.5, 4), (3, 1 / 3, 9)):
            scen = generate_scenarios(single_task_network,
                                      ScenarioConfig(count=count, seed=seed))
            solution = solve_stochastic(single_task_network, scen,
                                        SolveConfig(alpha=alpha))
            compare(single_task_network,
                    build_stochastic(single_task_network, scen, alpha),
                    solution, exact=True)

    def test_randomized_instances(self):
        rng = np.random.default_rng(6160)
        exact = 0
        for trial in range(10):
            doc = random_instance_doc(rng, max_tasks=2, max_vehicles=2)
            network = build_network(load_instance(json.dumps(doc)))
            count = int(rng.integers(1, 3))
            alpha = float(rng.choice([0.0, 0.5]))
            scen = generate_scenarios(network, ScenarioConfig(count=count, seed=trial))
            solution = solve_stochastic(network, scen, SolveConfig(alpha=alpha))
            is_exact = distinct_task_locations(network)
            compare(network, build_stochastic(network, scen, alpha), solution,
                    exact=is_exact)
            if is_exact and solution.status == "optimal":
                exact += 1
        assert exact >= 2
