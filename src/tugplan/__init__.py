"""Route planning for in-factory material handling.

Plans pickup-and-delivery tours with time windows for a fleet of identical
vehicles on a factory layout, either against nominal travel times or against
sampled travel-time scenarios with a bounded probability of ignored
scenarios, and validates fixed plans by Monte Carlo simulation.
"""

from .evaluator import (EvaluationReport, SimOutcome, out_of_sample,
                        replay_failures, simulate_route)
from .formulation import (BigMSet, CheckResult, ConstraintSystem,
                          LinearConstraint, Variable, Violation,
                          build_deterministic, build_stochastic, check_solution,
                          compute_big_m, write_lp_text)
from .instance import (LayoutGraph, PdpInstance, PdpNetwork, TaskSpec,
                       build_network, load_instance, shortest_travel_matrix)
from .scenarios import (ScenarioConfig, ScenarioSet, generate_scenarios,
                        scenario_set_from_dict, scenario_set_to_dict,
                        single_scenario)
from .solver import (RoutePlan, Schedule, SearchStats, SolveConfig, Solution,
                     STATUS_INFEASIBLE, STATUS_OPTIMAL,
                     STATUS_TIME_LIMIT_INCUMBENT, STATUS_TIME_LIMIT_NO_INCUMBENT,
                     assignment_from_solution, solve_alpha_zero_fast,
                     solve_deterministic, solve_stochastic)

__version__ = "0.1.0"
