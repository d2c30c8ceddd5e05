"""Out-of-sample validation of fixed route plans.

A plan, which must be a `RoutePlan` of the network it runs on, is executed
under freshly sampled travel times with the earliest-feasible dispatch
policy: leave the depot at time zero, wait at each node until its window
opens, and serve immediately on arrival otherwise.  A vehicle's trial fails
as soon as a service time exceeds a window's closing time; a plan's trial
fails if any vehicle fails.  Trial seeds are derived from (seed, evaluation
stream, trial index), a stream disjoint from the one used for solve-time
scenario sampling, so evaluation never reuses in-sample draws.

Dispatch runs the solver's schedule recursion (`route_times`) without the
model's pickup-to-delivery coupling: a delivery is never held back to its
pickup time plus the direct pickup arc.  Sampled realizations are not metric,
so that arc can be longer than the route's own way round, and the model then
times the delivery later than dispatch does.  Trials are sampled together
by `sample_multipliers`, each still on its own stream, and both sampled and
evaluated in blocks of `_TRIAL_BLOCK`, so memory does not grow with the
trial count.

Each failure share comes with the half-width of its 95% Wilson score
interval, which stays positive when no trial fails; the interval is centred
at `(p + z^2 / 2N) / (1 + z^2 / N)`, not at the share `p` itself, so reports
print its bounds (`wilson_interval`) rather than `p` plus or minus the
half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import PdpNetwork
from .scenarios import (EVALUATION_STREAM, ScenarioConfig, ScenarioSet, check_network,
                        sample_multipliers)
from .scenarios import sample_time_matrix  # noqa: F401 (perfbench traces it as scenarios.matrix)
from .solver import RoutePlan, route_times

_EPS = 1e-9
_TRIAL_BLOCK = 1024
# The normal quantile of a two-sided 95% interval.
_Z95 = 1.96

DISPATCH_POLICY = "earliest-feasible"


@dataclass(frozen=True)
class SimOutcome:
    """Result of executing one route once: ok, or the first late node."""

    ok: bool
    violated_node: int | None = None
    lateness: float = 0.0


@dataclass(frozen=True)
class EvaluationReport:
    trials: int
    seed: int
    per_vehicle_failure: tuple[float, ...]
    overall_failure: float

    def __post_init__(self):
        for f in self.per_vehicle_failure + (self.overall_failure,):
            if not (0.0 <= f <= 1.0):
                raise ValueError(f"failure frequency {f} outside [0, 1]")
        if self.per_vehicle_failure and self.overall_failure < max(self.per_vehicle_failure) - _EPS:
            raise ValueError("overall failure cannot be below the worst vehicle")

    # The half-widths derive from the shares and the trial count, so they
    # cannot disagree with them.
    @property
    def per_vehicle_half_width(self) -> tuple[float, ...]:
        return tuple(_wilson_half_width(p, self.trials) for p in self.per_vehicle_failure)

    @property
    def overall_half_width(self) -> float:
        return _wilson_half_width(self.overall_failure, self.trials)


def _check_nodes(route, nv: int) -> None:
    for node in route:
        if not (0 <= node < nv):
            raise ValueError(f"route visits unknown node {node}")


def simulate_route(route: tuple[int, ...] | list[int], realized_times: np.ndarray,
                   open_time: np.ndarray, close_time: np.ndarray) -> SimOutcome:
    """Run one route under one realized travel-time matrix.

    Dispatch is earliest-feasible: w_first = 0 at the source, then
    w_next = max(open_next, w_current + realized time).  Returns the first
    node whose closing time is exceeded, with its lateness, or success.
    """
    _check_nodes(route, realized_times.shape[0])
    w, late = route_times(route, realized_times[np.newaxis], open_time, close_time,
                          coupling=False)
    hits = np.flatnonzero(late[:, 0])
    if hits.size == 0:
        return SimOutcome(ok=True)
    pos = int(hits[0])
    node = int(route[pos])
    return SimOutcome(ok=False, violated_node=node,
                      lateness=float(w[pos, 0]) - float(close_time[node]))


def _late_routes(routes, times: np.ndarray, network: PdpNetwork) -> np.ndarray:
    """[K, S]: whether route k misses a window under realization times[s].
    An idle route, the free depot hop, is never late (see `PdpNetwork`)."""
    late = np.zeros((len(routes), times.shape[0]), dtype=bool)
    for k, route in enumerate(routes):
        if len(route) > 2:
            late[k] = route_times(route, times, network.open_time, network.close_time,
                                  coupling=False)[1].any(axis=0)
    return late


def _wilson_half_width(p_hat: float, trials: int) -> float:
    """Half the width of the 95% Wilson score interval of a share `p_hat`
    observed in `trials` trials."""
    z2 = _Z95 * _Z95 / trials
    return _Z95 / (1.0 + z2) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials))


def wilson_interval(p_hat: float, trials: int) -> tuple[float, float]:
    """The bounds of the 95% Wilson score interval of a share `p_hat`
    observed in `trials` trials.

    The bounds are the roots of `(1 + z2) x^2 - (2p + z2) x + p^2` with
    `z2 = z^2 / N`.  The lower one is taken from the roots' product and the
    upper root (centre plus half-width), and the upper one likewise from the
    failures' mirror image `1 - p`, so each is exact where the share sits at
    its end of [0, 1]: centre minus half-width leaves rounding noise there.
    """
    z2 = _Z95 * _Z95 / trials

    def lower(p: float) -> float:
        upper = (p + z2 / 2.0) / (1.0 + z2) + _wilson_half_width(p, trials)
        return p * p / ((1.0 + z2) * upper)

    return lower(p_hat), 1.0 - lower(1.0 - p_hat)


def _routes_of(plan: RoutePlan, network: PdpNetwork) -> tuple[tuple[int, ...], ...]:
    """The routes of a validated plan for `network`'s tasks and fleet."""
    if (not isinstance(plan, RoutePlan) or plan.n != network.n
            or plan.vehicle_count > network.vehicle_count):
        raise ValueError(f"plan must be a RoutePlan of the network's {network.n} tasks "
                         f"on at most {network.vehicle_count} vehicles")
    return plan.routes


def out_of_sample(plan: RoutePlan, network: PdpNetwork,
                  config: ScenarioConfig) -> EvaluationReport:
    """Failure frequencies of `plan` over `config.count` fresh realizations.

    Deterministic given the seed and independent of evaluation order: each
    trial draws its travel times from its own seed-derived stream.
    """
    routes = _routes_of(plan, network)
    trials = config.count
    fails = np.zeros(len(routes), dtype=int)
    any_fail = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        count = min(_TRIAL_BLOCK, trials - start)
        times = sample_multipliers(network.travel_time, config.seed, EVALUATION_STREAM, start,
                                   count)
        times *= network.travel_time
        late = _late_routes(routes, times, network)
        fails += late.sum(axis=1)
        any_fail += int(late.any(axis=0).sum())
    return EvaluationReport(
        trials=trials,
        seed=config.seed,
        per_vehicle_failure=tuple(float(f) / trials for f in fails),
        overall_failure=float(any_fail) / trials,
    )


def replay_failures(plan: RoutePlan, network: PdpNetwork,
                    scenarios: ScenarioSet) -> np.ndarray:
    """Per-vehicle failure counts of `plan` replayed on an existing scenario
    set (in-sample check; a robust plan must score zero on its own set)."""
    check_network(scenarios, network)
    return _late_routes(_routes_of(plan, network), scenarios.travel_times,
                        network).sum(axis=1)
