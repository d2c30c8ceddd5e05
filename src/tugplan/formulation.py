"""Explicit MILP descriptions of the routing models, plus a solution checker.

One builder states both constraint systems over a compiled network and a list
of travel-time realizations.  The scenario model has one realization per
sampled scenario: routes are shared across them, service times are
per-scenario, and each scenario has a binary ignore switch whose probability
mass is bounded by the reliability level `alpha`.  The deterministic model is
the same system over the single nominal realization, without switches and
without the mass row.  Big-M constants are sized with `compute_big_m` and
take no override; the paper's M2 equals m1, so a `BigMSet` holds m1, m3 and
m4.

Every linear constraint carries a provenance tag (Eq2..Eq10 for the
deterministic system, Eq13..Eq23 for the scenario system) so checker verdicts
point at the violated constraint family.  `check_solution` evaluates an
assignment against all constraints at 1e-6 absolute tolerance; it is written
directly from the constraint list and shares no code with the route solver,
which makes it usable as an oracle against it.

One degeneracy of the equation system is worth knowing when exporting it to
an external MILP solver: time propagation forbids cycles only through their
accumulated travel time, so task nodes sharing a physical location admit a
cost-free zero-length cycle that satisfies flow conservation, pairing, and
the windows without any vehicle travelling there.  An external optimum can
therefore fall below the cheapest genuine tour on layouts with co-located
task nodes; the route solver never emits such solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import PdpNetwork
from .scenarios import ScenarioSet, check_network

CHECK_TOLERANCE = 1e-6

BINARY = "binary"
CONTINUOUS = "continuous"


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    domain_tag: str


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . values  <relation>  rhs, with <relation> in {<=, =, >=}; any
    other relation raises `ValueError` naming it."""

    name: str
    coeffs: dict[str, float]
    relation: str
    rhs: float
    tag: str

    def __post_init__(self):
        if self.relation not in ("<=", "=", ">="):
            raise ValueError(f"unknown relation {self.relation!r} in {self.name}")


@dataclass(frozen=True)
class BigMSet:
    """Deactivation constants, one per relaxed constraint family.

    Sized so that a deactivated constraint admits every service time inside
    the node windows: m1 covers time propagation along an arc, m3 the
    pickup-before-delivery coupling, m4 the upper window bound.  The paper's
    M2, which switches Eq18 off on an ignored scenario, equals m1.
    """

    m1: float
    m3: float
    m4: float


@dataclass(frozen=True)
class ConstraintSystem:
    model: str
    variables: tuple[Variable, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: dict[str, float]


@dataclass(frozen=True)
class Violation:
    constraint: str
    tag: str
    amount: float


@dataclass(frozen=True)
class CheckResult:
    feasible: bool
    violations: tuple[Violation, ...]


def arc_list(node_count: int) -> list[tuple[int, int]]:
    """Directed arcs of the routing graph: every ordered pair except
    self-arcs, arcs into the source (0) and arcs out of the terminal."""
    source, terminal = 0, node_count - 1
    return [
        (i, j)
        for i in range(node_count) if i != terminal
        for j in range(node_count) if j != i and j != source
    ]


def x_name(k: int, i: int, j: int) -> str:
    return f"x[{k},{i},{j}]"


def w_name(k: int, i: int, scenario: int | None = None) -> str:
    if scenario is None:
        return f"w[{k},{i}]"
    return f"w[{k},{i},{scenario}]"


def z_name(scenario: int) -> str:
    return f"z[{scenario}]"


def propagation_requirement(close_i: float, travel: float, open_j: float) -> float:
    """Smallest constant deactivating time propagation along one arc while the
    endpoint times stay inside their windows."""
    return max(0.0, close_i + travel - open_j)


def compute_big_m(network: PdpNetwork, worst: np.ndarray) -> BigMSet:
    """Tight per-family deactivation constants for the element-wise maximum
    travel times `worst`: the nominal matrix, or the maximum over a scenario
    set's travel times.

    Vacuity is guaranteed for service times within the node windows; m4
    additionally leaves one worst arc of headroom above the latest window so
    ignored-scenario times may run late.
    """
    a, b = network.open_time, network.close_time
    arcs = arc_list(network.size)
    m1 = max(propagation_requirement(b[i], worst[i, j], a[j]) for (i, j) in arcs)
    m3 = 0.0
    for i in network.pickups:
        m3 = max(m3, propagation_requirement(b[i], worst[i, network.delivery_of(i)],
                                             a[network.delivery_of(i)]))
    worst_arc = max(worst[i, j] for (i, j) in arcs)
    m4 = worst_arc + (float(b.max()) - float(b.min()))
    return BigMSet(m1=m1, m3=m3, m4=m4)


_DETERMINISTIC_TAGS = {
    "coverage": "Eq2", "pairing": "Eq3", "source": "Eq4", "terminal": "Eq5", "flow": "Eq6",
    "propagation": "Eq7", "coupling": "Eq8", "window": "Eq9", "arc": "Eq10"}
_STOCHASTIC_TAGS = {
    "coverage": "Eq13", "pairing": "Eq14", "source": "Eq15", "terminal": "Eq16", "flow": "Eq17",
    "propagation": "Eq18", "coupling": "Eq19", "window": "Eq20", "mass": "Eq21", "arc": "Eq22",
    "switch": "Eq23"}


def _route_structure_constraints(network: PdpNetwork, vehicle_count: int,
                                 tags: dict[str, str]) -> list[LinearConstraint]:
    """The scenario-independent route constraints: pickup coverage, pickup and
    delivery on the same vehicle, one departure from the source and one arrival
    at the terminal per vehicle, and flow conservation at every task node."""
    nv = network.size
    arcs = arc_list(nv)
    out_arcs: dict[int, list[tuple[int, int]]] = {i: [] for i in range(nv)}
    in_arcs: dict[int, list[tuple[int, int]]] = {i: [] for i in range(nv)}
    for (i, j) in arcs:
        out_arcs[i].append((i, j))
        in_arcs[j].append((i, j))

    def signed(k: int, plus: list[tuple[int, int]],
               minus: list[tuple[int, int]]) -> dict[str, float]:
        # The two arc lists never share an arc, so no coefficient is summed.
        return {x_name(k, i, j): sign
                for sign, group in ((1.0, plus), (-1.0, minus)) for (i, j) in group}

    cons: list[LinearConstraint] = []
    vehicles = range(vehicle_count)

    for i in network.pickups:
        coeffs = {x_name(k, i, j): 1.0 for k in vehicles for (_, j) in out_arcs[i]}
        cons.append(LinearConstraint(
            name=f"{tags['coverage']}[i={i}]", coeffs=coeffs, relation="=",
            rhs=1.0, tag=tags["coverage"]))

    for k in vehicles:
        for i in network.pickups:
            cons.append(LinearConstraint(
                name=f"{tags['pairing']}[k={k},i={i}]",
                coeffs=signed(k, out_arcs[i], out_arcs[network.delivery_of(i)]),
                relation="=", rhs=0.0, tag=tags["pairing"]))

    for k in vehicles:
        cons.append(LinearConstraint(
            name=f"{tags['source']}[k={k}]",
            coeffs={x_name(k, 0, j): 1.0 for (_, j) in out_arcs[0]},
            relation="=", rhs=1.0, tag=tags["source"]))
        cons.append(LinearConstraint(
            name=f"{tags['terminal']}[k={k}]",
            coeffs={x_name(k, i, network.terminal): 1.0 for (i, _) in in_arcs[network.terminal]},
            relation="=", rhs=1.0, tag=tags["terminal"]))

    for k in vehicles:
        for i in list(network.pickups) + list(network.deliveries):
            cons.append(LinearConstraint(
                name=f"{tags['flow']}[k={k},i={i}]", coeffs=signed(k, out_arcs[i], in_arcs[i]),
                relation="=", rhs=0.0, tag=tags["flow"]))

    return cons


def _build(network: PdpNetwork, scenarios: ScenarioSet | None, alpha: float) -> ConstraintSystem:
    """One builder for both models.  A realization is (scenario, travel times,
    name suffix, switch variable); the deterministic model has the single
    nominal realization without a switch, and no mass row.

    The model states `min(K, n)` of the fleet's K vehicles: every working
    route serves a task and idle vehicles are interchangeable, so any
    solution of the K-vehicle model relabels into it at the same cost."""
    nv = network.size
    vehicle_count = min(network.vehicle_count, network.n)
    arcs = arc_list(nv)
    vehicles = range(vehicle_count)
    a, b = network.open_time, network.close_time
    if scenarios is None:
        tags = _DETERMINISTIC_TAGS
        worst = network.travel_time
        realizations = [(None, worst, "", None)]
    else:
        tags = _STOCHASTIC_TAGS
        check_network(scenarios, network)
        # One read: the set derives its travel times afresh on each.
        times = scenarios.travel_times
        worst = times.max(axis=0)
        realizations = [(s, times[s], f",s={s}", z_name(s)) for s in range(scenarios.count)]
    big_m = compute_big_m(network, worst)

    variables = [
        Variable(name=x_name(k, i, j), kind=BINARY, domain_tag=tags["arc"])
        for k in vehicles for (i, j) in arcs
    ] + [
        Variable(name=w_name(k, i, s), kind=CONTINUOUS, domain_tag=tags["window"])
        for k in vehicles for i in range(nv) for (s, _, _, _) in realizations
    ] + [
        Variable(name=z, kind=BINARY, domain_tag=tags["switch"])
        for (_, _, _, z) in realizations if z is not None
    ]

    cons = _route_structure_constraints(network, vehicle_count, tags)

    # w_js >= w_is + d_ijs - M1 (1 - x_kij) - M2 z_s with M2 = M1, written as
    # w_is - w_js + M1 x_kij - M1 z_s <= M1 - d_ijs
    for k in vehicles:
        for (i, j) in arcs:
            for (s, d, suffix, z) in realizations:
                coeffs = {w_name(k, i, s): 1.0, w_name(k, j, s): -1.0, x_name(k, i, j): big_m.m1}
                if z is not None:
                    coeffs[z] = -big_m.m1
                cons.append(LinearConstraint(
                    name=f"{tags['propagation']}[k={k},({i},{j}){suffix}]", coeffs=coeffs,
                    relation="<=", rhs=big_m.m1 - float(d[i, j]), tag=tags["propagation"]))

    # w_is + d_(i,i+n)s <= w_(i+n)s + M3 z_s
    for k in vehicles:
        for i in network.pickups:
            j = network.delivery_of(i)
            for (s, d, suffix, z) in realizations:
                coeffs = {w_name(k, i, s): 1.0, w_name(k, j, s): -1.0}
                if z is not None:
                    coeffs[z] = -big_m.m3
                cons.append(LinearConstraint(
                    name=f"{tags['coupling']}[k={k},i={i}{suffix}]", coeffs=coeffs,
                    relation="<=", rhs=-float(d[i, j]), tag=tags["coupling"]))

    # a_i (1 - z_s) <= w_is <= b_i + M4 z_s; the lower bound, written as
    # w + a_i z >= a_i, needs a_i >= 0, which `PdpNetwork` guarantees.
    for k in vehicles:
        for i in range(nv):
            for (s, _, suffix, z) in realizations:
                lo = {w_name(k, i, s): 1.0}
                hi = {w_name(k, i, s): 1.0}
                if z is not None:
                    lo[z] = float(a[i])
                    hi[z] = -big_m.m4
                cons.append(LinearConstraint(
                    name=f"{tags['window']}[k={k},i={i}{suffix},lo]", coeffs=lo,
                    relation=">=", rhs=float(a[i]), tag=tags["window"]))
                cons.append(LinearConstraint(
                    name=f"{tags['window']}[k={k},i={i}{suffix},hi]", coeffs=hi,
                    relation="<=", rhs=float(b[i]), tag=tags["window"]))

    if scenarios is not None:
        p = scenarios.probabilities
        cons.append(LinearConstraint(
            name=tags["mass"], coeffs={z_name(s): float(p[s]) for s in range(scenarios.count)},
            relation="<=", rhs=float(alpha), tag=tags["mass"]))

    dist = network.travel_dist
    return ConstraintSystem(
        model="deterministic" if scenarios is None else "stochastic",
        variables=tuple(variables),
        constraints=tuple(cons),
        objective={x_name(k, i, j): float(dist[i, j]) for k in vehicles for (i, j) in arcs},
    )


def build_deterministic(network: PdpNetwork) -> ConstraintSystem:
    """The single-realization model: minimize total travel distance subject to
    route structure, big-M time propagation, pickup-before-delivery, and the
    node time windows, all under nominal travel times.
    """
    return _build(network, None, 0.0)


def build_stochastic(network: PdpNetwork, scenarios: ScenarioSet,
                     alpha: float) -> ConstraintSystem:
    """The scenario model: routes are shared, service times are per scenario,
    and a scenario may be switched off entirely at the price of its
    probability mass, with total switched-off mass at most `alpha`.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return _build(network, scenarios, alpha)


def check_solution(system: ConstraintSystem, assignment: dict[str, float]) -> CheckResult:
    """Evaluate every constraint of `system` at `assignment`.

    The assignment must cover every declared variable; a missing one raises
    ValueError naming it.  Binary variables must sit within CHECK_TOLERANCE of
    0 or 1 (reported under their domain tag).  Returns all violations with their
    provenance tags and the violated amount.  A NaN violates every constraint
    and domain it enters: each test reads "not amount <= CHECK_TOLERANCE".
    """
    violations: list[Violation] = []
    for var in system.variables:
        if var.name not in assignment:
            raise ValueError(f"assignment is missing variable {var.name}")
        value = assignment[var.name]
        if var.kind == BINARY:
            off = min(abs(value), abs(value - 1.0))
            if not off <= CHECK_TOLERANCE:
                violations.append(Violation(
                    constraint=f"domain[{var.name}]", tag=var.domain_tag, amount=off))

    for con in system.constraints:
        total = 0.0
        for name, coef in con.coeffs.items():
            if name not in assignment:
                raise ValueError(f"assignment is missing variable {name}")
            total += coef * assignment[name]
        residual = total - con.rhs
        if con.relation == "<=":
            amount = residual
        elif con.relation == ">=":
            amount = -residual
        else:
            amount = abs(residual)
        if not amount <= CHECK_TOLERANCE:
            violations.append(Violation(constraint=con.name, tag=con.tag, amount=amount))

    return CheckResult(feasible=not violations, violations=tuple(violations))


def _lp_ident(name: str) -> str:
    out = name
    for ch, repl in (("[", "_"), ("]", ""), (",", "_"), ("(", ""), (")", ""), ("=", "")):
        out = out.replace(ch, repl)
    return out


def write_lp_text(system: ConstraintSystem) -> str:
    """Render the system in LP interchange format for external cross-checks."""
    lines = ["Minimize", " obj:"]
    terms = [f" {coef:+.12g} {_lp_ident(name)}" for name, coef in system.objective.items()]
    for start in range(0, len(terms), 8):
        lines.append("  " + "".join(terms[start:start + 8]))
    lines.append("Subject To")
    for idx, con in enumerate(system.constraints):
        expr = "".join(
            f" {coef:+.12g} {_lp_ident(name)}" for name, coef in con.coeffs.items())
        lines.append(f" c{idx}_{_lp_ident(con.name)}: {expr} {con.relation} {con.rhs:.12g}")
    binaries = [v.name for v in system.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binary")
        for start in range(0, len(binaries), 10):
            lines.append("  " + " ".join(_lp_ident(n) for n in binaries[start:start + 10]))
    lines.append("End")
    return "\n".join(lines) + "\n"
