"""Seeded random toy instances for solver-versus-oracle suites."""

from __future__ import annotations

import json

import numpy as np

from tugplan import build_network, load_instance, shortest_travel_matrix
from tugplan.instance import LayoutGraph

SPEED = 1.5


def random_instance_doc(rng: np.random.Generator, max_tasks: int = 3,
                        max_vehicles: int = 2, tightness: str = "mixed",
                        sites: int | None = None) -> dict:
    """A random ring-plus-chords layout with 1..max_tasks tasks.

    `tightness` shapes deadlines relative to the direct travel time:
    "mixed" draws factors in [0.8, 3.5] (some solo-infeasible), "loose"
    in [4.0, 8.0], "tight" in [0.9, 1.6].  Two special modes: "slack" adds an
    absolute margin of ten times the total pairwise travel time, far beyond
    any realizable worst-case tour; "infeasible" places every deadline below
    the direct nominal travel time, so no plan can serve the tasks.  With
    `sites`, every task picks up and delivers at `sites` of the layout's
    locations, drawn once, so task nodes share locations; without it the
    draws are those of earlier versions.
    """
    size = int(rng.integers(4, 7))
    ids = [f"L{i}" for i in range(size)]
    edges = []
    for i in range(size):
        edges.append([ids[i], ids[(i + 1) % size], float(rng.integers(10, 61)) / 2.0])
    for _ in range(int(rng.integers(0, 3))):
        u, v = rng.choice(size, size=2, replace=False)
        edges.append([ids[int(u)], ids[int(v)], float(rng.integers(10, 61)) / 2.0])

    layout = LayoutGraph(node_ids=tuple(ids), labels=tuple(ids),
                         edges=tuple((u, v, l) for u, v, l in edges))
    times = shortest_travel_matrix(layout, ids, SPEED)

    depot = ids[0]
    n = int(rng.integers(1, max_tasks + 1))
    factors = {"mixed": (0.8, 3.5), "loose": (4.0, 8.0), "tight": (0.9, 1.6),
               "slack": (1.0, 1.0), "infeasible": (0.5, 0.95)}
    lo, hi = factors[tightness]
    slack = 10.0 * float(times.sum()) if tightness == "slack" else 0.0
    pool = size if sites is None else rng.choice(size, size=sites, replace=False)
    tasks = []
    for t in range(n):
        a, b = rng.choice(pool, size=2, replace=False)
        origin, dest = ids[int(a)], ids[int(b)]
        earliest = float(rng.integers(0, 5)) * 5.0
        direct = times[int(a), int(b)]
        factor = float(rng.uniform(lo, hi))
        latest = earliest + max(1.0, direct * factor + slack)
        tasks.append({"id": f"T{t + 1}", "from": origin, "to": dest,
                      "earliest_pickup_s": earliest, "latest_delivery_s": round(latest, 3)})

    horizon = max(task["latest_delivery_s"] for task in tasks) + float(rng.integers(50, 200))
    return {
        "layout": {"nodes": ids, "edges": edges},
        "tasks": tasks,
        "vehicles": int(rng.integers(1, max_vehicles + 1)),
        "depot": depot,
        "speed": SPEED,
        "horizon": round(horizon, 3),
    }


def random_network(rng: np.random.Generator, **kwargs):
    return build_network(load_instance(json.dumps(random_instance_doc(rng, **kwargs))))
