"""Seeded factory instances for the benchmark.

The layout is the factory6 shop floor: stations A-E hang off a six-junction
grid and the depot sits at junction J6.  Each task picks up at one station and
delivers to another; its release time is 10 * U{0..7} s.  A tight instance
closes each delivery window U{40..119} s after release, a loose one 1000 s
after release.  The fleet has four vehicles.

Draws come from `numpy.random.default_rng(seed)` in a fixed order, per task:
origin and destination (two distinct stations), release step, window width.
The width is drawn in both classes, so the tight and the loose instance of a
seed share stations and release times and differ only in their deadlines.
"""

from __future__ import annotations

import numpy as np

STATIONS = ("A", "B", "C", "D", "E")
NODES = [["J1", "1"], ["J2", "2"], ["J3", "3"], ["J4", "4"], ["J5", "5"],
         ["J6", "6"], ["A", "A"], ["B", "B"], ["C", "C"], ["D", "D"], ["E", "E"]]
EDGES = [["J1", "J2", 12.0], ["J2", "J3", 12.0], ["J3", "J4", 12.0],
         ["J4", "J1", 12.0], ["J3", "J5", 9.0], ["J5", "J6", 9.0],
         ["J6", "J4", 9.0], ["A", "J2", 6.0], ["B", "J3", 6.0],
         ["C", "J5", 6.0], ["D", "J6", 6.0], ["E", "J1", 6.0]]
VEHICLES = 4
LOOSE_WIDTH_S = 1000.0
HORIZON_S = {"tight": 400.0, "loose": 1200.0}


def factory_instance(seed: int, n: int, windows: str) -> dict:
    """Instance document (the format `tugplan.load_instance` reads) with `n`
    tasks and `windows` either "tight" or "loose"."""
    if windows not in HORIZON_S:
        raise ValueError(f"windows must be 'tight' or 'loose', got {windows!r}")
    rng = np.random.default_rng(seed)
    tasks = []
    for t in range(n):
        origin, dest = rng.choice(len(STATIONS), size=2, replace=False)
        release = 10.0 * int(rng.integers(0, 8))
        width = float(rng.integers(40, 120))
        if windows == "loose":
            width = LOOSE_WIDTH_S
        tasks.append({"id": f"T{t + 1}", "from": STATIONS[int(origin)],
                      "to": STATIONS[int(dest)], "earliest_pickup_s": release,
                      "latest_delivery_s": release + width})
    return {
        "layout": {"nodes": NODES, "edges": EDGES},
        "tasks": tasks,
        "vehicles": VEHICLES,
        "depot": "J6",
        "speed": 1.5,
        "horizon": HORIZON_S[windows],
        "notes": f"generated: seed {seed}, {n} tasks, {windows} windows",
    }
