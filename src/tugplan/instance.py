"""Factory layouts, transport tasks, and the compiled pickup/delivery network.

A problem is described by a layout graph (locations connected by walkable or
drivable edges, lengths in meters), a list of transport tasks (pick up at one
location after some release time, deliver to another before a deadline), a
fleet size, and a depot.  From this we derive nominal travel times at a fixed
vehicle speed and compile the routing network: node 0 is the source depot,
nodes 1..n the pickups, nodes n+1..2n the matching deliveries, node 2n+1 the
terminal depot.  Every node carries a service-time window [open, close].

Re-planning compiles many task sets on one layout, so the layout's
all-pairs shortest paths are computed once per layout, not once per
network: `_layout_closure` memoises the last `_CLOSURE_MEMO` closures, each
a read-only float64 matrix over the layout's nodes, keyed on the frozen
`LayoutGraph` value (its node ids, labels and edges).  An entry over m
layout nodes holds m * m * 8 bytes, so the memo holds at most
`_CLOSURE_MEMO` * m * m * 8 bytes for layouts of at most m nodes.

All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

# Layout closures `_layout_closure` keeps: one per layout a process plans
# on, with room for a few layouts at once.
_CLOSURE_MEMO = 8


@dataclass(frozen=True)
class LayoutGraph:
    """Undirected factory layout: locations plus edges with lengths in meters."""

    node_ids: tuple[str, ...]
    labels: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        if len(set(self.node_ids)) != len(self.node_ids):
            dupes = sorted({v for v in self.node_ids if self.node_ids.count(v) > 1})
            raise ValueError(f"layout.nodes: duplicate node ids {dupes}")
        if len(self.labels) != len(self.node_ids):
            raise ValueError("layout.nodes: labels must match node ids")
        known = set(self.node_ids)
        for u, v, length in self.edges:
            for end in (u, v):
                if end not in known:
                    raise ValueError(f"layout.edges: unknown node {end!r} in edge ({u!r}, {v!r})")
            if not (length > 0):
                raise ValueError(f"layout.edges: edge ({u!r}, {v!r}) has non-positive "
                                 f"length {length}")
        if self.node_ids and not self._connected():
            raise ValueError("layout: graph is not connected")

    def _connected(self) -> bool:
        index = {v: i for i, v in enumerate(self.node_ids)}
        adj: list[list[int]] = [[] for _ in self.node_ids]
        for u, v, _ in self.edges:
            adj[index[u]].append(index[v])
            adj[index[v]].append(index[u])
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.node_ids)

    def label_of(self, node_id: str) -> str:
        return self.labels[self.node_ids.index(node_id)]


@dataclass(frozen=True)
class TaskSpec:
    """One transport task: pick up at `origin` after `earliest_pickup` seconds,
    deliver to `destination` before `latest_delivery` seconds."""

    task_id: str
    origin: str
    destination: str
    earliest_pickup: float
    latest_delivery: float

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValueError(f"task {self.task_id!r}: from and to are both {self.origin!r}")
        if self.earliest_pickup < 0:
            raise ValueError(f"task {self.task_id!r}: earliest_pickup_s must be >= 0, "
                             f"got {self.earliest_pickup}")
        if not (self.latest_delivery > self.earliest_pickup):
            raise ValueError(f"task {self.task_id!r}: latest_delivery_s ({self.latest_delivery}) "
                             f"must exceed earliest_pickup_s ({self.earliest_pickup})")


@dataclass(frozen=True)
class PdpInstance:
    """A complete problem instance: layout, tasks, fleet, depot, speed, horizon."""

    layout: LayoutGraph
    tasks: tuple[TaskSpec, ...]
    vehicle_count: int
    depot: str
    horizon: float
    speed: float = 1.5

    def __post_init__(self):
        if len(self.tasks) < 1:
            raise ValueError("tasks: at least one task is required")
        if self.vehicle_count < 1:
            raise ValueError(f"vehicles: must be >= 1, got {self.vehicle_count}")
        if not (0 < self.speed < math.inf):
            raise ValueError(f"speed: must be > 0 and finite, got {self.speed}")
        known = set(self.layout.node_ids)
        if self.depot not in known:
            raise ValueError(f"depot: unknown location {self.depot!r}")
        for t in self.tasks:
            for loc in (t.origin, t.destination):
                if loc not in known:
                    raise ValueError(f"task {t.task_id!r}: unknown location {loc!r}")
        seen_ids = set()
        for t in self.tasks:
            if t.task_id in seen_ids:
                raise ValueError(f"tasks: duplicate task id {t.task_id!r}")
            seen_ids.add(t.task_id)
        latest = max(t.latest_delivery for t in self.tasks)
        if self.horizon < latest:
            raise ValueError(f"horizon: {self.horizon} is below the latest delivery "
                             f"deadline {latest}")

    @property
    def n(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True, eq=False)
class PdpNetwork:
    """Compiled routing network over V = {0, .., 2n+1}.

    Node 0 and node 2n+1 are the source and terminal depots; node i in 1..n is
    the pickup of task i-1 and node i+n its delivery.  `travel_time` is the
    time matrix in seconds, `travel_dist` the distance matrix in meters, and
    `open_time`/`close_time` the window bounds per node.  The network owns
    read-only float copies of these four arrays, so no alias of the caller's
    can change it after its checks, and the caller's arrays stay as they
    were.  A network checks
    its fleet (an integer from 1 to `sys.maxsize`), its shapes (one entry per node in
    each per-node field, one task id per task), its fixed windows
    (deliveries and depots open at 0), the free depot hop (nodes 0 and 2n+1
    at one location, zero time and distance apart), that every window bound
    is finite, no node opens before 0 and no window closes before it opens,
    that both matrices are finite and non-negative, that a plan's sums stay
    inside the float range (3n + 1 legs of the longest distance, and the
    latest closing time plus 3n + 1 legs of the longest travel time), and
    that nodes at one location share their rows and columns of both; the
    first check that fails raises `ValueError`.  So an idle route, the free depot hop, is never late.
    `build_network` fills the matrices with shortest-path values, but a
    hand-built network's need not be metric: the search closes its own time
    stack and its completion table closes the location distances.  Networks
    compare and hash by identity: arrays have no single truth value.
    """

    n: int
    vehicle_count: int
    locations: tuple[str, ...]
    labels: tuple[str, ...]
    task_ids: tuple[str, ...]
    open_time: np.ndarray
    close_time: np.ndarray
    travel_time: np.ndarray
    travel_dist: np.ndarray

    def __post_init__(self):
        fleet = self.vehicle_count
        if isinstance(fleet, bool) or not isinstance(fleet, (int, np.integer)) or fleet < 1:
            raise ValueError(f"vehicle_count is {fleet!r}; a network needs an integer "
                             f"fleet of at least 1")
        if fleet > sys.maxsize:
            raise ValueError(f"vehicle_count is {fleet}; a plan lists one route per vehicle, "
                             f"so a fleet is at most {sys.maxsize}")
        nv = self.size
        for name, shape in (("open_time", (nv,)), ("close_time", (nv,)),
                            ("travel_time", (nv, nv)), ("travel_dist", (nv, nv)),
                            ("locations", (nv,)), ("labels", (nv,)), ("task_ids", (self.n,))):
            value = getattr(self, name)
            # len() spares the name tuples a conversion to an array.
            got = (len(value),) if isinstance(value, tuple) else np.shape(value)
            if got != shape:
                raise ValueError(f"{name} has shape {got}; a network of {self.n} tasks "
                                 f"needs {shape}")
        for name in ("open_time", "close_time", "travel_time", "travel_dist"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for v in (0, *self.deliveries, self.terminal):
            if self.open_time[v] != 0:
                raise ValueError(f"node {v} opens at {self.open_time[v]:g} s; deliveries and "
                                 f"depots must open at 0")
        hop = (0, self.terminal), (self.terminal, 0)
        if (self.locations[0] != self.locations[self.terminal]
                or any(self.travel_time[h] or self.travel_dist[h] for h in hop)):
            raise ValueError(f"depot nodes 0 and {self.terminal} must be one location, "
                             f"with zero travel time and distance between them")
        for name in ("open_time", "close_time"):
            bounds = getattr(self, name)
            finite = np.isfinite(bounds)
            if not finite.all():
                v = finite.argmin()
                raise ValueError(f"{name}[{v}] is {bounds[v]:g}; window bounds must be finite")
        early = self.open_time < 0
        if early.any():
            v = early.argmax()
            raise ValueError(f"node {v} opens at {self.open_time[v]:g} s; no node may open "
                             f"before 0")
        inverted = self.close_time < self.open_time
        if inverted.any():
            v = inverted.argmax()
            raise ValueError(f"node {v} closes at {self.close_time[v]:g} s, before it opens at "
                             f"{self.open_time[v]:g} s")
        for name in ("travel_time", "travel_dist"):
            matrix = getattr(self, name)
            # Compared only where finite, so a NaN is never ordered.
            ok = np.isfinite(matrix)
            ok[ok] = matrix[ok] >= 0
            if not ok.all():
                i, j = np.argwhere(~ok)[0]
                raise ValueError(f"{name}[{i}, {j}] is {matrix[i, j]:g}; travel times and "
                                 f"distances must be finite and non-negative")
        # A plan has at most 3n arcs (one route per task), and the search
        # adds a completion bound of at most one arc more to a partial plan;
        # its times add the same legs to at most the latest closing time.
        # Float sums past the range would turn to `inf` silently and lose
        # every plan.
        legs = 3 * self.n + 1
        if not math.isfinite(legs * float(self.travel_dist.max())):
            raise ValueError(f"travel_dist: {legs} legs of the longest distance, "
                             f"{self.travel_dist.max():g} m, overflow the float range")
        if not math.isfinite(float(self.close_time.max()) + legs * float(self.travel_time.max())):
            raise ValueError(f"close_time: {self.close_time.max():g} s plus {legs} legs of the longest "
                             f"travel time, {self.travel_time.max():g} s, overflows the float range")
        # The search reads a location's distances from its first node, so
        # every node must share its first co-located node's rows and columns.
        first: dict[str, int] = {}
        at = [first.setdefault(name, v) for v, name in enumerate(self.locations)]
        for name in ("travel_time", "travel_dist"):
            matrix = getattr(self, name)
            if (matrix != matrix.take(at, 0).take(at, 1)).any():
                raise ValueError(f"{name} differs between co-located nodes; nodes at one "
                                 f"location must share their rows and columns")

    @property
    def size(self) -> int:
        return 2 * self.n + 2

    @property
    def terminal(self) -> int:
        return 2 * self.n + 1

    @property
    def pickups(self) -> range:
        return range(1, self.n + 1)

    @property
    def deliveries(self) -> range:
        return range(self.n + 1, 2 * self.n + 1)

    def delivery_of(self, pickup: int) -> int:
        return pickup + self.n


def shortest_path_closure(lengths: np.ndarray) -> np.ndarray:
    """All-pairs shortest path lengths (Floyd-Warshall) over the last two axes
    of an [..., m, m] stack; `inf` marks a missing arc, and a path whose sum
    overflows the float range is `inf` too."""
    closure = np.array(lengths, dtype=float)
    with np.errstate(over="ignore"):
        for via in range(closure.shape[-1]):
            np.minimum(closure, closure[..., :, via:via + 1] + closure[..., via:via + 1, :],
                       out=closure)
    return closure


@functools.lru_cache(maxsize=_CLOSURE_MEMO)
def _layout_closure(layout: LayoutGraph) -> np.ndarray:
    """Shortest-path lengths in meters between every two nodes of `layout`,
    in `node_ids` order, as a read-only [m, m] array; `inf` marks a pair
    with no path, or one whose sum overflows the float range."""
    index = {v: i for i, v in enumerate(layout.node_ids)}
    m = len(layout.node_ids)
    # Parallel edges collapse to their shortest representative.
    lengths = np.full((m, m), math.inf)
    np.fill_diagonal(lengths, 0.0)
    for u, v, length in layout.edges:
        i, j = index[u], index[v]
        if length < lengths[i, j]:
            lengths[i, j] = lengths[j, i] = length
    closure = shortest_path_closure(lengths)
    closure.setflags(write=False)
    return closure


def shortest_travel_matrix(layout: LayoutGraph, locations: list[str] | tuple[str, ...],
                           speed: float) -> np.ndarray:
    """Pairwise shortest-path travel times in seconds between `locations`.

    Times are shortest-path meters divided by `speed`; the result is symmetric
    with a zero diagonal and satisfies the triangle inequality.  A pair with
    no path, or whose time or distance overflows the float range, is
    rejected by name.  The speed, the location names and the float range
    are checked on every call; the meters come from the layout's memoised
    closure (`_layout_closure`: at most `_CLOSURE_MEMO` layouts, keyed on
    the layout's value, m * m * 8 bytes each for m layout nodes), and the
    result is a fresh array the caller may write to.
    """
    if not (0 < speed < math.inf):
        raise ValueError(f"speed: must be > 0 and finite, got {speed}")
    index = {v: i for i, v in enumerate(layout.node_ids)}
    for loc in locations:
        if loc not in index:
            raise ValueError(f"locations: unknown location {loc!r}")
    wanted = [index[loc] for loc in locations]
    dist = _layout_closure(layout).take(wanted, 0).take(wanted, 1)
    with np.errstate(over="ignore"):
        times = dist / speed
        # `build_network` scales the times back to meters, which can round
        # past the float range too.
        overflow = ~np.isfinite(times * speed)
    if overflow.any():
        i, j = np.argwhere(overflow)[0]
        raise ValueError(f"layout: no finite travel time between {locations[i]!r} and "
                         f"{locations[j]!r}")
    return times


def build_network(instance: PdpInstance) -> PdpNetwork:
    """Compile a validated instance into the routing network.

    Pickup node i opens at the task's earliest pickup and closes at the
    horizon; delivery node i+n opens at 0 and closes at the task's latest
    delivery; both depot nodes carry [0, horizon].  The windows are ordered
    by construction; `PdpNetwork` raises `ValueError` if a plan's sums
    leave the float range.
    """
    n = instance.n
    locations = (
        (instance.depot,)
        + tuple(t.origin for t in instance.tasks)
        + tuple(t.destination for t in instance.tasks)
        + (instance.depot,)
    )
    labels = tuple(instance.layout.label_of(loc) for loc in locations)
    open_time = np.zeros(2 * n + 2)
    close_time = np.full(2 * n + 2, float(instance.horizon))
    for i, t in enumerate(instance.tasks):
        open_time[1 + i] = t.earliest_pickup
        close_time[1 + n + i] = t.latest_delivery
    travel_time = shortest_travel_matrix(instance.layout, locations, instance.speed)
    return PdpNetwork(
        n=n,
        vehicle_count=instance.vehicle_count,
        locations=locations,
        labels=labels,
        task_ids=tuple(t.task_id for t in instance.tasks),
        open_time=open_time,
        close_time=close_time,
        travel_time=travel_time,
        travel_dist=travel_time * instance.speed,
    )


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ValueError(f"{context}: missing required key {key!r}")
    return mapping[key]


def is_json_int(value) -> bool:
    """Whether a parsed JSON value is an integer (bools are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{context}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{context}: expected a finite number, got {value!r}")
    return number


def load_instance(text: str) -> PdpInstance:
    """Parse and validate a JSON instance document.

    Expected shape::

        {
          "layout": {"nodes": ["DEP", "A", ...], "edges": [["DEP", "A", 15.0], ...]},
          "tasks": [{"id": "T1", "from": "A", "to": "B",
                     "earliest_pickup_s": 10, "latest_delivery_s": 40}, ...],
          "vehicles": 2,
          "depot": "DEP",
          "speed": 1.5,
          "horizon": 200
        }

    Layout nodes may also be given as ``[id, label]`` pairs.  `speed` defaults
    to `PdpInstance.speed`.  An optional ``"notes"`` string is checked and
    then ignored.  A malformed or structurally invalid document raises
    `ValueError` naming the offending field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")

    layout_doc = _require(doc, "layout", "instance")
    if not isinstance(layout_doc, dict):
        raise ValueError("layout: must be an object with 'nodes' and 'edges'")
    nodes_doc = _require(layout_doc, "nodes", "layout")
    edges_doc = _require(layout_doc, "edges", "layout")
    if not isinstance(nodes_doc, list) or not nodes_doc:
        raise ValueError("layout.nodes: must be a non-empty list")
    node_ids, node_labels = [], []
    for entry in nodes_doc:
        if isinstance(entry, str):
            node_ids.append(entry)
            node_labels.append(entry)
        elif isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry):
            node_ids.append(entry[0])
            node_labels.append(entry[1])
        else:
            raise ValueError(f"layout.nodes: expected id or [id, label], got {entry!r}")
    if not isinstance(edges_doc, list):
        raise ValueError("layout.edges: must be a list of [from, to, length_m]")
    edges = []
    for entry in edges_doc:
        if (not isinstance(entry, list) or len(entry) != 3
                or not isinstance(entry[0], str) or not isinstance(entry[1], str)):
            raise ValueError(f"layout.edges: expected [from, to, length_m], got {entry!r}")
        edges.append((entry[0], entry[1], _number(entry[2], f"layout.edges[{entry[0]!r},{entry[1]!r}].length_m")))
    layout = LayoutGraph(node_ids=tuple(node_ids), labels=tuple(node_labels), edges=tuple(edges))

    tasks_doc = _require(doc, "tasks", "instance")
    if not isinstance(tasks_doc, list) or not tasks_doc:
        raise ValueError("tasks: must be a non-empty list")
    tasks = []
    for pos, entry in enumerate(tasks_doc):
        if not isinstance(entry, dict):
            raise ValueError(f"tasks[{pos}]: must be an object")
        ctx = f"tasks[{pos}]"
        ids = {key: _require(entry, key, ctx) for key in ("id", "from", "to")}
        for key, value in ids.items():
            if not isinstance(value, str):
                raise ValueError(f"{ctx}.{key}: must be a string, got {value!r}")
        tasks.append(TaskSpec(
            task_id=ids["id"],
            origin=ids["from"],
            destination=ids["to"],
            earliest_pickup=_number(_require(entry, "earliest_pickup_s", ctx), f"{ctx}.earliest_pickup_s"),
            latest_delivery=_number(_require(entry, "latest_delivery_s", ctx), f"{ctx}.latest_delivery_s"),
        ))

    vehicles = _require(doc, "vehicles", "instance")
    if not is_json_int(vehicles):
        raise ValueError(f"vehicles: must be an integer, got {vehicles!r}")
    depot = _require(doc, "depot", "instance")
    if not isinstance(depot, str):
        raise ValueError(f"depot: must be a location id string, got {depot!r}")
    speed = _number(doc.get("speed", PdpInstance.speed), "speed")
    horizon = _number(_require(doc, "horizon", "instance"), "horizon")
    if not isinstance(doc.get("notes", ""), str):
        raise ValueError("notes: must be a string")

    return PdpInstance(
        layout=layout,
        tasks=tuple(tasks),
        vehicle_count=vehicles,
        depot=depot,
        speed=speed,
        horizon=horizon,
    )
