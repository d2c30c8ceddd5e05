"""Exact route solver: depth-first branch and bound over route construction.

Routes are built node by node, vehicle by vehicle, in lexicographic order
(vehicle index first, then node index).  At every partial route the earliest
feasible service times are propagated per enforced travel-time scenario; a
scenario dies the moment a window is provably missed, and a branch is pruned
once the dead probability mass exceeds the reliability level.  Distance
pruning compares the incumbent with the travelled distance plus a Held-Karp
table over locations: `H[mask][u]` is the shortest walk from location `u`
through every location in `mask` to the depot.  The rest of the current
route followed by every later vehicle's route is one such walk from the
current location over the locations that still host an unvisited task node
(depot-to-depot hops are free, and the table hops over the shortest-path
closure of the location distances), so the table bounds every completion;
windows, precedence and scenarios are dropped, so one table serves every
mode.  Each child is tested against it in the parent's loop, after its
window test and before its state is pushed; a cut child is counted as a
bound prune only, so the nodes explored are the entered nodes plus the
bound prunes.  The table tracks at most `_TABLE_LOCATIONS` locations, the
depot and those hosting the most task nodes; the others count for nothing,
which keeps it admissible.  It depends only on the location distances and
the tracked set, so `_location_table` memoises the last `_TABLE_MEMO`
tables under exactly that key, with the locations in a canonical order
(depot first, then by name) and their distances as the bytes of one float64
matrix: re-planning on one layout builds a table once per tracked set, not
once per solve.

Before the exact pass, `_nearest_next` builds one plan greedily from the
search's own float bounds, vehicle by vehicle, always moving to the nearest
node that passes the search's window, coupling and lookahead tests.  Its
distance `c_h` starts the distance prune at `c_h + _SEED_SLACK`, strictly
above every plan of the seed's cost, while the incumbent stays empty: the
exact pass cuts only subtrees that cannot reach the seed's cost and returns
the plan it returns without the seed.  A pass that times out with no
incumbent of its own returns the seed plan instead.

One engine serves every mode and `_solve` is the one path into it: it reads
a solve's scenario stack once (the nominal matrix or a set's sampled ones),
decides on it the scenarios lost to every plan, searches it (for the fast
path its arc-wise maxima) and reports the plan on it.  Each step times a
child by one hold rule,
`w = max(now + t[cur][j], hold[j])`: `hold[j]` is a pickup's opening, and
loading pickup i at `w_i` holds delivery i+n until `w_i + t[i][i+n]`, the
model's coupling (deliveries open at 0).  The float step, the seed and
`route_times` state it alike.  Each node carries a plain-float upper bound
on its latest scenario time, propagated over the arc-wise maxima of the
scenario matrices; float addition and max are monotone, so it bounds every
scenario's time exactly as the per-scenario recursion rounds it.  With one
scenario the bound is the time itself, so windows and the lookahead are
decided in float arithmetic alone and any miss prunes.  With several, a
node's `alive` vector holds each scenario's probability, 0.0 once the
scenario has missed a window, so a mass test is one dot product with the
mask of scenarios it tests.  A bound that meets a window meets it in every
scenario, so the child shares its parent's `alive` vector and dead mass and
computes its per-scenario times only when something reads them: a later
step whose bound misses a window, the lookahead, or a delivery's coupling
to its pickup.  Only a bound that misses steps the scenario vector at once,
and only a step that loses live mass copies `alive`.  Each node's vector is
computed at most once, and the decisions are those of stepping every
candidate.

A pickup has no deadline of its own, but its delivery's deadline binds from
the moment it is loaded.  The onboard-deadline lookahead prunes a node as
soon as some onboard delivery `i+n` can no longer be reached in time from the
current node: `now > latest[cur][i] = b[i+n] + margin - closure[cur][i+n]`,
where `closure` is the all-pairs shortest-path closure of the search's own
scenario matrices.  The closure, not the direct arc, is what makes this
exact: sampled scenario matrices and the fast path's element-wise supremum
break the triangle inequality, so a detour can beat the direct arc.  Any
completion reaches `i+n` no earlier than `now + closure[cur][i+n]`, and the
margin (1e-6 s, above the window tolerance) keeps float rounding from cutting
a branch the exact window checks would accept.  With several scenarios the
lookahead prunes once the dead mass plus the mass of the still-alive
scenarios so doomed exceeds alpha; it leaves `alive` untouched, and runs the
per-scenario test only where the float bound passes the earliest cut-off.

The closure is built on first use, by one rule.  Every search starts from
the cut-offs of its arc-wise maxima themselves: each scenario's closure lies
at or below its matrix and so at or below the maxima, so these cut-offs lie
at or below every scenario's.  The first time a node's bound or the seed's
passes one of them, one Floyd-Warshall over the stack replaces them with the
exact earliest cut-offs (and builds the per-scenario ones at S > 1, the
split ones below at S = 1), and the test is taken again; a search whose
bounds pass none, as on loose windows, never closes its stack.  One builder,
`_set_cutoffs`, sets every cut-off table from a stack: the maxima as one
matrix at the start, the stack's closure on closing.  det's stack is no
exception: `build_network` gives shortest-path times, but a hand-built
network need not.  Only subtrees without a feasible leaf are cut and the
exploration order is unchanged, so incumbents, the returned plan and its
objective are exactly those of the search without the lookahead.

At S = 1 the completion bound is also split by vehicle, a state-space
relaxation (Christofides, Mingozzi & Toth 1981, Networks 11).  At a node
past the route start, unvisited pickup `i` is late when `now` passes its
split cut-off `latest[i][i] - closure[cur][i]`: the current vehicle reaches
it no earlier than `now + closure[cur][i]`, too late to deliver it in time.
A later vehicle must serve a late task, so on the last vehicle the node is
cut.  Otherwise the rest of this route is a walk from the current location
through its onboard deliveries' locations to the depot, and the later routes
chain into one depot-to-depot walk through the late tasks' locations, so the
node is cut once `travelled + H[onboard][cur] + H[late][depot]` reaches the
cutoff, with the distance prune's tie rule; both count as split prunes.
Column 0 of `latest[cur]`, unused by the lookahead, holds the row's smallest
split cut-off (inf at the route start and at S > 1), so a node pays one
float comparison unless it passes one.  The split cut-offs follow the
closing rule: column 0 starts from those of the searched matrix itself, at
or below the exact ones, and the first node that passes one closes the
stack and tests again, so every search decides as one closed up front.  At
S > 1 a task late in some scenarios may still be served in the others, so
the scenario search does not split.

Identical vehicles make plans invariant under fleet relabeling, so the search
only visits the canonical labeling in which the first pickup index of each
working vehicle increases and idle vehicles trail.  The search and its seed
hold the working routes only; `_solve` appends the idle ones, whose free
depot hop can miss no window.  Children are tried in increasing node order
(pickups, deliveries, then the terminal, the largest index) and vehicles are
filled in order, so complete plans arrive in strictly increasing
lexicographic order.  Only a strict improvement replaces the incumbent, so
the first optimum found is the lexicographically smallest one, and the
distance prune also cuts subtrees that can at best tie it.

For a fixed plan the scenario switches decouple: turning a scenario off never
pays unless the plan misses one of its windows, so the optimal switch set is
exactly the set of scenarios the plan fails, and no explicit branching over
switches is needed.  The fixed plan's service times come from `route_times`,
one earliest-time recursion per route over the whole scenario stack, which
the evaluator shares without the pickup-to-delivery coupling.  Its rows hold
one time per scenario: a plain float for a one-matrix stack (det, sto-fast's
search matrix, one evaluation trial), where a numpy call per position would
cost more than the arithmetic, and a numpy vector otherwise.  Both take the
same float operations in the same order, so a one-matrix result equals its
column of any stack bit for bit.

The solver does not know how its verifier names the model's variables: of
`formulation` it holds only the alias `assignment_from_solution`, which
perfbench's plan check calls from here.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

# perfbench checks its plans through solver.assignment_from_solution.
from .formulation import assignment_from_solution  # noqa: F401
from .instance import PdpNetwork, shortest_path_closure
from .scenarios import ScenarioSet, check_network

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIME_LIMIT_INCUMBENT = "time-limit-with-incumbent"
STATUS_TIME_LIMIT_NO_INCUMBENT = "time-limit-no-incumbent"

_EPS = 1e-9
# Slack of every mass test against alpha.  A mass is a sum of at most S
# probabilities; taken in another order (numpy's pairwise sum, a dot
# product) it moves by a few ulps of itself, about 1e-16, so only a mass
# within that distance of alpha + _MASS_EPS could be decided otherwise.
_MASS_EPS = 1e-12
# Slack of the deadline lookahead, in seconds for times and in probability
# for masses: far above the rounding of a sum taken in another order.
_LOOKAHEAD_MARGIN = 1e-6
# Locations the completion table tracks, the depot included; it has
# 2^(_TABLE_LOCATIONS - 1) rows.
_TABLE_LOCATIONS = 10
# Completion tables `_location_table` keeps; one at the location cap holds
# about 0.2 MB.
_TABLE_MEMO = 32
# Slack of the distance prune in meters: covers the rounding between the
# table's sums and a leaf's sums, far below `_EPS`.
_TIE_SLACK = 1e-10
# The seed's cutoff sits this far above its distance, in meters: the exact
# pass still meets every plan of the seed's cost, the seed's own included.
_SEED_SLACK = 1e-6


@dataclass(frozen=True)
class SolveConfig:
    """alpha: allowed ignored probability mass; time_limit in seconds."""

    alpha: float = 0.0
    time_limit: float = 300.0

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if not (0.0 < self.time_limit < math.inf):
            raise ValueError(f"time_limit must be positive and finite, got {self.time_limit}")


@dataclass(frozen=True)
class RoutePlan:
    """Per-vehicle node sequences over V; every route runs source to terminal.

    `n` and every node are integers (numpy's included, bools not), checked
    before the routes' structure."""

    routes: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        bad = [node for route in self.routes for node in route
               if isinstance(node, bool) or not isinstance(node, (int, np.integer))]
        if bad:
            raise ValueError(f"node {bad[0]!r} is not an integer")
        terminal = 2 * self.n + 1
        seen: set[int] = set()
        for route in self.routes:
            if not route or route[0] != 0 or route[-1] != terminal:
                raise ValueError(f"route {route} must start at 0 and end at {terminal}")
            loaded: set[int] = set()
            for node in route[1:-1]:
                if node in seen:
                    raise ValueError(f"node {node} visited more than once")
                seen.add(node)
                if 1 <= node <= self.n:
                    loaded.add(node)
                elif self.n + 1 <= node <= 2 * self.n:
                    if node - self.n not in loaded:
                        raise ValueError(
                            f"delivery {node} without a prior pickup on the same route")
                    loaded.remove(node - self.n)
                else:
                    raise ValueError(f"node {node} is not a task node")
            if loaded:
                raise ValueError(f"route {route} ends with undelivered pickups {sorted(loaded)}")
        missing = set(range(1, self.n + 1)) - seen
        if missing:
            raise ValueError(f"pickups {sorted(missing)} are not served by any route")

    @property
    def vehicle_count(self) -> int:
        return len(self.routes)

    def arcs(self) -> list[tuple[int, int, int]]:
        """(vehicle, from, to) for every traversed arc."""
        out = []
        for k, route in enumerate(self.routes):
            for i, j in zip(route, route[1:]):
                out.append((k, i, j))
        return out

    def distance(self, travel_dist: np.ndarray) -> float:
        return float(sum(travel_dist[i, j] for _, i, j in self.arcs()))

    def route_strings(self) -> list[str]:
        return ["-".join(str(v) for v in route) for route in self.routes]

    def label_strings(self, network: PdpNetwork) -> list[str]:
        return ["-".join(network.labels[v] for v in route) for route in self.routes]


@dataclass(frozen=True, eq=False)
class Schedule:
    """Earliest-feasible service times.

    `times` has shape [vehicles, nodes] for single-realization solves and
    [vehicles, nodes, scenarios] for scenario solves; `ignored` marks the
    switched-off scenarios (None for single-realization solves).  Times for
    vehicles at nodes they do not visit are completed canonically so the full
    assignment satisfies the corresponding constraint system.  Schedules
    compare and hash by identity: arrays have no single truth value.
    """

    times: np.ndarray
    ignored: np.ndarray | None = None

    def __post_init__(self):
        self.times.setflags(write=False)
        if self.ignored is not None:
            self.ignored.setflags(write=False)


@dataclass(frozen=True)
class SearchStats:
    nodes_explored: int
    bound_prunes: int
    window_prunes: int
    lookahead_prunes: int = 0
    # The completion table's bound on the whole plan; 0 if the search never
    # started.
    root_bound_m: float = 0.0
    # The nearest-next seed's distance, the search's starting cutoff; None
    # if no seed was found.
    seed_m: float | None = None
    # Nodes cut because a task the current vehicle can no longer serve
    # leaves it to a later vehicle (S = 1 only).
    split_prunes: int = 0


@dataclass(frozen=True)
class Solution:
    status: str
    plan: RoutePlan | None
    schedule: Schedule | None
    objective: float | None
    stats: SearchStats
    alpha: float
    infeasible_task: str | None = None
    limiting_scenarios: tuple[int, ...] = ()


class _TimeUp(Exception):
    pass


class _Search:
    """Depth-first branch and bound over a [S, nv, nv] stack of scenario
    time matrices.

    Branch state (closed routes, whose count is the vehicle index, current
    route, onboard pickups in index order, the holds of the module's hold
    rule and unvisited task nodes per location) lives on the instance and
    is mutated and undone around each recursive call instead of being
    copied per node; a hold needs no undoing, as a delivery's is read only
    while its pickup is onboard.  A node carries `cur`, `now` (the float
    upper bound on its latest scenario time, exact at S = 1), `scen`,
    `travelled`, `mask` (the tracked locations still hosting an unvisited
    task node) and `todo` (bit j set while pickup j is unvisited; a pickup
    child clears its bit).  `scen` is None at S = 1, else
    `[times, alive, mass, parent, cur, j]`: per-scenario times, the
    probability vector of the alive scenarios (0.0 for a dead one), the
    dead mass, and the parent's `scen` and arc (cur, j), with `times` None
    until `_times` steps it from the parent's along that arc; the root's
    `alive` and mass, from `_solve`, count every lost scenario dead.
    `pick_scen[i]` is onboard pickup i's `scen`, whose times plus the arc
    (i, i+n) its delivery's coupling reads.  The arc-major copy `t_fs` of
    the stack is built on the first per-scenario step, so a search that
    never steps, as on loose windows, never copies its stack.
    """

    def __init__(self, network: PdpNetwork, times: np.ndarray, alive: np.ndarray,
                 lost_mass: float, config: SolveConfig):
        self.network = network
        self.n = network.n
        self.terminal = network.terminal
        self.fleet = network.vehicle_count
        self.times = times
        self.alpha = config.alpha
        self.vector = times.shape[0] > 1
        self.root = [np.zeros(len(alive)), alive, lost_mass, None, 0, 0] if self.vector else None

        self.table, self.loc, self.bit = _walk_table(network)
        # left[u]: the unvisited task nodes at location u.
        hosted = self.loc[1:self.terminal]
        self.left = [hosted.count(u) for u in range(len(self.table[0]))]
        # Plain-float copies: list indexing is far cheaper than numpy scalar
        # access on the per-node paths.  Closing times carry the window
        # tolerance, so a window test compares against them directly.
        self.d = network.travel_dist.tolist()
        self.b_l = (network.close_time + _EPS).tolist()

        t_max = times.max(axis=0, keepdims=True) if self.vector else times
        self.t_max = t_max[0].tolist()
        # Deliveries and depots open at 0, so a pickup's opening is its only
        # starting hold; `own[i]` is task i's own arc (i, i+n) in the maxima.
        self.hold = network.open_time.tolist()
        self.own = [0.0] + [self.t_max[i][i + self.n] for i in range(1, self.n + 1)]
        # The float side of the lookahead: a node whose `now` passes no
        # earliest cut-off is safe in every scenario.  They start from the
        # maxima themselves, at or below the exact ones, until `_close_stack`.
        self.latest_fs: np.ndarray | None = None
        self.split: list | None = None
        self.closed = False
        self._set_cutoffs(t_max)

        self.route: list[int] = [0]
        self.routes: list[tuple[int, ...]] = []
        self.onboard: list[int] = []
        self.pick_scen: list[list | None] = [None] * (self.n + 1)

        self.best_obj = math.inf
        # The distance prune cuts at or above `cutoff`; `run` starts it above
        # the seed's distance, and then it moves only with the incumbent.
        self.cutoff = math.inf
        self.best_plan: tuple[tuple[int, ...], ...] | None = None
        self.calls = 0
        self.bound_prunes = 0
        self.window_prunes = 0
        self.lookahead_prunes = 0
        self.split_prunes = 0
        self.root_bound = 0.0
        self.seed_m: float | None = None
        self.deadline = time.monotonic() + config.time_limit
        self.timed_out = False

    @functools.cached_property
    def t_fs(self) -> np.ndarray:
        """`t_fs[i, j]`, the contiguous per-scenario time vector of arc
        (i, j); built on first read and kept on the instance."""
        return np.ascontiguousarray(self.times.transpose(1, 2, 0))

    def _set_cutoffs(self, closure: np.ndarray) -> None:
        """Set every cut-off table from the [S', nv, nv] stack `closure`:
        the arc-wise maxima as one matrix, or the closed stack.

        `latest[s, cur, i]` is the last time at `cur` from which delivery
        i+n is still reachable by its deadline over matrix s, and
        `latest_min[cur][i]` its minimum over s.  Once the stack is closed,
        `latest_fs[cur, i, s]` keeps it per scenario at S > 1, and
        `split[cur][i - 1] = latest[i, i] - closure[cur, i]` holds pickup
        i's split cut-off at S = 1: the last time at `cur` from which the
        current vehicle still reaches pickup i in time to deliver it.
        Column 0 of `latest_min` holds each row's smallest split cut-off,
        inf at the route start and at S > 1.

        A pickup opening past `latest[i, i]` would also be late, but then
        its own arc already misses the delivery's deadline and `_solve`
        does not run the search."""
        n = self.n
        deliveries = slice(n + 1, self.terminal)
        latest = np.full(closure.shape[:-1] + (n + 1,), math.inf)
        latest[..., 1:] = (self.network.close_time[deliveries] + _LOOKAHEAD_MARGIN
                           - closure[..., deliveries])
        if len(latest) > 1:
            self.latest_fs = np.ascontiguousarray(latest.transpose(1, 2, 0))
            latest = latest.min(axis=0)
        else:
            latest = latest[0]
        if not self.vector:
            pickups = slice(1, n + 1)
            split = latest[pickups, pickups].diagonal() - closure[0][:, pickups]
            latest[:, 0] = split.min(axis=1)
            latest[0, 0] = math.inf
            if self.closed:
                self.split = split.tolist()
        self.latest_min = latest.tolist()

    def _close_stack(self) -> bool:
        """Replace the starting cut-offs with the exact ones, one
        Floyd-Warshall over the stack, unless they are exact already.
        Returns whether this call closed the stack."""
        if self.closed:
            return False
        self.closed = True
        self._set_cutoffs(shortest_path_closure(self.times))
        return True

    def _meets_cutoffs(self, j: int, w: float, onboard: list[int]) -> bool:
        """Whether the bound `w` at `j` meets the exact earliest cut-off of
        every onboard delivery and, for a pickup, of its own."""
        late = self.latest_min[j]
        if not (j <= self.n and w > late[j]):
            for i in onboard:
                if w > late[i]:
                    break
            else:
                return True
        return self._close_stack() and self._meets_cutoffs(j, w, onboard)

    def _splits(self, cur: int, now: float, travelled: float, todo: int) -> bool:
        """Whether some unvisited task is late for the current vehicle and
        the split bound cuts the node: always on the last vehicle, else once
        `travelled`, this route's walk through its onboard deliveries and
        the later vehicles' walk through the late tasks reach the cutoff.
        Closes the stack first."""
        self._close_stack()
        bit, n = self.bit, self.n
        late, ahead = False, 0
        for i, cut in enumerate(self.split[cur], 1):
            if now > cut and todo >> i & 1:
                late = True
                ahead |= bit[i] | bit[i + n]
        if not late:
            return False
        if len(self.routes) == self.fleet - 1:
            return True
        here = 0
        for i in self.onboard:
            here |= bit[i + n]
        table, loc = self.table, self.loc
        return travelled + table[here][loc[cur]] + table[ahead][loc[0]] >= self.cutoff

    def stats(self) -> SearchStats:
        return SearchStats(nodes_explored=self.calls + self.bound_prunes,
                           bound_prunes=self.bound_prunes,
                           window_prunes=self.window_prunes,
                           lookahead_prunes=self.lookahead_prunes,
                           root_bound_m=self.root_bound, seed_m=self.seed_m,
                           split_prunes=self.split_prunes)

    def run(self) -> None:
        # Every tracked location hosts a task node, so the root's mask, the
        # table's last row, holds them all.
        self.root_bound = self.table[-1][self.loc[0]]
        seed = self._nearest_next()
        if seed is not None and seed[0] + _SEED_SLACK > seed[0]:
            self.seed_m = seed[0]
            self.cutoff = seed[0] + _SEED_SLACK
        # With no incumbent yet, the root passes its distance bound.
        try:
            self._extend(0, 0.0, self.root, 0.0, len(self.table) - 1, (1 << (self.n + 1)) - 2)
        except _TimeUp:
            self.timed_out = True
        # Without a time-out the exact pass meets the seed's own plan below
        # the cutoff, unless rounding of sums of its size puts it above;
        # either way the seed is the best plan known.
        if self.best_plan is None and self.seed_m is not None:
            self.best_obj, self.best_plan = seed

    def _nearest_next(self) -> tuple[float, tuple[tuple[int, ...], ...]] | None:
        """A plan built greedily by the search's own float bounds, with its
        distance, or None.

        Vehicle by vehicle, each route moves to the nearest node (ties to
        the lower index) among the unvisited pickups and onboard deliveries
        whose bound time passes the tests of `_extend`: the node's window,
        a delivery's coupling to its pickup and the onboard-deadline
        lookahead; a route closes at the terminal, within its window, once
        no node fits.  A bound time that passes every test meets every
        scenario's window, so the plan ignores no mass and is a leaf of the
        exact pass in every mode.  No plan if a route cannot close, a route
        start fits no pickup (every later vehicle starts alike) or the fleet
        runs out with pickups left.
        """
        n, terminal = self.n, self.terminal
        t, b, d, own = self.t_max, self.b_l, self.d, self.own
        todo = list(range(1, n + 1))
        hold = self.hold.copy()
        routes: list[tuple[int, ...]] = []
        travelled = 0.0
        while todo:
            if len(routes) == self.fleet:
                return None
            route, onboard, cur, now = [0], [], 0, 0.0
            while True:
                # Candidates in index order, so a tie keeps the lower index.
                best, best_w, best_d = 0, 0.0, math.inf
                d_cur, t_cur = d[cur], t[cur]
                for j in todo + [i + n for i in onboard]:
                    if d_cur[j] >= best_d:
                        continue
                    w = now + t_cur[j]
                    if w < hold[j]:
                        w = hold[j]
                    if w > b[j]:
                        continue
                    # A delivery meets its own pickup's cut-off with its
                    # window; a pickup adds its own.
                    if self._meets_cutoffs(j, w, onboard):
                        best, best_w, best_d = j, w, d_cur[j]
                if not best:
                    break
                travelled += best_d
                route.append(best)
                cur, now = best, best_w
                if best <= n:
                    todo.remove(best)
                    bisect.insort(onboard, best)
                    hold[best + n] = best_w + own[best]
                else:
                    onboard.remove(best - n)
            if onboard or cur == 0 or now + t[cur][terminal] > b[terminal]:
                return None
            travelled += d[cur][terminal]
            routes.append(tuple(route) + (terminal,))
        # The search's canonical labeling: first pickups increase.
        return travelled, tuple(sorted(routes))

    def _times(self, scen: list) -> np.ndarray:
        """The node's per-scenario times, stepped from its parent's on first
        use."""
        if scen[0] is None:
            parent, cur, j = scen[3:6]
            scen[0] = self._arrive(self._times(parent), cur, j)
        return scen[0]

    def _arrive(self, cur_times: np.ndarray, cur: int, j: int) -> np.ndarray:
        """Per-scenario service times at `j` after `cur`, opening or coupling included."""
        arr = cur_times + self.t_fs[cur, j]
        if j <= self.n:
            return np.maximum(arr, self.hold[j], out=arr)
        if j < self.terminal:
            # The pickup is an ancestor on the current route, so its entry
            # stays in place for as long as this subtree is searched.
            i = j - self.n
            np.maximum(arr, self._times(self.pick_scen[i]) + self.t_fs[i, j], out=arr)
        return arr

    def _vector_step(self, scen: list, cur: int, j: int) -> list | None:
        """The per-scenario state at `j` after `cur`, or None once the mass
        of scenarios that miss a window exceeds alpha."""
        alive = scen[1]
        new_times = self._arrive(self._times(scen), cur, j)
        violated = new_times > self.b_l[j]
        lost = alive.dot(violated)
        new_mass = scen[2] + lost
        if new_mass > self.alpha + _MASS_EPS:
            return None
        if lost:
            alive = np.where(violated, 0.0, alive)
        return [new_times, alive, new_mass, None, cur, j]

    def _doomed(self, scen: list, cur: int, now: float) -> bool:
        """Whether the node can no longer reach some onboard deadline in
        scenarios that push the dead mass above alpha.  Closes the stack
        first."""
        self._close_stack()
        cur_times, latest_min = self._times(scen), self.latest_min[cur]
        doomed = None
        for i in self.onboard:
            if now > latest_min[i]:
                late = cur_times > self.latest_fs[cur, i]
                if doomed is None:
                    doomed = late
                else:
                    doomed |= late
        return (doomed is not None
                and scen[2] + scen[1].dot(doomed) > self.alpha + _MASS_EPS + _LOOKAHEAD_MARGIN)

    def _extend(self, cur: int, now: float, scen: list | None, travelled: float,
                mask: int, todo: int) -> None:
        # The caller has passed this node's distance bound.  The first node
        # reads the clock too: a limit spent in set-up stops even a search too
        # small to reach the next reading.
        self.calls += 1
        if self.calls % 4096 == 1 and time.monotonic() > self.deadline:
            raise _TimeUp
        route, onboard = self.route, self.onboard
        loc, bit, left, table, d_cur = self.loc, self.bit, self.left, self.table, self.d[cur]
        latest = self.latest_min[cur]
        for i in onboard:
            if now > latest[i]:
                if ((self.closed or not self._meets_cutoffs(cur, now, onboard))
                        if scen is None else self._doomed(scen, cur, now)):
                    self.lookahead_prunes += 1
                    return
                break
        # Column 0 is inf at the route start and at S > 1.
        if now > latest[0] and self._splits(cur, now, travelled, todo):
            self.split_prunes += 1
            return
        n, vector, b, hold, own = self.n, self.vector, self.b_l, self.hold, self.own
        t_cur = self.t_max[cur]
        # Canonical labeling: a route start takes only pickups above the
        # previous route's first one.
        floor = self.routes[-1][1] if cur == 0 and self.routes else 0
        new_scen = None

        # A bound `w` that meets j's window meets it in every scenario: the
        # child keeps the alive mask and the dead mass and records where its
        # times come from.  Only a bound that misses steps the scenarios; at
        # S = 1 `new_scen` stays None, so any miss prunes.
        for j in range(floor + 1, n + 1):
            if not todo >> j & 1:
                continue
            w = now + t_cur[j]
            if w < hold[j]:
                w = hold[j]
            if w > b[j]:
                if vector:
                    new_scen = self._vector_step(scen, cur, j)
                if new_scen is None:
                    self.window_prunes += 1
                    continue
            elif vector:
                new_scen = [None, scen[1], scen[2], scen, cur, j]
            # Cut once no completion can beat the incumbent strictly: only a
            # strict improvement replaces it, so a tie would be dropped anyway.
            u, child_mask = loc[j], mask
            if left[u] == 1:
                child_mask ^= bit[j]
            child_travelled = travelled + d_cur[j]
            if child_travelled + table[child_mask][u] >= self.cutoff:
                self.bound_prunes += 1
                continue
            self.pick_scen[j] = new_scen
            idx = bisect.bisect(onboard, j)
            route.append(j)
            onboard.insert(idx, j)
            hold[j + n] = w + own[j]
            left[u] -= 1
            self._extend(j, w, new_scen, child_travelled, child_mask, todo ^ 1 << j)
            left[u] += 1
            del onboard[idx]
            route.pop()
        # Each child restores `onboard` before the next index is read.
        for idx, i in enumerate(onboard):
            j = i + n
            w = now + t_cur[j]
            if w < hold[j]:
                w = hold[j]
            if w > b[j]:
                if vector:
                    new_scen = self._vector_step(scen, cur, j)
                if new_scen is None:
                    self.window_prunes += 1
                    continue
            elif vector:
                new_scen = [None, scen[1], scen[2], scen, cur, j]
            u, child_mask = loc[j], mask
            if left[u] == 1:
                child_mask ^= bit[j]
            child_travelled = travelled + d_cur[j]
            if child_travelled + table[child_mask][u] >= self.cutoff:
                self.bound_prunes += 1
                continue
            route.append(j)
            del onboard[idx]
            left[u] -= 1
            self._extend(j, w, new_scen, child_travelled, child_mask, todo)
            left[u] += 1
            onboard.insert(idx, i)
            route.pop()

        # Close the route at the terminal: allowed with nothing onboard, and
        # only if the remaining vehicles can still cover the remaining pickups
        # (an idle close forces all later vehicles idle by canonical labeling).
        if onboard:
            return
        if todo and (len(self.routes) == self.fleet - 1 or cur == 0):
            return
        w = now + t_cur[self.terminal]
        new_scen = scen
        if w > b[self.terminal]:
            if vector:
                new_scen = self._vector_step(scen, cur, self.terminal)
            if new_scen is None:
                self.window_prunes += 1
                return
        travelled_total = travelled + d_cur[self.terminal]
        closed = tuple(route) + (self.terminal,)
        if not todo:
            # Plans arrive in lexicographic order: keep strict improvements only.
            if travelled_total < self.best_obj - _EPS:
                self.best_obj = travelled_total
                self.cutoff = travelled_total - _EPS + _TIE_SLACK
                self.best_plan = tuple(self.routes) + (closed,)
            return
        # The next vehicle starts at the depot, whose location has no mask bit.
        if travelled_total + table[mask][loc[0]] >= self.cutoff:
            self.bound_prunes += 1
            return
        if vector:
            alive, dead_mass = new_scen[1], new_scen[2]
            new_scen = [np.zeros(len(alive)), alive, dead_mass, None, 0, 0]
        # Closing from the start node with pickups left was rejected above, so
        # the closed route is non-idle and `closed[1]` is its first pickup.
        self.routes.append(closed)
        saved_route, self.route = self.route, [0]
        self._extend(0, 0.0, new_scen, travelled_total, mask, todo)
        self.route = saved_route
        self.routes.pop()


def _walk_table(network: PdpNetwork) -> tuple[tuple[tuple[float, ...], ...], list[int], list[int]]:
    """The Held-Karp table of shortest covering walks over locations.

    Returns `(table, loc, bit)`: `loc[v]` indexes node v's location among the
    distinct `network.locations` in canonical order (the depot first, then
    the others by name), `bit[v]` is the mask bit of that location (0 for
    the depot and untracked locations), and `table[mask][u]` is the shortest
    walk from location `u` through every location in `mask` to the depot.
    The tracked locations are those hosting the most task nodes, ties broken
    by first appearance; the table itself comes from `_location_table`.
    """
    depot = network.locations[0]
    names = [depot] + sorted(set(network.locations) - {depot})
    index = {name: u for u, name in enumerate(names)}
    loc = [index[name] for name in network.locations]
    hosted = [u for u in loc[1:network.terminal] if u]
    busiest = sorted(dict.fromkeys(hosted), key=hosted.count, reverse=True)
    tracked = sorted(busiest[:_TABLE_LOCATIONS - 1])
    loc_bit = [0] * len(names)
    for b, u in enumerate(tracked):
        loc_bit[u] = 1 << b
    node_at = [network.locations.index(name) for name in names]
    dist = network.travel_dist[node_at][:, node_at].tobytes()
    return _location_table(dist, tuple(tracked)), loc, [loc_bit[u] for u in loc]


@functools.lru_cache(maxsize=_TABLE_MEMO)
def _location_table(dist: bytes, tracked: tuple[int, ...]) -> tuple[tuple[float, ...], ...]:
    """`table[mask][u]` over the location distances `dist`, the bytes of a
    square float64 matrix, where bit b of `mask` stands for location
    `tracked[b]`.

    Each entry is a min over the same float sums whatever the numbering of
    the locations, so the canonical order changes no value.
    """
    count = math.isqrt(len(dist) // 8)
    # Over the closure, every walk's hops bound it even where the distances
    # break the triangle inequality.
    d = shortest_path_closure(np.frombuffer(dist).reshape(count, count)).tolist()
    table = [tuple(row[0] for row in d)]
    for mask in range(1, 1 << len(tracked)):
        steps = [(u, table[mask ^ (1 << b)]) for b, u in enumerate(tracked) if mask >> b & 1]
        table.append(tuple(min(row[u] + rest[u] for u, rest in steps) for row in d))
    return tuple(table)


def route_times(route: tuple[int, ...], times: np.ndarray, open_time: np.ndarray,
                close_time: np.ndarray, coupling: bool) -> tuple[np.ndarray, np.ndarray]:
    """Earliest service times along one route under a [S, nv, nv] stack of
    travel-time matrices, one scenario per column.

    The route leaves its first node at max(0, opening); each later node is
    served at max(previous time + arc time, held time), the search's hold
    rule.  A node's held time is its opening, and with `coupling` a pickup
    served at `w` holds its delivery until `w` plus the direct arc, as in
    the model (`w[n+i] >= w[i] + t[i][n+i]`); without it the recursion is
    the physical dispatch policy.  Returns `w[pos, s]` and `late[pos, s]`, whether
    position `pos` misses its closing time in scenario `s`.

    Each position's row holds one time per scenario.  With one matrix the
    row is a plain float: Python's float addition and `max` round exactly as
    numpy's do on one-element rows, without a numpy call per position.
    """
    n = (times.shape[-1] - 2) // 2
    nodes = list(route)
    held = open_time.tolist()
    if times.shape[0] == 1:
        t, hold, w = times[0].tolist(), max, [0.0] * len(nodes)
    else:
        t, hold, w = times.transpose(1, 2, 0), np.maximum, np.empty((len(nodes), times.shape[0]))
    w[0] = max(0.0, held[nodes[0]])
    for pos in range(1, len(nodes)):
        prev, node = nodes[pos - 1], nodes[pos]
        w[pos] = hold(w[pos - 1] + t[prev][node], held[node])
        if coupling and 1 <= node <= n:
            held[node + n] = w[pos] + t[node][node + n]
    w = np.asarray(w).reshape(len(nodes), -1)
    late = w > close_time[nodes, np.newaxis] + _EPS
    return w, late


def _opening_holds(network: PdpNetwork, scen_times: np.ndarray) -> np.ndarray:
    """`[S, n]`: each delivery's earliest hold per scenario, its pickup's
    opening plus the task's own arc (Eq19)."""
    pickups, deliveries = slice(1, network.n + 1), slice(network.n + 1, network.terminal)
    # The diagonal of the pickup-to-delivery block holds each task's own arc.
    own_arc = scen_times[:, pickups, deliveries].diagonal(axis1=1, axis2=2)
    return network.open_time[pickups] + own_arc


def _full_schedule(network: PdpNetwork, plan: RoutePlan,
                   scen_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complete service times [K, nv, S] for a plan plus per-scenario
    feasibility.

    Visited nodes take their earliest-feasible route times under the model's
    recursion (pickup-to-delivery coupling included).  A vehicle's time at a
    node it does not visit is completed canonically: window opening for
    pickups and depots, and for deliveries `_opening_holds`, the hold after
    the (unvisited, so window-opening) pickup, which satisfies the
    pickup-before-delivery constraint whenever the serving vehicle can.
    Scenarios the plan fails are reported infeasible and their times pinned
    to the window openings.
    """
    a, b = network.open_time, network.close_time
    w = np.empty((plan.vehicle_count, network.size, scen_times.shape[0]))
    w[:] = a[np.newaxis, :, np.newaxis]
    w[:, network.n + 1:network.terminal] = _opening_holds(network, scen_times).T
    feasible = np.ones(scen_times.shape[0], dtype=bool)
    for k, route in enumerate(plan.routes):
        # An idle route keeps the window openings: the depot hop is free.
        if len(route) == 2:
            continue
        route_w, late = route_times(route, scen_times, a, b, coupling=True)
        w[k, list(route)] = route_w
        if late.any():
            feasible &= ~late.any(axis=0)
    if not feasible.all():
        w[:, :, ~feasible] = a[np.newaxis, :, np.newaxis]
    return w, feasible


def _solo_infeasible_task(network: PdpNetwork) -> str | None:
    """A task whose window cannot be met even by a dedicated vehicle under
    nominal times, if any."""
    nominal = network.travel_time[np.newaxis]
    for i in network.pickups:
        route = (0, i, network.delivery_of(i), network.terminal)
        _, late = route_times(route, nominal, network.open_time, network.close_time,
                              coupling=True)
        if late.any():
            return network.task_ids[i - 1]
    return None


def _solve(network: PdpNetwork, scenarios: ScenarioSet | None, config: SolveConfig,
           fast: bool = False) -> Solution:
    """Solve on `scenarios`, or on the nominal times as a single realization
    (a 2-D schedule and no scenario data) when None.  A set drawn for
    another network raises `ValueError` before any search.  The set's
    travel times are read once, and on them the scenarios lost to every plan
    are decided once: the search runs, on the stack or with `fast` on its
    arc-wise maxima, only while their mass is within alpha, and the
    schedule, ignored set and limiting scenarios are reported on the stack."""
    if scenarios is None:
        times, probs = network.travel_time[np.newaxis], np.ones(1)
    else:
        check_network(scenarios, network)
        times, probs = scenarios.travel_times, scenarios.probabilities
    deadlines = network.close_time[network.n + 1:network.terminal] + _EPS
    lost = (_opening_holds(network, times) > deadlines).any(axis=1)
    lost_mass = 0.0
    if lost.any():
        # The maxima take the stack's largest own arcs, so they lose their
        # one scenario exactly when the stack loses one.
        lost_mass = 1.0 if fast else float(probs[lost].sum())
    if fast:
        search = _Search(network, times.max(axis=0, keepdims=True), np.ones(1), 0.0, config)
    else:
        alive = np.where(lost, 0.0, probs) if lost_mass else probs
        search = _Search(network, times, alive, lost_mass, config)
    searched = lost_mass <= config.alpha + _MASS_EPS
    if searched:
        search.run()
    stats = search.stats()

    if search.best_plan is None:
        if search.timed_out:
            return Solution(status=STATUS_TIME_LIMIT_NO_INCUMBENT, plan=None,
                            schedule=None, objective=None, stats=stats, alpha=config.alpha)
        limiting = () if scenarios is None or searched else tuple(np.flatnonzero(lost).tolist())
        return Solution(status=STATUS_INFEASIBLE, plan=None, schedule=None,
                        objective=None, stats=stats, alpha=config.alpha,
                        infeasible_task=_solo_infeasible_task(network),
                        limiting_scenarios=limiting)

    # The remaining vehicles take the free depot hop, which `PdpNetwork`
    # guarantees is never late.
    idle = ((0, network.terminal),) * (network.vehicle_count - len(search.best_plan))
    plan = RoutePlan(routes=search.best_plan + idle, n=network.n)
    w, feasible = _full_schedule(network, plan, times)
    assert feasible.all() or float(probs[~feasible].sum()) <= config.alpha + _MASS_EPS
    if scenarios is None:
        schedule = Schedule(times=w[:, :, 0].copy())
    else:
        schedule = Schedule(times=w, ignored=~feasible)
    status = STATUS_TIME_LIMIT_INCUMBENT if search.timed_out else STATUS_OPTIMAL
    return Solution(status=status, plan=plan, schedule=schedule,
                    objective=search.best_obj, stats=stats, alpha=config.alpha)


def solve_deterministic(network: PdpNetwork, config: SolveConfig | None = None) -> Solution:
    """Globally minimal total travel distance under nominal times."""
    config = config or SolveConfig()
    if config.alpha != 0.0:
        raise ValueError("the deterministic solve requires alpha = 0")
    return _solve(network, None, config)


def solve_stochastic(network: PdpNetwork, scenarios: ScenarioSet,
                     config: SolveConfig | None = None) -> Solution:
    """Minimal-distance plan whose schedule meets every window on all
    scenarios except an ignored set of probability mass at most alpha."""
    return _solve(network, scenarios, config or SolveConfig())


def solve_alpha_zero_fast(network: PdpNetwork, scenarios: ScenarioSet,
                          config: SolveConfig | None = None) -> Solution:
    """Robust solve via the single element-wise worst-case realization.

    Every schedule constraint is monotone in the travel times, so a plan
    feasible under the supremum times is feasible under each sampled scenario
    individually; any plan returned here is therefore a valid zero-ignored
    solution.  The converse direction needs one schedule to absorb the worst
    case of every arc at once, whereas `solve_stochastic` may re-time each
    scenario separately, so on instances whose windows bind across multi-arc
    accumulations this path can miss plans that per-scenario re-timing saves
    (it returns a higher objective or infeasible there).  The two agree
    whenever the per-scenario optimum is itself supremum-feasible, in
    particular when binding windows sit on single legs or carry slack at
    worst-case scale.
    """
    config = config or SolveConfig()
    if config.alpha != 0.0:
        raise ValueError("the fast path requires alpha = 0")
    return _solve(network, scenarios, config, fast=True)
