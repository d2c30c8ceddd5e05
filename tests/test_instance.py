import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tugplan
from tugplan import (STATUS_INFEASIBLE, STATUS_OPTIMAL, LayoutGraph, PdpInstance,
                     build_network, load_instance, shortest_travel_matrix,
                     solve_deterministic)
from tugplan.instance import _CLOSURE_MEMO, _layout_closure, shortest_path_closure

from conftest import (INSTANCES, gen, instance_dict, overflowing_sum_dict,
                      overflowing_time_dict, single_task_dict)
from instgen import random_network


def ring_layout():
    return LayoutGraph(
        node_ids=("DEP", "A", "B", "C"),
        labels=("DEP", "A", "B", "C"),
        edges=(("DEP", "A", 15.0), ("A", "B", 15.0), ("B", "C", 15.0), ("C", "DEP", 15.0)),
    )


def brute_force_shortest(layout, src, dst):
    """Path-enumeration reference: minimum length over all simple paths."""
    adj = {}
    for u, v, length in layout.edges:
        adj.setdefault(u, []).append((v, length))
        adj.setdefault(v, []).append((u, length))
    best = [float("inf")]

    def walk(node, seen, acc):
        if node == dst:
            best[0] = min(best[0], acc)
            return
        for nxt, length in adj.get(node, []):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, acc + length)

    walk(src, {src}, 0.0)
    return best[0]


class TestLoadInstance:
    def test_minimal_document(self):
        inst = load_instance(json.dumps(single_task_dict()))
        assert inst.n == 1
        assert inst.vehicle_count == 1
        assert inst.speed == 1.5

    def test_unknown_location_named(self):
        doc = single_task_dict()
        doc["tasks"][0]["to"] = "Z"
        with pytest.raises(ValueError, match="'Z'"):
            load_instance(json.dumps(doc))

    def test_negative_edge_length_named(self):
        doc = single_task_dict()
        doc["layout"]["edges"][0] = ["DEP", "A", -5.0]
        with pytest.raises(ValueError, match="'DEP'.*'A'.*-5"):
            load_instance(json.dumps(doc))

    @pytest.mark.parametrize("value", [1, 1.0, None, True, ["1"]])
    @pytest.mark.parametrize("field", ["from", "to"])
    def test_non_string_task_location_rejected(self, field, value):
        # A number must not be read as the location whose id spells it.
        doc = json.loads(json.dumps(single_task_dict()).replace('"A"', '"1"'))
        doc["tasks"][0]["from"] = doc["tasks"][0]["to"] = "1"
        doc["tasks"][0]["to" if field == "from" else "from"] = "B"
        doc["tasks"][0][field] = value
        with pytest.raises(ValueError, match=f"tasks\\[0\\].{field}: must be a string"):
            load_instance(json.dumps(doc))
        doc["tasks"][0][field] = "1"
        assert load_instance(json.dumps(doc)).n == 1

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ValueError):
            load_instance("{not json")

    def test_missing_key_is_parse_error(self):
        doc = single_task_dict()
        del doc["depot"]
        with pytest.raises(ValueError, match="depot"):
            load_instance(json.dumps(doc))

    def test_window_order_enforced(self):
        doc = single_task_dict(earliest=50.0, latest=20.0)
        with pytest.raises(ValueError, match="latest_delivery"):
            load_instance(json.dumps(doc))

    def test_disconnected_layout_rejected(self):
        doc = single_task_dict()
        doc["layout"]["nodes"].append("X")
        with pytest.raises(ValueError, match="connected"):
            load_instance(json.dumps(doc))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10 ** 400])
    @pytest.mark.parametrize("field", ["horizon", "speed", "latest_delivery_s", "length_m"])
    def test_non_finite_numbers_rejected(self, field, value):
        # JSON admits Infinity and NaN, and a huge integer overflows float.
        doc = single_task_dict()
        if field == "latest_delivery_s":
            doc["tasks"][0][field] = value
        elif field == "length_m":
            doc["layout"]["edges"][0][2] = value
        else:
            doc[field] = value
        with pytest.raises(ValueError, match="finite"):
            load_instance(json.dumps(doc))

    def test_horizon_below_deadline_rejected(self):
        doc = single_task_dict(latest=300.0, horizon=200.0)
        with pytest.raises(ValueError, match="horizon"):
            load_instance(json.dumps(doc))


class TestShortestTravelMatrix:
    def test_single_edge_time(self):
        times = shortest_travel_matrix(ring_layout(), ["DEP", "A"], 1.5)
        assert times[0, 1] == pytest.approx(10.0)

    def test_two_hop_time_matches_path_enumeration(self):
        layout = ring_layout()
        expected = brute_force_shortest(layout, "DEP", "B") / 1.5
        times = shortest_travel_matrix(layout, ["DEP", "B"], 1.5)
        assert expected == pytest.approx(20.0)
        assert times[0, 1] == pytest.approx(expected)

    def test_self_time_zero(self):
        times = shortest_travel_matrix(ring_layout(), ["B", "B"], 1.5)
        assert times[0, 1] == 0.0
        assert times[0, 0] == 0.0

    def test_symmetry(self):
        locs = ["DEP", "A", "B", "C"]
        times = shortest_travel_matrix(ring_layout(), locs, 1.5)
        assert np.array_equal(times, times.T)
        assert (times.diagonal() == 0.0).all()

    def test_parallel_edges_take_the_shortest(self):
        layout = LayoutGraph(node_ids=("P", "Q"), labels=("P", "Q"),
                             edges=(("P", "Q", 30.0), ("Q", "P", 12.0), ("P", "Q", 18.0)))
        times = shortest_travel_matrix(layout, ["P", "Q"], 1.5)
        assert times[0, 1] == times[1, 0] == 8.0

    def test_unreachable_pair_named(self):
        # Bypass construction-time validation to reach the matrix-level guard.
        layout = object.__new__(LayoutGraph)
        object.__setattr__(layout, "node_ids", ("P", "Q"))
        object.__setattr__(layout, "labels", ("P", "Q"))
        object.__setattr__(layout, "edges", ())
        with pytest.raises(ValueError, match="'P'.*'Q'"):
            shortest_travel_matrix(layout, ["P", "Q"], 1.0)


def _parsed(edit):
    """A case that loads the single-task document after `edit` changes it."""
    def build():
        doc = single_task_dict()
        edit(doc)
        return load_instance(json.dumps(doc))
    return build


def _built(case):
    """A case that builds the network of `overflowing_time_dict(case)`, or
    of `overflowing_sum_dict` for the cases "plan" and "window"."""
    make = overflowing_sum_dict if case in ("plan", "window") else overflowing_time_dict
    return lambda: build_network(load_instance(json.dumps(make(case))))


def _task(doc):
    return doc["tasks"][0]


# (case, build, error, message start naming the field).  The last six reach
# checks that the parser's own checks shadow, so only direct construction
# meets them.
REJECTIONS = [
    ("duplicate-node", _parsed(lambda doc: doc["layout"]["nodes"].append("A")),
     ValueError, r"layout\.nodes: duplicate node ids \['A'\]"),
    ("duplicate-task", _parsed(lambda doc: doc["tasks"].append(dict(_task(doc)))),
     ValueError, "tasks: duplicate task id 'T1'"),
    ("edge-from-unknown", _parsed(lambda doc: doc["layout"]["edges"].append(["Z", "A", 5.0])),
     ValueError, r"layout\.edges: unknown node 'Z'"),
    ("edge-to-unknown", _parsed(lambda doc: doc["layout"]["edges"].append(["A", "Z", 5.0])),
     ValueError, r"layout\.edges: unknown node 'Z'"),
    ("task-from-unknown", _parsed(lambda doc: _task(doc).update({"from": "Z"})),
     ValueError, "task 'T1': unknown location 'Z'"),
    ("depot-unknown", _parsed(lambda doc: doc.update(depot="Z")),
     ValueError, "depot: unknown location 'Z'"),
    ("zero-vehicles", _parsed(lambda doc: doc.update(vehicles=0)),
     ValueError, "vehicles: must be >= 1"),
    ("zero-speed", _parsed(lambda doc: doc.update(speed=0)),
     ValueError, "speed: must be > 0"),
    ("from-is-to", _parsed(lambda doc: _task(doc).update({"to": "A"})),
     ValueError, "task 'T1': from and to are both 'A'"),
    ("negative-release", _parsed(lambda doc: _task(doc).update(earliest_pickup_s=-1)),
     ValueError, "task 'T1': earliest_pickup_s must be >= 0"),
    ("document", lambda: load_instance("[]"),
     ValueError, "instance document must be a JSON object"),
    ("layout", _parsed(lambda doc: doc.update(layout=[])),
     ValueError, "layout: must be an object"),
    ("nodes", _parsed(lambda doc: doc["layout"].update(nodes=[])),
     ValueError, r"layout\.nodes: must be a non-empty list"),
    ("edges", _parsed(lambda doc: doc["layout"].update(edges={})),
     ValueError, r"layout\.edges: must be a list"),
    ("edge-entry", _parsed(lambda doc: doc["layout"]["edges"].append(["DEP", "A"])),
     ValueError, r"layout\.edges: expected \[from, to, length_m\]"),
    ("tasks", _parsed(lambda doc: doc.update(tasks=[])),
     ValueError, "tasks: must be a non-empty list"),
    ("task-entry", _parsed(lambda doc: doc.update(tasks=["T1"])),
     ValueError, r"tasks\[0\]: must be an object"),
    ("vehicles", _parsed(lambda doc: doc.update(vehicles=1.0)),
     ValueError, "vehicles: must be an integer"),
    ("depot", _parsed(lambda doc: doc.update(depot=0)),
     ValueError, "depot: must be a location id string"),
    ("notes", _parsed(lambda doc: doc.update(notes=5)),
     ValueError, "notes: must be a string"),
    ("non-number", _parsed(lambda doc: doc.update(horizon="200")),
     ValueError, "horizon: expected a number"),
    ("time-overflow-series", _built("series"),
     ValueError, "layout: no finite travel time between 'DEP' and 'B'$"),
    ("time-overflow-slow", _built("slow"),
     ValueError, "layout: no finite travel time between 'DEP' and 'B'$"),
    ("plan-overflow", _built("plan"),
     ValueError, r"travel_dist: 4 legs of the longest distance, 1e\+308 m, overflow"),
    ("window-overflow", _built("window"),
     ValueError, r"close_time: 1\.79e\+308 s plus 4 legs of the longest travel time"),
    ("layout-labels", lambda: LayoutGraph(node_ids=("A", "B"), labels=("A",), edges=()),
     ValueError, r"layout\.nodes: labels must match node ids"),
    ("no-tasks", lambda: PdpInstance(layout=ring_layout(), tasks=(), vehicle_count=1,
                                     depot="DEP", horizon=100.0),
     ValueError, "tasks: at least one task is required"),
    ("matrix-speed", lambda: shortest_travel_matrix(ring_layout(), ["DEP"], 0.0),
     ValueError, "speed: must be > 0"),
    ("matrix-location", lambda: shortest_travel_matrix(ring_layout(), ["Z"], 1.5),
     ValueError, "locations: unknown location 'Z'"),
    ("infinite-speed", lambda: dataclasses.replace(load_instance(json.dumps(single_task_dict())),
                                                   speed=math.inf),
     ValueError, "speed: must be > 0 and finite"),
    ("matrix-infinite-speed", lambda: shortest_travel_matrix(ring_layout(), ["DEP"], math.inf),
     ValueError, "speed: must be > 0 and finite"),
]


@pytest.mark.parametrize("build, error, message", [case[1:] for case in REJECTIONS],
                         ids=[case[0] for case in REJECTIONS])
def test_rejection_names_the_field(build, error, message):
    with pytest.raises(error, match=f"^{message}"):
        build()


def test_import_leaves_scipy_unloaded():
    src = str(Path(tugplan.__file__).resolve().parent.parent)
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, tugplan; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert probe.stdout.strip() == "False"


class TestBuildNetwork:
    def test_window_completion_single_task(self):
        doc = single_task_dict(earliest=10.0, latest=30.0)
        net = build_network(load_instance(json.dumps(doc)))
        assert net.size == 4
        assert net.open_time[1] == 10.0
        assert net.close_time[2] == 30.0
        assert net.close_time[1] == doc["horizon"]
        assert net.open_time[2] == 0.0
        assert net.open_time[0] == 0.0 and net.close_time[0] == doc["horizon"]

    def test_delivery_index_arithmetic(self, tri3_network):
        assert tri3_network.n == 2
        assert tri3_network.delivery_of(2) == 4
        assert tri3_network.locations[4] == tri3_network.locations[2 + tri3_network.n]

    def test_tri3_depot_to_first_pickup(self, tri3_network):
        assert tri3_network.travel_time[0, 1] == pytest.approx(10.0)

    def test_depot_nodes_colocated(self, tri3_network):
        assert tri3_network.travel_time[0, tri3_network.terminal] == 0.0

    def test_networks_compare_and_hash_by_identity(self, tri3_instance):
        first, second = build_network(tri3_instance), build_network(tri3_instance)
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2

    def test_deterministic_rebuild(self, tri3_instance):
        n1 = build_network(tri3_instance)
        n2 = build_network(tri3_instance)
        assert np.array_equal(n1.travel_time, n2.travel_time)
        assert np.array_equal(n1.open_time, n2.open_time)
        assert n1.locations == n2.locations


@st.composite
def connected_layouts(draw):
    size = draw(st.integers(min_value=3, max_value=6))
    ids = tuple(f"N{i}" for i in range(size))
    edges = []
    for i in range(size):
        length = draw(st.floats(min_value=1.0, max_value=50.0, allow_nan=False))
        edges.append((ids[i], ids[(i + 1) % size], length))
    extra = draw(st.integers(min_value=0, max_value=3))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=size - 1))
        v = draw(st.integers(min_value=0, max_value=size - 1))
        if u != v:
            length = draw(st.floats(min_value=1.0, max_value=50.0, allow_nan=False))
            edges.append((ids[u], ids[v], length))
    return LayoutGraph(node_ids=ids, labels=ids, edges=tuple(edges))


@settings(max_examples=50, deadline=None)
@given(connected_layouts())
def test_triangle_inequality(layout):
    times = shortest_travel_matrix(layout, list(layout.node_ids), 1.5)
    # Floyd-Warshall over symmetric lengths adds each pair of legs in both
    # orders, and IEEE addition commutes, so symmetry holds exactly.
    assert np.array_equal(times, times.T)
    assert (times.diagonal() == 0.0).all()
    m = len(layout.node_ids)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert times[i, k] <= times[i, j] + times[j, k] + 1e-9


@settings(max_examples=30, deadline=None)
@given(connected_layouts())
def test_relabeling_leaves_matrix_unchanged(layout):
    renamed = LayoutGraph(
        node_ids=tuple(f"R_{v}" for v in layout.node_ids),
        labels=layout.labels,
        edges=tuple((f"R_{u}", f"R_{v}", d) for u, v, d in layout.edges),
    )
    t1 = shortest_travel_matrix(layout, list(layout.node_ids), 2.0)
    t2 = shortest_travel_matrix(renamed, list(renamed.node_ids), 2.0)
    assert np.array_equal(t1, t2)


@settings(max_examples=30, deadline=None)
@given(connected_layouts())
def test_matrix_matches_path_enumeration(layout):
    times = shortest_travel_matrix(layout, list(layout.node_ids), 1.0)
    src, dst = layout.node_ids[0], layout.node_ids[-1]
    assert times[0, len(layout.node_ids) - 1] == pytest.approx(
        brute_force_shortest(layout, src, dst))


@pytest.fixture
def fresh_closures():
    """An empty layout closure memo, emptied again afterwards."""
    _layout_closure.cache_clear()
    yield
    _layout_closure.cache_clear()


def uncached_travel_matrix(layout, locations, speed):
    """The travel times without the memo: the layout's lengths, their
    closure and the wanted rows and columns, built afresh on every call."""
    index = {v: i for i, v in enumerate(layout.node_ids)}
    m = len(layout.node_ids)
    lengths = np.full((m, m), math.inf)
    np.fill_diagonal(lengths, 0.0)
    for u, v, length in layout.edges:
        i, j = index[u], index[v]
        if length < lengths[i, j]:
            lengths[i, j] = lengths[j, i] = length
    wanted = [index[loc] for loc in locations]
    return shortest_path_closure(lengths)[np.ix_(wanted, wanted)] / speed


@pytest.mark.usefixtures("fresh_closures")
class TestLayoutClosureMemo:
    def test_equal_layouts_share_one_entry(self):
        first = shortest_travel_matrix(ring_layout(), ["DEP", "B"], 1.5)
        second = shortest_travel_matrix(ring_layout(), ["C", "A"], 1.5)
        info = _layout_closure.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert first[0, 1] == second[0, 1] == 20.0

    def test_changed_layout_misses(self):
        ring = ring_layout()
        longer = dataclasses.replace(ring, edges=(("DEP", "A", 30.0),) + ring.edges[1:])
        bigger = dataclasses.replace(ring, node_ids=ring.node_ids + ("D",),
                                     labels=ring.labels + ("D",),
                                     edges=ring.edges + (("C", "D", 15.0),))
        times = [shortest_travel_matrix(layout, ["DEP", "A"], 1.5)[0, 1]
                 for layout in (ring, longer, bigger)]
        info = _layout_closure.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 0, 3)
        assert times == [10.0, 20.0, 10.0]

    def test_cached_closure_is_read_only(self):
        closure = _layout_closure(ring_layout())
        assert not closure.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            closure[0, 1] = 0.0

    def test_writing_a_result_leaves_the_next_build_alone(self, tri3_instance):
        layout = tri3_instance.layout
        locations = list(layout.node_ids)
        times = shortest_travel_matrix(layout, locations, 1.5)
        expected = times.copy()
        times[:] = -1.0
        assert shortest_travel_matrix(layout, locations, 1.5).tobytes() == expected.tobytes()
        network = build_network(tri3_instance)
        assert _layout_closure.cache_info().hits == 2
        assert network.travel_time.tobytes() == uncached_travel_matrix(
            layout, network.locations, tri3_instance.speed).tobytes()

    def test_entry_count_stays_at_its_bound(self):
        assert _layout_closure.cache_info().maxsize == _CLOSURE_MEMO <= 16
        ring = ring_layout()
        for k in range(2 * _CLOSURE_MEMO):
            layout = dataclasses.replace(ring, edges=(("DEP", "A", 15.0 + k),) + ring.edges[1:])
            shortest_travel_matrix(layout, ["DEP", "A"], 1.5)
            assert _layout_closure.cache_info().currsize == min(k + 1, _CLOSURE_MEMO)
        assert _layout_closure.cache_info().misses == 2 * _CLOSURE_MEMO


@st.composite
def layouts_with_parallel_edges(draw):
    """A connected layout plus up to three more copies of its edges, each
    with its own length and either orientation."""
    layout = draw(connected_layouts())
    edges = list(layout.edges)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        u, v, _ = draw(st.sampled_from(layout.edges))
        length = draw(st.floats(min_value=1.0, max_value=50.0, allow_nan=False))
        edges.append((v, u, length) if draw(st.booleans()) else (u, v, length))
    return dataclasses.replace(layout, edges=tuple(edges))


@settings(max_examples=50, deadline=None)
@given(layouts_with_parallel_edges(), st.data(),
       st.floats(min_value=0.1, max_value=20.0, allow_nan=False))
def test_memo_hit_matches_a_fresh_build(layout, data, speed):
    locations = data.draw(st.lists(st.sampled_from(layout.node_ids), min_size=1, max_size=8))
    _layout_closure.cache_clear()
    fresh = shortest_travel_matrix(layout, locations, speed)
    hit = shortest_travel_matrix(dataclasses.replace(layout), locations, speed)
    assert _layout_closure.cache_info().hits == 1
    _layout_closure.cache_clear()
    rebuilt = shortest_travel_matrix(layout, locations, speed)
    reference = uncached_travel_matrix(layout, locations, speed)
    assert hit.tobytes() == fresh.tobytes() == rebuilt.tobytes() == reference.tobytes()


def _slow_factory6():
    doc = instance_dict("factory6")
    # At 0.7 m/s some times scaled back to meters differ from the layout's
    # meters in the last bit, so these bytes tell the two apart.
    doc["speed"] = 0.7
    return doc


# sha256 over the bytes of travel_time, travel_dist, open_time and
# close_time, in that order, of each built network.
PINNED_NETWORKS = {
    "tri3": (lambda: instance_dict("tri3"),
             "b1818423917bb30a5067b0d99d3b881655b9d333fccd88d372da7d456f0ffa65"),
    "factory6": (lambda: instance_dict("factory6"),
                 "b76e6adbaa8c314f46d83b88882e8d7c23eee5c10d90caf0c348e946b2726c79"),
    "factory6-slow": (_slow_factory6,
                      "3154f13da4da39f01006dcce838dccb7ca2e2d4581bcd7d8ade0eeba302b0111"),
    "gen-0-4-tight": (lambda: gen.factory_instance(0, 4, "tight"),
                      "875ab8ec9ec12185991e811f9abe0344c876bcb8d694d4eedad4fddb144bd57d"),
    "gen-1-4-loose": (lambda: gen.factory_instance(1, 4, "loose"),
                      "e948b0317c8801b0d695909a1f5ae1fbeb343233e35656ecde1ea58f908b9959"),
    "gen-2-8-tight": (lambda: gen.factory_instance(2, 8, "tight"),
                      "d70ee56dc2e5c1c6a8dcd003ecfad090c3cd8fb25f890fca52c2c36b741e2934"),
}


@pytest.mark.parametrize("name", PINNED_NETWORKS)
def test_built_network_bytes_are_pinned(name):
    make, digest = PINNED_NETWORKS[name]
    network = build_network(load_instance(json.dumps(make())))
    h = hashlib.sha256()
    for field in ("travel_time", "travel_dist", "open_time", "close_time"):
        h.update(getattr(network, field).tobytes())
    assert h.hexdigest() == digest


class TestParserDefaults:
    def test_speed_defaults_when_omitted(self):
        doc = single_task_dict()
        del doc["speed"]
        inst = load_instance(json.dumps(doc))
        assert inst.speed == 1.5

    def test_node_id_label_pairs(self):
        doc = single_task_dict()
        doc["layout"]["nodes"] = [["DEP", "6"], ["A", "Point A"], "B", "C"]
        inst = load_instance(json.dumps(doc))
        assert inst.layout.label_of("DEP") == "6"
        assert inst.layout.label_of("A") == "Point A"
        assert inst.layout.label_of("B") == "B"

    def test_malformed_node_entry_rejected(self):
        doc = single_task_dict()
        doc["layout"]["nodes"] = [["DEP"], "A", "B", "C"]
        with pytest.raises(ValueError, match=r"\[id, label\]"):
            load_instance(json.dumps(doc))

    def test_string_notes_accepted(self):
        # The parser type-checks `notes` (a number is rejected by name, see
        # REJECTIONS) and keeps nothing of it.
        doc = single_task_dict()
        doc["notes"] = "first shift"
        assert load_instance(json.dumps(doc)) == load_instance(json.dumps(single_task_dict()))


class TestNetworkFixedWindows:
    """Every network states the facts the search relies on: deliveries and
    depots open at 0, and the depot hop is free."""

    @pytest.mark.parametrize("node", [0, 3, 4, 5])
    def test_late_opening_rejected(self, tri3_network, node):
        # tri3 has two tasks: deliveries 3 and 4, terminal depot 5.
        open_time = tri3_network.open_time.copy()
        open_time[node] = 5.0
        with pytest.raises(ValueError, match=f"node {node} opens at 5 s"):
            dataclasses.replace(tri3_network, open_time=open_time)

    @pytest.mark.parametrize("hop_s, hop_m", [(5.0, 7.5), (5.0, 0.0), (0.0, 7.5)])
    def test_paid_depot_hop_rejected(self, tri3_network, hop_s, hop_m):
        # The search pads idle vehicles in at no cost, so it would leave a
        # paid hop out of the objective: at 5 s and 7.5 m, 90 m for a plan
        # of 97.5 m.
        terminal = tri3_network.terminal
        times, dists = tri3_network.travel_time.copy(), tri3_network.travel_dist.copy()
        times[0, terminal] = times[terminal, 0] = hop_s
        dists[0, terminal] = dists[terminal, 0] = hop_m
        with pytest.raises(ValueError, match=f"depot nodes 0 and {terminal}"):
            dataclasses.replace(tri3_network, travel_time=times, travel_dist=dists)

    def test_depots_at_two_locations_rejected(self, tri3_network):
        locations = tri3_network.locations[:-1] + (tri3_network.locations[1],)
        with pytest.raises(ValueError, match="must be one location"):
            dataclasses.replace(tri3_network, locations=locations)


class TestNetworkColocatedRows:
    """Nodes at one location share their rows and columns of both matrices:
    the search reads a location's distances from its first node, so a later
    node closer than it made the completion bound inadmissible."""

    @pytest.mark.parametrize("field", ["travel_time", "travel_dist"])
    @pytest.mark.parametrize("axis", ["row", "column"])
    def test_differing_colocated_node_rejected(self, tri3_network, field, axis):
        # tri3's deliveries 3 and 4 are both at B; 4 reads A nearer than 3.
        matrix = getattr(tri3_network, field).copy()
        if axis == "row":
            matrix[4, 1] *= 0.5
        else:
            matrix[1, 4] *= 0.5
        with pytest.raises(ValueError, match=f"{field} differs between co-located nodes"):
            dataclasses.replace(tri3_network, **{field: matrix})

    def test_terminal_depot_shares_the_source_rows(self, tri3_network):
        times = tri3_network.travel_time.copy()
        times[5, 2] = times[2, 5] = 12.0
        with pytest.raises(ValueError, match="travel_time differs between co-located nodes"):
            dataclasses.replace(tri3_network, travel_time=times)

    def test_built_networks_pass(self):
        # `build_network` gives nodes at one location the shortest-path rows
        # of that location, so every build passes the check, also with
        # task nodes co-located beyond the depot pair.
        rng = np.random.default_rng(3)
        colocated = 0
        for _ in range(40):
            network = random_network(rng, max_tasks=4, max_vehicles=2, tightness="loose")
            colocated += len(set(network.locations)) < network.size - 1
        assert colocated > 0

    def test_bundled_and_generated_networks_pass(self):
        # Every network check holds on the bundled instances and on the
        # benchmark's generated ones, tight and loose.
        docs = [instance_dict(path.stem) for path in sorted(INSTANCES.glob("*.json"))]
        docs += [gen.factory_instance(seed, n, windows) for seed in range(50)
                 for n in (4, 8) for windows in ("tight", "loose")]
        for doc in docs:
            network = build_network(load_instance(json.dumps(doc)))
            assert network.vehicle_count == doc["vehicles"]
        assert len(docs) == 203


class TestNetworkTravelEntries:
    """Both matrices are finite and non-negative: every window test against
    a NaN passes, so a NaN arc silently dropped a constraint."""

    def test_nan_arcs_from_a_pickup_rejected(self, tri3_network):
        # With these arcs NaN, tri3 solved to `optimal`, 90 m, on route
        # 0-1-2-3-4-5: delivery 3's coupling read NaN.
        times = tri3_network.travel_time.copy()
        for j in (3, 4):
            times[1, j] = times[j, 1] = np.nan
        with pytest.raises(ValueError, match=re.escape("travel_time[1, 3] is nan; ")):
            dataclasses.replace(tri3_network, travel_time=times)

    @pytest.mark.parametrize("field", ["travel_time", "travel_dist"])
    @pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (np.inf, "inf"),
                                              (-1.5, "-1.5")])
    def test_bad_entry_named(self, tri3_network, field, value, shown):
        # Pickups 1 and 2 are at A and C, which no other node shares.
        matrix = getattr(tri3_network, field).copy()
        matrix[1, 2] = matrix[2, 1] = value
        message = (f"{field}[1, 2] is {shown}; travel times and distances must be "
                   "finite and non-negative")
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(tri3_network, **{field: matrix})


class TestNetworkWindowBounds:
    """Every window bound is finite: every window test against a NaN
    passes, so a NaN bound silently dropped its window, and an infinite one
    made the big-M constants infinite."""

    def test_nan_deadline_rejected(self, tri3_network):
        # With delivery 3's deadline NaN, tri3 solved to `optimal`, 90 m;
        # with it at 1 s tri3 is infeasible.
        close_time = tri3_network.close_time.copy()
        close_time[3] = 1.0
        tight = dataclasses.replace(tri3_network, close_time=close_time)
        assert solve_deterministic(tight).status == STATUS_INFEASIBLE
        close_time = tri3_network.close_time.copy()
        close_time[3] = np.nan
        with pytest.raises(ValueError, match=re.escape(
                "close_time[3] is nan; window bounds must be finite")):
            dataclasses.replace(tri3_network, close_time=close_time)

    @pytest.mark.parametrize("field, node, value, shown", [
        # Solved to `optimal`, 90 m, on a plan `check_solution` rejected
        # with 20 violations.
        ("open_time", 1, np.nan, "nan"),
        # `compute_big_m` returned m1 = m4 = inf, and the LP export wrote
        # rows such as `+inf x_0_0_1 <= inf`.
        ("close_time", 3, np.inf, "inf"),
        ("open_time", 2, -np.inf, "-inf"),
    ])
    def test_non_finite_bound_named(self, tri3_network, field, node, value, shown):
        bounds = getattr(tri3_network, field).copy()
        bounds[node] = value
        with pytest.raises(ValueError, match=re.escape(
                f"{field}[{node}] is {shown}; window bounds must be finite")):
            dataclasses.replace(tri3_network, **{field: bounds})


class TestNetworkFloatRange:
    """A plan's 3n arcs plus one completion arc stay inside the float range,
    in meters and in seconds past the latest closing time, on every network,
    not only on a built one.  tri3 has two tasks, so seven legs."""

    def test_overflowing_distance_rejected(self, tri3_network):
        # Largest entry 9e307 m: tri3 solved to `infeasible`, since its 90 m
        # plan would be 2.7e308 m.
        dists = tri3_network.travel_dist * 3e306
        with pytest.raises(ValueError, match=re.escape(
                "travel_dist: 7 legs of the longest distance, 9e+307 m, overflow")):
            dataclasses.replace(tri3_network, travel_dist=dists)

    def test_overflowing_times_rejected(self, tri3_network):
        # tri3 solved to `optimal`, 90 m, but `compute_big_m` overflowed to
        # m1 = m3 = inf and the LP export wrote `inf`.
        with pytest.raises(ValueError, match=re.escape(
                "close_time: 1.79e+308 s plus 7 legs of the longest travel time, 2e+307 s, "
                "overflows")):
            dataclasses.replace(tri3_network, close_time=np.full(6, 1.79e308),
                                travel_time=tri3_network.travel_time * 1e306)


class TestNetworkWindowOrder:
    """No window closes before it opens: with its source depot closing at
    -1 s, tri3's det solve raised a bare AssertionError, since every route
    was late at the depot."""

    @pytest.mark.parametrize("node, close, opens", [(0, -1.0, 0.0), (1, 5.0, 10.0),
                                                    (5, -1.0, 0.0)])
    def test_inverted_window_named(self, tri3_network, node, close, opens):
        close_time = tri3_network.close_time.copy()
        close_time[node] = close
        with pytest.raises(ValueError, match=re.escape(
                f"node {node} closes at {close:g} s, before it opens at {opens:g} s")):
            dataclasses.replace(tri3_network, close_time=close_time)

    def test_one_instant_window_accepted(self, tri3_network):
        # A window of one instant is not inverted.
        close_time = tri3_network.close_time.copy()
        close_time[1] = tri3_network.open_time[1]
        dataclasses.replace(tri3_network, close_time=close_time)


class TestNetworkOwnsItsArrays:
    """A network holds read-only copies of its arrays: it kept the caller's
    and only cleared their write flag, so a writable alias of the same
    buffer changed a validated network, and the caller's array became
    read-only."""

    def test_alias_write_changes_nothing(self, tri3_network):
        # Through the alias, delivery 3 closed at -1 s, before it opens, and
        # tri3 solved to `infeasible` instead of `optimal`, 90 m.
        base = np.array(tri3_network.close_time)
        net = dataclasses.replace(tri3_network, close_time=base[:])
        base[3] = -1.0
        assert net.close_time[3] == tri3_network.close_time[3]
        solution = solve_deterministic(net)
        assert solution.status == STATUS_OPTIMAL
        assert solution.objective == pytest.approx(90.0)

    @pytest.mark.parametrize("field", ["open_time", "close_time", "travel_time",
                                       "travel_dist"])
    def test_caller_array_stays_writable(self, tri3_network, field):
        mine = getattr(tri3_network, field).copy()
        net = dataclasses.replace(tri3_network, **{field: mine})
        assert mine.flags.writeable and not np.shares_memory(mine, getattr(net, field))
        assert not getattr(net, field).flags.writeable
        mine[...] = -7.0
        assert np.array_equal(getattr(net, field), getattr(tri3_network, field))


class TestNetworkEarlyOpening:
    """No node opens before 0: the model's switched-off lower bound
    `w + a z >= a` then demands `w >= 0`, below a negative opening."""

    def test_negative_opening_named(self, tri3_network):
        # With pickup 1 opening at -5 s, tri3's sto solve at alpha 0.3 on
        # 10 scenarios of seed 0 ignored scenarios 4 and 9 and pinned their
        # times to the openings, and `check_solution` reported
        # `Eq20[k=0,i=1,s=4,lo]` violated by 5.
        open_time = tri3_network.open_time.copy()
        open_time[1] = -5.0
        with pytest.raises(ValueError, match=re.escape(
                "node 1 opens at -5 s; no node may open before 0")):
            dataclasses.replace(tri3_network, open_time=open_time)


class TestNetworkFleet:
    """The fleet is an integer of at least 1: tri3 with 0 or -1 vehicles
    solved to `optimal` on one route, and with 1.5 the idle-route padding
    raised a bare TypeError."""

    @pytest.mark.parametrize("fleet", [0, -1, 1.5, True, np.int64(0)],
                             ids=["zero", "negative", "fraction", "bool", "numpy-zero"])
    def test_bad_fleet_named(self, tri3_network, fleet):
        with pytest.raises(ValueError, match=re.escape(
                f"vehicle_count is {fleet!r}; a network needs an integer fleet of at least 1")):
            dataclasses.replace(tri3_network, vehicle_count=fleet)

    def test_numpy_integer_fleet_accepted(self, tri3_network):
        fleet = np.int64(tri3_network.vehicle_count)
        solution = solve_deterministic(dataclasses.replace(tri3_network, vehicle_count=fleet))
        reference = solve_deterministic(tri3_network)
        assert solution.status == STATUS_OPTIMAL
        assert solution.plan.routes == reference.plan.routes


# (field, a value for tri3, its shape, the shape tri3 needs); tri3 has two
# tasks and six nodes.
_SHAPE_CASES = [
    ("open_time", np.zeros(3), "(3,)", "(6,)"),
    ("close_time", np.full(3, 200.0), "(3,)", "(6,)"),
    ("travel_time", np.zeros((3, 3)), "(3, 3)", "(6, 6)"),
    ("travel_dist", np.zeros((3, 3)), "(3, 3)", "(6, 6)"),
    ("locations", ("DEP", "A", "DEP"), "(3,)", "(6,)"),
    ("labels", ("Depot",), "(1,)", "(6,)"),
    ("task_ids", ("T1", "T2", "T3"), "(3,)", "(2,)"),
]


class TestNetworkShapes:
    """A field of another size is rejected by name before any window test
    reads it: a short `open_time` or travel matrix used to raise a bare
    IndexError, and a short `close_time` passed."""

    @pytest.mark.parametrize("field, value, got, want", _SHAPE_CASES,
                             ids=[case[0] for case in _SHAPE_CASES])
    def test_wrong_shape_named(self, tri3_network, field, value, got, want):
        message = f"{field} has shape {got}; a network of 2 tasks needs {want}"
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(tri3_network, **{field: value})
