import importlib.util
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tugplan import build_network, load_instance

INSTANCES = Path(__file__).parent.parent / "instances"

# The benchmark's instance generator, `perfbench/gen.py`.
_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", Path(__file__).parent.parent / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def instance_dict(name):
    """The bundled instance document `instances/<name>.json`."""
    return json.loads((INSTANCES / f"{name}.json").read_text())


@pytest.fixture
def tri3_instance():
    return load_instance(json.dumps(instance_dict("tri3")))


@pytest.fixture
def tri3_network(tri3_instance):
    return build_network(tri3_instance)


@pytest.fixture
def factory6_network():
    return build_network(load_instance(json.dumps(instance_dict("factory6"))))


@pytest.fixture
def tri3_wide_network():
    return build_network(load_instance(json.dumps(instance_dict("tri3_wide"))))


def single_task_dict(earliest=0.0, latest=200.0, horizon=200.0, vehicles=1):
    """One task A->B on the tri3 ring."""
    doc = instance_dict("tri3")
    doc["tasks"] = [{
        "id": "T1", "from": "A", "to": "B",
        "earliest_pickup_s": earliest, "latest_delivery_s": latest,
    }]
    doc["vehicles"] = vehicles
    doc["horizon"] = horizon
    return doc


def overflowing_time_dict(case):
    """One task A -> B, depot DEP, on a path whose travel time overflows the
    float range: two 1e308 m edges in series, or one crossed at 0.5 m/s."""
    doc = single_task_dict()
    doc["layout"]["nodes"] = ["DEP", "A", "B"]
    if case == "series":
        doc["layout"]["edges"] = [["DEP", "A", 1e308], ["A", "B", 1e308]]
    else:
        doc["layout"]["edges"] = [["DEP", "A", 10.0], ["A", "B", 1e308]]
        doc["speed"] = 0.5
    return doc


def overflowing_sum_dict(case):
    """One task A -> B, depot DEP, every travel time finite, but a plan's
    sum is not: DEP-A is 1e308 m, the task due at 1e308 s and the horizon
    1.5e308 s ("plan"), or DEP-A is 1e306 m and both at 1.79e308 s
    ("window")."""
    length, latest, horizon = ((1e308, 1e308, 1.5e308) if case == "plan"
                               else (1e306, 1.79e308, 1.79e308))
    doc = single_task_dict(latest=latest, horizon=horizon)
    doc["layout"]["nodes"] = ["DEP", "A", "B"]
    doc["layout"]["edges"] = [["DEP", "A", length], ["A", "B", 10.0]]
    return doc


@pytest.fixture
def single_task_network():
    return build_network(load_instance(json.dumps(single_task_dict())))
