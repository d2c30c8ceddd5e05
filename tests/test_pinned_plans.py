"""Plans pinned beyond the oracle's reach.

`tests/oracle.py` enumerates every plan, so it checks the solver only up to
three or four tasks.  These cases pin the status, the objective and the
sha256 of the routes on generated factory instances of seven and eight
tasks (`perfbench/gen.py`), so a cut that changes a plan only on larger
instances fails here.  The scenario seed is the instance seed.
`frontier_pins.py` pins larger solves through the same `outcome`, in one
parametrized test outside this suite.
"""

import hashlib
import json

import pytest

from tugplan import build_network, load_instance
from tugplan.scenarios import ScenarioConfig, generate_scenarios
from tugplan.solver import (SolveConfig, solve_alpha_zero_fast, solve_deterministic,
                            solve_stochastic)

from conftest import gen


def outcome(mode: str, windows: str, n: int, seed: int, alpha: float = 0.1) -> tuple:
    """(status, objective, sha256 of the routes' JSON) of one solve; the
    digest is None without a plan.  `mode` "sto" solves at `alpha` and
    "sto-fast" at 0, both on 30 scenarios."""
    doc = gen.factory_instance(seed, n, windows)
    network = build_network(load_instance(json.dumps(doc)))
    if mode == "det":
        solution = solve_deterministic(network)
    else:
        scenarios = generate_scenarios(network, ScenarioConfig(count=30, seed=seed))
        if mode == "sto":
            solution = solve_stochastic(network, scenarios, SolveConfig(alpha=alpha))
        else:
            solution = solve_alpha_zero_fast(network, scenarios)
    digest = None
    if solution.plan is not None:
        digest = hashlib.sha256(json.dumps(solution.plan.routes).encode()).hexdigest()
    return solution.status, solution.objective, digest


PINS = [
    ("det", "tight", 7, 0, "optimal", 237.0,
     "4eff16b5c749eafb4d9625d3f1ded85ce71ef18e1f3b8d4af56fbf27e08f2220"),
    ("det", "tight", 7, 1, "optimal", 315.0,
     "3134691784c4d47bc7cf68af20c7b88358d625bd9f597ad0bf0d55d5ce8ec329"),
    ("det", "tight", 7, 2, "optimal", 183.0,
     "973b50bd97bfc07f93b590dcacc052e6ed83f5459368ba3d86c6300d0bbb5e4c"),
    ("det", "tight", 8, 0, "optimal", 237.0,
     "0045a1579b87a6569bce23c932d4b02e366912355079ec7b608429dba794c111"),
    ("det", "tight", 8, 1, "optimal", 315.0,
     "99acf281254e95aaa4b34d4e780c4d65e127deb0c7d784fb2cf71e706d109774"),
    ("det", "tight", 8, 2, "optimal", 183.0,
     "9c5d9bd706db2c17aeae5db53250003f503a45be88069ac62857936963f1ae52"),
    ("det", "loose", 7, 0, "optimal", 156.0,
     "62b06c014e04d3ef0dc888f8658a3e0e2a7e8d45547b7c3622b6621f86f34d0f"),
    ("det", "loose", 7, 1, "optimal", 153.0,
     "e158c9c975229ef0161d2c578bc6d241e89a181bf3d7de5a1eb88c534888d8e6"),
    ("det", "loose", 7, 2, "optimal", 135.0,
     "2f329430bad7edd8db9b8e4d2fca029fd6220058e86d2f3b2fefc67c14b9551a"),
    ("det", "loose", 8, 0, "optimal", 168.0,
     "37f74993974a027222a859beef300c964a8825b86c0fd6f62acfb767f581adec"),
    ("det", "loose", 8, 1, "optimal", 156.0,
     "8bcdfa89df805bb5f080b4984c31ad7eaac988875ddbcc40b9bb5088a7ab4416"),
    ("det", "loose", 8, 2, "optimal", 165.0,
     "bfbdd17e223c45fde9f5ed7379739a797c7174c88f7d7e14265b2ca2ec8b09b9"),
    ("sto", "tight", 7, 0, "infeasible", None, None),
    ("sto", "tight", 7, 1, "infeasible", None, None),
    ("sto", "tight", 7, 2, "optimal", 207.0,
     "efd832f8a08c0d5c13f583ec4de859774e7acc46de33dc94b52295e18edf9d94"),
    ("sto", "loose", 8, 0, "optimal", 168.0,
     "37f74993974a027222a859beef300c964a8825b86c0fd6f62acfb767f581adec"),
    ("sto", "loose", 8, 1, "optimal", 156.0,
     "8bcdfa89df805bb5f080b4984c31ad7eaac988875ddbcc40b9bb5088a7ab4416"),
    ("sto", "loose", 8, 2, "optimal", 165.0,
     "bfbdd17e223c45fde9f5ed7379739a797c7174c88f7d7e14265b2ca2ec8b09b9"),
    ("sto-fast", "tight", 7, 0, "infeasible", None, None),
    ("sto-fast", "tight", 7, 1, "infeasible", None, None),
    ("sto-fast", "tight", 7, 2, "optimal", 246.0,
     "4b09ea475c3e79c31e731e6bfdb7a195fbdaa4518ee835326a060fcff1424bf5"),
    ("sto-fast", "tight", 7, 8, "optimal", 246.0,
     "860d642c839730e4c82389a55c43f83ccd0b23525ff48f3f4c21b2bdf59cda92"),
    ("sto-fast", "tight", 7, 10, "optimal", 297.0,
     "77c58ffc87fbf0c1207689446c4c133348677e823cf103f8819bc96315687cdd"),
]


@pytest.mark.parametrize("mode, windows, n, seed, status, objective, digest", PINS,
                         ids=[f"{m}-{w}-n{n}-seed{s}" for m, w, n, s, *_ in PINS])
def test_pinned_plan(mode, windows, n, seed, status, objective, digest):
    assert outcome(mode, windows, n, seed) == (status, objective, digest)
