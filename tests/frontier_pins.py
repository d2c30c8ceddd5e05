"""Pin plans at the solver's frontier, outside the tier-1 suite.

Checks the status, the objective and the sha256 of the routes of det solves
on generated factory instances with nine to eleven tight-window and ten
loose-window tasks, seeds 0-2, twelve tight-window tasks, seeds 1 and 2,
and twelve loose-window tasks, seeds 0 and 2, as `test_pinned_plans.py`
does for smaller ones; of sto solves on 30 scenarios of eight tight-window
tasks, seed 2, at alpha 0 and 0.1: the scenario search's largest pinned
trees, 110k and 132k nodes; and of sto-fast solves on the same 30 scenarios
of eight tight-window tasks, seeds 8 and 10.  Every pinned det plan is also the
one the search returns without its twin cut.  The twelve-task tight det
solves are the largest pinned trees, 2.16M and 1.14M nodes, in about 3 and
1.3 s, and the eleven-task tight ones take 0.90M, 0.53M and 0.31M nodes;
each other solve takes at most about 0.7 s.  The file name does not match
`test_*.py`, so the tier-1 run does not collect it; name it to run its one
parametrized test, from the repository root:

    PYTHONPATH=src python -m pytest -q tests/frontier_pins.py
"""

import pytest

from test_pinned_plans import outcome

PINS = [
    ("tight", 9, 0, "optimal", 300.0,
     "900bd8f7c3dc3b31f1d1c42f8d0611bcfa0c7c40e45bc5826d0320db6d644f8c"),
    ("tight", 9, 1, "optimal", 330.0,
     "cd7e32017b969e0b2aa30094c32592abf9281de45e131ff6e8e0392cfadd7267"),
    ("tight", 9, 2, "optimal", 183.0,
     "57dceb6e31b4fad23cac19d51ed5a03506f6b427b37b8ed179d5dd4b66633e8f"),
    ("tight", 10, 0, "optimal", 303.0,
     "86aa91dfa3819b3aa8f2bd8b79c06c37a1ba2442eebd92992f04d91a18340846"),
    ("tight", 10, 1, "optimal", 342.0,
     "856b3af08b174170c283739f9789748cb63c69e8e824f9077d46008d1580c346"),
    ("tight", 10, 2, "optimal", 234.0,
     "b920c296f13b59f690af0796fc1eeb95d1ba4b5f925f26995faacd3bbc9b9368"),
    ("loose", 10, 0, "optimal", 177.0,
     "b80bcf9cad89e02dc1cd37c5f25d420173d71415cff6263144f3d0b253b218d7"),
    ("loose", 10, 1, "optimal", 168.0,
     "cb00b513663e90a6a4543dfa2abb7e519e98068eb3caf431abde463cb38da5a1"),
    ("loose", 10, 2, "optimal", 165.0,
     "e3c511c0be06de145703e6c190ae246f0f4c12284c1ed0ac3b457f03f0190de1"),
    ("tight", 11, 0, "optimal", 333.0,
     "9c144a598dc3fc5924a3e28275b93e6c71fdfffba665f78d81b4b73ecb195fb2"),
    ("tight", 11, 1, "optimal", 342.0,
     "cff1833a474c48bb77c9304c699f72f04905567f2afbb80db0b82783357a76f0"),
    ("tight", 11, 2, "optimal", 246.0,
     "d2331f289b33e037da4db97521202903701578fb36b5506c1090c0bc19d619ea"),
    ("tight", 12, 1, "optimal", 342.0,
     "a20c970e7e11822d0e8f675aea7c0c3f537020410d8b785d3d231ad7fbc35dfe"),
    ("tight", 12, 2, "optimal", 258.0,
     "3668dfabb71f874c9507d03e969d742558124b47a756e3253c9bb989b118b876"),
    ("loose", 12, 0, "optimal", 180.0,
     "dea12f7fb0c950168bc3668586f778b264f5fdaed8375a14c290b9de7c20fdc6"),
    ("loose", 12, 2, "optimal", 165.0,
     "8ac83bad3c871953a4e4e0f8c56945ddeb0fa8407e1d401e66b60f48ef90542d"),
]

# sto rows lead with alpha.
STO_PINS = [
    (0.0, "tight", 8, 2, "optimal", 207.0,
     "fc16e6a40bafdff7c63a8eaadcc84c055dcf98827dd5c8e7f45ba94ad0bcb8a3"),
    (0.1, "tight", 8, 2, "optimal", 207.0,
     "c3f735c06eda8a18ac6d0e393ab6b23a36dd424ffec33126ad5815831275e84f"),
]

FAST_PINS = [
    ("tight", 8, 8, "optimal", 300.0,
     "aa41d5851362815099ca1fa826ba0ca6be7f414898b04a11278f68b6bfd552ca"),
    ("tight", 8, 10, "optimal", 330.0,
     "4b38d1ec3ac0c58dc343ef8c6b971f6df55f591beea7e05e928b59cfe4185fe7"),
]

CASES = ([(("det", windows, n, seed), row) for windows, n, seed, *row in PINS]
         + [(("sto", windows, n, seed, alpha), row)
            for alpha, windows, n, seed, *row in STO_PINS]
         + [(("sto-fast", windows, n, seed), row) for windows, n, seed, *row in FAST_PINS])


@pytest.mark.parametrize("args, pinned", CASES,
                         ids=["-".join(map(str, args)) for args, _ in CASES])
def test_frontier_plan(args, pinned):
    assert outcome(*args) == tuple(pinned)
