"""Acceptance suite: nine criteria, one test and one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Shared solve pools are computed once and reused across criteria.
"""

import gc
import json
import time

import numpy as np
import pytest
from scipy.stats import norm

import tugplan as tp
from tugplan.cli import main as cli_main
from tugplan.formulation import CHECK_TOLERANCE
from tugplan.scenarios import sample_time_matrix
from tugplan.solver import assignment_from_solution

from conftest import INSTANCES, instance_dict
from instgen import random_network
from oracle import oracle_solve, oracle_solve_deterministic

OBJ_TOL = 1e-9


def _verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\n[{criterion}] {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def _equal_obj(x, y) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= OBJ_TOL


@pytest.fixture(scope="module")
def oracle_pool():
    """Criterion 1 workload: randomized toy instances solved both ways."""
    rng = np.random.default_rng(7321)
    records = []
    started = time.monotonic()
    for i in range(52):
        network = random_network(rng, max_tasks=3, max_vehicles=2, tightness="mixed")
        if i % 2 == 0:
            solution = tp.solve_deterministic(network)
            reference = oracle_solve_deterministic(network)
            records.append(("det", network, None, 0.0, solution, reference))
        else:
            count = int(rng.integers(1, 4))
            scen = tp.generate_scenarios(network, tp.ScenarioConfig(count=count, seed=100 + i))
            alpha = float(rng.choice([0.0, 1.0 / 3.0, 0.5]))
            solution = tp.solve_stochastic(network, scen, tp.SolveConfig(alpha=alpha))
            reference = oracle_solve(network, scen.travel_times, scen.probabilities, alpha)
            records.append(("sto", network, scen, alpha, solution, reference))
    return {"records": records, "elapsed": time.monotonic() - started}


@pytest.fixture(scope="module")
def benchmark_pool():
    """Criteria 3/4/7/9 workload: the bundled benchmark instances."""
    nets = {name: tp.build_network(tp.load_instance(json.dumps(instance_dict(name))))
            for name in ("tri3", "tri3_wide", "factory6")}
    out = {"networks": nets, "det": {}, "sto": {}, "scen": {}, "det_time": {}, "sto_time": {}}
    for name, net in nets.items():
        t0 = time.monotonic()
        out["det"][name] = tp.solve_deterministic(net)
        out["det_time"][name] = time.monotonic() - t0
        scen = tp.generate_scenarios(net, tp.ScenarioConfig(count=30, seed=42))
        out["scen"][name] = scen
        t0 = time.monotonic()
        out["sto"][name] = tp.solve_stochastic(net, scen, tp.SolveConfig(alpha=0.0))
        out["sto_time"][name] = time.monotonic() - t0
    return out


@pytest.fixture(scope="module")
def fast_pool():
    """Criterion 5 workload: twenty seeded instances, both robust paths."""
    rng = np.random.default_rng(20240809)
    records = []
    t_sto = t_fast = 0.0
    for i in range(20):
        tightness = "slack" if i % 4 != 3 else "infeasible"
        network = random_network(rng, max_tasks=5, max_vehicles=2, tightness=tightness)
        scen = tp.generate_scenarios(network, tp.ScenarioConfig(count=30, seed=5000 + i))
        # Both paths together take about 20 ms, while one full collection of
        # the session's heap takes 30-55 ms; the collector stays off while a
        # solve is timed, so the ratio compares the solves, not where a
        # collection happens to land.
        gc.disable()
        try:
            t0 = time.monotonic()
            sto = tp.solve_stochastic(network, scen, tp.SolveConfig(alpha=0.0))
            t_sto += time.monotonic() - t0
            t0 = time.monotonic()
            fast = tp.solve_alpha_zero_fast(network, scen)
            t_fast += time.monotonic() - t0
        finally:
            gc.enable()
        det = tp.solve_deterministic(network)
        records.append((network, scen, det, sto, fast))
    return {"records": records, "t_sto": t_sto, "t_fast": t_fast}


def test_criterion_1_oracle_equivalence(oracle_pool):
    records, elapsed = oracle_pool["records"], oracle_pool["elapsed"]
    mismatches = []
    optimal = infeasible = 0
    for idx, (kind, network, scen, alpha, solution, reference) in enumerate(records):
        if solution.status != reference.status:
            mismatches.append((idx, "status"))
            continue
        if reference.status == "optimal":
            optimal += 1
            if not _equal_obj(solution.objective, reference.objective):
                mismatches.append((idx, "objective"))
            elif solution.plan.routes != reference.plan:
                mismatches.append((idx, "plan"))
        else:
            infeasible += 1
    ok = not mismatches and len(records) >= 50 and elapsed < 60.0
    assert _verdict(
        "criterion 1",
        ok,
        f"{len(records)} randomized instances vs exhaustive enumeration "
        f"({optimal} optimal, {infeasible} infeasible), "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_checker_cross_validation(oracle_pool, benchmark_pool, fast_pool):
    checked = violations = 0

    def verify(network, solution, scen, alpha):
        nonlocal checked, violations
        if solution.status != "optimal":
            return
        if scen is None:
            system = tp.build_deterministic(network)
        else:
            system = tp.build_stochastic(network, scen, alpha)
        assignment = assignment_from_solution(system, network, solution)
        result = tp.check_solution(system, assignment)
        checked += 1
        violations += len(result.violations)

    for kind, network, scen, alpha, solution, _ in oracle_pool["records"]:
        verify(network, solution, scen, alpha)
    for name in benchmark_pool["networks"]:
        verify(benchmark_pool["networks"][name], benchmark_pool["det"][name], None, 0.0)
        verify(benchmark_pool["networks"][name], benchmark_pool["sto"][name],
               benchmark_pool["scen"][name], 0.0)
    for network, scen, det, sto, fast in fast_pool["records"]:
        verify(network, det, None, 0.0)
        verify(network, sto, scen, 0.0)
        verify(network, fast, scen, 0.0)

    ok = checked > 40 and violations == 0
    assert _verdict(
        "criterion 2",
        ok,
        f"{checked} optimal solutions re-validated by the constraint checker, "
        f"{violations} violations at {CHECK_TOLERANCE} tolerance",
    )


def test_criterion_3_robustness_ordering(benchmark_pool):
    started = time.monotonic()
    net = benchmark_pool["networks"]["factory6"]
    det = benchmark_pool["det"]["factory6"]
    sto = benchmark_pool["sto"]["factory6"]
    assert det.status == "optimal" and sto.status == "optimal"
    eval_cfg = tp.ScenarioConfig(count=1000, seed=11)
    det_eval = tp.out_of_sample(det.plan, net, eval_cfg)
    sto_eval = tp.out_of_sample(sto.plan, net, eval_cfg)
    det_max = max(det_eval.per_vehicle_failure)
    sto_max = max(sto_eval.per_vehicle_failure)
    elapsed = time.monotonic() - started
    ok = sto_max < det_max and sto_max < 0.05 and elapsed < 300.0
    assert _verdict(
        "criterion 3",
        ok,
        f"factory6 @1000 trials: deterministic max failure {det_max:.4f}, "
        f"robust max failure {sto_max:.4f} (bound 0.05), {elapsed:.1f}s",
    )


def test_criterion_4_cost_ordering(benchmark_pool, fast_pool):
    pairs = []
    for name in ("tri3", "tri3_wide", "factory6"):
        det = benchmark_pool["det"][name]
        sto = benchmark_pool["sto"][name]
        pairs.append((name, det.objective, sto.objective))
    for idx, (network, scen, det, sto, _) in enumerate(fast_pool["records"]):
        if sto.status != "optimal":
            continue
        pairs.append((f"seeded-{idx}", det.objective, sto.objective))

    ordered = all(s >= d - OBJ_TOL for _, d, s in pairs if d is not None and s is not None)
    wide_det = benchmark_pool["det"]["tri3_wide"].objective
    wide_sto = benchmark_pool["sto"]["tri3_wide"].objective
    equality = _equal_obj(wide_det, wide_sto)
    ok = ordered and equality
    assert _verdict(
        "criterion 4",
        ok,
        f"robust cost >= nominal cost on {len(pairs)} instances; "
        f"equality on tri3_wide ({wide_det:g} m = {wide_sto:g} m)",
    )


def test_criterion_5_fast_path(fast_pool):
    records = fast_pool["records"]
    mismatches = sum(
        1 for _, _, _, sto, fast in records
        if sto.status != fast.status or not _equal_obj(sto.objective, fast.objective))
    # The exact search steps the per-scenario times only where the float
    # bound misses a window, so on these slack instances it stays within a
    # small factor of the single-scenario fast path.
    ratio = fast_pool["t_sto"] / fast_pool["t_fast"]
    ok = mismatches == 0 and len(records) == 20 and ratio <= 3.0
    assert _verdict(
        "criterion 5",
        ok,
        f"20 seeded instances at 30 scenarios: {mismatches} status/objective "
        f"mismatches; exact solve takes {ratio:.1f}x the fast path's time "
        f"({fast_pool['t_sto']:.2f}s vs {fast_pool['t_fast']:.2f}s, limit 3x)",
    )


def test_criterion_6_sampler_statistics():
    class CountingRng:
        """Counts the normals drawn, rejected ones included."""

        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)
            self.drawn = 0

        def normal(self, mean, std, size):
            self.drawn += size
            return self.rng.normal(mean, std, size)

    # 448 nodes have 100,128 arcs, one multiplier each.
    nv = 448
    rng = CountingRng(918273)
    mult, _ = sample_time_matrix(np.ones((nv, nv)), rng)
    draws = mult[np.triu_indices(nv, 1)]
    mean = float(draws.mean())
    std = float(draws.std(ddof=1))
    nonpositive = int((draws <= 0).sum())
    raw_negative = (rng.drawn - draws.size) / rng.drawn
    closed_form = 1.0 + 0.5 * norm.pdf(2.0) / norm.cdf(2.0)
    ok = (1.02 <= mean <= 1.04 and 0.46 <= std <= 0.50 and nonpositive == 0
          and 0.020 <= raw_negative <= 0.026)
    assert _verdict(
        "criterion 6",
        ok,
        f"{draws.size} draws: mean {mean:.4f} (closed form {closed_form:.4f}), "
        f"std {std:.4f}, non-positive {nonpositive}, "
        f"raw negative rate {raw_negative:.4f} (Phi(-2) = {norm.cdf(-2.0):.4f})",
    )


def test_criterion_7_in_sample_consistency(benchmark_pool, fast_pool):
    worst = 0
    plans = 0
    for name in ("tri3", "tri3_wide", "factory6"):
        sto = benchmark_pool["sto"][name]
        if sto.status == "optimal":
            fails = tp.replay_failures(sto.plan, benchmark_pool["networks"][name],
                                       benchmark_pool["scen"][name])
            worst = max(worst, int(fails.max()))
            plans += 1
    for network, scen, _, sto, fast in fast_pool["records"]:
        for solution in (sto, fast):
            if solution.status == "optimal":
                fails = tp.replay_failures(solution.plan, network, scen)
                worst = max(worst, int(fails.max()))
                plans += 1
    ok = plans >= 10 and worst == 0
    assert _verdict(
        "criterion 7",
        ok,
        f"{plans} zero-ignored robust plans replayed on their own scenario "
        f"sets; worst per-vehicle failure count {worst}",
    )


def test_criterion_8_determinism(tmp_path, monkeypatch, capsys):
    tri3 = str(INSTANCES / "tri3.json")

    def run_all(workdir):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli_main(["sample", "--instance", tri3, "--scenarios", "12",
                         "--seed", "7", "--out", "scen.json"]) == 0
        assert cli_main(["solve", "--instance", tri3, "--mode", "det",
                         "--out", "det.json"]) == 0
        assert cli_main(["solve", "--instance", tri3, "--mode", "sto",
                         "--scenarios", "12", "--seed", "7",
                         "--out", "sto.json"]) == 0
        assert cli_main(["evaluate", "--instance", tri3, "--plan", "det.json",
                         "--trials", "300", "--seed", "11",
                         "--out", "eval.json"]) == 0
        return {name: (workdir / name).read_bytes()
                for name in ("scen.json", "det.json", "sto.json", "eval.json")}

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    capsys.readouterr()
    identical = first == second
    assert _verdict(
        "criterion 8",
        identical,
        f"artifacts byte-identical across reruns ({len(first)} artifacts compared)",
    )


def test_criterion_9_performance(benchmark_pool):
    tri3_det = benchmark_pool["det_time"]["tri3"]
    factory6_sto = benchmark_pool["sto_time"]["factory6"]
    ok = tri3_det < 1.0 and factory6_sto < 60.0
    assert _verdict(
        "criterion 9",
        ok,
        f"tri3 deterministic solve {tri3_det * 1000:.0f} ms (< 1 s); "
        f"factory6 robust solve at 30 scenarios {factory6_sto:.2f} s (< 60 s)",
    )
