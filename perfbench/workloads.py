"""The benchmark's workloads: the operations of one pass, how each runs, and
the checks on its output.

An operation is one sample, one solve, one evaluate or one CLI command.  Each
carries the metric classes it counts toward (`tight`, `loose`, `alpha0`,
`alpha_pos` for solves; `cli` and `eval` for commands).  The benchmark runs
the same operations every pass; the first pass is checked in full and later
passes must reproduce its fingerprints.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tugplan import cli, evaluator, formulation, scenarios, solver
from tugplan.instance import build_network, load_instance

from gen import factory_instance

DEFAULT_SEED = 0
TIME_LIMIT_S = 60.0
# The formulation checker builds the whole constraint system: seconds per
# plan at S = 300, and at S = 30 on a four-task instance about three times
# the solve.  So it checks plans with S <= 30 on factory6 and on every
# FORMULATION_EVERY-th generated instance; every plan gets the replay check.
FORMULATION_MAX_SCENARIOS = 30
FORMULATION_EVERY = 10
EPS = 1e-6

TAG_TIGHT, TAG_LOOSE, TAG_SCENARIOS, TAG_EVALUATION = 1, 2, 3, 4


def derive(seed: int, tag: int, *index: int) -> int:
    """A generator, scenario or evaluation seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, tag, *index]).generate_state(1)[0])


def scenario_seed(seed: int, key: str, count: int) -> int:
    """The seed of instance `key`'s `count` scenarios.  Each instance draws
    its own: instances share the layout, so a shared seed would give them
    the same draws and make their costs rise and fall together."""
    return derive(seed, TAG_SCENARIOS, count, zlib.crc32(key.encode()))


def routes_sha256(routes) -> str:
    text = json.dumps([[int(v) for v in route] for route in routes])
    return hashlib.sha256(text.encode()).hexdigest()


def solve_fingerprint(status: str, objective, routes) -> dict:
    return {"status": status, "objective": objective,
            "routes_sha256": None if routes is None else routes_sha256(routes)}


@dataclass
class State:
    """What one run shares between operations: networks, sampled scenario
    sets, solutions, constraint systems for the checks, and how CLI commands
    are executed."""

    root: Path
    networks: dict
    in_process_cli: bool = False
    scenario_sets: dict = field(default_factory=dict)
    solutions: dict = field(default_factory=dict)
    systems: dict = field(default_factory=dict)


@dataclass
class Result:
    """What an operation returned, kept for its checks and fingerprint."""

    value: object
    exit_code: int | None = None
    rss_kb: int = 0
    timed_out: bool = False


def _time_limited(status: str) -> bool:
    return status in (solver.STATUS_TIME_LIMIT_INCUMBENT,
                      solver.STATUS_TIME_LIMIT_NO_INCUMBENT)


def _system(state: State, net: str, scen_key, scen_set, alpha: float):
    """The constraint system a plan is checked against, built once per
    (instance, scenario set, alpha): building costs most of a check.  The
    checks visit one instance's plans in a row, so only its systems are
    kept."""
    key = (net, scen_key, alpha)
    if any(cached[0] != net for cached in state.systems):
        state.systems.clear()
    if key not in state.systems:
        network = state.networks[net]
        if scen_set is None:
            state.systems[key] = formulation.build_deterministic(network)
        else:
            state.systems[key] = formulation.build_stochastic(network, scen_set, alpha)
    return state.systems[key]


def _formulation_checked(net: str) -> bool:
    """factory6 and its twin always; generated instances (`<windows>-n<tasks>-<i>`)
    when i is a multiple of FORMULATION_EVERY."""
    index = net.rsplit("-", 1)[-1]
    return not index.isdigit() or int(index) % FORMULATION_EVERY == 0


def _failed_mass(plan: solver.RoutePlan, network, scen_set) -> float:
    """Probability of the scenarios in which some route of `plan` misses a
    window, by replaying each route with `evaluator.simulate_route`."""
    mass = 0.0
    for s in range(scen_set.count):
        times = scen_set.travel_times[s]
        if not all(evaluator.simulate_route(route, times, network.open_time,
                                            network.close_time).ok
                   for route in plan.routes):
            mass += float(scen_set.probabilities[s])
    return mass


def _plan_checks(state: State, net: str, scen_key, scen_set, alpha: float,
                 plan: solver.RoutePlan, objective: float, schedule_solution) -> list[str]:
    """Checks that need no golden value: objective against the plan's
    distance; the formulation checker (see FORMULATION_EVERY); zero
    in-sample replay failures for alpha = 0 scenario plans, at most alpha of
    failed probability for alpha > 0 plans, and none under nominal times
    for det plans."""
    network = state.networks[net]
    problems = []
    distance = plan.distance(network.travel_dist)
    if abs(distance - objective) > EPS:
        problems.append(f"objective {objective} != plan distance {distance}")
    if _formulation_checked(net) and (scen_set is None
                                      or scen_set.count <= FORMULATION_MAX_SCENARIOS):
        system = _system(state, net, scen_key, scen_set, alpha)
        assignment = solver.assignment_from_solution(system, network, schedule_solution)
        verdict = formulation.check_solution(system, assignment)
        if not verdict.feasible:
            first = verdict.violations[0]
            problems.append(f"checker: {len(verdict.violations)} violations, "
                            f"first {first.constraint} ({first.tag}) by {first.amount:g}")
    if scen_set is None:
        if _failed_mass(plan, network, scenarios.single_scenario(network.travel_time)) > 0.0:
            problems.append("det plan misses a window under nominal times")
    elif alpha == 0.0:
        failures = evaluator.replay_failures(plan, network, scen_set)
        if failures.any():
            problems.append(f"alpha = 0 plan fails its own scenarios: {failures.tolist()}")
    else:
        mass = _failed_mass(plan, network, scen_set)
        if mass > alpha + EPS:
            problems.append(f"alpha = {alpha} plan fails {mass:g} of its scenarios' probability")
    return problems


@dataclass
class Sample:
    """In-process `generate_scenarios`."""

    case: str
    net: str
    count: int
    seed: int
    classes: tuple = ()
    in_process = True

    def prepare(self, state: State) -> None:
        pass

    def run(self, state: State, limit: float) -> Result:
        config = scenarios.ScenarioConfig(count=self.count, seed=self.seed)
        scen = scenarios.generate_scenarios(state.networks[self.net], config)
        state.scenario_sets[self.case] = scen
        return Result(scen)

    def fingerprint(self, state: State, result: Result) -> dict:
        mults = np.ascontiguousarray(result.value.multipliers, dtype="<f8")
        return {"count": result.value.count,
                "multipliers_sha256": hashlib.sha256(mults.tobytes()).hexdigest()}

    def check(self, state: State, result: Result) -> list[str]:
        return []


@dataclass
class Solve:
    """In-process solve: `det`, `sto` or `sto-fast`.  `scen` names the Sample
    operation whose scenario set it solves against."""

    case: str
    net: str
    mode: str
    classes: tuple
    alpha: float = 0.0
    scen: str | None = None
    in_process = True

    def prepare(self, state: State) -> None:
        pass

    def run(self, state: State, limit: float) -> Result:
        network = state.networks[self.net]
        config = solver.SolveConfig(alpha=self.alpha, time_limit=limit)
        if self.mode == "det":
            solution = solver.solve_deterministic(network, config)
        elif self.mode == "sto":
            solution = solver.solve_stochastic(network, state.scenario_sets[self.scen], config)
        else:
            solution = solver.solve_alpha_zero_fast(network, state.scenario_sets[self.scen], config)
        state.solutions[self.case] = solution
        return Result(solution, timed_out=_time_limited(solution.status))

    def fingerprint(self, state: State, result: Result) -> dict:
        sol = result.value
        return solve_fingerprint(sol.status, sol.objective,
                                 None if sol.plan is None else sol.plan.routes)

    def check(self, state: State, result: Result) -> list[str]:
        sol = result.value
        if sol.plan is None:
            return []
        scen_set = None if self.mode == "det" else state.scenario_sets[self.scen]
        return _plan_checks(state, self.net, self.scen, scen_set, self.alpha,
                            sol.plan, sol.objective, sol)


def run_command(argv: list[str], env: dict, timeout: float) -> tuple[int, int, bool]:
    """Run a command to completion; return (exit code, peak RSS in KiB of
    that process, killed on timeout).  `os.wait4` gives the child's own
    resource usage; polling lets the deadline apply without a helper thread."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            killed = True
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, killed


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


EXPECTED_EXIT = {solver.STATUS_OPTIMAL: cli.EXIT_OK,
                 solver.STATUS_INFEASIBLE: cli.EXIT_INFEASIBLE}


@dataclass
class Command:
    """One `tugplan` command.  Untraced runs start a fresh interpreter per
    command; traced runs call `tugplan.cli.main` in-process.

    `scen` says how to rebuild the scenario set a solve used, for its checks:
    ("file", path) or ("sample", count, seed).  `plan_from` names an
    in-process solve whose plan is written to the `--plan` file first."""

    case: str
    argv: list
    out: str
    classes: tuple
    net: str
    alpha: float = 0.0
    scen: tuple | None = None
    trials: int = 0
    plan_from: str | None = None
    plan_path: str | None = None
    in_process = False

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def prepare(self, state: State) -> None:
        if self.plan_from is not None:
            plan = state.solutions[self.plan_from].plan
            doc = {"task_count": plan.n, "routes_v": [list(r) for r in plan.routes]}
            Path(self.plan_path).write_text(json.dumps(doc), encoding="utf-8")

    def run(self, state: State, limit: float) -> Result:
        argv = list(self.argv)
        if self.subcommand == "solve":
            argv += ["--time-limit", repr(limit)]
        if state.in_process_cli:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return Result(None, exit_code=code, timed_out=code == cli.EXIT_TIME_LIMIT)
        code, rss_kb, killed = run_command(
            [sys.executable, "-m", "tugplan.cli"] + argv, cli_env(state.root),
            timeout=limit + 10.0)
        return Result(None, exit_code=code, rss_kb=rss_kb,
                      timed_out=killed or code == cli.EXIT_TIME_LIMIT)

    def fingerprint(self, state: State, result: Result) -> dict:
        """Also keeps the artifact in `result.value` for the checks, since a
        later pass overwrites the file."""
        if result.exit_code not in (cli.EXIT_OK, cli.EXIT_INFEASIBLE):
            return {"exit_code": result.exit_code}
        doc = result.value = json.loads(Path(self.out).read_text(encoding="utf-8"))
        if self.subcommand == "solve":
            return solve_fingerprint(doc["status"], doc["objective_m"], doc.get("routes_v"))
        if self.subcommand == "sample":
            mults = np.asarray(doc["multipliers"], dtype="<f8")
            return {"count": len(doc["probabilities"]),
                    "multipliers_sha256": hashlib.sha256(mults.tobytes()).hexdigest()}
        return {"trials": doc["trials"], "overall_failure": doc["overall"]["failure"],
                "per_vehicle_failure": [row["failure"] for row in doc["rows"]]}

    def _scenario_set(self, state: State):
        network = state.networks[self.net]
        if self.scen is None:
            return None
        if self.scen[0] == "file":
            doc = json.loads(Path(self.scen[1]).read_text(encoding="utf-8"))
            return scenarios.scenario_set_from_dict(doc, network)
        config = scenarios.ScenarioConfig(count=self.scen[1], seed=self.scen[2])
        return scenarios.generate_scenarios(network, config)

    def check(self, state: State, result: Result) -> list[str]:
        if self.subcommand != "solve":
            if result.exit_code != cli.EXIT_OK:
                return [f"exit code {result.exit_code}"]
            if self.subcommand == "evaluate":
                doc = result.value
                if doc["trials"] != self.trials or not 0.0 <= doc["overall"]["failure"] <= 1.0:
                    return [f"evaluation report is inconsistent: {doc['overall']}"]
            return []
        if result.exit_code not in (cli.EXIT_OK, cli.EXIT_INFEASIBLE):
            return [f"exit code {result.exit_code}"]
        doc = result.value
        if EXPECTED_EXIT.get(doc["status"]) != result.exit_code:
            return [f"exit code {result.exit_code} does not match status {doc['status']}"]
        if "routes_v" not in doc:
            return []
        network = state.networks[self.net]
        plan = solver.RoutePlan(routes=tuple(tuple(r) for r in doc["routes_v"]), n=network.n)
        times = np.asarray(doc["schedule"]["service_times"], dtype=float)
        ignored = None
        if doc["schedule"]["per_scenario"]:
            ignored = np.zeros(times.shape[2], dtype=bool)
            ignored[doc["schedule"].get("ignored_scenarios", [])] = True
        stats = solver.SearchStats(0, 0, 0)
        rebuilt = solver.Solution(status=doc["status"], plan=plan,
                                  schedule=solver.Schedule(times=times, ignored=ignored),
                                  objective=doc["objective_m"], stats=stats, alpha=self.alpha)
        return _plan_checks(state, self.net, self.scen, self._scenario_set(state), self.alpha,
                            plan, doc["objective_m"], rebuilt)


# --- workload definitions -------------------------------------------------

def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _factory6_docs(root: Path) -> tuple[dict, dict]:
    """The bundled factory6 instance and its loose-window twin (every
    deadline moved to release + 1000 s)."""
    doc = json.loads((root / "instances" / "factory6.json").read_text(encoding="utf-8"))
    loose = json.loads(json.dumps(doc))
    for task in loose["tasks"]:
        task["latest_delivery_s"] = task["earliest_pickup_s"] + 1000.0
    loose["horizon"] = 1200.0
    loose["notes"] = "factory6 with every delivery window widened to 1000 s"
    return doc, loose


@dataclass
class Workload:
    name: str
    instances: dict  # instance key -> file path
    ops: list
    cli_only: bool = False

    def networks(self) -> dict:
        return {key: build_network(load_instance(Path(path).read_text(encoding="utf-8")))
                for key, path in self.instances.items()}


def _windows(key: str) -> str:
    return "loose" if "loose" in key else "tight"


def _robust_runs(key: str, seed: int, big: bool) -> list:
    """Sampling and the scenario solves of one instance: S = 30 at alpha = 0
    and alpha > 0 and sto-fast at S = 30, plus, when `big`, S = 300 at
    alpha = 0 and sto-fast at S = 300."""
    win = _windows(key)
    ops = [Sample(f"{key}/sample-s30", key, 30, scenario_seed(seed, key, 30)),
           Solve(f"{key}/sto-a0-s30", key, "sto", (win, "alpha0"), 0.0, f"{key}/sample-s30"),
           Solve(f"{key}/sto-a{ALPHA_POS}-s30", key, "sto", (win, "alpha_pos"), ALPHA_POS,
                 f"{key}/sample-s30"),
           Solve(f"{key}/fast-s30", key, "sto-fast", (win, "alpha0"), 0.0, f"{key}/sample-s30")]
    if big:
        ops += [Sample(f"{key}/sample-s300", key, 300, scenario_seed(seed, key, 300)),
                Solve(f"{key}/sto-a0-s300", key, "sto", (win, "alpha0"), 0.0,
                      f"{key}/sample-s300"),
                Solve(f"{key}/fast-s300", key, "sto-fast", (win, "alpha0"), 0.0,
                      f"{key}/sample-s300")]
    return ops


def _verdict(work: Path, key: str, plan_from: str, trials: int, seed: int,
             copy: int = 0) -> Command:
    """`tugplan evaluate` of an in-process plan: the Monte Carlo verdict."""
    plan_path = str(work / f"{key}.plan.json")
    out = str(work / f"{key}.evaluation.json")
    return Command(f"cli/evaluate-{key}#{copy}",
                   ["evaluate", "--instance", f"@{key}", "--plan", plan_path,
                    "--trials", str(trials), "--seed", str(derive(seed, TAG_EVALUATION)),
                    "--out", out],
                   out, ("cli", "eval"), key, trials=trials, plan_from=plan_from,
                   plan_path=plan_path)


def _generated(work: Path, seed: int, tasks: int, tight: int, loose: int,
               instances: dict) -> list[str]:
    """Write `tight` and `loose` generated instances with `tasks` tasks;
    return their keys with the two classes interleaved, so each class
    spreads over the whole pass."""
    keys = {}
    for windows, tag, count in (("tight", TAG_TIGHT, tight), ("loose", TAG_LOOSE, loose)):
        keys[windows] = []
        for i in range(count):
            key = f"{windows}-n{tasks}-{i:03d}"
            doc = factory_instance(derive(seed, tag, i, tasks), tasks, windows)
            instances[key] = _write(work / f"{key}.json", doc)
            keys[windows].append(key)
    merged = [(i / tight, key) for i, key in enumerate(keys["tight"])]
    merged += [((i + 0.5) / loose, key) for i, key in enumerate(keys["loose"])]
    return [key for _, key in sorted(merged)]


def _spread(ops: list, extras: list) -> list:
    """`ops` with the groups in `extras` inserted at evenly spaced points."""
    out, step = [], len(ops) / len(extras)
    for k, group in enumerate(extras):
        out += ops[round(k * step):round((k + 1) * step)] + group
    return out


# Sizes of one pass.  A metric sums many generated cases, because one case's
# cost varies from seed to seed by a third to a half of its mean.  Generated
# instances have four tasks: their search still takes thousands of nodes,
# and hundreds of them fit in a pass.  A CLI command's time varies by about
# a tenth even when scaled, so CLI metrics sum several commands.
TASKS = 4
NOMINAL_TIGHT, NOMINAL_LOOSE = 450, 325
COMPANION_TASKS, COMPANIONS = 3, 150
ROBUST_TIGHT, ROBUST_LOOSE, ROBUST_BIG = 100, 50, 10
VERDICTS, VERDICT_TRIALS = 4, 1000
STRESS_TRIALS, STRESS_SCENARIOS, STRESS_ALPHA_POS = 3000, 300, 4
ALPHA_POS = 0.1


def nominal_factory(root: Path, work: Path, seed: int) -> Workload:
    """`solve --mode det` on factory6, on its loose twin and on generated
    tight and loose instances.  To give every metric a value it also runs,
    spread over the pass, alpha > 0 solves on small generated instances
    (each with its own 30 scenarios) and the CLI verdict on the factory6
    plan; one sto-fast solve gives the per-layer metrics of that mode."""
    f6, f6_loose = _factory6_docs(root)
    instances = {"f6": _write(work / "f6.json", f6),
                 "f6-loose": _write(work / "f6-loose.json", f6_loose)}
    ops = [Solve("f6/det", "f6", "det", ("tight", "alpha0")),
           Solve("f6-loose/det", "f6-loose", "det", ("loose", "alpha0"))]
    keys = _generated(work, seed, TASKS, NOMINAL_TIGHT, NOMINAL_LOOSE, instances)
    main = [Solve(f"{key}/det", key, "det", (_windows(key), "alpha0")) for key in keys]
    companions = []
    for key in _generated(work, seed, COMPANION_TASKS, 0, COMPANIONS, instances):
        scen = f"{key}/sample-s30"
        companions.append([Sample(scen, key, 30, scenario_seed(seed, key, 30)),
                           Solve(f"{key}/sto-a{ALPHA_POS}-s30", key, "sto", ("alpha_pos",),
                                 ALPHA_POS, scen)])
    companions[0].append(Solve(f"{companions[0][0].net}/fast-s30", companions[0][0].net,
                               "sto-fast", (), 0.0, companions[0][0].case))
    main = _spread(main, companions)
    verdicts = [[_verdict(work, "f6", "f6/det", VERDICT_TRIALS, seed, k)]
                for k in range(VERDICTS)]
    return Workload("nominal-factory", instances, ops + _spread(main, verdicts))


def robust_factory(root: Path, work: Path, seed: int) -> Workload:
    """Scenario solves on generated tight and loose instances: S = 30 on all
    of them, S = 300 on some loose ones; sto-fast on factory6 at S = 30 and
    300.  A factory6 det solve gives the per-layer metrics of that mode, and
    the CLI verdict on a robust plan runs four times, spread over the
    pass."""
    f6, _ = _factory6_docs(root)
    instances = {"f6": _write(work / "f6.json", f6)}
    ops = [Solve("f6/det", "f6", "det", ())]
    for count in (30, 300):
        scen = f"f6/sample-s{count}"
        ops += [Sample(scen, "f6", count, scenario_seed(seed, "f6", count)),
                Solve(f"f6/fast-s{count}", "f6", "sto-fast", ("tight", "alpha0"), 0.0, scen)]
    keys = _generated(work, seed, TASKS, ROBUST_TIGHT, ROBUST_LOOSE, instances)
    loose = [key for key in keys if _windows(key) == "loose"]
    big = set(loose[:ROBUST_BIG])
    main = [op for key in keys for op in _robust_runs(key, seed, key in big)]
    # A loose alpha = 0 plan always exists: every task fits its 1000 s window.
    verdicts = [[_verdict(work, loose[0], f"{loose[0]}/sto-a0-s30", VERDICT_TRIALS, seed, k)]
                for k in range(VERDICTS)]
    return Workload("robust-factory", instances, ops + _spread(main, verdicts))


def stress_cli(root: Path, work: Path, seed: int) -> Workload:
    """The CLI, one command at a time.  On factory6, twice: sample 300
    scenarios, replay them with sto and sto-fast.  Once: solve det, and
    evaluate the nominal plan and both robust plans.  Four times, spread over the
    pass: sto at alpha > 0 on 30 scenarios of a generated loose instance;
    once: det on the loose twin.  Each class thus sums several commands,
    since one command's time varies by about a tenth."""
    f6, f6_loose = _factory6_docs(root)
    instances = {"f6": _write(work / "f6.json", f6),
                 "f6-loose": _write(work / "f6-loose.json", f6_loose)}
    pos_keys = _generated(work, seed, TASKS, 0, STRESS_ALPHA_POS, instances)
    eval_seed = str(derive(seed, TAG_EVALUATION))

    def out(name):
        return str(work / name)

    def replay(copy):
        """Sample a scenario file and replay it with sto and sto-fast."""
        scen_file = out(f"f6.scenarios-{copy}.json")
        scen_seed = scenario_seed(seed, f"f6#{copy}", STRESS_SCENARIOS)
        scen = ("file", scen_file)
        return [Command(f"cli/sample#{copy}",
                        ["sample", "--instance", "@f6", "--scenarios", str(STRESS_SCENARIOS),
                         "--seed", str(scen_seed), "--out", scen_file],
                        scen_file, ("cli",), "f6"),
                Command(f"cli/sto-a0-s300#{copy}",
                        ["solve", "--instance", "@f6", "--mode", "sto", "--scenario-file",
                         scen_file, "--out", out(f"sto-{copy}.json")],
                        out(f"sto-{copy}.json"), ("cli", "tight", "alpha0"), "f6", scen=scen),
                Command(f"cli/fast-s300#{copy}",
                        ["solve", "--instance", "@f6", "--mode", "sto-fast", "--scenario-file",
                         scen_file, "--out", out(f"fast-{copy}.json")],
                        out(f"fast-{copy}.json"), ("cli", "tight", "alpha0"), "f6", scen=scen)]

    def alpha_pos(copy):
        pos = pos_keys[copy]
        pos_seed = scenario_seed(seed, pos, 30)
        return Command(f"cli/{pos}/sto-a{ALPHA_POS}-s30",
                       ["solve", "--instance", f"@{pos}", "--mode", "sto", "--alpha",
                        str(ALPHA_POS), "--scenarios", "30", "--seed", str(pos_seed),
                        "--out", out("sto-pos.json")],
                       out("sto-pos.json"), ("cli", "loose", "alpha_pos"), pos,
                       alpha=ALPHA_POS, scen=("sample", 30, pos_seed))

    def evaluate(plan):
        return Command(f"cli/evaluate-{plan}",
                       ["evaluate", "--instance", "@f6", "--plan", out(f"{plan}.json"),
                        "--trials", str(STRESS_TRIALS), "--seed", eval_seed,
                        "--out", out(f"{plan}.evaluation.json")],
                       out(f"{plan}.evaluation.json"), ("cli", "eval"), "f6",
                       trials=STRESS_TRIALS)

    det = Command("cli/det", ["solve", "--instance", "@f6", "--mode", "det",
                              "--out", out("det.json")], out("det.json"),
                  ("cli", "tight", "alpha0"), "f6")
    det_loose = Command("cli/det-loose", ["solve", "--instance", "@f6-loose", "--mode", "det",
                                          "--out", out("det-loose.json")],
                        out("det-loose.json"), ("cli", "loose", "alpha0"), "f6-loose")
    ops = (replay(0) + [det, alpha_pos(0), evaluate("det"), alpha_pos(1), evaluate("sto-0")]
           + replay(1) + [alpha_pos(2), det_loose, evaluate("sto-1"), alpha_pos(3)])
    return Workload("stress-cli", instances, ops, cli_only=True)


BUILDERS = {"nominal-factory": nominal_factory, "robust-factory": robust_factory,
            "stress-cli": stress_cli}


def build_workload(name: str, root: Path, work: Path, seed: int) -> Workload:
    """Write the workload's instance files into `work` and list its
    operations.  `@key` in a command's arguments becomes the instance path."""
    workload = BUILDERS[name](root, work, seed)
    for op in workload.ops:
        if isinstance(op, Command):
            op.argv = [workload.instances[a[1:]] if a.startswith("@") else a for a in op.argv]
    return workload
