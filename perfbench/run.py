"""tugplan benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload nominal-factory --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src` directory next to
this one.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
machine facts.  A report with every failure by case id is written under
`.perfbench_work/reports`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One client, no extra threads: pin numeric libraries to one thread before
# numpy is first imported, here or in any child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from reference import SLICE_S, timed_slice  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# Reference slices timed per second of in-process operations.
REFERENCE_SHARE = 0.15
# Reference slices run right before and right after each fresh interpreter
# (CLI command, set-up probe).
BRACKET_SLICES = 20
# How a fresh interpreter's time grows with the slices' slowdown, as a power
# of it, fitted over runs of the same commands on this shared machine (see
# README.md): part of its time is process start-up and page faults, which
# slow down less than in-process code does.
INTERPRETER_ELASTICITY = 0.75
# No operation starts after this many seconds, so the run, its checks
# included, ends well within three minutes whatever the program does.
OPS_DEADLINE_S = 120.0
CHECKS_DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share",
    "solve_tight_s": "s", "solve_loose_s": "s", "solve_alpha0_s": "s",
    "solve_alpha_pos_s": "s", "cli_wall_s": "s", "eval_trials_per_s": "1/s",
}
CLASS_METRICS = {"solve_tight_s": "tight", "solve_loose_s": "loose",
                 "solve_alpha0_s": "alpha0", "solve_alpha_pos_s": "alpha_pos",
                 "cli_wall_s": "cli"}
MODES = ("det", "sto", "sto-fast")

SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import tugplan
t1 = time.perf_counter()
for path in json.load(open(sys.argv[1], encoding="utf-8")):
    with open(path, encoding="utf-8") as f:
        tugplan.build_network(tugplan.load_instance(f.read()))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "file": tugplan.__file__}))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import tugplan from this checkout's `src`, never from elsewhere."""
    if not (SRC / "tugplan" / "__init__.py").is_file():
        fail(f"no tugplan sources under {SRC}")
    if not (ROOT / "instances" / "factory6.json").is_file():
        fail("instances/factory6.json is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tugplan
    if Path(tugplan.__file__).resolve().parent != SRC / "tugplan":
        fail(f"imported tugplan from {tugplan.__file__}, not from {SRC}")
    return tugplan


@dataclass
class Pass:
    """One run of every operation: its records and wall time."""

    records: list
    wall: float


class Calibration:
    """Reference slices run after each in-process operation until they add
    up to REFERENCE_SHARE of the operations' time, so that they sample the
    speed of the CPU at the same moments as the operations do.  `factor` is
    the mean slice time over its nominal time: how much slower than the
    reference machine's unloaded speed the operations ran."""

    def __init__(self):
        self.work_s = 0.0
        self.samples: list[float] = []
        self.samples_s = 0.0

    def after(self, wall: float) -> None:
        self.work_s += wall
        while self.samples_s < REFERENCE_SHARE * self.work_s:
            self.samples.append(timed_slice())
            self.samples_s += self.samples[-1]

    def factor(self) -> float:
        return statistics.fmean(self.samples) / SLICE_S if self.samples else 1.0


def bracketed(run):
    """Run `run()` between two sets of reference slices; return its result
    and the speed factor of the slices.  A fresh interpreter runs for about
    a second, over which the CPU's speed changes several times, so each
    one gets its own factor from the moments right around it."""
    before = [timed_slice() for _ in range(BRACKET_SLICES)]
    result = run()
    after = [timed_slice() for _ in range(BRACKET_SLICES)]
    return result, statistics.fmean(before + after) / SLICE_S


def interpreter_scaled(wall: float, factor: float) -> float:
    """A fresh interpreter's `wall` at the reference machine's unloaded speed."""
    return wall / factor ** INTERPRETER_ELASTICITY


@dataclass
class Record:
    """One execution of one operation."""

    op: object
    wall: float = 0.0
    result: object = None
    fingerprint: dict | None = None
    failure: str | None = None
    rss_kb: int = 0
    factor: float = 1.0  # speed factor of a CLI command's bracketing slices


def run_pass(workload, state, deadline: float, tracer=None, calibration=None,
             keep=True) -> Pass:
    """Run every operation once.  With a tracer, the pass and each operation
    get a `bench.*` span; with a calibration, reference slices run after
    each operation.  `keep=False` drops results once they are
    fingerprinted."""
    from workloads import TIME_LIMIT_S

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    records = []
    start = time.perf_counter()
    with span("bench.pass"):
        for op in workload.ops:
            record = Record(op)
            records.append(record)
            remaining = deadline - time.monotonic()
            if remaining < 2.0:
                record.failure = "not started: run deadline"
                continue
            if tracer:
                tracer.case = op.case
            with span("bench.op") as op_span:
                try:
                    op.prepare(state)
                    limit = min(TIME_LIMIT_S, remaining - 1.0)

                    def timed():
                        t0 = time.perf_counter()
                        result = op.run(state, limit)
                        return result, time.perf_counter() - t0

                    if calibration and not op.in_process:
                        (record.result, record.wall), record.factor = bracketed(timed)
                    else:
                        record.result, record.wall = timed()
                    record.rss_kb = record.result.rss_kb
                    if record.result.timed_out:
                        record.failure = "time limit"
                    else:
                        record.fingerprint = op.fingerprint(state, record.result)
                    if tracer and not op.in_process:
                        op_span.counts = {"artifact_bytes": Path(op.out).stat().st_size}
                except Exception as exc:  # one failed operation must not end the run
                    record.failure = f"error: {type(exc).__name__}: {exc}"
            if not keep:
                record.result = None
            if calibration and op.in_process:
                calibration.after(record.wall)
    if tracer:
        tracer.case = None
    return Pass(records, time.perf_counter() - start)


def judge(passes: list[list[Record]], state, golden: dict | None, checks_deadline: float) -> None:
    """Set `failure` on every record that fails: the first pass gets the
    independent checks and, at the default seed, the golden comparison;
    later passes must reproduce the first pass's fingerprints."""
    first = passes[0]
    for record in first:
        if record.failure:
            continue
        if time.monotonic() > checks_deadline:
            record.failure = "not checked: run deadline"
            continue
        try:
            problems = record.op.check(state, record.result)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if golden is not None:
            expected = golden.get(record.op.case)
            if expected is None:
                problems.append("no golden entry")
            elif expected != record.fingerprint:
                problems.append(f"golden mismatch: expected {expected}, got {record.fingerprint}")
        if problems:
            record.failure = "; ".join(problems)
    for later in passes[1:]:
        for record, reference in zip(later, first):
            if record.failure is None and record.fingerprint != reference.fingerprint:
                record.failure = "differs from the first pass"


def tally(passes: list[list[Record]]) -> tuple[int, list, list]:
    """(attempted, failures, wrong answers); a failure is (pass, case,
    reason).  Time limits and operations the run deadline stopped are
    failures but not wrong answers."""
    attempted = sum(len(p) for p in passes)
    failures = [(i, r.op.case, r.failure) for i, p in enumerate(passes)
                for r in p if r.failure]
    wrong = [f for f in failures if not f[2].startswith(("time limit", "not "))]
    return attempted, failures, wrong


def class_sums(records: list[Record], factor: float | None = None) -> dict[str, float]:
    """Time of one pass per class, and of its evaluations.  With `factor`,
    scaled: in-process operations by that speed factor, CLI commands by
    their own; without, raw."""
    def wall(r):
        if factor is None:
            return r.wall
        return r.wall / factor if r.op.in_process else interpreter_scaled(r.wall, r.factor)

    sums = {name: sum(wall(r) for r in records if cls in r.op.classes)
            for name, cls in CLASS_METRICS.items()}
    sums["eval_s"] = sum(wall(r) for r in records if "eval" in r.op.classes)
    return sums


def end_to_end_metrics(passes: list[list[Record]], probes: list[dict], factor: float,
                       peak_kb: int, ok_share: float) -> dict[str, float]:
    """Per class, the mean over passes of its scaled time; the median scaled
    set-up probe; peak memory; the share of operations that did not fail."""
    per_pass = [class_sums(records, factor) for records in passes]
    mean = {name: statistics.fmean(p[name] for p in per_pass) for name in per_pass[0]}
    trials = sum(r.op.trials for r in passes[0] if "eval" in r.op.classes)
    metrics = {name: mean[name] for name in CLASS_METRICS}
    metrics.update(eval_trials_per_s=trials / mean["eval_s"] if mean["eval_s"] else 0.0,
                   setup_s=statistics.median(interpreter_scaled(p["wall_s"], p["factor"])
                                             for p in probes),
                   peak_rss_mb=peak_kb / 1024.0, ok_share=ok_share)
    return {name: metrics[name] for name in END_TO_END_UNITS}


def measure_setup(workload, work: Path, env: dict, deadline: float,
                  calibrated: bool) -> list[dict]:
    """Fresh interpreters that import tugplan and build every network the
    workload uses; each probe's wall time is measured from outside, and
    when `calibrated`, between reference slices."""
    listing = work / "setup-instances.json"
    listing.write_text(json.dumps(list(workload.instances.values())), encoding="utf-8")

    def timed():
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(listing)], env=env,
                              capture_output=True, text=True,
                              timeout=max(5.0, deadline - time.monotonic()))
        return done, time.perf_counter() - t0

    probes = []
    for _ in range(SETUP_REPEATS):
        (done, wall), factor = bracketed(timed) if calibrated else (timed(), 1.0)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(probe["file"]).resolve().parent != SRC / "tugplan":
            fail(f"set-up probe imported tugplan from {probe['file']}")
        probe["wall_s"] = wall
        probe["factor"] = factor
        probes.append(probe)
    return probes


def trace_targets():
    """(modules, attribute, span name, count) for every public call timed
    by the traced run.  `tugplan.cli` holds its own references to the names
    it imports, so those are patched too."""
    from tugplan import cli, evaluator, instance, scenarios, solver

    def search(solution):
        return {"nodes": solution.stats.nodes_explored,
                "bound_prunes": solution.stats.bound_prunes,
                "window_prunes": solution.stats.window_prunes}

    return [
        ((instance, cli), "load_instance", "instance.load", None),
        ((instance, cli), "build_network", "instance.build", None),
        ((instance,), "shortest_travel_matrix", "instance.dijkstra", None),
        ((scenarios, cli), "generate_scenarios", "scenarios.generate", None),
        ((scenarios, evaluator), "sample_time_matrix", "scenarios.matrix",
         lambda _: {"matrices": 1}),
        ((solver, cli), "solve_deterministic", "solver.det", search),
        ((solver, cli), "solve_stochastic", "solver.sto", search),
        ((solver, cli), "solve_alpha_zero_fast", "solver.sto-fast", search),
        ((evaluator, cli), "out_of_sample", "evaluator.eval", lambda r: {"trials": r.trials}),
        ((cli,), "main", "cli.main", None),
    ]


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def layer_of(span_name: str) -> str:
    return span_name if span_name.startswith("solver.") else span_name.split(".")[0]


def per_layer_metrics(spans, probes: list[dict], untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass, and the self time per layer."""
    from spans import counts_of, layer_self_times

    own = layer_self_times(spans, layer_of)
    traced_wall = spans[0].duration

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    m = {"setup.import_s": statistics.median(p["import_s"] for p in probes),
         "instance.build_s": statistics.median(p["build_s"] for p in probes),
         "instance.load_s": own.get("instance", 0.0),
         "scenarios.sample_s": own.get("scenarios", 0.0)}
    matrices = counts_of(spans, "scenarios.matrix").get("matrices", 0)
    m["scenarios.matrices_per_s"] = ratio(matrices, m["scenarios.sample_s"])
    for mode in MODES:
        solve_s = own.get(f"solver.{mode}", 0.0)
        counts = counts_of(spans, f"solver.{mode}")
        m[f"solver.{mode}.solve_s"] = solve_s
        m[f"solver.{mode}.nodes"] = counts.get("nodes", 0)
        m[f"solver.{mode}.nodes_per_s"] = ratio(counts.get("nodes", 0), solve_s)
        m[f"solver.{mode}.bound_prunes"] = counts.get("bound_prunes", 0)
        m[f"solver.{mode}.window_prunes"] = counts.get("window_prunes", 0)
    m["evaluator.eval_s"] = own.get("evaluator", 0.0)
    eval_inclusive = sum(s.duration for s in spans if s.name == "evaluator.eval")
    m["evaluator.trials_per_s"] = ratio(counts_of(spans, "evaluator.eval").get("trials", 0),
                                        eval_inclusive)
    m["cli.self_s"] = own.get("cli", 0.0)
    m["cli.artifact_bytes"] = counts_of(spans, "bench.op").get("artifact_bytes", 0)
    m["bench.self_s"] = own.get("bench", 0.0)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m, own


def machine_facts(tugplan) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tugplan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "pinned_cpu": next(iter(os.sched_getaffinity(0))),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "tugplan": tugplan.__version__,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "platform": platform.platform()}


def load_golden(workload: str) -> dict:
    path = HERE / "golden.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {})


def write_golden(workload: str, records: list[Record]) -> None:
    path = HERE / "golden.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    doc[workload] = {r.op.case: r.fingerprint for r in records}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU.  The CPUs of
    a shared machine slow down independently of each other; pinned, the
    reference slices sample the speed of the CPU the measured work runs on.
    A fresh interpreter's time then follows the slices run around it with a
    correlation of 0.67, and 0.9 over blocks of eight, against 0.1 to 0.2
    unpinned."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["nominal-factory", "robust-factory", "stress-cli"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the first pass's fingerprints as the golden "
                             "entries (default seed only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")

    pin_to_one_cpu()
    tugplan = import_program()
    from spans import Tracer
    from workloads import DEFAULT_SEED, State, build_workload, cli_env

    if args.write_golden and args.seed != DEFAULT_SEED:
        fail(f"golden entries are recorded at the default seed {DEFAULT_SEED}")
    facts = machine_facts(tugplan)
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = build_workload(args.workload, ROOT, work, args.seed)
        ops_deadline = started + OPS_DEADLINE_S
        env = cli_env(ROOT)
        probes = measure_setup(workload, work, env, ops_deadline, not args.trace)
        state = State(ROOT, workload.networks(), in_process_cli=bool(args.trace))
        phases = {"setup": time.monotonic() - started}

        calibration = None if args.trace else Calibration()
        runs = [run_pass(workload, state, ops_deadline, calibration=calibration)]
        # Peak memory of the first pass: later passes repeat its work, and
        # how many of them fit depends on the machine's speed.
        if workload.cli_only:
            peak_kb = max(r.rss_kb for r in runs[0].records)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spans = None
        if args.trace:
            tracer = Tracer()
            with tracer.patch(trace_targets()):
                runs.append(run_pass(workload, state, ops_deadline, tracer, keep=False))
            spans = tracer.spans
            # An untraced pass after the traced one, to compare against: the
            # first pass also pays for warming up.
            runs.append(run_pass(workload, state, ops_deadline, keep=False))
        else:
            measured = runs[0].wall
            while (measured + runs[-1].wall / 2 <= args.seconds
                   and time.monotonic() + runs[-1].wall < ops_deadline):
                runs.append(run_pass(workload, state, ops_deadline,
                                     calibration=calibration, keep=False))
                measured += runs[-1].wall
        passes = [run.records for run in runs]

        golden = None
        if args.seed == DEFAULT_SEED and not args.write_golden:
            golden = load_golden(args.workload)
        phases["passes"] = sum(run.wall for run in runs)
        checks_start = time.monotonic()
        judge(passes, state, golden, started + CHECKS_DEADLINE_S)
        phases["checks"] = time.monotonic() - checks_start
        if args.write_golden:
            if any(r.failure for r in passes[0]):
                fail("not writing golden entries: the first pass has failures")
            write_golden(args.workload, passes[0])

        attempted, failures, wrong = tally(passes)
        layers = per_pass = factor = commands = None
        if args.trace:
            metrics, layers = per_layer_metrics(spans, probes, runs[2].wall)
            units = {name: layer_unit(name) for name in metrics}
        else:
            factor = calibration.factor()
            metrics = end_to_end_metrics(passes, probes, factor, peak_kb,
                                         (attempted - len(failures)) / attempted)
            per_pass = [class_sums(records) for records in passes]
            commands = [(r.op.case, r.wall, r.factor) for r in passes[0] if not r.op.in_process]
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": facts, "passes": len(passes),
              "setup_probes": probes, "metrics": metrics, "speed_factor": factor, "first_pass_commands": commands,
              "raw_class_sums_per_pass": per_pass, "phases_s": phases,
              "layer_self_s": layers,
              "failures": [{"pass": i, "case": c, "reason": why} for i, c, why in failures]}
    reports = work_root / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for i, case, why in failures:
        print(f"FAILED pass {i} {case}: {why}", file=sys.stderr)
    if layers is not None:
        print("layer self time (s) in the traced pass:", file=sys.stderr)
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:18s} {seconds:9.4f}", file=sys.stderr)
        print(f"  {'sum':18s} {sum(layers.values()):9.4f}  "
              f"(traced wall {metrics['trace.wall_s']:.4f})", file=sys.stderr)
    print("facts: " + json.dumps(facts, sort_keys=True))
    result = {"correct": not wrong, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
