"""Command-line pipeline: sample scenarios, solve, evaluate.

One command per pipeline stage, composed through JSON artifacts so every
stage can be replayed and audited.  Every artifact embeds the run manifest
(command, inputs, mode, seeds, output path, tool version) and is written with
sorted keys, so identical inputs produce byte-identical files.

Exit codes: 0 success/optimal, 1 usage or input error (every rejected
input raises `ValueError`, whose message goes to stderr) or a run out of
memory, 2 infeasible, 3 time limit reached.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .evaluator import DISPATCH_POLICY, out_of_sample, wilson_interval
from .formulation import build_deterministic, build_stochastic, write_lp_text
from .instance import PdpNetwork, build_network, is_integer, load_instance
from .scenarios import (ScenarioConfig, ScenarioSet, generate_scenarios,
                        scenario_set_from_dict, scenario_set_to_dict)
from .solver import (STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_TIME_LIMIT_INCUMBENT,
                     STATUS_TIME_LIMIT_NO_INCUMBENT, RoutePlan, SolveConfig, Solution,
                     solve_alpha_zero_fast, solve_deterministic, solve_stochastic)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3
_EXIT_CODES = {STATUS_OPTIMAL: EXIT_OK, STATUS_INFEASIBLE: EXIT_INFEASIBLE,
               STATUS_TIME_LIMIT_INCUMBENT: EXIT_TIME_LIMIT,
               STATUS_TIME_LIMIT_NO_INCUMBENT: EXIT_TIME_LIMIT}


def _writable(name: str) -> Path:
    """Output file `name`, checked before any work: a directory, or a path
    whose parent directory cannot be created, raises `ValueError`."""
    path = Path(name)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}")
    if path.is_dir():
        raise ValueError(f"cannot write {path}: Is a directory")
    return path


def _write_text(path: Path, text: str) -> None:
    """Write an output file; one that cannot be written raises `ValueError`."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_text(path: str, what: str) -> str:
    """The text of an input file; one that cannot be read as UTF-8 text raises
    `ValueError` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} file {path} is not UTF-8 text: {exc}")


def _read_json(path: str, what: str):
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}")


def _load_network(path: str) -> PdpNetwork:
    text = _read_text(path, "instance")
    try:
        return build_network(load_instance(text))
    except ValueError as exc:
        raise ValueError(f"invalid instance {path}: {exc}")


def _table(headers: list[str], rows: list[list[str]], footer: str) -> str:
    """The paper's MHE table: left-aligned columns two spaces apart, a rule
    under the headers, then `footer`."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = [headers, ["-" * w for w in widths], *rows]
    return "\n".join(["  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                      for line in lines] + [footer])


def _manifest(args: argparse.Namespace, command: str, out: Path) -> dict:
    manifest = {
        "command": command,
        "instance": args.instance,
        "out": str(out),
        "version": __version__,
    }
    for key in ("mode", "alpha", "scenarios", "scenario_file", "seed",
                "trials", "time_limit", "plan"):
        if hasattr(args, key):
            manifest[key] = getattr(args, key)
    return manifest


def _scenario_source(args: argparse.Namespace,
                     network: PdpNetwork) -> tuple[ScenarioSet | ScenarioConfig, dict]:
    """The set `--scenario-file` replays, or the config `--scenarios` draws."""
    if args.scenario_file:
        if args.seed is not None:
            raise ValueError("--seed draws nothing with --scenario-file")
        doc = _read_json(args.scenario_file, "scenario")
        try:
            scen = scenario_set_from_dict(doc, network)
        except ValueError as exc:
            raise ValueError(f"invalid scenario file {args.scenario_file}: {exc}")
        return scen, {"source": "file", "path": args.scenario_file,
                      "count": scen.count, "seed": scen.seed}
    if not args.scenarios:
        raise ValueError("stochastic mode needs --scenarios N or --scenario-file PATH")
    # Only sampling draws, so only a sampled set's manifest records a seed.
    if args.seed is None:
        args.seed = 0
    config = ScenarioConfig(count=args.scenarios, seed=args.seed)
    return config, {"source": "sampled", "count": config.count, "seed": config.seed}


def _solution_payload(solution: Solution, network: PdpNetwork, manifest: dict,
                      provenance: dict | None) -> dict:
    payload: dict = {
        "manifest": manifest,
        "status": solution.status,
        "alpha": solution.alpha,
        "task_count": network.n,
        "vehicles": network.vehicle_count,
        "objective_m": solution.objective,
        "stats": dataclasses.asdict(solution.stats),
    }
    if provenance is not None:
        payload["scenario_provenance"] = provenance
    if solution.plan is not None:
        payload["routes_v"] = [list(r) for r in solution.plan.routes]
        payload["routes_v_str"] = solution.plan.route_strings()
        payload["routes_labels"] = solution.plan.label_strings(network)
        schedule = solution.schedule
        payload["schedule"] = {
            "service_times": schedule.times.tolist(),
            "per_scenario": schedule.times.ndim == 3,
        }
        if schedule.ignored is not None:
            payload["schedule"]["ignored_scenarios"] = [
                int(s) for s in schedule.ignored.nonzero()[0]]
    if solution.infeasible_task is not None:
        payload["infeasible_task"] = solution.infeasible_task
    if solution.limiting_scenarios:
        payload["limiting_scenarios"] = list(solution.limiting_scenarios)
    return payload


def cmd_solve(args: argparse.Namespace) -> int:
    network = _load_network(args.instance)
    config = SolveConfig(alpha=args.alpha, time_limit=args.time_limit)
    if args.mode == "det":
        if args.alpha != 0.0:
            raise ValueError("--mode det solves under nominal times and takes no --alpha")
        if args.scenarios or args.scenario_file:
            raise ValueError("--mode det solves under nominal times and takes no "
                           "--scenarios or --scenario-file")
        if args.seed is not None:
            raise ValueError("--mode det solves under nominal times and takes no --seed")
    elif args.mode == "sto-fast" and args.alpha != 0.0:
        raise ValueError("--mode sto-fast requires --alpha 0")
    source, provenance = (None, None) if args.mode == "det" else _scenario_source(args, network)
    # After the argument and input checks, so a usage error leaves nothing
    # behind; before sampling, so an unwritable output costs no work.
    out = _writable(args.out or f"{Path(args.instance).stem}.solution.json")
    lp_path = args.export_lp and _writable(args.export_lp)

    if source is None:
        solution = solve_deterministic(network, config)
    else:
        scen = source if isinstance(source, ScenarioSet) else generate_scenarios(network, source)
        solve = solve_alpha_zero_fast if args.mode == "sto-fast" else solve_stochastic
        solution = solve(network, scen, config)

    if lp_path:
        system = (build_deterministic(network) if source is None
                  else build_stochastic(network, scen, args.alpha))
        _write_text(lp_path, write_lp_text(system))

    payload = _solution_payload(solution, network, _manifest(args, "solve", out), provenance)
    _write_json(out, payload)

    footer = f"status: {payload['status']}"
    if payload["objective_m"] is not None:
        footer += f"    total distance: {payload['objective_m']:g} m"
    routes = zip(payload.get("routes_v_str", []), payload.get("routes_labels", []))
    print(_table(["MHE", "V Nodes", "Graph Nodes"],
                 [[str(k), v, g] for k, (v, g) in enumerate(routes, 1)], footer))
    if solution.infeasible_task:
        where = {"det": "", "sto": f" in scenarios weighing more than alpha = {args.alpha:g}",
                 "sto-fast": " under the worst-case times"}[args.mode]
        print(f"certificate: no plan serves task {solution.infeasible_task} in time{where}",
              file=sys.stderr)
    if solution.limiting_scenarios:
        print(f"limiting scenarios: {list(solution.limiting_scenarios)}", file=sys.stderr)
    print(f"artifact: {out}")
    return _EXIT_CODES[solution.status]


def cmd_evaluate(args: argparse.Namespace) -> int:
    network = _load_network(args.instance)
    config = ScenarioConfig(count=args.trials, seed=args.seed)
    plan_doc = _read_json(args.plan, "plan")
    if not isinstance(plan_doc, dict):
        raise ValueError(f"invalid plan {args.plan}: must be a JSON object")
    if "routes_v" not in plan_doc:
        raise ValueError(f"plan artifact {args.plan} carries no routes "
                       "(was the solve infeasible?)")
    task_count = plan_doc.get("task_count")
    if not is_integer(task_count):
        raise ValueError(f"invalid plan {args.plan}: task_count must be an integer, "
                       f"got {task_count!r}")
    if task_count != network.n:
        raise ValueError(f"plan/instance mismatch: plan has {task_count} tasks, "
                         f"instance has {network.n}")
    routes = plan_doc["routes_v"]
    if not isinstance(routes, list) or not all(isinstance(r, list) for r in routes):
        raise ValueError(f"invalid plan {args.plan}: routes_v must be a list of routes")
    try:
        plan = RoutePlan(routes=tuple(tuple(r) for r in routes), n=network.n)
    except ValueError as exc:
        raise ValueError(f"invalid plan {args.plan}: {exc}")

    out = _writable(args.out or f"{Path(args.plan).stem}.evaluation.json")
    report = out_of_sample(plan, network, config)

    rows = [{"vehicle": k, "route_v": v, "route_labels": g, "failure": f, "half_width": h}
            for k, (v, g, f, h) in enumerate(zip(plan.route_strings(),
                                                 plan.label_strings(network),
                                                 report.per_vehicle_failure,
                                                 report.per_vehicle_half_width), 1)]
    payload = {
        "manifest": _manifest(args, "evaluate", out),
        "trials": report.trials,
        "seed": report.seed,
        "policy": DISPATCH_POLICY,
        "rows": rows,
        "overall": {
            "failure": report.overall_failure,
            "half_width": report.overall_half_width,
        },
    }
    _write_json(out, payload)
    low, high = wilson_interval(report.overall_failure, report.trials)
    print(_table(["MHE", "V Nodes", "Graph Nodes", "% Failure"],
                 [[str(r["vehicle"]), r["route_v"], r["route_labels"], f"{r['failure']:.6g}"]
                  for r in rows],
                 f"trials: {report.trials}    seed: {report.seed}    policy: {DISPATCH_POLICY}"
                 f"    overall failure: {report.overall_failure:.6g}"
                 f" (95% CI [{low:.2g}, {high:.2g}])"))
    print(f"artifact: {out}")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    network = _load_network(args.instance)
    config = ScenarioConfig(count=args.scenarios, seed=args.seed)
    out = _writable(args.out or f"{Path(args.instance).stem}.scenarios.json")
    scen = generate_scenarios(network, config)
    payload = scenario_set_to_dict(scen)
    payload["manifest"] = _manifest(args, "sample", out)
    _write_json(out, payload)
    print(f"sampled {scen.count} scenarios (seed {config.seed}) -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tugplan",
        description="Pickup-and-delivery route planning for factory logistics "
                    "with scenario-robust scheduling and Monte Carlo evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"tugplan {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="solve an instance and write a plan artifact")
    solve.add_argument("--instance", required=True, help="instance JSON file")
    solve.add_argument("--mode", choices=["det", "sto", "sto-fast"], default="det")
    solve.add_argument("--alpha", type=float, default=0.0,
                       help="allowed ignored probability mass (stochastic modes)")
    scenario_source = solve.add_mutually_exclusive_group()
    scenario_source.add_argument("--scenarios", type=int, default=0,
                                 help="number of travel-time scenarios to sample")
    scenario_source.add_argument("--scenario-file", default=None,
                                 help="replay a scenario artifact instead of sampling")
    solve.add_argument("--seed", type=int, default=None,
                       help="scenario sampling seed (with --scenarios, default 0)")
    solve.add_argument("--time-limit", type=float, default=SolveConfig.time_limit,
                       dest="time_limit")
    solve.add_argument("--out", default=None, help="artifact path")
    solve.add_argument("--export-lp", default=None, dest="export_lp",
                       help="also write the constraint system in LP format")
    solve.set_defaults(func=cmd_solve)

    evaluate = sub.add_parser("evaluate", help="Monte Carlo evaluation of a plan artifact")
    evaluate.add_argument("--instance", required=True)
    evaluate.add_argument("--plan", required=True, help="solution artifact from solve")
    evaluate.add_argument("--trials", type=int, default=1000)
    evaluate.add_argument("--seed", type=int, default=0, help="evaluation seed")
    evaluate.add_argument("--out", default=None)
    evaluate.set_defaults(func=cmd_evaluate)

    sample = sub.add_parser("sample", help="sample scenarios into a replayable artifact")
    sample.add_argument("--instance", required=True)
    sample.add_argument("--scenarios", type=int, required=True)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", default=None)
    sample.set_defaults(func=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the documented code.
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
