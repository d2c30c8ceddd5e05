"""Plain-text tables for solutions and evaluation reports."""

from __future__ import annotations

from .evaluator import DISPATCH_POLICY, EvaluationReport, wilson_interval


def _render(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def solution_table(routes_v: list[str], routes_labels: list[str],
                   status: str, objective: float | None) -> str:
    rows = [[str(k + 1), v, g] for k, (v, g) in enumerate(zip(routes_v, routes_labels))]
    table = _render(["MHE", "V Nodes", "Graph Nodes"], rows)
    footer = f"status: {status}"
    if objective is not None:
        footer += f"    total distance: {objective:g} m"
    return table + "\n" + footer


def evaluation_table(routes_v: list[str], routes_labels: list[str],
                     report: EvaluationReport) -> str:
    rows = []
    for k, (v, g) in enumerate(zip(routes_v, routes_labels)):
        rows.append([str(k + 1), v, g, f"{report.per_vehicle_failure[k]:.6g}"])
    table = _render(["MHE", "V Nodes", "Graph Nodes", "% Failure"], rows)
    low, high = wilson_interval(report.overall_failure, report.trials)
    footer = (f"trials: {report.trials}    seed: {report.seed}    "
              f"policy: {DISPATCH_POLICY}    overall failure: {report.overall_failure:.6g}"
              f" (95% CI [{low:.2g}, {high:.2g}])")
    return table + "\n" + footer
