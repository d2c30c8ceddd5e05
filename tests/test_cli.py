import errno
import hashlib
import json
from pathlib import Path

import pytest

from tugplan import cli
from tugplan.cli import main

from conftest import gen, overflowing_sum_dict, overflowing_time_dict

INSTANCES = Path(__file__).parent.parent / "instances"
TRI3 = str(INSTANCES / "tri3.json")
TRI3_WIDE = str(INSTANCES / "tri3_wide.json")
FACTORY6 = str(INSTANCES / "factory6.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _table_digest(stdout):
    """sha256 of stdout without its `artifact:` line, the one line naming a path."""
    kept = [line for line in stdout.splitlines(keepends=True)
            if not line.startswith("artifact: ")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def _infinite_arc(doc):
    """A scenario document whose first scenario stretches arc 1-2 to infinity."""
    doc["multipliers"][0][1][2] = doc["multipliers"][0][2][1] = float("inf")
    return doc


def _overflowing_arcs(doc):
    """A scenario document whose finite multipliers overflow every travel time."""
    for matrix in doc["multipliers"]:
        for i, row in enumerate(matrix):
            row[:] = [1.0 if i == j else 1e307 for j in range(len(row))]
    return doc


class TestSolveCommand:
    def test_deterministic_solve(self, tmp_path, capsys):
        out = tmp_path / "det.json"
        code, stdout, _ = run(capsys, "solve", "--instance", TRI3, "--mode", "det",
                              "--out", str(out))
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["status"] == "optimal"
        assert artifact["objective_m"] == pytest.approx(90.0)
        assert artifact["manifest"]["command"] == "solve"
        assert artifact["manifest"]["version"]
        assert set(artifact["stats"]) == {"nodes_explored", "bound_prunes",
                                          "window_prunes", "lookahead_prunes",
                                          "root_bound_m", "seed_m", "split_prunes",
                                          "twin_prunes"}
        # The shortest walk from the depot through A, B and C and back is
        # the 60 m ring; the windows push the optimum to 90 m.
        assert artifact["stats"]["root_bound_m"] == pytest.approx(60.0)
        assert "V Nodes" in stdout and "Graph Nodes" in stdout

    def test_stochastic_objective_dominates(self, tmp_path, capsys):
        out = tmp_path / "sto.json"
        code, _, _ = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                         "--alpha", "0", "--scenarios", "30", "--seed", "7",
                         "--out", str(out))
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["objective_m"] >= 90.0 - 1e-9
        assert artifact["scenario_provenance"]["seed"] == 7

    def test_missing_instance_exits_one(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "solve", "--instance",
                              str(tmp_path / "missing.json"))
        assert code == 1
        assert "not found" in stderr

    def test_infeasible_exits_two(self, tmp_path, capsys):
        doc = json.loads(Path(TRI3).read_text())
        doc["tasks"][0]["latest_delivery_s"] = 5.0
        doc["tasks"][0]["earliest_pickup_s"] = 0.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", "--instance", str(bad),
                              "--out", str(tmp_path / "o.json"))
        assert code == 2
        assert "T1" in stderr

    def test_invalid_instance_exits_one(self, tmp_path, capsys):
        doc = json.loads(Path(TRI3).read_text())
        doc["tasks"][1]["id"] = doc["tasks"][0]["id"]
        bad, out = tmp_path / "bad.json", tmp_path / "o.json"
        bad.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", "--instance", str(bad), "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert "tasks: duplicate task id 'T1'" in stderr
        assert not out.exists()

    def test_unservable_instance_names_its_task(self, tmp_path, capsys):
        # The bundled unservable16 is the benchmark's tight seed 3 at 16
        # tasks, whose T4 no plan serves: the solve ends at the root, as CI's
        # entry-point step checks through the console script.
        path = INSTANCES / "unservable16.json"
        doc = json.loads(path.read_text())
        assert doc["notes"].startswith(gen.factory_instance(3, 16, "tight")["notes"])
        doc["notes"] = gen.factory_instance(3, 16, "tight")["notes"]
        assert doc == gen.factory_instance(3, 16, "tight")
        out = tmp_path / "o.json"
        code, _, stderr = run(capsys, "solve", "--instance", str(path), "--mode", "det",
                              "--time-limit", "10", "--out", str(out))
        assert code == 2
        assert '"infeasible_task": "T4"' in out.read_text()
        assert json.loads(out.read_text())["stats"]["nodes_explored"] == 0
        assert "certificate: no plan serves task T4 in time" in stderr

    @pytest.mark.parametrize("mode", ["sto", "sto-fast"])
    def test_unservable_instance_names_its_scenarios(self, tmp_path, capsys, mode):
        # On 30 scenarios of seed 0 both scenario modes end unservable16 at
        # the root.  sto-fast searches the maxima and names its limiting
        # scenarios by a second root test on the full stack's closure.
        out = tmp_path / "o.json"
        code, _, _ = run(capsys, "solve", "--instance", str(INSTANCES / "unservable16.json"),
                         "--mode", mode, "--scenarios", "30", "--seed", "0",
                         "--time-limit", "10", "--out", str(out))
        doc = json.loads(out.read_text())
        assert code == 2 and doc["stats"]["nodes_explored"] == 0
        assert doc["infeasible_task"] == "T1"
        assert doc["limiting_scenarios"] == [5, 7, 10, 12, 18, 21, 22, 24, 26, 29]

    def test_infeasible_sto_names_limiting_scenarios(self, tmp_path, capsys):
        # Scenario 1 stretches T1's own arc fourfold (10 s -> 40 s): from its
        # 10 s release the coupling alone overshoots the 40 s deadline, so
        # alpha = 0 admits no plan.  The artifact then carries no routes,
        # and evaluating it is a usage error.
        scen, out = tmp_path / "scen.json", tmp_path / "o.json"
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "3",
                   "--seed", "3", "--out", str(scen))[0] == 0
        doc = json.loads(scen.read_text())
        doc["multipliers"][1][1][3] = doc["multipliers"][1][3][1] = 4.0
        scen.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--scenario-file", str(scen), "--out", str(out))
        assert code == 2
        artifact = json.loads(out.read_text())
        assert artifact["status"] == "infeasible"
        assert artifact["limiting_scenarios"] == [1]
        assert "limiting scenarios: [1]" in stderr
        assert artifact["infeasible_task"] == "T1"
        assert ("certificate: no plan serves task T1 in time in scenarios weighing more "
                "than alpha = 0") in stderr
        code, _, stderr = run(capsys, "evaluate", "--instance", TRI3, "--plan", str(out),
                              "--out", str(tmp_path / "e.json"))
        assert code == 1
        assert "carries no routes" in stderr
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("case", ["series", "slow"])
    def test_overflowing_travel_time_exits_one(self, tmp_path, capsys, case):
        bad, out = tmp_path / "bad.json", tmp_path / "o.json"
        bad.write_text(json.dumps(overflowing_time_dict(case)))
        code, _, stderr = run(capsys, "solve", "--instance", str(bad), "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert "no finite travel time between 'DEP' and 'B'" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("make, case", [(overflowing_time_dict, "series"),
                                            (overflowing_time_dict, "slow"),
                                            (overflowing_sum_dict, "plan"),
                                            (overflowing_sum_dict, "window")],
                             ids=["series", "slow", "plan", "window"])
    def test_overflowing_document_is_an_invalid_instance(self, tmp_path, capsys, make, case):
        # The network rejects the sums, and the CLI names the instance for
        # it as for the parser's rejections.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(make(case)))
        code, _, stderr = run(capsys, "solve", "--instance", str(bad),
                              "--out", str(tmp_path / "o.json"))
        assert code == 1
        assert stderr.startswith(f"error: invalid instance {bad}: ")

    @pytest.mark.parametrize("case, field", [("plan", "travel_dist: 4 legs"),
                                             ("window", "close_time: 1.79e+308 s plus 4 legs")])
    @pytest.mark.parametrize("mode", [["--mode", "det"], ["--mode", "sto"],
                                      ["--mode", "sto-fast"],
                                      ["--mode", "det", "--export-lp", "m.lp"]],
                             ids=["det", "sto", "sto-fast", "export-lp"])
    def test_overflowing_plan_sum_exits_one(self, tmp_path, capsys, monkeypatch, case, field,
                                            mode):
        # Every travel time is finite, but a plan's distance or times are
        # not: each mode used to report `infeasible`, and the LP export to
        # overflow while computing its big-M constants.
        monkeypatch.chdir(tmp_path)
        bad, out = tmp_path / "bad.json", tmp_path / "o.json"
        bad.write_text(json.dumps(overflowing_sum_dict(case)))
        code, _, stderr = run(capsys, "solve", "--instance", str(bad), *mode, "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert field in stderr and "overflow" in stderr
        assert not out.exists() and not (tmp_path / "m.lp").exists()

    def test_time_out_returns_the_seed_plan(self, tmp_path, capsys):
        # tri3's search stops at its first node; the nearest-next seed is the
        # plan it reports.
        out = tmp_path / "o.json"
        code, _, _ = run(capsys, "solve", "--instance", TRI3, "--time-limit", "1e-9",
                         "--out", str(out))
        assert code == 3
        artifact = json.loads(out.read_text())
        assert artifact["status"] == "time-limit-with-incumbent"
        assert artifact["routes_v"] == [[0, 1, 3, 2, 4, 5], [0, 5]]
        assert artifact["objective_m"] == artifact["stats"]["seed_m"] == pytest.approx(90.0)

    def test_alpha_out_of_range_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--alpha", "1.5", "--scenarios", "3", "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert "alpha" in stderr and "1.5" in stderr
        assert not out.exists()

    def test_time_limit_exits_three(self, tmp_path, capsys):
        code, _, _ = run(capsys, "solve", "--instance", FACTORY6,
                         "--time-limit", "1e-6", "--out", str(tmp_path / "o.json"))
        assert code == 3
        artifact = json.loads((tmp_path / "o.json").read_text())
        assert artifact["status"].startswith("time-limit")

    def test_non_finite_horizon_exits_one(self, tmp_path, capsys):
        doc = json.loads(Path(TRI3).read_text())
        doc["horizon"] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert "Infinity" in bad.read_text()
        code, _, stderr = run(capsys, "solve", "--instance", str(bad),
                              "--out", str(tmp_path / "o.json"))
        assert code == 1
        assert "horizon" in stderr and "finite" in stderr

    def test_negative_scenario_probabilities_exit_one(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        run(capsys, "sample", "--instance", TRI3, "--scenarios", "2",
            "--seed", "7", "--out", str(scen))
        doc = json.loads(scen.read_text())
        doc["probabilities"] = [1.5, -0.5]
        scen.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--alpha", "0.4", "--scenario-file", str(scen),
                              "--out", str(tmp_path / "o.json"))
        assert code == 1
        assert "non-negative" in stderr

    @pytest.mark.parametrize("field, value", [("config", 500), ("seed", 77)])
    def test_scenario_file_provenance_mismatch_exits_one(self, tmp_path, capsys, field,
                                                          value):
        scen, out = tmp_path / "scen.json", tmp_path / "o.json"
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "3",
                   "--seed", "3", "--out", str(scen))[0] == 0
        doc = json.loads(scen.read_text())
        if field == "config":
            doc["config"]["count"] = value
        else:
            doc["seed"] = value
        scen.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto-fast",
                              "--scenario-file", str(scen), "--out", str(out))
        assert code == 1
        assert str(value) in stderr
        assert not out.exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: [], "document"),
        (lambda doc: {**doc, "config": 5}, "config"),
        (lambda doc: {**doc, "config": {**doc["config"], "count": "3"}}, "config count"),
        (lambda doc: {**doc, "seed": True, "config": {**doc["config"], "seed": True}},
         "config seed"),
        (lambda doc: {**doc, "seed": 3.0, "config": {**doc["config"], "seed": 3.0}},
         "config seed"),
        (_infinite_arc, "finite"),
        (_overflowing_arcs, "finite"),
        (lambda doc: {**doc, "probabilities": doc["probabilities"][:2]}, "multiplier count"),
        (lambda doc: {**doc, "multipliers": 1.0}, "shape ()"),
        (lambda doc: {**doc, "probabilities": [10 ** 400, 0, 0]}, "probabilities"),
        (lambda doc: {**doc, "multipliers": [[[10 ** 400]]]}, "multipliers"),
    ], ids=["list", "config-5", "count-string", "seed-bool", "seed-float", "infinity",
            "overflow", "probability-count", "scalar-multipliers", "huge-int",
            "huge-int-multiplier"])
    def test_malformed_scenario_file_exits_one(self, tmp_path, capsys, edit, field):
        scen, out = tmp_path / "scen.json", tmp_path / "o.json"
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "3",
                   "--seed", "3", "--out", str(scen))[0] == 0
        scen.write_text(json.dumps(edit(json.loads(scen.read_text()))))
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--scenario-file", str(scen), "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert field in stderr
        assert not out.exists()

    @pytest.mark.parametrize("field", ["probabilities", "multipliers"])
    def test_boolean_scenario_numbers_exit_one(self, tmp_path, capsys, field):
        # numpy reads true as 1.0, which is a valid probability of a
        # one-scenario file and the diagonal multiplier.
        scen, out = tmp_path / "scen.json", tmp_path / "o.json"
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "1",
                   "--seed", "3", "--out", str(scen))[0] == 0
        doc = json.loads(scen.read_text())
        if field == "probabilities":
            doc["probabilities"] = [True]
        else:
            doc["multipliers"][0][0][0] = True
        scen.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--scenario-file", str(scen), "--out", str(out))
        assert code == 1
        assert f"scenario {field} must be numbers, got True" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("where, key", [("config", "truncation"),
                                            ("scenario document", "multipliers"),
                                            ("scenario document", "probabilities")])
    def test_scenario_file_missing_key_exits_one(self, tmp_path, capsys, where, key):
        scen, out = tmp_path / "scen.json", tmp_path / "o.json"
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "3",
                   "--seed", "3", "--out", str(scen))[0] == 0
        doc = json.loads(scen.read_text())
        del (doc["config"] if where == "config" else doc)[key]
        scen.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--scenario-file", str(scen), "--out", str(out))
        assert code == 1
        assert f"{where} is missing the key '{key}'" in stderr
        assert not out.exists()

    def test_sto_fast_requires_alpha_zero(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto-fast",
                              "--alpha", "0.2", "--scenarios", "5",
                              "--out", str(tmp_path / "o.json"))
        assert code == 1
        assert "alpha" in stderr

    def test_sto_needs_scenario_source(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--out", str(tmp_path / "o.json"))
        assert code == 1
        assert "--scenarios" in stderr

    @pytest.mark.parametrize("extra, flag", [
        (["--alpha", "0.3"], "--alpha"),
        (["--scenarios", "5"], "--scenarios"),
        (["--scenario-file", "scen.json"], "--scenario-file"),
        (["--seed", "5"], "--seed"),
    ])
    def test_det_rejects_stochastic_inputs(self, tmp_path, capsys, extra, flag):
        out = tmp_path / "o.json"
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "det",
                              *extra, "--out", str(out))
        assert code == 1
        assert flag in stderr
        assert not out.exists()

    def test_seed_only_in_stochastic_manifests(self, tmp_path, capsys):
        det, sto = tmp_path / "det.json", tmp_path / "sto.json"
        scen, replay = tmp_path / "scen.json", tmp_path / "replay.json"
        assert run(capsys, "solve", "--instance", TRI3, "--out", str(det))[0] == 0
        assert run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                   "--scenarios", "3", "--out", str(sto))[0] == 0
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "3",
                   "--seed", "11", "--out", str(scen))[0] == 0
        assert run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                   "--scenario-file", str(scen), "--out", str(replay))[0] == 0
        assert json.loads(det.read_text())["manifest"]["seed"] is None
        assert json.loads(sto.read_text())["manifest"]["seed"] == 0
        # A replay draws nothing; its seed is the file's, in the provenance.
        replayed = json.loads(replay.read_text())
        assert replayed["manifest"]["seed"] is None
        assert replayed["scenario_provenance"]["seed"] == 11

    @pytest.mark.parametrize("mode", ["sto", "sto-fast"])
    def test_seed_rejected_with_scenario_file(self, tmp_path, capsys, mode):
        scen, out = tmp_path / "scen.json", tmp_path / "o.json"
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "3",
                   "--seed", "11", "--out", str(scen))[0] == 0
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", mode,
                              "--scenario-file", str(scen), "--seed", "9",
                              "--out", str(out))
        assert code == 1
        assert "--seed" in stderr and "--scenario-file" in stderr
        assert not out.exists()

    def test_scenario_count_and_file_are_exclusive(self, tmp_path, capsys):
        scen, out = tmp_path / "scen.json", tmp_path / "o.json"
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "4",
                   "--out", str(scen))[0] == 0
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--scenarios", "50", "--scenario-file", str(scen),
                              "--out", str(out))
        assert code == 1
        assert "--scenarios" in stderr and "--scenario-file" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["nan", "inf"])
    def test_non_finite_time_limit_exits_one(self, tmp_path, capsys, limit):
        out = tmp_path / "o.json"
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--time-limit", limit,
                              "--out", str(out))
        assert code == 1
        assert "time_limit" in stderr and "finite" in stderr
        assert not out.exists()

    def test_lp_export(self, tmp_path, capsys):
        lp = tmp_path / "model.lp"
        code, _, _ = run(capsys, "solve", "--instance", TRI3, "--export-lp", str(lp),
                         "--out", str(tmp_path / "o.json"))
        assert code == 0
        text = lp.read_text()
        assert text.startswith("Minimize") and text.rstrip().endswith("End")
        # The bytes pinned in tests/test_formulation.py.
        assert hashlib.sha256(lp.read_bytes()).hexdigest() == \
            "b0d4a94d0b9e45e4f07d711047e5edd6d968e7c7407517c2ab09e95650ef6e86"

    def test_idle_vehicles_change_nothing(self, tmp_path, capsys):
        # tri3 with 3,000 vehicles: the same 90 m plan, its two routes
        # first, then idle ones; each idle row of the evaluation fails in
        # no trial, and the overall failure is that of tri3's own fleet.
        doc = json.loads(Path(TRI3).read_text())
        doc["vehicles"] = 3000
        fleet = tmp_path / "fleet.json"
        fleet.write_text(json.dumps(doc))
        artifacts = {}
        for name, instance in (("tri3", TRI3), ("fleet", str(fleet))):
            plan, report = tmp_path / f"{name}-det.json", tmp_path / f"{name}-eval.json"
            assert run(capsys, "solve", "--instance", instance, "--mode", "det",
                       "--out", str(plan))[0] == 0
            assert run(capsys, "evaluate", "--instance", instance, "--plan", str(plan),
                       "--trials", "1000", "--out", str(report))[0] == 0
            artifacts[name] = json.loads(plan.read_text()), json.loads(report.read_text())
        (small, reference), (large, report) = artifacts["tri3"], artifacts["fleet"]
        assert large["objective_m"] == 90.0
        assert large["routes_v"][:2] == small["routes_v"]
        assert large["routes_v"][2:] == [[0, 5]] * 2998
        assert len(report["rows"]) == 3000 and report["rows"][:2] == reference["rows"]
        assert all(row["failure"] == 0.0 for row in report["rows"][2:])
        assert report["overall"] == reference["overall"]

    def test_fleet_beyond_the_index_range_exits_one(self, tmp_path, capsys):
        # 2**70 vehicles passed every check and then raised a bare
        # OverflowError from the idle routes' padding; the network rejects
        # it before any scenario or route is built.
        doc = json.loads(Path(TRI3).read_text())
        doc["vehicles"] = 2 ** 70
        fleet, out = tmp_path / "fleet.json", tmp_path / "o.json"
        fleet.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "solve", "--instance", str(fleet), "--mode", "sto",
                              "--scenarios", "30", "--out", str(out))
        assert code == 1 and stderr.count("\n") == 1
        assert stderr.startswith(f"error: invalid instance {fleet}: vehicle_count is "
                                 f"{2 ** 70}; a plan lists one route per vehicle, so a "
                                 f"fleet is at most 9223372036854775807")
        assert not out.exists()

    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        # `--scenarios 100000000000` asks numpy for 26.2 TiB; the run ends
        # in one line, not in numpy's traceback.
        def refuse(network, config):
            raise MemoryError(f"Unable to allocate 26.2 TiB for {config.count} scenarios")

        monkeypatch.setattr(cli, "generate_scenarios", refuse)
        out = tmp_path / "o.json"
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--scenarios", "100000000000", "--out", str(out))
        assert (code, stderr) == (1, "error: out of memory: Unable to allocate 26.2 TiB "
                                     "for 100000000000 scenarios\n")
        assert not out.exists()


class TestEvaluateCommand:
    @pytest.fixture
    def det_plan(self, tmp_path, capsys):
        out = tmp_path / "det.json"
        run(capsys, "solve", "--instance", TRI3, "--out", str(out))
        return out

    def test_evaluation_report(self, tmp_path, capsys, det_plan):
        out = tmp_path / "eval.json"
        code, stdout, _ = run(capsys, "evaluate", "--instance", TRI3,
                              "--plan", str(det_plan), "--trials", "1000",
                              "--seed", "11", "--out", str(out))
        assert code == 0
        assert "% Failure" in stdout
        artifact = json.loads(out.read_text())
        assert artifact["trials"] == 1000
        assert len(artifact["rows"]) == 2
        assert artifact["overall"]["failure"] >= max(r["failure"] for r in artifact["rows"]) - 1e-9

    def test_overall_failure_prints_the_wilson_bounds(self, tmp_path, capsys):
        # No trial fails: the interval is [0, z^2/N / (1 + z^2/N)], not the
        # share plus or minus the half-width.
        plan = tmp_path / "det.json"
        run(capsys, "solve", "--instance", TRI3_WIDE, "--mode", "det", "--out", str(plan))
        out = tmp_path / "eval.json"
        code, stdout, _ = run(capsys, "evaluate", "--instance", TRI3_WIDE, "--plan", str(plan),
                              "--trials", "500", "--out", str(out))
        assert code == 0
        assert "overall failure: 0 (95% CI [0, 0.0076])" in stdout
        assert "±" not in stdout
        # The artifact keeps the share and its half-width.
        overall = json.loads(out.read_text())["overall"]
        assert overall["failure"] == 0.0
        assert overall["half_width"] == pytest.approx(0.00381, abs=1e-5)

    def test_idle_routes_report_zero(self, tmp_path, capsys):
        plan = tmp_path / "idle.json"
        plan.write_text(json.dumps({"routes_v": [[0, 1, 3, 2, 4, 5], [0, 5]],
                                    "task_count": 2}))
        out = tmp_path / "eval.json"
        code, _, _ = run(capsys, "evaluate", "--instance", TRI3, "--plan", str(plan),
                         "--trials", "200", "--out", str(out))
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["rows"][1]["failure"] == 0.0

    @pytest.mark.parametrize("routes, reason", [
        ([[0, 1, 3, 5], [0, 5]], "not served"),
        ([[0, 3, 1, 2, 4, 5], [0, 5]], "without a prior pickup"),
        # Each of these would truncate or cast to the valid plan 0-1-3-2-4-5.
        ([[0, 1.9, 3, 2, 4, 5], [0, 5]], "node 1.9 is not an integer"),
        ([[0, True, 3, 2, 4, 5], [0, 5]], "node True is not an integer"),
        ([[0, "1", 3, 2, 4, 5], [0, 5]], "node '1' is not an integer"),
        ([[0, 1.0, 3, 2, 4, 5], [0, 5]], "node 1.0 is not an integer"),
        ("0-1-3-2-4-5", "routes_v must be a list of routes"),
        # A dict is the whole plan document.
        ({"routes_v": [[0, 1, 3, 2, 4, 5], [0, 5]], "task_count": 2.0},
         "task_count must be an integer"),
        ({"routes_v": [[0, 1, 3, 2, 4, 5], [0, 5]]}, "task_count must be an integer"),
        # tri3 has two vehicles.
        ([[0, 1, 3, 5], [0, 2, 4, 5], [0, 5]], "at most 2 vehicles"),
    ])
    def test_invalid_plan_rejected(self, tmp_path, capsys, routes, reason):
        plan = tmp_path / "bad.json"
        doc = routes if isinstance(routes, dict) else {"routes_v": routes, "task_count": 2}
        plan.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "evaluate", "--instance", TRI3, "--plan", str(plan),
                              "--trials", "10", "--out", str(tmp_path / "e.json"))
        assert code == 1
        assert reason in stderr
        assert not (tmp_path / "e.json").exists()

    def test_plan_must_be_an_object(self, tmp_path, capsys):
        plan = tmp_path / "list.json"
        plan.write_text("[]")
        code, _, stderr = run(capsys, "evaluate", "--instance", TRI3, "--plan", str(plan),
                              "--out", str(tmp_path / "e.json"))
        assert code == 1
        assert "must be a JSON object" in stderr
        assert not (tmp_path / "e.json").exists()

    def test_zero_trials_usage_error(self, tmp_path, capsys, det_plan):
        code, _, stderr = run(capsys, "evaluate", "--instance", TRI3,
                              "--plan", str(det_plan), "--trials", "0",
                              "--out", str(tmp_path / "e.json"))
        assert code == 1
        assert "trials" in stderr

    def test_zero_trials_rejected_before_the_plan_is_read(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        code, _, stderr = run(capsys, "evaluate", "--instance", TRI3,
                              "--plan", str(tmp_path / "missing.json"), "--trials", "0",
                              "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert "trials" in stderr and ">= 1, got 0" in stderr
        assert not out.exists()

    def test_task_count_mismatch(self, tmp_path, capsys, det_plan):
        code, _, stderr = run(capsys, "evaluate", "--instance", FACTORY6,
                              "--plan", str(det_plan), "--out", str(tmp_path / "e.json"))
        assert code == 1
        assert "mismatch" in stderr


class TestUnreadableInputs:
    @pytest.fixture(params=["directory", "latin-1", "not-json"])
    def unreadable(self, request, tmp_path):
        path = tmp_path / "input.json"
        if request.param == "directory":
            path.mkdir()
        elif request.param == "latin-1":
            path.write_bytes('{"notes": "Förderband"}'.encode("latin-1"))
        else:
            path.write_text('{"notes": ')
        return str(path)

    @pytest.mark.parametrize("flag", ["--instance", "--plan", "--scenario-file"])
    def test_unreadable_input_exits_one(self, tmp_path, capsys, unreadable, flag):
        out = str(tmp_path / "o.json")
        argv = {
            "--instance": ["solve", "--instance", unreadable],
            "--plan": ["evaluate", "--instance", TRI3, "--plan", unreadable],
            "--scenario-file": ["solve", "--instance", TRI3, "--mode", "sto",
                                "--scenario-file", unreadable],
        }[flag]
        code, _, stderr = run(capsys, *argv, "--out", out)
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert unreadable in stderr
        assert not Path(out).exists()


class TestUnwritableOutputs:
    @pytest.fixture(params=["directory", "under-a-file"])
    def unwritable(self, request, tmp_path):
        if request.param == "directory":
            path = tmp_path / "taken"
            path.mkdir()
            return str(path)
        (tmp_path / "file").write_text("")
        return str(tmp_path / "file" / "sub" / "o.json")

    @pytest.mark.parametrize("flag", ["solve --out", "solve --export-lp", "evaluate --out",
                                      "sample --out", "sto --out", "replay --export-lp"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, monkeypatch, unwritable,
                                         flag):
        plan, scen = tmp_path / "det.json", tmp_path / "scen.json"
        assert run(capsys, "solve", "--instance", TRI3, "--out", str(plan))[0] == 0
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "2",
                   "--out", str(scen))[0] == 0
        out, lp = tmp_path / "o.json", tmp_path / "m.lp"
        argv = {
            "solve --out": ["solve", "--instance", TRI3, "--out", unwritable,
                            "--export-lp", str(lp)],
            "solve --export-lp": ["solve", "--instance", TRI3, "--out", str(out),
                                  "--export-lp", unwritable],
            "evaluate --out": ["evaluate", "--instance", TRI3, "--plan", str(plan),
                               "--trials", "10", "--out", unwritable],
            "sample --out": ["sample", "--instance", TRI3, "--scenarios", "2",
                             "--out", unwritable],
            "sto --out": ["solve", "--instance", TRI3, "--mode", "sto", "--scenarios", "2",
                          "--out", unwritable, "--export-lp", str(lp)],
            "replay --export-lp": ["solve", "--instance", TRI3, "--mode", "sto-fast",
                                   "--scenario-file", str(scen), "--out", str(out),
                                   "--export-lp", unwritable],
        }[flag]

        # The outputs are checked before any sampling, search or LP text.
        def never(*args, **kwargs):
            raise AssertionError("work started before the outputs were checked")

        for name in ("generate_scenarios", "solve_deterministic", "solve_stochastic",
                     "solve_alpha_zero_fast", "out_of_sample", "write_lp_text"):
            monkeypatch.setattr(cli, name, never)
        code, _, stderr = run(capsys, *argv)
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert f"cannot write {unwritable}:" in stderr
        assert not out.exists() and not lp.exists()

    def test_failed_write_exits_one(self, tmp_path, capsys, monkeypatch):
        # An output that passes the up-front check can still fail to write,
        # on a full disk for one.
        def full(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full)
        out = tmp_path / "det.json"
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--out", str(out))
        assert code == 1
        assert stderr == f"error: cannot write {out}: No space left on device\n"


class TestSampleCommand:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "30",
                   "--seed", "7", "--out", str(a))[0] == 0
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "30",
                   "--seed", "7", "--out", str(b))[0] == 0
        raw_a, raw_b = a.read_bytes(), b.read_bytes()
        assert raw_a.replace(str(a).encode(), b"") == raw_b.replace(str(b).encode(), b"")

    def test_zero_scenarios_exits_one(self, tmp_path, capsys):
        out = tmp_path / "scen.json"
        code, _, stderr = run(capsys, "sample", "--instance", TRI3, "--scenarios", "0",
                              "--out", str(out))
        assert code == 1
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert "scenario" in stderr and ">= 1, got 0" in stderr
        assert not out.exists()

    def test_single_scenario_probability(self, tmp_path, capsys):
        out = tmp_path / "one.json"
        run(capsys, "sample", "--instance", TRI3, "--scenarios", "1", "--out", str(out))
        artifact = json.loads(out.read_text())
        assert artifact["probabilities"] == [1.0]

    def test_sample_then_solve_matches_direct(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        run(capsys, "sample", "--instance", TRI3, "--scenarios", "30",
            "--seed", "7", "--out", str(scen))
        via_file, direct = tmp_path / "f.json", tmp_path / "d.json"
        run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
            "--scenario-file", str(scen), "--out", str(via_file))
        run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
            "--scenarios", "30", "--seed", "7", "--out", str(direct))
        a = json.loads(via_file.read_text())
        b = json.loads(direct.read_text())
        for doc in (a, b):
            doc.pop("manifest")
            doc.pop("scenario_provenance")
        assert a == b


    def test_replayed_set_solves_exports_and_evaluates(self, tmp_path, capsys):
        # tri3_wide's 30 scenarios of seed 7, sampled once and replayed by
        # sto-fast and by sto at alpha 0.1: the sto LP equals that of the
        # set the solve draws itself, and the replayed plan's evaluation
        # prints the table TestPinnedStdout pins as sto-alpha-tri3-wide.
        scen = tmp_path / "scen.json"
        assert run(capsys, "sample", "--instance", TRI3_WIDE, "--scenarios", "30",
                   "--seed", "7", "--out", str(scen))[0] == 0
        assert run(capsys, "solve", "--instance", TRI3_WIDE, "--mode", "sto-fast",
                   "--scenario-file", str(scen), "--out", str(tmp_path / "fast.json"))[0] == 0
        plan = tmp_path / "sto.json"
        lps = []
        for source in (["--scenarios", "30", "--seed", "7"], ["--scenario-file", str(scen)]):
            lp = tmp_path / "sto.lp"
            assert run(capsys, "solve", "--instance", TRI3_WIDE, "--mode", "sto",
                       "--alpha", "0.1", *source, "--out", str(plan),
                       "--export-lp", str(lp))[0] == 0
            lps.append(lp.read_bytes())
        assert lps[0] == lps[1]
        code, stdout, _ = run(capsys, "evaluate", "--instance", TRI3_WIDE, "--plan", str(plan),
                              "--trials", "2500", "--out", str(tmp_path / "eval.json"))
        assert (code, _table_digest(stdout)) == (
            0, "d27c1fca4cf5491f11af232a7810f1618840bc5287e815f78a80ad45be560230")


    @pytest.mark.parametrize("algorithm", ["mt19937", None], ids=["renamed", "deleted"])
    def test_replay_of_another_generator_exits_one(self, tmp_path, capsys, algorithm):
        scen = tmp_path / "scen.json"
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "3",
                   "--seed", "7", "--out", str(scen))[0] == 0
        doc = json.loads(scen.read_text())
        if algorithm is None:
            del doc["algorithm"]
        else:
            doc["algorithm"] = algorithm
        scen.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        code, _, stderr = run(capsys, "solve", "--instance", TRI3, "--mode", "sto",
                              "--scenario-file", str(scen), "--out", str(out))
        assert code == 1 and stderr.startswith("error:") and stderr.count("\n") == 1
        assert f"algorithm {algorithm!r} does not match the seed" in stderr
        assert "'pcg64-seedsequence'" in stderr and not out.exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0


class TestStoFastMode:
    def test_conservative_on_colocated_deliveries(self, tmp_path, capsys):
        # tri3 at seed 7: per-scenario re-timing keeps a plan alive, but the
        # combined worst case admits none, so the shortcut reports infeasible.
        code, _, _ = run(capsys, "solve", "--instance", TRI3, "--mode", "sto-fast",
                         "--scenarios", "30", "--seed", "7",
                         "--out", str(tmp_path / "fast.json"))
        assert code == 2
        artifact = json.loads((tmp_path / "fast.json").read_text())
        assert artifact["status"] == "infeasible"

    def test_agrees_on_wide_windows(self, tmp_path, capsys):
        wide = str(INSTANCES / "tri3_wide.json")
        fast_out, sto_out = tmp_path / "fast.json", tmp_path / "sto.json"
        assert run(capsys, "solve", "--instance", wide, "--mode", "sto-fast",
                   "--scenarios", "30", "--seed", "7", "--out", str(fast_out))[0] == 0
        assert run(capsys, "solve", "--instance", wide, "--mode", "sto",
                   "--scenarios", "30", "--seed", "7", "--out", str(sto_out))[0] == 0
        fast = json.loads(fast_out.read_text())
        sto = json.loads(sto_out.read_text())
        assert fast["objective_m"] == sto["objective_m"] == 90.0
        assert fast["routes_v"] == sto["routes_v"]


class TestDefaultOutputs:
    def test_solve_derives_artifact_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run(capsys, "solve", "--instance", TRI3)
        assert code == 0
        assert (tmp_path / "tri3.solution.json").exists()
        assert "tri3.solution.json" in stdout

    def test_sample_and_evaluate_derive_names(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "sample", "--instance", TRI3, "--scenarios", "3")[0] == 0
        assert (tmp_path / "tri3.scenarios.json").exists()
        assert run(capsys, "solve", "--instance", TRI3)[0] == 0
        code, _, _ = run(capsys, "evaluate", "--instance", TRI3,
                         "--plan", "tri3.solution.json", "--trials", "50")
        assert code == 0
        assert (tmp_path / "tri3.solution.evaluation.json").exists()


# (instance, solve flags, exit code, stdout digest).
_SOLVE_PINS = {
    "det-tri3": (TRI3, ["--mode", "det"], 0,
                 "9b31545a30a1350af2c44bb06cca7837d1d739233de3242e38e3393a0fd18d41"),
    "sto-alpha-factory6": (
        FACTORY6, ["--mode", "sto", "--alpha", "0.1", "--scenarios", "30", "--seed", "3"], 0,
        "2751f5282661452d5b2852e33f556b98abc8f9990b78e620899377b23e8d3cfd"),
    "sto-fast-infeasible-factory6": (
        FACTORY6, ["--mode", "sto-fast", "--scenarios", "300", "--seed", "2"], 2,
        "85fa4c9aa83c350e6a426d46b7982302671742c8532bb557ef0dbdf090df973a"),
    "sto-factory6": (FACTORY6, ["--mode", "sto", "--scenarios", "300", "--seed", "1"], 0,
                     "839b4abb39b9d1967ea3b0c1f68e84d7acf68350ac7b9aef8625dc21f97a6b01"),
}

# (instance, solve flags of the plan, trials, stdout digest of its evaluation).
_EVALUATE_PINS = {
    "det-tri3": (TRI3, ["--mode", "det"], 2500,
                 "b27554b22e4298f09550519929124a0791446c781105a622ae34d3ce53242fd8"),
    "sto-factory6": (FACTORY6, ["--mode", "sto", "--scenarios", "300", "--seed", "1"], 1025,
                     "c7cf6d1df5ff3adf7bb01c2daf7b7b1d095f2d270e448f893f320359e2246263"),
    "sto-alpha-tri3-wide": (
        TRI3_WIDE, ["--mode", "sto", "--alpha", "0.1", "--scenarios", "30", "--seed", "7"],
        2500, "d27c1fca4cf5491f11af232a7810f1618840bc5287e815f78a80ad45be560230"),
}


class TestPinnedStdout:
    """The tables the commands print, byte for byte."""

    @pytest.mark.parametrize("instance, flags, code, digest", _SOLVE_PINS.values(),
                             ids=_SOLVE_PINS.keys())
    def test_solve(self, tmp_path, capsys, instance, flags, code, digest):
        got, stdout, _ = run(capsys, "solve", "--instance", instance, *flags,
                             "--out", str(tmp_path / "plan.json"))
        assert (got, _table_digest(stdout)) == (code, digest)

    @pytest.mark.parametrize("instance, flags, trials, digest", _EVALUATE_PINS.values(),
                             ids=_EVALUATE_PINS.keys())
    def test_evaluate(self, tmp_path, capsys, instance, flags, trials, digest):
        plan = str(tmp_path / "plan.json")
        assert run(capsys, "solve", "--instance", instance, *flags, "--out", plan)[0] == 0
        code, stdout, _ = run(capsys, "evaluate", "--instance", instance, "--plan", plan,
                              "--trials", str(trials), "--out", str(tmp_path / "eval.json"))
        assert (code, _table_digest(stdout)) == (0, digest)


# (instance, solve flags, exit code, sha256 of the artifact's bytes).
_ARTIFACT_PINS = {
    "det-tri3": ("tri3", ["--mode", "det"], 0,
                 "d575696f9e6a82c112b9ee01f28158023e623cabad761816016b122bd1814c91"),
    "det-factory6": ("factory6", ["--mode", "det"], 0,
                     "05b2f19ea1e68b4fca6a104913bfa8aea17723b2cbd79d3049a136cb55a176c0"),
    "sto-tri3": ("tri3", ["--mode", "sto", "--scenarios", "30", "--seed", "3"], 0,
                 "cf3f2380442dbb4bf46fcc1ffb8b9bd721b15ecdfbc5e7163b699504ea20d7d5"),
    "sto-factory6": ("factory6", ["--mode", "sto", "--scenarios", "30", "--seed", "3"], 0,
                     "2aed591f18892a7c8deb16efb33296bfa15af997fb2dd322c3f0e45a84feba36"),
    "sto-alpha-tri3": (
        "tri3", ["--mode", "sto", "--alpha", "0.1", "--scenarios", "30", "--seed", "3"], 0,
        "50a7dc830dbaa4634473b5d458ba201f2b4fcf4607d31144e0df11218a0af83e"),
    "sto-alpha-factory6": (
        "factory6", ["--mode", "sto", "--alpha", "0.1", "--scenarios", "30", "--seed", "3"], 0,
        "2f43916f3db8de842e74c8c392804052fcde8c2a4370bdf7b3c99283c3c17647"),
    # Infeasible: the artifact without routes.
    "sto-fast-tri3": ("tri3", ["--mode", "sto-fast", "--scenarios", "30", "--seed", "3"], 2,
                      "e6fed139f90e544cb41783ce324aa131e553bd6d31969fb55723dcefabbea623"),
    "sto-fast-factory6": (
        "factory6", ["--mode", "sto-fast", "--scenarios", "30", "--seed", "3"], 0,
        "a60a3d8981943c549eb248f337c2bfb03ca38de2210aaf5e6fda3d0b49cd53b6"),
}


def _artifact_digest(capsys, instance, *argv):
    """Exit code and artifact sha256 of one command run from the working
    directory on a copy of `instance`, every path relative, so the manifest
    reads alike on every machine."""
    Path(f"{instance}.json").write_bytes((INSTANCES / f"{instance}.json").read_bytes())
    code = run(capsys, *argv, "--instance", f"{instance}.json", "--out", "out.json")[0]
    return code, hashlib.sha256(Path("out.json").read_bytes()).hexdigest()


class TestPinnedArtifacts:
    """The artifacts `solve` and `evaluate` write, byte for byte: service
    times, stats and manifest included."""

    @pytest.mark.parametrize("instance, flags, code, digest", _ARTIFACT_PINS.values(),
                             ids=_ARTIFACT_PINS.keys())
    def test_solve(self, tmp_path, monkeypatch, capsys, instance, flags, code, digest):
        monkeypatch.chdir(tmp_path)
        assert _artifact_digest(capsys, instance, "solve", *flags) == (code, digest)

    def test_evaluate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        instance, flags, _, _ = _ARTIFACT_PINS["sto-alpha-factory6"]
        assert _artifact_digest(capsys, instance, "solve", *flags)[0] == 0
        Path("plan.json").write_bytes(Path("out.json").read_bytes())
        assert _artifact_digest(capsys, instance, "evaluate", "--plan", "plan.json",
                                "--trials", "1000") == (
            0, "8d3776261a88857bbf2b9faf4a4689c67b4b049d530b83da0e738e654b7419a7")
