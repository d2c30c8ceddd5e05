import json
from pathlib import Path

import pytest

from tugplan import cli
from tugplan.cli import main

INSTANCES = Path(__file__).parent.parent / "instances"
TRI3 = str(INSTANCES / "tri3.json")
FACTORY6 = str(INSTANCES / "factory6.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
                                          "root_bound_m"}
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
        code, _, stderr = run(capsys, "evaluate", "--instance", TRI3, "--plan", str(out),
                              "--out", str(tmp_path / "e.json"))
        assert code == 1
        assert "carries no routes" in stderr
        assert not (tmp_path / "e.json").exists()

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
