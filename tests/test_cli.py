"""Command-line surface: exit codes, error objects, and report determinism.

Most invocations go through main() in process for speed; one subprocess case
proves the module entry point works end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from skillsgraph import generate_cohort, planted_profile, summarize, write_cohort_csv
from skillsgraph.cli import main
from skillsgraph.cohort import report_to_dict

CASE_STUDY = Path(__file__).resolve().parents[1] / "scenarios" / "case_study"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def assert_error(capsys, exit_code, kind, *argv):
    """The command ends in exit_code with one JSON error line and no traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code == exit_code
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["kind"] == kind
    assert "Traceback" not in err
    return json.loads(out)["error"]["message"]


def assert_input_error(capsys, kind, *argv):
    """The command ends in exit 2 with one JSON error line and no traceback."""
    assert_error(capsys, 2, kind, *argv)


def case_study_graph(tmp_path, **node_changes) -> Path:
    """The case-study graph with node_changes applied to its first node."""
    graph = json.loads((CASE_STUDY / "graph.json").read_text())
    graph["nodes"][0].update(node_changes)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    return path


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, payload = run_json(capsys, "validate", "--graph", str(CASE_STUDY / "graph.json"))
        assert code == 0
        assert payload["acyclic"] is True

    def test_domain_error_is_one(self, capsys):
        code, payload = run_json(
            capsys,
            "path",
            "--graph", str(CASE_STUDY / "graph.json"),
            "--from", "v5",
            "--to", "v1",
        )
        assert code == 1
        assert payload["error"]["kind"] == "NoFeasiblePath"

    def test_bad_tau_is_domain_error(self, capsys):
        code, payload = run_json(
            capsys,
            "path",
            "--graph", str(CASE_STUDY / "graph.json"),
            "--from", "v1",
            "--to", "v5",
            "--tau", "-3",
        )
        assert code == 1
        assert payload["error"]["kind"] == "InvalidQuery"

    def test_negative_budget_is_domain_error(self, capsys):
        code, payload = run_json(
            capsys,
            "allocate",
            "--graph", str(CASE_STUDY / "graph.json"),
            "--budget", "-5",
        )
        assert code == 1
        assert payload["error"]["kind"] == "NegativeBudget"

    def test_malformed_graph_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, payload = run_json(capsys, "validate", "--graph", str(bad))
        assert code == 2
        assert "line" in payload["error"]["message"]

    def test_number_beyond_float_range_is_two(self, capsys, tmp_path):
        graph = json.loads((CASE_STUDY / "graph.json").read_text())
        text = json.dumps(graph).replace('"weight": 1.0', '"weight": 1' + "0" * 400, 1)
        assert "0" * 400 in text
        huge = tmp_path / "huge.json"
        huge.write_text(text)
        code, out, err = run_cli(capsys, "validate", "--graph", str(huge))
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["kind"] == "GraphFormatError"
        assert "Traceback" not in err

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, payload = run_json(capsys, "validate", "--graph", str(tmp_path / "absent.json"))
        assert code == 2
        assert payload["error"]["kind"] == "FileNotFound"

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["allocate", "--graph", "x.json", "--budget", "not-a-number"])
        assert exit_info.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "UsageError"

    def test_no_subcommand_is_two(self, capsys):
        assert main([]) == 2

    def test_error_object_is_single_line(self, capsys):
        code, out, err = run_cli(
            capsys, "path",
            "--graph", str(CASE_STUDY / "graph.json"),
            "--from", "v5", "--to", "v1",
        )
        assert code == 1
        assert out.count("\n") == 1
        assert set(json.loads(out)["error"]) == {"kind", "message"}
        assert "NoFeasiblePath" in err


class TestGraphCommands:
    def test_validate_reports_order(self, capsys):
        code, payload = run_json(capsys, "validate", "--graph", str(CASE_STUDY / "graph.json"))
        assert code == 0
        assert payload["topological_order"] == ["v1", "v2", "v3", "v4", "v5"]
        assert payload["nodes"] == 5
        assert payload["edges"] == 9

    def test_centrality_fixture(self, capsys):
        code, payload = run_json(capsys, "centrality", "--graph", str(CASE_STUDY / "graph.json"))
        assert code == 0
        got = payload["centrality"]
        assert got["v1"] == pytest.approx(3 / 9, abs=1e-12)
        assert got["v2"] == pytest.approx(3 / 9, abs=1e-12)
        assert got["v3"] == pytest.approx(2 / 9, abs=1e-12)
        assert got["v4"] == pytest.approx(1 / 9, abs=1e-12)
        assert got["v5"] == 0.0

    def test_allocate_select(self, capsys):
        code, payload = run_json(
            capsys,
            "allocate",
            "--graph", str(CASE_STUDY / "graph.json"),
            "--budget", "9.0",
            "--mode", "select",
        )
        assert code == 0
        assert payload["mode"] == "select"
        assert payload["budget"] == 9.0

    def test_select_budget_beyond_hundredths_range(self, capsys):
        # 1e308 is finite, but its hundredths overflow a float
        message = assert_error(
            capsys, 1, "CostPrecisionError",
            "allocate", "--graph", str(CASE_STUDY / "graph.json"), "--budget", "1e308", "--mode", "select",
        )
        assert "too large" in message

    def test_select_cost_beyond_hundredths_range(self, capsys, tmp_path):
        graph = case_study_graph(tmp_path, cost=1e307)
        assert_error(
            capsys, 1, "CostPrecisionError",
            "allocate", "--graph", str(graph), "--budget", "5", "--mode", "select",
        )

    def test_validate_refuses_arrow_in_node_id(self, capsys, tmp_path):
        # edges "a->b" -> "c" and "a" -> "b->c" would share the key "a->b->c"
        nodes = [{"id": nid, "label": "", "effectiveness": 1.0, "cost": 1.0} for nid in ("a->b", "c", "a", "b->c")]
        edges = [{"from": "a->b", "to": "c", "weight": 1.0}, {"from": "a", "to": "b->c", "weight": 2.0}]
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"nodes": nodes, "edges": edges}))
        message = assert_error(capsys, 1, "InvalidNodeValue", "validate", "--graph", str(graph))
        assert "'a->b'" in message

    def test_path_with_tau(self, capsys):
        code, payload = run_json(
            capsys,
            "path",
            "--graph", str(CASE_STUDY / "graph.json"),
            "--from", "v1",
            "--to", "v5",
            "--tau", "2.0",
        )
        assert code == 0
        assert payload["path"]["nodes"] == ["v1", "v2", "v5"]
        assert payload["path"]["cost"] == 2.0

    def test_feedback_runs_metrics_file(self, capsys, tmp_path):
        out = tmp_path / "history.jsonl"
        code, payload = run_json(
            capsys,
            "feedback",
            "--graph", str(CASE_STUDY / "graph.json"),
            "--metrics", str(CASE_STUDY / "metrics.json"),
            "--eta", "0.5",
            "--budget", "10.0",
            "--out", str(out),
        )
        assert code == 0
        assert payload["iterations"] == 2
        assert len(payload["snapshots"]) == 3
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "key, value",
        [("edge_metrics", [1]), ("action_outcomes", "v1"), ("edge_metrics", {"v1->v2": 10**400})],
    )
    def test_feedback_metrics_section_not_an_object_is_two(self, capsys, tmp_path, key, value):
        bad = tmp_path / "metrics.json"
        bad.write_text(json.dumps({"iterations": [{key: value}]}))
        assert_input_error(
            capsys, "MetricsFormatError",
            "feedback", "--graph", str(CASE_STUDY / "graph.json"),
            "--metrics", str(bad), "--eta", "0.5", "--budget", "10",
        )

    def test_markov_stationary(self, capsys):
        code, payload = run_json(
            capsys, "markov", "--counts", str(CASE_STUDY / "transitions.csv"), "--iters", "2"
        )
        assert code == 0
        assert payload["stationary"]["novice"] == pytest.approx(5 / 6, abs=1e-9)
        assert payload["stationary"]["proficient"] == pytest.approx(1 / 6, abs=1e-9)
        assert payload["after_steps"]["steps"] == 2

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "centrality", "--graph", str(CASE_STUDY / "graph.json"))
        _, second, _ = run_cli(capsys, "centrality", "--graph", str(CASE_STUDY / "graph.json"))
        assert first == second


class TestCohortCommands:
    def test_gen_writes_deterministic_csv(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, payload = run_json(
            capsys, "cohort", "gen", "--n", "80", "--seed", "6", "--out", str(a)
        )
        assert code == 0
        assert payload["n"] == 80
        run_cli(capsys, "cohort", "gen", "--n", "80", "--seed", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_matches_library(self, capsys, tmp_path):
        out = tmp_path / "cohort.csv"
        _, payload = run_json(
            capsys, "cohort", "gen", "--n", "40", "--seed", "2", "--planted", "--out", str(out)
        )
        want = report_to_dict(summarize(generate_cohort(40, seed=2, profile=planted_profile())))
        for key, value in want.items():
            assert payload[key] == value

    def test_gen_profile_and_planted_conflict(self, capsys, tmp_path):
        code, payload = run_json(
            capsys,
            "cohort", "gen", "--n", "5", "--planted", "--profile", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert "mutually exclusive" in payload["error"]["message"]

    def test_summarize_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cohort.csv"
        records = generate_cohort(60, seed=8)
        write_cohort_csv(records, path)
        code, payload = run_json(capsys, "cohort", "summarize", "--data", str(path))
        assert code == 0
        assert payload == json.loads(json.dumps(report_to_dict(summarize(records))))


class TestUndecodableInput:
    """Each loader turns bytes that are not UTF-8 into a one-line error, exit 2."""

    @staticmethod
    def corrupt(path, src=None):
        """Write src's bytes (or nothing) followed by a byte no UTF-8 text holds."""
        data = Path(src).read_bytes() if src else b""
        path.write_bytes(data + b"\xff\n")
        return str(path)

    def assert_input_error(self, capsys, kind, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["kind"] == kind
        assert "not UTF-8" in error["message"]
        assert "Traceback" not in err

    def test_graph(self, capsys, tmp_path):
        bad = self.corrupt(tmp_path / "graph.json")
        self.assert_input_error(capsys, "GraphFormatError", "validate", "--graph", bad)

    def test_scenario(self, capsys, tmp_path):
        bad = self.corrupt(tmp_path / "scenario.json")
        self.assert_input_error(capsys, "ScenarioFormatError", "run", bad, "--out", str(tmp_path / "out"))

    def test_metrics(self, capsys, tmp_path):
        bad = self.corrupt(tmp_path / "metrics.json")
        self.assert_input_error(
            capsys, "MetricsFormatError",
            "feedback", "--graph", str(CASE_STUDY / "graph.json"),
            "--metrics", bad, "--eta", "0.5", "--budget", "10",
        )

    def test_counts(self, capsys, tmp_path):
        # the bad byte follows valid rows, so it surfaces mid-read
        bad = self.corrupt(tmp_path / "counts.csv", CASE_STUDY / "transitions.csv")
        self.assert_input_error(capsys, "CountsFormatError", "markov", "--counts", bad)

    def test_cohort_csv(self, capsys, tmp_path):
        good = tmp_path / "good.csv"
        write_cohort_csv(generate_cohort(20, seed=3, profile=planted_profile()), good)
        bad = self.corrupt(tmp_path / "cohort.csv", good)
        self.assert_input_error(capsys, "InputError", "cohort", "summarize", "--data", bad)

    def test_profile(self, capsys, tmp_path):
        bad = self.corrupt(tmp_path / "profile.json")
        self.assert_input_error(capsys, "InputError", "cohort", "gen", "--n", "5", "--profile", bad)

    def test_model(self, capsys, tmp_path):
        data = tmp_path / "cohort.csv"
        write_cohort_csv(generate_cohort(20, seed=3, profile=planted_profile()), data)
        bad = self.corrupt(tmp_path / "model.json")
        self.assert_input_error(capsys, "ModelFormatError", "predict", "--model", bad, "--data", str(data))

    def test_directory_is_an_io_error(self, capsys, tmp_path):
        code, payload = run_json(capsys, "validate", "--graph", str(tmp_path))
        assert code == 2
        assert payload["error"]["kind"] == "IOError"


class TestLoaderErrors:
    """Every JSON loader reports a parse failure the same way, exit 2."""

    LOADERS = {
        "graph": ("GraphFormatError", ["validate", "--graph", "{}"]),
        "metrics": (
            "MetricsFormatError",
            ["feedback", "--graph", str(CASE_STUDY / "graph.json"), "--metrics", "{}",
             "--eta", "0.5", "--budget", "10"],
        ),
        "scenario": ("ScenarioFormatError", ["run", "{}", "--out", "{}.out"]),
        # the model is read before the data, which is never reached
        "model": ("ModelFormatError", ["predict", "--model", "{}", "--data", "{}.csv"]),
        "profile": ("InputError", ["cohort", "gen", "--n", "3", "--profile", "{}"]),
    }

    def assert_loader_error(self, capsys, tmp_path, loader, text):
        kind, argv = self.LOADERS[loader]
        path = tmp_path / f"{loader}.json"
        path.write_text(text)
        return path, assert_error(capsys, 2, kind, *(arg.replace("{}", str(path)) for arg in argv))

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_parse_error_names_line_and_column(self, capsys, tmp_path, loader):
        path, message = self.assert_loader_error(capsys, tmp_path, loader, '{\n  "a": 1,\n}')
        assert message == f"{path}: invalid JSON at line 3 column 1: Expecting property name enclosed in double quotes"

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_nesting_beyond_the_recursion_limit(self, capsys, tmp_path, loader):
        path, message = self.assert_loader_error(capsys, tmp_path, loader, "[" * 100_000 + "]" * 100_000)
        assert message.startswith(f"{path}: invalid JSON: ")

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_integer_beyond_the_digit_limit(self, capsys, tmp_path, loader):
        path, message = self.assert_loader_error(capsys, tmp_path, loader, "1" * 5000)
        assert message.startswith(f"{path}: invalid JSON: ")

    @pytest.mark.parametrize("key", ["graph", "feedback_metrics"])
    def test_nul_byte_in_a_scenario_path(self, capsys, tmp_path, key):
        scenario = TestRunScenario.case_study_scenario(tmp_path, **{key: "a\u0000b.json"})
        kind = "GraphFormatError" if key == "graph" else "MetricsFormatError"
        message = assert_error(capsys, 2, kind, "run", str(scenario), "--out", str(tmp_path / "out"))
        assert message.endswith("embedded null byte")

    def test_profile_value_of_the_wrong_type(self, capsys, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"engaged_fraction": True}))
        message = assert_error(capsys, 2, "InputError", "cohort", "gen", "--n", "3", "--profile", str(profile))
        assert "engaged_fraction" in message

    def test_count_beyond_a_float(self, capsys, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("a,b\n1" + "0" * 400 + ",1\n0,1\n")
        message = assert_error(capsys, 2, "CountsFormatError", "markov", "--counts", str(counts))
        assert "line 2" in message

    def test_markov_steps_beyond_the_cap(self, capsys):
        message = assert_error(
            capsys, 1, "StateMismatch",
            "markov", "--counts", str(CASE_STUDY / "transitions.csv"), "--iters", str(10**20),
        )
        assert "100000" in message


class TestModelCommands:
    @pytest.fixture()
    def cohort_csv(self, tmp_path):
        path = tmp_path / "train.csv"
        write_cohort_csv(generate_cohort(150, seed=12, profile=planted_profile()), path)
        return path

    @staticmethod
    def trained_model(capsys, tmp_path, cohort_csv):
        """model.json of a one-config train on cohort_csv, parsed."""
        out = tmp_path / "model_dir"
        code, _ = run_json(
            capsys, "train", "--data", str(cohort_csv), "--grid-depth", "2",
            "--grid-leaf", "2", "--criteria", "gini", "--folds", "3", "--out", str(out),
        )
        assert code == 0
        return json.loads((out / "model.json").read_text())

    def test_train_then_predict(self, capsys, tmp_path, cohort_csv):
        out = tmp_path / "model_dir"
        code, trained = run_json(
            capsys,
            "train",
            "--data", str(cohort_csv),
            "--seed", "0",
            "--grid-depth", "2:3",
            "--grid-leaf", "2",
            "--criteria", "entropy",
            "--folds", "3",
            "--out", str(out),
        )
        assert code == 0
        assert trained["configs_evaluated"] == 2
        assert 0.0 <= trained["test_accuracy"] <= 1.0
        assert trained["best_params"]["criterion"] == "entropy"
        importance = trained["feature_importance"]
        assert importance and abs(sum(importance.values()) - 1.0) < 1e-9
        assert (out / "model.json").is_file()
        assert (out / "cv_results.csv").is_file()

        code, predicted = run_json(
            capsys,
            "predict",
            "--model", str(out / "model.json"),
            "--data", str(cohort_csv),
        )
        assert code == 0
        assert predicted["n"] == 150
        assert 0.0 <= predicted["accuracy"] <= 1.0
        assert [p["student_id"] for p in predicted["predictions"]][:2] == ["S00001", "S00002"]
        assert all(p["prediction"] in (0, 1) for p in predicted["predictions"])

    def test_bad_grid_flag(self, capsys, cohort_csv):
        code, payload = run_json(
            capsys, "train", "--data", str(cohort_csv), "--grid-depth", "5:3"
        )
        assert code == 2
        assert "--grid-depth" in payload["error"]["message"]

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_fewer_than_two_folds_is_two(self, capsys, cohort_csv, folds):
        code, out, err = run_cli(capsys, "train", "--data", str(cohort_csv), "--folds", folds)
        assert code == 2
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["error"]["kind"] == "InputError"
        assert "--folds" in payload["error"]["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("left", 0),  # a child pointer back at the root: the walk never ended
            ("right", 0),
            ("threshold", "x"),
            ("threshold", None),
            ("threshold", 1e400),  # json.dumps writes Infinity
            ("feature", True),
        ],
    )
    def test_predict_rejects_malformed_split(self, capsys, tmp_path, cohort_csv, field, value):
        payload = self.trained_model(capsys, tmp_path, cohort_csv)
        assert payload["nodes"][0]["kind"] == "split"
        payload["nodes"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert_input_error(capsys, "ModelFormatError", "predict", "--model", str(bad), "--data", str(cohort_csv))

    @pytest.mark.parametrize("value", [None, "x", True, 1.5])
    def test_predict_rejects_malformed_prediction(self, capsys, tmp_path, cohort_csv, value):
        payload = self.trained_model(capsys, tmp_path, cohort_csv)
        next(n for n in payload["nodes"] if n["kind"] == "leaf")["prediction"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert_input_error(capsys, "ModelFormatError", "predict", "--model", str(bad), "--data", str(cohort_csv))

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("numeric", "median", "x"),
            ("numeric", "lower_fence", "x"),  # np.clip had no loop for it
            ("numeric", "median", None),
            ("numeric", "maximum", True),
            ("numeric", "median", KeyError),  # the key is missing
            ("numeric", "kind", "weird"),
            ("categorical", "categories", [[1]]),
            ("categorical", "categories", [1, 2]),
            ("categorical", "categories", "MF"),
            ("categorical", "mode", 1),
            ("categorical", "name", [1]),
        ],
    )
    def test_predict_rejects_malformed_preprocessing(self, capsys, tmp_path, cohort_csv, kind, field, value):
        payload = self.trained_model(capsys, tmp_path, cohort_csv)
        column = next(c for c in payload["preprocessing"]["columns"] if c["kind"] == kind)
        if value is KeyError:
            del column[field]
        else:
            column[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert_input_error(capsys, "ModelFormatError", "predict", "--model", str(bad), "--data", str(cohort_csv))

    @pytest.mark.parametrize("column", [5, 7])  # mentoring_sessions, research_projects
    def test_count_too_large_for_a_float_names_the_cell(self, capsys, tmp_path, cohort_csv, column):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(self.trained_model(capsys, tmp_path, cohort_csv)))
        lines = cohort_csv.read_text().splitlines()
        cells = lines[9].split(",")
        cells[column] = "1" + "0" * 400
        lines[9] = ",".join(cells)
        huge = tmp_path / "huge.csv"
        huge.write_text("\n".join(lines) + "\n")
        name = lines[0].split(",")[column]
        for argv in (
            ["train", "--data", str(huge), "--grid-depth", "2", "--grid-leaf", "2", "--folds", "3"],
            ["predict", "--model", str(model), "--data", str(huge)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and "Traceback" not in err
            error = json.loads(out)["error"]
            assert error["kind"] == "SchemaViolation"
            assert error["message"].startswith(f"row 10, column {name!r}: must fit a float")

    def test_cell_beyond_the_csv_field_limit_names_the_line(self, capsys, tmp_path, cohort_csv):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(self.trained_model(capsys, tmp_path, cohort_csv)))
        lines = cohort_csv.read_text().splitlines()[:11]
        cells = lines[6].split(",")
        cells[0] = "x" * 140_000  # the sixth student_id; the csv module's limit is 131,072
        lines[6] = ",".join(cells)
        big = tmp_path / "big.csv"
        big.write_text("\n".join(lines) + "\n")
        for argv in (
            ["cohort", "summarize", "--data", str(big)],
            ["train", "--data", str(big), "--grid-depth", "2", "--grid-leaf", "2", "--folds", "3"],
            ["predict", "--model", str(model), "--data", str(big)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out.count("\n") == 1 and "Traceback" not in err, argv
            error = json.loads(out)["error"]
            assert error["kind"] == "SchemaViolation"
            assert error["message"].startswith("row 7, column ''") and "field limit" in error["message"]

    def test_header_beyond_the_csv_field_limit_is_two(self, capsys, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("x" * 140_000 + "\n")
        code, out, err = run_cli(capsys, "cohort", "summarize", "--data", str(big))
        assert code == 2 and out.count("\n") == 1 and "Traceback" not in err
        error = json.loads(out)["error"]
        assert error["kind"] == "InputError" and "line 1" in error["message"]

    def test_predict_rejects_tree_wider_than_its_preprocessing(self, capsys, tmp_path, cohort_csv):
        payload = self.trained_model(capsys, tmp_path, cohort_csv)
        payload["feature_names"].append("extra")
        payload["nodes"][0]["feature"] = len(payload["feature_names"]) - 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert_input_error(capsys, "ModelFormatError", "predict", "--model", str(bad), "--data", str(cohort_csv))

    def test_predict_rejects_model_without_preprocessing(self, capsys, tmp_path, cohort_csv):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"nodes": []}))
        code, payload = run_json(
            capsys, "predict", "--model", str(model), "--data", str(cohort_csv)
        )
        assert code == 2
        assert payload["error"]["kind"] == "ModelFormatError"


class TestRunScenario:
    def test_bundled_case_study(self, capsys, tmp_path):
        out = tmp_path / "run1"
        code, report = run_json(
            capsys, "run", str(CASE_STUDY / "scenario.json"), "--out", str(out)
        )
        assert code == 0
        stages = report["stages"]
        assert stages["validate"]["topological_order"] == ["v1", "v2", "v3", "v4", "v5"]
        assert stages["centrality"]["v1"] == pytest.approx(3 / 9, abs=1e-12)
        assert stages["allocation"]["mode"] == "fractional"

        unbounded, capped = stages["paths"]
        assert unbounded["path"]["nodes"] == ["v1", "v5"]
        assert unbounded["path"]["cost"] == 1.0
        assert capped["path"]["nodes"] == ["v1", "v2", "v5"]
        assert capped["path"]["cost"] == 2.0

        assert stages["feedback"]["iterations"] == 2
        assert len(stages["feedback"]["success_rates"]) == 2

        for name in ("report.json", "centrality.json", "allocation.json",
                     "paths.json", "history.jsonl", "final_graph.json"):
            assert (out / name).is_file()
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == report

    def test_reruns_identical_modulo_timings(self, capsys, tmp_path):
        reports = []
        for name in ("a", "b"):
            code, _ = run_json(
                capsys, "run", str(CASE_STUDY / "scenario.json"), "--out", str(tmp_path / name)
            )
            assert code == 0
            reports.append(json.loads((tmp_path / name / "report.json").read_text()))
        for report in reports:
            report.pop("timings")
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "paths",
        [
            [{"from": "v1", "to": "v5", "tau": "x"}],
            [{"from": "v1", "to": "v5", "tau": True}],
            [{"from": "v1", "to": "v5", "tau": -1.0}],
            [{"from": "v1", "to": "v5", "tau": 10**400}],
            5,
            {"from": "v1", "to": "v5"},
        ],
    )
    def test_malformed_path_queries_are_two(self, capsys, tmp_path, paths):
        scenario = json.loads((CASE_STUDY / "scenario.json").read_text())
        scenario.update(graph=str(CASE_STUDY / "graph.json"), paths=paths)
        scenario.pop("feedback")
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        assert_input_error(capsys, "ScenarioFormatError", "run", str(bad), "--out", str(tmp_path / "out"))

    def test_scenario_error_names_missing_key(self, capsys, tmp_path):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({"graph": "g.json"}))
        code, payload = run_json(capsys, "run", str(bad), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "budget" in payload["error"]["message"]

    @staticmethod
    def case_study_scenario(tmp_path, **changes) -> Path:
        """The case-study scenario with absolute input paths, `changes` applied:
        a top-level key, or feedback_<key> for a key of the feedback block."""
        scenario = json.loads((CASE_STUDY / "scenario.json").read_text())
        scenario["graph"] = str(CASE_STUDY / "graph.json")
        scenario["feedback"]["metrics"] = str(CASE_STUDY / "metrics.json")
        for key, value in changes.items():
            if key.startswith("feedback_"):
                scenario["feedback"][key[len("feedback_"):]] = value
            else:
                scenario[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return path

    @pytest.mark.parametrize(
        "changes",
        [
            {"feedback_eta": "x"},
            {"feedback_iterations": "2"},
            {"feedback_iterations": 2.5},
            {"feedback_iterations": True},
            {"feedback_w_min": "a"},
            {"feedback_w_max": 10**400},
            {"feedback_metrics": 5},
            {"graph": 5},
            {"actions": "v1"},
            {"actions": ["v1", 2]},
            {"budget": "x"},
            {"budget": True},
            {"allocation_mode": "greedy"},
            {"paths": [{"from": 1, "to": "v5"}]},
            {"paths": [{"from": "v1", "to": ["v5"]}]},
        ],
        ids=lambda changes: json.dumps(changes)[:40],
    )
    def test_scenario_value_types_are_two(self, capsys, tmp_path, changes):
        bad = self.case_study_scenario(tmp_path, **changes)
        assert_input_error(capsys, "ScenarioFormatError", "run", str(bad), "--out", str(tmp_path / "out"))

    @pytest.mark.parametrize("mode", ["fractional", "select"])
    def test_commands_print_the_stages_of_run(self, capsys, tmp_path, mode):
        """Given the same inputs, each command prints what the matching stage
        of run reports, apart from what is the command's or run's own."""
        queries = [{"from": "v1", "to": "v5", "tau": None}, {"from": "v1", "to": "v5", "tau": 2.0}]
        scenario = self.case_study_scenario(tmp_path, allocation_mode=mode, paths=queries)
        code, report = run_json(capsys, "run", str(scenario), "--out", str(tmp_path / "out"))
        assert code == 0
        stages = report["stages"]
        stages["validate"]["acyclic"] = True
        del stages["feedback"]["success_rates"]
        graph = ["--graph", str(CASE_STUDY / "graph.json")]
        commands = {
            "validate": ["validate", *graph],
            "allocation": ["allocate", *graph, "--budget", "10.0", "--mode", mode],
            "feedback": [
                "feedback", *graph, "--metrics", str(CASE_STUDY / "metrics.json"),
                "--eta", "0.5", "--iters", "2", "--budget", "10.0",
            ],
        }
        for stage, argv in commands.items():
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == json.dumps(stages[stage], indent=2, sort_keys=True) + "\n", stage
        for query, tau in zip(stages["paths"], ([], ["--tau", "2.0"])):
            code, out, _ = run_cli(capsys, "path", *graph, "--from", "v1", "--to", "v5", *tau)
            assert code == 0
            assert out == json.dumps(query, indent=2, sort_keys=True) + "\n"

    def test_integer_feedback_bounds_write_float_weights(self, capsys, tmp_path):
        # eta 1 moves each observed weight onto its metric; the case study's
        # metrics below 1 are then clamped to w_min = 1, which is written 1.0
        scenario = self.case_study_scenario(
            tmp_path, feedback_eta=1, feedback_w_min=1, feedback_w_max=10
        )
        out = tmp_path / "out"
        code, report = run_json(capsys, "run", str(scenario), "--out", str(out))
        assert code == 0
        feedback = report["stages"]["feedback"]
        assert type(feedback["learning_rate"]) is float
        history = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
        final = json.loads((out / "final_graph.json").read_text())
        assert history[-1]["weights"]["v1->v2"] == 1.0
        for snapshots in (feedback["snapshots"], history):
            assert all(type(w) is float for snap in snapshots for w in snap["weights"].values())
        assert all(type(e["weight"]) is float for e in final["edges"])

    @pytest.mark.parametrize("huge", ["budget", "cost"])
    def test_select_beyond_hundredths_range(self, capsys, tmp_path, huge):
        changes = {"budget": 1e308} if huge == "budget" else {"graph": str(case_study_graph(tmp_path, cost=1e307))}
        scenario = self.case_study_scenario(tmp_path, allocation_mode="select", **changes)
        assert_error(capsys, 1, "CostPrecisionError", "run", str(scenario), "--out", str(tmp_path / "out"))

    def test_negative_budget_stays_domain_error(self, capsys, tmp_path):
        scenario = self.case_study_scenario(tmp_path, budget=-1.0)
        code, payload = run_json(capsys, "run", str(scenario), "--out", str(tmp_path / "out"))
        assert code == 1
        assert payload["error"]["kind"] == "NegativeBudget"

    def test_null_actions_and_feedback_mean_absent(self, capsys, tmp_path):
        scenario = self.case_study_scenario(tmp_path, actions=None)
        code, report = run_json(capsys, "run", str(scenario), "--out", str(tmp_path / "a"))
        assert code == 0
        assert len(report["stages"]["feedback"]["success_rates"]) == 2
        scenario = self.case_study_scenario(tmp_path, feedback=None)
        code, report = run_json(capsys, "run", str(scenario), "--out", str(tmp_path / "b"))
        assert code == 0
        assert "feedback" not in report["stages"]


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "skillsgraph", "validate", "--graph", str(CASE_STUDY / "graph.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["acyclic"] is True
