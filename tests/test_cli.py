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


class TestModelCommands:
    @pytest.fixture()
    def cohort_csv(self, tmp_path):
        path = tmp_path / "train.csv"
        write_cohort_csv(generate_cohort(150, seed=12, profile=planted_profile()), path)
        return path

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

    def test_scenario_error_names_missing_key(self, capsys, tmp_path):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({"graph": "g.json"}))
        code, payload = run_json(capsys, "run", str(bad), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "budget" in payload["error"]["message"]


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "skillsgraph", "validate", "--graph", str(CASE_STUDY / "graph.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["acyclic"] is True
