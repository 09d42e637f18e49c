"""Command-line surface: exit codes, error objects, and report determinism.

Most invocations go through main() in process for speed; one subprocess case
proves the module entry point works end to end.
"""

import hashlib
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import skillsgraph
from skillsgraph import GridSpec, cli, generate_cohort, planted_profile, summarize, write_cohort_csv
from skillsgraph.cli import MAX_GRID_CONFIGS, MAX_RANGE_VALUES, _parse_range, main
from skillsgraph.cohort import report_to_dict

ROOT = Path(__file__).resolve().parents[1]
CASE_STUDY = ROOT / "scenarios" / "case_study"


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


GRAPH = str(CASE_STUDY / "graph.json")
FEEDBACK = ["feedback", "--graph", GRAPH, "--metrics", str(CASE_STUDY / "metrics.json")]
# (command, flag, spellings of one number that float() reads)
NUMBER_SPELLINGS = [
    (["path", "--graph", GRAPH, "--from", "v1", "--to", "v5"], "--tau", ["-100000.0", "-1e5", "-1E+05", "-100_000"]),
    (["path", "--graph", GRAPH, "--from", "v1", "--to", "v5"], "--tau", ["-inf", "-Infinity", "-1e999"]),
    (["allocate", "--graph", GRAPH], "--budget", ["-100000.0", "-1e5"]),
    (FEEDBACK + ["--eta", "0.5"], "--budget", ["-100000.0", "-1e5"]),
    (FEEDBACK + ["--budget", "10"], "--eta", ["-0.5", "-5e-1", "-.5"]),
    (FEEDBACK + ["--budget", "10", "--eta", "0.5"], "--iters", ["-1000", "-1_000"]),
    (["markov", "--counts", str(CASE_STUDY / "transitions.csv")], "--iters", ["-1000", "-1_000"]),
    (["cohort", "gen"], "--n", ["-1000", "-1_000"]),
    (["cohort", "gen", "--n", "5"], "--seed", ["-1000", "-1_000"]),
    (["train", "--data", "absent.csv"], "--seed", ["-1000", "-1_000"]),
    (["train", "--data", "absent.csv"], "--folds", ["-1000", "-1_000"]),
]


class TestNumberSpellings:
    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # how argparse ends a usage error
            code = exc.code
        return code, json.loads(capsys.readouterr().out)["error"]["kind"]

    @pytest.mark.parametrize(
        "command, flag, spellings", NUMBER_SPELLINGS, ids=[f"{c[0]}{f}{s[-1]}" for c, f, s in NUMBER_SPELLINGS]
    )
    def test_every_spelling_of_a_number_is_a_value(self, capsys, command, flag, spellings):
        # "--flag=value" always names the value; "--flag value" must end alike
        outcomes = {
            self.outcome(capsys, command + argv)
            for text in spellings
            for argv in ([flag, text], [f"{flag}={text}"])
        }
        assert len(outcomes) == 1
        assert outcomes.pop()[1] != "UsageError"


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
        assert payload["history"]["count"] == 3
        assert payload["history"]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
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

    @pytest.mark.parametrize(
        "flags, csv_sha256, summary_sha256",
        [
            (
                [],
                "6512ff2c938128618b9116b613027e6ca59a9cfa71e02e17f7c4bfb42b0fb271",
                "b00e123fa18b7392d6d8f1ecbbfccbd3cb6856d63078230077d875904ee1714a",
            ),
            (
                ["--planted"],
                "789369661379eba37f67f6d637e0fc3d3012a510f5d01a08a866070efff82062",
                "0ba23fda32636a5a65dd06a32279c784edf405b02d5e28e7aae2042f76c865fa",
            ),
        ],
    )
    def test_gen_and_summarize_golden_bytes(self, capsys, tmp_path, flags, csv_sha256, summary_sha256):
        path = tmp_path / "cohort.csv"
        code, _, _ = run_cli(capsys, "cohort", "gen", "--n", "500", "--seed", "7", *flags, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha256
        code, out, _ = run_cli(capsys, "cohort", "summarize", "--data", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == summary_sha256

    def test_gen_n_above_the_cap_is_one_and_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "cohort.csv"
        message = assert_error(capsys, 1, "InvalidProfile", "cohort", "gen", "--n", "1000000000000", "--out", str(out))
        assert "MAX_COHORT_ROWS" in message and "1000000000000" in message
        assert not out.exists()

    def test_gen_matches_library(self, capsys, tmp_path):
        out = tmp_path / "cohort.csv"
        _, payload = run_json(
            capsys, "cohort", "gen", "--n", "40", "--seed", "2", "--planted", "--out", str(out)
        )
        want = report_to_dict(summarize(generate_cohort(40, seed=2, profile=planted_profile())))
        for key, value in want.items():
            assert payload[key] == value

    @pytest.mark.parametrize("out, kind", [("missing/cohort.csv", "FileNotFound"), (".", "IOError")])
    def test_gen_unwritable_out_is_two_before_any_draw(self, capsys, tmp_path, monkeypatch, out, kind):
        def no_draw(*args):
            raise AssertionError("drew the cohort")

        monkeypatch.setattr("skillsgraph.cli.generate_cohort", no_draw)
        message = assert_error(capsys, 2, kind, "cohort", "gen", "--n", "5", "--out", str(tmp_path / out))
        assert str(tmp_path / out) in message
        assert not (tmp_path / "missing").exists()

    def test_gen_negative_seed_is_two(self, capsys, tmp_path):
        out = tmp_path / "cohort.csv"
        message = assert_error(capsys, 2, "InputError", "cohort", "gen", "--n", "5", "--seed", "-1", "--out", str(out))
        assert "--seed" in message
        assert not out.exists()

    def test_gen_profile_and_planted_conflict(self, capsys, tmp_path):
        code, payload = run_json(
            capsys,
            "cohort", "gen", "--n", "5", "--planted", "--profile", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert "mutually exclusive" in payload["error"]["message"]

    def test_summarize_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cohort.csv"
        table = generate_cohort(60, seed=8)
        write_cohort_csv(table, path)
        code, payload = run_json(capsys, "cohort", "summarize", "--data", str(path))
        assert code == 0
        assert payload == json.loads(json.dumps(report_to_dict(summarize(table))))


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

    def test_counts_whose_row_sum_overflows(self, capsys, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(f"a,b\n{10**308},{10**308}\n1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload = run_json(capsys, "markov", "--counts", str(counts))
        assert code == 0
        assert payload["matrix"] == [[0.5, 0.5], [0.5, 0.5]]
        assert payload["stationary"] == {"a": 0.5, "b": 0.5}

    def test_probabilities_beyond_the_float_range(self, capsys, tmp_path):
        # a leaves for b, and b for c, with chance 1e-300: the exit from the
        # pair {a, b} underflows, so its outflow reads 0 and the result NaN
        counts = tmp_path / "counts.csv"
        counts.write_text(f"a,b,c\n{10**300},1,0\n{10**300},0,1\n0,0,1\n")
        message = assert_error(capsys, 1, "FloatRangeExceeded", "markov", "--counts", str(counts))
        assert "float range" in message


class TestSumsBeyondTheFloatRange:
    """A valid graph whose edge weights, a path's cost or a plan's objective
    sum beyond the largest float."""

    @pytest.fixture
    def graph(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({
            "nodes": [{"id": nid, "label": nid, "effectiveness": 1.0, "cost": 1.0} for nid in "abc"],
            "edges": [{"from": "a", "to": "b", "weight": 1e308}, {"from": "b", "to": "c", "weight": 1e308}],
        }))
        return path

    def test_centrality(self, capsys, graph):
        message = assert_error(capsys, 1, "FloatRangeExceeded", "centrality", "--graph", str(graph))
        assert "float range" in message

    @pytest.mark.parametrize("tau", [[], ["--tau", "1.0"]], ids=["free", "tau"])
    def test_path(self, capsys, graph, tau):
        assert_error(capsys, 1, "FloatRangeExceeded", "path", "--graph", str(graph), "--from", "a", "--to", "c", *tau)

    def test_path_within_range_still_answers(self, capsys, graph):
        code, payload = run_json(capsys, "path", "--graph", str(graph), "--from", "a", "--to", "b")
        assert code == 0 and payload["path"]["cost"] == 1e308

    def test_feedback(self, capsys, graph, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({"iterations": [{"edge_metrics": {"a->b": 1.0}}]}))
        assert_error(
            capsys, 1, "FloatRangeExceeded",
            "feedback", "--graph", str(graph), "--metrics", str(metrics), "--eta", "0.5", "--budget", "1",
        )

    def test_run(self, capsys, graph, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"graph": "graph.json", "budget": 1.0}))
        assert_error(capsys, 1, "FloatRangeExceeded", "run", str(scenario), "--out", str(tmp_path / "out"))

    @pytest.fixture
    def effective_graph(self, tmp_path):
        """The case-study graph with every node's effectiveness 1e308 and cost 1."""
        graph = case_study_graph(tmp_path)
        data = json.loads(graph.read_text())
        for node in data["nodes"]:
            node.update(effectiveness=1e308, cost=1.0)
        graph.write_text(json.dumps(data))
        return graph

    def test_select_objective(self, capsys, effective_graph):
        assert_error(
            capsys, 1, "FloatRangeExceeded",
            "allocate", "--graph", str(effective_graph), "--budget", "2", "--mode", "select",
        )

    def test_fractional_objective(self, capsys, effective_graph):
        message = assert_error(
            capsys, 1, "FloatRangeExceeded",
            "allocate", "--graph", str(effective_graph), "--budget", "2", "--mode", "fractional",
        )
        assert "float range" in message

    def test_feedback_objective(self, capsys, effective_graph):
        assert_error(
            capsys, 1, "FloatRangeExceeded",
            "feedback", "--graph", str(effective_graph), "--metrics", str(CASE_STUDY / "metrics.json"),
            "--eta", "0.5", "--budget", "2",
        )

    def test_run_objective(self, capsys, effective_graph, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"graph": effective_graph.name, "budget": 2.0}))
        assert_error(capsys, 1, "FloatRangeExceeded", "run", str(scenario), "--out", str(tmp_path / "out"))


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

    def test_repeated_criterion_is_fitted_once(self, capsys, tmp_path, cohort_csv):
        runs = []
        for criteria in ("gini", "gini,gini", " gini , gini,"):
            out = tmp_path / f"model_{len(runs)}"
            code, text, _ = run_cli(
                capsys, "train", "--data", str(cohort_csv), "--grid-depth", "2:3", "--grid-leaf", "2",
                "--criteria", criteria, "--folds", "3", "--out", str(out),
            )
            assert code == 0
            runs.append((text, (out / "cv_results.csv").read_bytes()))
        assert runs[0] == runs[1] == runs[2]
        assert json.loads(runs[0][0])["configs_evaluated"] == 2

    def test_bad_grid_flag(self, capsys, cohort_csv):
        code, payload = run_json(
            capsys, "train", "--data", str(cohort_csv), "--grid-depth", "5:3"
        )
        assert code == 2
        assert "--grid-depth" in payload["error"]["message"]

    @pytest.mark.parametrize("flag", ["--grid-depth", "--grid-leaf"])
    @pytest.mark.parametrize("text", ["1:1000000000000", f"0:{MAX_RANGE_VALUES}"])
    def test_grid_range_beyond_the_cap_is_refused(self, capsys, tmp_path, flag, text):
        # no data file: the flag is refused before anything is read or fitted
        message = assert_error(capsys, 2, "InputError", "train", "--data", str(tmp_path / "none.csv"), flag, text)
        assert flag in message and str(MAX_RANGE_VALUES) in message

    @pytest.mark.parametrize(
        "depth, leaf, criteria, count",
        [("0:999", "1:1000", "gini", 1_000_000), ("1:100", "1:51", "gini,entropy", 10_200)],
    )
    def test_grid_beyond_the_config_cap_is_refused_before_any_work(
        self, capsys, tmp_path, monkeypatch, depth, leaf, criteria, count
    ):
        def must_not_run(*args, **kwargs):
            pytest.fail("the grid was built or the data read before the cap was checked")

        monkeypatch.setattr(cli, "load_cohort_csv", must_not_run)
        monkeypatch.setattr(GridSpec, "configs", must_not_run)
        message = assert_error(
            capsys, 2, "InputError", "train", "--data", str(tmp_path / "none.csv"),
            "--grid-depth", depth, "--grid-leaf", leaf, "--criteria", criteria,
        )
        assert str(count) in message and str(MAX_GRID_CONFIGS) in message

    def test_grid_at_the_config_cap_goes_on_to_the_data(self, capsys, tmp_path):
        # 100 x 50 x 2 configs, exactly the cap: the missing data file is the error
        message = assert_error(
            capsys, 2, "FileNotFound", "train", "--data", str(tmp_path / "none.csv"),
            "--grid-depth", "1:100", "--grid-leaf", "1:50", "--criteria", "gini,entropy",
        )
        assert "none.csv" in message

    def test_repeated_criterion_does_not_count_toward_the_config_cap(self, capsys, tmp_path):
        message = assert_error(
            capsys, 2, "FileNotFound", "train", "--data", str(tmp_path / "none.csv"),
            "--grid-depth", "1:100", "--grid-leaf", "1:50", "--criteria", "gini,entropy,gini",
        )
        assert "none.csv" in message

    def test_grid_range_at_the_cap_is_admitted(self):
        assert _parse_range(f"1:{MAX_RANGE_VALUES}", "--grid-leaf") == tuple(range(1, MAX_RANGE_VALUES + 1))
        assert len(_parse_range("3:15", "--grid-depth")) == 13

    def test_negative_seed_is_two(self, capsys, cohort_csv):
        message = assert_error(capsys, 2, "InputError", "train", "--data", str(cohort_csv), "--seed", "-1")
        assert "--seed" in message

    def test_predict_escapes_ids_as_json_does(self, capsys, tmp_path, cohort_csv):
        out = tmp_path / "model_dir"
        assert run_json(
            capsys, "train", "--data", str(cohort_csv), "--grid-depth", "2", "--grid-leaf", "2",
            "--criteria", "gini", "--folds", "3", "--out", str(out),
        )[0] == 0
        lines = cohort_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        ids = ['Zoë "7"', "back\\slash", "学生"]
        for i, sid in enumerate(ids, start=1):
            lines[i] = f'"{sid.replace(chr(34), chr(34) * 2)}"' + lines[i][lines[i].index(","):]
        data = tmp_path / "odd_ids.csv"
        data.write_text("".join(lines), encoding="utf-8")
        code, text, _ = run_cli(capsys, "predict", "--model", str(out / "model.json"), "--data", str(data))
        assert code == 0
        payload = json.loads(text)
        assert [p["student_id"] for p in payload["predictions"][:3]] == ids
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

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
        "value",
        [
            "12",  # a string, not a list
            {"0": 1, "1": 2},
            [1],  # the model has two classes
            [1, 2, 3],
            [1, True],
            [1, 2.0],
            [1, "2"],
            [1, None],
            [1, -1],
            [1, 2**63],  # one past the int64 range
        ],
    )
    def test_predict_rejects_malformed_class_counts(self, capsys, tmp_path, cohort_csv, value):
        payload = self.trained_model(capsys, tmp_path, cohort_csv)
        last = len(payload["nodes"]) - 1
        payload["nodes"][last]["class_counts"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        message = assert_error(capsys, 2, "ModelFormatError", "predict", "--model", str(bad), "--data", str(cohort_csv))
        assert f"node {last} has class_counts" in message

    def test_predict_reads_class_counts_up_to_the_int64_bound(self, capsys, tmp_path, cohort_csv):
        payload = self.trained_model(capsys, tmp_path, cohort_csv)
        payload["nodes"][-1]["class_counts"] = [0, 2**63 - 1]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        assert run_json(capsys, "predict", "--model", str(model), "--data", str(cohort_csv))[0] == 0

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

    def test_predict_checks_feature_names_before_reading_the_data(self, capsys, tmp_path, cohort_csv):
        payload = self.trained_model(capsys, tmp_path, cohort_csv)
        payload["feature_names"][0] += "_renamed"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        message = assert_error(capsys, 2, "ModelFormatError", "predict", "--model", str(bad),
                               "--data", str(tmp_path / "none.csv"))
        assert "_renamed" in message

    @pytest.mark.parametrize("rename_features, exit_code, kind", [
        (False, 2, "ModelFormatError"),  # the features no longer match the columns
        (True, 1, "PartitionMismatch"),  # they do, but the CSV's gender is categorical
    ])
    def test_predict_rejects_a_column_relabelled_numeric(
        self, capsys, tmp_path, cohort_csv, rename_features, exit_code, kind
    ):
        payload = self.trained_model(capsys, tmp_path, cohort_csv)
        column = next(c for c in payload["preprocessing"]["columns"] if c["name"] == "gender")
        column.update(kind="numeric", median=0.5, lower_fence=0.0, upper_fence=1.0, minimum=0.0, maximum=1.0)
        if rename_features:
            names = ["gender"] + [n for n in payload["feature_names"] if not n.startswith("gender=")]
            payload["preprocessing"]["feature_names"] = payload["feature_names"] = names
            for node in payload["nodes"]:
                node.update(kind="leaf", feature=None, threshold=None, left=None, right=None)
            del payload["nodes"][1:]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        message = assert_error(capsys, exit_code, kind, "predict", "--model", str(bad), "--data", str(cohort_csv))
        assert "gender" in message


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

    def test_report_names_history_by_digest(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, report = run_json(capsys, "run", str(CASE_STUDY / "scenario.json"), "--out", str(out))
        assert code == 0
        assert report["report_version"] == 2
        assert report["tool_version"] == skillsgraph.__version__
        assert report["artifacts"]["history"] == "history.jsonl"
        written = (out / "history.jsonl").read_bytes()
        assert report["stages"]["feedback"]["history"] == {
            "count": written.count(b"\n"),
            "sha256": hashlib.sha256(written).hexdigest(),
        }

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
        assert all(type(w) is float for snap in history for w in snap["weights"].values())
        assert "snapshots" not in feedback
        assert feedback["history"]["sha256"] == hashlib.sha256((out / "history.jsonl").read_bytes()).hexdigest()
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


# SHA-256 of what each command prints ("stdout") and of each file it writes,
# on the case study. "{out}" stands for a fresh directory. These outputs are
# Python floats, exact integers and IEEE elementwise steps, so they are the
# same bytes on every platform. markov and the entropy learner go through
# numpy's log2 and matrix products, which are byte-stable per platform only;
# test_criterion_10_cli_byte_identical_reruns covers them. The gini learner
# is pinned in LEARNER_GOLDEN below.
GOLDEN = {
    "validate": (
        ["validate", "--graph", "{cs}/graph.json"],
        {"stdout": "0c384dc789ceef32d6cd96171ebb1cf6e203b18c76e689dda11ba32c25ead223"},
    ),
    "centrality": (
        ["centrality", "--graph", "{cs}/graph.json"],
        {"stdout": "c439627db314e954c6c490fa7768cc84bd3b5a3061d37636328ada0813abc333"},
    ),
    "allocate fractional": (
        ["allocate", "--graph", "{cs}/graph.json", "--budget", "10.0", "--mode", "fractional"],
        {"stdout": "483f3c1f929469e68009bf53c4060f1b2ef1edb6fb8e2bf52bf0a81b9e2ad4f9"},
    ),
    "allocate select": (
        ["allocate", "--graph", "{cs}/graph.json", "--budget", "9.0", "--mode", "select"],
        {"stdout": "b04eeb17f6918710dc56018f9f706469fcb26860693fbea781f292bded504fff"},
    ),
    "path": (
        ["path", "--graph", "{cs}/graph.json", "--from", "v1", "--to", "v5"],
        {"stdout": "66d66ca740deaad58dbada10cfa71ac68400d1700bf68af781fdb44b063d45c9"},
    ),
    "path tau": (
        ["path", "--graph", "{cs}/graph.json", "--from", "v1", "--to", "v5", "--tau", "2.0"],
        {"stdout": "8b3c7e196c37f10a31ac4805f818762a36aea0426d2274aa5dd40f049b520fd5"},
    ),
    "feedback": (
        ["feedback", "--graph", "{cs}/graph.json", "--metrics", "{cs}/metrics.json",
         "--eta", "0.5", "--budget", "10.0", "--out", "{out}/history.jsonl"],
        {
            "stdout": "192b28d67e9b124b188d5d21a6948c303bb3917f9bbc0b67f08ed6cc4dae1662",
            "history.jsonl": "e5ce3db5019f208390a3c8285bf3d5e79cf6743948f1ad7229e729892aa2764e",
        },
    ),
    # stdout is report.json's bytes, here less the "timings" member
    "run": (
        ["run", "{cs}/scenario.json", "--out", "{out}"],
        {
            "stdout": "af038a4369ec110ad6f6b5b92daab20ee053417887bf3242f42fad495f819d95",
            "allocation.json": "483f3c1f929469e68009bf53c4060f1b2ef1edb6fb8e2bf52bf0a81b9e2ad4f9",
            "centrality.json": "982499e48cae6d8f5453c43ac16e7c7227806e1d1f72b2df5d73b47d559c38d0",
            "final_graph.json": "14f59328b2b185c4759e1ce3f8b7cbbaae2bf017ac507ac51d1d046165d6f5be",
            "history.jsonl": "e5ce3db5019f208390a3c8285bf3d5e79cf6743948f1ad7229e729892aa2764e",
            "paths.json": "af8d1d7f4a360925b600044cdd603d99f0ec638a1f71e29b5f9fdde61e9a4159",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(capsys, tmp_path, name):
    argv, digests = GOLDEN[name]
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, _ = run_cli(capsys, *(a.format(cs=CASE_STUDY, out=out) for a in argv))
    assert code == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    if name == "run":
        assert written.pop("report.json") == stdout.encode()
        stdout, removed = re.subn(r'\n  "timings": \{[^{}]*\},', "", stdout)
        assert removed == 1
    got = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    got.update((file, hashlib.sha256(data).hexdigest()) for file, data in written.items())
    assert got == digests


# The README learner pipeline with --criteria gini: cohort gen, train, then
# predict on the same rows. Gini's arithmetic is elementwise IEEE steps,
# two-term sums, sorts and linear quantiles, with no log2 and no BLAS, so
# these bytes should be the same on every platform.
LEARNER_PIPELINE = (
    ["cohort", "gen", "--n", "386", "--seed", "42", "--planted", "--out", "{out}/cohort.csv"],
    ["train", "--data", "{out}/cohort.csv", "--seed", "42", "--criteria", "gini", "--out", "{out}/model"],
    ["predict", "--model", "{out}/model/model.json", "--data", "{out}/cohort.csv"],
)
LEARNER_GOLDEN = {
    "cohort.csv": "c7ba190415e7a2d2810c19c40e702468142034be6e0e88445a38ec673716cdc9",
    "train": "47ab9a8fe255f8baefc133799c7256f69c5df95ee8bf8ec8a44750f7d16a4d84",
    "model.json": "99beaf036eb34862e015ca97c97a222521ea897e5cfb3db5f300dada98aaaa33",
    "cv_results.csv": "031f5b5f8734107750b6759256d17de81b3b045bc46fe2903a0c925d9f155946",
    "predict": "5c0a53a4ba7d60124a5e917be0737b6ba7f5c1f03e95b514d082878d356b1bdb",
}


def test_golden_learner_pipeline(capsys, tmp_path):
    got = {}
    for argv in LEARNER_PIPELINE:
        code, stdout, _ = run_cli(capsys, *(a.format(out=tmp_path) for a in argv))
        assert code == 0
        if argv[0] != "cohort":
            got[argv[0]] = hashlib.sha256(stdout.encode()).hexdigest()
    for path in [tmp_path / "cohort.csv", *(tmp_path / "model").iterdir()]:
        got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == LEARNER_GOLDEN


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "skillsgraph", "validate", "--graph", str(CASE_STUDY / "graph.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["acyclic"] is True


def test_package_version_matches_pyproject():
    # tomllib is 3.11+, so the [project] table's version is read by pattern
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == skillsgraph.__version__
