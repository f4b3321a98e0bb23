"""Command-line surface: formats, exit codes, file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from exact_testing import NonOptimalHighs

from invinsert import cli, exact, hilbert
from invinsert.errors import SchemaError

TABLE_N64 = ["0.2036", "0.6495", "0.9615", "0.9997", "1.0000", "1.0000"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGreedyCommand:
    def test_csv_matches_published_row(self, capsys):
        code, out, _ = run_cli(capsys, "greedy", "--n", "64", "--k", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ell,prob,classical_2k_over_n"
        assert len(lines) == 7
        probs = [line.split(",")[1] for line in lines[1:]]
        assert probs == TABLE_N64

    def test_json_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "greedy", "--n", "8", "--k", "2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "greedy"
        assert report["params"] == {"n": 8, "k": 2}
        assert "timestamp" in report and "tool_version" in report
        assert len(report["results"]["probs"]) == 3

    def test_emit_schedule(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys, "greedy", "--n", "6", "--k", "2", "--emit-schedule", str(path)
        )
        assert code == 0
        schedule = hilbert.load_schedule(path)
        assert schedule.n == 6 and schedule.k == 2


class TestBoundCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "64")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ell,overlap_bound,bound_squared"
        assert float(lines[1].split(",")[1]) == pytest.approx(1 / 8)

    def test_json_reports_both_log_forms(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "4096", "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["asymptotic_ln"] is not None
        assert results["asymptotic_log2"] is not None
        assert results["min_queries"] >= 3


class TestExactCommands:
    def test_feasible_boundary_pattern(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "feasible", "--k", "2", "--n-range", "2..10"
        )
        assert code == 0
        flags = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert flags == ["true"] * 5 + ["false"] * 4

    def test_feasible_all_false_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "feasible", "--k", "2", "--n-range", "7..9"
        )
        assert code == 2

    def test_feasible_k1(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "feasible", "--k", "1", "--n-range", "2..5"
        )
        flags = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert flags == ["true", "false", "false", "false"]

    def test_feasible_jobs_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exact", "feasible", "--k", "2", "--n-range", "2..7", "--jobs", "2",
        )
        assert code == 0
        flags = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert flags == ["true"] * 5 + ["false"]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_feasible_jobs_below_one_rejected(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        code, out, err = run_cli(
            capsys, "exact", "feasible", "--k", "2", "--n-range", "2..7", "--jobs", jobs,
        )
        assert code == 64 and "--jobs" in err and out == ""

    def test_search_solver_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(exact, "_Highs", NonOptimalHighs)
        code, out, err = run_cli(capsys, "exact", "search", "--k", "3", "--n", "16")
        assert code == 1 and out == ""
        assert err.startswith("invinsert: exact search: LP ") and err.count("\n") == 1

    def test_search_writes_series_and_synth_consumes_it(self, capsys, tmp_path):
        series_path = tmp_path / "a1.json"
        code, out, _ = run_cli(
            capsys,
            "exact", "search", "--k", "3", "--n", "6", "--out", str(series_path),
        )
        assert code == 0
        assert json.loads(out)["results"]["found"]
        schedule_path = tmp_path / "sched.json"
        code, out, _ = run_cli(
            capsys,
            "exact", "synth", "--n", "6", "--k", "3",
            "--series", str(series_path), "--out", str(schedule_path),
        )
        assert code == 0
        assert json.loads(out)["results"]["exact"]

    def test_k4_multi_series_file_round_trip(self, capsys, tmp_path):
        # two free series travel in one name-keyed file
        series_path = tmp_path / "free.json"
        code, out, _ = run_cli(
            capsys, "exact", "search", "--k", "4", "--n", "6", "--out", str(series_path)
        )
        assert code == 0
        data = json.loads(series_path.read_text())
        assert set(data) == {"A1", "B2"}
        schedule_path = tmp_path / "s.json"
        code, out, _ = run_cli(
            capsys,
            "exact", "synth", "--n", "6", "--k", "4",
            "--series", str(series_path), "--out", str(schedule_path),
        )
        assert code == 0
        assert json.loads(out)["results"]["exact"]

    def test_search_infeasible_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "search", "--k", "2", "--n", "7")
        assert code == 2
        assert json.loads(out)["results"]["found"] is False

    def test_search_takes_no_seed(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "search", "--k", "2", "--n", "6")
        assert code == 0
        assert json.loads(out)["params"] == {"k": 2, "n": 6, "grid": None}
        code, _, err = run_cli(capsys, "exact", "search", "--k", "2", "--n", "6", "--seed", "1")
        assert code == 64 and "--seed" in err

    def test_grid_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("INVINSERT_GRID", "5000")
        code, out, _ = run_cli(capsys, "exact", "search", "--k", "2", "--n", "6")
        assert code == 0
        certs = json.loads(out)["results"]["certificates"]
        assert certs["1"]["grid_points"] == 5000

    @pytest.mark.parametrize("argv", [
        ("exact", "search", "--k", "3", "--n", "16", "--grid", "0"),
        ("exact", "feasible", "--k", "2", "--n-range", "6..7", "--grid", "0"),
    ])
    def test_zero_grid_rejected(self, capsys, argv):
        # a grid of 0 is too coarse, not a request for the default grid
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and "grid intervals" in err and out == ""

    def test_results_deterministic_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "exact", "search", "--k", "3", "--n", "8")
        _, out2, _ = run_cli(capsys, "exact", "search", "--k", "3", "--n", "8")
        assert json.loads(out1)["results"] == json.loads(out2)["results"]


class TestSynthVerifyRoundTrip:
    def test_success_probs_identical_after_reload(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        code, out, _ = run_cli(
            capsys, "exact", "synth", "--n", "6", "--k", "2", "--out", str(path)
        )
        assert code == 0
        synth_probs = json.loads(out)["results"]["success_probs"]
        code, out, _ = run_cli(
            capsys, "verify", "--schedule", str(path), "--format", "json"
        )
        assert code == 0
        verify_probs = json.loads(out)["results"]["success_probs"]
        np.testing.assert_allclose(verify_probs, synth_probs, atol=1e-12)

    def test_verify_table_layout(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        run_cli(capsys, "exact", "synth", "--n", "6", "--k", "2", "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[7].split("\t")
        assert header == ["x", "V1", "V2"]
        first = lines[8].split("\t")
        assert first[1] == "0.7572" and first[2] == "0.9122"

    def test_serialized_precision(self, tmp_path):
        # at least 15 significant digits survive the file round trip
        stages = np.array([[0.123456789012345678, 1.0, 2.0, 3.0]])
        schedule = hilbert.PhaseSchedule(n=2, k=1, stages=stages)
        path = tmp_path / "p.json"
        hilbert.save_schedule(schedule, path)
        loaded = hilbert.load_schedule(path)
        assert loaded.stages[0, 0] == schedule.stages[0, 0]


class TestComposeAndRate:
    def test_compose_single_j(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        run_cli(capsys, "exact", "synth", "--n", "6", "--k", "2", "--out", str(path))
        code, out, _ = run_cli(
            capsys,
            "compose", "--m", "6", "--k", "2", "--h", "2",
            "--j", "17", "--schedule", str(path),
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["all_recovered"]
        run = results["runs"][0]
        assert run["found_j"] == 17 and run["queries_used"] == 4
        assert [level[1] for level in run["per_level"]] == [2, 1]

    def test_compose_synthesizes_when_no_schedule_given(self, capsys):
        code, out, _ = run_cli(
            capsys, "compose", "--m", "2", "--k", "1", "--h", "3", "--all"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["all_recovered"] and len(results["runs"]) == 8

    @pytest.mark.parametrize("argv", [
        ["--h", "2", "--j", "36"],
        ["--h", "2", "--j", "-1"],
        ["--h", "0", "--j", "0"],
        ["--h", "-1", "--all"],
    ])
    def test_compose_usage_errors_exit_64(self, capsys, monkeypatch, argv):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("a schedule was synthesized")

        monkeypatch.setattr(cli.synth, "synthesize_exact", no_synthesis)
        code, out, err = run_cli(capsys, "compose", "--m", "6", "--k", "2", *argv)
        assert code == 64 and out == ""
        assert err.startswith("invinsert: --") and err.count("\n") == 1

    def test_rate_prints_4dp(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--k", "3", "--m", "52")
        assert code == 0
        assert out.strip() == "0.5263"
        code, out, _ = run_cli(capsys, "rate", "--k", "2", "--m", "6")
        assert out.strip() == "0.7737"

    def test_rate_sort_items(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--k", "3", "--m", "52", "--sort-items", "1000"
        )
        assert code == 0
        lines = out.strip().splitlines()
        expected = 1000 * (3 / np.log2(52)) * np.log2(1000)
        assert lines[1] == f"sort_queries={expected:.1f}"


SCHEDULE_DOC = {"n": 6, "k": 2, "stages": [[0.0] * 12] * 2}
SERIES_DOC = {"n": 6, "klass": "A", "coeffs": [0.0] * 5}


def run_input_document(capsys, tmp_path, kind, doc):
    """Load ``doc`` through the command that reads that kind of file."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    if kind == "schedule":
        return run_cli(capsys, "verify", "--schedule", str(path))
    return run_cli(
        capsys, "exact", "synth", "--n", "6", "--k", "3",
        "--series", str(path), "--out", str(tmp_path / "out.json"),
    )


class TestInputIntegers:
    @pytest.mark.parametrize("kind", ["schedule", "series"])
    def test_integer_documents_load(self, capsys, tmp_path, kind):
        doc = SCHEDULE_DOC if kind == "schedule" else SERIES_DOC
        code, _, _ = run_input_document(capsys, tmp_path, kind, doc)
        assert code == 0

    @pytest.mark.parametrize("value", [6.9, 6.5, 6.0, True, "6", None])
    @pytest.mark.parametrize("kind", ["schedule", "series"])
    def test_non_integer_n_rejected(self, capsys, tmp_path, kind, value):
        doc = dict(SCHEDULE_DOC if kind == "schedule" else SERIES_DOC, n=value)
        code, out, err = run_input_document(capsys, tmp_path, kind, doc)
        assert code == 65 and out == "" and "'n' must be an integer" in err
        loader = hilbert.load_schedule if kind == "schedule" else exact.load_series
        with pytest.raises(SchemaError):
            loader(tmp_path / f"{kind}.json")

    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    def test_non_integer_k_rejected(self, capsys, tmp_path, value):
        doc = dict(SCHEDULE_DOC, k=value)
        code, out, err = run_input_document(capsys, tmp_path, "schedule", doc)
        assert code == 65 and out == "" and "'k' must be an integer" in err


class TestExitCodes:
    def test_unknown_command_is_64(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64

    def test_unknown_flag_is_64(self, capsys):
        code, _, _ = run_cli(capsys, "greedy", "--n", "4", "--k", "1", "--bogus")
        assert code == 64

    def test_malformed_schedule_is_65(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2}')
        code, _, err = run_cli(capsys, "verify", "--schedule", str(path))
        assert code == 65

    def test_unparseable_json_is_65(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        code, _, _ = run_cli(capsys, "verify", "--schedule", str(path))
        assert code == 65

    def test_missing_file_is_65(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "verify", "--schedule", str(tmp_path / "nope.json"))
        assert code == 65

    def test_console_script_installed(self, tmp_path):
        # Run the [project.scripts] entry point of this checkout through the
        # wrapper an installer writes, so neither an install step nor a stale
        # `invinsert` elsewhere on PATH decides the outcome.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")

        repo = Path(__file__).resolve().parents[1]
        with open(repo / "pyproject.toml", "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["invinsert"]
        module, attr = entry.split(":")
        script = tmp_path / "invinsert"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
        )

        proc = subprocess.run(
            ["invinsert", "rate", "--k", "1", "--m", "2"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1.0000"
