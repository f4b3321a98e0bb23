"""Command-line surface: formats, exit codes, file round trips."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from exact_testing import NonOptimalHighs
from hilbert_testing import count_rows

from invinsert import cli, exact, greedy, hilbert, synth
from invinsert.errors import FactorizationError, SchemaError

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
        assert hilbert.load_schedule(path).shape == (2, 12)


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

    def test_n2_needs_one_query(self, capsys):
        # the squared bound after one query is 1 up to rounding, and
        # `exact synth --n 2 --k 1` is exact with that one query
        code, out, _ = run_cli(capsys, "bound", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["min_queries"] == 1

    @pytest.mark.parametrize("epsilon, shown", [("0", "0.0"), ("1.5", "1.5"), ("nan", "nan")])
    def test_epsilon_outside_unit_interval_is_64(self, capsys, monkeypatch, epsilon, shown):
        # refused as the arguments are parsed, before any bound is computed
        def no_report(*args, **kwargs):
            raise AssertionError("a bound was computed")

        monkeypatch.setattr(cli.bounds, "bound_report", no_report)
        code, out, err = run_cli(capsys, "bound", "--n", "64", "--epsilon", epsilon)
        assert (code, out, err) == (64, "", f"invinsert: --epsilon must lie in (0, 1], got {shown}\n")


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

    def test_feasible_jobs_after_a_search_in_process(self, capsys):
        # a solve leaves a HiGHS thread running in this process, which the
        # worker pool must not fork
        assert exact.search_free_series(52, 3) is not None
        serial, pooled = (
            run_cli(capsys, "exact", "feasible", "--k", "3", "--n-range", "55..58", "--jobs", jobs)
            for jobs in ("1", "2")
        )
        assert serial == pooled
        assert "true" in serial[1] and "false" in serial[1]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_feasible_jobs_below_one_rejected(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        code, out, err = run_cli(
            capsys, "exact", "feasible", "--k", "2", "--n-range", "2..7", "--jobs", jobs,
        )
        assert code == 64 and "--jobs" in err and out == ""

    def test_feasible_one_n_starts_no_pool(self, capsys, monkeypatch):
        # a worker per N at most: one N runs in this process whatever --jobs says
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        code, out, _ = run_cli(
            capsys, "exact", "feasible", "--k", "2", "--n-range", "6..6", "--jobs", "2",
        )
        assert code == 0 and out == "n,feasible\n6,true\n"

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

    @pytest.mark.parametrize("n,k,docs,message", [
        (8, 3, {"A1": {"n": 6, "klass": "A", "coeffs": [0.0] * 5}},
         "A1 is a class-A series for N=6, expected class A for N=8"),
        (6, 3, {"A1": {"n": 6, "klass": "B", "coeffs": [0.0] * 5}},
         "A1 is a class-B series for N=6, expected class A for N=6"),
        (6, 4, {"n": 6, "klass": "A", "coeffs": [0.0] * 5}, "no series for ['B2']"),
        (6, 2, {"n": 6, "klass": "A", "coeffs": [0.0] * 5}, "a 2-query chain has no free series"),
    ], ids=["wrong-n", "wrong-class", "empty-slot", "no-free-series"])
    def test_series_file_that_does_not_fit_the_chain_is_65(
        self, capsys, tmp_path, n, k, docs, message
    ):
        series_path = tmp_path / "free.json"
        series_path.write_text(json.dumps(docs))
        schedule_path = tmp_path / "s.json"
        code, out, err = run_cli(
            capsys,
            "exact", "synth", "--n", str(n), "--k", str(k),
            "--series", str(series_path), "--out", str(schedule_path),
        )
        assert code == 65 and out == "" and not schedule_path.exists()
        assert err == f"invinsert: {series_path}: {message}\n"

    @pytest.mark.parametrize("order", [("bare", "keyed"), ("keyed", "keyed"), ("keyed", "bare")])
    def test_series_slot_given_twice_is_65(self, capsys, tmp_path, order):
        series = {"n": 6, "klass": "A", "coeffs": [0.0] * 5}
        docs = {"bare": series, "keyed": {"A1": series}}
        argv = ["exact", "synth", "--n", "6", "--k", "3", "--out", str(tmp_path / "s.json")]
        for i, kind in enumerate(order):
            path = tmp_path / f"{i}-{kind}.json"
            path.write_text(json.dumps(docs[kind]))
            argv += ["--series", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 65 and out == "" and not (tmp_path / "s.json").exists()
        assert err == f"invinsert: {path}: A1 given more than once\n"

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

    @pytest.mark.parametrize("argv", [
        ("exact", "search", "--k", "3", "--n", "16", "--grid", "0"),
        ("exact", "feasible", "--k", "2", "--n-range", "6..7", "--grid", "0"),
        ("exact", "search", "--k", "3", "--n", "16", "--grid", "-4"),
        ("exact", "synth", "--k", "3", "--n", "16", "--grid", "-4", "--out", "{out}"),
    ])
    def test_zero_grid_rejected(self, capsys, tmp_path, argv):
        # a grid of 0 is too coarse, not a request for the default grid, and
        # a negative one is no grid at all
        out_file = tmp_path / "s.json"
        code, out, err = run_cli(capsys, *(a.format(out=out_file) for a in argv))
        assert code == 1 and "grid intervals" in err and out == ""
        assert not out_file.exists()

    def test_synth_refuses_a_chain_negative_off_the_grid(self, capsys, tmp_path):
        # `exact search --k 4 --n 550` finds this chain and exits 0, but its
        # stage 2 dips below 0 between the grid's points (ROADMAP item 1)
        series = Path(__file__).parent / "data" / "free-550-4.json"
        out_file = tmp_path / "s.json"
        code, out, err = run_cli(
            capsys, "exact", "synth", "--n", "550", "--k", "4",
            "--series", str(series), "--out", str(out_file),
        )
        assert code == 1 and out == "" and not out_file.exists()
        assert err.startswith(
            "invinsert: stage 2: Q is not positive on the 65536-point grid"
        )

    @pytest.mark.parametrize("argv", [
        "exact search --k 2 --n 6",
        "exact feasible --k 2 --n-range 6..7 --format json",
        "exact synth --n 6 --k 2 --out {out}",
    ])
    def test_reports_record_a_given_grid(self, capsys, tmp_path, argv):
        out_file = tmp_path / "s.json"
        argv = shlex.split(argv.format(out=out_file)) + ["--grid", "100"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["params"]["grid"] == 100

    def test_results_deterministic_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "exact", "search", "--k", "3", "--n", "8")
        _, out2, _ = run_cli(capsys, "exact", "search", "--k", "3", "--n", "8")
        assert json.loads(out1)["results"] == json.loads(out2)["results"]


VERDICT_COMMANDS = {
    "search": ("exact search --k {k} --n {n}", "found"),
    "feasible": ("exact feasible --k {k} --n-range {n}..{n} --format json", "feasible"),
    "synth": ("exact synth --n {n} --k {k} --out {out}", "exact"),
    "compose": ("compose --m {n} --k {k} --h 1 --j 0", "all_recovered"),
}


class TestOneVerdictPerChain:
    # an exact (N, k) algorithm exists for k = 1 only at N = 2 and for
    # k = 2 only up to N = 6; every command must say so the same way
    @pytest.mark.parametrize("command", sorted(VERDICT_COMMANDS))
    @pytest.mark.parametrize("k,n,feasible", [(1, 2, True), (1, 3, False), (2, 6, True), (2, 7, False)])
    def test_same_verdict_and_exit_code(self, capsys, tmp_path, command, k, n, feasible):
        line, key = VERDICT_COMMANDS[command]
        out_file = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, *shlex.split(line.format(k=k, n=n, out=out_file)))
        report = json.loads(out)
        results = report["results"]
        assert code == (0 if feasible else 2)
        # each report records the grid that decided its verdict
        assert report["params"] == {
            "search": {"k": k, "n": n, "grid": None},
            "feasible": {"k": k, "n_range": f"{n}..{n}", "grid": None},
            "synth": {"n": n, "k": k, "grid": None, **({"out": str(out_file)} if feasible else {})},
            "compose": {"m": n, "k": k, "h": 1},
        }[command]
        if command == "feasible":
            assert results["feasible"] == [feasible]
        elif feasible:
            assert results[key] is True
        else:
            assert results == {"found": False}
        assert out_file.exists() == (command == "synth" and feasible)


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # the README's command-line block, line by line in one directory: its
    # files chain from one command to the next
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()]
    lines = [argv for argv in lines if argv]
    assert len(lines) >= 10 and all(argv[0] == "invinsert" for argv in lines)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv


class TestSynthVerifyRoundTrip:
    def test_verify_runs_three_rows(self, capsys, monkeypatch):
        # answer 0 and the spot-checked N // 2 and N - 1 stand for all 52
        rows = count_rows(monkeypatch)
        path = Path(__file__).parent / "data" / "greedy-52-6.schedule.json"
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path), "--format", "json")
        assert code == 0 and len(json.loads(out)["results"]["success_probs"]) == 52
        assert 0 < sum(rows) <= 3

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
        # every answer has the same success, so it is printed once
        assert lines[:2] == ["n=6 k=2", "success = 1.000000000000 (every answer)"]
        header = lines[2].split("\t")
        assert header == ["x", "V1", "V2"]
        first = lines[3].split("\t")
        assert first[1] == "0.7572" and first[2] == "0.9122"
        # every row is x and the real parts of the stages' V columns
        columns = synth.v_column(hilbert.load_schedule(path)).real
        rows = [line.split("\t") for line in lines[3:]]
        assert rows == [[str(x)] + [f"{v:.4f}" for v in columns[:, x]] for x in range(12)]

    def test_verify_json_reports_success_only(self, capsys, tmp_path):
        # the V columns follow from the schedule file, so the report leaves
        # them out; with them it would take 2.4 MB at (4096, 6)
        path = tmp_path / "g.json"
        run_cli(capsys, "greedy", "--n", "4096", "--k", "6", "--emit-schedule", str(path))
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path), "--format", "json")
        assert code == 0 and len(out.encode()) < 128 * 1024
        results = json.loads(out)["results"]
        assert list(results) == ["n", "k", "success_probs", "min_success_prob"]
        assert (results["n"], results["k"], len(results["success_probs"])) == (4096, 6, 4096)

    def test_serialized_precision(self, tmp_path):
        # at least 15 significant digits survive the file round trip
        stages = np.array([[0.123456789012345678, 1.0, 2.0, 3.0]])
        path = tmp_path / "p.json"
        hilbert.save_schedule(stages, path)
        loaded = hilbert.load_schedule(path)
        assert loaded[0, 0] == stages[0, 0]


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
        assert run == {"hidden_j": 17, "found_j": 17, "queries_used": 4}

    def test_compose_without_a_free_series_reports_every_param(self, capsys):
        # two queries are exact only up to N = 6, so (7, 2) has no free series
        code, out, _ = run_cli(capsys, "compose", "--m", "7", "--k", "2", "--h", "2", "--all")
        report = json.loads(out)
        assert code == 2
        assert report["params"] == {"m": 7, "k": 2, "h": 2}
        assert report["results"] == {"found": False}

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
        ["--h", "40", "--j", "1"],  # M^h past int64
        ["--h", "30", "--all"],
        ["--h", "24", "--all"],  # 6^24 answers: below 2^63, past ALL_ANSWERS_MAX
    ])
    def test_compose_usage_errors_exit_64(self, capsys, monkeypatch, argv):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("a schedule was synthesized")

        monkeypatch.setattr(cli.synth, "synthesize_exact", no_synthesis)
        code, out, err = run_cli(capsys, "compose", "--m", "6", "--k", "2", *argv)
        assert code == 64 and out == ""
        assert err.startswith("invinsert: --") and err.count("\n") == 1

    def test_compose_huge_h_exits_64_at_once(self):
        # M >= 2 puts h >= 63 past int64 before M^h is formed; forming
        # 3^(10^8) alone takes over a minute.  In a child process with a
        # timeout, so that a slow check fails the test instead of hanging it
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "invinsert.cli",
             "compose", "--m", "3", "--k", "1", "--h", "100000000", "--j", "0"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (64, "")
        assert proc.stderr == "invinsert: --h 100000000: M^h = 3^100000000 must be below 2^63\n"

    @pytest.mark.parametrize("m", ["-2", "0", "1"])
    def test_compose_m_below_two_exits_64(self, capsys, m):
        # checked before M^h is formed, against which --j is checked
        code, out, err = run_cli(capsys, "compose", "--m", m, "--k", "1", "--h", "1", "--j", "0")
        assert (code, out, err) == (64, "", f"invinsert: --m must be at least 2, got {m}\n")

    def test_compose_size_checked_before_schedule_loads(self, capsys, tmp_path):
        # 2^63 answers is the first size past int64; a missing schedule
        # would exit 65 if it were read first
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(
            capsys, "compose", "--m", "2", "--k", "1", "--h", "63", "--j", "0",
            "--schedule", missing,
        )
        assert code == 64 and out == "" and "2^63" in err and err.count("\n") == 1
        code, _, _ = run_cli(
            capsys, "compose", "--m", "2", "--k", "1", "--h", "62", "--j", "0",
            "--schedule", missing,
        )
        assert code == 65

    def test_compose_all_cap(self, capsys, tmp_path):
        # --all is refused past ALL_ANSWERS_MAX before the schedule file is
        # read (a missing one would exit 65); one answer of the same size runs
        assert cli.ALL_ANSWERS_MAX < 6**24 < 2**63
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(
            capsys, "compose", "--m", "6", "--k", "2", "--h", "24", "--all",
            "--schedule", missing,
        )
        assert code == 64 and out == "" and err.count("\n") == 1
        assert err.startswith("invinsert: --all: M^h = 6^24 answers")
        path = tmp_path / "s6.json"
        hilbert.save_schedule(synth.synthesize_exact(6, 2, {})[0], path)
        j = 6**24 - 12345
        code, out, _ = run_cli(
            capsys, "compose", "--m", "6", "--k", "2", "--h", "24", "--j", str(j),
            "--schedule", str(path),
        )
        results = json.loads(out)["results"]
        assert code == 0 and results["all_recovered"]
        assert results["runs"][0]["found_j"] == j and results["runs"][0]["queries_used"] == 48

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

    @pytest.mark.parametrize("items", ["0", "-5"])
    def test_rate_sort_items_below_one_rejected(self, capsys, items):
        code, out, err = run_cli(
            capsys, "rate", "--k", "3", "--m", "52", "--sort-items", items
        )
        assert code == 64 and out == ""
        assert err.startswith("invinsert: --sort-items") and err.count("\n") == 1

    def test_rate_sort_one_item(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--k", "3", "--m", "52", "--sort-items", "1")
        assert code == 0
        assert out.splitlines() == ["0.5263", "sort_queries=0.0"]


SCHEDULE_DOC = {"n": 6, "k": 2, "stages": [[0.0] * 12] * 2}
SERIES_DOC = {"n": 6, "klass": "A", "coeffs": [0.0] * 5}


def run_input_document(capsys, tmp_path, kind, doc):
    """Load ``doc`` (a document, or its text) through the command that reads
    that kind of file."""
    path = tmp_path / f"{kind}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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


NON_NUMBER_DOCS = [
    ("schedule", {"n": 2, "k": 1, "stages": [["0", True, "0.0", False]]}),
    ("schedule", dict(SCHEDULE_DOC, stages=[[0.0] * 11 + [True], [0.0] * 12])),
    ("schedule", dict(SCHEDULE_DOC, stages=[[0.0] * 12, [None] * 12])),
    ("series", {"n": 3, "klass": "A", "coeffs": ["1.5", "1.5"]}),
    ("series", dict(SERIES_DOC, coeffs=[0.0, False, 0.0, False, 0.0])),
    ("series", dict(SERIES_DOC, coeffs=[0.0, 0.0, None, 0.0, 0.0])),
    # long rows, which pass or fail as a whole before any value is walked
    ("schedule", {"n": 1024, "k": 2, "stages": [[0.0] * 2047 + [True], [0.0] * 2048]}),
    ("schedule", {"n": 1024, "k": 2, "stages": [[0.0] * 2048, [0.0] * 1000 + [None] + [0.0] * 1047]}),
]


class TestInputNumbers:
    # json.dumps writes NaN and Infinity; 1e400 overflows a float
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("kind", ["schedule", "series"])
    def test_non_finite_numbers_rejected(self, capsys, tmp_path, kind, literal):
        doc = SCHEDULE_DOC if kind == "schedule" else SERIES_DOC
        text = json.dumps(doc).replace("0.0", literal, 1)
        code, out, err = run_input_document(capsys, tmp_path, kind, text)
        assert code == 65 and out == "" and "not valid JSON" in err
        loader = hilbert.load_schedule if kind == "schedule" else exact.load_series
        with pytest.raises(SchemaError, match="not valid JSON"):
            loader(tmp_path / f"{kind}.json")

    @pytest.mark.parametrize("kind, doc", NON_NUMBER_DOCS)
    def test_non_number_entries_rejected(self, capsys, tmp_path, kind, doc):
        code, out, err = run_input_document(capsys, tmp_path, kind, doc)
        assert code == 65 and out == "" and "must hold only numbers" in err
        loader = hilbert.load_schedule if kind == "schedule" else exact.load_series
        with pytest.raises(SchemaError, match="must hold only numbers"):
            loader(tmp_path / f"{kind}.json")

    @pytest.mark.parametrize("value, bad", [
        ([[0.0] * 2047 + [True], [0.0] * 2048], "True"),
        ([[0.0] * 2048, [0.0] * 1000 + [None] + [0.0] * 1047], "None"),
        ([[1, "a"], ["b"], 2.5], "'a'"),  # breadth-first: the first row's value
        ([[[0.0, False]], [1, None]], "None"),  # shallower than the False
    ])
    def test_error_names_the_first_bad_value(self, value, bad):
        with pytest.raises(SchemaError, match=f"field 'stages' must hold only numbers, got {bad}$"):
            SchemaError.require_array({"stages": value}, "stages", "schedule", (2, 2048))

    @pytest.mark.parametrize("kind", ["schedule", "series"])
    def test_integer_entries_load(self, capsys, tmp_path, kind):
        if kind == "schedule":
            doc = dict(SCHEDULE_DOC, stages=[[0] * 12, [1] * 12])
        else:
            doc = dict(SERIES_DOC, coeffs=[0, 0, 0, 0, 0])
        code, _, _ = run_input_document(capsys, tmp_path, kind, doc)
        assert code == 0


BAD_DOCS = [
    ("schedule", dict(SCHEDULE_DOC, n=1.5), "schedule field 'n' must be an integer, got 1.5"),
    ("schedule", {"n": 6, "stages": []}, "schedule document missing fields ['k']"),
    ("schedule", dict(SCHEDULE_DOC, n=1), "problem size must be >= 2, got 1"),
    ("schedule", dict(SCHEDULE_DOC, k=0), "query count must be >= 1, got 0"),
    ("schedule", dict(SCHEDULE_DOC, stages=[[0.0] * 11] * 2), "expected stage array of shape (2, 12), got (2, 11)"),
    ("schedule", [SCHEDULE_DOC], "schedule document must be a JSON object"),
    ("series", dict(SERIES_DOC, coeffs=[1.0, 0.0, 0.0, 0.0, 0.0]),
     "coefficients are not finite or violate class-A symmetry"),
    ("series", dict(SERIES_DOC, n=1.5), "series field 'n' must be an integer, got 1.5"),
    ("series", dict(SERIES_DOC, klass="C"), "unknown series class 'C'"),
    ("series", dict(SERIES_DOC, coeffs=[0.0] * 4), "expected 5 coefficients, got shape (4,)"),
    ("series", {"A1": 5}, "series document must be a JSON object"),
    ("series", {"A1": {"n": 6, "klass": "A"}}, "series document missing fields ['coeffs']"),
    # nested lists of unequal lengths name the field and the shape expected
    ("schedule", {"n": 2, "k": 2, "stages": [[0, 0], [0]]},
     "schedule field 'stages' must be an array of shape (2, 4), got a ragged list"),
    ("series", {"n": 4, "klass": "A", "coeffs": [[0, 0], [0]]},
     "series field 'coeffs' must be an array of shape (3,), got a ragged list"),
]


class TestInputErrorsNameTheFile:
    @pytest.mark.parametrize("kind, doc, message", BAD_DOCS)
    def test_document_error_names_the_file(self, capsys, tmp_path, kind, doc, message):
        # with several --series files, the path tells which one is bad
        path = tmp_path / f"{kind}.json"
        code, out, err = run_input_document(capsys, tmp_path, kind, doc)
        assert (code, out, err) == (65, "", f"invinsert: {path}: {message}\n")
        loader = hilbert.load_schedule if kind == "schedule" else exact.load_series
        with pytest.raises(SchemaError) as raised:
            loader(path)
        assert str(raised.value) == f"{path}: {message}"


class TestExitCodes:
    def test_unknown_command_is_64(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64

    def test_unknown_flag_is_64(self, capsys):
        code, _, _ = run_cli(capsys, "greedy", "--n", "4", "--k", "1", "--bogus")
        assert code == 64

    @pytest.mark.parametrize("argv, message", [
        (["rate", "--k", "1", "--m", "1"], "--m must be at least 2, got 1"),
        (["greedy", "--n", "1", "--k", "1"], "--n must be at least 2, got 1"),
        (["greedy", "--n", "4", "--k", "0"], "--k must be at least 1, got 0"),
        (["bound", "--n", "1"], "--n must be at least 2, got 1"),
        (["exact", "search", "--k", "3", "--n", "1"], "--n must be at least 2, got 1"),
        (["exact", "feasible", "--k", "0", "--n-range", "2..3"], "--k must be at least 1, got 0"),
        (["exact", "feasible", "--k", "2", "--n-range", "1..3"],
         "--n-range must start at 2 or more, got '1..3'"),
    ], ids=["rate-m", "greedy-n", "greedy-k", "bound-n", "search-n", "feasible-k", "feasible-range"])
    def test_out_of_range_size_is_64(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (64, "", f"invinsert: {message}\n")

    def test_non_integer_size_is_64(self, capsys):
        code, out, err = run_cli(capsys, "greedy", "--n", "4.5", "--k", "1")
        assert code == 64 and out == "" and "invalid int value: '4.5'" in err

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

    @pytest.mark.parametrize("argv", [
        ["verify", "--schedule", "{dir}"],
        ["verify", "--schedule", "{dir}/nope.json"],
        ["exact", "synth", "--n", "52", "--k", "3", "--series", "{dir}", "--out", "{dir}/s.json"],
    ])
    def test_unreadable_input_is_one_line_and_65(self, capsys, tmp_path, argv):
        # a directory or a missing file where an input file belongs
        code, out, err = run_cli(capsys, *[a.format(dir=tmp_path) for a in argv])
        assert code == 65 and out == ""
        assert err.startswith(f"invinsert: {tmp_path}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["greedy", "--n", "4", "--k", "1", "--emit-schedule", "{dir}"],
        ["exact", "synth", "--n", "6", "--k", "2", "--out", "{dir}/missing/x.json"],
        ["exact", "search", "--n", "16", "--k", "3", "--out", "{dir}"],
    ])
    def test_unwritable_output_is_one_line_and_1(self, capsys, tmp_path, argv):
        # an output file that cannot be written is not a malformed input
        code, out, err = run_cli(capsys, *[a.format(dir=tmp_path) for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("invinsert: ") and str(tmp_path) in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["greedy", "--n", "4", "--k", "1", "--emit-schedule", "{dir}/missing/x.json"],
        ["greedy", "--n", "4", "--k", "1", "--emit-schedule", "{dir}"],
        ["exact", "search", "--k", "4", "--n", "200", "--out", "{dir}/missing/x.json"],
        ["exact", "search", "--k", "4", "--n", "200", "--out", "{dir}"],
        ["exact", "synth", "--n", "6", "--k", "2", "--out", "{dir}/missing/x.json"],
        ["exact", "synth", "--n", "6", "--k", "2", "--out", "{dir}"],
    ])
    def test_unwritable_output_fails_before_the_work(self, capsys, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the work started before the output path was checked")

        for module, name in [(exact, "search_free_series"), (synth, "synthesize_exact"), (greedy, "greedy_run")]:
            monkeypatch.setattr(module, name, refuse)
        argv = [a.format(dir=tmp_path) for a in argv]
        with pytest.raises(OSError) as opened:  # what opening the path would say
            open(argv[-1], "w")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err == f"invinsert: {opened.value}\n"

    def test_output_file_untouched_until_the_work_succeeds(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "s.json"
        path.write_text("kept")

        def fail(*args, **kwargs):
            raise FactorizationError("stage 1: refused")

        monkeypatch.setattr(synth, "synthesize_exact", fail)
        code, _, err = run_cli(capsys, "exact", "synth", "--n", "6", "--k", "2", "--out", str(path))
        assert code == 1 and err == "invinsert: stage 1: refused\n"
        assert path.read_text() == "kept"

    def test_out_of_memory_is_one_line_and_1(self, capsys, monkeypatch):
        # numpy's _ArrayMemoryError, as `exact search --grid 4000000000` raises it
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 59.6 GiB for an array with shape (4000000001, 2)")

        monkeypatch.setattr(exact, "search_free_series", fail)
        code, out, err = run_cli(capsys, "exact", "search", "--k", "3", "--n", "16")
        assert code == 1 and out == ""
        assert err == "invinsert: Unable to allocate 59.6 GiB for an array with shape (4000000001, 2)\n"

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


class TestOneParser:
    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        run_cli(capsys, "rate", "--k", "1", "--m", "2")

        def no_rebuild():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        code, out, _ = run_cli(capsys, "rate", "--k", "1", "--m", "2")
        assert code == 0 and out.strip() == "1.0000"

    def test_calls_share_no_state(self, monkeypatch):
        # --series appends, so a parser kept across calls must not carry
        # one call's files into the next
        seen = []
        monkeypatch.setattr(cli, "cmd_exact_synth", lambda args: seen.append(args.series) or 0)
        for files in (["a.json", "b.json"], ["c.json"], []):
            argv = ["exact", "synth", "--n", "6", "--k", "3", "--out", "s.json"]
            for name in files:
                argv += ["--series", name]
            assert cli.main(argv) == 0
        assert seen == [["a.json", "b.json"], ["c.json"], None]
