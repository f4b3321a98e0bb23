"""Each benchmark check accepts the program's real output and rejects it
once corrupted: one perturbed phase, one flipped verdict, one moved cell.

    python3 -m pytest perfbench/test_checks.py -q

Run from the root of a checkout; the program is imported from ``src/``.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from invinsert import cli  # noqa: E402


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, json.loads(buf.getvalue())["results"]


def rejects(check, *args):
    with pytest.raises(CheckError):
        check(*args)


@pytest.fixture(scope="module")
def greedy64(tmp_path_factory):
    path = tmp_path_factory.mktemp("greedy") / "g64.json"
    _, results = run("greedy", "--n", "64", "--k", "6", "--format", "json", "--emit-schedule", str(path))
    return results, path.read_text()


@pytest.fixture(scope="module")
def schedule52(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    path = out / "s52.json"
    rc, synth = run("exact", "synth", "--n", "52", "--k", "3", "--out", str(path),
                    "--series", str(workloads.INPUTS / "free-52-3.json"))
    _, verify = run("verify", "--schedule", str(path), "--format", "json")
    return rc, synth, verify, path.read_text()


def perturbed_phase(text, stage=0, p=1, delta=1e-3):
    doc = json.loads(text)
    doc["stages"][stage][p] += delta
    return json.dumps(doc)


def test_greedy_table_rejects_a_moved_cell(greedy64):
    results, _ = greedy64
    checks.greedy_table(results, 64)
    moved = copy.deepcopy(results)
    moved["probs"][3] += 2e-4
    rejects(checks.greedy_table, moved, 64)
    saturated = copy.deepcopy(results)
    saturated["probs"][5] = 0.9994
    rejects(checks.greedy_table, saturated, 64)


def test_greedy_one_query_rejects_a_small_error(greedy64):
    results, _ = greedy64
    checks.greedy_one_query(results, 64)
    wrong = copy.deepcopy(results)
    wrong["probs"][1] *= 1 + 1e-7
    rejects(checks.greedy_one_query, wrong, 64)


def test_greedy_bound_rejects_a_probability_above_it(greedy64):
    results, _ = greedy64
    checks.greedy_under_bound(results, 64)
    above = copy.deepcopy(results)
    above["probs"][1] = checks.inverse_sine_sum(64) ** 2 / 64 * 1.001
    rejects(checks.greedy_under_bound, above, 64)
    classical = copy.deepcopy(results)
    classical["classical"][2] *= 2
    rejects(checks.greedy_under_bound, classical, 64)


def test_greedy_replay_rejects_one_perturbed_phase(greedy64):
    results, text = greedy64
    js = (0, 17, 63)
    checks.greedy_replay(results, text, 64, 6, js)
    rejects(checks.greedy_replay, results, perturbed_phase(text, stage=5, p=0), 64, 6, js)


def test_bound_report_rejects_a_wrong_query_count():
    _, results = run("bound", "--n", "256", "--format", "json")
    checks.bound_report(results, 256)
    wrong = dict(results, min_queries=results["min_queries"] + 1)
    rejects(checks.bound_report, wrong, 256)
    scaled = dict(results, per_ell=[v * (1 + 1e-9) for v in results["per_ell"]])
    rejects(checks.bound_report, scaled, 256)


def test_search_checks_reject_wrong_classes_and_flipped_verdicts():
    rc, found = run("exact", "search", "--k", "3", "--n", "52")
    checks.search_classes(found, 52, 3)
    checks.search_verdict(rc, found, 52, 3)

    swapped = copy.deepcopy(found)
    swapped["free"]["A1"]["klass"] = "B"
    rejects(checks.search_classes, swapped, 52, 3)
    renamed = copy.deepcopy(found)
    renamed["free"]["B1"] = renamed["free"].pop("A1")
    rejects(checks.search_classes, renamed, 52, 3)

    # a flipped verdict: the relaxation has delta* > 0 at (52, 3)
    rejects(checks.search_verdict, 2, {"found": False}, 52, 3)
    # a found series that dips below zero between the program's grid points
    dented = copy.deepcopy(found)
    dented["free"]["A1"]["coeffs"] = [c - 0.2 for c in dented["free"]["A1"]["coeffs"]]
    rejects(checks.search_verdict, rc, dented, 52, 3)
    rejects(checks.search_verdict, 2, found, 52, 3)


def test_search_verdict_confirms_and_rejects_not_found():
    rc, missing = run("exact", "search", "--k", "3", "--n", "57")
    assert rc == 2 and not missing["found"]
    checks.search_classes(missing, 57, 3)
    checks.search_verdict(rc, missing, 57, 3)
    assert checks.best_slack(57, 3) < 0
    zero = {"n": 57, "klass": "A", "coeffs": [0.0] * 56}
    rejects(checks.search_verdict, 0, {"found": True, "free": {"A1": zero}}, 57, 3)


def test_k2_checks_reject_flipped_verdicts():
    rc, results = run("exact", "feasible", "--k", "2", "--n-range", "2..10", "--format", "json")
    checks.k2_verdicts(rc, results)
    checks.k2_paper_boundary(results)
    for n in (6, 7):
        flipped = copy.deepcopy(results)
        i = flipped["n"].index(n)
        flipped["feasible"][i] = not flipped["feasible"][i]
        rejects(checks.k2_verdicts, rc, flipped)
        rejects(checks.k2_paper_boundary, flipped)
    rejects(checks.k2_verdicts, 2, results)


def test_synth_checks_reject_one_perturbed_phase(schedule52):
    rc, synth, verify, text = schedule52
    checks.synth_report(rc, synth, text)
    checks.schedule_exact(text, 52, 3)
    checks.verify_agrees(verify, text)
    bad = perturbed_phase(text, stage=1, p=2, delta=1e-4)
    rejects(checks.schedule_exact, bad, 52, 3)
    rejects(checks.synth_report, rc, synth, bad)
    rejects(checks.verify_agrees, verify, bad)
    rejects(checks.schedule_exact, text, 52, 4)


def test_synth_and_verify_reject_a_wrong_success_value(schedule52):
    rc, synth, verify, text = schedule52
    for results, check in ((synth, lambda r: checks.synth_report(rc, r, text)),
                           (verify, lambda r: checks.verify_agrees(r, text))):
        wrong = copy.deepcopy(results)
        wrong["success_probs"][7] -= 1e-8
        rejects(check, wrong)
    rejects(checks.synth_report, rc, dict(synth, exact=False), text)


def test_compose_check_rejects_a_wrong_answer_or_query_count(tmp_path):
    path = tmp_path / "s6.json"
    run("exact", "synth", "--n", "6", "--k", "2", "--out", str(path))
    rc, results = run("compose", "--m", "6", "--k", "2", "--h", "2", "--all", "--schedule", str(path))
    checks.compose_runs(rc, results, 6, 2, 2)
    for field, value in (("found_j", 5), ("queries_used", 3)):
        wrong = copy.deepcopy(results)
        wrong["runs"][11][field] = value
        rejects(checks.compose_runs, rc, wrong, 6, 2, 2)
    short = copy.deepcopy(results)
    short["runs"].pop()
    rejects(checks.compose_runs, rc, short, 6, 2, 2)


def test_fixed_inputs_pass_and_a_corrupted_one_is_rejected():
    for n, k, name in workloads.SYNTHESES:
        if name:
            checks.free_series_file((workloads.INPUTS / name).read_text(), n, k)
    doc = json.loads((workloads.INPUTS / "free-150-4.json").read_text())
    doc["B2"]["coeffs"][0] += 0.5
    doc["B2"]["coeffs"][-1] -= 0.5
    rejects(checks.free_series_file, json.dumps(doc), 150, 4)
    doc = json.loads((workloads.INPUTS / "free-52-3.json").read_text())
    rejects(checks.free_series_file, json.dumps(dict(doc, klass="B")), 52, 3)


def test_dct_grid_matches_direct_evaluation():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(30)
    grid = 512
    theta = np.pi * np.arange(grid + 1) / grid
    direct = 1 + np.cos(np.outer(theta, np.arange(1, 31))) @ coeffs
    assert np.abs(checks.one_plus_on_grid(coeffs, grid) - direct).max() < 1e-12
