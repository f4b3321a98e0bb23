"""Recursive composition of exact subroutines and query accounting."""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from invinsert import cli, hilbert
from invinsert.compose import compose_all, rate
from invinsert.errors import CompositionError, ContractError
from invinsert.exact import search_free_series
from invinsert.greedy import greedy_run
from invinsert.synth import synthesize_exact
from hilbert_testing import count_rows, doubled_signs, run_schedule, target_state

DATA = Path(__file__).resolve().parent / "data"
SCHEDULE_6_2 = DATA / "synth-6-2.schedule.json"


def reduced_oracle(j, base, scale: int, m: int) -> np.ndarray:
    """Position signs of the doubled oracle of the reduced insertion function.

    f'(s) = f_j(base + (s + 1) scale - 1) for s = 0..M-1, doubled to 2M
    points the same way as the full problem.  Arrays of ``j`` and ``base``
    give one row per hidden answer.  The reference for the identity
    ``compose_all`` rests on: this is the M-point oracle F_{(j - base) // scale}.
    """
    if scale < 1 or m < 2:
        raise ValueError("need scale >= 1 and m >= 2")
    js, bases = np.broadcast_arrays(np.asarray(j), np.asarray(base))
    outside = (js < bases) | (js >= bases + m * scale)
    if np.any(outside):
        i = int(np.argmax(outside))
        lo = bases.flat[i]
        raise ContractError(
            f"hidden index {js.flat[i]} outside the interval [{lo}, {lo + m * scale})"
        )
    probes = bases[..., None] + (np.arange(m) + 1) * scale - 1
    f = np.where(probes < js[..., None], -1.0, 1.0)
    return np.concatenate([f, -f], axis=-1)


@pytest.fixture(scope="module")
def schedule_6_2():
    return synthesize_exact(6, 2)[0]


@pytest.fixture(scope="module")
def schedule_2_1():
    return synthesize_exact(2, 1)[0]


class TestReducedOracle:
    def test_scale_one_restricts_the_full_oracle(self):
        m = 6
        for j in range(m):
            reduced = reduced_oracle(j, 0, 1, m)
            np.testing.assert_array_equal(reduced, doubled_signs(j, m))

    def test_level_two_example(self):
        # j = 17 in 0..35 probed at 5, 11, 17, 23, 29, 35: below-j probes
        # are s = 0, 1, so the reduced function is the insertion function
        # with answer 17 // 6 = 2
        reduced = reduced_oracle(17, 0, 6, 6)
        np.testing.assert_array_equal(reduced[:6], [-1, -1, 1, 1, 1, 1])
        np.testing.assert_array_equal(reduced[6:], [1, 1, -1, -1, -1, -1])

    def test_last_probe_always_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            scale = int(rng.integers(1, 5))
            base = int(rng.integers(0, 4)) * scale
            j = int(rng.integers(base, base + m * scale))
            assert reduced_oracle(j, base, scale, m)[m - 1] == 1.0

    def test_out_of_interval_rejected(self):
        with pytest.raises(ContractError):
            reduced_oracle(36, 0, 6, 6)
        with pytest.raises(ContractError):
            reduced_oracle(3, 6, 1, 6)

    @pytest.mark.parametrize("m", [2, 3, 6])
    @pytest.mark.parametrize("scale", [1, 2, 6])
    def test_is_the_m_point_oracle(self, m, scale):
        # the identity compose_all's outcome table rests on
        for base in (0, m * scale, 5 * m * scale):
            for j in range(base, base + m * scale):
                np.testing.assert_array_equal(
                    reduced_oracle(j, base, scale, m),
                    doubled_signs((j - base) // scale, m),
                )


class TestComposeSolve:
    def test_exhaustive_m6_k2_h2(self, schedule_6_2):
        # all 36 hidden answers recovered in exactly 4 queries; classical
        # needs ceil(log2 36) = 6
        for hidden in range(36):
            comp = compose_all(schedule_6_2, 2, [hidden])
            assert comp.found[0] == hidden
            assert comp.queries_used == 4

    def test_exhaustive_m2_k1_h5(self, schedule_2_1):
        for hidden in range(32):
            comp = compose_all(schedule_2_1, 5, [hidden])
            assert comp.found[0] == hidden
            assert comp.queries_used == 5

    def test_single_level_matches_direct_run(self, schedule_6_2):
        # h = 1 degenerates to run_schedule plus an argmax measurement
        sign = 1  # the target sign after an even number of queries
        for hidden in range(6):
            comp = compose_all(schedule_6_2, 1, [hidden])
            final, _ = run_schedule(schedule_6_2, hidden)
            overlaps = [
                abs(np.vdot(target_state(j, sign, 6).amps, final.amps)) ** 2
                for j in range(6)
            ]
            assert comp.found[0] == int(np.argmax(overlaps)) == hidden
            assert comp.queries_used == 2

    def test_interval_nesting(self, schedule_6_2):
        comp = compose_all(schedule_6_2, 3, [157])
        assert comp.found.tolist() == [157]
        assert comp.queries_used == 6
        # each interval contains the hidden answer and shrinks by a factor m;
        # its base is the answer with its base-m digits below level t cleared
        _, per_level = reference_run(6, 2, 3, schedule_6_2, 157)
        assert per_level == [(157 - 157 % 6**t, t, 157 // 6 ** (t - 1) % 6) for t in [3, 2, 1]]
        for base, t, _ in per_level:
            assert base <= 157 < base + 6**t

    def test_inexact_schedule_rejected(self):
        # a greedy schedule is good but not exact; composition must refuse it
        _, stages = greedy_run(6, 2)
        with pytest.raises(CompositionError):
            compose_all(stages, 2, [11])

    def test_wrong_schedule_shape_rejected(self, capsys):
        # the schedule's shape gives compose_all its M and k; compose checks
        # them against --m and --k
        for m, k in [(5, 2), (6, 3)]:
            argv = ["compose", "--m", str(m), "--k", str(k), "--h", "2", "--j", "0", "--schedule", str(SCHEDULE_6_2)]
            assert cli.main(argv) == 65
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"invinsert: {SCHEDULE_6_2}: schedule is for (n=6, k=2), expected ({m}, {k})\n"

    def test_hidden_range_checked(self, schedule_6_2):
        with pytest.raises(ValueError):
            compose_all(schedule_6_2, 2, [36])


def reference_run(m, k, h, schedule, hidden):
    """One answer, one level at a time: probe the interval, run the schedule
    on the reduced oracle's signs, and keep the most likely subanswer."""
    base, per_level = 0, []
    for t in range(h, 0, -1):
        scale = m ** (t - 1)
        f = [1.0 if base + (s + 1) * scale - 1 >= hidden else -1.0 for s in range(m)]
        final = hilbert.run_signs(schedule, np.array(f))
        best = int(np.argmax(2 * np.abs(final) ** 2))
        per_level.append((base, t, best))
        base += best * scale
    return base, per_level


class TestComposeAll:
    @pytest.mark.parametrize("m, k, h", [(6, 2, 2), (2, 1, 5), (6, 2, 3)])
    @pytest.mark.parametrize("order", [None, "reversed"])
    def test_matches_single_answer_runs(self, m, k, h, order):
        schedule = synthesize_exact(m, k)[0]
        hidden_js = np.arange(m**h)[::-1] if order else np.arange(m**h)
        comp = compose_all(schedule, h, hidden_js)
        assert comp.found.shape == (m**h,)  # one column per answer, in order
        for i, hidden in enumerate(hidden_js.tolist()):
            single = compose_all(schedule, h, [hidden])
            found, _ = reference_run(m, k, h, schedule, hidden)
            assert comp.found[i] == single.found[0] == found == hidden
            assert comp.queries_used == single.queries_used == h * k

    def test_int64_columns(self, schedule_6_2):
        comp = compose_all(schedule_6_2, 2, [0, 35])
        assert comp.found.dtype == np.int64 and comp.found.shape == (2,)
        assert type(comp.queries_used) is int

    def test_plain_ints(self, capsys):
        # every value of the report's runs reads back as a JSON int
        argv = ["compose", "--m", "6", "--k", "2", "--h", "2", "--all", "--schedule", str(SCHEDULE_6_2)]
        assert cli.main(argv) == 0
        runs = json.loads(capsys.readouterr().out)["results"]["runs"]
        values = [v for run in runs for v in run.values()]
        assert len(values) == 36 * 3
        assert all(type(v) is int for v in values)

    def test_records_hold_the_answer_and_its_queries(self, schedule_2_1, tmp_path, monkeypatch):
        # a record states hidden_j, found_j and queries_used and nothing its
        # answer fixes: level t's subanswer of j is its base-m digit
        path = tmp_path / "s2.json"
        hilbert.save_schedule(schedule_2_1, path)
        report = tmp_path / "report.json"
        for select in [["--j", "40000"], ["--all"]]:
            argv = ["compose", "--m", "2", "--k", "1", "--h", "16", *select, "--schedule", str(path)]
            with open(report, "w") as out:
                monkeypatch.setattr(sys, "stdout", out)
                assert cli.main(argv) == 0
            runs = json.loads(report.read_text())["results"]["runs"]
            assert len(runs) == (1 if select[0] == "--j" else 2**16)
            assert all(run.keys() == {"hidden_j", "found_j", "queries_used"} for run in runs)
        # 3.45 MB for 2^16 answers; with each answer's per-level rows, 16.75 MB
        assert report.stat().st_size < 4 * 10**6

    def test_report_matches_the_pinned_results(self, capsys):
        # the results text of compose --m 6 --k 2 --h 3 --all, as written
        # when each answer was its own run object
        argv = ["compose", "--m", "6", "--k", "2", "--h", "3", "--all", "--schedule", str(SCHEDULE_6_2)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        results = out.split(',"results":', 1)[1].split(',"tool_version":', 1)[0]
        assert results + "\n" == (DATA / "compose-6-2-3.results.json").read_text()

    def test_greedy_schedule_names_the_level(self):
        _, stages = greedy_run(6, 2)
        with pytest.raises(CompositionError, match=r"^level 2: best overlap"):
            compose_all(stages, 2, range(36))

    def test_hidden_range_checked(self, schedule_6_2):
        with pytest.raises(ValueError, match="got -1"):
            compose_all(schedule_6_2, 2, [3, -1])

    def test_no_answers_give_empty_columns(self, schedule_6_2):
        comp = compose_all(schedule_6_2, 3, [])
        assert comp.found.dtype == np.int64 and comp.found.shape == (0,)
        assert comp.queries_used == 6

    def test_memory_of_compose_all_52_3_2(self, tmp_path, capsys):
        schedule = synthesize_exact(52, 3, search_free_series(52, 3)[0])[0]
        path = tmp_path / "s52.json"
        hilbert.save_schedule(schedule, path)
        argv = ["compose", "--m", "52", "--k", "3", "--h", "2", "--all", "--schedule", str(path)]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0 and results["all_recovered"] and len(results["runs"]) == 52**2
        # 4 MiB with 2^16-amplitude blocks; 2^18 blocks take 15 MiB and one
        # unblocked batch 16.4 MiB
        assert peak < 8 * 2**20

    def test_memory_of_the_2_1_14_report(self, schedule_2_1, tmp_path, monkeypatch):
        # 2^14 answers: 4.7 MiB with three ints per answer; one array row of
        # levels per answer took 15.4 MiB, and a tuple per level and answer 32.9
        path = tmp_path / "s2.json"
        hilbert.save_schedule(schedule_2_1, path)
        argv = ["compose", "--m", "2", "--k", "1", "--h", "14", "--all", "--schedule", str(path)]
        with open(tmp_path / "report.json", "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert json.loads((tmp_path / "report.json").read_text())["results"]["all_recovered"]
        assert peak < 8 * 2**20


def shifted_schedule(schedule):
    """The schedule with 2 pi p / 2N added to its last stage: a cyclic shift
    of the final state, so each run still ends on one target with unit
    overlap, but on j' - 1 mod N instead of j'."""
    stages = schedule.copy()
    width = stages.shape[1]
    stages[-1] += 2 * np.pi * np.arange(width) / width
    return hilbert.reduce_phases(stages)


class TestOutcomeTable:
    def test_all_runs_at_most_m_rows(self, schedule_6_2, monkeypatch):
        rows = count_rows(monkeypatch)
        comp = compose_all(schedule_6_2, 4, range(6**4))
        assert comp.found.tolist() == list(range(6**4))
        assert 0 < sum(rows) <= 6

    def test_all_runs_at_most_three_rows(self, schedule_6_2, monkeypatch):
        # answer 0 and the spot-checked N // 2 and N - 1, whatever the size
        rows = count_rows(monkeypatch)
        compose_all(schedule_6_2, 4, range(6**4))
        assert 0 < sum(rows) <= 3

    def test_one_answer_runs_at_most_h_rows(self, schedule_6_2, monkeypatch):
        rows = count_rows(monkeypatch)
        comp = compose_all(schedule_6_2, 3, [157])
        assert comp.found[0] == 157 and comp.queries_used == 6
        assert 0 < sum(rows) <= 3

    def test_wrong_subanswer_is_reported_at_one_level(self, schedule_6_2):
        shifted = shifted_schedule(schedule_6_2)
        comp = compose_all(shifted, 1, range(6))
        assert comp.found.tolist() == [5, 0, 1, 2, 3, 4]

    def test_wrong_subanswer_leaves_the_interval(self, schedule_6_2):
        # level 2 measures j' - 1, so the level-1 interval misses the answer;
        # a table indexed without the range check would raise IndexError
        shifted = shifted_schedule(schedule_6_2)
        with pytest.raises(ContractError, match=r"hidden index 0 outside the interval \[30, 36\)"):
            compose_all(shifted, 2, range(36))


class TestRate:
    def test_m52_k3_beats_053(self):
        value = rate(3, 52)
        assert abs(value - 3 / np.log2(52)) < 1e-15
        assert value < 0.53
        assert round(value, 4) == 0.5263

    def test_m6_k2(self):
        assert abs(rate(2, 6) - 0.7737) < 1e-4

    def test_classical_parity(self):
        assert rate(1, 2) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            rate(2, 1)
