"""Recursive composition of exact subroutines and query accounting."""

import json
import tracemalloc

import numpy as np
import pytest

from invinsert import cli, hilbert
from invinsert.compose import compose_all, compose_solve, rate, reduced_oracle
from invinsert.errors import CompositionError, ContractError
from invinsert.exact import search_free_series
from invinsert.greedy import greedy_run
from invinsert.synth import synthesize_exact
from hilbert_testing import run_schedule, target_state


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
            np.testing.assert_array_equal(reduced, hilbert.oracle_signs(j, m))

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


class TestComposeSolve:
    def test_exhaustive_m6_k2_h2(self, schedule_6_2):
        # all 36 hidden answers recovered in exactly 4 queries; classical
        # needs ceil(log2 36) = 6
        for hidden in range(36):
            run = compose_solve(6, 2, 2, schedule_6_2, hidden)
            assert run.found_j == hidden
            assert run.queries_used == 4

    def test_exhaustive_m2_k1_h5(self, schedule_2_1):
        for hidden in range(32):
            run = compose_solve(2, 1, 5, schedule_2_1, hidden)
            assert run.found_j == hidden
            assert run.queries_used == 5

    def test_single_level_matches_direct_run(self, schedule_6_2):
        # h = 1 degenerates to run_schedule plus an argmax measurement
        sign = 1  # the target sign after an even number of queries
        for hidden in range(6):
            run = compose_solve(6, 2, 1, schedule_6_2, hidden)
            final, _ = run_schedule(schedule_6_2, hidden)
            overlaps = [
                abs(np.vdot(target_state(j, sign, 6).amps, final.amps)) ** 2
                for j in range(6)
            ]
            assert run.found_j == int(np.argmax(overlaps)) == hidden
            assert run.queries_used == 2

    def test_interval_nesting(self, schedule_6_2):
        run = compose_solve(6, 2, 3, schedule_6_2, 157)
        assert run.found_j == 157
        assert run.queries_used == 6
        bases = [level[0] for level in run.per_level]
        levels = [level[1] for level in run.per_level]
        assert levels == [3, 2, 1]
        # each interval contains the hidden answer and shrinks by a factor m
        for base, t, _ in run.per_level:
            assert base <= 157 < base + 6**t

    def test_inexact_schedule_rejected(self):
        # a greedy schedule is good but not exact; composition must refuse it
        trace = greedy_run(6, 2, keep_states=False)
        with pytest.raises(CompositionError):
            compose_solve(6, 2, 2, trace.phase_schedule, 11)

    def test_wrong_schedule_shape_rejected(self, schedule_6_2):
        with pytest.raises(ValueError):
            compose_solve(5, 2, 2, schedule_6_2, 0)

    def test_hidden_range_checked(self, schedule_6_2):
        with pytest.raises(ValueError):
            compose_solve(6, 2, 2, schedule_6_2, 36)


def reference_run(m, k, h, schedule, hidden):
    """One answer, one level at a time: probe the interval, run the schedule
    on the reduced oracle's signs, and keep the most likely subanswer."""
    base, per_level = 0, []
    for t in range(h, 0, -1):
        scale = m ** (t - 1)
        f = [1.0 if base + (s + 1) * scale - 1 >= hidden else -1.0 for s in range(m)]
        final = hilbert.run_signs(schedule.stages, np.array(f + [-v for v in f]))
        best = int(np.argmax(hilbert.target_probs(final, k)))
        per_level.append((base, t, best))
        base += best * scale
    return base, per_level


class TestComposeAll:
    @pytest.mark.parametrize("m, k, h", [(6, 2, 2), (2, 1, 5), (6, 2, 3)])
    @pytest.mark.parametrize("block_answers", [None, 5])
    def test_matches_single_answer_runs(self, m, k, h, block_answers, monkeypatch):
        schedule = synthesize_exact(m, k)[0]
        if block_answers:
            # blocks of a few answers, so most levels end on a partial block
            monkeypatch.setattr(hilbert, "ANSWER_BLOCK_AMPS", block_answers * 2 * m)
        runs = compose_all(m, k, h, schedule, range(m**h))
        assert [run.hidden_j for run in runs] == list(range(m**h))
        for hidden, run in enumerate(runs):
            single = compose_solve(m, k, h, schedule, hidden)
            found, per_level = reference_run(m, k, h, schedule, hidden)
            assert run.found_j == single.found_j == found == hidden
            assert run.queries_used == single.queries_used == h * k
            assert run.per_level == single.per_level == per_level

    def test_plain_ints(self, schedule_6_2):
        for run in compose_all(6, 2, 2, schedule_6_2, [0, 35]):
            values = [run.hidden_j, run.found_j, run.queries_used]
            values += [v for level in run.per_level for v in level]
            assert all(type(v) is int for v in values)

    def test_greedy_schedule_names_the_level(self):
        trace = greedy_run(6, 2, keep_states=False)
        with pytest.raises(CompositionError, match=r"^level 2: best overlap"):
            compose_all(6, 2, 2, trace.phase_schedule, range(36))

    def test_hidden_range_checked(self, schedule_6_2):
        with pytest.raises(ValueError, match="got -1"):
            compose_all(6, 2, 2, schedule_6_2, [3, -1])

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
