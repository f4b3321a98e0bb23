"""Recursive composition of exact subroutines and query accounting."""

import numpy as np
import pytest

from invinsert import hilbert
from invinsert.compose import compose_solve, rate, reduced_oracle
from invinsert.errors import CompositionError, ContractError
from invinsert.greedy import greedy_run
from invinsert.hilbert import run_schedule, target_state
from invinsert.synth import synthesize_exact


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
        sign = hilbert.final_sign(2)
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
