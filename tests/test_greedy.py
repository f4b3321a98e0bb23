"""Greedy phase choice, probability recursion, and published probabilities."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from invinsert import bounds
from invinsert.greedy import _advance, greedy_run
from invinsert.hilbert import load_schedule, oracle_signs, run_signs
from hilbert_testing import doubled_state, greedy_states, oracle_momentum_block, run_all_answers
from test_bounds import overlap_bound

DATA = Path(__file__).resolve().parent / "data"

# published success probabilities (N, k) -> prob, 4 significant figures
TABLE_SPOT_CELLS = {
    (64, 1): 0.2036,
    (2048, 5): 0.9939,
    (4096, 3): 0.3755,
}


def oracle_image_amps(amps, parity):
    """<p|F_0|psi> on parity 1 - parity from the N amplitudes of parity
    ``parity``, by the dense closed-form matrix, independent of the FFTs."""
    return oracle_momentum_block(amps.size, parity) @ amps


def one_query_prob(n: int) -> float:
    """Success probability of the single-query greedy algorithm: S^2 / N
    with S = (1/N) sum over odd p of 1/sin(pi p / 2N), the harmonic sum."""
    return bounds.harmonic_sum(n).exact ** 2 / n


def one_query_asymptotic(n: int) -> float:
    """Large-N closed form (4 / pi^2 N) [ln N + gamma + ln(8/pi)]^2."""
    if n < 3:
        raise ValueError(f"asymptotic form needs n >= 3, got {n}")
    return 4.0 / (math.pi**2 * n) * (math.log(n) + bounds.EULER_GAMMA + math.log(8 / math.pi)) ** 2


class TestGreedyStep:
    def test_first_stage_amplitudes(self):
        n = 8
        psi1 = greedy_states(n, 1)[1]  # parity 1: p = 1, 3, ..., 2N - 1
        p = np.arange(1, 2 * n, 2)
        expected = 1.0 / (n * np.sin(np.pi * p / (2 * n)))
        np.testing.assert_allclose(psi1.real, expected, atol=1e-13)
        np.testing.assert_allclose(psi1.imag, 0, atol=1e-15)

    def test_uniform_fixed_point(self):
        n = 6
        amps = np.full(n, 1 / np.sqrt(n), dtype=complex)  # uniform on parity 1
        psi, _ = _advance(amps, 2)
        np.testing.assert_allclose(psi.real, 1 / np.sqrt(n), atol=1e-12)

    def test_matches_single_phase_grid_search(self):
        # aligning each term is optimal: no single-phase change on a fine grid
        # beats the greedy overlap
        n = 3
        phases = greedy_run(n, 1)[1][0][1::2]
        phi = oracle_image_amps(np.eye(n)[0], 0)  # from the start state
        greedy_overlap = abs(np.sum(np.exp(1j * phases) * phi)) / np.sqrt(n)
        grid = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        for p in range(n):
            for alpha in grid:
                trial = phases.copy()
                trial[p] = alpha
                overlap = abs(np.sum(np.exp(1j * trial) * phi)) / np.sqrt(n)
                assert overlap <= greedy_overlap + 1e-12

    def test_step_matches_oracle_image_magnitudes(self):
        rng = np.random.default_rng(1)
        n = 6
        amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)  # on parity 1
        amps /= np.linalg.norm(amps)
        psi, _ = _advance(amps, 2)
        np.testing.assert_allclose(
            psi.real, np.abs(oracle_image_amps(amps, 1)), atol=1e-12
        )


class TestGreedyRun:
    def test_prob0_is_one_over_n(self):
        assert abs(greedy_run(17, 1)[0][0] - 1 / 17) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 52])
    def test_states_are_the_n_live_amplitudes(self, n):
        # the run's probabilities are the squared sums of the reference
        # states, to the bit
        k = 4
        states = greedy_states(n, k)
        assert len(states) == k + 1
        for state in states:
            assert state.shape == (n,)
        np.testing.assert_array_equal(states[0], np.eye(n)[0])
        probs, _ = greedy_run(n, k)
        assert probs.tolist() == [float(s.sum()) ** 2 / n for s in states]

    def test_schedule_bits_are_pinned(self):
        # the saved bits of this schedule: a change to greedy's arithmetic shows here
        pinned = load_schedule(DATA / "greedy-52-6.schedule.json")
        assert np.array_equal(greedy_run(52, 6)[1], pinned)

    @pytest.mark.parametrize(("cell", "expected"), sorted(TABLE_SPOT_CELLS.items()))
    def test_published_cells(self, cell, expected):
        n, k = cell
        assert abs(greedy_run(n, k)[0][k] - expected) < 1e-4

    @pytest.mark.parametrize("n", [2, 3, 6, 8, 16, 52])
    def test_monotone_probabilities(self, n):
        probs, _ = greedy_run(n, 6)
        assert np.all(np.diff(probs) >= -1e-14)

    def test_fixed_point_sticks(self):
        probs, _ = greedy_run(2, 4)
        assert abs(probs[1] - 1) < 1e-12
        assert np.all(np.abs(probs[1:] - 1) < 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 6, 8, 16, 52])
    def test_bound_domination(self, n):
        states = greedy_states(n, 5)
        for ell in range(1, 6):
            live = states[ell].sum() / np.sqrt(n)
            assert live <= overlap_bound(n, ell) + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 6, 8, 16])
    def test_schedule_reproduces_probs_for_every_j(self, n):
        k = 3
        greedy_probs, stages = greedy_run(n, k)
        for _, probs in run_all_answers(stages):
            np.testing.assert_allclose(probs, greedy_probs[k], rtol=0, atol=1e-10)

    def test_schedule_reproduces_probs_medium_n(self):
        greedy_probs, stages = greedy_run(256, 4)
        probs = np.concatenate([p for _, p in run_all_answers(stages)])
        assert probs.shape == (256,)
        np.testing.assert_allclose(probs, greedy_probs[4], rtol=0, atol=1e-10)

    def test_memory_stays_small_at_n4096(self):
        # an N x N stage kernel at N = 4096 would take 128 MiB
        tracemalloc.start()
        try:
            greedy_run(4096, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_recorded_states_match_schedule_runner(self):
        n, k = 6, 3
        _, stages = greedy_run(n, k)
        final = np.fft.fft(doubled_state(run_signs(stages, oracle_signs(0, n)), k), norm="ortho")
        np.testing.assert_allclose(final[k % 2 :: 2], greedy_states(n, k)[k], atol=1e-12)
        assert np.max(np.abs(final[1 - k % 2 :: 2])) < 1e-12


class TestOneQueryProb:
    def test_n2_exact(self):
        assert abs(one_query_prob(2) - 1.0) < 1e-12

    def test_matches_greedy_and_table(self):
        assert abs(one_query_prob(64) - 0.2036) < 1e-4
        assert abs(one_query_prob(64) - greedy_run(64, 1)[0][1]) < 1e-12

    def test_matches_greedy_at_n65536(self):
        n = 2**16
        prob = greedy_run(n, 6)[0][1]
        assert abs(prob - one_query_prob(n)) < 1e-10 * one_query_prob(n)

    @pytest.mark.parametrize("n", [64, 256, 1024, 2048, 4096])
    def test_beats_classical(self, n):
        assert one_query_prob(n) > 2.0 / n


class TestOneQueryAsymptotic:
    def test_small_n_accuracy(self):
        # true relative error at n=3 is 5.7e-3 (the sum approximation itself
        # is 2.85e-3 off there, and squaring doubles it)
        rel = abs(one_query_prob(3) - one_query_asymptotic(3)) / one_query_prob(3)
        assert 4e-3 < rel < 6e-3

    def test_large_n_ratio_tends_to_one(self):
        ratio = one_query_asymptotic(4096) / one_query_prob(4096)
        assert abs(ratio - 1) < 1e-3

    def test_closed_form_reads_off(self):
        # value * N * pi^2 / 4 is exactly the squared logarithm
        for n in (10, 1000, 10**6):
            lhs = one_query_asymptotic(n) * n * np.pi**2 / 4
            rhs = (np.log(n) + bounds.EULER_GAMMA + np.log(8 / np.pi)) ** 2
            assert abs(lhs - rhs) < 1e-12 * rhs

    def test_requires_n_at_least_3(self):
        with pytest.raises(ValueError):
            one_query_asymptotic(2)


class TestBeatsClassical:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_table_region(self, n):
        # once 2^k >= N classical search is already certain and greedy,
        # which is never exact, cannot beat it; compare the honest cells
        probs, _ = greedy_run(n, 6)
        for k in range(1, 7):
            if 2**k < n:
                assert probs[k] > 2.0**k / n
