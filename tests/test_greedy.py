"""Greedy phase choice, probability recursion, and published probabilities."""

import tracemalloc

import numpy as np
import pytest

from invinsert import bounds
from invinsert.greedy import (
    _advance,
    greedy_run,
    one_query_asymptotic,
    one_query_prob,
)
from invinsert.hilbert import oracle_signs, run_all_answers, run_signs
from hilbert_testing import oracle_momentum_matrix

# published success probabilities (N, k) -> prob, 4 significant figures
TABLE_SPOT_CELLS = {
    (64, 1): 0.2036,
    (2048, 5): 0.9939,
    (4096, 3): 0.3755,
}


def oracle_image_amps(amps):
    """<p|F_0|psi> from the dense closed-form matrix, independent of the FFTs."""
    return oracle_momentum_matrix(amps.size // 2) @ amps


class TestGreedyStep:
    def test_first_stage_amplitudes(self):
        n = 8
        psi1 = greedy_run(n, 1).states[1]
        p = np.arange(1, 2 * n, 2)
        expected = 1.0 / (n * np.sin(np.pi * p / (2 * n)))
        np.testing.assert_allclose(psi1[1::2].real, expected, atol=1e-13)
        np.testing.assert_allclose(psi1[0::2], 0, atol=1e-15)

    def test_uniform_fixed_point(self):
        n = 6
        amps = np.zeros(2 * n, dtype=complex)
        amps[1::2] = 1 / np.sqrt(n)
        psi, _ = _advance(amps, n, 2)
        np.testing.assert_allclose(psi[0::2].real, 1 / np.sqrt(n), atol=1e-12)

    def test_matches_single_phase_grid_search(self):
        # aligning each term is optimal: no single-phase change on a fine grid
        # beats the greedy overlap
        n = 3
        trace = greedy_run(n, 1)
        phases = trace.phase_schedule.stages[0]
        phi = oracle_image_amps(trace.states[0])
        live = np.arange(1, 2 * n, 2)
        greedy_overlap = abs(np.sum(np.exp(1j * phases[live]) * phi[live])) / np.sqrt(n)
        grid = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        for p in live:
            for alpha in grid:
                trial = phases[live].copy()
                trial[np.where(live == p)[0][0]] = alpha
                overlap = abs(np.sum(np.exp(1j * trial) * phi[live])) / np.sqrt(n)
                assert overlap <= greedy_overlap + 1e-12

    def test_step_matches_oracle_image_magnitudes(self):
        rng = np.random.default_rng(1)
        n = 6
        amps = np.zeros(2 * n, dtype=complex)
        amps[1::2] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        amps /= np.linalg.norm(amps)
        psi, _ = _advance(amps, n, 2)
        np.testing.assert_allclose(
            psi[0::2].real, np.abs(oracle_image_amps(amps)[0::2]), atol=1e-12
        )


class TestGreedyRun:
    def test_prob0_is_one_over_n(self):
        assert abs(greedy_run(17, 1).probs[0] - 1 / 17) < 1e-15

    @pytest.mark.parametrize(("cell", "expected"), sorted(TABLE_SPOT_CELLS.items()))
    def test_published_cells(self, cell, expected):
        n, k = cell
        assert abs(greedy_run(n, k, keep_states=False).probs[k] - expected) < 1e-4

    @pytest.mark.parametrize("n", [2, 3, 6, 8, 16, 52])
    def test_monotone_probabilities(self, n):
        probs = greedy_run(n, 6, keep_states=False).probs
        assert np.all(np.diff(probs) >= -1e-14)

    def test_fixed_point_sticks(self):
        probs = greedy_run(2, 4, keep_states=False).probs
        assert abs(probs[1] - 1) < 1e-12
        assert np.all(np.abs(probs[1:] - 1) < 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 6, 8, 16, 52])
    def test_bound_domination(self, n):
        trace = greedy_run(n, 5)
        for ell in range(1, 6):
            live = trace.states[ell].real.sum() / np.sqrt(n)
            assert live <= bounds.overlap_bound(n, ell) + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 6, 8, 16])
    def test_schedule_reproduces_probs_for_every_j(self, n):
        k = 3
        trace = greedy_run(n, k)
        for _, probs in run_all_answers(trace.phase_schedule):
            np.testing.assert_allclose(probs, trace.probs[k], rtol=0, atol=1e-10)

    def test_schedule_reproduces_probs_medium_n(self):
        trace = greedy_run(256, 4, keep_states=False)
        probs = np.concatenate([p for _, p in run_all_answers(trace.phase_schedule)])
        assert probs.shape == (256,)
        np.testing.assert_allclose(probs, trace.probs[4], rtol=0, atol=1e-10)

    def test_memory_stays_small_at_n4096(self):
        # an N x N stage kernel at N = 4096 would take 128 MiB
        tracemalloc.start()
        try:
            greedy_run(4096, 6, keep_states=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_recorded_states_match_schedule_runner(self):
        n, k = 6, 3
        trace = greedy_run(n, k)
        final = run_signs(trace.phase_schedule.stages, oracle_signs(0, n))
        np.testing.assert_allclose(
            np.fft.fft(final, norm="ortho"), trace.states[k], atol=1e-12
        )


class TestOneQueryProb:
    def test_n2_exact(self):
        assert abs(one_query_prob(2) - 1.0) < 1e-12

    def test_matches_greedy_and_table(self):
        assert abs(one_query_prob(64) - 0.2036) < 1e-4
        assert abs(one_query_prob(64) - greedy_run(64, 1).probs[1]) < 1e-12

    def test_matches_greedy_at_n65536(self):
        n = 2**16
        prob = greedy_run(n, 6, keep_states=False).probs[1]
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
        from invinsert.greedy import EULER_GAMMA

        for n in (10, 1000, 10**6):
            lhs = one_query_asymptotic(n) * n * np.pi**2 / 4
            rhs = (np.log(n) + EULER_GAMMA + np.log(8 / np.pi)) ** 2
            assert abs(lhs - rhs) < 1e-12 * rhs

    def test_requires_n_at_least_3(self):
        with pytest.raises(ValueError):
            one_query_asymptotic(2)


class TestBeatsClassical:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_table_region(self, n):
        # once 2^k >= N classical search is already certain and greedy,
        # which is never exact, cannot beat it; compare the honest cells
        probs = greedy_run(n, 6, keep_states=False).probs
        for k in range(1, 7):
            if 2**k < n:
                assert probs[k] > 2.0**k / n
