"""Overlap bound, harmonic approximation, and implied query counts."""

import math
import tracemalloc

import numpy as np
import pytest

from invinsert.bounds import THRESHOLD_SLACK, bound_report, harmonic_sum
from invinsert.greedy import greedy_run
from hilbert_testing import greedy_states


def overlap_bound(n: int, ell: int) -> float:
    """The paper's bound on the target overlap after ell queries of an
    invariant algorithm: S^ell / sqrt(N)."""
    return harmonic_sum(n).exact ** ell / math.sqrt(n)


class TestHarmonicSum:
    def test_n2_exact_value(self):
        # two-term sum: (1/2)(1/sin(pi/4) + 1/sin(3pi/4)) = sqrt(2)
        assert abs(harmonic_sum(2).exact - math.sqrt(2)) < 1e-14

    def test_increasing_in_n(self):
        values = [harmonic_sum(n).exact for n in range(2, 65)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_n_relative_error(self):
        # the log approximation is 2.85e-3 off at n=3 and 1.46e-3 at n=4;
        # it drops below 1e-3 from n=5 on
        hs3 = harmonic_sum(3)
        assert 2.7e-3 < abs(hs3.exact - hs3.approx) / hs3.exact < 3.0e-3
        for n in range(5, 70):
            hs = harmonic_sum(n)
            assert abs(hs.exact - hs.approx) / hs.exact < 1e-3

    def test_large_n_convergence(self):
        hs = harmonic_sum(4096)
        assert abs(hs.exact - hs.approx) / hs.exact < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 52, 4096, 2**16])
    def test_one_block_is_the_whole_array_sum(self, n):
        # up to one block the bits are those of a single numpy sum, so
        # bound reports up to N = 2^16 keep their bytes
        p = np.arange(1, 2 * n, 2)
        assert harmonic_sum(n).exact == float(np.sum(1.0 / np.sin(np.pi * p / (2 * n)))) / n

    def test_memory_stays_constant_at_n1e7(self):
        # the whole-array sum holds three arrays of 10^7 values, 229 MiB
        tracemalloc.start()
        try:
            hs = harmonic_sum(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert abs(hs.exact - hs.approx) / hs.exact < 1e-9


class TestOverlapBound:
    def test_ell_zero_is_inverse_sqrt(self):
        for n in (2, 7, 100):
            assert abs(overlap_bound(n, 0) - 1 / math.sqrt(n)) < 1e-15

    def test_geometric_recurrence(self):
        n = 17
        s = harmonic_sum(n).exact
        for ell in range(1, 8):
            lhs = overlap_bound(n, ell)
            rhs = overlap_bound(n, ell - 1) * s
            assert abs(lhs - rhs) < 1e-12 * max(lhs, 1)

    def test_greedy_saturates_first_stage(self):
        # one greedy query achieves the bound exactly
        n = 64
        overlap = greedy_states(n, 1)[1].sum() / math.sqrt(n)
        assert abs(overlap - overlap_bound(n, 1)) < 1e-12

    @pytest.mark.parametrize("n", [64, 256, 1024, 2048, 4096])
    def test_dominates_published_probabilities(self, n):
        probs, _ = greedy_run(n, 6)
        for k in range(1, 7):
            assert probs[k] <= min(1.0, overlap_bound(n, k) ** 2) + 1e-12


class TestMinQueries:
    @pytest.mark.parametrize(
        ("n", "epsilon"), [(16, 0.5), (100, 1.0), (4096, 1.0), (4096, 0.01), (2, 1.0), (2, 0.5)]
    )
    def test_threshold_definition(self, n, epsilon):
        # reached within THRESHOLD_SLACK: at N = 2 the squared bounds 1/2 and 1
        # after zero and one queries round down
        k_min = bound_report(n, epsilon).min_queries
        target = epsilon * (1 - THRESHOLD_SLACK)
        assert overlap_bound(n, k_min) ** 2 >= target
        if k_min > 0:
            assert overlap_bound(n, k_min - 1) ** 2 < target

    def test_n4096_needs_at_least_three(self):
        assert bound_report(4096, 1.0).min_queries >= 3

    def test_asymptotic_field(self):
        asym = bound_report(4096, 1.0).asymptotic
        assert abs(asym - math.log(4096) / (2 * math.log(math.log(4096)))) < 1e-12
        small = bound_report(8, 1.0)
        assert small.asymptotic is None and small.asymptotic_log2 is None

    def test_log_convention_ratio_tends_to_one(self):
        # the natural-log and base-2 forms of the asymptotic estimate agree
        # in the limit; their ratio falls monotonically toward 1 from above
        ratios = []
        for m in range(10, 21):
            report = bound_report(2**m)
            ratios.append(report.asymptotic / report.asymptotic_log2)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert 1.0 < ratios[-1] < ratios[0] < 1.2

    def test_bound_tracks_asymptotic_scale(self):
        # k_min / (ln N / 2 ln ln N) drifts toward 1 as N grows, modulo the
        # integer ceiling (the ratio jumps whenever k_min steps up)
        gaps = []
        for m in range(10, 21):
            report = bound_report(2**m, 1.0)
            gaps.append(report.min_queries / report.asymptotic)
        assert all(1.0 < g < 1.7 for g in gaps)
        runs_down = [b < a for a, b in zip(gaps, gaps[1:])]
        assert sum(runs_down) >= 9  # decreasing except at the k_min step
        assert min(gaps) < 1.2

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            bound_report(64, 0.0)
        with pytest.raises(ValueError):
            bound_report(64, 1.5)


class TestBoundReport:
    def test_per_ell_is_geometric(self):
        report = bound_report(64, 1.0)
        s = report.harmonic.exact
        np.testing.assert_allclose(
            report.per_ell,
            s ** np.arange(report.min_queries + 1) / math.sqrt(64),
            rtol=1e-12,
        )

    def test_reaches_epsilon_at_the_end(self):
        report = bound_report(100, 0.25)
        assert report.per_ell[-1] ** 2 >= 0.25
