"""Laurent assembly, spectral factorization, state recovery, phase extraction."""

import tracemalloc

import numpy as np
import pytest

from invinsert import hilbert, synth
from invinsert.errors import ContractError, FactorizationError
from invinsert.exact import a0, b0, build_chain, search_free_series, zero_series
from invinsert.greedy import greedy_run
from hilbert_testing import run_schedule, target_state
from invinsert.synth import (
    LaurentPoly,
    Poly,
    phases_from_states,
    q_from_chain,
    spectral_factor,
    states_from_poly,
    synthesize_exact,
    v_column,
)

# first columns of the two stage unitaries of the exact 2-query, N=6
# algorithm, 4 decimal places
V1_COLUMN = [.7572, -.3473, -.0034, -.0640, -.1367, -.2011,
             .2428, .3473, .0034, .0640, .1367, .2011]
V2_COLUMN = [.9122, -.2022, -.0380, .0736, .1258, .1286,
             -.0878, -.2022, -.0380, .0736, .1258, .1286]


def triangular_q(n):
    """Q with coefficients (N - |r|)/N, the squared magnitude of the start polynomial."""
    r = np.arange(-(n - 1), n)
    return LaurentPoly(n=n, q=((n - np.abs(r)) / n).astype(complex))


def q_on_circle(q_poly, grid):
    return q_poly.circle_values(grid)


def root_reference(q_poly):
    """P from the zeros of z^(N-1) Q(z) inside the disk, scaled so that
    sum |p_k|^2 = q_0.  The product is interpolated on the N-th roots of
    unity: np.poly's expansion of the N = 52 stage zeros, 0.002 inside the
    circle, is off by 1e-5."""
    n = q_poly.n
    roots = np.roots(q_poly.q[::-1])
    w = np.exp(2j * np.pi * np.arange(n) / n)
    monic = np.fft.fft(np.prod(w[:, None] - roots[np.abs(roots) < 1], axis=1)) / n
    return monic * np.sqrt(q_poly.coeff(0).real / np.sum(np.abs(monic) ** 2))


class TestQFromChain:
    def test_start_chain_gives_triangular(self):
        for n in (2, 6, 11):
            q = q_from_chain(a0(n), b0(n))
            np.testing.assert_allclose(q.q, triangular_q(n).q, atol=1e-14)

    def test_zero_chain_gives_unit(self):
        q = q_from_chain(zero_series(5, "A"), zero_series(5, "B"))
        expected = np.zeros(9)
        expected[4] = 1.0
        np.testing.assert_array_equal(q.q, expected)

    def test_n6_two_query_middle_polynomial(self):
        q = q_from_chain(zero_series(6, "A"), b0(6))
        np.testing.assert_allclose(
            q.q[6:], [1 / 3, 1 / 6, 0, -1 / 6, -1 / 3], atol=1e-15
        )
        assert q.coeff(0) == 1.0

    def test_hermitian_symmetry_enforced(self):
        bad = np.zeros(9, dtype=complex)
        bad[4] = 1.0
        bad[5] = 1.0j  # q_1 != conj(q_{-1}) = 0
        with pytest.raises(ContractError):
            LaurentPoly(n=5, q=bad)


class TestSpectralFactor:
    def test_unit_q_gives_monomial(self):
        for n in (2, 6, 52):
            q = q_from_chain(zero_series(n, "A"), zero_series(n, "B"))
            p = spectral_factor(q)
            expected = np.zeros(n, dtype=complex)
            expected[n - 1] = 1.0
            np.testing.assert_allclose(p.coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 6, 16])
    def test_start_polynomial_recovered(self, n):
        p = spectral_factor(triangular_q(n))
        # canonical selection reproduces (z^{N-1} + ... + 1)/sqrt(N) up to
        # a global phase; fix it via the largest coefficient
        phase = p.coeffs[np.argmax(np.abs(p.coeffs))]
        aligned = p.coeffs * np.conj(phase) / abs(phase)
        np.testing.assert_allclose(aligned, np.ones(n) / np.sqrt(n), atol=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 6, 16, 52])
    def test_identity_on_circle_with_circle_zeros(self, n):
        q = triangular_q(n)
        p = spectral_factor(q)
        grid = 64 * n
        values = np.abs(p.circle_values(grid)) ** 2
        np.testing.assert_allclose(values, q_on_circle(q, grid), atol=1e-8)

    def test_random_round_trips(self):
        # 'oracle' direction: build Q from a known P, refactor, compare moduli
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(120):
            deg = int(rng.integers(1, 9))
            n = deg + 1
            roots = rng.uniform(0.2, 0.9, deg) * np.exp(
                2j * np.pi * rng.uniform(0, 1, deg)
            )
            if rng.random() < 0.5:
                roots[: deg // 2] = 1 / np.conj(roots[: deg // 2])
            coeffs = np.poly(roots)[::-1] * (0.3 + rng.random())
            q_arr = np.convolve(coeffs, np.conj(coeffs[::-1]))
            q_arr = q_arr / q_arr[deg].real  # normalize the zero-lag term to 1
            q = LaurentPoly(n=n, q=q_arr)
            p = spectral_factor(q)
            grid = 64 * n
            err = np.max(np.abs(np.abs(p.circle_values(grid)) ** 2 - q_on_circle(q, grid)))
            worst = max(worst, err)
        assert worst < 1e-9

    @pytest.mark.parametrize("n,k", [(16, 3), (52, 3)])
    def test_chain_stages_match_root_reference(self, n, k, monkeypatch):
        free, _ = search_free_series(n, k)
        chain = build_chain(n, k, free)
        qs = [q_from_chain(*chain.stages[ell]) for ell in range(1, k + 1)]
        references = [root_reference(q) for q in qs]

        def no_eigensolve(_):
            raise AssertionError("a positive Q reached np.roots")

        monkeypatch.setattr(synth.np, "roots", no_eigensolve)
        for q, ref in zip(qs, references):
            coeffs = spectral_factor(q).coeffs
            i = np.argmax(np.abs(ref))
            phase = coeffs[i] / ref[i] / abs(coeffs[i] / ref[i])
            np.testing.assert_allclose(coeffs, ref * phase, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 52])
    def test_memory_bounded_by_fft_cap(self, n):
        # N = 3's circle zeros miss every FFT grid, so its Q walks the grid
        # to the cap before taking the root path; N = 52's lie on the first grid
        tracemalloc.start()
        try:
            spectral_factor(triangular_q(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_sign_crossing_rejected(self):
        # 1 + B0(7) dips below zero, so its circle zeros have odd multiplicity
        q = q_from_chain(zero_series(7, "A"), b0(7))
        with pytest.raises((FactorizationError, ContractError)):
            spectral_factor(q)


def start_momentum(n):
    """The uniform start state in momentum: the unit vector at p = 0."""
    amps = np.zeros(2 * n, dtype=complex)
    amps[0] = 1.0
    return amps


class TestStatesFromPoly:
    def test_start_polynomial_gives_uniform(self):
        n = 6
        p = Poly(degree=n - 1, coeffs=np.ones(n) / np.sqrt(n))
        state = states_from_poly(p, 0)
        np.testing.assert_allclose(state, 1 / np.sqrt(2 * n), atol=1e-14)

    def test_monomial_gives_target(self):
        n = 5
        coeffs = np.zeros(n, dtype=complex)
        coeffs[n - 1] = 1.0
        even = states_from_poly(Poly(degree=n - 1, coeffs=coeffs), 2)
        np.testing.assert_allclose(even, target_state(0, 1, n).amps, atol=1e-14)
        odd = states_from_poly(Poly(degree=n - 1, coeffs=coeffs), 3)
        np.testing.assert_allclose(odd, target_state(0, -1, n).amps, atol=1e-14)

    def test_parity_support(self):
        rng = np.random.default_rng(9)
        n = 6
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coeffs /= np.linalg.norm(coeffs)  # sum |c|^2 = 1 makes the state unit
        for ell in (0, 1):
            state = states_from_poly(Poly(degree=n - 1, coeffs=coeffs), ell)
            mom = np.fft.fft(state, norm="ortho")
            dead = mom[(np.arange(2 * n) + ell) % 2 == 1]
            assert np.max(np.abs(dead)) < 1e-12

    def test_bad_norm_rejected(self):
        n = 4
        with pytest.raises(ContractError):
            states_from_poly(Poly(degree=n - 1, coeffs=np.ones(n)), 0)


class TestPhasesFromStates:
    def test_oracle_image_itself_gives_zero_phases(self):
        n = 6
        image_pos = hilbert.oracle_signs(0, n) / np.sqrt(2 * n)
        psi1 = np.fft.fft(image_pos, norm="ortho")
        phases = phases_from_states(start_momentum(n), psi1)
        np.testing.assert_allclose(phases, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 6, 16])
    def test_matches_greedy_recorded_phases(self, n):
        trace = greedy_run(n, 3)
        for ell in range(1, 4):
            extracted = phases_from_states(trace.states[ell - 1], trace.states[ell])
            recorded = trace.phase_schedule.stages[ell - 1]
            delta = np.mod(extracted - recorded + np.pi, 2 * np.pi) - np.pi
            assert np.max(np.abs(delta)) < 1e-10

    def test_magnitude_mismatch_rejected(self):
        n = 4
        amps = np.zeros(2 * n, dtype=complex)
        amps[1] = 1.0  # odd parity but wrong magnitudes
        with pytest.raises(ContractError):
            phases_from_states(start_momentum(n), amps)

    def test_same_parity_rejected(self):
        n = 4
        psi0 = start_momentum(n)
        with pytest.raises(ContractError):
            phases_from_states(psi0, psi0)


class TestVColumn:
    def test_zero_phases_identity_column(self):
        col = v_column(np.zeros(8), 4)
        np.testing.assert_allclose(col, np.eye(8)[0], atol=1e-15)

    def test_circulant_reconstruction(self):
        rng = np.random.default_rng(3)
        n = 5
        phases = rng.uniform(0, 2 * np.pi, 2 * n)
        col = v_column(phases, n)
        # <x|V|y> = col[(x - y) mod 2N]: apply V to each basis vector
        for y in range(2 * n):
            basis = np.zeros(2 * n, dtype=complex)
            basis[y] = 1.0
            out = np.fft.ifft(np.exp(1j * phases) * np.fft.fft(basis))
            np.testing.assert_allclose(out, np.roll(col, y), atol=1e-12)


@pytest.fixture(scope="module")
def n6_k2_result():
    return synthesize_exact(6, 2)


class TestSynthesizeN6K2:
    @pytest.fixture
    def result(self, n6_k2_result):
        return n6_k2_result

    def test_success_probabilities(self, result):
        _, report = result
        assert report["min_success_prob"] >= 1 - 1e-9
        assert report["exact"]

    def test_final_states_orthogonal(self, result):
        _, report = result
        assert report["max_pairwise_overlap"] <= 1e-9

    def test_v_columns_real(self, result):
        _, report = result
        assert report["max_v_imag"] < 1e-9

    def test_published_column_table(self, result):
        _, report = result
        v1 = np.array([c[0] for c in report["v_columns"][0]])
        v2 = np.array([c[0] for c in report["v_columns"][1]])
        assert np.max(np.abs(v1 - V1_COLUMN)) < 1e-3
        assert np.max(np.abs(v2 - V2_COLUMN)) < 1e-3

    def test_magnitude_matching(self, result):
        _, report = result
        assert max(report["magnitude_mismatch"]) < 1e-8

    def test_schedule_runs_standalone(self, result):
        schedule, _ = result
        for j in range(6):
            _, prob = run_schedule(schedule, j)
            assert prob >= 1 - 1e-9


class TestSynthesizeOtherCases:
    def test_n2_k1_exact(self):
        schedule, report = synthesize_exact(2, 1)
        assert report["min_success_prob"] >= 1 - 1e-12
        for j in range(2):
            _, prob = run_schedule(schedule, j)
            assert prob >= 1 - 1e-12

    def test_infeasible_chain_rejected(self):
        with pytest.raises(ContractError):
            synthesize_exact(7, 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_k2_small_sizes(self, n):
        _, report = synthesize_exact(n, 2)
        assert report["min_success_prob"] >= 1 - 1e-9

    def test_k3_with_zero_free_series(self):
        _, report = synthesize_exact(6, 3, {"A1": zero_series(6, "A")})
        assert report["min_success_prob"] >= 1 - 1e-9
