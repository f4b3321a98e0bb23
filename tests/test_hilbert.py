"""Oracle, transforms, translation, and the schedule runner."""

import json

import numpy as np
import pytest

from invinsert import hilbert
from invinsert.errors import SchemaError
from invinsert.exact import search_free_series
from invinsert.greedy import greedy_run
from invinsert.hilbert import (
    PhaseSchedule,
    oracle_image,
    oracle_signs,
    run_all_answers,
    run_signs,
)
from invinsert.synth import synthesize_exact
from hilbert_testing import (
    MOMENTUM,
    POSITION,
    StateVector,
    apply_oracle,
    inner,
    momentum_basis_vector,
    oracle_momentum_element,
    oracle_momentum_matrix,
    random_schedule,
    random_state,
    run_schedule,
    target_state,
    to_momentum,
    to_position,
    translate,
)

PROP_SIZES = [2, 3, 6, 8, 16, 52]


def brute_momentum_element(p, q, n):
    """Direct evaluation of the defining sum (1/2N)(sum_{x<N} - sum_{x>=N}) e^{i pi (q-p) x / N}."""
    x = np.arange(2 * n)
    signs = np.where(x < n, 1.0, -1.0)
    return np.sum(signs * np.exp(1j * np.pi * (q - p) * x / n)) / (2 * n)


class TestUniformStart:
    # the runner's start state: run_signs with no stages returns it
    def test_n6_amplitudes(self):
        start = run_signs(np.empty((0, 12)), oracle_signs(0, 6))
        assert start.shape == (12,)
        np.testing.assert_allclose(start, 1 / np.sqrt(12), atol=1e-15)

    def test_n2_amplitudes(self):
        np.testing.assert_allclose(run_signs(np.empty((0, 4)), np.ones(4)), 0.5, atol=1e-15)

    def test_momentum_representation_is_p0(self):
        mom = np.fft.fft(run_signs(np.empty((0, 12)), np.ones(12)), norm="ortho")
        expected = np.zeros(12, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(mom, expected, atol=1e-14)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            PhaseSchedule(n=1, k=1, stages=np.zeros((1, 2)))


class TestOracle:
    def test_j0_signs(self):
        signs = oracle_signs(0, 5)
        np.testing.assert_array_equal(signs[:5], 1.0)
        np.testing.assert_array_equal(signs[5:], -1.0)

    def test_n3_j1_sign_vector(self):
        # direct evaluation of the doubled step function
        np.testing.assert_array_equal(oracle_signs(1, 3), [-1, 1, 1, 1, -1, -1])

    def test_involution(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 8):
            np.testing.assert_array_equal(oracle_signs(np.arange(n), n) ** 2, 1.0)
            amps = random_state(n, rng, MOMENTUM).amps
            twice = oracle_image(oracle_image(amps, n), n)
            np.testing.assert_allclose(twice, amps, atol=1e-14)

    def test_momentum_input_round_trips(self):
        # the library's momentum oracle against the position oracle
        # conjugated by the reference transforms
        rng = np.random.default_rng(8)
        state = to_momentum(random_state(6, rng))
        expected = to_momentum(apply_oracle(0, to_position(state)))
        np.testing.assert_allclose(oracle_image(state.amps, 6), expected.amps, atol=1e-13)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            oracle_signs(5, 5)
        with pytest.raises(ValueError):
            oracle_signs(-1, 5)


class TestOracleImage:
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("n", PROP_SIZES)
    def test_matches_dense_matrix(self, n, parity):
        rng = np.random.default_rng(10 * n + parity)
        amps = random_state(n, rng, MOMENTUM).amps.copy()
        amps[(np.arange(2 * n) + parity) % 2 == 1] = 0  # one parity class
        np.testing.assert_allclose(
            oracle_image(amps, n), oracle_momentum_matrix(n) @ amps, atol=1e-12
        )

    def test_rows_are_separate_states(self):
        n = 7
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((3, 2 * n)) + 1j * rng.standard_normal((3, 2 * n))
        np.testing.assert_allclose(
            oracle_image(batch, n), batch @ oracle_momentum_matrix(n).T, atol=1e-12
        )

    def test_signs_of_an_index_array(self):
        n = 5
        rows = oracle_signs(np.arange(n), n)
        for j in range(n):
            np.testing.assert_array_equal(rows[j], oracle_signs(j, n))
        with pytest.raises(ValueError):
            oracle_signs(np.array([0, n]), n)


class TestTransforms:
    @pytest.mark.parametrize("n", PROP_SIZES)
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        state = random_state(n, rng)
        back = to_position(to_momentum(state))
        np.testing.assert_allclose(back.amps, state.amps, atol=1e-12)

    @pytest.mark.parametrize("n", PROP_SIZES)
    def test_unitary(self, n):
        rng = np.random.default_rng(n + 1)
        state = random_state(n, rng)
        assert abs(to_momentum(state).norm() - 1) < 1e-12

    def test_position_zero_n2(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        mom = to_momentum(StateVector(2, POSITION, amps))
        np.testing.assert_allclose(mom.amps, 0.25**0.5, atol=1e-15)

    def test_kernel_sign_convention(self):
        # <x|p> = exp(+i p x pi / N) / sqrt(2N): check one matrix element
        n = 4
        p_vec = momentum_basis_vector(n, 3)
        pos = to_position(p_vec)
        x = np.arange(2 * n)
        np.testing.assert_allclose(
            pos.amps, np.exp(1j * 3 * x * np.pi / n) / np.sqrt(2 * n), atol=1e-14
        )


class TestTranslate:
    def test_full_cycle_identity(self):
        rng = np.random.default_rng(3)
        state = random_state(6, rng)
        out = translate(state, 12)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)

    def test_momentum_phase(self):
        n = 5
        for p in range(2 * n):
            state = momentum_basis_vector(n, p)
            out = translate(state, 1)
            np.testing.assert_allclose(
                out.amps[p], np.exp(-1j * p * np.pi / n), atol=1e-14
            )

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_conjugation_shifts_oracle(self, n):
        rng = np.random.default_rng(n + 10)
        state = random_state(n, rng)
        for j in range(n - 1):
            lhs = translate(apply_oracle(j, translate(state, -1)), 1)
            rhs = apply_oracle(j + 1, state)
            np.testing.assert_allclose(lhs.amps, rhs.amps, atol=1e-13)

    def test_bases_agree(self):
        rng = np.random.default_rng(11)
        state = random_state(6, rng)
        via_mom = to_position(translate(to_momentum(state), 5))
        np.testing.assert_allclose(via_mom.amps, translate(state, 5).amps, atol=1e-12)


class TestOracleMomentumElement:
    def test_even_difference_vanishes(self):
        for n in (2, 5, 9):
            for p in range(2 * n):
                for q in range(p % 2, 2 * n, 2):
                    assert oracle_momentum_element(p, q, n) == 0

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_matches_brute_force_sum(self, n):
        for p in range(2 * n):
            for q in range(2 * n):
                closed = oracle_momentum_element(p, q, n)
                assert abs(closed - brute_momentum_element(p, q, n)) < 1e-12

    def test_depends_only_on_difference_mod_2n(self):
        n = 7
        for d in range(1, 2 * n, 2):
            values = {
                oracle_momentum_element(p, (p + d) % (2 * n), n) for p in range(2 * n)
            }
            assert max(abs(v - oracle_momentum_element(0, d, n)) for v in values) < 1e-13

    def test_row_absolute_sum_is_inverse_sine_sum(self):
        n = 12
        total = sum(
            abs(oracle_momentum_element(p, 0, n)) for p in range(1, 2 * n, 2)
        )
        expected = np.sum(1 / np.sin(np.pi * np.arange(1, 2 * n, 2) / (2 * n))) / n
        assert abs(total - expected) < 1e-12

    def test_matrix_agrees_with_elements(self):
        n = 6
        m = oracle_momentum_matrix(n)
        for p in range(2 * n):
            for q in range(2 * n):
                assert abs(m[p, q] - oracle_momentum_element(p, q, n)) < 1e-14


class TestTargetState:
    def test_plus_momentum_support_even(self):
        n = 6
        mom = to_momentum(target_state(0, 1, n))
        np.testing.assert_allclose(mom.amps[0::2], 1 / np.sqrt(n), atol=1e-14)
        np.testing.assert_allclose(mom.amps[1::2], 0, atol=1e-14)

    def test_minus_momentum_support_odd(self):
        n = 6
        mom = to_momentum(target_state(0, -1, n))
        np.testing.assert_allclose(mom.amps[1::2], 1 / np.sqrt(n), atol=1e-14)
        np.testing.assert_allclose(mom.amps[0::2], 0, atol=1e-14)

    def test_orthonormal_family(self):
        n = 5
        for sign in (1, -1):
            states = [target_state(j, sign, n) for j in range(n)]
            for i, a in enumerate(states):
                for j, b in enumerate(states):
                    assert abs(inner(a, b) - (1.0 if i == j else 0.0)) < 1e-14

    def test_translates_of_target_zero(self):
        n = 6
        for j in range(n):
            shifted = translate(target_state(0, -1, n), j)
            np.testing.assert_allclose(
                shifted.amps, target_state(j, -1, n).amps, atol=1e-14
            )


class TestRunSchedule:
    def test_zero_phase_single_query(self):
        # independent oracle: dense matrix product over the 2N-dim space
        for n in (3, 5, 8):
            schedule = PhaseSchedule(n=n, k=1, stages=np.zeros((1, 2 * n)))
            _, prob = run_schedule(schedule, 0)
            f0 = np.diag(oracle_signs(0, n))
            start = np.full(2 * n, 1 / np.sqrt(2 * n))
            target = target_state(0, -1, n).amps
            brute = abs(np.vdot(target, f0 @ start)) ** 2
            assert abs(prob - brute) < 1e-12
            assert abs(prob - 1.0 / n) < 1e-12  # the product evaluates to 1/N

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_matches_dense_simulation(self, n):
        # independent runner: explicit 2N x 2N Fourier and oracle matrices
        rng = np.random.default_rng(n + 300)
        schedule = random_schedule(n, 3, rng)
        x = np.arange(2 * n)
        fourier = np.exp(-1j * np.pi * np.outer(x, x) / n) / np.sqrt(2 * n)
        for j in range(n):
            psi = np.full(2 * n, 1 / np.sqrt(2 * n), dtype=complex)
            for stage in schedule.stages:
                psi = np.diag(oracle_signs(j, n)) @ psi
                psi = fourier.conj().T @ (np.exp(1j * stage) * (fourier @ psi))
            final, prob = run_schedule(schedule, j)
            np.testing.assert_allclose(final.amps, psi, atol=1e-12)
            brute = abs(np.vdot(target_state(j, -1, n).amps, psi)) ** 2
            assert abs(prob - brute) < 1e-12

    @pytest.mark.parametrize("n", PROP_SIZES)
    def test_translation_covariance_random_schedules(self, n):
        rng = np.random.default_rng(n + 100)
        schedule = random_schedule(n, 3, rng)
        final0, prob0 = run_schedule(schedule, 0)
        for j in range(n):
            final, prob = run_schedule(schedule, j)
            shifted = translate(final0, j)
            np.testing.assert_allclose(final.amps, shifted.amps, atol=1e-12)
            assert abs(prob - prob0) < 1e-12

    @pytest.mark.parametrize("n", PROP_SIZES)
    def test_norm_and_parity_support(self, n):
        rng = np.random.default_rng(n + 200)
        for k in (1, 2, 3):
            schedule = random_schedule(n, k, rng)
            final, _ = run_schedule(schedule, 0)
            assert abs(final.norm() - 1) < 1e-12
            mom = to_momentum(final)
            dead = mom.amps[(np.arange(2 * n) + k) % 2 == 1]
            assert np.max(np.abs(dead)) < 1e-12

    def test_malformed_schedule_rejected(self):
        with pytest.raises(SchemaError):
            PhaseSchedule(n=4, k=2, stages=np.zeros((2, 7)))
        with pytest.raises(SchemaError):
            PhaseSchedule(n=4, k=2, stages=np.full((2, 8), np.nan))


ANSWER_SCHEDULES = {
    "greedy-3-2": lambda: greedy_run(3, 2, keep_states=False).phase_schedule,
    "greedy-52-4": lambda: greedy_run(52, 4, keep_states=False).phase_schedule,
    "exact-6-2": lambda: synthesize_exact(6, 2)[0],
    "exact-16-3": lambda: synthesize_exact(16, 3, search_free_series(16, 3)[0])[0],
}


class TestRunAllAnswers:
    @pytest.mark.parametrize("name", sorted(ANSWER_SCHEDULES))
    def test_matches_per_answer_runs(self, name, monkeypatch):
        schedule = ANSWER_SCHEDULES[name]()
        n = schedule.n
        # blocks of 5 answers, so most sizes end on a partial block
        monkeypatch.setattr(hilbert, "ANSWER_BLOCK_AMPS", 5 * 2 * n)
        blocks = list(run_all_answers(schedule))
        assert blocks[0][0].shape == (min(5, n), 2 * n)
        finals = np.concatenate([f for f, _ in blocks])
        success = np.concatenate([p for _, p in blocks])
        assert finals.shape == (n, 2 * n) and success.shape == (n,)
        for j in range(n):
            final, prob = run_schedule(schedule, j)
            np.testing.assert_allclose(finals[j], final.amps, atol=1e-12)
            assert abs(success[j] - prob) < 1e-12


class TestScheduleSerialization:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(5)
        schedule = random_schedule(5, 3, rng)
        path = tmp_path / "schedule.json"
        hilbert.save_schedule(schedule, path)
        loaded = hilbert.load_schedule(path)
        assert loaded.n == schedule.n and loaded.k == schedule.k
        np.testing.assert_array_equal(loaded.stages, schedule.stages)

    def test_field_names_normative(self, tmp_path):
        schedule = PhaseSchedule(n=2, k=1, stages=np.zeros((1, 4)))
        path = tmp_path / "s.json"
        hilbert.save_schedule(schedule, path)
        data = json.loads(path.read_text())
        assert set(data) == {"n", "k", "stages"}

    def test_missing_field_raises_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "stages": []}')
        with pytest.raises(SchemaError):
            hilbert.load_schedule(path)

    def test_wrong_shape_raises_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "k": 2, "stages": [[0.0] * 4]}))
        with pytest.raises(SchemaError):
            hilbert.load_schedule(path)

    def test_phases_reduced_to_principal_range(self):
        stages = np.array([[7.0, -1.0, 0.0, 2 * np.pi]])
        schedule = PhaseSchedule(n=2, k=1, stages=stages)
        assert np.all(schedule.stages >= 0) and np.all(schedule.stages < 2 * np.pi)
