"""Oracle, transforms, translation, and the schedule runner."""

import io
import json
import re
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from invinsert import cli, exact, hilbert, synth
from invinsert.compose import compose_all
from invinsert.errors import SchemaError
from invinsert.exact import search_free_series
from invinsert.greedy import greedy_run
from invinsert.errors import ContractError
from invinsert.hilbert import (
    oracle_image,
    oracle_signs,
    run_answer_zero,
    run_signs,
)
from invinsert.synth import synthesize_exact
import hilbert_testing
from hilbert_testing import (
    MOMENTUM,
    POSITION,
    StateVector,
    apply_oracle,
    doubled_signs,
    doubled_state,
    inner,
    momentum_basis_vector,
    oracle_momentum_element,
    oracle_momentum_block,
    oracle_momentum_matrix,
    random_schedule,
    random_state,
    run_all_answers,
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
        start = doubled_state(run_signs(np.empty((0, 12)), oracle_signs(0, 6)), 0)
        assert start.shape == (12,)
        np.testing.assert_allclose(start, 1 / np.sqrt(12), atol=1e-15)

    def test_n2_amplitudes(self):
        np.testing.assert_allclose(doubled_state(run_signs(np.empty((0, 4)), oracle_signs(0, 2)), 0), 0.5, atol=1e-15)

    def test_momentum_representation_is_p0(self):
        mom = np.fft.fft(doubled_state(run_signs(np.empty((0, 12)), oracle_signs(0, 6)), 0), norm="ortho")
        expected = np.zeros(12, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(mom, expected, atol=1e-14)

    def test_rejects_small_n(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"n": 1, "k": 1, "stages": [[0.0, 0.0]]}))
        with pytest.raises(SchemaError, match=r": problem size must be >= 2, got 1$"):
            hilbert.load_schedule(path)

    def test_rejects_stages_not_twice_the_sign_width(self):
        # stages act on all 2N momenta, signs on the N positions x < N
        for stages, signs in [
            (np.zeros((1, 12)), np.ones(12)),  # doubled signs
            (np.zeros((2, 12)), oracle_signs(np.arange(5), 5)),
            (np.zeros((1, 11)), np.ones(5)),
        ]:
            with pytest.raises(ValueError, match="do not fit signs"):
                run_signs(stages, signs)
        assert run_signs(np.zeros((1, 12)), oracle_signs(np.arange(6), 6)).shape == (6, 6)


class TestOracle:
    def test_j0_signs(self):
        signs = doubled_signs(0, 5)
        np.testing.assert_array_equal(signs[:5], 1.0)
        np.testing.assert_array_equal(signs[5:], -1.0)

    def test_n3_j1_sign_vector(self):
        # direct evaluation of the doubled step function
        np.testing.assert_array_equal(doubled_signs(1, 3), [-1, 1, 1, 1, -1, -1])

    def test_involution(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 8):
            np.testing.assert_array_equal(oracle_signs(np.arange(n), n) ** 2, 1.0)
            amps = random_state(n, rng, MOMENTUM).amps[:n]
            for parity in (0, 1):
                twice = oracle_image(oracle_image(amps, parity), 1 - parity)
                np.testing.assert_allclose(twice, amps, atol=1e-14)

    def test_momentum_input_round_trips(self):
        # the library's momentum oracle against the position oracle
        # conjugated by the reference transforms
        rng = np.random.default_rng(8)
        amps = to_momentum(random_state(6, rng)).amps
        for parity in (0, 1):
            state = StateVector(6, MOMENTUM, np.where(np.arange(12) % 2 == parity, amps, 0))
            expected = to_momentum(apply_oracle(0, to_position(state))).amps
            np.testing.assert_allclose(
                oracle_image(amps[parity::2], parity), expected[1 - parity :: 2], atol=1e-13
            )
            np.testing.assert_allclose(expected[parity::2], 0, atol=1e-13)

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
        amps = random_state(n, rng, MOMENTUM).amps[parity::2]
        np.testing.assert_allclose(
            oracle_image(amps, parity), oracle_momentum_block(n, parity) @ amps, atol=1e-12
        )

    def test_rows_are_separate_states(self):
        n = 7
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        for parity in (0, 1):
            np.testing.assert_allclose(
                oracle_image(batch, parity), batch @ oracle_momentum_block(n, parity).T, atol=1e-12
            )

    @pytest.mark.parametrize("n", PROP_SIZES)
    def test_single_parity_batches(self, n):
        # batches with a leading block axis and an all-zero row, from each parity
        rng = np.random.default_rng(20 + n)
        batch = rng.standard_normal((2, 4, n)) + 1j * rng.standard_normal((2, 4, n))
        batch[1, 2] = 0
        for parity in (0, 1):
            out = oracle_image(batch, parity)
            assert out.shape == batch.shape
            np.testing.assert_allclose(out, batch @ oracle_momentum_block(n, parity).T, atol=1e-12)
            np.testing.assert_array_equal(out[1, 2], 0)
            np.testing.assert_array_equal(oracle_image(np.zeros((3, n)), parity), 0)

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
            schedule = np.zeros((1, 2 * n))
            _, prob = run_schedule(schedule, 0)
            f0 = np.diag(doubled_signs(0, n))
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
            for stage in schedule:
                psi = np.diag(doubled_signs(j, n)) @ psi
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

    def test_malformed_schedule_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        for doc, message in [
            ({"n": 4, "k": 2, "stages": [[0.0] * 7] * 2}, r"expected stage array of shape \(2, 8\), got \(2, 7\)"),
            ({"n": 4, "k": 0, "stages": []}, "query count must be >= 1, got 0"),
        ]:
            path.write_text(json.dumps(doc))
            with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: {message}$"):
                hilbert.load_schedule(path)
        # a file has no NaN phases: JSON cannot carry them
        path.write_text(json.dumps({"n": 4, "k": 2, "stages": [[float("nan")] * 8] * 2}))
        with pytest.raises(SchemaError, match="not valid JSON"):
            hilbert.load_schedule(path)


def dense_run(stages, j, n):
    """Final position amplitudes for answer j from explicit 2N x 2N matrices:
    diag(sigma_j), the unitary DFT and diag(exp(i alpha)) per stage."""
    x = np.arange(2 * n)
    fourier = np.exp(-1j * np.pi * np.outer(x, x) / n) / np.sqrt(2 * n)
    oracle = np.diag(doubled_signs(j, n))
    psi = np.full(2 * n, 1 / np.sqrt(2 * n), dtype=complex)
    for stage in stages:
        psi = fourier.conj().T @ np.diag(np.exp(1j * stage)) @ fourier @ oracle @ psi
    return psi


class TestHalfLengthRunner:
    # k = 1..5 ends on both parities
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", PROP_SIZES)
    def test_every_answer_matches_dense_simulation(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        stages = rng.uniform(-7, 7, (k, 2 * n))
        reference = np.array([dense_run(stages, j, n) for j in range(n)])
        batched = doubled_state(run_signs(stages, oracle_signs(np.arange(n), n)), k)
        np.testing.assert_allclose(batched, reference, atol=1e-12)
        for j in range(n):
            final = doubled_state(run_signs(stages, oracle_signs(j, n)), k)
            np.testing.assert_allclose(final, reference[j], atol=1e-12)
        # a leading axis of blocks is a batch too
        blocks = doubled_state(run_signs(stages, oracle_signs(np.arange(n)[None, :].repeat(2, axis=0), n)), k)
        np.testing.assert_allclose(blocks, reference[None].repeat(2, axis=0), atol=1e-12)


class TestKernelLength:
    """No transform of length 2N: each step works on the live parity's N
    amplitudes."""

    @staticmethod
    def record_lengths(monkeypatch):
        lengths = []
        for name in ("fft", "ifft"):
            transform = getattr(np.fft, name)

            def recorded(a, n=None, axis=-1, norm=None, transform=transform):
                lengths.append(np.shape(a)[axis] if n is None else n)
                return transform(a, n, axis, norm)

            monkeypatch.setattr(np.fft, name, recorded)
        return lengths

    def test_greedy_run(self, monkeypatch):
        lengths = self.record_lengths(monkeypatch)
        greedy_run(64, 6)
        assert lengths and set(lengths) == {64}

    def test_run_all_answers(self, monkeypatch):
        schedule = synthesize_exact(6, 2)[0]
        lengths = self.record_lengths(monkeypatch)
        blocks = list(run_all_answers(schedule))
        assert lengths and set(lengths) == {6}
        assert blocks[0][0].shape == (6, 6)

    def test_synthesis(self, monkeypatch):
        # synthesis carries position states, which F_0 keeps, so it takes no
        # oracle image, and the only length-2N transform is the V columns'
        # inverse FFT
        n, k = 52, 3
        free = search_free_series(n, k)[0]
        images = []
        oracle_image = hilbert.oracle_image

        def counted(amps, parity):
            images.append(parity)
            return oracle_image(amps, parity)

        monkeypatch.setattr(hilbert, "oracle_image", counted)
        lengths = self.record_lengths(monkeypatch)
        v_column = synth.v_column
        spans = []

        def recorded(phases):
            start = len(lengths)
            column = v_column(phases)
            spans.append((start, len(lengths)))
            return column

        monkeypatch.setattr(synth, "v_column", recorded)
        synthesize_exact(n, k, free)
        assert images == []
        (start, end), = spans
        outside = lengths[:start] + lengths[end:]
        assert lengths[start:end] == [2 * n]
        assert outside and 2 * n not in outside


ANSWER_SCHEDULES = {
    "greedy-3-2": lambda: greedy_run(3, 2)[1],
    "greedy-52-4": lambda: greedy_run(52, 4)[1],
    "exact-6-2": lambda: synthesize_exact(6, 2)[0],
    "exact-16-3": lambda: synthesize_exact(16, 3, search_free_series(16, 3)[0])[0],
    "random-2-3": lambda: random_schedule(2, 3, np.random.default_rng(23)),
}


class TestRunAllAnswers:
    @pytest.mark.parametrize("name", sorted(ANSWER_SCHEDULES))
    def test_matches_per_answer_runs(self, name, monkeypatch):
        schedule = ANSWER_SCHEDULES[name]()
        k, n = schedule.shape[0], schedule.shape[1] // 2
        # blocks of 5 answers, so most sizes end on a partial block
        monkeypatch.setattr(hilbert_testing, "ANSWER_BLOCK_AMPS", 5 * 2 * n)
        blocks = list(run_all_answers(schedule))
        assert blocks[0][0].shape == (min(5, n), n)
        finals = np.concatenate([f for f, _ in blocks])
        success = np.concatenate([p for _, p in blocks])
        assert finals.shape == (n, n) and success.shape == (n,)
        for j in range(n):
            final, prob = run_schedule(schedule, j)
            np.testing.assert_allclose(doubled_state(finals[j], k), final.amps, atol=1e-12)
            assert abs(success[j] - prob) < 1e-12


class TestRunAnswerZero:
    """Answer j ends in the translate T^j psi_0 of answer 0's final state."""

    @pytest.mark.parametrize("name", sorted(ANSWER_SCHEDULES))
    def test_every_answer_is_a_translate(self, name):
        schedule = ANSWER_SCHEDULES[name]()
        k, n = schedule.shape[0], schedule.shape[1] // 2
        psi = run_answer_zero(schedule)
        finals = np.concatenate([f for f, _ in run_all_answers(schedule)])
        doubled = np.concatenate([psi, (-1) ** k * psi])
        for j in range(n):
            np.testing.assert_allclose(finals[j], np.roll(doubled, j)[:n], rtol=0, atol=1e-12)

    def test_answer_off_its_translate_raises(self, tmp_path, monkeypatch, capsys):
        # answer N - 1 nudged by 1e-9 fails the spot check, in the library and in verify
        schedule = synthesize_exact(6, 2)[0]
        path = tmp_path / "s.json"
        hilbert.save_schedule(schedule, path)
        library_run = hilbert.run_signs

        def perturbed(stages, signs):
            finals = library_run(stages, signs)
            finals[(np.asarray(signs) < 0).sum(axis=-1) == 5] += 1e-9
            return finals

        monkeypatch.setattr(hilbert, "run_signs", perturbed)
        with pytest.raises(ContractError, match=r"^answer 5 ends 1\.000e-09 from the translate of answer 0$"):
            run_answer_zero(schedule)
        assert cli.main(["verify", "--schedule", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "invinsert: answer 5 ends 1.000e-09 from the translate of answer 0\n"

    def test_memory_is_one_stage_row(self):
        # (4096, 64): 0.7 MiB with one row's exp(i alpha) at a time; all k
        # rows' exp(i alpha) and i alpha at once took 16.1 MiB (8 MiB each)
        stages = np.random.default_rng(0).uniform(0, 2 * np.pi, (64, 2 * 4096))
        tracemalloc.start()
        try:
            run_answer_zero(stages)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestSchedulesAreReadOnly:
    """A schedule is a plain array: the library hands out read-only ones and
    never writes to a caller's."""

    def test_library_schedules_are_read_only(self, tmp_path):
        path = tmp_path / "s.json"
        made = [greedy_run(8, 3)[1], synthesize_exact(6, 2)[0]]
        hilbert.save_schedule(made[1], path)
        for stages in made + [hilbert.load_schedule(path)]:
            assert stages.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                stages[0, 0] = 1.0

    def test_readers_leave_a_writeable_schedule_unchanged(self):
        stages = np.array(synthesize_exact(6, 2)[0])
        assert stages.flags.writeable
        before = stages.tobytes()
        run_answer_zero(stages)
        synth.v_column(stages)
        synth.schedule_report(stages)
        compose_all(stages, 2, range(36))
        assert stages.tobytes() == before


class TestScheduleSerialization:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(5)
        schedule = random_schedule(5, 3, rng)
        path = tmp_path / "schedule.json"
        hilbert.save_schedule(schedule, path)
        loaded = hilbert.load_schedule(path)
        assert loaded.shape == schedule.shape
        np.testing.assert_array_equal(loaded, schedule)

    def test_field_names_normative(self, tmp_path):
        path = tmp_path / "s.json"
        hilbert.save_schedule(np.zeros((1, 4)), path)
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

    def test_phases_reduced_to_principal_range(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"n": 2, "k": 1, "stages": [[7.0, -1.0, 0.0, 2 * np.pi]]}))
        schedule = hilbert.load_schedule(path)
        assert np.all(schedule >= 0) and np.all(schedule < 2 * np.pi)


def mod_rule(x):
    """The reference reduction: np.mod, then the 1e-9 snap at 2pi."""
    out = np.mod(x, 2 * np.pi)
    return np.where(2 * np.pi - out < 1e-9, 0.0, out)


TWO_PI = 2 * np.pi
PHASES = (
    st.floats(-1e6, 1e6)
    | st.integers(-1000, 1000).map(lambda m: m * TWO_PI)
    | st.floats(TWO_PI - 2e-9, TWO_PI + 2e-9).flatmap(lambda x: st.sampled_from([x, -x]))
    | st.floats(0, TWO_PI, exclude_max=True)
    | st.sampled_from([-0.0, 0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0), TWO_PI - 1e-9, 5e-324, -5e-324])
)


class TestReducePhases:
    @settings(max_examples=300, deadline=None, database=None)
    @given(values=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=16), elements=PHASES))
    @example(values=np.array([-0.0, 0.0, TWO_PI, -TWO_PI, TWO_PI - 1e-9, 1e6, -1e6]))
    @example(values=np.array([-0.0, 1.0, np.nextafter(TWO_PI - 1e-9, 0)]))
    def test_bits_match_mod_rule(self, values):
        expected = mod_rule(values)
        got = hilbert.reduce_phases(values)
        assert got.tobytes() == expected.tobytes()
        # reduced input takes the copying path and keeps its bits, -0.0 aside
        again = hilbert.reduce_phases(expected)
        assert again.tobytes() == mod_rule(expected).tobytes() == expected.tobytes()

    def test_reduced_input_gives_a_fresh_array(self):
        phases = np.random.default_rng(4).uniform(0, 6, 32)
        out = hilbert.reduce_phases(phases)
        assert not np.shares_memory(out, phases)
        np.testing.assert_array_equal(out, phases)
        out[0] = -1.0
        assert phases[0] >= 0

    def test_schedule_keeps_reduced_bits(self, tmp_path):
        # a reduced schedule reads back with its bits, and greedy's stages,
        # reduced row by row, are reduced as a whole
        stages = hilbert.reduce_phases(np.random.default_rng(6).uniform(-20, 20, (3, 8)))
        path = tmp_path / "s.json"
        hilbert.save_schedule(stages, path)
        assert hilbert.load_schedule(path).tobytes() == stages.tobytes()
        _, stages = greedy_run(64, 6)
        assert hilbert.reduce_phases(stages).tobytes() == stages.tobytes()


def dumped(doc) -> str:
    """The reference text: one ``orjson.dumps`` of ``doc`` and a newline."""
    return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY).decode() + "\n"


def hexed(value):
    """``value`` as plain JSON values with every float as its ``float.hex``:
    equal results mean equal values and bit-identical floats."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value.hex() if isinstance(value, float) else value


def assert_reads_back(text, doc):
    """Stdlib ``json`` reads ``text`` back to the values of ``doc``, bit for bit."""
    assert hexed(json.loads(text)) == hexed(doc)


@pytest.fixture(scope="module")
def greedy_4096():
    return greedy_run(4096, 6)[1]


class TestWriteJson:
    # every slice size must give the same text; 1 and 7 split rows and lists
    @pytest.mark.parametrize("piece", [None, 1, 7])
    def test_schedule_file_matches_json_dump(self, greedy_4096, tmp_path, monkeypatch, piece):
        if piece:
            monkeypatch.setattr(hilbert, "JSON_PIECE", piece)
        path = tmp_path / "schedule.json"
        hilbert.save_schedule(greedy_4096, path)
        doc = {"n": 4096, "k": 6, "stages": greedy_4096.tolist()}
        assert path.read_text() == dumped(doc)
        assert_reads_back(path.read_text(), doc)

    @pytest.mark.parametrize("n, k", [(16, 3), (24, 4)])  # a bare series; a keyed map
    def test_series_file_matches_json_dump(self, tmp_path, n, k):
        free = search_free_series(n, k)[0]
        path = tmp_path / "series.json"
        exact.save_series(free, path)
        docs = {name: {"n": n, "klass": name[0], "coeffs": c.tolist()} for name, c in free.items()}
        doc = docs if len(docs) > 1 else next(iter(docs.values()))
        assert path.read_text() == dumped(doc)
        assert_reads_back(path.read_text(), doc)

    @pytest.mark.parametrize("piece", [None, 3])
    def test_compose_report_matches_json_dump(self, tmp_path, capsys, monkeypatch, piece):
        schedule = synthesize_exact(52, 3, search_free_series(52, 3)[0])[0]
        path = tmp_path / "s52.json"
        hilbert.save_schedule(schedule, path)
        if piece:
            monkeypatch.setattr(hilbert, "JSON_PIECE", piece)
        docs = []
        write_json = hilbert.write_json

        def recorded(doc, fh):
            docs.append(doc)
            write_json(doc, fh)

        monkeypatch.setattr(hilbert, "write_json", recorded)
        argv = ["compose", "--m", "52", "--k", "3", "--h", "2", "--all", "--schedule", str(path)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert len(docs) == 1 and len(docs[0]["results"]["runs"]) == 52**2
        assert out == dumped(docs[0])
        assert_reads_back(out, docs[0])

    def test_schedule_file_memory(self, greedy_4096, tmp_path):
        tracemalloc.start()
        try:
            hilbert.save_schedule(greedy_4096, tmp_path / "schedule.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.35 MiB in pieces; one orjson.dumps of the document takes 1.0, and
        # one json.dumps of the listed stages 5.6
        assert peak < 2 * 2**20
        assert_reads_back((tmp_path / "schedule.json").read_text(), {"n": 4096, "k": 6, "stages": greedy_4096})

    def test_long_rows_of_rows_are_sliced(self, tmp_path):
        # rows of 8192 [re, im] pairs, each longer than a piece; one
        # orjson.dumps of the document, or of each row, peaks at 1.0 MiB
        # (one json.dumps per row at 1.8)
        rng = np.random.default_rng(3)
        doc = {"rows": [rng.random((8192, 2)).tolist() for _ in range(2)]}
        path = tmp_path / "report.json"
        with open(path, "w") as fh:
            tracemalloc.start()
            try:
                hilbert.write_json(doc, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert path.read_text() == dumped(doc)
        assert_reads_back(path.read_text(), doc)
        assert peak < 2**20

    def test_memory_of_long_rows(self, tmp_path):
        # a greedy (2^17, 6) schedule file, rows of 2^18 phases, and a report
        # of 2^17 success values: 6.8 and 6.4 MiB when a flat row or array
        # went to one orjson.dumps call, 0.1 and 0.3 in pieces
        stages = greedy_run(2**17, 6)[1]
        report = {"command": "verify", "params": {}, "results": synth.schedule_report(stages)[1]}

        def peak(write):
            tracemalloc.start()
            try:
                write()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        schedule_peak = peak(lambda: hilbert.save_schedule(stages, tmp_path / "schedule.json"))
        with open(tmp_path / "report.json", "w") as fh:
            report_peak = peak(lambda: hilbert.write_json(report, fh))
        assert schedule_peak < 2**20 and report_peak < 2**20, (schedule_peak, report_peak)
        assert (tmp_path / "schedule.json").read_text() == dumped({"n": 2**17, "k": 6, "stages": stages})
        assert (tmp_path / "report.json").read_text() == dumped(report)

    def test_no_piece_holds_more_than_piece_values(self, greedy_4096, tmp_path, capsys, monkeypatch):
        # the greedy (4096, 6) schedule file (rows of 8192), a verify report
        # and a compose --all report of 52^2 records
        sizes = []
        dumps = hilbert._dumps

        def counted(value):
            sizes.append(scalars(orjson.loads(dumps(value))))
            return dumps(value)

        monkeypatch.setattr(hilbert, "_dumps", counted)
        path = tmp_path / "greedy.json"
        hilbert.save_schedule(greedy_4096, path)
        assert path.read_text() == dumped({"n": 4096, "k": 6, "stages": greedy_4096})
        assert cli.main(["verify", "--schedule", str(path), "--format", "json"]) == 0
        schedule = synthesize_exact(52, 3, search_free_series(52, 3)[0])[0]
        hilbert.save_schedule(schedule, path)
        assert cli.main(["compose", "--m", "52", "--k", "3", "--h", "2", "--all", "--schedule", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out.splitlines()[-1])["results"]["runs"]) == 52**2
        assert max(sizes) <= hilbert.JSON_PIECE
        assert sum(sizes) >= 6 * 8192 + 4096 + 3 * 52**2  # every value went through a dump

    @pytest.mark.parametrize("doc", [[[], [1.0]], [{}, {}], [[], []], {"a": [[], [[]], [{}]]}])
    @pytest.mark.parametrize("piece", [None, 1])
    def test_empty_first_items(self, doc, piece):
        assert written(doc, piece) == dumped(doc)

    @pytest.mark.parametrize("piece", [None, 1])
    def test_zero_d_and_empty_arrays(self, piece):
        # a 0-d array is one value, alone as in a list; (0, 3) has no rows.
        # orjson takes 0-d arrays only through ``default``, as their tolist()
        doc = {"a": np.array(1.0), "l": [np.array(2.5), np.array(-3.0)], "e": np.zeros((0, 3))}
        listed = {"a": 1.0, "l": [2.5, -3.0], "e": doc["e"]}
        assert written(doc, piece) == dumped(listed) == '{"a":1.0,"l":[2.5,-3.0],"e":[]}\n'


def scalars(value) -> int:
    """The number of scalar values in a JSON value, keys left out."""
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(scalars, value)) if isinstance(value, list) else 1


# edges of the float text: the sign of zero, the least subnormal, the range
# where repr and orjson spell exponents differently, the largest float
FLOAT_EDGES = [-0.0, 5e-324, 1e-5, 6.784e-05, 9.999999999999999e-05, 1e16, 1.2345e22, 1.7976931348623157e308]
FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(1e-5, 1e-4).flatmap(lambda x: st.sampled_from([x, -x]))
    | st.floats(min_value=1e16, allow_infinity=False)
    | st.sampled_from(FLOAT_EDGES)
)


def written(doc, piece=None) -> str:
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if piece:
            mp.setattr(hilbert, "JSON_PIECE", piece)
        hilbert.write_json(doc, buf)
    return buf.getvalue()


class TestWriteJsonValues:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        values=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=24), elements=FLOATS),
        piece=st.sampled_from([None, 1, 5]),
    )
    @example(values=np.array(FLOAT_EDGES), piece=None)
    @example(values=-np.array(FLOAT_EDGES).reshape(2, 4), piece=1)
    def test_floats_read_back_bit_exact(self, values, piece):
        doc = {"array": values, "list": values.tolist()}
        text = written(doc, piece)
        assert text == dumped(doc)
        assert_reads_back(text, doc)

    def test_non_finite_floats_are_null(self):
        values = np.array([np.nan, np.inf, -np.inf, 1.5])
        assert written({"a": values, "l": values.tolist()}) == (
            '{"a":[null,null,null,1.5],"l":[null,null,null,1.5]}\n'
        )

    @pytest.mark.parametrize("piece", [None, 1, 7])
    def test_scalars_tuples_and_views(self, piece):
        stages = np.random.default_rng(8).random((6, 10))
        doc = {
            "transposed": stages.T,
            "every_other": stages[:, ::2],
            "column": stages[:, 3],
            "scalar": stages[0, 0],
            "count": np.int64(7),
            "per_level": [(0, 1, 2), (3, 4, 5)],
        }
        text = written(doc, piece)
        listed = {key: value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
                  for key, value in doc.items()}
        assert text == dumped(listed)
        assert_reads_back(text, doc)
