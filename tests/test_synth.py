"""Q assembly, spectral factorization, state recovery, phase extraction."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from invinsert import cli, hilbert, synth
from invinsert.errors import ContractError, FactorizationError
from invinsert.exact import a0, b0, build_chain, circle_values, q_from_chain, search_free_series
from invinsert.greedy import greedy_run
from hilbert_testing import (
    count_rows, doubled_signs, doubled_state, greedy_states, random_schedule, run_all_answers,
    run_schedule, target_state,
)
from invinsert.synth import (
    phases_from_states,
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
    return (n - np.arange(n)) / n


def q_with_zeros(roots):
    """q_0..q_{N-1} of Q = |P|^2 for the monic P with these zeros."""
    p_coeffs = np.poly(roots)[::-1]
    return np.convolve(p_coeffs, np.conj(p_coeffs[::-1]))[len(roots):]


def conjugate_paired_roots(deg, rng):
    """deg zeros of radius 0.2..0.9 in conjugate pairs, with one real zero
    at odd deg, so the polynomial with these zeros has real coefficients;
    half the time the first half of the pairs is reflected out of the disk."""
    pairs = rng.uniform(0.2, 0.9, deg // 2) * np.exp(1j * np.pi * rng.uniform(0, 1, deg // 2))
    if rng.random() < 0.5:
        pairs[: deg // 4] = 1 / np.conj(pairs[: deg // 4])
    real = rng.uniform(0.2, 0.9, deg % 2) * rng.choice([-1.0, 1.0])
    return np.r_[pairs, np.conj(pairs), real]


def p_on_circle(coeffs, grid):
    """P(e^{i theta}) at theta = 2 pi m / grid from P's ascending coefficients."""
    return grid * np.fft.ifft(coeffs, grid)


def root_reference(q):
    """P from the zeros of z^(N-1) Q(z) inside the disk, scaled so that
    sum |p_k|^2 = q_0.  The product is interpolated on the N-th roots of
    unity: np.poly's expansion of the N = 52 stage zeros, 0.002 inside the
    circle, is off by 1e-5."""
    n = len(q)
    roots = np.roots(np.r_[np.conj(q[:0:-1]), q][::-1])
    w = np.exp(2j * np.pi * np.arange(n) / n)
    monic = np.fft.fft(np.prod(w[:, None] - roots[np.abs(roots) < 1], axis=1)) / n
    return monic * np.sqrt(q[0].real / np.sum(np.abs(monic) ** 2))


class TestQFromChain:
    def test_start_chain_gives_triangular(self):
        for n in (2, 6, 11):
            q = q_from_chain(a0(n), b0(n))
            np.testing.assert_allclose(q, triangular_q(n), atol=1e-14)

    def test_zero_chain_gives_unit(self):
        q = q_from_chain(np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(q, [1.0, 0, 0, 0, 0])

    def test_n6_two_query_middle_polynomial(self):
        q = q_from_chain(np.zeros(5), b0(6))
        np.testing.assert_allclose(
            q[1:], [1 / 3, 1 / 6, 0, -1 / 6, -1 / 3], atol=1e-15
        )
        assert q[0] == 1.0


class TestSpectralFactor:
    def test_unit_q_gives_monomial(self):
        for n in (2, 6, 52):
            q = q_from_chain(np.zeros(n - 1), np.zeros(n - 1))
            p = spectral_factor(q)
            expected = np.zeros(n, dtype=complex)
            expected[n - 1] = 1.0
            np.testing.assert_allclose(p, expected, atol=1e-12)

    @pytest.mark.parametrize("q", [
        *(triangular_q(n) for n in (2, 3, 6, 16, 52)),
        # two conjugate pairs of zeros on the circle and one inside it
        q_with_zeros(np.r_[1, 1, 0.5, 1, 1, 0.5] * np.exp(1j * np.r_[0.3, 1.1, 2.0, -0.3, -1.1, -2.0])),
    ], ids=["2", "3", "6", "16", "52", "conjugate-pairs"])
    def test_circle_zeros_raise(self, q):
        # log Q is singular at a zero on the circle: the start polynomial's
        # squared magnitude is 0 on a grid point or keeps the grids apart
        # up to the ladder's cap
        with pytest.raises(FactorizationError):
            spectral_factor(q)

    ZERO_ON_FIRST_GRID = (
        r"Q is not positive on the 512-point grid: its least value there is -?\d\.\d{3}e[-+]\d\d"
    )

    @pytest.mark.parametrize("n,message", [
        (2, ZERO_ON_FIRST_GRID),
        (3, r"the cepstral factor's coefficients still change by \d\.\d{3}e-\d\d "
            r"on the 524288-point grid, the ladder's cap"),
        (6, ZERO_ON_FIRST_GRID),
        (16, ZERO_ON_FIRST_GRID),
    ], ids=["2", "3", "6", "16"])
    def test_start_polynomial_error_names_where_the_ladder_stops(self, n, message):
        # the start polynomial's zeros lie at 2 pi j / N, j = 1..N-1: for even
        # N the zero at pi is a point of every grid, and N = 3's zeros at
        # 2 pi/3 and 4 pi/3 miss every grid of 2^m points, so its grids stay
        # apart up to the cap
        with pytest.raises(FactorizationError, match=rf"^{message}$"):
            spectral_factor(triangular_q(n))

    def test_random_round_trips(self):
        # 'oracle' direction: build Q from a known P, refactor, compare moduli
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(120):
            deg = int(rng.integers(1, 9))
            n = deg + 1
            roots = conjugate_paired_roots(deg, rng)
            coeffs = np.poly(roots)[::-1].real * (0.3 + rng.random())
            q_arr = np.convolve(coeffs, coeffs[::-1])
            q_arr = q_arr / q_arr[deg]  # normalize the zero-lag term to 1
            q = q_arr[deg:]
            p = spectral_factor(q)
            grid = 64 * n
            err = np.max(np.abs(np.abs(p_on_circle(p, grid)) ** 2 - circle_values(q, grid)))
            worst = max(worst, err)
        assert worst < 1e-9

    @pytest.mark.parametrize("n,k", [(16, 3), (52, 3)])
    def test_chain_stages_match_root_reference(self, n, k, monkeypatch):
        free, _ = search_free_series(n, k)
        chain = build_chain(n, k, free)
        qs = [q_from_chain(*chain[ell]) for ell in range(1, k + 1)]
        references = [root_reference(q) for q in qs]

        def no_eigensolve(_):
            raise AssertionError("a positive Q reached np.roots")

        monkeypatch.setattr(synth.np, "roots", no_eigensolve)
        for q, ref in zip(qs, references):
            coeffs = spectral_factor(q)
            i = np.argmax(np.abs(ref))
            phase = coeffs[i] / ref[i] / abs(coeffs[i] / ref[i])
            np.testing.assert_allclose(coeffs, ref * phase, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 52])
    def test_memory_bounded_by_fft_cap(self, n):
        # N = 3's circle zeros miss every FFT grid, so its Q walks the ladder
        # to its cap, 2^19 points; N = 52's lie on the first grid
        tracemalloc.start()
        try:
            with pytest.raises(FactorizationError):
                spectral_factor(triangular_q(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_first_grid_at_the_budget_raises(self):
        # from N = 2^19 + 1 the first grid, half of 16N rounded up, is
        # already FFT_MAX_SIZE points, and no Q is evaluated
        q = np.zeros(2**19 + 1)
        q[0] = 1.0
        with pytest.raises(FactorizationError, match=(
            r"^the ladder's first grid, 8388608 points, leaves no finer grid "
            r"within FFT_MAX_SIZE = 8388608 points$"
        )):
            spectral_factor(q)

    def test_large_n_factors_within_the_fft_budget(self):
        # N = 16385 is the first N whose first rung, 2^18 points, is half
        # of 16N rounded up; P = z^(N-1) + z^(N-2) / 2 has its zero at -1/2
        n = 16385
        q = np.zeros(n)
        q[:2] = 1.25, 0.5
        expected = np.zeros(n)
        expected[-2:] = 0.5, 1.0
        tracemalloc.start()
        try:
            coeffs = spectral_factor(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(coeffs, expected, rtol=0, atol=1e-12)
        # the |P|^2 - Q gate evaluates its coefficients on the 64N-point
        # grid, 8 MiB a real array here
        assert peak < 24 * 2**20

    def test_zeros_near_circle_recovered(self, monkeypatch):
        # P is known: monic, zeros at radius 1 - 1e-3 in conjugate pairs and
        # one at -1 + 1e-3, so log Q's coefficients decay only as 0.999^r
        n = 8
        angles = np.array([0.3, 1.1, 2.0])
        roots = (1 - 1e-3) * np.exp(1j * np.r_[angles, -angles, np.pi])
        p_coeffs = np.poly(roots)[::-1].real
        q = np.convolve(p_coeffs, p_coeffs[::-1])[n - 1:]

        def no_eigensolve(_):
            raise AssertionError("a positive Q reached np.roots")

        monkeypatch.setattr(synth.np, "roots", no_eigensolve)
        np.testing.assert_allclose(spectral_factor(q), p_coeffs, rtol=0, atol=1e-12)

    def test_real_zeros_near_circle_take_the_ladder(self, monkeypatch):
        # conjugate pairs of zeros at radius 1 - 1e-3 make P's coefficients
        # real, so the ladder takes Q and its grid climbs to 2^15 points
        angles = np.array([0.5, 1.5, 2.5])
        roots = (1 - 1e-3) * np.exp(1j * np.r_[angles, -angles])
        p_coeffs = np.poly(roots)[::-1].real
        q = np.convolve(p_coeffs, p_coeffs[::-1])[6:]

        def no_eigensolve(_):
            raise AssertionError("a positive Q reached np.roots")

        monkeypatch.setattr(synth.np, "roots", no_eigensolve)
        coeffs = synth._cepstral_factor(q)
        np.testing.assert_allclose(coeffs, p_coeffs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spectral_factor(q), p_coeffs, rtol=0, atol=1e-12)

    def test_sign_crossing_rejected(self):
        # 1 + B0(7) dips below zero, so its circle zeros have odd multiplicity
        q = q_from_chain(np.zeros(6), b0(7))
        with pytest.raises((FactorizationError, ContractError)):
            spectral_factor(q)

    @pytest.mark.parametrize("q,error", [
        ([0, 0, 0], FactorizationError), ([-1, 0, 0], FactorizationError),
        ([1, 0, np.nan], ContractError),
    ], ids=["zero", "minus-one", "nan"])
    def test_q_without_factor_raises_typed_errors(self, q, error):
        # Q = 0 and Q = -1 are not positive on the first grid; a Q with NaN
        # coefficients would pass the NaN-blind |P|^2 - Q gate
        with pytest.raises(error):
            spectral_factor(np.array(q, dtype=float))

    @pytest.mark.parametrize("q,grid,least", [
        (np.array([-1.0, 0.0, 0.0]), 512, r"-1\.000e\+00"),
        # |P|^2 - 1e-8 for P's zeros at angles +-2 pi 129 / 1024, between the
        # first grid's points: Q dips below 0 first on the 1024-point grid
        (q_with_zeros(np.exp(2j * np.pi * 129 / 1024 * np.array([1, -1]))) - [1e-8, 0, 0],
         1024, r"-1\.000e-08"),
    ], ids=["first-rung", "later-rung"])
    def test_error_names_the_grid_where_q_is_not_positive(self, q, grid, least):
        with pytest.raises(FactorizationError, match=(
            rf"^Q is not positive on the {grid}-point grid: its least value there is {least}$"
        )):
            spectral_factor(q)

    def test_error_names_the_cap_and_the_change_left(self, monkeypatch):
        # stage 1 of the (52,3) chain is accepted on 2^14 points, 2^5 times
        # its first rung; three rungs stop it at 2^12
        free = cli._load_free_series(52, 3, [PERFBENCH_INPUTS / "free-52-3.json"])
        monkeypatch.setattr(synth, "LADDER_RUNGS", 3)
        with pytest.raises(FactorizationError, match=(
            r"^stage 1: the cepstral factor's coefficients still change by "
            r"\d\.\d{3}e-\d\d on the 4096-point grid, the ladder's cap$"
        )):
            synthesize_exact(52, 3, free)

    @pytest.mark.parametrize("q,error", [
        (np.ones((2, 2)), ValueError),
        (np.ones(1), ValueError),
        (np.array([1.0, np.nan]), ContractError),
        (np.array([1.0 + 1e-6j, 0.25]), ContractError),
    ], ids=["2-D", "one-coefficient", "nan", "complex-q0"])
    def test_malformed_q_rejected(self, q, error):
        with pytest.raises(error):
            spectral_factor(q)

    @pytest.mark.parametrize("q", [
        np.array([1.0 + 1e-12j, 0.25]),
        q_with_zeros([-0.5j]),  # P = z + i/2, its zero inside the disk
        np.array([1.0, 0.25], dtype=complex),
    ], ids=["im-q0-roundoff", "complex-p", "complex-dtype"])
    def test_complex_q_rejected_before_any_transform(self, monkeypatch, q):
        # every chain's Q is real (q_from_chain), so the factor takes real Q only
        def no_transform(*args):
            raise AssertionError("a transform ran")

        monkeypatch.setattr(synth, "circle_values", no_transform)
        monkeypatch.setattr(synth, "_cepstral_factor", no_transform)
        with pytest.raises(ContractError, match="^Q's coefficients are not real and finite$"):
            spectral_factor(q)

    @pytest.mark.parametrize("n,rungs", [
        (300, [524288, 262144, 131072, 4096]),
        (400, [1048576, 524288, 262144, 4096]),
        (450, [1048576, 524288, 524288, 4096]),
    ], ids=["300", "400", "450"])
    def test_k4_stages_take_the_ladder(self, monkeypatch, n, rungs):
        # free series from `invinsert exact search --k 4 --n N --out`; their
        # least Q on the circle is 1e-3 to 2.4e-3, and stage 1 at N = 450
        # climbs to 2^8 times its first rung
        k = 4
        free = cli._load_free_series(n, k, [Path(__file__).parent / "data" / f"free-{n}-{k}.json"])
        chain = build_chain(n, k, free)
        grids = record_rungs(monkeypatch)
        accepted = []
        for ell in range(1, k + 1):
            grids.clear()
            synth._cepstral_factor(q_from_chain(*chain[ell]))
            accepted.append(max(grids))
        assert accepted == rungs
        _, report = synthesize_exact(n, k, free)
        assert report["exact"]


PERFBENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def record_rungs(monkeypatch):
    """The grid of every rung ``_cepstral_factor`` evaluates Q on, in order:
    the first rung's circle values, then each later rung's odd points."""
    grids = []
    odd_point_sums = synth._odd_point_sums

    def first(q, grid):
        grids.append(grid)
        return circle_values(q, grid)

    def odd(q, grid):
        grids.append(grid)
        return odd_point_sums(q, grid)

    monkeypatch.setattr(synth, "circle_values", first)
    monkeypatch.setattr(synth, "_odd_point_sums", odd)
    return grids


def first_rung(n):
    return max(synth.FFT_MIN_SIZE, 1 << (16 * n - 1).bit_length()) // 2


class TestCepstralFactor:
    @pytest.mark.parametrize("n,k,name,rungs", [
        # the last stage, Q = 1, stops on the first rung
        (150, 4, "free-150-4.json", [131072, 65536, 65536, 2048]),
        (52, 3, "free-52-3.json", [16384, 8192, 512]),
    ])
    def test_accepted_grid_per_stage(self, monkeypatch, n, k, name, rungs):
        # the finest grid Q is evaluated on is the grid the factor accepts
        chain = build_chain(n, k, cli._load_free_series(n, k, [PERFBENCH_INPUTS / name]))
        grids = record_rungs(monkeypatch)
        accepted = []
        for ell in range(1, k + 1):
            grids.clear()
            synth._cepstral_factor(q_from_chain(*chain[ell]))
            accepted.append(max(grids))
        assert accepted == rungs

    def test_rungs_after_the_first_transform_a_quarter_grid(self, monkeypatch):
        # a rung adds the S/2 odd points of an S-point grid, and Q's real
        # coefficients pair them as mirrors: no transform takes more than S/4
        chain = build_chain(150, 4, cli._load_free_series(150, 4, [PERFBENCH_INPUTS / "free-150-4.json"]))
        lengths = []
        for name in ("rfft", "irfft"):
            def recording(a, n=None, *args, transform=getattr(np.fft, name), **kwargs):
                lengths.append(np.shape(a)[-1] if n is None else n)
                return transform(a, n, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recording)
        synth._cepstral_factor(q_from_chain(*chain[1]))
        first = first_rung(150)
        assert lengths[:2] == [first, first] and len(lengths) == 14  # 7 rungs, 2 transforms each
        # the r-th rung after the first grid has a grid of first * 2^r points
        grids = first * 2 ** (1 + np.arange(len(lengths) - 2) // 2)
        assert np.all(np.array(lengths[2:]) <= grids // 4)

    @pytest.mark.parametrize("n", [2, 6, 52, 150])
    def test_q_one_evaluates_one_rung(self, monkeypatch, n):
        # A_k = B_k = 0 ends every chain; Q = 1 has the factor z^(N-1), and
        # log Q = 0 on the first rung's points already proves Q = 1
        q = q_from_chain(np.zeros(n - 1), np.zeros(n - 1))
        grids = record_rungs(monkeypatch)
        coeffs = synth._cepstral_factor(q)
        assert grids == [first_rung(n)]
        expected = np.zeros(n, dtype=complex)
        expected[-1] = 1.0
        np.testing.assert_array_equal(coeffs, expected)

    def test_series_exp_matches_fft_exp(self):
        # exp of a short polynomial is entire, so its coefficients on a
        # large grid carry no visible aliasing
        rng = np.random.default_rng(11)
        c = np.zeros(40, dtype=complex)
        c[:6] = 0.6 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        grid = 4096
        values = np.exp(np.fft.ifft(c, grid) * grid)
        reference = np.fft.fft(values)[:40] / grid
        np.testing.assert_allclose(synth._series_exp(c), reference, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("norm", [0.05, 3.0])  # Taylor terms; series exponential
    def test_exp_change_matches_series_exp(self, norm):
        rng = np.random.default_rng(12)
        c = rng.standard_normal(30) / np.arange(1, 31) ** 2
        dc = rng.standard_normal(30)
        new = c + dc * norm / np.abs(dc).sum()
        h = synth._series_exp(c)
        np.testing.assert_allclose(h + synth._exp_change(h, c, new), synth._series_exp(new),
                                   rtol=0, atol=1e-14)

    def test_odd_point_sums_match_the_full_circle(self):
        # the sums over the odd points of a 64-point grid, against log Q on
        # all 32 of them; P's real coefficients make Q's real
        p = np.array([1.0, -0.3, 0.2, 0.1, -0.05])  # |P| >= 0.35 on the circle
        q = np.convolve(p, p[::-1])[4:]
        theta = 2 * np.pi * np.arange(1, 64, 2) / 64
        log_q = np.log(circle_values(q, 64)[1::2])
        reference = np.exp(-1j * np.outer(np.arange(5), theta)) @ log_q
        sums = synth._odd_point_sums(q, 64)
        np.testing.assert_allclose(sums, reference, rtol=0, atol=1e-13)


def start_momentum(n):
    """The uniform start state in momentum: the unit vector at p = 0, as the
    N amplitudes of parity 0."""
    amps = np.zeros(n, dtype=complex)
    amps[0] = 1.0
    return amps


class TestStatesFromPoly:
    def test_start_polynomial_gives_uniform(self):
        n = 6
        p = np.ones(n) / np.sqrt(n)
        state = doubled_state(states_from_poly(p), 0)
        np.testing.assert_allclose(state, 1 / np.sqrt(2 * n), atol=1e-14)

    def test_monomial_gives_target(self):
        n = 5
        coeffs = np.zeros(n, dtype=complex)
        coeffs[n - 1] = 1.0
        even = doubled_state(states_from_poly(coeffs), 2)
        np.testing.assert_allclose(even, target_state(0, 1, n).amps, atol=1e-14)
        odd = doubled_state(states_from_poly(coeffs), 3)
        np.testing.assert_allclose(odd, target_state(0, -1, n).amps, atol=1e-14)

    def test_parity_support(self):
        rng = np.random.default_rng(9)
        n = 6
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coeffs /= np.linalg.norm(coeffs)  # sum |c|^2 = 1 makes the state unit
        for ell in (0, 1):
            state = doubled_state(states_from_poly(coeffs), ell)
            mom = np.fft.fft(state, norm="ortho")
            dead = mom[(np.arange(2 * n) + ell) % 2 == 1]
            assert np.max(np.abs(dead)) < 1e-12

    def test_bad_norm_rejected(self):
        n = 4
        with pytest.raises(ContractError):
            states_from_poly(np.ones(n))


class TestPhasesFromStates:
    def test_oracle_image_itself_gives_zero_phases(self):
        n = 6
        image_pos = doubled_signs(0, n) / np.sqrt(2 * n)
        psi1 = np.fft.fft(image_pos, norm="ortho")[1::2]
        phases = phases_from_states(hilbert.oracle_image(start_momentum(n), 0), psi1)
        np.testing.assert_allclose(phases, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 6, 16])
    def test_matches_greedy_recorded_phases(self, n):
        _, stages = greedy_run(n, 3)
        states = greedy_states(n, 3)
        for ell in range(1, 4):
            phi = hilbert.oracle_image(states[ell - 1], ell - 1)
            extracted = phases_from_states(phi, states[ell])
            recorded = stages[ell - 1, ell % 2 :: 2]
            delta = np.mod(extracted - recorded + np.pi, 2 * np.pi) - np.pi
            assert np.max(np.abs(delta)) < 1e-10

    def test_magnitude_mismatch_rejected(self):
        n = 4
        amps = np.zeros(n, dtype=complex)
        amps[0] = 1.0  # at p = 1, the right parity but wrong magnitudes
        with pytest.raises(ContractError):
            phases_from_states(hilbert.oracle_image(start_momentum(n), 0), amps)


class TestVColumn:
    def test_zero_phases_identity_column(self):
        col = v_column(np.zeros(8))
        np.testing.assert_allclose(col, np.eye(8)[0], atol=1e-15)

    def test_circulant_reconstruction(self):
        rng = np.random.default_rng(3)
        n = 5
        phases = rng.uniform(0, 2 * np.pi, 2 * n)
        col = v_column(phases)
        # <x|V|y> = col[(x - y) mod 2N]: apply V to each basis vector
        for y in range(2 * n):
            basis = np.zeros(2 * n, dtype=complex)
            basis[y] = 1.0
            out = np.fft.ifft(np.exp(1j * phases) * np.fft.fft(basis))
            np.testing.assert_allclose(out, np.roll(col, y), atol=1e-12)

    def test_rows_of_phases_give_one_column_each(self):
        phases = np.random.default_rng(4).uniform(0, 2 * np.pi, (3, 10))
        cols = v_column(phases)
        assert cols.shape == (3, 10)
        for row, col in zip(phases, cols):
            np.testing.assert_array_equal(col, v_column(row))
        # the width is 2N: eight phases a row give the N = 4 columns
        narrow = v_column(phases[:, :8])
        assert narrow.shape == (3, 8)
        np.testing.assert_array_equal(narrow, np.fft.ifft(np.exp(1j * phases[:, :8])))


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
        schedule, _ = result
        v1, v2 = v_column(schedule).real
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

    def test_report_shares_the_verify_fields(self, result):
        # verify and synthesis build these fields with one function
        schedule, report = result
        _, fields = synth.schedule_report(schedule)
        assert list(fields) == ["n", "k", "success_probs", "min_success_prob"]
        for key, value in fields.items():
            assert np.asarray(report[key]).tobytes() == np.asarray(value).tobytes()

    def test_schedule_bits_are_pinned(self, result):
        # the saved bits of this schedule: a change to the synthesis arithmetic shows here
        pinned = hilbert.load_schedule(Path(__file__).parent / "data" / "synth-6-2.schedule.json")
        assert np.array_equal(result[0], pinned)


class TestSynthesizeOtherCases:
    def test_n2_k1_exact(self):
        schedule, report = synthesize_exact(2, 1)
        assert report["min_success_prob"] >= 1 - 1e-12
        for j in range(2):
            _, prob = run_schedule(schedule, j)
            assert prob >= 1 - 1e-12

    def test_n2_k2_has_the_grid_floor(self):
        with pytest.raises(ValueError, match="need at least 16 grid intervals, got 10"):
            synthesize_exact(2, 2, grid_points=10)
        _, report = synthesize_exact(2, 2, grid_points=16)
        assert report["min_success_prob"] >= 1 - 1e-12

    def test_infeasible_chain_rejected(self):
        with pytest.raises(ContractError):
            synthesize_exact(7, 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_k2_small_sizes(self, n):
        _, report = synthesize_exact(n, 2)
        assert report["min_success_prob"] >= 1 - 1e-9

    def test_k3_with_zero_free_series(self):
        _, report = synthesize_exact(6, 3, {"A1": np.zeros(5)})
        assert report["min_success_prob"] >= 1 - 1e-9


class TestOneRun:
    """Synthesis runs answer 0 and reads every other answer off its translates."""

    @pytest.mark.parametrize("n, k", [(6, 2), (16, 3), (52, 3)])
    def test_overlap_is_the_dense_overlap(self, n, k):
        free = search_free_series(n, k)[0] if k > 2 else None
        schedule, report = synthesize_exact(n, k, free)
        finals = np.concatenate([f for f, _ in run_all_answers(schedule)])
        dense = 2 * np.abs(finals @ np.conj(finals).T)  # psi(x + N) = +-psi(x) doubles each
        np.fill_diagonal(dense, 0.0)
        assert abs(report["max_pairwise_overlap"] - dense.max()) <= 1e-13
        success = np.concatenate([p for _, p in run_all_answers(schedule)])
        np.testing.assert_allclose(report["success_probs"], success, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, k", [(6, 2), (16, 3)])
    def test_overlap_of_final_states_that_are_not_orthogonal(self, n, k, monkeypatch):
        # exact schedules leave every overlap near 0 whatever the momentum
        # weights are; a random schedule's final states tell them apart
        other = random_schedule(n, k, np.random.default_rng(n))
        run_answer_zero = hilbert.run_answer_zero
        monkeypatch.setattr(hilbert, "run_answer_zero", lambda schedule: run_answer_zero(other))
        free = search_free_series(n, k)[0] if k > 2 else None
        report = synthesize_exact(n, k, free)[1]
        finals = np.concatenate([f for f, _ in run_all_answers(other)])
        dense = 2 * np.abs(finals @ np.conj(finals).T)
        np.fill_diagonal(dense, 0.0)
        assert dense.max() > 0.1
        assert abs(report["max_pairwise_overlap"] - dense.max()) <= 1e-13

    def test_synthesis_runs_three_rows(self, monkeypatch):
        free = search_free_series(52, 3)[0]
        rows = count_rows(monkeypatch)
        synthesize_exact(52, 3, free)
        assert 0 < sum(rows) <= 3

    @pytest.mark.parametrize("n, k, path", [
        (6, 2, None),
        (52, 3, PERFBENCH_INPUTS / "free-52-3.json"),
        (150, 4, PERFBENCH_INPUTS / "free-150-4.json"),
        (300, 4, Path(__file__).parent / "data" / "free-300-4.json"),
    ])
    def test_each_prefix_reaches_its_stage_state(self, n, k, path):
        # the first l rows take the uniform start to stage l's state up to a
        # global phase; psi(x + N) = +-psi(x) doubles the overlap
        free = cli._load_free_series(n, k, [path]) if path else None
        stages = synthesize_exact(n, k, free)[0]
        chain = build_chain(n, k, free)
        for ell in range(1, k + 1):
            run = hilbert.run_signs(stages[:ell], hilbert.oracle_signs([0], n))[0]
            psi = states_from_poly(spectral_factor(q_from_chain(*chain[ell])))
            assert 2 * abs(np.vdot(psi, run)) >= 1 - 1e-12, ell
