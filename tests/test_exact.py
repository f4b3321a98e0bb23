"""Cosine-series endpoints, matching chain, certificates, and the LP search."""

import functools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from exact_testing import (
    CountingHighs,
    FalseUnboundedHighs,
    NonOptimalHighs,
    RoundoffHighs,
    b0_loop,
    dense_lp,
    eval_series,
)

from invinsert import cli, exact
from invinsert.errors import ContractError, SchemaError, SolverError
from invinsert.exact import (
    CERTIFIED_POSITIVE,
    INFEASIBLE,
    FeasibilityCertificate,
    a0,
    b0,
    build_chain,
    certify_chain,
    certify_nonneg,
    chain_free_names,
    circle_values,
    default_grid,
    load_series,
    q_from_chain,
    save_series,
    search_free_series,
)


class TestEndpoints:
    def test_a0_all_ones(self):
        np.testing.assert_array_equal(a0(9), np.ones(8))

    def test_b0_n6_values(self):
        np.testing.assert_allclose(
            b0(6), [2 / 3, 1 / 3, 0, -1 / 3, -2 / 3], atol=1e-15
        )

    def test_b0_n2_is_zero(self):
        assert not b0(2).any()

    def test_b0_antisymmetry_exact(self):
        for n in range(2, 40):
            c = b0(n)
            np.testing.assert_array_equal(c, -c[::-1])

    def test_b0_bits_match_the_loop(self):
        for n in [*range(2, 66), 1024, 1025]:
            assert b0(n).tobytes() == b0_loop(n).tobytes(), n
            if n % 2 == 0:  # the middle entry is -0.0, as the loop leaves it
                assert np.signbit(b0(n)[n // 2 - 1]), n

    @pytest.mark.parametrize("n", [2, 3, 6, 11, 16])
    def test_q0_identity(self, n):
        # 1 + A0 + B0 equals the triangular-coefficient polynomial
        # sum_r (N - |r|)/N e^{i r theta} evaluated directly
        thetas = np.linspace(0, np.pi, 1000)
        lhs = 1 + eval_series(a0(n), thetas) + eval_series(b0(n), thetas)
        r = np.arange(-(n - 1), n)
        weights = (n - np.abs(r)) / n
        rhs = (np.exp(1j * np.outer(thetas, r)) @ weights).real
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestEvalSeries:
    @pytest.mark.parametrize("n", [4, 7, 16, 64])
    def test_class_a_zero_locus(self, n):
        rng = np.random.default_rng(n)
        half = rng.standard_normal(n // 2)
        coeffs = np.zeros(n - 1)
        for r in range(1, n // 2 + 1):
            coeffs[r - 1] = half[r - 1]
            coeffs[n - r - 1] = half[r - 1]
        for m in range(n):
            theta = (2 * m + 1) * np.pi / n
            assert abs(eval_series(coeffs, theta)) < 1e-12 * max(np.abs(coeffs).sum(), 1)

    @pytest.mark.parametrize("n", [4, 7, 16, 64])
    def test_class_b_zero_locus(self, n):
        series = b0(n)
        for m in range(n + 1):
            theta = 2 * m * np.pi / n
            if theta <= np.pi + 1e-9:
                assert abs(eval_series(series, theta)) < 1e-12 * n

    def test_zero_series_everywhere_zero(self):
        series = build_chain(5, 2)[2][0]  # A_2 = 0
        thetas = np.linspace(0, np.pi, 33)
        np.testing.assert_array_equal(eval_series(series, thetas), 0.0)

    def test_symmetry_enforced(self):
        with pytest.raises(ContractError, match="violate class-A symmetry"):
            chain_with("A", [1.0, 0.0, 2.0])
        with pytest.raises(ContractError, match="violate class-B symmetry"):
            chain_with("B", [1.0, 0.5, -1.0])

    @pytest.mark.parametrize("klass, coeffs", [
        ("A", [np.nan, 0.0, 0.0, np.nan]),  # mirrored pairs, as symmetry asks
        ("A", [np.inf, 0.0, 0.0, np.inf]),
        ("A", [0.0, -np.inf, 0.0]),  # the middle entry is its own mirror
        ("B", [np.nan, 0.0, 0.0, np.nan]),
        ("B", [-np.inf, 0.0, 0.0, np.inf]),
    ])
    def test_non_finite_coefficients_rejected(self, klass, coeffs):
        with pytest.raises(ContractError, match="not finite"):
            chain_with(klass, coeffs)


def chain_with(klass, coeffs):
    """The chain whose first free series of class `klass` (A1 or B2) is
    `coeffs`, the other free series zero."""
    n = len(coeffs) + 1
    if klass == "A":
        return build_chain(n, 3, {"A1": coeffs})
    return build_chain(n, 4, {"A1": np.zeros(n - 1), "B2": coeffs})


def k2_cert(n):
    """The certificate of the two-query chain's one stage, 1 + B_0."""
    return certify_chain(build_chain(n, 2), default_grid(n))[1]


def random_series(n, klass, rng):
    c = rng.standard_normal(n - 1)
    return (c + c[::-1] if klass == "A" else c - c[::-1]) / 2


def cosine_values(series, grid):
    """sum_r c_r cos(r pi m / G), m = 0..G, as the library takes it: the first
    G + 1 of ``circle_values`` of [0, c/2] on 2G points."""
    return circle_values(np.r_[0.0, series / 2], 2 * grid)[: grid + 1]


class TestGridValues:
    @pytest.mark.parametrize("klass", ["A", "B", "Hermitian"])
    @pytest.mark.parametrize("n", [2, 7, 16, 51, 52])
    def test_matches_direct_sum_at_grid_angles(self, n, klass):
        rng = np.random.default_rng(n)
        if klass == "Hermitian":
            # complex q_1..q_{N-1}, q_{-r} = conj(q_r): Q is real on the circle,
            # checked at odd and even point counts from the least unfolded one
            q = np.r_[rng.standard_normal(), [1, 1j] @ rng.standard_normal((2, n - 1))]
            r = np.arange(-(n - 1), n)
            coeffs = np.r_[np.conj(q[:0:-1]), q]
            for points in (2 * n - 1, 2 * n, 8 * n + 3, 12 * n):
                thetas = 2 * np.pi * np.arange(points) / points
                direct = np.exp(1j * np.multiply.outer(thetas, r)) @ coeffs
                np.testing.assert_allclose(direct.imag, 0, atol=1e-10)
                np.testing.assert_allclose(circle_values(q, points), direct.real, atol=1e-10)
            return
        series = random_series(n, klass, rng)
        # 8N + 3 and 12N + 1 are not powers of two
        for grid in (8 * n, 8 * n + 3, 12 * n + 1, default_grid(n)):
            thetas = np.linspace(0.0, np.pi, grid + 1)
            np.testing.assert_allclose(
                cosine_values(series, grid), eval_series(series, thetas), atol=1e-10
            )

    def test_endpoints_at_n1024(self):
        grid = 8 * 1024 + 5
        thetas = np.linspace(0.0, np.pi, grid + 1)
        for series in (a0(1024), b0(1024)):
            np.testing.assert_allclose(
                cosine_values(series, grid), eval_series(series, thetas), atol=1e-10
            )

    def test_too_coarse_grid_rejected(self):
        # 2N - 1 points hold the harmonics -(N-1)..N-1 apart; one fewer folds them
        q = np.r_[1.0, b0(52) / 2]
        assert circle_values(q, 2 * 52 - 1).shape == (103,)
        with pytest.raises(ValueError, match="^102 points fold 51 harmonics$"):
            circle_values(q, 2 * 52 - 2)


def stage_q(series):
    """Q of the stage 1 + (sum of the given series), as ``q_from_chain``
    builds it from the stage's pair."""
    zero = np.zeros_like(series[0])
    return q_from_chain(series[0], series[1] if len(series) > 1 else zero)


class TestCertifyNonneg:
    def test_constant_q_is_certified(self):
        # a q of one coefficient is the constant Q = q_0, with L = 0, and
        # needs the 8N = 8 intervals of every N
        cert = certify_nonneg(np.ones(1), 8)
        assert cert == FeasibilityCertificate(8, 1.0, 0.0, 1.0, CERTIFIED_POSITIVE)

    def test_boundary_case_n6(self):
        ok = certify_nonneg(stage_q([b0(6)]), default_grid(6))
        assert ok.verdict != INFEASIBLE
        assert ok.grid_min > 0.03  # the true minimum is about 0.0321

    def test_violation_n7(self):
        cert = certify_nonneg(stage_q([b0(7)]), default_grid(7))
        assert cert.verdict == INFEASIBLE
        assert cert.grid_min < -0.06  # the violation is about -0.0674

    def test_certified_positive_needs_margin(self):
        cert = certify_nonneg(stage_q([b0(6)]), default_grid(6))
        # Lipschitz slack exceeds the 0.032 minimum on the default grid
        assert cert.margin == cert.grid_min - cert.lipschitz * (
            np.pi / cert.grid_points
        ) / 2

    def test_certified_survives_finer_grid(self):
        # soundness: a certified verdict cannot be contradicted at 10x
        series = np.array([0.1, 0.1, 0.1])
        base = 8 * 4 * 64
        cert = certify_nonneg(stage_q([series]), base)
        assert cert.verdict == CERTIFIED_POSITIVE
        finer = certify_nonneg(stage_q([series]), base * 10)
        assert finer.grid_min >= -1e-12

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError):
            certify_nonneg(stage_q([b0(6)]), 40)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, monkeypatch, bad):
        def no_transform(*args):
            raise AssertionError("a transform ran")

        series = np.zeros(5)
        series[2] = bad
        monkeypatch.setattr(exact, "circle_values", no_transform)
        with pytest.raises(ValueError, match="non-finite coefficients"):
            certify_nonneg(stage_q([b0(6), series]), default_grid(6))

    @pytest.mark.parametrize("q", [
        build_chain(6, 2)[1],  # a stage's pair (A, B), not its Q
        np.ones((1, 6)),
        np.float64(1.0),
        np.empty(0),
        np.ones(6, dtype=complex),
    ], ids=["stage-pair", "2-D", "0-d", "empty", "complex"])
    def test_anything_but_one_real_q_rejected(self, monkeypatch, q):
        # a stage's pair would otherwise be read as a 2-D array; at the
        # (52,3) stages its grid minimum comes out near -10
        def no_transform(*args):
            raise AssertionError("a transform ran")

        monkeypatch.setattr(exact, "circle_values", no_transform)
        with pytest.raises(ValueError, match="^expected a real 1-D array of coefficients"):
            certify_nonneg(q, default_grid(6))

    def test_to_dict_fields(self):
        cert = certify_nonneg(stage_q([b0(6)]), default_grid(6))
        assert cert.to_dict() == {
            "grid_points": cert.grid_points,
            "grid_min": cert.grid_min,
            "lipschitz": cert.lipschitz,
            "margin": cert.margin,
            "verdict": cert.verdict,
        }

    def test_memory_stays_small_at_n1024(self):
        # the default grid at N = 1024 has 65536 intervals; a (grid x N)
        # cosine matrix there would take about 0.5 GiB
        tracemalloc.start()
        try:
            k2_cert(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestChainOffTheGrid:
    """The (550,4) chain of `invinsert exact search --k 4 --n 550 --out`:
    every stage is at least 1.8e-3 on the default grid, and stage 2 dips to
    -2.96e-3 between its points."""

    FINE_GRID = 2**21

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_stages_negative_off_the_grid_are_infeasible(self):
        path = Path(__file__).parent / "data" / "free-550-4.json"
        chain = build_chain(550, 4, cli._load_free_series(550, 4, [path]))
        fine_min = {
            ell: (1 + sum(cosine_values(s, self.FINE_GRID) for s in stage)).min()
            for ell, stage in enumerate(chain[1:-1], 1)
        }
        assert min(fine_min.values()) < -1e-9
        certs = certify_chain(chain, default_grid(550))
        for ell, least in fine_min.items():
            if least < -1e-9:
                assert certs[ell].verdict == INFEASIBLE, f"stage {ell}: {certs[ell].verdict}"


class TestCertifyChain:
    def test_one_transform_per_stage(self, monkeypatch):
        path = Path(__file__).parent / "data" / "free-300-4.json"
        chains = {
            (52, 2): build_chain(52, 3, search_free_series(52, 3)[0]),
            (300, 3): build_chain(300, 4, cli._load_free_series(300, 4, [path])),
        }
        calls = []
        circle_values = exact.circle_values
        monkeypatch.setattr(
            exact, "circle_values", lambda *args: calls.append(args) or circle_values(*args)
        )
        for (n, stages), chain in chains.items():
            calls.clear()
            certify_chain(chain, default_grid(n))
            assert len(calls) == stages, n

    def test_n2_zero_stage_has_the_grid_floor(self):
        # the k = 2 chain's one stage is 1 + 0 + B_0(2), all zeros, and
        # needs 8N = 16 intervals like every other stage
        with pytest.raises(ValueError, match="need at least 16 grid intervals, got 10"):
            certify_chain(build_chain(2, 2), 10)
        assert certify_chain(build_chain(2, 2), 16) == {
            1: FeasibilityCertificate(16, 1.0, 0.0, 1.0, CERTIFIED_POSITIVE)
        }



def committed_chains():
    """Every chain committed as a series file, by (N, k): the ``tests/data``
    fixtures and the benchmark's inputs."""
    tests = Path(__file__).resolve().parent
    dirs = (tests / "data", tests.parent / "perfbench" / "inputs")
    chains = {}
    for path in sorted(p for d in dirs for p in d.glob("free-*-*.json")):
        n, k = map(int, path.stem.split("-")[1:])
        chains[n, k] = build_chain(n, k, cli._load_free_series(n, k, [path]))
    return chains


def max_slope(q, grid):
    """max |Q'| = max |sum_r 2 r q_r sin(r theta)| at theta = pi m / G,
    m = 0..G: the imaginary part of a real FFT of 2 r q_r on 2G points."""
    return np.abs(np.fft.rfft(2 * np.arange(len(q)) * q, 2 * grid).imag).max()


class TestLipschitzBound:
    def test_bounds_the_slope_of_random_q(self):
        rng = np.random.default_rng(33)
        for n in (1, 2, 3, 8, 52, 300):
            for _ in range(5):
                q = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3])
                cert = certify_nonneg(q, 8 * n)
                assert max_slope(q, 1024 * n) <= cert.lipschitz, n

    def test_bounds_the_slope_of_every_committed_stage(self):
        two_series = 0
        for (n, k), chain in committed_chains().items():
            for ell, cert in certify_chain(chain, default_grid(n)).items():
                a, b = chain[ell]
                assert max_slope(q_from_chain(a, b), 64 * n) <= cert.lipschitz, (n, ell)
                # the stage's own sum: sum_r r |a_r + b_r|, not the sum of
                # the two series' bounds
                assert cert.lipschitz == float(np.sum(np.arange(1, n) * np.abs(a + b))), (n, ell)
                two_series += bool(a.any() and b.any())
        # stage 1 (A1 + B0) of all six chains, stage 2 (A1 + B2) of the five at k = 4
        assert two_series == 11

class TestFeasibilityBoundaries:
    def test_k2_boundary(self):
        for n in range(2, 7):
            assert k2_cert(n).verdict != INFEASIBLE
        for n in range(7, 65):
            assert k2_cert(n).verdict == INFEASIBLE

    def test_k2_n2_is_trivially_one(self):
        cert = k2_cert(2)
        assert cert.verdict != INFEASIBLE
        assert abs(cert.grid_min - 1.0) < 1e-12  # B0(2) is the zero series

    def test_k1_only_n2(self):
        assert search_free_series(2, 1) is not None
        for n in range(3, 65):
            assert search_free_series(n, 1) is None


class TestBuildChain:
    def test_k2_chain_shape(self):
        chain = build_chain(6, 2)
        assert chain_free_names(2) == ()
        a_1, b_1 = chain[1]
        assert not a_1.any()
        np.testing.assert_array_equal(b_1, b0(6))
        a_2, b_2 = chain[2]
        assert not a_2.any() and not b_2.any()

    def test_k3_constraints_reduce_to_two(self):
        # structurally: stage 1 is 1 + A1 + B0, stage 2 is 1 + A1
        n = 8
        chain = build_chain(n, 3, {"A1": np.zeros(n - 1)})
        certs = certify_chain(chain, 8 * n)
        assert set(certs) == {1, 2}
        assert certs[1] == certify_nonneg(stage_q([b0(n)]), 8 * n)  # A1 = 0 adds nothing
        assert (certs[2].grid_min, certs[2].lipschitz) == (1.0, 0.0)  # 1 + 0 >= 0

    def test_k3_with_nonzero_free(self):
        n = 8
        coeffs = np.zeros(n - 1)
        coeffs[0] = coeffs[n - 2] = 0.25
        free = {"A1": coeffs}
        chain = build_chain(n, 3, free)
        a_1, b_1 = chain[1]
        a_2, b_2 = chain[2]
        np.testing.assert_array_equal(a_1, a_2)  # A2 = A1
        np.testing.assert_array_equal(b_1, b0(n))  # B1 = B0
        assert not b_2.any()  # B2 = B3 = 0
        assert not chain[3][0].any()

    def test_k4_free_names(self):
        assert chain_free_names(4) == ("A1", "B2")
        chain = build_chain(
            10, 4, {"A1": np.zeros(9), "B2": np.zeros(9)}
        )
        # unrolled identifications: B1=B0, A2=A1, B3=B2, A3=A4=0, B4=0
        np.testing.assert_array_equal(chain[1][1], b0(10))
        np.testing.assert_array_equal(chain[2][0], chain[1][0])
        np.testing.assert_array_equal(chain[3][1], chain[2][1])
        assert not chain[3][0].any()
        assert not chain[4][0].any() and not chain[4][1].any()

    def test_k5_free_names(self):
        assert chain_free_names(5) == ("A1", "B2", "A3")

    def test_free_count_is_k_minus_2(self):
        for k in range(2, 9):
            assert len(chain_free_names(k)) == k - 2

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_stage_obeys_the_matching_conditions(self, k):
        n = 2 if k == 1 else 10
        names = ("A1", "B2", "A3", "B4", "A5", "B6")[: max(k - 2, 0)]
        assert chain_free_names(k) == names
        rng = np.random.default_rng(k)
        free = {}
        for name in names:
            v = rng.standard_normal(n - 1)
            coeffs = v + v[::-1] if name[0] == "A" else v - v[::-1]
            free[name] = coeffs
        chain = build_chain(n, k, free)
        assert len(chain) == k + 1

        same = np.array_equal
        assert same(chain[0][0], a0(n)) and same(chain[0][1], b0(n))
        for ell in range(1, k + 1):
            (a, b), (a_prev, b_prev) = chain[ell], chain[ell - 1]
            assert same(a, a[::-1]) and same(b, -b[::-1])  # classes A and B
            if ell % 2:  # B_l = B_{l-1}; A_l is the stage's own series
                assert same(b, b_prev)
                own = a
            else:  # A_l = A_{l-1}; B_l is the stage's own series
                assert same(a, a_prev)
                own = b
            if ell <= k - 2:
                assert same(own, free[names[ell - 1]])
        assert not chain[k][0].any() and not chain[k][1].any()

    def test_wrong_free_set_rejected(self):
        with pytest.raises(ContractError):
            build_chain(8, 3, {})
        with pytest.raises(ContractError):
            build_chain(8, 3, {"B2": np.zeros(7)})

    def test_wrong_klass_rejected(self):
        # a class-A slot given an antisymmetric series, a class-B slot a symmetric one
        with pytest.raises(ContractError, match="^coefficients are not finite or violate class-A symmetry$"):
            build_chain(8, 3, {"A1": b0(8)})
        with pytest.raises(ContractError, match="^coefficients are not finite or violate class-B symmetry$"):
            build_chain(8, 4, {"A1": np.zeros(7), "B2": a0(8)})

    def test_wrong_size_rejected(self):
        for coeffs in (np.zeros(5), np.zeros((1, 7)), np.zeros(8)):
            message = f"expected 7 coefficients, got shape {coeffs.shape}"
            with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
                build_chain(8, 3, {"A1": coeffs})

    def test_non_finite_rejected(self):
        coeffs = np.zeros(7)
        coeffs[3] = np.nan  # the middle entry, its own mirror
        with pytest.raises(ContractError, match="^coefficients are not finite or violate class-A symmetry$"):
            build_chain(8, 3, {"A1": coeffs})

    def test_stages_are_read_only_copies(self):
        given = np.zeros(7)
        given[0] = given[6] = 0.25
        chain = build_chain(8, 4, {"A1": given, "B2": np.zeros(7)})
        for stage in chain:
            for series in stage:
                assert not series.flags.writeable
                with pytest.raises(ValueError):
                    series[0] = 1.0
        given[0] = given[6] = 0.5  # the caller's array is not the chain's
        assert chain[1][0][0] == chain[2][0][0] == 0.25

    def test_k1_requires_n2(self):
        chain = build_chain(2, 1)
        assert not chain[1][0].any() and not chain[1][1].any()
        with pytest.raises(ContractError):
            build_chain(6, 1)


class TestSearchFreeSeries:
    def test_k2_degenerate_feasible(self):
        found = search_free_series(6, 2)
        assert found is not None
        free, certs = found
        assert free == {}
        assert certs[1].verdict != INFEASIBLE

    def test_k2_degenerate_infeasible(self):
        assert search_free_series(7, 2) is None

    def test_k3_small_n_feasible(self):
        found = search_free_series(6, 3)
        assert found is not None
        free, certs = found
        assert set(free) == {"A1"}
        assert np.array_equal(free["A1"], free["A1"][::-1])  # class A
        assert all(c.verdict != INFEASIBLE for c in certs.values())
        # the found series really satisfies both constraints on a fine grid
        fine = 10 * default_grid(6)
        assert certify_nonneg(stage_q([free["A1"], b0(6)]), fine).grid_min > -1e-12
        assert certify_nonneg(stage_q([free["A1"]]), fine).grid_min > -1e-12

    def test_search_beats_zero_choice(self):
        # for n = 6, A1 = 0 already works; the LP must do at least as well
        found = search_free_series(6, 3)
        free, _ = found
        fine_grid = np.linspace(0, np.pi, 4097)
        slack_lp = np.min(
            1 + eval_series(free["A1"], fine_grid) + eval_series(b0(6), fine_grid)
        )
        slack_zero = np.min(1 + eval_series(b0(6), fine_grid))
        assert slack_lp >= slack_zero - 1e-9

    def test_k_below_two_rejected(self):
        # k = 0 has no chain; k = 1 is answered like any other k: its chain
        # needs B_0 = 0, so it exists at N = 2 only, with nothing to certify
        with pytest.raises(ValueError):
            search_free_series(6, 0)
        assert search_free_series(2, 1) == ({}, {})
        assert search_free_series(3, 1) is None

    def test_k2_search_agrees_with_chain_certificate(self):
        for n in range(2, 301):
            assert (search_free_series(n, 2) is not None) == (k2_cert(n).verdict != INFEASIBLE)
        for n in (6, 7):  # the chain's one stage is 1 + B_0
            assert k2_cert(n) == certify_nonneg(stage_q([b0(n)]), default_grid(n))

    @pytest.mark.parametrize("n,k,grid", [(300, 4, 2000), (16, 3, 0), (6, 2, 47)])
    def test_coarse_grid_rejected_before_any_lp(self, monkeypatch, n, k, grid):
        def no_lp(*args):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(exact, "_max_min_slack", no_lp)
        with pytest.raises(ValueError, match=f"need at least {8 * n} grid intervals"):
            search_free_series(n, k, grid)

    def test_infeasible_certificate_gives_none(self, monkeypatch):
        infeasible = FeasibilityCertificate(
            grid_points=1, grid_min=-1.0, lipschitz=0.0, margin=-1.0, verdict=INFEASIBLE
        )
        monkeypatch.setattr(exact, "certify_nonneg", lambda q, grid: infeasible)
        assert search_free_series(6, 3) is None


PARITY_CASES = [
    (6, 2), (7, 2), (6, 3), (16, 3), (52, 3), (57, 3), (24, 4), (40, 5), (18, 6), (21, 7),
]


@functools.lru_cache(maxsize=None)
def dense_reference(n: int, k: int) -> tuple:
    return dense_lp(n, k, default_grid(n))


class TestExchangeSearch:
    @pytest.mark.parametrize("n,k", PARITY_CASES)
    def test_delta_matches_dense_lp(self, n, k):
        if k == 2:  # no free series: delta* is the grid minimum of 1 + B_0
            delta = certify_chain(build_chain(n, 2), default_grid(n))[1].grid_min
        else:
            delta, _ = exact._max_min_slack(n, k, default_grid(n))
        dense_delta, _, _ = dense_reference(n, k)
        assert abs(delta - dense_delta) <= 1e-9
        assert (search_free_series(n, k) is not None) == (dense_delta >= 0)

    @pytest.mark.parametrize("n,k", PARITY_CASES)
    def test_fixed_rows_are_the_dense_zero_rows(self, n, k):
        # a row group holds the stages with the same free series, so its
        # members have the same dense free columns; its rows found from the
        # class structure are exactly the rows where every free column of
        # each member vanishes, and its fixed values are the least of theirs
        _, groups = exact._stage_rows(n, k, default_grid(n))
        _, blocks, fixed = dense_reference(n, k)
        assert len(blocks) == k - 1
        assert sorted(ell for members, _, _, _ in groups for ell in members) == list(range(1, k))
        for members, _, least, pinned in groups:
            for ell in members:
                np.testing.assert_array_equal(blocks[ell - 1], blocks[members[0] - 1])
                np.testing.assert_array_equal(
                    pinned, np.all(np.abs(blocks[ell - 1]) < 1e-12, axis=1)
                )
            np.testing.assert_array_equal(least, np.min([fixed[ell - 1] for ell in members], axis=0))
        firsts = [blocks[members[0] - 1] for members, _, _, _ in groups]
        for i, a in enumerate(firsts):
            assert not any(np.array_equal(a, b) for b in firsts[i + 1:])

    @pytest.mark.parametrize("klass", ["A", "B"])
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 52])
    def test_lp_rows_and_slack_describe_one_series(self, n, klass):
        # _symmetric_basis builds the LP's rows, and _expand the coefficients
        # whose grid values the exchange checks for violated rows
        half = np.random.default_rng(n).standard_normal(len(exact._basis_orders(n, klass)[0]))
        coeffs = exact._expand(n, klass, half)
        exact._checked(coeffs, n, klass)  # of the class's symmetry
        grid = 8 * n
        rows = exact._symmetric_basis(n, klass, np.pi * np.arange(grid + 1) / grid) @ half
        np.testing.assert_allclose(rows, cosine_values(coeffs, grid), rtol=0, atol=1e-12)

    def test_k3_stages_share_their_rows(self):
        # 1 + B0 + A1 and 1 + A1 have the one free series A1
        _, groups = exact._stage_rows(52, 3, default_grid(52))
        assert [(members, names) for members, names, _, _ in groups] == [((1, 2), ["A1"])]
        _, groups = exact._stage_rows(52, 4, default_grid(52))
        assert [members for members, _, _, _ in groups] == [(1,), (2,), (3,)]

    @pytest.mark.parametrize("n,k,parent_peak,peak", [(52, 3, 241, 160), (100, 4, 554, 420)])
    def test_lp_holds_fewer_rows(self, monkeypatch, n, k, parent_peak, peak):
        # without merged stages and dropped slack rows the LP peaks at 241
        # and 554 rows here; with them at 125 and 330
        monkeypatch.setattr(exact, "_Highs", CountingHighs)
        monkeypatch.setattr(CountingHighs, "rows", [])
        assert search_free_series(n, k) is not None
        assert max(CountingHighs.rows) <= peak < parent_peak

    @pytest.mark.parametrize("n,k,solves,peak", [
        (52, 3, 10, 125), (56, 3, 11, 174), (57, 3, 10, 169), (100, 4, 6, 330),
    ])
    def test_exchange_path_of_the_benchmark_searches(self, monkeypatch, n, k, solves, peak):
        # the exchange's path hangs on the last bits of the LP's fixed rows:
        # with 1 + B_0 from circle_values, (100, 4) takes 13 solves
        monkeypatch.setattr(exact, "_Highs", CountingHighs)
        monkeypatch.setattr(CountingHighs, "rows", [])
        search_free_series(n, k)
        assert (len(CountingHighs.rows), max(CountingHighs.rows)) == (solves, peak)

    def test_verdicts_at_paper_sizes(self):
        found = {n: search_free_series(n, 3) is not None for n in (52, 56, 57)}
        assert found == {52: True, 56: True, 57: False}

    def test_memory_stays_small_at_n100_k4(self):
        # the dense LP at (100, 4) is a 19203 x 101 matrix, about 100 MiB with
        # the copies the solver makes of it
        tracemalloc.start()
        try:
            assert search_free_series(100, 4) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_highs_binding_solves_a_known_lp(self):
        # max t s.t. t - x <= 1, t + x <= 3 has t = 2 at x = 1; the added row
        # t <= 1.5 is solved warm and moves the optimum to t = 1.5, which
        # leaves one of the first two rows with slack 1, so it is dropped
        added = []

        def more_rows(x, dropped):
            added.append((x.copy(), dropped.tolist()))
            return [] if len(added) > 1 else [([12], [1], np.array([[1.0]]), np.array([1.5]))]

        rows = [([10, 11], [0, 1], np.array([[-1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0]))]
        x = exact._maximize_last(2, rows, more_rows)
        np.testing.assert_allclose(added[0][0], [1.0, 2.0], atol=1e-12)
        assert added[0][1] == []  # both rows bind at the first optimum
        assert x[1] == pytest.approx(1.5, abs=1e-12)
        assert x[0] - x[1] >= -1 - 1e-12 and x[0] + x[1] <= 3 + 1e-12
        slack = {10: 1 + x[0] - x[1], 11: 3 - x[0] - x[1], 12: 1.5 - x[1]}
        assert added[1][1] == [key for key, value in slack.items() if value > exact.DROP_SLACK]
        assert len(added[1][1]) == 1

    def test_slack_row_leaves_only_when_delta_falls(self, monkeypatch):
        # t <= 5 has slack 3 at the first optimum t = 2 and is deleted, with
        # t = 2 unchanged; t <= 4 comes in with slack 2, but the re-solve
        # does not lower t, so it stays
        monkeypatch.setattr(exact, "_Highs", CountingHighs)
        monkeypatch.setattr(CountingHighs, "rows", [])
        calls = []

        def more_rows(x, dropped):
            calls.append((x.copy(), dropped.tolist()))
            return [] if len(calls) > 1 else [([8], [1], np.array([[1.0]]), np.array([4.0]))]

        rows = [
            ([5, 6], [0, 1], np.array([[-1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0])),
            ([7], [1], np.array([[1.0]]), np.array([5.0])),
        ]
        x = exact._maximize_last(2, rows, more_rows)
        assert [dropped for _, dropped in calls] == [[7], []]
        for seen in (calls[0][0], calls[1][0], x):
            np.testing.assert_allclose(seen, [1.0, 2.0], atol=1e-12)
        assert CountingHighs.rows == [3, 3]  # one row deleted, one added

    def test_roundoff_fall_deletes_no_rows(self, monkeypatch):
        # t <= 5 comes in after the first optimum t = 2 with slack 3; the
        # re-solve reports t 4e-14 lower, below FALL_TOL, so no row leaves
        monkeypatch.setattr(exact, "_Highs", RoundoffHighs)
        monkeypatch.setattr(CountingHighs, "rows", [])
        calls = []

        def more_rows(x, dropped):
            calls.append((x.copy(), dropped.tolist()))
            return [] if len(calls) > 1 else [([7], [1], np.array([[1.0]]), np.array([5.0]))]

        rows = [([5, 6], [0, 1], np.array([[-1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0]))]
        x = exact._maximize_last(2, rows, more_rows)
        assert 0 < 2 - x[1] < exact.FALL_TOL
        assert [dropped for _, dropped in calls] == [[], []]
        assert CountingHighs.rows == [2, 3]

    def test_false_status_after_deletion_is_solved_afresh(self, monkeypatch):
        # the warm solve after t <= 5 is deleted reports unbounded; the same
        # rows solved in a fresh model give the optimum t = 2
        monkeypatch.setattr(exact, "_Highs", FalseUnboundedHighs)
        monkeypatch.setattr(CountingHighs, "rows", [])
        calls = []

        def more_rows(x, dropped):
            calls.append(dropped.tolist())
            return [] if len(calls) > 1 else [([8], [1], np.array([[1.0]]), np.array([4.0]))]

        rows = [
            ([5, 6], [0, 1], np.array([[-1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0])),
            ([7], [1], np.array([[1.0]]), np.array([5.0])),
        ]
        x = exact._maximize_last(2, rows, more_rows)
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-12)
        assert calls == [[7], []]
        assert CountingHighs.rows == [3, 3, 3]  # the third solve is the fresh model

    def test_search_at_n300_k4(self):
        # with slack rows deleted, the warm solve of one round here ends
        # 'Unbounded' (HiGHS as bundled with scipy 1.17) on rows that bound
        # delta; the search still ends on delta* = 0.00333342472
        delta, _ = exact._max_min_slack(300, 4, default_grid(300))
        assert delta == pytest.approx(0.00333342472, abs=1e-11)

    def test_non_optimal_solve_raises(self, monkeypatch):
        monkeypatch.setattr(exact, "_Highs", NonOptimalHighs)
        with pytest.raises(SolverError, match=r"^exact search: LP .*Infeasible"):
            search_free_series(16, 3)

    def test_k2_needs_no_lp(self, monkeypatch):
        monkeypatch.setattr(exact, "_Highs", NonOptimalHighs)
        assert search_free_series(6, 2) is not None
        assert search_free_series(7, 2) is None


class TestSeriesSerialization:
    def test_single_series_round_trip(self, tmp_path):
        path = tmp_path / "a1.json"
        series = np.array([0.5, 0.25, 0.2, 0.25, 0.5])
        save_series({"A1": series}, path)
        loaded = load_series(path)
        assert set(loaded) == {"A"}  # bare object keyed by class
        assert (loaded["A"]["n"], loaded["A"]["klass"]) == (6, "A")
        np.testing.assert_array_equal(loaded["A"]["coeffs"], series)

    def test_multi_series_round_trip(self, tmp_path):
        path = tmp_path / "free.json"
        free = {"A1": np.zeros(9), "B2": np.zeros(9)}
        save_series(free, path)
        loaded = load_series(path)
        assert set(loaded) == {"A1", "B2"}

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 6, "klass": "A"}')
        with pytest.raises(SchemaError):
            load_series(path)
        path.write_text('{"n": 6, "klass": "A", "coeffs": [1, 0, 0, 0, 2]}')
        with pytest.raises(SchemaError):
            load_series(path)
