"""Cosine-series endpoints, matching chain, certificates, and the LP search."""

import functools
import tracemalloc

import numpy as np
import pytest
from exact_testing import NonOptimalHighs, dense_lp, eval_series

from invinsert import exact
from invinsert.errors import ContractError, SchemaError, SolverError
from invinsert.exact import (
    CERTIFIED_POSITIVE,
    INFEASIBLE,
    CosineSeries,
    FeasibilityCertificate,
    a0,
    b0,
    build_chain,
    certify_nonneg,
    chain_constraints,
    chain_free_names,
    default_grid,
    grid_values,
    k1_feasible,
    k2_feasible,
    load_series,
    save_series,
    search_free_series,
    zero_series,
)


class TestEndpoints:
    def test_a0_all_ones(self):
        np.testing.assert_array_equal(a0(9).coeffs, np.ones(8))

    def test_b0_n6_values(self):
        np.testing.assert_allclose(
            b0(6).coeffs, [2 / 3, 1 / 3, 0, -1 / 3, -2 / 3], atol=1e-15
        )

    def test_b0_n2_is_zero(self):
        assert b0(2).is_zero()

    def test_b0_antisymmetry_exact(self):
        for n in range(2, 40):
            c = b0(n).coeffs
            np.testing.assert_array_equal(c, -c[::-1])

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
        series = CosineSeries(n=n, klass="A", coeffs=coeffs)
        for m in range(n):
            theta = (2 * m + 1) * np.pi / n
            assert abs(eval_series(series, theta)) < 1e-12 * max(np.abs(coeffs).sum(), 1)

    @pytest.mark.parametrize("n", [4, 7, 16, 64])
    def test_class_b_zero_locus(self, n):
        series = b0(n)
        for m in range(n + 1):
            theta = 2 * m * np.pi / n
            if theta <= np.pi + 1e-9:
                assert abs(eval_series(series, theta)) < 1e-12 * n

    def test_zero_series_everywhere_zero(self):
        series = zero_series(5, "A")
        thetas = np.linspace(0, np.pi, 33)
        np.testing.assert_array_equal(eval_series(series, thetas), 0.0)

    def test_symmetry_enforced(self):
        with pytest.raises(ContractError):
            CosineSeries(n=4, klass="A", coeffs=[1.0, 0.0, 2.0])
        with pytest.raises(ContractError):
            CosineSeries(n=4, klass="B", coeffs=[1.0, 0.5, -1.0])


def random_series(n, klass, rng):
    c = rng.standard_normal(n - 1)
    return CosineSeries(n=n, klass=klass, coeffs=(c + c[::-1] if klass == "A" else c - c[::-1]) / 2)


class TestGridValues:
    @pytest.mark.parametrize("klass", ["A", "B"])
    @pytest.mark.parametrize("n", [2, 7, 16, 51, 52])
    def test_matches_direct_sum_at_grid_angles(self, n, klass):
        series = random_series(n, klass, np.random.default_rng(n))
        # 8N + 3 and 12N + 1 are not powers of two
        for grid in (8 * n, 8 * n + 3, 12 * n + 1, default_grid(n)):
            thetas = np.linspace(0.0, np.pi, grid + 1)
            np.testing.assert_allclose(
                grid_values(series.coeffs, grid), eval_series(series, thetas), atol=1e-10
            )

    def test_endpoints_at_n1024(self):
        grid = 8 * 1024 + 5
        thetas = np.linspace(0.0, np.pi, grid + 1)
        for series in (a0(1024), b0(1024)):
            np.testing.assert_allclose(
                grid_values(series.coeffs, grid), eval_series(series, thetas), atol=1e-10
            )

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_values(b0(52).coeffs, 25)


class TestCertifyNonneg:
    def test_empty_list_is_certified_one(self):
        cert = certify_nonneg([], 64)
        assert cert.verdict == CERTIFIED_POSITIVE
        assert abs(cert.grid_min - 1.0) < 1e-15
        assert abs(cert.margin - 1.0) < 1e-15

    def test_boundary_case_n6(self):
        ok = certify_nonneg([b0(6)], default_grid(6))
        assert ok.verdict != INFEASIBLE
        assert ok.grid_min > 0.03  # the true minimum is about 0.0321

    def test_violation_n7(self):
        cert = certify_nonneg([b0(7)], default_grid(7))
        assert cert.verdict == INFEASIBLE
        assert cert.grid_min < -0.06  # the violation is about -0.0674

    def test_certified_positive_needs_margin(self):
        cert = certify_nonneg([b0(6)], default_grid(6))
        # Lipschitz slack exceeds the 0.032 minimum on the default grid
        assert cert.margin == cert.grid_min - cert.lipschitz * (
            np.pi / cert.grid_points
        ) / 2

    def test_certified_survives_finer_grid(self):
        # soundness: a certified verdict cannot be contradicted at 10x
        series = CosineSeries(n=4, klass="A", coeffs=[0.1, 0.1, 0.1])
        base = 8 * 4 * 64
        cert = certify_nonneg([series], base)
        assert cert.verdict == CERTIFIED_POSITIVE
        finer = certify_nonneg([series], base * 10)
        assert finer.grid_min >= -1e-12

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError):
            certify_nonneg([b0(6)], 40)

    def test_to_dict_fields(self):
        cert = certify_nonneg([b0(6)], default_grid(6))
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
            k2_feasible(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestFeasibilityBoundaries:
    def test_k2_boundary(self):
        for n in range(2, 7):
            assert k2_feasible(n)[0]
        for n in range(7, 65):
            assert not k2_feasible(n)[0]

    def test_k2_n2_is_trivially_one(self):
        ok, cert = k2_feasible(2)
        assert ok
        assert abs(cert.grid_min - 1.0) < 1e-12  # B0(2) is the zero series

    def test_k1_only_n2(self):
        assert k1_feasible(2)
        for n in range(3, 65):
            assert not k1_feasible(n)


class TestBuildChain:
    def test_k2_chain_shape(self):
        chain = build_chain(6, 2)
        assert chain.free_names == ()
        a_1, b_1 = chain.stages[1]
        assert a_1.is_zero()
        np.testing.assert_array_equal(b_1.coeffs, b0(6).coeffs)
        a_2, b_2 = chain.stages[2]
        assert a_2.is_zero() and b_2.is_zero()

    def test_k3_constraints_reduce_to_two(self):
        # structurally: stage 1 is 1 + A1 + B0, stage 2 is 1 + A1
        n = 8
        free = {"A1": zero_series(n, "A")}
        chain = build_chain(n, 3, free)
        constraints = chain_constraints(chain)
        assert set(constraints) == {1, 2}
        stage1 = constraints[1]
        assert {s.klass for s in stage1} == {"B"}  # A1 = 0 dropped, B0 stays
        np.testing.assert_array_equal(stage1[0].coeffs, b0(n).coeffs)
        assert constraints[2] == []  # 1 + 0 >= 0

    def test_k3_with_nonzero_free(self):
        n = 8
        coeffs = np.zeros(n - 1)
        coeffs[0] = coeffs[n - 2] = 0.25
        free = {"A1": CosineSeries(n=n, klass="A", coeffs=coeffs)}
        chain = build_chain(n, 3, free)
        a_1, b_1 = chain.stages[1]
        a_2, b_2 = chain.stages[2]
        np.testing.assert_array_equal(a_1.coeffs, a_2.coeffs)  # A2 = A1
        np.testing.assert_array_equal(b_1.coeffs, b0(n).coeffs)  # B1 = B0
        assert b_2.is_zero()  # B2 = B3 = 0
        assert chain.stages[3][0].is_zero()

    def test_k4_free_names(self):
        assert chain_free_names(10, 4) == ("A1", "B2")
        chain = build_chain(
            10, 4, {"A1": zero_series(10, "A"), "B2": zero_series(10, "B")}
        )
        # unrolled identifications: B1=B0, A2=A1, B3=B2, A3=A4=0, B4=0
        np.testing.assert_array_equal(chain.stages[1][1].coeffs, b0(10).coeffs)
        np.testing.assert_array_equal(
            chain.stages[2][0].coeffs, chain.stages[1][0].coeffs
        )
        np.testing.assert_array_equal(
            chain.stages[3][1].coeffs, chain.stages[2][1].coeffs
        )
        assert chain.stages[3][0].is_zero()
        assert chain.stages[4][0].is_zero() and chain.stages[4][1].is_zero()

    def test_k5_free_names(self):
        assert chain_free_names(9, 5) == ("A1", "B2", "A3")

    def test_free_count_is_k_minus_2(self):
        for k in range(2, 9):
            assert len(chain_free_names(12, k)) == k - 2

    def test_wrong_free_set_rejected(self):
        with pytest.raises(ContractError):
            build_chain(8, 3, {})
        with pytest.raises(ContractError):
            build_chain(8, 3, {"B2": zero_series(8, "B")})

    def test_wrong_klass_rejected(self):
        with pytest.raises(ContractError):
            build_chain(8, 3, {"A1": zero_series(8, "B")})

    def test_wrong_size_rejected(self):
        with pytest.raises(ContractError):
            build_chain(8, 3, {"A1": zero_series(6, "A")})

    def test_k1_requires_n2(self):
        chain = build_chain(2, 1)
        assert chain.stages[1][0].is_zero() and chain.stages[1][1].is_zero()
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
        assert free["A1"].klass == "A"
        assert all(c.verdict != INFEASIBLE for c in certs.values())
        # the found series really satisfies both constraints on a fine grid
        fine = 10 * default_grid(6)
        assert certify_nonneg([free["A1"], b0(6)], fine).grid_min > -1e-12
        assert certify_nonneg([free["A1"]], fine).grid_min > -1e-12

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
        with pytest.raises(ValueError):
            search_free_series(6, 1)

    def test_infeasible_certificate_gives_none(self, monkeypatch):
        infeasible = FeasibilityCertificate(
            grid_points=1, grid_min=-1.0, lipschitz=0.0, margin=-1.0, verdict=INFEASIBLE
        )
        monkeypatch.setattr(exact, "certify_nonneg", lambda series, grid: infeasible)
        assert search_free_series(6, 3) is None


PARITY_CASES = [(6, 2), (7, 2), (6, 3), (16, 3), (52, 3), (57, 3), (24, 4)]


@functools.lru_cache(maxsize=None)
def dense_reference(n: int, k: int) -> tuple:
    return dense_lp(n, k, default_grid(n))


class TestExchangeSearch:
    @pytest.mark.parametrize("n,k", PARITY_CASES)
    def test_delta_matches_dense_lp(self, n, k):
        delta, _ = exact._max_min_slack(n, k, default_grid(n))
        dense_delta, _ = dense_reference(n, k)
        assert abs(delta - dense_delta) <= 1e-9
        assert (search_free_series(n, k) is not None) == (dense_delta >= 0)

    @pytest.mark.parametrize("n,k", PARITY_CASES)
    def test_fixed_rows_are_the_dense_zero_rows(self, n, k):
        # rows found from the class structure are exactly the rows where
        # every free column of the dense LP vanishes
        _, _, stages = exact._stage_rows(n, k, default_grid(n))
        _, blocks = dense_reference(n, k)
        assert len(stages) == len(blocks) == k - 1
        for (_, _, pinned), block in zip(stages, blocks):
            np.testing.assert_array_equal(pinned, np.all(np.abs(block) < 1e-12, axis=1))

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
        # t <= 1.5 is solved warm and moves the optimum to t = 1.5
        added = []

        def more_rows(x):
            added.append(x.copy())
            return [] if len(added) > 1 else [([1], np.array([[1.0]]), np.array([1.5]))]

        rows = [([0, 1], np.array([[-1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0]))]
        x = exact._maximize_last(2, rows, more_rows)
        np.testing.assert_allclose(added[0], [1.0, 2.0], atol=1e-12)
        assert x[1] == pytest.approx(1.5, abs=1e-12)
        assert x[0] - x[1] >= -1 - 1e-12 and x[0] + x[1] <= 3 + 1e-12

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
        series = CosineSeries(n=6, klass="A", coeffs=[0.5, 0.25, 0.2, 0.25, 0.5])
        save_series({"A1": series}, path)
        loaded = load_series(path)
        assert set(loaded) == {"A"}  # bare object keyed by class
        np.testing.assert_array_equal(loaded["A"].coeffs, series.coeffs)

    def test_multi_series_round_trip(self, tmp_path):
        path = tmp_path / "free.json"
        free = {"A1": zero_series(10, "A"), "B2": zero_series(10, "B")}
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
