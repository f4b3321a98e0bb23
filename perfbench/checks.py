"""Independent references and output checks for the benchmark workloads.

Every reference here is written from the paper's definitions with numpy and
scipy directly: the doubled oracle F_j, the momentum basis
<x|p> = exp(i p x pi / N) / sqrt(2N), the endpoint series A_0 and B_0 and the
matching conditions of the exact-algorithm chain.  Nothing is compared
against a stored copy of the program's output.  Each check function raises
``CheckError`` when an output is wrong; expensive references are cached on
their inputs, so checking the same output of every pass costs one
computation.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
from scipy.fft import dct
from scipy.optimize import linprog

# Greedy success probability after l = 1..6 queries, as published in the
# paper's table.  Cells printed as 1.000 are rounded up, not exact.
PUBLISHED_TABLE = {
    64: (0.2036, 0.6495, 0.9615, 0.9997, 1.000, 1.000),
    256: (0.0788, 0.3886, 0.8221, 0.9907, 0.9999, 1.000),
    1024: (0.0282, 0.2000, 0.5981, 0.9324, 0.9983, 1.000),
    2048: (0.0165, 0.1374, 0.4818, 0.8690, 0.9939, 0.9997),
    4096: (0.0096, 0.0922, 0.3755, 0.7834, 0.9819, 0.9992),
}
TABLE_TOL = 1e-4
SATURATED_FLOOR = 0.9995
# the paper's two-query algorithm exists exactly for N <= 6
K2_LARGEST_N = 6

EXACT_TOL = 1e-9          # success >= 1 - 1e-9 counts as exact
AGREE_TOL = 1e-9          # two simulations of one schedule
POSITIVITY_GRID = 2**18   # intervals on [0, pi] for 1 + A_l + B_l
POSITIVITY_TOL = -1e-9
LP_GRID = 4096            # intervals of the benchmark's own relaxation


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def require(condition: bool, detail: str) -> None:
    if not condition:
        raise CheckError(detail)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def inverse_sine_sum(n: int) -> float:
    """S = (1/N) sum over odd p < 2N of 1 / sin(pi p / 2N)."""
    return math.fsum(1.0 / math.sin(math.pi * p / (2 * n)) for p in range(1, 2 * n, 2)) / n


def oracle_table(n: int, js) -> np.ndarray:
    """F_j(x) for x = 0..2N-1 (columns) and each answer j (rows)."""
    js = np.asarray(js)[:, None]
    x = np.arange(2 * n)[None, :]
    f = np.where(x % n < js, -1.0, 1.0)
    return np.where(x < n, f, -f)


def final_overlap(psi: np.ndarray, n: int, k: int, js) -> np.ndarray:
    """|<target_j|psi_j>|^2 with target (|j> + (-1)^k |j+N>) / sqrt(2)."""
    js = np.asarray(js)
    rows = np.arange(len(js))
    amp = (psi[rows, js] + (-1) ** k * psi[rows, js + n]) / math.sqrt(2)
    return np.abs(amp) ** 2


def parse_schedule(text: str) -> tuple[int, int, np.ndarray]:
    doc = json.loads(text)
    n, k = int(doc["n"]), int(doc["k"])
    stages = np.asarray(doc["stages"], dtype=float)
    require(stages.shape == (k, 2 * n), f"stage array of shape {stages.shape} for n={n}, k={k}")
    return n, k, stages


@functools.lru_cache(maxsize=64)
def fft_success(text: str, js: tuple) -> np.ndarray:
    """Replay a schedule file against F_j for the given answers with FFTs."""
    n, k, stages = parse_schedule(text)
    signs = oracle_table(n, js)
    psi = np.full((len(js), 2 * n), 1 / math.sqrt(2 * n), dtype=complex)
    for alpha in stages:
        psi = np.fft.ifft(np.exp(1j * alpha) * np.fft.fft(signs * psi, axis=1), axis=1)
    return final_overlap(psi, n, k, js)


@functools.lru_cache(maxsize=16)
def dense_success(text: str) -> np.ndarray:
    """Success probability of a schedule file for every answer j, from dense
    2N x 2N stage unitaries W^dagger diag(exp(i alpha)) W in the position basis."""
    n, k, stages = parse_schedule(text)
    x = np.arange(2 * n)
    w = np.exp(-1j * np.pi * np.outer(x, x) / n) / math.sqrt(2 * n)  # <p|x>
    js = np.arange(n)
    signs = oracle_table(n, js)
    psi = np.full((n, 2 * n), 1 / math.sqrt(2 * n), dtype=complex)
    for alpha in stages:
        stage = w.conj().T @ (np.exp(1j * alpha)[:, None] * w)
        psi = (signs * psi) @ stage.T
    return final_overlap(psi, n, k, js)


def b0_coeffs(n: int) -> np.ndarray:
    """B_0 = sum_r (1 - 2r/N) cos(r theta), r = 1..N-1."""
    return 1.0 - 2.0 * np.arange(1, n) / n


def one_plus_on_grid(coeffs: np.ndarray, grid: int = POSITIVITY_GRID) -> np.ndarray:
    """1 + sum_r c_r cos(r theta) at theta = pi i / grid, i = 0..grid, by a DCT-I."""
    x = np.zeros(grid + 1)
    x[1: len(coeffs) + 1] = np.asarray(coeffs) / 2
    return 1.0 + dct(x, type=1)


@functools.lru_cache(maxsize=None)
def min_one_plus_b0(n: int) -> float:
    return float(one_plus_on_grid(b0_coeffs(n)).min())


def free_names(k: int) -> list[str]:
    """Free series of the k-query chain.

    Stage l >= 1 copies one series from stage l - 1 (B_l = B_{l-1} for odd l,
    A_l = A_{l-1} for even l) and brings one new one.  A_k = B_k = 0 makes
    the new series of stages k and k - 1 zero; those of stages 1..k-2 are free.
    """
    return [f"A{ell}" if ell % 2 else f"B{ell}" for ell in range(1, k - 1)]


def chain(n: int, k: int) -> list[tuple]:
    """(A_l, B_l) for l = 1..k-1: a coefficient array or a free series name."""
    names = free_names(k)
    a, b = np.ones(n - 1), b0_coeffs(n)
    stages = []
    for ell in range(1, k):
        new = f"A{ell}" if ell % 2 else f"B{ell}"
        new = new if new in names else np.zeros(n - 1)
        if ell % 2:
            a = new
        else:
            b = new
        stages.append((a, b))
    return stages


def stage_sums(n: int, k: int, free: dict) -> list[np.ndarray]:
    """Coefficients of A_l + B_l for l = 1..k-1, with the free series filled in."""
    return [
        sum(free[part] if isinstance(part, str) else part for part in pair)
        for pair in chain(n, k)
    ]


def class_embedding(n: int, klass: str) -> np.ndarray:
    """Columns map free parameters to coefficients c_1..c_{N-1} with
    c_r = c_{N-r} (class A) or c_r = -c_{N-r} (class B)."""
    sign = 1.0 if klass == "A" else -1.0
    top = n // 2 if klass == "A" else (n + 1) // 2 - 1
    embed = np.zeros((n - 1, top))
    for i, r in enumerate(range(1, top + 1)):
        embed[r - 1, i] = 1.0
        embed[n - r - 1, i] += sign if n - r != r else 0.0
    return embed


@functools.lru_cache(maxsize=None)
def best_slack(n: int, k: int) -> float:
    """max delta with 1 + A_l + B_l >= delta at LP_GRID midpoint angles.

    A finite set of angles relaxes the problem on [0, pi], so delta* < 0
    proves that no free series makes every stage nonnegative.
    """
    names = free_names(k)
    theta = np.pi * (np.arange(LP_GRID) + 0.5) / LP_GRID
    cos = np.cos(np.outer(theta, np.arange(1, n)))
    columns = {name: cos @ class_embedding(n, name[0]) for name in names}
    offsets = np.cumsum([0] + [columns[name].shape[1] for name in names])
    width = int(offsets[-1])
    rows, rhs = [], []
    for pair in chain(n, k):
        block = np.zeros((LP_GRID, width + 1))
        block[:, -1] = 1.0
        fixed = np.ones(LP_GRID)
        for part in pair:
            if isinstance(part, str):
                i = names.index(part)
                block[:, offsets[i]: offsets[i + 1]] = -columns[part]
            else:
                fixed += cos @ part
        rows.append(block)
        rhs.append(fixed)
    cost = np.zeros(width + 1)
    cost[-1] = -1.0
    result = linprog(
        cost,
        A_ub=np.vstack(rows),
        b_ub=np.concatenate(rhs),
        bounds=[(None, None)] * width + [(None, 1.0)],
        method="highs",
    )
    require(result.status == 0, f"reference LP at ({n},{k}) failed: {result.message}")
    return float(result.x[-1])


def series_coeffs(doc: dict, n: int, name: str) -> np.ndarray:
    """Coefficients of one series document, after checking its size and class."""
    coeffs = np.asarray(doc["coeffs"], dtype=float)
    require(int(doc["n"]) == n and coeffs.shape == (n - 1,), f"{name}: wrong size")
    require(doc["klass"] == name[0], f"{name}: class {doc['klass']!r}, expected {name[0]!r}")
    mirror = coeffs[::-1] if name[0] == "A" else -coeffs[::-1]
    scale = max(1.0, float(np.abs(coeffs).max()))
    require(np.abs(coeffs - mirror).max() <= 1e-12 * scale, f"{name}: breaks class-{name[0]} symmetry")
    return coeffs


@functools.lru_cache(maxsize=64)
def _found_series_minima(text: str, n: int, k: int) -> tuple:
    """min over the positivity grid of 1 + A_l + B_l, l = 1..k-1, for the
    free series of a JSON map from name to series document."""
    docs = json.loads(text)
    free = {name: series_coeffs(docs[name], n, name) for name in free_names(k)}
    return tuple(float(one_plus_on_grid(c).min()) for c in stage_sums(n, k, free))


# ---------------------------------------------------------------------------
# greedy-table
# ---------------------------------------------------------------------------

def greedy_table(results: dict, n: int) -> None:
    """Every cell of the published table, to 1e-4 (cells printed 1.000: >= 0.9995)."""
    probs = results["probs"]
    for ell, published in enumerate(PUBLISHED_TABLE[n], start=1):
        if published == 1.0:
            require(probs[ell] >= SATURATED_FLOOR, f"N={n} l={ell}: {probs[ell]} < {SATURATED_FLOOR}")
        else:
            require(abs(probs[ell] - published) <= TABLE_TOL, f"N={n} l={ell}: {probs[ell]} vs {published}")


def greedy_one_query(results: dict, n: int) -> None:
    """probs[1] = (sum over odd p of 1/sin(pi p/2N))^2 / N^3."""
    expected = (n * inverse_sine_sum(n)) ** 2 / n**3
    got = results["probs"][1]
    require(abs(got - expected) <= 1e-12 + 1e-9 * expected, f"N={n}: probs[1]={got}, expected {expected}")


def greedy_under_bound(results: dict, n: int) -> None:
    """probs[l] <= (S^l / sqrt(N))^2 and the classical column is 2^l / N."""
    s = inverse_sine_sum(n)
    for ell, prob in enumerate(results["probs"]):
        bound = s ** (2 * ell) / n
        require(prob <= bound * (1 + 1e-9), f"N={n} l={ell}: {prob} above the overlap bound {bound}")
    classical = [2.0**ell / n for ell in range(len(results["probs"]))]
    require(np.allclose(results["classical"], classical, rtol=1e-12, atol=0), f"N={n}: classical column")


def greedy_replay(results: dict, schedule_text: str, n: int, k: int, js: tuple) -> None:
    """The emitted schedule gives probs[k] for every replayed answer j."""
    sn, sk, _ = parse_schedule(schedule_text)
    require((sn, sk) == (n, k), f"schedule is for ({sn},{sk}), expected ({n},{k})")
    got = fft_success(schedule_text, js)
    want = results["probs"][k]
    worst = float(np.abs(got - want).max())
    require(worst <= AGREE_TOL, f"N={n}: replayed success differs from probs[{k}] by {worst:.3e}")


def bound_report(results: dict, n: int) -> None:
    """Overlap bound S^l / sqrt(N) and the smallest l with bound^2 >= 1."""
    s = inverse_sine_sum(n)
    require(abs(results["harmonic_exact"] - s) <= 1e-12 * s, f"N={n}: S={results['harmonic_exact']}, expected {s}")
    per_ell = np.asarray(results["per_ell"])
    expected = s ** np.arange(per_ell.size) / math.sqrt(n)
    require(np.allclose(per_ell, expected, rtol=1e-12, atol=0), f"N={n}: per-stage bounds")
    k_min = next(ell for ell in range(1, 10**6) if s ** (2 * ell) / n >= 1)
    require(results["min_queries"] == k_min, f"N={n}: min_queries {results['min_queries']}, expected {k_min}")


# ---------------------------------------------------------------------------
# exact-search
# ---------------------------------------------------------------------------

def search_classes(results: dict, n: int, k: int) -> None:
    """A found chain names exactly the free series, each of its own class."""
    if not results["found"]:
        require("free" not in results, "not-found report carries free series")
        return
    free = results["free"]
    require(sorted(free) == sorted(free_names(k)), f"free series {sorted(free)}, expected {free_names(k)}")
    for name, doc in free.items():
        series_coeffs(doc, n, name)


def search_verdict(rc: int, results: dict, n: int, k: int) -> None:
    """Found: every stage 1 + A_l + B_l >= -1e-9 on 2^18 intervals.
    Not found: the benchmark's own relaxation has delta* < 0."""
    if results["found"]:
        require(rc == 0, f"({n},{k}) found with exit code {rc}")
        minima = _found_series_minima(json.dumps(results["free"], sort_keys=True), n, k)
        worst = min(minima)
        require(worst >= POSITIVITY_TOL, f"({n},{k}) stage minimum {worst:.3e} is negative")
    else:
        require(rc == 2, f"({n},{k}) not found with exit code {rc}")
        delta = best_slack(n, k)
        require(delta < 0, f"({n},{k}) reported not found, but the relaxation has delta*={delta:.3e}")


def k2_verdicts(rc: int, results: dict) -> None:
    """Infeasible comes with a negative 1 + B_0; feasible with none on the grid."""
    flags = results["feasible"]
    require(len(flags) == len(results["n"]), "one verdict per N")
    for n, flag in zip(results["n"], flags):
        low = min_one_plus_b0(n)
        if flag:
            require(low >= POSITIVITY_TOL, f"N={n} feasible, but 1 + B_0 reaches {low:.3e}")
        else:
            require(low < POSITIVITY_TOL, f"N={n} infeasible, but 1 + B_0 >= {low:.3e}")
    require(rc == (0 if any(flags) else 2), f"exit code {rc} for verdicts {flags}")


def k2_paper_boundary(results: dict) -> None:
    """The paper's boundary: two queries suffice exactly for N <= 6."""
    for n, flag in zip(results["n"], results["feasible"]):
        require(flag == (n <= K2_LARGEST_N), f"N={n}: feasible={flag}")


# ---------------------------------------------------------------------------
# synth-compose
# ---------------------------------------------------------------------------

def synth_report(rc: int, results: dict, schedule_text: str) -> None:
    """exact synth reports an exact schedule and the per-j success the
    benchmark's dense simulation gives for the file it wrote."""
    require(rc == 0 and results["exact"] is True, f"synth exit {rc}, exact={results.get('exact')}")
    own = dense_success(schedule_text)
    got = np.asarray(results["success_probs"])
    require(got.shape == own.shape, f"{got.size} success values for N={own.size}")
    worst = float(np.abs(got - own).max())
    require(worst <= AGREE_TOL, f"synth success differs from the dense simulation by {worst:.3e}")


def schedule_exact(schedule_text: str, n: int, k: int) -> None:
    """Dense simulation: success >= 1 - 1e-9 for every answer j."""
    sn, sk, _ = parse_schedule(schedule_text)
    require((sn, sk) == (n, k), f"schedule is for ({sn},{sk}), expected ({n},{k})")
    worst = float(dense_success(schedule_text).min())
    require(worst >= 1 - EXACT_TOL, f"({n},{k}) success {worst!r} below 1 - {EXACT_TOL}")


def verify_agrees(results: dict, schedule_text: str) -> None:
    """verify's per-j success equals the dense simulation to 1e-9."""
    own = dense_success(schedule_text)
    got = np.asarray(results["success_probs"])
    require(got.shape == own.shape, f"{got.size} success values for N={own.size}")
    worst = float(np.abs(got - own).max())
    require(worst <= AGREE_TOL, f"verify differs from the dense simulation by {worst:.3e}")
    require(results["min_success_prob"] == min(results["success_probs"]), "min_success_prob")


def compose_runs(rc: int, results: dict, m: int, k: int, h: int) -> None:
    """Every answer 0..M^h-1 is found, each with exactly h k queries."""
    runs = results["runs"]
    require(rc == 0 and results["all_recovered"] is True, f"compose exit {rc}")
    require(sorted(r["hidden_j"] for r in runs) == list(range(m**h)), "hidden answers are not 0..M^h-1")
    for run in runs:
        require(run["found_j"] == run["hidden_j"], f"hidden {run['hidden_j']} found as {run['found_j']}")
        require(run["queries_used"] == h * k, f"hidden {run['hidden_j']} used {run['queries_used']} queries")


def free_series_file(text: str, n: int, k: int) -> None:
    """A fixed free-series input: right classes, every stage nonnegative."""
    docs = json.loads(text)
    names = free_names(k)
    if "coeffs" in docs:  # a single series is stored bare
        require(len(names) == 1, "a bare series for a chain with several free slots")
        docs = {names[0]: docs}
    require(sorted(docs) == sorted(names), f"series {sorted(docs)}, expected {names}")
    worst = min(_found_series_minima(json.dumps(docs, sort_keys=True), n, k))
    require(worst >= POSITIVITY_TOL, f"({n},{k}) input series stage minimum {worst:.3e}")
