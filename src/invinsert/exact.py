"""Cosine-series feasibility layer for exact k-query algorithms.

An exact k-query algorithm exists iff a chain of trigonometric series
A_0, B_0, ..., A_k, B_k exists where each A is symmetric (a_r = a_{N-r}),
each B antisymmetric (b_r = -b_{N-r}), the endpoints are fixed

    A_0 = sum_r cos(r theta),   B_0 = sum_r (1 - 2r/N) cos(r theta),
    A_k = B_k = 0,

the interleaved matching conditions B_1 = B_0, A_2 = A_1, B_3 = B_2, ...
hold, and 1 + A_l + B_l >= 0 on [0, pi] for every stage.  For k = 2 nothing
is free and feasibility reduces to 1 + B_0 >= 0; for k >= 3 there are k - 2
free series, searched here with a maximize-minimum-slack linear program on a
theta grid followed by a Lipschitz grid certificate.  Every fixed series is
evaluated on the grid by one real FFT (``grid_values``).

Sine-sector coefficients are identically zero throughout: the endpoints have
none and dropping them loses no generality.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import ContractError, SchemaError

KLASS_A = "A"  # symmetric: vanishes where exp(i N theta) = -1
KLASS_B = "B"  # antisymmetric: vanishes where exp(i N theta) = +1

CERTIFIED_POSITIVE = "certified_positive"
NUMERICALLY_NONNEGATIVE = "numerically_nonnegative"
INFEASIBLE = "infeasible"

INFEASIBILITY_TOL = -1e-9


def default_grid(n: int) -> int:
    """Default number of grid intervals on [0, pi] for certification and LP."""
    return max(4096, 64 * n)


@dataclass(frozen=True)
class CosineSeries:
    """Coefficients c_1..c_{N-1} of sum_r c_r cos(r theta), with a symmetry class."""

    n: int
    klass: str
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"problem size must be >= 2, got {self.n}")
        if self.klass not in (KLASS_A, KLASS_B):
            raise ValueError(f"unknown series class {self.klass!r}")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.n - 1,):
            raise ValueError(
                f"expected {self.n - 1} coefficients, got shape {coeffs.shape}"
            )
        mirror = coeffs[::-1]
        expected = mirror if self.klass == KLASS_A else -mirror
        if np.max(np.abs(coeffs - expected)) > 1e-12:
            raise ContractError(
                f"coefficients violate class-{self.klass} symmetry"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    def to_dict(self) -> dict:
        return {"n": self.n, "klass": self.klass, "coeffs": self.coeffs.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "CosineSeries":
        if not isinstance(data, dict):
            raise SchemaError("series document must be a JSON object")
        missing = {"n", "klass", "coeffs"} - set(data)
        if missing:
            raise SchemaError(f"series document missing fields {sorted(missing)}")
        try:
            n = int(data["n"])
            klass = str(data["klass"])
            coeffs = np.asarray(data["coeffs"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed series document: {exc}") from exc
        try:
            return cls(n=n, klass=klass, coeffs=coeffs)
        except (ValueError, ContractError) as exc:
            raise SchemaError(str(exc)) from exc


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Grid evidence for nonnegativity of 1 + (sum of series) on [0, pi]."""

    grid_points: int
    grid_min: float
    lipschitz: float
    margin: float
    verdict: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class MatchingChain:
    """Fully resolved series chain (A_0, B_0), ..., (A_k, B_k)."""

    n: int
    k: int
    stages: tuple  # tuple of (CosineSeries, CosineSeries)
    free_names: tuple


def zero_series(n: int, klass: str) -> CosineSeries:
    return CosineSeries(n=n, klass=klass, coeffs=np.zeros(n - 1))


def a0(n: int) -> CosineSeries:
    """Fixed symmetric endpoint: every coefficient 1."""
    if n < 2:
        raise ValueError(f"problem size must be >= 2, got {n}")
    return CosineSeries(n=n, klass=KLASS_A, coeffs=np.ones(n - 1))


def b0(n: int) -> CosineSeries:
    """Fixed antisymmetric endpoint: coefficient of cos(r theta) is 1 - 2r/N."""
    if n < 2:
        raise ValueError(f"problem size must be >= 2, got {n}")
    coeffs = np.zeros(n - 1)
    for r in range(1, n // 2 + 1):
        value = 1.0 - 2.0 * r / n
        coeffs[r - 1] = value
        coeffs[n - r - 1] = -value  # exact antisymmetry by construction
    return CosineSeries(n=n, klass=KLASS_B, coeffs=coeffs)


def eval_series(series: CosineSeries, theta) -> np.ndarray | float:
    """Evaluate sum_r c_r cos(r theta) at a scalar or array of angles."""
    th = np.asarray(theta, dtype=float)
    r = np.arange(1, series.n)
    values = np.cos(th[..., None] * r) @ series.coeffs
    return float(values) if np.isscalar(theta) else values


def grid_values(coeffs: np.ndarray, grid_points: int) -> np.ndarray:
    """sum_r c_r cos(r pi m / G) for m = 0..G, where coeffs[r - 1] = c_r: the
    real part of the length-2G real FFT of the zero-padded coefficients."""
    if len(coeffs) >= 2 * grid_points:  # the FFT would fold high harmonics
        raise ValueError(f"{grid_points} grid intervals fold {len(coeffs)} harmonics")
    return np.fft.rfft(np.concatenate([[0.0], coeffs]), 2 * grid_points).real


def certify_nonneg(
    one_plus: Sequence[CosineSeries], grid_points: int
) -> FeasibilityCertificate:
    """Grid-plus-Lipschitz certificate for f = 1 + sum of series on [0, pi].

    Evaluates f on grid_points + 1 equally spaced angles (spacing
    h = pi / grid_points), bounds |f'| by L = sum over series of
    sum_r r |c_r|, and certifies positivity when grid_min - L h / 2 >= 0.
    A grid minimum below -1e-9 is reported infeasible; anything between is
    numerically nonnegative but uncertified.

    Requires grid_points >= 8N so the grid resolves every harmonic.
    """
    one_plus = list(one_plus)
    if one_plus:
        n = one_plus[0].n
        if any(s.n != n for s in one_plus):
            raise ValueError("all series must share the same problem size")
        if grid_points < 8 * n:
            raise ValueError(f"need at least {8 * n} grid intervals, got {grid_points}")
    elif grid_points < 1:
        raise ValueError("grid_points must be positive")
    f = np.ones(grid_points + 1)
    lipschitz = 0.0
    for series in one_plus:
        f += grid_values(series.coeffs, grid_points)
        r = np.arange(1, series.n)
        lipschitz += float(np.sum(r * np.abs(series.coeffs)))
    grid_min = float(f.min())
    margin = grid_min - lipschitz * (np.pi / grid_points) / 2
    if margin >= 0:
        verdict = CERTIFIED_POSITIVE
    elif grid_min < INFEASIBILITY_TOL:
        verdict = INFEASIBLE
    else:
        verdict = NUMERICALLY_NONNEGATIVE
    return FeasibilityCertificate(
        grid_points=grid_points,
        grid_min=grid_min,
        lipschitz=lipschitz,
        margin=margin,
        verdict=verdict,
    )


def k2_feasible(
    n: int, grid_points: Optional[int] = None
) -> tuple[bool, FeasibilityCertificate]:
    """Two-query feasibility: is 1 + B_0 >= 0 on [0, pi]?"""
    grid = default_grid(n) if grid_points is None else grid_points
    cert = certify_nonneg([b0(n)], grid)
    return cert.verdict != INFEASIBLE, cert


def k1_feasible(n: int) -> bool:
    """Single-query feasibility: B_0 must vanish identically, which forces N = 2."""
    return b0(n).is_zero()


# ---------------------------------------------------------------------------
# matching-condition chain
# ---------------------------------------------------------------------------

def _chain_structure(n: int, k: int) -> tuple[dict, list]:
    """Resolve every A_l / B_l to 'fixed', 'zero', or a free name.

    The matching conditions pair A_{2m} with A_{2m-1} and B_{2m+1} with
    B_{2m}; combined with A_k = B_k = 0 this leaves exactly k - 2 free
    series for k >= 2 (none for k <= 2).
    """
    if k < 1:
        raise ValueError(f"query count must be >= 1, got {k}")
    resolved: dict[str, tuple] = {"A0": ("fixed", a0(n)), "B0": ("fixed", b0(n))}
    free_names: list[str] = []
    for ell in range(1, k + 1):
        if ell % 2 == 0:
            resolved[f"A{ell}"] = ("alias", f"A{ell - 1}")
        elif ell == k or ell == k - 1:
            resolved[f"A{ell}"] = ("zero", KLASS_A)
        else:
            resolved[f"A{ell}"] = ("free", KLASS_A)
            free_names.append(f"A{ell}")
        if ell % 2 == 1:
            resolved[f"B{ell}"] = ("alias", f"B{ell - 1}")
        elif ell == k or ell == k - 1:
            resolved[f"B{ell}"] = ("zero", KLASS_B)
        else:
            resolved[f"B{ell}"] = ("free", KLASS_B)
            free_names.append(f"B{ell}")
    return resolved, free_names


def _resolve(resolved: dict, name: str) -> tuple:
    kind, payload = resolved[name]
    while kind == "alias":
        name = payload
        kind, payload = resolved[name]
    return name, kind, payload


def chain_free_names(n: int, k: int) -> tuple[str, ...]:
    """Names of the independently choosable series for a (n, k) chain."""
    return tuple(_chain_structure(n, k)[1])


def build_chain(
    n: int, k: int, free: Optional[Mapping[str, CosineSeries]] = None
) -> MatchingChain:
    """Materialize the chain from the k - 2 free series.

    The free map must supply exactly the names reported by
    :func:`chain_free_names`, each of the right class and size.  For k = 1
    the chain forces B_0 = 0, so it only exists for N = 2.
    """
    free = dict(free or {})
    resolved, free_names = _chain_structure(n, k)
    if set(free) != set(free_names):
        raise ContractError(
            f"free series must be exactly {sorted(free_names)}, got {sorted(free)}"
        )
    for name, series in free.items():
        _, _, klass = _resolve(resolved, name)
        if not isinstance(series, CosineSeries):
            raise ContractError(f"{name} must be a CosineSeries")
        if series.n != n:
            raise ContractError(f"{name} has problem size {series.n}, expected {n}")
        if series.klass != klass:
            raise ContractError(f"{name} must be class {klass}, got {series.klass}")
    if k == 1 and not b0(n).is_zero():
        raise ContractError(
            "a single-query chain needs B_0 = 0, which only holds for N = 2"
        )

    def materialize(name: str) -> CosineSeries:
        root, kind, payload = _resolve(resolved, name)
        if kind == "fixed":
            return payload
        if kind == "zero":
            return zero_series(n, payload)
        return free[root]

    stages = tuple(
        (materialize(f"A{ell}"), materialize(f"B{ell}")) for ell in range(k + 1)
    )
    return MatchingChain(n=n, k=k, stages=stages, free_names=tuple(free_names))


def chain_constraints(chain: MatchingChain) -> dict[int, list[CosineSeries]]:
    """The nontrivial positivity constraints: stage l -> series of 1 + A_l + B_l.

    Stage 0 holds identically (it is a squared magnitude) and stage k is
    1 >= 0, so only l = 1..k-1 is returned.
    """
    out = {}
    for ell in range(1, chain.k):
        a, b = chain.stages[ell]
        out[ell] = [s for s in (a, b) if not s.is_zero()]
    return out


# ---------------------------------------------------------------------------
# free-series search (maximize minimum slack over a theta grid)
# ---------------------------------------------------------------------------

def _symmetric_basis(n: int, klass: str, thetas: np.ndarray) -> tuple[np.ndarray, list]:
    """Columns of basis functions respecting the class symmetry.

    Class A uses r = 1..floor(N/2) with c_r = c_{N-r}; class B uses
    r = 1..ceil(N/2)-1 with c_r = -c_{N-r} (the middle coefficient is pinned
    to 0 for even N).
    """
    if klass == KLASS_A:
        rs = list(range(1, n // 2 + 1))
        sign = 1.0
    else:
        rs = list(range(1, (n + 1) // 2))
        sign = -1.0
    cols = np.zeros((thetas.size, len(rs)))
    for i, r in enumerate(rs):
        cols[:, i] = np.cos(r * thetas)
        if n - r != r:
            cols[:, i] += sign * np.cos((n - r) * thetas)
    return cols, rs


def _series_from_params(n: int, klass: str, rs: list, x: np.ndarray) -> CosineSeries:
    coeffs = np.zeros(n - 1)
    sign = 1.0 if klass == KLASS_A else -1.0
    for r, value in zip(rs, x):
        coeffs[r - 1] = value
        if n - r != r:
            coeffs[n - r - 1] = sign * value
    return CosineSeries(n=n, klass=klass, coeffs=coeffs)


def search_free_series(
    n: int, k: int, grid_points: Optional[int] = None
) -> Optional[tuple[dict, dict]]:
    """Search the free series making every stage constraint nonnegative.

    Solves  max delta  s.t.  1 + A_l(theta_i) + B_l(theta_i) >= delta  over
    all stages l = 1..k-1 and all grid angles, as a linear program in the
    symmetric free coefficients.  A grid optimum delta* < 0 means no free
    choice works on this grid (strong evidence, not proof, of infeasibility)
    and None is returned.  Otherwise each stage of the found chain gets a
    :func:`certify_nonneg` certificate on the same grid, and None is
    returned if one of them is infeasible.

    Returns (free series by name, certificate by stage) or None.
    """
    if k < 2:
        raise ValueError(f"search needs k >= 2, got {k}")
    grid = default_grid(n) if grid_points is None else grid_points
    resolved, free_names = _chain_structure(n, k)

    thetas = np.linspace(0.0, np.pi, grid + 1)
    bases = {}
    offsets = {}
    width = 0
    for name in free_names:
        _, _, klass = _resolve(resolved, name)
        cols, rs = _symmetric_basis(n, klass, thetas)
        bases[name] = (cols, rs)
        offsets[name] = width
        width += len(rs)

    rows = []
    rhs = []
    for ell in range(1, k):
        fixed = np.ones(thetas.size)
        block = np.zeros((thetas.size, width + 1))
        block[:, -1] = 1.0  # the slack variable delta
        for prefix in ("A", "B"):
            root, kind, payload = _resolve(resolved, f"{prefix}{ell}")
            if kind == "fixed":
                fixed += grid_values(payload.coeffs, grid)
            elif kind == "free":
                cols, _ = bases[root]
                off = offsets[root]
                block[:, off: off + cols.shape[1]] = -cols
        rows.append(block)
        rhs.append(fixed)
    cost = np.zeros(width + 1)
    cost[-1] = -1.0
    result = linprog(
        cost,
        A_ub=np.vstack(rows),
        b_ub=np.concatenate(rhs),
        bounds=[(None, None)] * (width + 1),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP solver failed: {result.message}")
    if result.x[-1] < 0:
        return None

    free = {}
    for name in free_names:
        _, _, klass = _resolve(resolved, name)
        _, rs = bases[name]
        off = offsets[name]
        free[name] = _series_from_params(n, klass, rs, result.x[off: off + len(rs)])
    certificates = {
        ell: certify_nonneg(series_list, grid)
        for ell, series_list in chain_constraints(build_chain(n, k, free)).items()
    }
    if any(c.verdict == INFEASIBLE for c in certificates.values()):
        return None
    return free, certificates


# ---------------------------------------------------------------------------
# series file IO
# ---------------------------------------------------------------------------

def save_series(series_by_name: Mapping[str, CosineSeries], path) -> None:
    """Write free series to JSON: a bare series object when there is exactly
    one, otherwise a name-keyed map of series objects."""
    items = dict(series_by_name)
    if len(items) == 1:
        payload = next(iter(items.values())).to_dict()
    else:
        payload = {name: s.to_dict() for name, s in items.items()}
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_series(path) -> dict[str, CosineSeries]:
    """Read a series file; bare objects come back under their class letter
    (resolved against the chain by the caller), keyed maps verbatim."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: series document must be a JSON object")
    if "coeffs" in data:
        series = CosineSeries.from_dict(data)
        return {series.klass: series}
    return {name: CosineSeries.from_dict(doc) for name, doc in data.items()}
