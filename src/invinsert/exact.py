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
theta grid followed by a Lipschitz grid certificate.  Every series is
evaluated on the grid by one real FFT (``grid_values``).

The LP is never written out over the whole grid.  Where every free series
of a stage vanishes (N theta an odd multiple of pi for class A, an even one
for class B) the row does not depend on the free coefficients, so those
rows leave the LP and their least value caps the slack; the cap is the same
for every choice of coefficients, so min(cap, optimum of the rest) is the
full LP's optimum.  The rest is solved by exchange on HiGHS: start from
N + 1 angles per stage, evaluate every stage on the full grid after each
solve, add the violated local minima as rows and re-solve warm, and stop
when no angle outside the LP is violated.

Sine-sector coefficients are identically zero throughout: the endpoints have
none and dropping them loses no generality.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from .errors import ContractError, SchemaError, SolverError

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
        n = SchemaError.require_int(data, "n", "series")
        try:
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

def _basis_orders(n: int, klass: str) -> tuple[np.ndarray, float]:
    """Free orders r and mirror sign of a class: class A uses r = 1..floor(N/2)
    with c_r = c_{N-r}; class B uses r = 1..ceil(N/2)-1 with c_r = -c_{N-r}
    (the middle coefficient is pinned to 0 for even N)."""
    if klass == KLASS_A:
        return np.arange(1, n // 2 + 1), 1.0
    return np.arange(1, (n + 1) // 2), -1.0


def _symmetric_basis(n: int, klass: str, thetas: np.ndarray) -> np.ndarray:
    """Basis columns cos(r theta) +/- cos((N - r) theta) at the given angles."""
    rs, sign = _basis_orders(n, klass)
    cols = np.cos(np.multiply.outer(thetas, rs))
    mirror = rs != n - rs
    cols[:, mirror] += sign * np.cos(np.multiply.outer(thetas, n - rs[mirror]))
    return cols


def _pinned(n: int, klass: str, grid: int) -> np.ndarray:
    """Mask of the grid angles theta_i = pi i / G where every class-`klass`
    series vanishes: N theta an odd (A) or even (B) multiple of pi, since
    the basis columns factor as 2 cos(N theta / 2) cos((N/2 - r) theta) (A)
    and 2 sin(N theta / 2) sin((N/2 - r) theta) (B).  A class with no free
    orders (class B at N = 2) vanishes everywhere."""
    if not len(_basis_orders(n, klass)[0]):
        return np.ones(grid + 1, dtype=bool)
    multiple, rest = np.divmod(n * np.arange(grid + 1), grid)
    return (rest == 0) & (multiple % 2 == (1 if klass == KLASS_A else 0))


def _series_from_params(n: int, klass: str, x: np.ndarray) -> CosineSeries:
    rs, sign = _basis_orders(n, klass)
    coeffs = np.zeros(n - 1)
    coeffs[n - rs - 1] = sign * x
    coeffs[rs - 1] = x  # the middle order of class A keeps +x
    return CosineSeries(n=n, klass=klass, coeffs=coeffs)


def _maximize_last(n_vars: int, rows: list, more_rows) -> np.ndarray:
    """Maximize the last of n_vars free variables subject to rows, then add
    more_rows(x) and re-solve warm from the last basis until it adds none.

    A row batch (columns, block, upper) stands for
    block[i] @ var[columns] <= upper[i].  Every call into scipy's private
    HiGHS binding is made here, so a change to that binding fails here.
    Raises SolverError unless every solve ends optimal.
    """
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.addVars(n_vars, np.full(n_vars, -np.inf), np.full(n_vars, np.inf))
    highs.changeColsCost(1, np.array([n_vars - 1], dtype=np.int32), np.array([-1.0]))
    while rows:
        for columns, block, upper in rows:
            m, w = block.shape
            highs.addRows(
                m, np.full(m, -np.inf), upper, m * w,
                np.arange(0, m * w, w, dtype=np.int32),
                np.tile(np.asarray(columns, dtype=np.int32), m),
                np.ascontiguousarray(block).ravel(),
            )
        highs.run()
        status = highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise SolverError(
                f"exact search: LP ended {highs.modelStatusToString(status)!r}, not optimal"
            )
        x = np.array(highs.getSolution().col_value)
        rows = more_rows(x)
    return x


def _stage_rows(n: int, k: int, grid: int) -> tuple[dict, dict, list]:
    """The grid LP's layout: each free series' class and indices among the LP
    variables (delta comes last), and per stage l = 1..k-1 its fixed values
    on the grid, its free series and its mask of x-independent rows."""
    resolved, free_names = _chain_structure(n, k)
    klass = {name: _resolve(resolved, name)[2] for name in free_names}
    params, width = {}, 0
    for name in free_names:
        size = len(_basis_orders(n, klass[name])[0])
        params[name] = np.arange(width, width + size)
        width += size
    stages = []
    for ell in range(1, k):
        fixed = np.ones(grid + 1)
        names = []
        for prefix in ("A", "B"):
            root, kind, payload = _resolve(resolved, f"{prefix}{ell}")
            if kind == "fixed":
                fixed += grid_values(payload.coeffs, grid)
            elif kind == "free":
                names.append(root)
        pinned = np.ones(grid + 1, dtype=bool)
        for name in names:
            pinned &= _pinned(n, klass[name], grid)
        stages.append((fixed, names, pinned))
    return klass, params, stages


def _max_min_slack(n: int, k: int, grid: int) -> tuple[float, dict]:
    """delta* of the grid LP and free series that reach it (see
    :func:`search_free_series`)."""
    klass, params, stages = _stage_rows(n, k, grid)
    width = sum(len(p) for p in params.values())
    thetas = np.pi * np.arange(grid + 1) / grid
    active = [np.zeros(grid + 1, dtype=bool) for _ in stages]

    def free_series(x: np.ndarray) -> dict:
        return {name: _series_from_params(n, klass[name], x[p]) for name, p in params.items()}

    def activate(indices: list) -> list:
        """Mark the angles of each stage active and build their row batches."""
        batches = []
        for (fixed, names, _), idx, used in zip(stages, indices, active):
            if len(idx):
                used[idx] = True
                columns = np.concatenate([params[name] for name in names] + [[width]])
                block = np.hstack(
                    [-_symmetric_basis(n, klass[name], thetas[idx]) for name in names]
                    + [np.ones((len(idx), 1))]
                )
                batches.append((columns, block, fixed[idx]))
        return batches

    def violated_rows(x: np.ndarray) -> list:
        free = free_series(x)
        indices = []
        for (fixed, names, pinned), used in zip(stages, active):
            coeffs = sum((free[name].coeffs for name in names), np.zeros(n - 1))
            slack = fixed - x[-1] + grid_values(coeffs, grid)
            slack[pinned | used] = np.inf
            low = slack < -1e-9
            padded = np.r_[np.inf, slack, np.inf]
            minima = low & (slack <= padded[:-2]) & (slack <= padded[2:])
            indices.append(np.flatnonzero(minima if minima.any() else low))
        return activate(indices)

    cap = min((f[p].min() for f, _, p in stages if p.any()), default=np.inf)
    # N + 1 angles spread evenly over [0, pi] (to the nearest grid angle): on
    # an even spread the trapezoid rule integrates every free series to 0, so
    # no choice of coefficients raises every row and delta is bounded
    start = grid * np.arange(n + 1) // n
    first = activate([start[~pinned[start]] for _, _, pinned in stages])
    x = _maximize_last(width + 1, first, violated_rows) if first else np.r_[np.zeros(width), cap]
    return float(min(cap, x[-1])), free_series(x)


def search_free_series(
    n: int, k: int, grid_points: Optional[int] = None
) -> Optional[tuple[dict, dict]]:
    """Search the free series making every stage constraint nonnegative.

    The grid LP is  max delta  s.t.  1 + A_l(theta_i) + B_l(theta_i) >= delta
    for every stage l = 1..k-1 and grid angle theta_i = pi i / G, in the
    symmetric free coefficients.  Its optimum delta* is found without
    building the (grid x width) matrix:

    * Rows where every free series of the stage vanishes (``_pinned``) do
      not depend on the coefficients.  They stay out of the LP, and the
      least of their fixed values caps delta: delta* = min(cap, delta'),
      where delta' is the optimum of the LP without them.  This is exact,
      since no choice of coefficients moves the cap.  These rows are also
      the ones that make the full LP degenerate.
    * The LP without them is solved by exchange.  It starts from N + 1
      evenly spread angles of each stage, enough to bound delta.  After
      each solve every stage is evaluated on the full grid by
      ``grid_values``.  The angles outside the LP that fall below delta by
      more than 1e-9 and are local minima there (all of them, if none is)
      become rows, and HiGHS re-solves warm from its last basis.  It stops
      when no angle outside the LP falls below delta, so the solution holds
      on the full grid.  Each round adds a row of a finite grid, so the
      loop ends.  With no free series (k = 2) every row is fixed and no LP
      is solved.

    delta* < 0 means no free choice works on this grid (strong evidence, not
    proof, of infeasibility) and None is returned.  Otherwise each stage of
    the found chain gets a :func:`certify_nonneg` certificate on the same
    grid, and None is returned if one of them is infeasible.

    Returns (free series by name, certificate by stage) or None.  Raises
    SolverError if a solve does not end optimal.
    """
    if k < 2:
        raise ValueError(f"search needs k >= 2, got {k}")
    grid = default_grid(n) if grid_points is None else grid_points
    delta, free = _max_min_slack(n, k, grid)
    if delta < 0:
        return None
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
