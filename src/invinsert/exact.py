"""Cosine-series feasibility layer for exact k-query algorithms.

An exact k-query algorithm exists iff a chain of trigonometric series
A_0, B_0, ..., A_k, B_k exists where each A is symmetric (a_r = a_{N-r}),
each B antisymmetric (b_r = -b_{N-r}), the endpoints are fixed

    A_0 = sum_r cos(r theta),   B_0 = sum_r (1 - 2r/N) cos(r theta),
    A_k = B_k = 0,

the interleaved matching conditions B_1 = B_0, A_2 = A_1, B_3 = B_2, ...
hold, and 1 + A_l + B_l >= 0 on [0, pi] for every stage.  Unrolled, the
chain is a list F_0..F_k with F_0 = B_0: stage l >= 1 keeps one series of
stage l - 1 and brings F_l, of class A at odd l and B at even l, and
F_{k-1} = F_k = 0.  One search answers every k: the k - 2 free series
F_1..F_{k-2} (A1, B2, A3, ...) come from a maximize-minimum-slack linear
program on a theta grid (none for k <= 2: k = 2 is 1 + B_0 >= 0, k = 1 is
B_0 = 0), and one Lipschitz grid certificate per stage checks the chain.
A series is the array of its N - 1 coefficients c_1..c_{N-1}, its class the
first letter of its slot's name; ``grid_values`` evaluates it by one FFT.

The LP is never written out over the whole grid.  Where every free series
of a stage vanishes (N theta an odd multiple of pi for class A, an even one
for class B) the row does not depend on the free coefficients, so those
rows leave the LP and their least value caps the slack; the cap is the same
for every choice of coefficients, so min(cap, optimum of the rest) is the
full LP's optimum.  Stages with the same free series share one row per
angle, at the least of their fixed values.  The rest is solved by exchange
on HiGHS: start from N + 1 angles per stage, evaluate every stage on the
full grid after each solve, add the violated local minima as rows and
re-solve warm, and stop when no angle outside the LP is violated.  After a
solve that lowers delta by more than roundoff, rows far above it leave the
LP; their angles may come back as rows if they are violated again.

Sine-sector coefficients are identically zero throughout: the endpoints have
none and dropping them loses no generality.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ContractError, SchemaError, SolverError
from .hilbert import read_json, write_json

KLASS_A = "A"  # symmetric: vanishes where exp(i N theta) = -1
KLASS_B = "B"  # antisymmetric: vanishes where exp(i N theta) = +1

CERTIFIED_POSITIVE = "certified_positive"
NUMERICALLY_NONNEGATIVE = "numerically_nonnegative"
INFEASIBLE = "infeasible"

INFEASIBILITY_TOL = -1e-9
# after delta falls by over FALL_TOL, LP rows over DROP_SLACK above it leave
DROP_SLACK = 0.1
FALL_TOL = 1e-12


def default_grid(n: int) -> int:
    """Default number of grid intervals on [0, pi] for certification and LP."""
    return max(4096, 64 * n)


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


def a0(n: int) -> np.ndarray:
    """Fixed symmetric endpoint: every coefficient 1."""
    if n < 2:
        raise ValueError(f"problem size must be >= 2, got {n}")
    return np.ones(n - 1)


def b0(n: int) -> np.ndarray:
    """Fixed antisymmetric endpoint: coefficient of cos(r theta) is 1 - 2r/N."""
    if n < 2:
        raise ValueError(f"problem size must be >= 2, got {n}")
    half = n // 2
    coeffs = np.empty(n - 1)
    coeffs[:half] = 1.0 - 2.0 * np.arange(1, half + 1) / n
    # c_{N-r} = -c_r exactly; at even N the middle entry becomes -0.0
    coeffs[::-1][:half] = -coeffs[:half]
    return coeffs


def _checked(coeffs, n: int, klass: str) -> np.ndarray:
    """A read-only copy of the N - 1 coefficients of a class-`klass` series.
    Raises ContractError unless they are finite and within 1e-12 of the
    class's symmetry, c_r = c_{N-r} (A) or c_r = -c_{N-r} (B)."""
    coeffs = np.array(coeffs, dtype=float)
    if coeffs.shape != (n - 1,):
        raise ContractError(f"expected {n - 1} coefficients, got shape {coeffs.shape}")
    mirror = coeffs[::-1] if klass == KLASS_A else -coeffs[::-1]
    if not np.all(np.isfinite(coeffs)) or np.max(np.abs(coeffs - mirror)) > 1e-12:
        raise ContractError(f"coefficients are not finite or violate class-{klass} symmetry")
    coeffs.setflags(write=False)
    return coeffs


def grid_values(coeffs: np.ndarray, grid_points: int) -> np.ndarray:
    """sum_r c_r cos(r pi m / G) for m = 0..G, where coeffs[r - 1] = c_r: the
    real part of the length-2G real FFT of the zero-padded coefficients."""
    if len(coeffs) >= 2 * grid_points:  # the FFT would fold high harmonics
        raise ValueError(f"{grid_points} grid intervals fold {len(coeffs)} harmonics")
    return np.fft.rfft(np.concatenate([[0.0], coeffs]), 2 * grid_points).real


def certify_nonneg(
    one_plus: Sequence[np.ndarray], grid_points: int
) -> FeasibilityCertificate:
    """Grid-plus-Lipschitz certificate for f = 1 + sum of series on [0, pi].

    Evaluates f on grid_points + 1 equally spaced angles (spacing
    h = pi / grid_points) by one ``grid_values`` of the series' sum, bounds
    |f'| by L = sum over series of sum_r r |c_r|, and certifies positivity
    when grid_min - L h / 2 >= 0.  A grid minimum below -1e-9 is reported
    infeasible; anything between is numerically nonnegative but uncertified.

    Requires grid_points >= 8N so the grid resolves every harmonic.  Raises
    ValueError for non-finite coefficients, before any transform.
    """
    one_plus = [np.asarray(c, dtype=float) for c in one_plus]
    if one_plus:
        n = len(one_plus[0]) + 1
        if any(len(c) + 1 != n for c in one_plus):
            raise ValueError("all series must share the same problem size")
        if grid_points < 8 * n:
            raise ValueError(f"need at least {8 * n} grid intervals, got {grid_points}")
        if not np.isfinite(one_plus).all():
            raise ValueError("series have non-finite coefficients")
    elif grid_points < 1:
        raise ValueError("grid_points must be positive")
    f = 1 + grid_values(sum(one_plus), grid_points) if one_plus else np.ones(grid_points + 1)
    lipschitz = sum((float(np.sum(np.arange(1, n) * np.abs(c))) for c in one_plus), 0.0)
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


# ---------------------------------------------------------------------------
# matching-condition chain
# ---------------------------------------------------------------------------

def chain_free_names(n: int, k: int) -> tuple[str, ...]:
    """Names of the independently choosable series for a (n, k) chain:
    F_1..F_{k-2}, named A1, B2, A3, ... by class (A at odd l, B at even l)."""
    if k < 1:
        raise ValueError(f"query count must be >= 1, got {k}")
    return tuple(f"A{ell}" if ell % 2 else f"B{ell}" for ell in range(1, k - 1))


def build_chain(
    n: int, k: int, free: Optional[Mapping[str, np.ndarray]] = None
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Materialize the chain from the k - 2 free series: the tuple of its
    stages (A_0, B_0), ..., (A_k, B_k), each series a read-only array.

    Stage 0 is (A_0, B_0) and stage l >= 1 is (F_l, F_{l-1}) at odd l and
    (F_{l-1}, F_l) at even l, where F_0 = B_0, F_{k-1} = F_k = 0, and the
    free map supplies F_1..F_{k-2}: exactly the names of
    :func:`chain_free_names`, each N - 1 coefficients of the class its
    name starts with (checked and copied by ``_checked``).  For k = 1 the
    chain forces B_0 = 0, so it only exists for N = 2.
    """
    free = dict(free or {})
    free_names = chain_free_names(n, k)
    if set(free) != set(free_names):
        raise ContractError(
            f"free series must be exactly {sorted(free_names)}, got {sorted(free)}"
        )
    a_0, b_0, zero = a0(n), b0(n), np.zeros(n - 1)
    if k == 1 and b_0.any():
        raise ContractError("a single-query chain needs B_0 = 0, which only holds for N = 2")
    for coeffs in (a_0, b_0, zero):
        coeffs.setflags(write=False)
    new = [b_0] + [_checked(free[name], n, name[0]) for name in free_names] + [zero] * min(k, 2)
    return ((a_0, b_0),) + tuple(
        (new[ell], new[ell - 1]) if ell % 2 else (new[ell - 1], new[ell])
        for ell in range(1, k + 1)
    )


def certify_chain(chain: Sequence[tuple], grid_points: int) -> dict[int, FeasibilityCertificate]:
    """:func:`certify_nonneg` of 1 + A_l + B_l for each stage l = 1..k-1, by
    stage.  Stage 0 holds identically (it is a squared magnitude) and stage
    k = len(chain) - 1 is 1 >= 0, so neither is certified."""
    return {ell: certify_nonneg(stage, grid_points) for ell, stage in enumerate(chain[1:-1], 1)}


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


def _expand(n: int, klass: str, half: np.ndarray) -> np.ndarray:
    """The N - 1 coefficients of the class-`klass` series whose free half
    (the LP variables of the orders of :func:`_basis_orders`) is `half`:
    c_r = h and c_{N-r} = +/-h.  The middle order of class A is its own
    mirror, so it is written once."""
    rs, sign = _basis_orders(n, klass)
    mirror = rs != n - rs
    coeffs = np.zeros(n - 1)
    coeffs[rs - 1] += half
    coeffs[n - rs[mirror] - 1] += sign * half[mirror]
    return coeffs


def _Highs():
    """A model of scipy's private HiGHS binding.  It is imported here, on
    first use, because importing it runs all of ``scipy.optimize``."""
    from scipy.optimize._highspy._core import _Highs

    return _Highs()


def _maximize_last(n_vars: int, rows: list, more_rows) -> np.ndarray:
    """Maximize the last of n_vars free variables subject to rows, then add
    more_rows(x, dropped) and re-solve warm from the last basis until it
    adds none.

    A row batch (keys, columns, block, upper) stands for
    block[i] @ var[columns] <= upper[i], and keys[i] names that row to the
    caller.  After a solve in which the last variable fell more than
    FALL_TOL below every earlier solve's, the rows whose slack exceeds
    DROP_SLACK are deleted, and more_rows gets their keys as `dropped` (no
    keys after any other solve).  Deleting rows that do not bind leaves x
    optimal, so the optimum never rises and the LP stays bounded.  A warm
    solve after deletions can still end in a false status ('Unbounded' at
    (300, 4)); the same rows are then solved once more in a fresh model.  Every call
    into scipy's private HiGHS binding is made here, so a change to that
    binding fails here.  Raises SolverError unless every solve ends optimal.
    """
    from scipy.optimize._highspy._core import HighsModelStatus

    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.addVars(n_vars, np.full(n_vars, -np.inf), np.full(n_vars, np.inf))
    highs.changeColsCost(1, np.array([n_vars - 1], dtype=np.int32), np.array([-1.0]))
    keys, upper = np.empty(0, dtype=np.int64), np.empty(0)
    best, deleted = np.inf, False
    while rows:
        for batch_keys, columns, block, batch_upper in rows:
            m, w = block.shape
            highs.addRows(
                m, np.full(m, -np.inf), batch_upper, m * w,
                np.arange(0, m * w, w, dtype=np.int32),
                np.tile(np.asarray(columns, dtype=np.int32), m),
                np.ascontiguousarray(block).ravel(),
            )
            keys = np.concatenate([keys, batch_keys])
            upper = np.concatenate([upper, batch_upper])
        basis = highs.getBasis() if deleted else None
        highs.run()
        if deleted and highs.getModelStatus() != HighsModelStatus.kOptimal:
            lp = highs.getLp()
            highs = _Highs()
            highs.setOptionValue("output_flag", False)
            highs.passModel(lp)
            highs.setBasis(basis)
            highs.run()
            deleted = False
        status = highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise SolverError(
                f"exact search: LP ended {highs.modelStatusToString(status)!r}, not optimal"
            )
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        dropped = np.zeros(len(keys), dtype=bool)
        if x[-1] < best - FALL_TOL:
            dropped = upper - np.array(solution.row_value) > DROP_SLACK
            if dropped.any():
                highs.deleteRows(int(dropped.sum()), np.flatnonzero(dropped).astype(np.int32))
                deleted = True
        best = min(best, x[-1])
        rows = more_rows(x, keys[dropped])
        keys, upper = keys[~dropped], upper[~dropped]
    return x


def _stage_rows(n: int, k: int, grid: int) -> tuple[dict, list]:
    """The grid LP's layout: each free series' indices among the LP variables
    (delta comes last), and its row groups.  Stage l = 1..k-1 holds the free
    series among F_{l-1}, F_l (see :func:`build_chain`); its fixed part is
    1 + B_0 at l = 1 and 1 elsewhere.  Stages whose free series are the same
    share one row per angle, whose fixed value is the least of theirs (only
    at k = 3: stages 1 + B0 + A1 and 1 + A1).  A group is (its stages, its
    free series, its fixed values on the grid, its mask of x-independent
    rows)."""
    free_names = chain_free_names(n, k)
    params, width = {}, 0
    for name in free_names:
        size = len(_basis_orders(n, name[0])[0])
        params[name] = np.arange(width, width + size)
        width += size
    groups: dict[tuple, tuple] = {}
    for ell in range(1, k):
        fixed = 1 + grid_values(b0(n), grid) if ell == 1 else np.ones(grid + 1)
        names = tuple(free_names[i - 1] for i in (ell - 1, ell) if 1 <= i <= k - 2)
        members, least = groups.get(names, ((), fixed))
        groups[names] = (members + (ell,), np.minimum(least, fixed))
    stages = []
    for names, (members, fixed) in groups.items():
        pinned = np.ones(grid + 1, dtype=bool)
        for name in names:
            pinned &= _pinned(n, name[0], grid)
        stages.append((members, list(names), fixed, pinned))
    return params, stages


def _max_min_slack(n: int, k: int, grid: int) -> tuple[float, dict]:
    """delta* of the grid LP and free series that reach it, for a chain
    with free series (k >= 3; see :func:`search_free_series`)."""
    params, stages = _stage_rows(n, k, grid)
    width = sum(len(p) for p in params.values())
    thetas = np.pi * np.arange(grid + 1) / grid
    # the angles of each group that have a row in the LP; a row's key is
    # its flat index here, group * (G + 1) + angle
    active = np.zeros((len(stages), grid + 1), dtype=bool)

    def activate(indices: list) -> list:
        """Mark the angles of each group active and build their row batches."""
        batches = []
        for g, ((_, names, fixed, _), idx) in enumerate(zip(stages, indices)):
            if len(idx):
                active[g, idx] = True
                columns = np.concatenate([params[name] for name in names] + [[width]])
                block = np.hstack(
                    [-_symmetric_basis(n, name[0], thetas[idx]) for name in names]
                    + [np.ones((len(idx), 1))]
                )
                batches.append((g * (grid + 1) + idx, columns, block, fixed[idx]))
        return batches

    def violated_rows(x: np.ndarray, dropped: np.ndarray) -> list:
        active.flat[dropped] = False
        indices = []
        for (_, names, fixed, pinned), used in zip(stages, active):
            coeffs = sum(_expand(n, name[0], x[params[name]]) for name in names)
            slack = fixed - x[-1] + grid_values(coeffs, grid)
            slack[pinned | used] = np.inf
            low = slack < -1e-9
            padded = np.r_[np.inf, slack, np.inf]
            minima = low & (slack <= padded[:-2]) & (slack <= padded[2:])
            indices.append(np.flatnonzero(minima if minima.any() else low))
        return activate(indices)

    cap = min((f[p].min() for _, _, f, p in stages if p.any()), default=np.inf)
    # N + 1 angles spread evenly over [0, pi] (to the nearest grid angle): on
    # an even spread the trapezoid rule integrates every free series to 0, so
    # no choice of coefficients raises every row and delta is bounded
    start = grid * np.arange(n + 1) // n
    first = activate([start[~pinned[start]] for _, _, _, pinned in stages])
    x = _maximize_last(width + 1, first, violated_rows)
    free = {name: _expand(n, name[0], x[p]) for name, p in params.items()}
    return float(min(cap, x[-1])), free


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
    * Stages with the same free series (for k = 3, 1 + B0 + A1 and 1 + A1)
      share one row per angle, at the least of their fixed values: the
      same LP in fewer rows.
    * The LP without the fixed rows is solved by exchange.  It starts from
      N + 1 evenly spread angles of each stage, enough to bound delta.
      After each solve every stage is evaluated on the full grid by one
      ``grid_values`` of the sum of its free series, each expanded from its
      free half.  The angles outside the LP that fall below delta by more
      than 1e-9 and are local minima there (all of them, if none is) become
      rows, and HiGHS re-solves warm from its last basis.  After a solve in
      which delta fell more than FALL_TOL below every earlier solve's, the
      rows more than DROP_SLACK above delta are deleted and their angles
      leave the LP, to come back as rows if they are violated again.  The loop stops when no angle
      outside the LP falls below delta, so the solution holds on the full
      grid.
    * The loop ends.  Deleting rows that do not bind leaves the solution
      optimal, so delta never rises.  Between two falls of more than
      FALL_TOL rows are only added, each time at least one angle of a
      finite grid.  Each such fall lowers the least delta so far by more
      than FALL_TOL, and no delta is below the optimum of the LP with every
      grid row, so there are finitely many of them.  A smaller fall is
      roundoff (4e-14 at (24, 5)) and deletes nothing.

    delta* < 0 means no free choice works on this grid (strong evidence, not
    proof, of infeasibility) and None is returned.  Otherwise the found
    chain is certified (:func:`certify_chain`) on the same grid, and None
    is returned if a stage is infeasible.  With no free series (k <= 2) no
    LP is solved; at k = 1 the chain needs B_0 = 0, so only N = 2 has one.

    Returns (free series by name, certificate by stage) or None.  Raises
    ValueError for k < 1 or under 8N grid intervals before any LP, and
    SolverError if a solve does not end optimal, after deletions even when
    the same rows are solved again in a fresh model.
    """
    grid = default_grid(n) if grid_points is None else grid_points
    if grid < 8 * n:
        raise ValueError(f"need at least {8 * n} grid intervals, got {grid}")
    free = {}
    if chain_free_names(n, k):
        delta, free = _max_min_slack(n, k, grid)
        if delta < 0:
            return None
    elif k == 1 and b0(n).any():
        return None
    certificates = certify_chain(build_chain(n, k, free), grid)
    if any(c.verdict == INFEASIBLE for c in certificates.values()):
        return None
    return free, certificates


# ---------------------------------------------------------------------------
# series file IO
# ---------------------------------------------------------------------------

def series_docs(free: Mapping[str, np.ndarray]) -> dict[str, dict]:
    """The document {"n", "klass", "coeffs"} of each free series, by name;
    its class is the first letter of its name."""
    return {name: {"n": len(c) + 1, "klass": name[0], "coeffs": c} for name, c in free.items()}


def save_series(free: Mapping[str, np.ndarray], path) -> None:
    """Write free series to JSON: a bare series object when there is exactly
    one, otherwise a name-keyed map of series objects."""
    docs = series_docs(free)
    payload = next(iter(docs.values())) if len(docs) == 1 else docs
    with open(path, "w") as fh:
        write_json(payload, fh)


def _checked_doc(data) -> dict:
    """A series document whose coefficients ``_checked`` has passed; any
    fault raises SchemaError."""
    if not isinstance(data, dict):
        raise SchemaError("series document must be a JSON object")
    missing = {"n", "klass", "coeffs"} - set(data)
    if missing:
        raise SchemaError(f"series document missing fields {sorted(missing)}")
    n = SchemaError.require_int(data, "n", "series")
    coeffs = SchemaError.require_array(data, "coeffs", "series", (n - 1,))
    klass = str(data["klass"])
    if n < 2:
        raise SchemaError(f"problem size must be >= 2, got {n}")
    if klass not in (KLASS_A, KLASS_B):
        raise SchemaError(f"unknown series class {klass!r}")
    try:
        return {"n": n, "klass": klass, "coeffs": _checked(coeffs, n, klass)}
    except ContractError as exc:
        raise SchemaError(str(exc)) from exc


def _series_file(data) -> dict[str, dict]:
    """The checked documents of a series file, by name or class letter."""
    if not isinstance(data, dict):
        raise SchemaError("series document must be a JSON object")
    if "coeffs" in data:
        doc = _checked_doc(data)
        return {doc["klass"]: doc}
    return {name: _checked_doc(doc) for name, doc in data.items()}


def load_series(path) -> dict[str, dict]:
    """Read a series file into checked documents {"n", "klass", "coeffs"}:
    a bare object comes back under its class letter (resolved against the
    chain by the caller), a keyed map verbatim.  Every fault raises
    SchemaError naming the file."""
    return read_json(path, _series_file)
