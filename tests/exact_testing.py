"""Test-only reference for the free-series search: the dense grid LP.

``dense_lp(n, k, grid)`` writes out every row of

    max delta  s.t.  1 + A_l(theta_i) + B_l(theta_i) >= delta

for all stages l = 1..k-1 and all grid angles theta_i = pi i / G as one
(stages * (G + 1)) x (width + 1) matrix and solves it with
``scipy.optimize.linprog``.  The library finds the same optimum by exchange
without building this matrix; tests compare the two.

``NonOptimalHighs``, ``CountingHighs``, ``FalseUnboundedHighs`` and
``RoundoffHighs`` stand in for the library's HiGHS binding: the first
reports every solve as infeasible, the second records the number of LP rows
at every solve, the third reports every solve of a model after a row
deletion as unbounded, and the fourth reports the last variable a roundoff
lower at every solve after the first.
``eval_series`` sums a cosine series directly, the reference for the
library's FFT grid values, and ``b0_loop`` writes B_0 coefficient by
coefficient, the reference for the library's ``b0``.  ``matching_stages``
writes the chain out from the matching conditions, independently of the
library's ``build_chain``.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from invinsert.exact import _symmetric_basis, b0


def eval_series(coeffs, theta) -> np.ndarray | float:
    """Evaluate sum_r c_r cos(r theta), coeffs[r - 1] = c_r, at a scalar or
    array of angles."""
    th = np.asarray(theta, dtype=float)
    r = np.arange(1, len(coeffs) + 1)
    values = np.cos(th[..., None] * r) @ coeffs
    return float(values) if np.isscalar(theta) else values


def b0_loop(n: int) -> np.ndarray:
    """B_0's coefficients 1 - 2r/N, written pair by pair: c_r, then its
    mirror c_{N-r} = -c_r, so the middle entry at even N ends as -0.0."""
    coeffs = np.zeros(n - 1)
    for r in range(1, n // 2 + 1):
        value = 1.0 - 2.0 * r / n
        coeffs[r - 1] = value
        coeffs[n - r - 1] = -value
    return coeffs


class NonOptimalHighs:
    """The HiGHS binding, except that every solve reports infeasible."""

    def __init__(self):
        self._highs = _Highs()

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getModelStatus(self):
        return HighsModelStatus.kInfeasible


class CountingHighs:
    """The HiGHS binding, appending the model's row count at every solve to
    the class list ``rows`` (all models share it; reset it before use)."""

    rows: list = []

    def __init__(self):
        self._highs = _Highs()

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        CountingHighs.rows.append(self._highs.getNumRow())
        return self._highs.run()


class FalseUnboundedHighs(CountingHighs):
    """Counts rows like CountingHighs, and reports every solve after a row
    deletion as unbounded, as HiGHS's warm start can after deleteRows."""

    deleted = False

    def deleteRows(self, *args):
        self.deleted = True
        return self._highs.deleteRows(*args)

    def getModelStatus(self):
        return HighsModelStatus.kUnbounded if self.deleted else self._highs.getModelStatus()


class RoundoffHighs(CountingHighs):
    """Counts rows like CountingHighs, and reports the last variable 4e-14
    below HiGHS's value at every solve after the first, a fall of the size
    that roundoff gives."""

    solves = 0

    def run(self):
        self.solves += 1
        return super().run()

    def getSolution(self):
        solution = self._highs.getSolution()
        if self.solves > 1:
            values = solution.col_value
            solution.col_value = values[:-1] + [values[-1] - 4e-14]
        return solution


def matching_stages(n: int, k: int) -> list:
    """(A_l, B_l) for l = 1..k-1, each a fixed coefficient array, None for
    the zero series, or the name of a free series.  Walks B_l = B_{l-1} at
    odd l and A_l = A_{l-1} at even l from (A_0, B_0), naming the other
    series of each stage by its place, then sets both series that stage k
    holds to zero (A_k = B_k = 0)."""
    a, b = np.ones(n - 1), b0(n)
    stages = []
    for ell in range(1, k + 1):
        if ell % 2:
            a = f"A{ell}"
        else:
            b = f"B{ell}"
        stages.append((a, b))
    zero = set(stages.pop())
    return [
        tuple(None if isinstance(s, str) and s in zero else s for s in pair)
        for pair in stages
    ]


def dense_lp(n: int, k: int, grid: int) -> tuple[float, list, list]:
    """delta* of the dense grid LP, and per stage its (G + 1) x width block
    of free columns (the coefficients of the free series at each angle) and
    its fixed values at those angles."""
    stages = matching_stages(n, k)
    free_names = dict.fromkeys(s for pair in stages for s in pair if isinstance(s, str))
    thetas = np.linspace(0.0, np.pi, grid + 1)
    bases, offsets, width = {}, {}, 0
    for name in free_names:
        bases[name] = _symmetric_basis(n, name[0], thetas)
        offsets[name] = width
        width += bases[name].shape[1]
    blocks, rhs = [], []
    for pair in stages:
        fixed = np.ones(thetas.size)
        block = np.zeros((thetas.size, width))
        for series in pair:
            if isinstance(series, str):
                cols = bases[series]
                block[:, offsets[series]: offsets[series] + cols.shape[1]] = cols
            elif series is not None:
                # as the library's fixed rows take it, so the two agree bit for bit
                fixed += np.fft.rfft(np.r_[0.0, series], 2 * grid).real
        blocks.append(block)
        rhs.append(fixed)
    a_ub = np.hstack([-np.vstack(blocks), np.ones((len(blocks) * thetas.size, 1))])
    cost = np.zeros(width + 1)
    cost[-1] = -1.0
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.concatenate(rhs),
        bounds=[(None, None)] * (width + 1),
        method="highs",
    )
    assert result.success, result.message
    return float(result.x[-1]), blocks, rhs
