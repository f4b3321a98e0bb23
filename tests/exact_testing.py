"""Test-only reference for the free-series search: the dense grid LP.

``dense_lp(n, k, grid)`` writes out every row of

    max delta  s.t.  1 + A_l(theta_i) + B_l(theta_i) >= delta

for all stages l = 1..k-1 and all grid angles theta_i = pi i / G as one
(stages * (G + 1)) x (width + 1) matrix and solves it with
``scipy.optimize.linprog``.  The library finds the same optimum by exchange
without building this matrix; tests compare the two.

``NonOptimalHighs`` stands in for the library's HiGHS binding and reports
every solve as infeasible.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from invinsert.exact import _chain_structure, _resolve, _symmetric_basis, grid_values


class NonOptimalHighs:
    """The HiGHS binding, except that every solve reports infeasible."""

    def __init__(self):
        self._highs = _Highs()

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getModelStatus(self):
        return HighsModelStatus.kInfeasible


def dense_lp(n: int, k: int, grid: int) -> tuple[float, list]:
    """delta* of the dense grid LP, and per stage its (G + 1) x width block
    of free columns (the coefficients of the free series at each angle)."""
    resolved, free_names = _chain_structure(n, k)
    thetas = np.linspace(0.0, np.pi, grid + 1)
    bases, offsets, width = {}, {}, 0
    for name in free_names:
        _, _, klass = _resolve(resolved, name)
        bases[name] = _symmetric_basis(n, klass, thetas)
        offsets[name] = width
        width += bases[name].shape[1]
    blocks, rhs = [], []
    for ell in range(1, k):
        fixed = np.ones(thetas.size)
        block = np.zeros((thetas.size, width))
        for prefix in ("A", "B"):
            root, kind, payload = _resolve(resolved, f"{prefix}{ell}")
            if kind == "fixed":
                fixed += grid_values(payload.coeffs, grid)
            elif kind == "free":
                cols = bases[root]
                block[:, offsets[root]: offsets[root] + cols.shape[1]] = cols
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
    return float(result.x[-1]), blocks
