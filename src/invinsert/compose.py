"""Classical iteration of an exact (M, k) subroutine to solve N = M^h.

Each round keeps an interval [base, base + M^t) known to contain the answer,
picks the M - 1 equally spaced probe positions base + scale - 1,
base + 2 scale - 1, ..., and runs the exact subroutine against the reduced
oracle those probes induce.  The measured subanswer narrows the interval by
a factor of M, so h rounds and h k queries pin the answer exactly.  The
composed procedure is classical control around quantum subroutines and is
not itself translationally invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import CompositionError, ContractError
from .hilbert import PhaseSchedule

SUCCESS_FLOOR = 1 - 1e-6


def reduced_oracle(j: int, base: int, scale: int, m: int) -> np.ndarray:
    """Position signs of the doubled oracle of the reduced insertion function.

    f'(s) = f_j(base + (s + 1) scale - 1) for s = 0..M-1, doubled to 2M
    points the same way as the full problem.
    """
    if scale < 1 or m < 2:
        raise ValueError("need scale >= 1 and m >= 2")
    if not base <= j < base + m * scale:
        raise ContractError(
            f"hidden index {j} outside the interval [{base}, {base + m * scale})"
        )
    probes = base + (np.arange(m) + 1) * scale - 1
    f = np.where(probes < j, -1.0, 1.0)
    return np.concatenate([f, -f])


@dataclass(frozen=True)
class CompositionRun:
    m: int
    k: int
    h: int
    n: int
    hidden_j: int
    found_j: int
    queries_used: int
    per_level: list  # (interval base, level t, subanswer j')


def compose_solve(
    m: int, k: int, h: int, schedule: PhaseSchedule, hidden_j: int
) -> CompositionRun:
    """Locate hidden_j in 0..M^h - 1 with h runs of the (M, k) subroutine.

    Measurement is simulated deterministically: the exact subroutine leaves
    essentially unit overlap with exactly one target, and that subanswer is
    selected.  An overlap below 1 - 1e-6 at any level aborts, since the
    schedule is then not exact enough to compose.  Each level runs the k
    stages of the schedule and so queries f_j k times.
    """
    if schedule.n != m or schedule.k != k:
        raise ValueError(
            f"schedule is for (n={schedule.n}, k={schedule.k}), expected ({m}, {k})"
        )
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    n_total = m**h
    if not 0 <= hidden_j < n_total:
        raise ValueError(f"hidden index must lie in 0..{n_total - 1}, got {hidden_j}")

    base = 0
    queries = 0
    per_level = []
    for t in range(h, 0, -1):
        scale = m ** (t - 1)
        signs = reduced_oracle(hidden_j, base, scale, m)
        probs = hilbert.target_probs(hilbert.run_signs(schedule.stages, signs), k)
        best = int(np.argmax(probs))
        if probs[best] < SUCCESS_FLOOR:
            raise CompositionError(
                f"level {t}: best overlap {probs[best]:.6f} below {SUCCESS_FLOOR}; "
                "the subroutine schedule is not exact"
            )
        per_level.append((base, t, best))
        base += best * scale
        queries += schedule.k
    return CompositionRun(
        m=m,
        k=k,
        h=h,
        n=n_total,
        hidden_j=hidden_j,
        found_j=base,
        queries_used=queries,
        per_level=per_level,
    )


def rate(k: int, m: int) -> float:
    """Asymptotic queries per log2(N) when the (M, k) subroutine is iterated."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return k / np.log2(m)
