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


def reduced_oracle(j, base, scale: int, m: int) -> np.ndarray:
    """Position signs of the doubled oracle of the reduced insertion function.

    f'(s) = f_j(base + (s + 1) scale - 1) for s = 0..M-1, doubled to 2M
    points the same way as the full problem.  Arrays of ``j`` and ``base``
    give one row per hidden answer.
    """
    if scale < 1 or m < 2:
        raise ValueError("need scale >= 1 and m >= 2")
    js, bases = np.broadcast_arrays(np.asarray(j), np.asarray(base))
    outside = (js < bases) | (js >= bases + m * scale)
    if np.any(outside):
        i = int(np.argmax(outside))
        lo = bases.flat[i]
        raise ContractError(
            f"hidden index {js.flat[i]} outside the interval [{lo}, {lo + m * scale})"
        )
    probes = bases[..., None] + (np.arange(m) + 1) * scale - 1
    f = np.where(probes < js[..., None], -1.0, 1.0)
    return np.concatenate([f, -f], axis=-1)


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


def compose_all(
    m: int, k: int, h: int, schedule: PhaseSchedule, hidden_js
) -> list[CompositionRun]:
    """Locate every hidden answer in 0..M^h - 1 with h runs of the (M, k)
    subroutine each.

    Measurement is simulated deterministically: the exact subroutine leaves
    essentially unit overlap with exactly one target, and that subanswer is
    selected.  An overlap below 1 - 1e-6 at any level aborts, since the
    schedule is then not exact enough to compose.  Each level runs the k
    stages of the schedule for a block of answers as one batch, and so
    queries f_j k times per answer.
    """
    if schedule.n != m or schedule.k != k:
        raise ValueError(
            f"schedule is for (n={schedule.n}, k={schedule.k}), expected ({m}, {k})"
        )
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    n_total = m**h
    hidden = np.asarray(hidden_js, dtype=np.int64).reshape(-1)
    bad = hidden[(hidden < 0) | (hidden >= n_total)]
    if bad.size:
        raise ValueError(f"hidden index must lie in 0..{n_total - 1}, got {bad[0]}")

    step = max(1, hilbert.ANSWER_BLOCK_AMPS // (2 * m))
    base = np.zeros_like(hidden)
    per_level = []  # (interval bases, level t, subanswers) over all answers
    for t in range(h, 0, -1):
        scale = m ** (t - 1)
        best = np.empty_like(hidden)
        for lo in range(0, hidden.size, step):
            block = slice(lo, lo + step)
            signs = reduced_oracle(hidden[block], base[block], scale, m)
            probs = hilbert.target_probs(hilbert.run_signs(schedule.stages, signs), k)
            best[block] = np.argmax(probs, axis=-1)
            worst = float(probs.max(axis=-1).min())
            if worst < SUCCESS_FLOOR:
                raise CompositionError(
                    f"level {t}: best overlap {worst:.6f} below {SUCCESS_FLOOR}; "
                    "the subroutine schedule is not exact"
                )
        per_level.append((base.tolist(), t, best.tolist()))
        base = base + best * scale
    return [
        CompositionRun(
            m=m,
            k=k,
            h=h,
            n=n_total,
            hidden_j=j,
            found_j=found,
            queries_used=h * k,
            per_level=[(bases[i], t, subs[i]) for bases, t, subs in per_level],
        )
        for i, (j, found) in enumerate(zip(hidden.tolist(), base.tolist()))
    ]


def compose_solve(
    m: int, k: int, h: int, schedule: PhaseSchedule, hidden_j: int
) -> CompositionRun:
    """Locate hidden_j in 0..M^h - 1 with h runs of the (M, k) subroutine;
    the single-answer case of :func:`compose_all`."""
    return compose_all(m, k, h, schedule, [hidden_j])[0]


def rate(k: int, m: int) -> float:
    """Asymptotic queries per log2(N) when the (M, k) subroutine is iterated."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return k / np.log2(m)
