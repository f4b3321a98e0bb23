"""Classical iteration of an exact (M, k) subroutine to solve N = M^h.

Each round keeps an interval [base, base + M^t) known to contain the answer,
picks the M - 1 equally spaced probe positions base + scale - 1,
base + 2 scale - 1, ..., and runs the exact subroutine against the reduced
oracle those probes induce.  The measured subanswer narrows the interval by
a factor of M, so h rounds and h k queries pin the answer exactly.  The
composed procedure is classical control around quantum subroutines and is
not itself translationally invariant.

The reduced oracle of answer j is f'(s) = f_j(base + (s + 1) scale - 1),
s = 0..M-1, which is -1 exactly for s < j' = (j - base) // scale: it is the
M-point oracle F_{j'} itself, which ends in the translate T^{j'} psi_0 of
answer 0's final state: one subroutine run serves every level and answer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import hilbert
from .errors import CompositionError, ContractError

SUCCESS_FLOOR = 1 - 1e-6


class Composition(NamedTuple):
    """``compose_all``'s J answers; level t's subanswer of a recovered j is
    its base-M digit (j // M^(t-1)) % M."""

    found: np.ndarray  # (J,) int64: the located answer
    queries_used: int  # h k, the same for every answer


def compose_all(stages: np.ndarray, h: int, hidden_js) -> Composition:
    """Locate every hidden answer in 0..M^h - 1 with h runs of the (M, k)
    subroutine whose schedule is the (k, 2M) array ``stages``; entry j of
    ``found`` is where ``hidden_js[j]`` was located.

    Measurement is simulated deterministically: the exact subroutine leaves
    essentially unit overlap with exactly one target, and that subanswer is
    selected; an overlap below 1 - 1e-6 aborts at the first level.  Answer
    j's reduced oracle at a level is F_{j'}, j' = (j - base) // scale, which
    ends in T^{j'} psi_0 (``hilbert.run_answer_zero``), so the subanswer is
    (j' + argmax |psi_0|) mod M.  The simulated algorithm still makes k
    queries per level and answer.
    """
    k, width = np.shape(stages)
    m = width // 2
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    n_total = m**h
    hidden = np.asarray(hidden_js, dtype=np.int64).reshape(-1)
    bad = hidden[(hidden < 0) | (hidden >= n_total)]
    if bad.size:
        raise ValueError(f"hidden index must lie in 0..{n_total - 1}, got {bad[0]}")

    probs = 2 * np.abs(hilbert.run_answer_zero(stages)) ** 2
    shift, overlap = int(np.argmax(probs)), float(probs.max())
    if hidden.size and overlap < SUCCESS_FLOOR:  # no answers: nothing falls short
        raise CompositionError(
            f"level {h}: best overlap {overlap:.6f} below {SUCCESS_FLOOR}; "
            "the subroutine schedule is not exact"
        )
    base = np.zeros_like(hidden)
    for t in range(h, 0, -1):
        scale = m ** (t - 1)
        sub = (hidden - base) // scale
        outside = (sub < 0) | (sub >= m)
        if np.any(outside):  # an earlier level measured a wrong subanswer
            i = int(np.argmax(outside))
            raise ContractError(
                f"hidden index {hidden[i]} outside the interval "
                f"[{base[i]}, {base[i] + m * scale})"
            )
        base = base + (sub + shift) % m * scale
    return Composition(base, h * k)


def rate(k: int, m: int) -> float:
    """Asymptotic queries per log2(N) when the (M, k) subroutine is iterated."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return k / np.log2(m)
