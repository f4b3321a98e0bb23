"""Stage-wise phase alignment that maximizes success probability greedily.

At stage l the oracle output <p|F_0|psi_{l-1}> is rotated onto the
nonnegative real axis momentum by momentum, which maximizes the overlap with
the stage-l target among all diagonal phase choices.  The oracle matrix
element is (1 + i cot(pi (q - p) / 2N)) / N between opposite parities, so
the recursion runs on real amplitude vectors:

    new_amp(p) = |sum_q amp(q) + i sum_q cot(pi (q - p) / 2N) amp(q)| / N

with q ranging over the previous parity class.  The sum is the oracle image
<p|F_0|psi_{l-1}>, which ``hilbert.oracle_image`` computes by two length-N
FFTs, in O(N log N) time and O(N) memory.  The success probability after l
queries is (sum_p new_amp(p))^2 / N.  A state after l queries is the array
of its N momentum amplitudes on parity l mod 2, starting from [1, 0, ..., 0]
at p = 0; the run keeps only the current one.  The aligning phases fill the
stages of the (k, 2N) schedule (``hilbert``).
"""

from __future__ import annotations

import numpy as np

from .hilbert import oracle_image, reduce_phases


def _advance(amps: np.ndarray, ell: int):
    """One greedy stage: the N amplitudes of parity l from the N of parity
    l - 1, and the N phases that align them, reduced to [0, 2pi).  Every
    phase is defined: for real amps Re phi = sum(amps) / N, and
    sum(amps) = sqrt(N prob) >= 1."""
    phi = oracle_image(amps, ell - 1)
    return np.abs(phi), reduce_phases(-np.angle(phi))


def greedy_run(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Run k greedy stages from the start state: (probs, stages).

    ``probs[l]`` is the success probability if the run stops after l queries;
    ``probs[0] = 1/N`` is the overlap of the start state with the answer-0
    target.  ``stages`` is the read-only (k, 2N) schedule, which reproduces
    ``probs[k]`` when fed back through the schedule runner.  Each stage row
    is reduced as it is written, so no step holds a second copy of it.
    """
    if n < 2:
        raise ValueError(f"problem size must be >= 2, got {n}")
    if k < 1:
        raise ValueError(f"query count must be >= 1, got {k}")
    amps = np.eye(1, n)[0]  # real, as every later state is
    probs = np.empty(k + 1)
    probs[0] = 1.0 / n
    stages = np.zeros((k, 2 * n))
    for ell in range(1, k + 1):
        amps, stages[ell - 1, ell % 2 :: 2] = _advance(amps, ell)
        probs[ell] = float(amps.sum()) ** 2 / n
    stages.setflags(write=False)
    return probs, stages
