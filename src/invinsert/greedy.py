"""Stage-wise phase alignment that maximizes success probability greedily.

At stage l the oracle output <p|F_0|psi_{l-1}> is rotated onto the
nonnegative real axis momentum by momentum, which maximizes the overlap with
the stage-l target among all diagonal phase choices.  The oracle matrix
element is (1 + i cot(pi (q - p) / 2N)) / N between opposite parities, so
the recursion runs on real amplitude vectors:

    new_amp(p) = |sum_q amp(q) + i sum_q cot(pi (q - p) / 2N) amp(q)| / N

with q ranging over the previous parity class.  The sum is the oracle image
<p|F_0|psi_{l-1}>, which ``hilbert.oracle_image`` computes from the N live
amplitudes by two length-N FFTs, in O(N log N) time and O(N) memory.  The
success probability after l queries is (sum_p new_amp(p))^2 / N.  States are
plain arrays of 2N momentum amplitudes, starting from the unit vector at
p = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import EULER_GAMMA, harmonic_sum
from .hilbert import PhaseSchedule, oracle_image, reduce_phases as hilbert_reduce_phases

# below this magnitude the aligning phase is arbitrary; 0 keeps tables tidy
ZERO_AMP_TOL = 1e-14


@dataclass(frozen=True)
class GreedyTrace:
    """Result of a greedy run: probabilities, per-stage momentum amplitudes,
    schedule."""

    n: int
    probs: np.ndarray
    states: list[np.ndarray]
    phase_schedule: PhaseSchedule


def _parity_indices(n: int, parity: int) -> np.ndarray:
    return np.arange(parity % 2, 2 * n, 2)


def _advance(amps_in: np.ndarray, n: int, ell: int):
    """One greedy stage from the amplitudes of stage l - 1, which vanish off
    parity l - 1."""
    outs = _parity_indices(n, ell)
    phi = oracle_image(amps_in, n)[outs]
    phases = np.zeros(2 * n)
    live = np.abs(phi) > ZERO_AMP_TOL
    phases[outs[live]] = hilbert_reduce_phases(-np.angle(phi[live]))
    amps_out = np.zeros(2 * n, dtype=complex)
    amps_out[outs] = np.abs(phi)
    amps_out[outs[~live]] = phi[~live]  # keep sub-tolerance dust unrotated
    return amps_out, phases


def greedy_run(n: int, k: int, keep_states: bool = True) -> GreedyTrace:
    """Run k greedy stages from the start state and record everything.

    ``probs[l]`` is the success probability if the run stops after l queries;
    ``probs[0] = 1/N`` is the overlap of the start state with the answer-0
    target.  The accumulated PhaseSchedule reproduces ``probs[k]`` when fed
    back through the generic schedule runner.
    """
    if n < 2:
        raise ValueError(f"problem size must be >= 2, got {n}")
    if k < 1:
        raise ValueError(f"query count must be >= 1, got {k}")
    amps = np.zeros(2 * n, dtype=complex)
    amps[0] = 1.0
    probs = np.empty(k + 1)
    probs[0] = 1.0 / n
    states = [amps] if keep_states else []
    stages = np.empty((k, 2 * n))
    for ell in range(1, k + 1):
        amps, stages[ell - 1] = _advance(amps, n, ell)
        live = _parity_indices(n, ell)
        probs[ell] = float(amps[live].real.sum()) ** 2 / n
        if keep_states:
            states.append(amps)
    schedule = PhaseSchedule(n=n, k=k, stages=stages)
    return GreedyTrace(n=n, probs=probs, states=states, phase_schedule=schedule)


def one_query_prob(n: int) -> float:
    """Success probability of the single-query greedy algorithm.

    Equals S^2 / N with S = (1/N) sum over odd p of 1/sin(pi p / 2N), the
    harmonic sum of :func:`bounds.harmonic_sum`.
    """
    return harmonic_sum(n).exact ** 2 / n


def one_query_asymptotic(n: int) -> float:
    """Large-N closed form (4 / pi^2 N) [ln N + gamma + ln(8/pi)]^2."""
    if n < 3:
        raise ValueError(f"asymptotic form needs n >= 3, got {n}")
    return 4.0 / (math.pi**2 * n) * (math.log(n) + EULER_GAMMA + math.log(8 / math.pi)) ** 2
