"""Stage-wise phase alignment that maximizes success probability greedily.

At stage l the oracle output <p|F_0|psi_{l-1}> is rotated onto the
nonnegative real axis momentum by momentum, which maximizes the overlap with
the stage-l target among all diagonal phase choices.  The oracle matrix
element is (1 + i cot(pi (q - p) / 2N)) / N between opposite parities, so
the recursion runs on real amplitude vectors:

    new_amp(p) = |sum_q amp(q) + i sum_q cot(pi (q - p) / 2N) amp(q)| / N

with q ranging over the previous parity class.  The sum is the oracle image
<p|F_0|psi_{l-1}>, which ``hilbert.oracle_image`` computes with two FFTs in
O(N log N) time and O(N) memory.  The success probability after l queries
is (sum_p new_amp(p))^2 / N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import EULER_GAMMA, harmonic_sum
from .errors import ContractError
from .hilbert import (
    MOMENTUM,
    PhaseSchedule,
    StateVector,
    momentum_basis_vector,
    oracle_image,
    reduce_phases as hilbert_reduce_phases,
)

# below this magnitude the aligning phase is arbitrary; 0 keeps tables tidy
ZERO_AMP_TOL = 1e-14


@dataclass(frozen=True)
class GreedyTrace:
    """Result of a greedy run: probabilities, per-stage states, schedule."""

    n: int
    probs: np.ndarray
    states: list[StateVector]
    phase_schedule: PhaseSchedule


def _parity_indices(n: int, parity: int) -> np.ndarray:
    return np.arange(parity % 2, 2 * n, 2)


def _check_parity_support(amps: np.ndarray, n: int, parity: int) -> None:
    dead = _parity_indices(n, parity + 1)
    worst = float(np.max(np.abs(amps[dead]))) if dead.size else 0.0
    if worst > 1e-12:
        raise ContractError(
            f"input state leaks {worst:.3e} onto parity {(parity + 1) % 2}; "
            f"expected support on parity {parity % 2}"
        )


def _advance(amps_in: np.ndarray, n: int, ell: int):
    """One greedy stage from the live-parity amplitudes of stage l - 1."""
    ins = _parity_indices(n, ell - 1)
    outs = _parity_indices(n, ell)
    psi_in = np.zeros(2 * n, dtype=complex)
    psi_in[ins] = amps_in[ins]
    phi = oracle_image(psi_in, n)[outs]
    phases = np.zeros(2 * n)
    live = np.abs(phi) > ZERO_AMP_TOL
    phases[outs[live]] = hilbert_reduce_phases(-np.angle(phi[live]))
    amps_out = np.zeros(2 * n, dtype=complex)
    amps_out[outs] = np.abs(phi)
    amps_out[outs[~live]] = phi[~live]  # keep sub-tolerance dust unrotated
    return amps_out, phases


def greedy_step(psi_prev: StateVector, ell: int) -> tuple[StateVector, np.ndarray]:
    """Advance one stage; returns the new state and the aligning phases.

    ``psi_prev`` must be a momentum-basis state supported on parity l - 1.
    The returned state is supported on parity l with every live amplitude
    real and nonnegative.
    """
    if psi_prev.basis != MOMENTUM:
        raise ContractError("greedy_step expects a momentum-basis state")
    if ell < 1:
        raise ValueError(f"stage index must be >= 1, got {ell}")
    n = psi_prev.n
    _check_parity_support(psi_prev.amps, n, ell - 1)
    amps_out, phases = _advance(psi_prev.amps, n, ell)
    return StateVector(n, MOMENTUM, amps_out), phases


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
    state = momentum_basis_vector(n, 0)
    probs = np.empty(k + 1)
    probs[0] = 1.0 / n
    states = [state] if keep_states else []
    stages = np.empty((k, 2 * n))
    amps = state.amps
    for ell in range(1, k + 1):
        amps, stages[ell - 1] = _advance(amps, n, ell)
        live = _parity_indices(n, ell)
        probs[ell] = float(amps[live].real.sum()) ** 2 / n
        if keep_states:
            states.append(StateVector(n, MOMENTUM, amps))
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
