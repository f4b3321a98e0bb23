"""Test-only state helpers on top of the library's ``hilbert`` namespace.

``import hilbert_testing as hilbert`` gives every public name of
``invinsert.hilbert`` plus the references the tests compare against: a
basis-tagged state, the unitary transforms, the translation operator, the
closed-form momentum matrix element, the measurement targets, a
single-answer schedule run, random states and schedules, and the inner
product.  The library itself computes on plain arrays.
"""

from dataclasses import dataclass

import numpy as np

from invinsert.hilbert import *  # noqa: F401,F403 - the library namespace
from invinsert.hilbert import PhaseSchedule, oracle_signs, run_signs, target_probs

POSITION = "position"
MOMENTUM = "momentum"


@dataclass(frozen=True)
class StateVector:
    """2N complex amplitudes tagged with the basis they live in."""

    n: int
    basis: str
    amps: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"problem size must be >= 2, got {self.n}")
        if self.basis not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown basis {self.basis!r}")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2 * self.n,):
            raise ValueError(f"expected {2 * self.n} amplitudes, got shape {amps.shape}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def momentum_basis_vector(n: int, p: int) -> StateVector:
    amps = np.zeros(2 * n, dtype=complex)
    amps[p] = 1.0
    return StateVector(n, MOMENTUM, amps)


def apply_oracle(j: int, state: StateVector) -> StateVector:
    """Multiply position amplitudes by F_j(x); one quantum query."""
    if state.basis != POSITION:
        raise ValueError("apply_oracle expects a position-basis state")
    return StateVector(state.n, POSITION, oracle_signs(j, state.n) * state.amps)


def to_momentum(state: StateVector) -> StateVector:
    """<p|psi> = sum_x exp(-i p x pi/N) <x|psi> / sqrt(2N)."""
    if state.basis != POSITION:
        raise ValueError("to_momentum expects a position-basis state")
    return StateVector(state.n, MOMENTUM, np.fft.fft(state.amps, norm="ortho"))


def to_position(state: StateVector) -> StateVector:
    """Inverse of :func:`to_momentum`."""
    if state.basis != MOMENTUM:
        raise ValueError("to_position expects a momentum-basis state")
    return StateVector(state.n, POSITION, np.fft.ifft(state.amps, norm="ortho"))


def translate(state: StateVector, t: int) -> StateVector:
    """T^t: cyclic shift by t in position, phase exp(-i p t pi/N) in momentum."""
    n = state.n
    if state.basis == POSITION:
        return StateVector(n, POSITION, np.roll(state.amps, t))
    p = np.arange(2 * n)
    return StateVector(n, MOMENTUM, state.amps * np.exp(-1j * np.pi * p * t / n))


def oracle_momentum_element(p: int, q: int, n: int) -> complex:
    """Closed-form momentum matrix element <p|F_0|q>.

    Nonzero only for odd q - p, where it equals
    i exp(-i pi d / 2N) / (N sin(pi d / 2N)) with d = (q - p) mod 2N.
    """
    if not (0 <= p <= 2 * n - 1 and 0 <= q <= 2 * n - 1):
        raise ValueError(f"momentum labels must lie in 0..{2 * n - 1}")
    d = (q - p) % (2 * n)
    if d % 2 == 0:
        return 0j
    ang = np.pi * d / (2 * n)
    return 1j * np.exp(-1j * ang) / (n * np.sin(ang))


def target_state(j: int, sign: int, n: int) -> StateVector:
    """(|j> + sign |j+N>) / sqrt(2): the measurement target for answer j."""
    amps = np.zeros(2 * n, dtype=complex)
    amps[j] = 1 / np.sqrt(2)
    amps[j + n] = sign / np.sqrt(2)
    return StateVector(n, POSITION, amps)


def run_schedule(schedule: PhaseSchedule, j: int) -> tuple[StateVector, float]:
    """One answer through the library runner: the final position state and
    its success probability."""
    final = run_signs(schedule.stages, oracle_signs(j, schedule.n))
    prob = float(target_probs(final, schedule.k)[j])
    return StateVector(schedule.n, POSITION, final), prob


def random_state(n: int, rng: np.random.Generator, basis: str = POSITION) -> StateVector:
    """A Haar-ish random unit vector, for tests and property checks."""
    amps = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, basis, amps)


def random_schedule(
    n: int, k: int, rng: np.random.Generator
) -> PhaseSchedule:
    """Uniformly random phase stages, for covariance property checks."""
    return PhaseSchedule(n=n, k=k, stages=rng.uniform(0, 2 * np.pi, (k, 2 * n)))


def oracle_momentum_matrix(n: int) -> np.ndarray:
    """Full 2N x 2N momentum-basis matrix of F_0 from the closed form."""
    d = (np.arange(2 * n)[None, :] - np.arange(2 * n)[:, None]) % (2 * n)
    ang = np.pi * d / (2 * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 1j * np.exp(-1j * ang) / (n * np.sin(ang))
    m[d % 2 == 0] = 0
    return m


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> for two states expressed in the same basis."""
    if a.basis != b.basis or a.n != b.n:
        raise ValueError("states must share problem size and basis")
    return complex(np.vdot(a.amps, b.amps))
