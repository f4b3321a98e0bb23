"""Test-only state helpers on top of the library's ``hilbert`` namespace.

``import hilbert_testing as hilbert`` gives every public name of
``invinsert.hilbert`` plus the references the tests compare against: a
basis-tagged state of all 2N amplitudes, the doubled oracle signs, the
unitary transforms, the translation operator, the closed-form momentum
matrix element, the measurement targets, a single-answer schedule run,
the brute-force run of every answer, a counter of the rows the library
runner runs, random states and schedules, greedy's states, and the inner
product.  The library itself computes on plain arrays of the N live
amplitudes, and a schedule is its (k, 2N) array of phase stages.
"""

from dataclasses import dataclass
from typing import Iterator

import numpy as np

import invinsert.hilbert
from invinsert.hilbert import *  # noqa: F401,F403 - the library namespace
from invinsert.hilbert import oracle_image, oracle_signs, reduce_phases, run_signs

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


def doubled_signs(j, n: int) -> np.ndarray:
    """F_j(x) on positions 0..2N-1: f_j, then -f_j; one row per index."""
    f = oracle_signs(j, n)
    return np.concatenate([f, -f], axis=-1)


def doubled_state(half: np.ndarray, ell: int) -> np.ndarray:
    """All 2N position amplitudes of a state after ell queries from its
    psi(x), x < N: psi(x + N) = (-1)^ell psi(x)."""
    return np.concatenate([half, -half if ell % 2 else half], axis=-1)


def apply_oracle(j: int, state: StateVector) -> StateVector:
    """Multiply position amplitudes by F_j(x); one quantum query."""
    if state.basis != POSITION:
        raise ValueError("apply_oracle expects a position-basis state")
    return StateVector(state.n, POSITION, doubled_signs(j, state.n) * state.amps)


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


def run_schedule(stages: np.ndarray, j: int) -> tuple[StateVector, float]:
    """One answer through the library runner: the final position state,
    rebuilt to all 2N amplitudes, and its success probability, the overlap
    with the target of sign (-1)^k."""
    k, n = stages.shape[0], stages.shape[1] // 2
    final = StateVector(n, POSITION, doubled_state(run_signs(stages, oracle_signs(j, n)), k))
    return final, abs(inner(target_state(j, (-1) ** k, n), final)) ** 2


ANSWER_BLOCK_AMPS = 1 << 16  # bounds the memory of a batch of answers at any N


def run_all_answers(stages: np.ndarray, js=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The brute-force reference for ``run_answer_zero``: run the schedule
    against the oracles F_j for the answers ``js`` (default every
    j = 0..N-1), yielding (final position amplitudes psi(x), x < N, success
    probabilities) per block of answers.  Answer j's target is
    (|j> + (-1)^k |j+N>) / sqrt(2), so its success is 2 |psi(j)|^2."""
    n = stages.shape[1] // 2
    js = np.arange(n) if js is None else np.asarray(js, dtype=np.int64)
    step = max(1, ANSWER_BLOCK_AMPS // (2 * n))
    for lo in range(0, js.size, step):
        block = js[lo : lo + step]
        finals = run_signs(stages, oracle_signs(block, n))
        yield finals, 2 * np.abs(finals[np.arange(block.size), block]) ** 2


def count_rows(monkeypatch) -> list:
    """Count the oracle rows every call of the library's ``run_signs`` runs."""
    rows = []
    library_run = invinsert.hilbert.run_signs

    def counted(stages, signs):
        rows.append(int(np.prod(np.shape(signs)[:-1])))
        return library_run(stages, signs)

    monkeypatch.setattr(invinsert.hilbert, "run_signs", counted)
    return rows


def random_state(n: int, rng: np.random.Generator, basis: str = POSITION) -> StateVector:
    """A Haar-ish random unit vector, for tests and property checks."""
    amps = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, basis, amps)


def random_schedule(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random phase stages, reduced and read-only as the library's
    schedules are, for covariance property checks."""
    stages = reduce_phases(rng.uniform(0, 2 * np.pi, (k, 2 * n)))
    stages.setflags(write=False)
    return stages


def greedy_states(n: int, k: int) -> list[np.ndarray]:
    """The reference for the states ``greedy_run`` passes through:
    ``states[l]`` the N real, nonnegative momentum amplitudes of parity
    l mod 2 after l greedy stages, the magnitudes of the oracle image of
    ``states[l - 1]``, from the start state [1, 0, ..., 0]."""
    states = [np.eye(1, n)[0]]
    for ell in range(1, k + 1):
        states.append(np.abs(oracle_image(states[-1], ell - 1)))
    return states


def oracle_momentum_matrix(n: int) -> np.ndarray:
    """Full 2N x 2N momentum-basis matrix of F_0 from the closed form."""
    d = (np.arange(2 * n)[None, :] - np.arange(2 * n)[:, None]) % (2 * n)
    ang = np.pi * d / (2 * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 1j * np.exp(-1j * ang) / (n * np.sin(ang))
    m[d % 2 == 0] = 0
    return m


def oracle_momentum_block(n: int, parity: int) -> np.ndarray:
    """The N x N block of :func:`oracle_momentum_matrix` from parity
    ``parity`` to parity 1 - parity: the dense reference for
    ``oracle_image(amps, parity)``."""
    return oracle_momentum_matrix(n)[1 - parity :: 2, parity::2]


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> for two states expressed in the same basis."""
    if a.basis != b.basis or a.n != b.n:
        raise ValueError("states must share problem size and basis")
    return complex(np.vdot(a.amps, b.amps))
