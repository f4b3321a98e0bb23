"""State space, oracle, and schedule runner for the doubled insertion problem.

The insertion problem with N slots is simulated on a 2N-dimensional space.
Position basis vectors |x>, x = 0..2N-1, carry the doubled step function

    F_j(x) = f_j(x)        for 0 <= x <= N-1,   f_j(x) = -1 if x < j else +1
    F_j(x) = -f_j(x - N)   for N <= x <= 2N-1

so all F_j are cyclic translates of F_0.  The momentum basis is the unitary
Fourier basis <x|p> = exp(+i p x pi / N) / sqrt(2N); the translation operator
is diagonal there, and the inter-query unitaries of an invariant algorithm
are diagonal phase stages alpha_l(p).

Every function here is pure: states are immutable and all operations return
fresh arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SchemaError

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
            raise ValueError(
                f"expected {2 * self.n} amplitudes, got shape {amps.shape}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class PhaseSchedule:
    """Per-stage diagonal phases alpha_l(p); the portable algorithm artifact.

    ``stages[l - 1][p]`` holds the phase applied at momentum p after the l-th
    query.  Phases are stored in radians, reduced to [0, 2pi).
    """

    n: int
    k: int
    stages: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"problem size must be >= 2, got {self.n}")
        if self.k < 1:
            raise ValueError(f"query count must be >= 1, got {self.k}")
        stages = np.asarray(self.stages, dtype=float)
        if stages.shape != (self.k, 2 * self.n):
            raise SchemaError(
                f"expected stage array of shape {(self.k, 2 * self.n)}, "
                f"got {stages.shape}"
            )
        if not np.all(np.isfinite(stages)):
            raise SchemaError("phases must be finite")
        stages = reduce_phases(stages)
        stages.setflags(write=False)
        object.__setattr__(self, "stages", stages)

    def to_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "stages": self.stages.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseSchedule":
        if not isinstance(data, dict):
            raise SchemaError("schedule document must be a JSON object")
        missing = {"n", "k", "stages"} - set(data)
        if missing:
            raise SchemaError(f"schedule document missing fields {sorted(missing)}")
        try:
            n = int(data["n"])
            k = int(data["k"])
            stages = np.asarray(data["stages"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed schedule document: {exc}") from exc
        if stages.ndim != 2 or stages.shape != (k, 2 * n):
            raise SchemaError(
                f"stages must be a {k} x {2 * n} array, got shape {stages.shape}"
            )
        try:
            return cls(n=n, k=k, stages=stages)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc


def save_schedule(schedule: PhaseSchedule, path) -> None:
    with open(path, "w") as fh:
        json.dump(schedule.to_dict(), fh)
        fh.write("\n")


def load_schedule(path) -> PhaseSchedule:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return PhaseSchedule.from_dict(data)


def reduce_phases(phases: np.ndarray) -> np.ndarray:
    """Reduce to [0, 2pi); values within 1e-9 of the branch point become 0."""
    out = np.mod(phases, 2 * np.pi)
    return np.where(2 * np.pi - out < 1e-9, 0.0, out)


def uniform_start(n: int) -> StateVector:
    """The equal-superposition start state over all 2N positions."""
    if n < 2:
        raise ValueError(f"problem size must be >= 2, got {n}")
    amps = np.full(2 * n, 1.0 / np.sqrt(2 * n), dtype=complex)
    return StateVector(n=n, basis=POSITION, amps=amps)


def oracle_signs(j, n: int) -> np.ndarray:
    """Sign vector of the doubled oracle F_j on positions 0..2N-1; an array
    of indices gives one row per index."""
    js = np.asarray(j)
    if np.any((js < 0) | (js > n - 1)):
        raise ValueError(f"oracle index must satisfy 0 <= j <= {n - 1}, got {j}")
    f = np.where(np.arange(n) < js[..., None], -1.0, 1.0)
    return np.concatenate([f, -f], axis=-1)


def oracle_image(amps: np.ndarray, n: int) -> np.ndarray:
    """Momentum amplitudes of F_0 |psi> from those of |psi> (last axis);
    the 1/sqrt(2N) factors of the two transforms cancel."""
    return np.fft.fft(oracle_signs(0, n) * np.fft.ifft(amps))


def apply_oracle(j: int, state: StateVector) -> StateVector:
    """Multiply position amplitudes by F_j(x); one quantum query.

    Momentum-basis input is converted to position, flipped, and converted
    back, so the returned state keeps the input basis.
    """
    signs = oracle_signs(j, state.n)
    if state.basis == MOMENTUM:
        return StateVector(state.n, MOMENTUM, np.fft.fft(signs * np.fft.ifft(state.amps)))
    return StateVector(state.n, POSITION, signs * state.amps)


def to_momentum(state: StateVector) -> StateVector:
    """Unitary transform <p|psi> = sum_x exp(-i p x pi/N) <x|psi> / sqrt(2N)."""
    if state.basis != POSITION:
        raise ValueError("to_momentum expects a position-basis state")
    amps = np.fft.fft(state.amps) / np.sqrt(2 * state.n)
    return StateVector(state.n, MOMENTUM, amps)


def to_position(state: StateVector) -> StateVector:
    """Inverse of :func:`to_momentum`."""
    if state.basis != MOMENTUM:
        raise ValueError("to_position expects a momentum-basis state")
    amps = np.fft.ifft(state.amps) * np.sqrt(2 * state.n)
    return StateVector(state.n, POSITION, amps)


def translate(state: StateVector, t: int) -> StateVector:
    """Apply T^t: cyclic shift by t in position, phase exp(-i p t pi/N) in momentum."""
    n = state.n
    if state.basis == POSITION:
        return StateVector(n, POSITION, np.roll(state.amps, t))
    p = np.arange(2 * n)
    return StateVector(n, MOMENTUM, state.amps * np.exp(-1j * np.pi * p * t / n))


def oracle_momentum_element(p: int, q: int, n: int) -> complex:
    """Closed-form momentum matrix element <p|F_0|q>.

    Nonzero only for odd q - p, where it equals
    i exp(-i pi d / 2N) / (N sin(pi d / 2N)) with d = (q - p) mod 2N; the
    expression is invariant under d -> d + 2N, so the representative choice
    does not matter.
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
    if not 0 <= j <= n - 1:
        raise ValueError(f"target index must satisfy 0 <= j <= {n - 1}, got {j}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    amps = np.zeros(2 * n, dtype=complex)
    amps[j] = 1 / np.sqrt(2)
    amps[j + n] = sign / np.sqrt(2)
    return StateVector(n, POSITION, amps)


def apply_momentum_phases(state: StateVector, phases: np.ndarray) -> StateVector:
    """Apply the diagonal stage exp(i alpha(p)); keeps the input basis."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (2 * state.n,):
        raise SchemaError(
            f"expected {2 * state.n} phases, got shape {phases.shape}"
        )
    if state.basis == POSITION:
        amps = np.fft.ifft(np.exp(1j * phases) * np.fft.fft(state.amps))
        return StateVector(state.n, POSITION, amps)
    return StateVector(state.n, MOMENTUM, np.exp(1j * phases) * state.amps)


def final_sign(k: int) -> int:
    """Target sign after k queries: + for even k, - for odd."""
    return 1 if k % 2 == 0 else -1


def target_probs(amps: np.ndarray, k: int) -> np.ndarray:
    """|<target(j)|psi>|^2 = |<j|psi> + s <j+N|psi>|^2 / 2, s = final_sign(k),
    for every answer j = 0..N-1 in place of the last (position) axis."""
    n = amps.shape[-1] // 2
    return np.abs(amps[..., :n] + final_sign(k) * amps[..., n:]) ** 2 / 2


def run_signs(stages: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Final position amplitudes of the phase stages run from the uniform
    start against the oracles whose position signs are the rows of ``signs``
    (shape (..., 2N)): each stage is the oracle, then exp(i alpha(p))."""
    signs = np.asarray(signs, dtype=float)
    amps = np.full(signs.shape, 1.0 / np.sqrt(signs.shape[-1]), dtype=complex)
    for stage in stages:
        amps = np.fft.ifft(np.exp(1j * stage) * np.fft.fft(signs * amps))
    return amps


def run_schedule(schedule: PhaseSchedule, j: int) -> tuple[StateVector, float]:
    """Run the schedule against oracle F_j from the uniform start state.

    Alternates the oracle with each diagonal phase stage and returns the
    final position-basis state together with its success probability
    |<target(j)|psi_k>|^2, the target sign being fixed by the parity of k.
    """
    final = run_signs(schedule.stages, oracle_signs(j, schedule.n))
    prob = float(target_probs(final, schedule.k)[j])
    return StateVector(schedule.n, POSITION, final), prob


ANSWER_BLOCK_AMPS = 1 << 18  # bounds the memory of a batch of answers at any N


def run_all_answers(schedule: PhaseSchedule) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Run the schedule against every oracle F_j, j = 0..N-1, yielding
    (final position amplitudes, success probabilities) per block of answers."""
    n = schedule.n
    step = max(1, ANSWER_BLOCK_AMPS // (2 * n))
    for lo in range(0, n, step):
        js = np.arange(lo, min(lo + step, n))
        finals = run_signs(schedule.stages, oracle_signs(js, n))
        yield finals, target_probs(finals, schedule.k)[js - lo, js]


def parity_masses(state: StateVector) -> tuple[float, float]:
    """Squared amplitude mass on even and odd momenta (diagnostic)."""
    if state.basis != MOMENTUM:
        state = to_momentum(state)
    mags = np.abs(state.amps) ** 2
    return float(mags[0::2].sum()), float(mags[1::2].sum())


def momentum_basis_vector(n: int, p: int) -> StateVector:
    amps = np.zeros(2 * n, dtype=complex)
    amps[p] = 1.0
    return StateVector(n, MOMENTUM, amps)
