"""Oracle and schedule runner for the doubled insertion problem.

The insertion problem with N slots is simulated on a 2N-dimensional space.
Position basis vectors |x>, x = 0..2N-1, carry the doubled step function

    F_j(x) = f_j(x)        for 0 <= x <= N-1,   f_j(x) = -1 if x < j else +1
    F_j(x) = -f_j(x - N)   for N <= x <= 2N-1

so all F_j are cyclic translates of F_0.  The momentum basis is the unitary
Fourier basis <x|p> = exp(+i p x pi / N) / sqrt(2N), so momentum amplitudes
are ``np.fft.fft(position, norm="ortho")``; the translation operator is
diagonal there, and the inter-query unitaries of an invariant algorithm are
diagonal phase stages alpha_l(p).

A state is a plain complex array whose last axis holds the 2N amplitudes;
leading axes are separate states.  Every schedule run goes through
``run_signs``, and every function returns fresh arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SchemaError


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
        n = SchemaError.require_int(data, "n", "schedule")
        k = SchemaError.require_int(data, "k", "schedule")
        try:
            stages = np.asarray(data["stages"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed schedule document: {exc}") from exc
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


def target_probs(amps: np.ndarray, k: int) -> np.ndarray:
    """|<target(j)|psi>|^2 = |<j|psi> + s <j+N|psi>|^2 / 2, for every answer
    j = 0..N-1 in place of the last (position) axis; the target sign s after
    k queries is + for even k and - for odd."""
    n = amps.shape[-1] // 2
    sign = 1 if k % 2 == 0 else -1
    return np.abs(amps[..., :n] + sign * amps[..., n:]) ** 2 / 2


def run_signs(stages: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Final position amplitudes of the phase stages run from the uniform
    start against the oracles whose position signs are the rows of ``signs``
    (shape (..., 2N)): each stage is the oracle, then exp(i alpha(p))."""
    signs = np.asarray(signs, dtype=float)
    amps = np.full(signs.shape, 1.0 / np.sqrt(signs.shape[-1]), dtype=complex)
    for stage in stages:  # in place where it can: blocks of answers are large
        amps = np.fft.fft(np.multiply(amps, signs, out=amps))
        amps = np.fft.ifft(np.multiply(amps, np.exp(1j * stage), out=amps))
    return amps


ANSWER_BLOCK_AMPS = 1 << 16  # bounds the memory of a batch of answers at any N


def run_all_answers(schedule: PhaseSchedule) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Run the schedule against every oracle F_j, j = 0..N-1, yielding
    (final position amplitudes, success probabilities) per block of answers."""
    n = schedule.n
    step = max(1, ANSWER_BLOCK_AMPS // (2 * n))
    for lo in range(0, n, step):
        js = np.arange(lo, min(lo + step, n))
        finals = run_signs(schedule.stages, oracle_signs(js, n))
        yield finals, target_probs(finals, schedule.k)[js - lo, js]
