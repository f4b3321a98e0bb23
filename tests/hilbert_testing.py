"""Test-only state helpers on top of the library's ``hilbert`` namespace.

``import hilbert_testing as hilbert`` gives every public name of
``invinsert.hilbert`` plus the random states and schedules, the dense
momentum matrix and the inner product that only the tests use.
"""

import numpy as np

from invinsert.hilbert import *  # noqa: F401,F403 - the library namespace
from invinsert.hilbert import POSITION, PhaseSchedule, StateVector


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
