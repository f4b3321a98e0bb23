"""Overlap bound for invariant algorithms and the query count it implies.

The target overlap after l queries of any invariant algorithm is at most
(1/sqrt(N)) S^l where S = (1/N) sum over odd p of 1/sin(pi p / 2N).  The sum
has the closed-form approximation (2/pi)(ln N + gamma + ln(8/pi)), accurate
to O(1/N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

EULER_GAMMA = 0.5772156649015329


class HarmonicSum(NamedTuple):
    exact: float
    approx: float


@dataclass(frozen=True)
class BoundReport:
    n: int
    epsilon: float
    per_ell: np.ndarray          # overlap bound for l = 0..min_queries
    min_queries: int
    asymptotic: Optional[float]  # ln N / (2 ln ln N); None below n = 16
    asymptotic_log2: Optional[float]
    harmonic: HarmonicSum


def harmonic_sum(n: int) -> HarmonicSum:
    """Exact inverse-sine sum and its logarithmic approximation."""
    if n < 2:
        raise ValueError(f"problem size must be >= 2, got {n}")
    p = np.arange(1, 2 * n, 2)
    exact = float(np.sum(1.0 / np.sin(np.pi * p / (2 * n)))) / n
    approx = (2 / math.pi) * (math.log(n) + EULER_GAMMA + math.log(8 / math.pi))
    return HarmonicSum(exact=exact, approx=approx)


def bound_report(n: int, epsilon: float = 1.0) -> BoundReport:
    """The per-stage bounds S^l / sqrt(N) up to the smallest k whose squared
    bound reaches epsilon, and both log conventions of the asymptotic
    estimate ln N / (2 ln ln N), reported only for n >= 16 where ln ln N is
    comfortably positive."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    hs = harmonic_sum(n)
    bound = 1.0 / math.sqrt(n)
    k_min = 0
    while bound * bound < epsilon:
        bound *= hs.exact
        k_min += 1
    per_ell = hs.exact ** np.arange(k_min + 1) / math.sqrt(n)
    if n >= 16:
        asymptotic = math.log(n) / (2 * math.log(math.log(n)))
        log2n = math.log2(n)
        asymptotic_log2 = log2n / (2 * math.log2(log2n))
    else:
        asymptotic = asymptotic_log2 = None
    return BoundReport(
        n=n,
        epsilon=epsilon,
        per_ell=per_ell,
        min_queries=k_min,
        asymptotic=asymptotic,
        asymptotic_log2=asymptotic_log2,
        harmonic=hs,
    )
