"""Turn a feasible series chain into an executable phase schedule.

Pipeline per stage l:

1. ``q_from_chain``  - assemble Q_l(z) = 1 + A_l + B_l with cos(r theta)
   split as (z^r + z^-r) / 2.
2. ``spectral_factor`` - write Q_l = P_l(z) conj(P_l(1/conj(z))) on |z| = 1,
   with P's zeros in the open unit disk, and return P's coefficients.
3. ``states_from_poly`` - read the stage state's position amplitudes
   psi(x), x < N, off P's coefficients.
4. ``phases_from_states`` - the diagonal stage is the phase of
   <p|psi_l> / <p|F_0|psi_{l-1}> on parity l mod 2.

P is the plain array of its N coefficients in ascending powers, and Q the
plain array of its N coefficients q_0..q_{N-1}: q_{-r} = conj(q_r) is
implied, so Q is Hermitian, and real on the circle, by construction.

As in ``hilbert``, a state after l queries is a plain array of N amplitudes
and l carries the parity: psi(x), x < N, in position, since
psi(x + N) = (-1)^l psi(x), and the N momenta of parity l mod 2, one
length-N FFT away.

Numerical notes: Q must be positive on the circle, and is factored by
Kolmogorov's minimum-phase construction, H = exp(causal part of log Q)
(Sayed & Kailath, "A survey of spectral factorization methods", Numer.
Linear Algebra Appl. 8, 2001).  H's first N coefficients need only the
first N cepstral coefficients, which an FFT of log Q on a grid gives, and a
power-series exponential turns them into h_0..h_{N-1} exactly.  The grid
doubles until two successive grids agree within FACTOR_GRID_TOL, up to a
cap of the first grid << LADDER_RUNGS and at most FFT_MAX_SIZE points.
Every chain's Q has real coefficients, so Q is even on the circle: each
doubling evaluates Q only at the new odd points that are distinct up to
mirroring, with quarter-length real FFTs (Makhoul's fast cosine
transforms, IEEE TASSP 28, 1980); complex Q takes all the new odd points.
A few convolutions give the change in h between two grids, and only the
accepted grid takes the series exponential again.  Zeros on the circle, as
in the start polynomial's squared magnitude, make log Q singular and keep
the grids apart up to the cap, where the factor raises FactorizationError.
|P|^2 - Q is then checked against FACTOR_GRID_TOL on 64N points of the
circle, from its coefficients.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from . import hilbert
from .errors import ContractError, FactorizationError
from .exact import INFEASIBLE, build_chain, certify_chain, default_grid

FACTOR_GRID_TOL = 1e-8
FFT_MIN_SIZE = 1 << 10  # the first grid the factor may stop on is max(this, 16N)
FFT_MAX_SIZE = 1 << 23  # points, 64 MB a real array: no grid is finer
LADDER_RUNGS = 10       # times the grid may double; (450,4) stage 1 takes 8
ZERO_AMP_TOL = 1e-12    # arbitrary-phase threshold in phase extraction
MAGNITUDE_TOL = 1e-8    # stage state vs oracle image, momentum by momentum


def q_from_chain(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q's coefficients q_0..q_{N-1} for a chain stage's 1 + A(theta) + B(theta):
    q_0 = 1 and q_r = (a_r + b_r) / 2, with q_{-r} = conj(q_r) implied."""
    return np.r_[1.0, (a + b) / 2]


def _circle_values(q: np.ndarray, grid: int) -> np.ndarray:
    """Q(e^{i theta}) at theta = 2 pi m / grid, m = 0..grid-1: with
    q_{-r} = conj(q_r), the inverse real FFT of q_0..q_{N-1}."""
    if grid < 2 * len(q) - 1:
        raise ValueError(f"{grid} angles fold {len(q) - 1} harmonics")
    return np.fft.irfft(q, grid) * grid


def _series_exp(c: np.ndarray) -> np.ndarray:
    """The first len(c) coefficients of H = exp(sum_j c_j z^j).

    H' = C' H gives m h_m = sum_{j=1..m} j c_j h_{m-j}, so h_m needs only
    c_0..c_m.
    """
    jc = np.arange(len(c)) * c
    h = np.empty_like(c)
    h[0] = np.exp(c[0])
    for m in range(1, len(c)):
        h[m] = jc[1:m + 1] @ h[m - 1::-1] / m
    return h


def _exp_change(h: np.ndarray, c: np.ndarray, new: np.ndarray) -> np.ndarray:
    """exp(new) - h mod z^N for h = exp(c): the Taylor terms h dc^t / t! of
    h (exp(dc) - 1), dc = new - c, by convolution.  With x = ||dc||_1 < 1 the
    terms after the t-th sum to at most ||term_t||_1 r / (1 - r),
    r = x / (t + 1), and the sum stops once that is below rounding; a larger
    dc would make the terms cancel, so it takes the series exponential."""
    dc = new - c
    x = np.abs(dc).sum()
    if not x < 1:
        return _series_exp(new) - h
    floor = np.finfo(float).eps * np.abs(h).sum()
    term, change, t = h, 0.0, 1
    while True:
        term = np.convolve(term, dc)[:len(h)] / t
        change = change + term
        r = x / (t + 1)
        if np.abs(term).sum() * r <= floor * (1 - r):
            return change
        t += 1


def _log(values: np.ndarray, grid: int) -> np.ndarray:
    """log Q in place, for Q's values at points of the ``grid``-point grid;
    FactorizationError naming the grid and Q's least value where Q <= 0."""
    least = values.min()
    if not least > 0:
        raise FactorizationError(
            f"Q is not positive on the {grid}-point grid: its least value there is {least:.3e}"
        )
    return np.log(values, out=values)


def _odd_point_sums(q: np.ndarray, grid: int) -> np.ndarray:
    """sum log Q(theta) e^{-i j theta}, j < N, over the odd points
    theta = 2 pi (2m + 1) / grid, a grid of grid/2 turned by 2 pi / grid.
    Real q_0..q_{N-1} make Q even, and point 4m + 1 mirrors to
    grid - 4m - 1, which is 3 mod 4: the points 4m + 1, a grid of grid/4,
    hold one of each pair (Makhoul's DCT-III and DCT-II, their permutations
    cancelled), and the sums are real.  Complex q takes all grid/2 points."""
    complex_q = np.iscomplexobj(q)
    points = grid // 2 if complex_q else grid // 4
    turn = np.exp(2j * np.pi / grid * np.arange(len(q)))
    values = _circle_values(turn * q, points)
    sums = np.conj(turn) * np.fft.rfft(_log(values, grid))[:len(q)]
    return sums if complex_q else 2 * sums.real


def _cepstral_factor(q: np.ndarray) -> np.ndarray:
    """Kolmogorov's minimum-phase factor: H = exp(causal part of log Q).

    H(z) = sum_n h_n z^n has no zeros in the disk, so the returned
    coefficients conj(h[:N])[::-1] put P's zeros inside it.  On a grid of S
    points, c = rfft(log Q)[:N] / S with c_0 halved are the cepstral
    coefficients up to aliasing, and ``_series_exp`` gives h[:N] from them.
    The grid doubles from the first rung, half of max(FFT_MIN_SIZE, 16N),
    and stops on the first S whose h[:N] is within FACTOR_GRID_TOL of the
    S/2 grid's, the coefficient error of the S/2 grid.  A grid's even points
    are the last grid, so each later rung evaluates Q only at its odd points
    (``_odd_point_sums``: S/4 of them for real q), and ``_exp_change``
    carries h to it by convolutions; the accepted grid's h is the series
    exponential of its c.  Q = 1, the last stage of every chain, stops on
    the first rung.  The grid grows to at most the first rung
    << LADDER_RUNGS, and never past FFT_MAX_SIZE.  Raises
    FactorizationError where Q <= 0 on a grid, as for Q = 0, and at that
    cap, as for zeros on the circle, which keep log Q's coefficients from
    decaying.
    """
    n = len(q)
    if not q[1:].imag.any():
        q = q.real  # the circle values drop Im q_0
    size = max(FFT_MIN_SIZE, 1 << (16 * n - 1).bit_length()) // 2
    cap = min(FFT_MAX_SIZE, size << LADDER_RUNGS)
    if size >= cap:
        raise FactorizationError(
            f"the ladder's first grid, {size} points, leaves no finer grid "
            f"within FFT_MAX_SIZE = {FFT_MAX_SIZE} points"
        )
    log_q = _log(_circle_values(q, size), size)
    if not log_q.any():
        # log Q = 0 at all of the first grid's >= 8N points, more than the
        # 2N - 2 zeros Q - 1 can have, so Q = 1 and P = z^(N-1) is exact
        return np.eye(1, n, n - 1)[0]
    sums = np.fft.rfft(log_q)[:n]
    if not np.iscomplexobj(q):
        sums = sums.real
    c = sums / size
    c[0] /= 2
    h = _series_exp(c)
    while size < cap:
        size *= 2
        sums = sums + _odd_point_sums(q, size)
        new = sums / size
        new[0] /= 2
        change = _exp_change(h, c, new)
        moved = np.max(np.abs(change))
        # the |P|^2 - Q gate alone can pass while P's coefficients are
        # still off; the change from the coarser grid tracks their error
        if moved <= FACTOR_GRID_TOL:
            return np.conj(_series_exp(new))[::-1]
        h, c = h + change, new
    raise FactorizationError(
        f"the cepstral factor's coefficients still change by {moved:.3e} on the "
        f"{size}-point grid, the ladder's cap"
    )


def spectral_factor(q: np.ndarray) -> np.ndarray:
    """Factor Q(z) = P(z) conj(P(1/conj(z))) with |P|^2 = Q on the circle.

    Q is given by its real or complex coefficients q_0..q_{N-1},
    q_{-r} = conj(q_r) implied, so it is real on the circle when q_0 is,
    and it must be positive there.  Returns P's N complex coefficients,
    ``coeffs[i]`` multiplying z^i, from the cepstral factor.  P has its
    zeros in the open unit disk and a real positive leading coefficient, so
    Q = 1 factors as z^(N-1).

    Raises ValueError unless q is 1-D with at least 2 coefficients,
    ContractError for coefficients that are not finite or for
    |Im q_0| > 1e-10 max(1, max |q_r|), and FactorizationError where Q is
    not positive on a grid of the cepstral factor, where its grids still
    disagree at their cap, as for zeros on the circle, or when |P|^2 misses
    Q on the 64N-point grid by more than FACTOR_GRID_TOL.  That check forms
    |P|^2's coefficients in Q's layout and evaluates |P|^2 - Q from them.
    """
    q = np.asarray(q)
    if q.ndim != 1 or len(q) < 2:
        raise ValueError(f"expected at least 2 coefficients in a 1-D array, got shape {q.shape}")
    if not np.isfinite(q).all() or abs(q[0].imag) > 1e-10 * max(1.0, np.abs(q).max()):
        raise ContractError("coefficients are not finite or q_0 is not real")
    n = len(q)
    coeffs = np.asarray(_cepstral_factor(q), dtype=complex)
    # |P|^2's coefficients r_j = sum_i p_{i+j} conj(p_i), j < N, in Q's
    # layout: the autocorrelation, by one FFT of 4N points (any length of at
    # least 2N - 1 keeps the lags -(N-1)..N-1 apart)
    r = np.fft.ifft(np.abs(np.fft.fft(coeffs, 4 * n)) ** 2)[:n]
    mismatch = float(np.max(np.abs(_circle_values(r - q, 64 * n))))
    if mismatch > FACTOR_GRID_TOL:
        raise FactorizationError(
            f"|P|^2 deviates from Q by {mismatch:.3e} on the circle"
        )
    return coeffs


def states_from_poly(coeffs: np.ndarray) -> np.ndarray:
    """Position amplitudes psi(x) = coeff(z^{N-1-x}) / sqrt(2), x < N, of a
    unit state whose upper half psi(x + N) = (-1)^l psi(x) is left implicit,
    from P's coefficients in ascending powers."""
    amps = coeffs[::-1] / np.sqrt(2)
    norm = float(np.sqrt(2) * np.linalg.norm(amps))
    if abs(norm - 1) > 1e-6:
        raise ContractError(
            f"state norm {norm} deviates from 1; the factorization is bad"
        )
    return amps / norm


def phases_from_states(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Diagonal phases turning the oracle image phi = F_0 |psi_{l-1}> into
    |psi_l>, both given as their N momentum amplitudes of parity l mod 2.

    Where the oracle image vanishes the phase is arbitrary and reported as
    0.  Raises ContractError unless exp(i alpha) phi rebuilds psi within
    MAGNITUDE_TOL, which also bounds |<p|psi>| - |<p|phi>|.
    """
    if phi.shape != psi.shape:
        raise ValueError("states must share the same problem size")
    phases = np.zeros(psi.shape)
    live = np.abs(phi) > ZERO_AMP_TOL
    phases[live] = hilbert.reduce_phases(np.angle(psi[live] / phi[live]))
    err = float(np.max(np.abs(np.exp(1j * phases) * phi - psi)))
    if err > MAGNITUDE_TOL:
        raise ContractError(
            f"the stage state differs from the phased oracle image by {err:.3e}; "
            "the Q sequence is invalid"
        )
    return phases


def v_column(phases: np.ndarray) -> np.ndarray:
    """<x|V|0> for x = 0..2N-1 on the last axis, a column per row of 2N
    phases; the full matrix is the cyclic shift family
    <x|V|y> = <x-y|V|0> mod 2N."""
    return np.fft.ifft(np.exp(1j * np.asarray(phases, dtype=float)))


def schedule_report(stages: np.ndarray) -> tuple[np.ndarray, dict]:
    """Answer 0's final position amplitudes (``hilbert.run_answer_zero``) and
    the report fields of the (k, 2N) schedule ``stages``: n, k, every
    answer's success probability, which is 2 |psi_0(0)|^2 for all of them,
    and its minimum.  The V columns are a function of the stages alone, so
    the report leaves them out; ``v_column(stages)`` gives them."""
    k, width = np.shape(stages)
    n = width // 2
    final = hilbert.run_answer_zero(stages)
    success = np.full(n, 2 * abs(final[0]) ** 2)
    return final, {
        "n": n,
        "k": k,
        "success_probs": success,
        "min_success_prob": float(success.min()),
    }


def synthesize_exact(
    n: int,
    k: int,
    free: Optional[Mapping[str, np.ndarray]] = None,
    grid_points: Optional[int] = None,
) -> tuple[np.ndarray, dict]:
    """Build and verify the exact k-query schedule from a feasible chain.

    Returns the read-only (k, 2N) schedule plus a verification report with
    ``schedule_report``'s fields, the worst pairwise overlap of the final
    states, and the per-stage magnitude mismatch.
    Answer j ends in T^j psi_0 (``hilbert.run_answer_zero``), so every
    success is 2 |psi_0(0)|^2; the overlaps are the FFT of its momentum weights.
    Factorization or magnitude failures raise with the stage number.
    """
    chain = build_chain(n, k, free)
    grid = default_grid(n) if grid_points is None else grid_points
    certificates = certify_chain(chain, grid)
    for ell, cert in certificates.items():
        if cert.verdict == INFEASIBLE:
            raise ContractError(
                f"stage {ell} positivity fails: grid minimum {cert.grid_min:.3e}"
            )

    psi_prev = np.zeros(n, dtype=complex)
    psi_prev[0] = 1.0  # the uniform start state is momentum p = 0
    magnitude_mismatch = []
    stages = np.zeros((k, 2 * n))
    untwist = hilbert._twist(n).conj()
    for ell in range(1, k + 1):
        odd = ell % 2
        try:
            psi = states_from_poly(spectral_factor(q_from_chain(*chain[ell])))
        except (FactorizationError, ContractError) as exc:
            raise type(exc)(f"stage {ell}: {exc}") from exc
        phi = hilbert.oracle_image(psi_prev, ell - 1)
        # the global phase: psi's largest position amplitude, psi(x), takes
        # the phase of phi's, the sum over p = 2m + odd of
        # exp(i pi p x / N) phi(p) / sqrt(2N)
        x = int(np.argmax(np.abs(psi)))
        p = 2 * np.arange(n) + odd
        ref = np.exp(1j * np.pi * (p * x % (2 * n)) / n) @ phi / np.sqrt(2 * n)
        gamma = (np.angle(ref) if abs(ref) > 1e-9 else 0.0) - np.angle(psi[x])
        # <p|psi> = sqrt(2/N) sum_{x<N} exp(-i pi p x / N) psi(x): one length-N FFT
        psi_mom = np.fft.fft(
            np.sqrt(2) * np.exp(1j * gamma) * (untwist * psi if odd else psi), norm="ortho"
        )
        magnitude_mismatch.append(float(np.max(np.abs(np.abs(psi_mom) - np.abs(phi)))))
        try:
            stages[ell - 1, odd::2] = phases_from_states(phi, psi_mom)
        except ContractError as exc:
            raise ContractError(f"stage {ell}: {exc}") from exc
        psi_prev = psi_mom

    stages.setflags(write=False)
    final, report = schedule_report(stages)
    weights = 2 / n * np.abs(np.fft.fft(untwist * final if k % 2 else final)) ** 2
    overlaps = np.abs(np.fft.fft(weights))
    report.update(
        exact=bool(report["min_success_prob"] >= 1 - 1e-9),
        max_pairwise_overlap=float(overlaps[1:].max()),
        max_v_imag=float(np.abs(v_column(stages).imag).max()),
        magnitude_mismatch=magnitude_mismatch,
        certificates={str(ell): c.to_dict() for ell, c in certificates.items()},
    )
    return stages, report
