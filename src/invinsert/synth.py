"""Turn a feasible series chain into an executable phase schedule.

Pipeline per stage l:

1. ``q_from_chain``  - assemble Q_l(z) = 1 + A_l + B_l with cos(r theta)
   split as (z^r + z^-r) / 2.
2. ``spectral_factor`` - write Q_l = P_l(z) conj(P_l(1/conj(z))) on |z| = 1,
   with P's zeros in the closed unit disk, and return P's coefficients.
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

Numerical notes: Q positive on the circle is factored by Kolmogorov's
minimum-phase construction, H = exp(causal part of log Q) (Sayed & Kailath,
"A survey of spectral factorization methods", Numer. Linear Algebra Appl. 8,
2001).  H's first N coefficients need only the first N cepstral
coefficients, which a real FFT of log Q on a grid gives, and a power-series
exponential turns them into h_0..h_{N-1} exactly.  The grid doubles until
two successive grids agree within FACTOR_GRID_TOL.  Every chain's Q has real
coefficients, so Q is even on the circle: each doubling evaluates Q only at
the new odd points that are distinct up to mirroring, with quarter-length
real FFTs (Makhoul's fast cosine transforms, IEEE TASSP 28, 1980).  A few
convolutions give the change in h between two grids, and only the accepted
grid takes the series exponential again.  Zeros on the circle, as in the
start polynomial's squared magnitude, make log Q singular, and zeros near it
keep the grids apart past FFT_MAX_SIZE; such Q, and Q with complex
coefficients, are factored by Wilson's Newton iteration on the equations
sum_j conj(h_j) h_{j+r} = q_r instead, started from a constant.  Either way
|P|^2 - Q is checked on the circle against FACTOR_GRID_TOL.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from . import hilbert
from .errors import ContractError, FactorizationError
from .exact import INFEASIBLE, build_chain, certify_chain, default_grid
from .hilbert import PhaseSchedule

FACTOR_GRID_TOL = 1e-8
FFT_MIN_SIZE = 1 << 10  # the first grid the factor may stop on is max(this, 16N)
FFT_MAX_SIZE = 1 << 18  # points; it doubles up to this cap
NEWTON_STEPS = 100      # cap on Newton factor steps
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


def _odd_point_sums(q: np.ndarray, grid: int) -> Optional[np.ndarray]:
    """sum log Q(theta) e^{-i j theta}, j < N, over the odd points
    theta = 2 pi (2m + 1) / grid, for real q_0..q_{N-1}; None where Q <= 0.
    Such Q is even, and point 4m + 1 mirrors to grid - 4m - 1, which is 3 mod
    4: the points 4m + 1, a grid of grid/4 turned by 2 pi / grid, hold one of
    each pair (Makhoul's DCT-III and DCT-II, their permutations cancelled)."""
    quarter = grid // 4
    turn = np.exp(2j * np.pi / grid * np.arange(len(q)))
    values = np.fft.irfft(turn * q, quarter) * quarter
    if values.min() <= 0:
        return None
    log_q = np.log(values, out=values)
    return 2 * (np.conj(turn) * np.fft.rfft(log_q)[:len(q)]).real


def _cepstral_factor(q: np.ndarray) -> Optional[np.ndarray]:
    """Kolmogorov's minimum-phase factor: H = exp(causal part of log Q).

    H(z) = sum_n h_n z^n has no zeros in the disk, so the returned
    coefficients h[:N][::-1] put P's zeros inside it.  On a grid of S
    points, c = rfft(log Q)[:N] / S with c_0 halved are the cepstral
    coefficients up to aliasing, and ``_series_exp`` gives h[:N] from them.
    The grid doubles from half of max(FFT_MIN_SIZE, 16N) and stops on the
    first S whose h[:N] is within FACTOR_GRID_TOL of the S/2 grid's, the
    coefficient error of the S/2 grid.  A grid's even points are the last
    grid, so each later rung evaluates Q only at the S/4 of its odd points
    that are distinct up to mirroring (``_odd_point_sums``), and
    ``_exp_change`` carries h to it by convolutions; the accepted grid's h
    is the series exponential of its c.  Q = 1, the last stage of every
    chain, stops on the first rung.  Returns None for complex coefficients,
    which no chain makes, for Q not positive on the grid, or at the cap, as
    for zeros on the circle.
    """
    n = len(q)
    size = max(FFT_MIN_SIZE, 1 << (16 * n - 1).bit_length()) // 2
    if size > FFT_MAX_SIZE or q.imag.any():
        return None
    values = _circle_values(q, size)
    if values.min() <= 0:
        return None
    log_q = np.log(values, out=values)
    if not log_q.any():
        # log Q = 0 at all of the first grid's >= 8N points, more than the
        # 2N - 2 zeros Q - 1 can have, so Q = 1 and P = z^(N-1) is exact
        return np.eye(1, n, n - 1)[0]
    sums = np.fft.rfft(log_q)[:n].real
    c = sums / size
    c[0] /= 2
    h = _series_exp(c)
    while size < FFT_MAX_SIZE:
        size *= 2
        odd = _odd_point_sums(q.real, size)
        if odd is None:
            return None
        sums = sums + odd
        new = sums / size
        new[0] /= 2
        change = _exp_change(h, c, new)
        # the |P|^2 - Q gate alone can pass while P's coefficients are
        # still off; the change from the coarser grid tracks their error
        if np.max(np.abs(change)) <= FACTOR_GRID_TOL:
            return _series_exp(new)[::-1]
        h, c = h + change, new
    return None


def _newton_factor(q: np.ndarray) -> np.ndarray:
    """Wilson's Newton iteration for sum_j conj(h_j) h_{j+r} = q_r, r < N,
    for Q that the cepstral factor cannot take (G. T. Wilson, SIAM J.
    Numer. Anal. 6, 1969).  Each step solves T h' + K conj(h') = q + T h,
    with T[r, m] = conj(h_{m-r}) and K[r, j] = h_{j+r}, as a real system in
    (Re h', Im h'), 32 N^2 bytes; its row for Im at r = 0 vanishes and is
    replaced by the gauge Im h'_0 = 0.  From h = sqrt(q_0) e_0, which has no
    zeros, the iterates converge to the minimum-phase factor, quadratically
    for Q positive on the circle and linearly for Q with zeros on it, whose
    coefficient error levels off near 1e-8.  So the iteration stops on the
    first step no shorter than the one before and keeps the iterate it had.
    Raises ContractError when q_0, the mean of Q on the circle, is not
    positive, and FactorizationError on a singular solve or when the steps
    still shrink after NEWTON_STEPS.
    """
    n = len(q)
    if not q[0].real > 0:
        raise ContractError(f"q_0 = {q[0].real:.3e}, the mean of Q on the circle, is not positive")
    lag = np.arange(n) - np.arange(n)[:, None]  # < 0 indexes the zero padding
    sums = np.arange(n) + np.arange(n)[:, None]
    h = np.zeros(n, dtype=complex)
    h[0] = np.sqrt(q[0].real)
    last = np.inf
    for _ in range(NEWTON_STEPS):
        re, im = np.r_[h.real, np.zeros(n)], np.r_[h.imag, np.zeros(n)]
        system = np.block([[re[lag] + re[sums], im[lag] + im[sums]],
                           [im[sums] - im[lag], re[lag] - re[sums]]])
        system[n] = np.arange(2 * n) == n  # the gauge row
        rhs = q + np.correlate(h, h, "full")[n - 1:]  # q_r + sum_j conj(h_j) h_{j+r}
        try:
            new = np.linalg.solve(system, np.r_[rhs.real, 0.0, rhs.imag[1:]])
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"Newton step: {exc}") from exc
        new = new[:n] + 1j * new[n:]
        step = np.max(np.abs(new - h))
        if not step < last:  # also on NaN
            return np.conj(h[::-1])
        h, last = new, step
    raise FactorizationError(f"Newton steps still shrink after {NEWTON_STEPS}")


def spectral_factor(q: np.ndarray) -> np.ndarray:
    """Factor Q(z) = P(z) conj(P(1/conj(z))) with |P|^2 = Q on the circle.

    Q is given by q_0..q_{N-1}, q_{-r} = conj(q_r) implied, so it is real
    on the circle when q_0 is.  Returns P's N complex coefficients,
    ``coeffs[i]`` multiplying z^i.  P has its zeros in the closed unit disk
    and a real positive leading coefficient.  Q positive on the circle takes
    the FFT (cepstral) factor, so Q = 1 factors as z^(N-1); only Q with
    complex coefficients, Q that is not positive on the FFT grid, or Q that
    does not converge by its cap, takes the Newton factor.

    Raises ValueError unless q is 1-D with at least 2 coefficients,
    ContractError for coefficients that are not finite, for
    |Im q_0| > 1e-10 max(1, max |q_r|) or when q_0 is not positive, and
    FactorizationError when the Newton iteration fails or |P|^2 misses Q
    on the 64N-point grid by more than FACTOR_GRID_TOL, as for Q that
    changes sign.
    """
    q = np.asarray(q)
    if q.ndim != 1 or len(q) < 2:
        raise ValueError(f"expected at least 2 coefficients in a 1-D array, got shape {q.shape}")
    if not np.isfinite(q).all() or abs(q[0].imag) > 1e-10 * max(1.0, np.abs(q).max()):
        raise ContractError("coefficients are not finite or q_0 is not real")
    coeffs = _cepstral_factor(q)
    if coeffs is None:
        coeffs = _newton_factor(q)
    coeffs = np.asarray(coeffs, dtype=complex)

    grid = 64 * len(q)
    p_values = grid * np.fft.ifft(coeffs, grid)
    mismatch = float(np.max(np.abs(np.abs(p_values) ** 2 - _circle_values(q, grid))))
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


def v_column(phases: np.ndarray, n: int) -> np.ndarray:
    """<x|V|0> for x = 0..2N-1 on the last axis, a column per row of phases;
    the full matrix is the cyclic shift family <x|V|y> = <x-y|V|0> mod 2N."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape[-1:] != (2 * n,):
        raise ValueError(f"expected {2 * n} phases, got shape {phases.shape}")
    return np.fft.ifft(np.exp(1j * phases))


def synthesize_exact(
    n: int,
    k: int,
    free: Optional[Mapping[str, np.ndarray]] = None,
    grid_points: Optional[int] = None,
) -> tuple[PhaseSchedule, dict]:
    """Build and verify the exact k-query schedule from a feasible chain.

    Returns the schedule plus a verification report with per-answer success
    probabilities, the worst pairwise overlap of the final states, the first
    column of every stage unitary, and the per-stage magnitude mismatch.
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

    schedule = PhaseSchedule(n=n, k=k, stages=stages)
    final = hilbert.run_answer_zero(schedule)
    success = np.full(n, 2 * abs(final[0]) ** 2)
    weights = 2 / n * np.abs(np.fft.fft(untwist * final if k % 2 else final)) ** 2
    overlaps = np.abs(np.fft.fft(weights))
    columns = v_column(schedule.stages, n)
    report = {
        "n": n,
        "k": k,
        "success_probs": success,
        "min_success_prob": float(success.min()),
        "exact": bool(success.min() >= 1 - 1e-9),
        "max_pairwise_overlap": float(overlaps[1:].max()),
        "v_columns": np.stack([columns.real, columns.imag], -1),
        "max_v_imag": float(np.abs(columns.imag).max()),
        "magnitude_mismatch": magnitude_mismatch,
        "certificates": {str(ell): c.to_dict() for ell, c in certificates.items()},
    }
    return schedule, report
