"""Turn a feasible series chain into an executable phase schedule.

Pipeline per stage l:

1. ``q_from_chain``  - assemble the Hermitian Laurent polynomial
   Q_l(z) = 1 + A_l + B_l with cos(r theta) split as (z^r + z^-r) / 2.
2. ``spectral_factor`` - write Q_l = P_l(z) conj(P_l(1/conj(z))) on |z| = 1,
   with P's zeros in the closed unit disk.
3. ``states_from_poly`` - read the stage state's position amplitudes off
   P's coefficients.
4. ``phases_from_states`` - the diagonal stage is the phase of
   <p|psi_l> / <p|F_0|psi_{l-1}> on the live parity.

States are plain arrays of 2N amplitudes; ``np.fft.fft(..., norm="ortho")``
takes position to momentum and ``np.fft.ifft(..., norm="ortho")`` back.

Numerical notes: Q positive on the circle is factored by Kolmogorov's
minimum-phase construction, H = exp(causal part of log Q), with FFTs on a
grid that doubles until H's coefficients past degree N-1 vanish (Sayed &
Kailath, "A survey of spectral factorization methods", Numer. Linear Algebra
Appl. 8, 2001).  Q with zeros on the circle, such as the start polynomial's
squared magnitude, makes log Q singular and does not converge; it is
factored from the companion-matrix roots of z^M Q(z) instead.  Circle zeros
come in clusters of even multiplicity whose symmetric eigenvalue splits are
halved by sqrt(z1 z2), and P's coefficients are recovered by evaluating the
root product on roots of unity and inverse transforming, which avoids the
instability of coefficient-by-coefficient expansion.  Either way |P|^2 - Q
is checked on the circle against FACTOR_GRID_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import hilbert
from .errors import ContractError, FactorizationError
from .exact import (
    CosineSeries,
    INFEASIBLE,
    MatchingChain,
    build_chain,
    chain_constraints,
    certify_nonneg,
    default_grid,
)
from .hilbert import PhaseSchedule

CIRCLE_TOL = 1e-7       # |abs(root) - 1| below this joins a circle cluster
CLUSTER_ANGLE_TOL = 1e-5
FACTOR_GRID_TOL = 1e-8
FFT_MIN_SIZE = 1 << 10  # the cepstral grid starts at max(this, 16N) points
FFT_MAX_SIZE = 1 << 18  # and doubles up to this cap
ZERO_AMP_TOL = 1e-12    # arbitrary-phase threshold in phase extraction
MAGNITUDE_TOL = 1e-8    # stage state vs oracle image, momentum by momentum


@dataclass(frozen=True)
class LaurentPoly:
    """Hermitian Laurent polynomial sum_r q_r z^r, r = -(N-1)..N-1.

    ``q[i]`` stores the coefficient of z^(i - (N-1)).  Hermitian symmetry
    q_r = conj(q_{-r}) makes the polynomial real on the unit circle.
    """

    n: int
    q: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"problem size must be >= 2, got {self.n}")
        q = np.asarray(self.q, dtype=complex)
        if q.shape != (2 * self.n - 1,):
            raise ValueError(
                f"expected {2 * self.n - 1} coefficients, got shape {q.shape}"
            )
        herm = np.conj(q[::-1])
        scale = max(float(np.abs(q).max()), 1.0)
        if np.max(np.abs(q - herm)) > 1e-10 * scale:
            raise ContractError("coefficients violate Hermitian symmetry")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def coeff(self, r: int) -> complex:
        return complex(self.q[r + self.n - 1])

    def circle_values(self, grid: int) -> np.ndarray:
        """Q(e^{i theta}) on grid uniform angles over [0, 2 pi): by Hermitian
        symmetry, the inverse real FFT of q_0..q_{N-1}."""
        if grid < 2 * self.n - 1:
            raise ValueError(f"{grid} angles fold {self.n - 1} harmonics")
        return np.fft.irfft(self.q[self.n - 1:], grid) * grid


@dataclass(frozen=True)
class Poly:
    """Ordinary polynomial of degree N-1; coeffs[i] multiplies z^i."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.degree + 1,):
            raise ValueError(
                f"expected {self.degree + 1} coefficients, got shape {coeffs.shape}"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def circle_values(self, grid: int) -> np.ndarray:
        arr = np.zeros(grid, dtype=complex)
        arr[: self.degree + 1] = self.coeffs
        return grid * np.fft.ifft(arr)


def q_from_chain(a: CosineSeries, b: CosineSeries) -> LaurentPoly:
    """Q(z) for 1 + A(theta) + B(theta): q_0 = 1, q_{+-r} = (a_r + b_r) / 2."""
    if a.n != b.n:
        raise ValueError("series must share the same problem size")
    if a.klass != "A" or b.klass != "B":
        raise ValueError("expected one class-A and one class-B series")
    n = a.n
    q = np.zeros(2 * n - 1, dtype=complex)
    q[n - 1] = 1.0
    half = (a.coeffs + b.coeffs) / 2.0
    for r in range(1, n):
        q[n - 1 + r] = half[r - 1]
        q[n - 1 - r] = half[r - 1]
    return LaurentPoly(n=n, q=q)


def _collapse_circle_clusters(circ: np.ndarray) -> list:
    """Halve each even-multiplicity circle cluster.

    Adjacent split pairs are reduced with sqrt(z1 z2), which cancels the
    first-order eigenvalue perturbation of a double zero.
    """
    circ = circ[np.argsort(np.angle(circ))]
    clusters = [[circ[0]]]
    for z in circ[1:]:
        if abs(np.angle(z / clusters[-1][-1])) < CLUSTER_ANGLE_TOL:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    if len(clusters) > 1 and abs(np.angle(clusters[0][0] / clusters[-1][-1])) < CLUSTER_ANGLE_TOL:
        clusters[0] = clusters.pop() + clusters[0]
    reps = []
    for cluster in clusters:
        if len(cluster) % 2 != 0:
            raise FactorizationError(
                f"unit-circle zero cluster of odd size {len(cluster)} near angle "
                f"{np.angle(cluster[0]):.6f}; nonnegativity on the circle is suspect"
            )
        for i in range(0, len(cluster), 2):
            rep = np.sqrt(cluster[i] * cluster[i + 1])
            if abs(rep - cluster[i]) > abs(rep + cluster[i]):
                rep = -rep
            reps.append(rep)
    return reps


def _coeffs_from_roots(
    roots: list, scale: float, n_coeffs: int, shift: int
) -> np.ndarray:
    """Ascending coefficients of scale * z^shift * prod(z - root).

    Evaluates the product on the n_coeffs-th roots of unity and inverse
    transforms; exact interpolation for a degree < n_coeffs polynomial.
    """
    w = np.exp(2j * np.pi * np.arange(n_coeffs) / n_coeffs)
    values = scale * w**shift
    for root in roots:
        values = values * (w - root)
    return np.fft.fft(values) / n_coeffs


def _cepstral_factor(q_poly: LaurentPoly) -> Optional[np.ndarray]:
    """Kolmogorov's minimum-phase factor: H = exp(causal part of log Q).

    H(z) = sum_n h_n z^n has no zeros in the disk, so the returned
    coefficients conj(h[:N][::-1]) put P's zeros inside it.  The FFT grid
    doubles until h is a polynomial of degree < N to within
    FACTOR_GRID_TOL.  Returns None when Q is not positive on the grid or
    the cap is reached first, as for zeros on the circle.
    """
    n = q_poly.n
    size = max(FFT_MIN_SIZE, 1 << (16 * n - 1).bit_length())
    while size <= FFT_MAX_SIZE:
        values = q_poly.circle_values(size)
        if values.min() <= 0:
            return None
        # one (size,) complex buffer at a time: at the cap each is 4 MiB
        cepstrum = np.fft.rfft(np.log(values))
        del values
        cepstrum[0] /= 2
        cepstrum[-1] /= 2
        h = np.fft.ifft(cepstrum, size)
        del cepstrum
        np.exp(h, out=h)
        h = np.fft.fft(h)
        h /= size
        # the |P|^2 - Q gate alone can pass while P's coefficients are
        # still off; the degree overflow tracks the coefficient error
        if np.max(np.abs(h[n:])) <= FACTOR_GRID_TOL:
            return np.conj(h[:n][::-1])
        size *= 2
    return None


def _root_factor(q_poly: LaurentPoly) -> np.ndarray:
    """Factor coefficients from the zeros of z^M Q(z), for Q that the FFT
    factor cannot take, as with zeros on the circle.  Vanishing leading coefficients are deflated and the lost
    degree restored as a z^d prefactor; the zeros inside the disk and one
    of each pair of circle zeros build P.
    """
    n = q_poly.n
    mid = n - 1
    mags = np.abs(q_poly.q)
    defl_tol = 1e-12 * max(float(mags.max()), 1.0)
    top = 0
    for r in range(n - 1, 0, -1):
        if mags[mid + r] > defl_tol:
            top = r
            break

    roots = np.roots(q_poly.q[mid - top: mid + top + 1][::-1])
    on_circle = np.abs(np.abs(roots) - 1) < CIRCLE_TOL
    selected = list(roots[~on_circle & (np.abs(roots) < 1)])
    if on_circle.any():
        selected.extend(_collapse_circle_clusters(roots[on_circle]))
    if len(selected) != top:
        raise FactorizationError(
            f"selected {len(selected)} roots for a degree-{top} factor"
        )

    d_scale = q_poly.coeff(top) * (-1) ** top / np.prod(np.conj(selected))
    if abs(d_scale.imag) > 1e-8 * abs(d_scale) or d_scale.real <= 0:
        raise ContractError(
            f"factor scale {d_scale} is not real positive; Q is not "
            "nonnegative on the circle"
        )
    return _coeffs_from_roots(selected, np.sqrt(d_scale.real), n, n - 1 - top)


def spectral_factor(q_poly: LaurentPoly) -> Poly:
    """Factor Q(z) = P(z) conj(P(1/conj(z))) with |P|^2 = Q on the circle.

    P has its zeros in the closed unit disk.  Q positive on the circle
    takes the FFT (cepstral) factor, so Q = 1 factors as z^(N-1); only Q
    that is not positive on the FFT grid, or does not converge by its cap,
    reaches the roots of z^M Q(z).

    Raises FactorizationError when the zeros cannot be split (a circle
    cluster of odd size, or the wrong number inside the disk) or |P|^2
    misses Q on the circle, and ContractError when the overall scale D
    fails to be real and positive.
    """
    n = q_poly.n
    coeffs = _cepstral_factor(q_poly)
    if coeffs is None:
        coeffs = _root_factor(q_poly)
    poly = Poly(degree=n - 1, coeffs=coeffs)

    grid = 64 * n
    mismatch = float(
        np.max(np.abs(np.abs(poly.circle_values(grid)) ** 2 - q_poly.circle_values(grid)))
    )
    if mismatch > FACTOR_GRID_TOL:
        raise FactorizationError(
            f"|P|^2 deviates from Q by {mismatch:.3e} on the circle"
        )
    return poly


def states_from_poly(p: Poly, ell: int) -> np.ndarray:
    """Position amplitudes with <x|psi> = coeff(z^{N-1-x}) / sqrt(2).

    The upper half is the parity image <x+N|psi> = (-1)^ell <x|psi>.
    """
    lower = p.coeffs[::-1] / np.sqrt(2)
    sign = 1.0 if ell % 2 == 0 else -1.0
    amps = np.concatenate([lower, sign * lower])
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1) > 1e-6:
        raise ContractError(
            f"state norm {norm} deviates from 1; the factorization is bad"
        )
    return amps / norm


def phases_from_states(psi_prev: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Diagonal phases turning F_0 |psi_prev> into |psi>.

    Both arguments are momentum amplitudes with adjacent parity supports and
    matching magnitudes |<p|psi>| = |<p|F_0|psi_prev>| within 1e-8.  Where
    the oracle image vanishes the phase is arbitrary and reported as 0, as
    at the whole dead parity.
    """
    if psi_prev.shape != psi.shape:
        raise ValueError("states must share the same problem size")
    n = psi.shape[-1] // 2
    mags = np.abs(np.stack([psi_prev, psi])) ** 2
    even, odd = mags[:, 0::2].sum(axis=1), mags[:, 1::2].sum(axis=1)
    prev_parity, cur_parity = (odd > even).astype(int)
    if cur_parity == prev_parity or np.minimum(even, odd).max() > 1e-12:
        raise ContractError("states do not occupy adjacent parity classes")

    phi = hilbert.oracle_image(psi_prev, n)
    mismatch = float(np.max(np.abs(np.abs(psi) - np.abs(phi))))
    if mismatch > MAGNITUDE_TOL:
        raise ContractError(
            f"magnitude mismatch {mismatch:.3e} between the stage state and "
            "the oracle image; the Q sequence is invalid"
        )
    phases = np.zeros(2 * n)
    live = np.abs(phi) > ZERO_AMP_TOL
    live &= (np.arange(2 * n) % 2) == cur_parity
    phases[live] = hilbert.reduce_phases(np.angle(psi[live] / phi[live]))
    rebuilt = np.exp(1j * phases) * phi
    err = float(np.max(np.abs(rebuilt - psi)))
    if err > MAGNITUDE_TOL:
        raise ContractError(f"extracted phases reproduce the state only to {err:.3e}")
    return phases


def v_column(phases: np.ndarray, n: int) -> np.ndarray:
    """<x|V|0> for x = 0..2N-1; the full matrix is the cyclic shift family
    <x|V|y> = <x-y|V|0> with indices mod 2N."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (2 * n,):
        raise ValueError(f"expected {2 * n} phases, got shape {phases.shape}")
    return np.fft.ifft(np.exp(1j * phases))


def _align_global_phase(psi: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate psi so its largest amplitude agrees in phase with reference."""
    idx = int(np.argmax(np.abs(psi)))
    if abs(reference[idx]) > 1e-9:
        gamma = np.angle(reference[idx]) - np.angle(psi[idx])
    else:
        gamma = -np.angle(psi[idx])
    return psi * np.exp(1j * gamma)


def synthesize_exact(
    n: int,
    k: int,
    free: Optional[Mapping[str, CosineSeries]] = None,
    grid_points: Optional[int] = None,
) -> tuple[PhaseSchedule, dict]:
    """Build and verify the exact k-query schedule from a feasible chain.

    Returns the schedule plus a verification report with per-answer success
    probabilities, the worst pairwise overlap of the final states, the first
    column of every stage unitary, and the per-stage magnitude mismatch.
    Factorization or magnitude failures raise with the stage number.
    """
    chain: MatchingChain = build_chain(n, k, free)
    grid = default_grid(n) if grid_points is None else grid_points
    certificates = {}
    for ell, series_list in chain_constraints(chain).items():
        cert = certify_nonneg(series_list, grid)
        certificates[ell] = cert
        if cert.verdict == INFEASIBLE:
            raise ContractError(
                f"stage {ell} positivity fails: grid minimum {cert.grid_min:.3e}"
            )

    psi_prev = np.zeros(2 * n, dtype=complex)
    psi_prev[0] = 1.0  # the uniform start state is momentum p = 0
    magnitude_mismatch = []
    stages = np.empty((k, 2 * n))
    for ell in range(1, k + 1):
        a_series, b_series = chain.stages[ell]
        try:
            poly = spectral_factor(q_from_chain(a_series, b_series))
            psi_pos = states_from_poly(poly, ell)
        except (FactorizationError, ContractError) as exc:
            raise type(exc)(f"stage {ell}: {exc}") from exc
        phi = hilbert.oracle_image(psi_prev, n)
        propagated = np.fft.ifft(phi, norm="ortho")
        aligned = _align_global_phase(psi_pos, propagated)
        psi_mom = np.fft.fft(aligned, norm="ortho")
        magnitude_mismatch.append(
            float(np.max(np.abs(np.abs(psi_mom) - np.abs(phi))))
        )
        try:
            stages[ell - 1] = phases_from_states(psi_prev, psi_mom)
        except ContractError as exc:
            raise ContractError(f"stage {ell}: {exc}") from exc
        psi_prev = psi_mom

    schedule = PhaseSchedule(n=n, k=k, stages=stages)
    blocks = list(hilbert.run_all_answers(schedule))
    finals = np.concatenate([f for f, _ in blocks])
    success = np.concatenate([p for _, p in blocks])
    overlaps = np.abs(finals @ np.conj(finals).T)
    np.fill_diagonal(overlaps, 0.0)
    columns = [v_column(stage, n) for stage in schedule.stages]
    report = {
        "n": n,
        "k": k,
        "success_probs": success.tolist(),
        "min_success_prob": float(success.min()),
        "exact": bool(success.min() >= 1 - 1e-9),
        "max_pairwise_overlap": float(overlaps.max()),
        "v_columns": [[[float(c.real), float(c.imag)] for c in col] for col in columns],
        "max_v_imag": float(max(np.abs(col.imag).max() for col in columns)),
        "magnitude_mismatch": magnitude_mismatch,
        "certificates": {str(ell): c.to_dict() for ell, c in certificates.items()},
    }
    return schedule, report
