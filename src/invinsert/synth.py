"""Turn a feasible series chain into an executable phase schedule.

Pipeline per stage l:

1. ``q_from_chain``  - assemble the Hermitian Laurent polynomial
   Q_l(z) = 1 + A_l + B_l with cos(r theta) split as (z^r + z^-r) / 2.
2. ``spectral_factor`` - write Q_l = P_l(z) conj(P_l(1/conj(z))) on |z| = 1.
   z^M Q(z) has its zeros in reciprocal-conjugate pairs (a e^{ia}, e^{ia}/a),
   circle zeros with even multiplicity; one zero per pair (canonically the
   one with modulus <= 1) builds P.
3. ``states_from_poly`` - read the stage state off P's coefficients.
4. ``phases_from_states`` - the diagonal stage is the phase of
   <p|psi_l> / <p|F_0|psi_{l-1}> on the live parity.

Numerical notes: companion-matrix roots are Newton-polished (off-circle roots
only; circle clusters keep their symmetric eigenvalue splits, whose pairwise
products are second-order accurate), and P's coefficients are recovered by
evaluating the root product on roots of unity and inverse transforming, which
avoids the instability of coefficient-by-coefficient expansion.
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
from .hilbert import MOMENTUM, POSITION, PhaseSchedule, StateVector

CIRCLE_TOL = 1e-7       # |abs(root) - 1| below this joins a circle cluster
CLUSTER_ANGLE_TOL = 1e-5
PAIR_TOL = 1e-6         # required quality of r * conj(partner) = 1
ROOT_RESIDUAL_TOL = 1e-10
FACTOR_GRID_TOL = 1e-8
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
        """Q(e^{i theta}) on grid uniform angles over [0, 2 pi)."""
        arr = np.zeros(grid, dtype=complex)
        for r in range(-(self.n - 1), self.n):
            arr[r % grid] += self.q[r + self.n - 1]
        return (grid * np.fft.ifft(arr)).real


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


def _polish_roots(desc: np.ndarray, roots: np.ndarray, iters: int = 6) -> np.ndarray:
    """Guarded Newton refinement: accept steps only when the residual drops."""
    if roots.size == 0:
        return roots
    deriv = np.polyder(desc)
    z = roots.copy()
    best = np.abs(np.polyval(desc, z))
    for _ in range(iters):
        dz = np.polyval(deriv, z)
        dz = np.where(np.abs(dz) < 1e-300, 1.0, dz)
        cand = z - np.polyval(desc, z) / dz
        resid = np.abs(np.polyval(desc, cand))
        improved = resid < best
        if not improved.any():
            break
        z = np.where(improved, cand, z)
        best = np.where(improved, resid, best)
    return z


def _pair_off_circle(off: list) -> list:
    """Pick one root per reciprocal-conjugate pair, modulus <= 1 preferred."""
    selected = []
    pool = list(off)
    while pool:
        root = pool.pop()
        if not pool:
            raise FactorizationError(
                f"root {root} has no reciprocal partner left to pair with"
            )
        idx = min(range(len(pool)), key=lambda i: abs(root * np.conj(pool[i]) - 1))
        partner = pool.pop(idx)
        quality = abs(root * np.conj(partner) - 1)
        if quality > PAIR_TOL:
            raise FactorizationError(
                f"no reciprocal partner for root {root} "
                f"(best pairing defect {quality:.3e})"
            )
        if abs(abs(root) - abs(partner)) < 1e-12:
            chosen = root if np.angle(root) <= np.angle(partner) else partner
        else:
            chosen = root if abs(root) <= abs(partner) else partner
        selected.append(chosen)
    return selected


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


def spectral_factor(q_poly: LaurentPoly) -> Poly:
    """Factor Q(z) = P(z) conj(P(1/conj(z))) with |P|^2 = Q on the circle.

    Vanishing leading coefficients are deflated before root finding and the
    lost degree restored as a z^d prefactor, so Q = 1 factors as z^(N-1).

    Raises FactorizationError when roots cannot be paired (or a circle
    cluster has odd size) and ContractError when the overall scale D fails
    to be real and positive.
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
    if top == 0:
        q0 = q_poly.coeff(0).real
        if q0 <= 0:
            raise ContractError(f"constant polynomial {q0} is not positive")
        coeffs = np.zeros(n, dtype=complex)
        coeffs[n - 1] = np.sqrt(q0)
        return Poly(degree=n - 1, coeffs=coeffs)

    desc = q_poly.q[mid - top: mid + top + 1][::-1]
    roots = np.roots(desc)
    on_circle = np.abs(np.abs(roots) - 1) < CIRCLE_TOL
    circ = roots[on_circle]
    off = _polish_roots(desc, roots[~on_circle])
    if off.size:
        # the evaluation floor at a root grows like |z|^degree, so scale
        # the residual contract accordingly for far-outside roots
        residuals = np.abs(np.polyval(desc, off))
        scale = np.linalg.norm(desc) * np.maximum(1.0, np.abs(off)) ** (2 * top)
        worst = float((residuals / scale).max())
        if worst > ROOT_RESIDUAL_TOL:
            raise FactorizationError(
                f"scaled root residual {worst:.3e} exceeds tolerance; "
                "the polynomial is too ill-conditioned to factor"
            )

    selected = _pair_off_circle(list(off))
    if circ.size:
        selected.extend(_collapse_circle_clusters(circ))
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
    coeffs = _coeffs_from_roots(selected, np.sqrt(d_scale.real), n, n - 1 - top)
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


def states_from_poly(p: Poly, ell: int) -> StateVector:
    """Position-basis state with <x|psi> = coeff(z^{N-1-x}) / sqrt(2).

    The upper half is the parity image <x+N|psi> = (-1)^ell <x|psi>.
    """
    n = p.degree + 1
    lower = p.coeffs[::-1] / np.sqrt(2)
    sign = 1.0 if ell % 2 == 0 else -1.0
    amps = np.concatenate([lower, sign * lower])
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1) > 1e-6:
        raise ContractError(
            f"state norm {norm} deviates from 1; the factorization is bad"
        )
    return StateVector(n, POSITION, amps / norm)


def phases_from_states(psi_prev: StateVector, psi: StateVector) -> np.ndarray:
    """Diagonal phases turning F_0 |psi_prev> into |psi>.

    Both states must be momentum-basis with adjacent parity supports and
    matching magnitudes |<p|psi>| = |<p|F_0|psi_prev>| within 1e-8.  Where
    the oracle image vanishes the phase is arbitrary and reported as 0, as
    at the whole dead parity.
    """
    if psi_prev.basis != MOMENTUM or psi.basis != MOMENTUM:
        raise ContractError("phase extraction expects momentum-basis states")
    if psi_prev.n != psi.n:
        raise ValueError("states must share the same problem size")
    n = psi.n
    even_prev, odd_prev = hilbert.parity_masses(psi_prev)
    even_cur, odd_cur = hilbert.parity_masses(psi)
    prev_parity = 0 if even_prev >= odd_prev else 1
    cur_parity = 0 if even_cur >= odd_cur else 1
    leak_prev = min(even_prev, odd_prev)
    leak_cur = min(even_cur, odd_cur)
    if cur_parity == prev_parity or max(leak_prev, leak_cur) > 1e-12:
        raise ContractError("states do not occupy adjacent parity classes")

    phi = hilbert.oracle_image(psi_prev.amps, n)
    mismatch = float(np.max(np.abs(np.abs(psi.amps) - np.abs(phi))))
    if mismatch > MAGNITUDE_TOL:
        raise ContractError(
            f"magnitude mismatch {mismatch:.3e} between the stage state and "
            "the oracle image; the Q sequence is invalid"
        )
    phases = np.zeros(2 * n)
    live = np.abs(phi) > ZERO_AMP_TOL
    live &= (np.arange(2 * n) % 2) == cur_parity
    phases[live] = hilbert.reduce_phases(np.angle(psi.amps[live] / phi[live]))
    rebuilt = np.exp(1j * phases) * phi
    err = float(np.max(np.abs(rebuilt - psi.amps)))
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
    grid = grid_points or default_grid(n)
    certificates = {}
    for ell, series_list in chain_constraints(chain).items():
        cert = certify_nonneg(series_list, grid)
        certificates[ell] = cert
        if cert.verdict == INFEASIBLE:
            raise ContractError(
                f"stage {ell} positivity fails: grid minimum {cert.grid_min:.3e}"
            )

    states = [hilbert.to_momentum(hilbert.uniform_start(n))]
    magnitude_mismatch = []
    stages = np.empty((k, 2 * n))
    for ell in range(1, k + 1):
        a_series, b_series = chain.stages[ell]
        try:
            poly = spectral_factor(q_from_chain(a_series, b_series))
            psi_pos = states_from_poly(poly, ell)
        except (FactorizationError, ContractError) as exc:
            raise type(exc)(f"stage {ell}: {exc}") from exc
        phi = hilbert.oracle_image(states[ell - 1].amps, n)
        propagated = hilbert.to_position(StateVector(n, MOMENTUM, phi))
        aligned = _align_global_phase(psi_pos.amps, propagated.amps)
        psi_mom = hilbert.to_momentum(StateVector(n, POSITION, aligned))
        magnitude_mismatch.append(
            float(np.max(np.abs(np.abs(psi_mom.amps) - np.abs(phi))))
        )
        try:
            stages[ell - 1] = phases_from_states(states[ell - 1], psi_mom)
        except ContractError as exc:
            raise ContractError(f"stage {ell}: {exc}") from exc
        states.append(psi_mom)

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
