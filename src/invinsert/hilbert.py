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

Every F_j maps momentum parity p mod 2 to 1 - p mod 2, and the phase stages
keep it, so from the start state (p = 0) a state after l queries lives on
parity l mod 2 alone; in position, psi(x + N) = (-1)^l psi(x).  So a state
is a plain complex array of N amplitudes on its last axis, and the query
count l carries the parity: in momentum those of parity l mod 2, p = l mod 2,
l mod 2 + 2, ..., and in position psi(x), x = 0..N-1.  Leading axes are
separate states.  The oracle signs are those of f_j, and a phase stage keeps
all 2N entries: a schedule, the portable artifact of an algorithm, is the
(k, 2N) float array of its k stages, ``stages[l - 1, p]`` the phase applied
at momentum p after the l-th query, reduced to [0, 2pi); N and k are its
shape.  Every schedule run goes through ``run_signs``.  The stages commute
with the cyclic shift T of the 2N positions, F_j = T^j F_0 T^-j, and the
start is T-invariant, so answer j ends in T^j psi_0: ``run_answer_zero``
stands for every answer.  Every function returns fresh arrays, and the
schedules the library makes are read-only.  Every JSON document goes through
``write_json`` or ``read_json``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np
import orjson

from .errors import ContractError, SchemaError


JSON_PIECE = 1 << 12  # values per orjson.dumps call: bounds the text in memory


def write_json(doc, fh) -> None:
    """Write ``doc`` and a newline to ``fh``: the text of ``orjson.dumps`` with
    OPT_SERIALIZE_NUMPY, in pieces so the text in memory stays small.  Dicts
    go member by member (keys must be strings), lists and arrays of rows in
    slices of about JSON_PIECE values, a longer row alone."""
    fh.writelines(_json_pieces(doc))
    fh.write("\n")


def _json_pieces(doc) -> Iterator[str]:
    if isinstance(doc, dict) and doc:
        for i, (key, value) in enumerate(doc.items()):
            yield f"{',' if i else '{'}{_dumps(key)}:"
            yield from _json_pieces(value)
        yield "}"
    elif isinstance(doc, (list, np.ndarray)) and len(doc) and isinstance(doc[0], (list, dict, np.ndarray)):
        step = JSON_PIECE // (_values(doc[0], JSON_PIECE) + 1)
        for lo in range(0, len(doc), step or 1):
            yield "," if lo else "["
            if step:
                yield _dumps(doc[lo : lo + step])[1:-1]
            else:  # a row longer than a piece goes alone, its own rows sliced in turn
                yield from _json_pieces(doc[lo])
        yield "]"
    else:
        yield _dumps(doc)


def _values(doc, cap: int) -> int:
    """The number of scalar values in ``doc``, keys left out, counted until
    it passes ``cap``."""
    if isinstance(doc, np.ndarray):
        return doc.size
    if not isinstance(doc, (dict, list, tuple)):
        return 1
    count = 0
    for item in doc.values() if isinstance(doc, dict) else doc:
        count += _values(item, cap - count)
        if count > cap:
            break
    return count


def _dumps(value) -> str:
    # orjson hands arrays that are not C-contiguous to ``default``
    return orjson.dumps(value, default=np.ndarray.tolist, option=orjson.OPT_SERIALIZE_NUMPY).decode()


def read_json(path, check):
    """``check`` of the document at ``path``.  A file that cannot be read,
    invalid JSON, NaN and 1e400 too, and every SchemaError of ``check`` raise
    SchemaError naming the path."""
    try:
        with open(path, "rb") as fh:
            doc = orjson.loads(fh.read())
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except orjson.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return check(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def save_schedule(stages: np.ndarray, path) -> None:
    """Write the schedule document {"n", "k", "stages"} of a (k, 2N) schedule."""
    k, width = stages.shape
    with open(path, "w") as fh:
        write_json({"n": width // 2, "k": k, "stages": stages}, fh)


def _checked_schedule(data) -> np.ndarray:
    """The schedule of a schedule document, reduced and read-only; any fault
    raises SchemaError."""
    if not isinstance(data, dict):
        raise SchemaError("schedule document must be a JSON object")
    missing = {"n", "k", "stages"} - set(data)
    if missing:
        raise SchemaError(f"schedule document missing fields {sorted(missing)}")
    n = SchemaError.require_int(data, "n", "schedule")
    k = SchemaError.require_int(data, "k", "schedule")
    stages = SchemaError.require_array(data, "stages", "schedule", (k, 2 * n))
    if n < 2:
        raise SchemaError(f"problem size must be >= 2, got {n}")
    if k < 1:
        raise SchemaError(f"query count must be >= 1, got {k}")
    if stages.shape != (k, 2 * n):
        raise SchemaError(f"expected stage array of shape {(k, 2 * n)}, got {stages.shape}")
    stages = reduce_phases(stages)
    stages.setflags(write=False)
    return stages


def load_schedule(path) -> np.ndarray:
    """The schedule in the file at ``path``: a read-only (k, 2N) array of
    phases reduced to [0, 2pi)."""
    return read_json(path, _checked_schedule)


def reduce_phases(phases: np.ndarray) -> np.ndarray:
    """Reduce to [0, 2pi); values within 1e-9 of the branch point become 0.
    The bits are those of ``np.mod``, which is fmod plus 2pi where negative,
    with -0.0 made +0.0; phases already reduced are copied as they are."""
    phases = np.asarray(phases, dtype=float)
    if phases.size and phases.min() >= 0 and 2 * np.pi - phases.max() >= 1e-9:
        return phases + 0.0
    out = np.fmod(phases, 2 * np.pi)
    out += np.where(out < 0, 2 * np.pi, 0.0)
    return np.where(2 * np.pi - out < 1e-9, 0.0, out)


def oracle_signs(j, n: int) -> np.ndarray:
    """Sign vector f_j of the oracle on positions 0..N-1, which F_j repeats
    negated on N..2N-1; an array of indices gives one row per index."""
    js = np.asarray(j)
    if np.any((js < 0) | (js > n - 1)):
        raise ValueError(f"oracle index must satisfy 0 <= j <= {n - 1}, got {j}")
    return np.where(np.arange(n) < js[..., None], -1.0, 1.0)


@lru_cache(maxsize=8)
def _twist(n: int) -> np.ndarray:
    """exp(+i pi x / N), x = 0..N-1, read-only: parity 1's phase in position."""
    twist = np.exp(1j * np.pi * np.arange(n) / n)
    twist.setflags(write=False)
    return twist


def oracle_image(amps: np.ndarray, parity: int) -> np.ndarray:
    """Momentum amplitudes of F_0 |psi> from those of |psi> (last axis).

    The N amplitudes a of parity ``parity`` go to the N of parity
    1 - parity as fft(t ifft(a)), with t = exp(-i pi x / N) from parity 0
    and its conjugate from parity 1."""
    amps = np.asarray(amps)
    twist = _twist(amps.shape[-1])
    return np.fft.fft((twist if parity % 2 else twist.conj()) * np.fft.ifft(amps))


def run_signs(stages: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Final position amplitudes psi(x), x < N, of the phase stages (shape
    (k, 2N)) run from the uniform start against the oracles whose signs f_j
    are the rows of ``signs`` (shape (..., N)): each stage is the oracle, then
    exp(i alpha(p)).  Stage l transforms psi at length N on parity l mod 2.
    Raises ValueError unless the stages are twice as wide as the signs."""
    stages = np.asarray(stages, dtype=float)
    signs = np.asarray(signs, dtype=float)
    n = signs.shape[-1]
    if stages.shape[-1] != 2 * n:
        raise ValueError(f"stages of width {stages.shape[-1]} do not fit signs of width {n}")
    twist = _twist(n)
    untwist = twist.conj()
    amps = np.full(signs.shape, 1.0 / np.sqrt(2 * n), dtype=complex)
    for ell, row in enumerate(stages, 1):  # in place where it can
        odd = ell % 2
        np.multiply(amps, signs, out=amps)
        if odd:
            np.multiply(amps, untwist, out=amps)
        amps = np.fft.fft(amps)
        amps = np.fft.ifft(np.multiply(amps, np.exp(1j * row[odd::2]), out=amps))
        if odd:
            np.multiply(amps, twist, out=amps)
    return amps


def run_answer_zero(stages: np.ndarray) -> np.ndarray:
    """Final position amplitudes psi_0(x), x < N, of answer 0 under the
    (k, 2N) schedule ``stages``; answer j ends in the first N of
    np.roll(psi_0 doubled, j).  The same ``run_signs`` call runs answers
    N // 2 and N - 1 and raises ContractError unless they end within 1e-12
    of those translates."""
    k, width = np.shape(stages)
    n = width // 2
    spots = [0, n // 2, n - 1]
    finals = run_signs(stages, oracle_signs(spots, n))
    doubled = np.concatenate([finals[0], (-1) ** k * finals[0]])
    for j, final in zip(spots[1:], finals[1:]):
        err = float(np.max(np.abs(final - np.roll(doubled, j)[:n])))
        if not err <= 1e-12:  # also on NaN
            raise ContractError(f"answer {j} ends {err:.3e} from the translate of answer 0")
    return finals[0]
