"""Exception types shared across the package."""

import numpy as np


class ContractError(RuntimeError):
    """An internal consistency condition failed (parity support, magnitude
    matching, norm deviation, positivity precondition, ...)."""


class FactorizationError(RuntimeError):
    """Spectral factorization failed: Q is not positive on a grid of the
    cepstral factor, its grids still disagree at their cap, or |P|^2 misses Q."""


class CompositionError(RuntimeError):
    """A composed run used a subroutine schedule that is not exact enough."""


class SolverError(RuntimeError):
    """A linear program ended without an optimal solution."""


class SchemaError(ValueError):
    """A JSON input file cannot be read or does not match its documented layout."""

    @staticmethod
    def require_int(data: dict, key: str, document: str) -> int:
        """``data[key]`` if it is a JSON integer; floats, strings and
        booleans raise SchemaError."""
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{document} field {key!r} must be an integer, got {value!r}")
        return value

    @staticmethod
    def require_numbers(data: dict, key: str, document: str):
        """``data[key]`` if it is a JSON number or nested lists of them;
        strings, booleans and null raise SchemaError."""
        items = [data[key]]
        for item in items:  # grows as lists are opened: a breadth-first walk
            if type(item) is list:
                if not set(map(type, item)) <= {int, float}:  # one C-level pass
                    items.extend(item)
            elif type(item) not in (int, float):
                raise SchemaError(f"{document} field {key!r} must hold only numbers, got {item!r}")
        return data[key]

    @staticmethod
    def require_array(data: dict, key: str, document: str, shape: tuple) -> np.ndarray:
        """``data[key]`` as a float array, for numbers as ``require_numbers``
        takes them; nested lists of unequal lengths raise SchemaError naming
        ``shape``, the one expected.  Other shapes are the caller's to check."""
        values = SchemaError.require_numbers(data, key, document)
        try:
            return np.array(values, dtype=float)
        except ValueError as exc:  # numpy's "inhomogeneous shape"
            raise SchemaError(
                f"{document} field {key!r} must be an array of shape {shape}, got a ragged list"
            ) from exc
