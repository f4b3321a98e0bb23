"""Exception types shared across the package."""


class ContractError(RuntimeError):
    """An internal consistency condition failed (parity support, magnitude
    matching, norm deviation, positivity precondition, ...)."""


class FactorizationError(RuntimeError):
    """Spectral factorization could not pair or select roots reliably."""


class CompositionError(RuntimeError):
    """A composed run used a subroutine schedule that is not exact enough."""


class SolverError(RuntimeError):
    """A linear program ended without an optimal solution."""


class SchemaError(ValueError):
    """A JSON input file does not match its documented layout."""

    @staticmethod
    def require_int(data: dict, key: str, document: str) -> int:
        """``data[key]`` if it is a JSON integer; floats, strings and
        booleans raise SchemaError."""
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{document} field {key!r} must be an integer, got {value!r}")
        return value
