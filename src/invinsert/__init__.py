"""Translationally invariant quantum query algorithms for ordered insertion."""

from .bounds import bound_report, harmonic_sum
from .compose import compose_all, rate
from .errors import (
    CompositionError, ContractError, FactorizationError, SchemaError, SolverError,
)
from .exact import (
    FeasibilityCertificate,
    a0,
    b0,
    build_chain,
    certify_nonneg,
    q_from_chain,
    search_free_series,
)
from .greedy import greedy_run
from .hilbert import load_schedule, save_schedule
from .synth import (
    phases_from_states,
    spectral_factor,
    states_from_poly,
    synthesize_exact,
    v_column,
)

__version__ = "0.1.0"

__all__ = [
    "CompositionError",
    "ContractError",
    "FactorizationError",
    "FeasibilityCertificate",
    "SchemaError",
    "SolverError",
    "a0",
    "b0",
    "bound_report",
    "build_chain",
    "certify_nonneg",
    "compose_all",
    "greedy_run",
    "harmonic_sum",
    "load_schedule",
    "phases_from_states",
    "q_from_chain",
    "rate",
    "save_schedule",
    "search_free_series",
    "spectral_factor",
    "states_from_poly",
    "synthesize_exact",
    "v_column",
]
