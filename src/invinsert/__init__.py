"""Translationally invariant quantum query algorithms for ordered insertion."""

from .bounds import bound_report, harmonic_sum, min_queries_invariant, overlap_bound
from .compose import CompositionRun, compose_all, compose_solve, rate, reduced_oracle
from .errors import (
    CompositionError, ContractError, FactorizationError, SchemaError, SolverError,
)
from .exact import (
    CosineSeries,
    FeasibilityCertificate,
    MatchingChain,
    a0,
    b0,
    build_chain,
    certify_nonneg,
    k1_feasible,
    k2_feasible,
    search_free_series,
)
from .greedy import GreedyTrace, greedy_run, one_query_asymptotic, one_query_prob
from .hilbert import PhaseSchedule, load_schedule, save_schedule
from .synth import (
    LaurentPoly,
    Poly,
    phases_from_states,
    q_from_chain,
    spectral_factor,
    states_from_poly,
    synthesize_exact,
    v_column,
)

__version__ = "0.1.0"

__all__ = [
    "CompositionRun",
    "CompositionError",
    "ContractError",
    "CosineSeries",
    "FactorizationError",
    "FeasibilityCertificate",
    "GreedyTrace",
    "LaurentPoly",
    "MatchingChain",
    "PhaseSchedule",
    "Poly",
    "SchemaError",
    "SolverError",
    "a0",
    "b0",
    "bound_report",
    "build_chain",
    "certify_nonneg",
    "compose_all",
    "compose_solve",
    "greedy_run",
    "harmonic_sum",
    "k1_feasible",
    "k2_feasible",
    "load_schedule",
    "min_queries_invariant",
    "one_query_asymptotic",
    "one_query_prob",
    "overlap_bound",
    "phases_from_states",
    "q_from_chain",
    "rate",
    "reduced_oracle",
    "save_schedule",
    "search_free_series",
    "spectral_factor",
    "states_from_poly",
    "synthesize_exact",
    "v_column",
]
