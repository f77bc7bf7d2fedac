"""Unit-job precedence scheduling toolkit.

Exact oracle, Graham / Coffman-Graham baselines, a guess-and-recurse
approximation scheme with an EDF core, laminar interval analysis, and
empirical auditors for the scheme's structural claims.
"""

from .model import (
    BadMachineCount,
    CycleError,
    Instance,
    JobId,
    Schedule,
    ValidationReport,
    Violation,
    build_instance,
    longest_chain,
    longest_chain_path,
    predecessors,
    successors,
    validate_schedule,
)
from .oracle import EXACT_CAP, TooLarge, optimal_makespan, optimal_schedule
from .baselines import coffman_graham_labels, coffman_graham_schedule, list_schedule
from .laminar import (
    BadEps,
    BadHorizon,
    EmptyWindow,
    LaminarFamily,
    LevelAssignment,
    assign_levels,
    best_offset,
    build_laminar,
    feasible_window,
    pad_to_power_of_two,
)
from .qptas import (
    InfeasibleHorizon,
    NoSlot,
    SolveResult,
    exhaustive_guesses,
    insert_discarded,
    laminar_guesses,
    solve,
)
from .audits import (
    ADVISORY_CLAIMS,
    CONTRACTUAL_CLAIMS,
    AuditReport,
    PreconditionUnmet,
    audit_instance,
    run_oracle_pinned,
)
from .generators import BadSpec, GeneratorSpec, generate, standard_corpus
from .textio import (
    ParseError,
    emit_instance,
    emit_schedule,
    parse_instance,
    parse_schedule,
)

__all__ = [
    "ADVISORY_CLAIMS",
    "AuditReport",
    "BadEps",
    "BadHorizon",
    "BadMachineCount",
    "BadSpec",
    "CONTRACTUAL_CLAIMS",
    "CycleError",
    "EXACT_CAP",
    "EmptyWindow",
    "GeneratorSpec",
    "InfeasibleHorizon",
    "Instance",
    "JobId",
    "LaminarFamily",
    "LevelAssignment",
    "NoSlot",
    "ParseError",
    "PreconditionUnmet",
    "Schedule",
    "SolveResult",
    "TooLarge",
    "ValidationReport",
    "Violation",
    "assign_levels",
    "audit_instance",
    "best_offset",
    "build_instance",
    "build_laminar",
    "coffman_graham_labels",
    "coffman_graham_schedule",
    "emit_instance",
    "emit_schedule",
    "exhaustive_guesses",
    "feasible_window",
    "generate",
    "insert_discarded",
    "laminar_guesses",
    "list_schedule",
    "longest_chain",
    "longest_chain_path",
    "optimal_makespan",
    "optimal_schedule",
    "pad_to_power_of_two",
    "parse_instance",
    "parse_schedule",
    "predecessors",
    "run_oracle_pinned",
    "solve",
    "standard_corpus",
    "successors",
    "validate_schedule",
]
