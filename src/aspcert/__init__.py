"""Toolkit for ground answer-set programs: a conflict-driven solver that
emits machine-checkable inconsistency proofs, an independent polynomial-time
proof checker, and a brute-force semantic oracle for cross-verification."""

from .checker import CheckerState, CheckResult, ProofFormatError, check
from .completion import (
    DEFAULT_BODY_BUDGET,
    BodyCatalog,
    BodyRegistry,
    BudgetError,
    body_catalog,
    body_definition,
    induced_bodies_of_rule,
    minimal_weight_sets,
    normalize_short_body,
)
from .core import (
    Assignment,
    Nogood,
    Program,
    Rule,
    RuleKind,
    basic_rule,
    choice_rule,
    weight_rule,
)
from .fuzz import Discrepancy, differential_run, random_program
from .loops import (
    cyclic_atoms,
    dependency_graph,
    external_bodies,
    is_loop,
    is_unfounded_set,
    loop_nogood,
)
from .oracle import OracleError, enumerate_answer_sets, is_answer_set
from .program_io import ParseError, emit_program, parse_program
from .proof import (
    Proof,
    ProofSyntaxError,
    Step,
    parse_proof,
    serialize_proof,
    serialize_step,
    sorted_lits,
)
from .propagation import PropagationResult, WeightRulePropagator, rup_run
from .solver import (
    CONSISTENT,
    HEURISTICS,
    INCONSISTENT,
    UNKNOWN,
    SolveError,
    SolveResult,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BodyCatalog",
    "BodyRegistry",
    "BudgetError",
    "CheckResult",
    "CheckerState",
    "CONSISTENT",
    "DEFAULT_BODY_BUDGET",
    "Discrepancy",
    "HEURISTICS",
    "INCONSISTENT",
    "Nogood",
    "OracleError",
    "ParseError",
    "Program",
    "PropagationResult",
    "Proof",
    "ProofFormatError",
    "ProofSyntaxError",
    "Rule",
    "RuleKind",
    "SolveError",
    "SolveResult",
    "Step",
    "UNKNOWN",
    "WeightRulePropagator",
    "basic_rule",
    "body_catalog",
    "body_definition",
    "check",
    "choice_rule",
    "cyclic_atoms",
    "dependency_graph",
    "differential_run",
    "emit_program",
    "enumerate_answer_sets",
    "external_bodies",
    "induced_bodies_of_rule",
    "is_answer_set",
    "is_loop",
    "is_unfounded_set",
    "loop_nogood",
    "minimal_weight_sets",
    "normalize_short_body",
    "parse_program",
    "parse_proof",
    "random_program",
    "rup_run",
    "serialize_proof",
    "serialize_step",
    "solve",
    "sorted_lits",
    "weight_rule",
]
