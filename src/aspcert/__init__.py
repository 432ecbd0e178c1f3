"""Toolkit for ground answer-set programs: a conflict-driven solver that
emits machine-checkable inconsistency proofs, an independent polynomial-time
proof checker, and a brute-force semantic oracle for cross-verification.
The package root holds the pipeline; the rest lives in the submodules."""

from .checker import CheckResult, ProofFormatError, check
from .completion import BudgetError
from .core import Program, Rule, RuleKind, basic_rule, choice_rule, weight_rule
from .loops import cyclic_atoms, dependency_graph
from .oracle import OracleError, enumerate_answer_sets, is_answer_set
from .program_io import ParseError, emit_program, parse_program
from .proof import Proof, ProofSyntaxError, Step, parse_proof, serialize_proof
from .solver import CONSISTENT, INCONSISTENT, SolveError, SolveResult, solve

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CheckResult",
    "CONSISTENT",
    "INCONSISTENT",
    "OracleError",
    "ParseError",
    "Program",
    "Proof",
    "ProofFormatError",
    "ProofSyntaxError",
    "Rule",
    "RuleKind",
    "SolveError",
    "SolveResult",
    "Step",
    "basic_rule",
    "check",
    "choice_rule",
    "cyclic_atoms",
    "dependency_graph",
    "emit_program",
    "enumerate_answer_sets",
    "is_answer_set",
    "parse_program",
    "parse_proof",
    "serialize_proof",
    "solve",
    "weight_rule",
]
