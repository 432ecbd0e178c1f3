"""Command-line interface: solve, check, oracle, normalize, fuzz.

Exit codes: 0 on success (for check: proof accepted), 1 when a check fails
or the fuzz loop finds a discrepancy, 2 on I/O, parse, or input-domain
problems.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .checker import ProofFormatError, check
from .completion import BudgetError, normalize_short_body
from .core import Program
from .fuzz import differential_run
from .oracle import OracleError, enumerate_answer_sets
from .program_io import ParseError, emit_program, parse_program
from .proof import ProofSyntaxError, parse_proof
from .solver import CONSISTENT, HEURISTICS, SolveError, solve


class _InputError(Exception):
    """Any problem that prevents running the command; maps to exit 2."""


def _load_program(path: str) -> Program:
    try:
        with open(path, encoding="ascii") as handle:
            return parse_program(handle.read())
    except (OSError, UnicodeError, ParseError) as exc:
        raise _InputError(f"cannot read program {path}: {exc}") from None


def _format_atoms(program: Program, atoms: frozenset[int]) -> str:
    return "{" + ", ".join(sorted(program.name(a) for a in atoms)) + "}"


def _cmd_solve(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    sink = None
    try:
        if args.proof_log is not None:
            try:
                sink = open(args.proof_log, "w", encoding="ascii")
            except OSError as exc:
                raise _InputError(f"cannot write proof log: {exc}") from None
        try:
            result = solve(
                program,
                heuristic=args.heuristic,
                restarts=args.restarts,
                proof_sink=sink,
            )
        except SolveError as exc:
            raise _InputError(str(exc)) from None
    finally:
        if sink is not None:
            sink.close()
    print(result.status)
    if result.status == CONSISTENT:
        print(_format_atoms(program, result.answer_set))
    elif result.reason:
        print(result.reason)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    try:
        with open(args.proof, encoding="ascii") as handle:
            proof = parse_proof(handle.read())
    except (OSError, UnicodeError, ProofSyntaxError) as exc:
        raise _InputError(f"cannot read proof {args.proof}: {exc}") from None
    try:
        result = check(
            program,
            proof,
            preloaded=args.preloaded_completion,
            strict_delete=args.strict_delete,
        )
    except ProofFormatError as exc:
        raise _InputError(str(exc)) from None
    print(result.render())
    return 0 if result.ok else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    try:
        models = enumerate_answer_sets(program, cap=args.max_models)
    except (OracleError, BudgetError) as exc:
        raise _InputError(str(exc)) from None
    for model in models:
        print(_format_atoms(program, model))
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    try:
        normalized = normalize_short_body(program)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    sys.stdout.write(emit_program(normalized))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        discrepancies = differential_run(args.count, max_atoms=args.atoms, seed=args.seed)
    except OracleError as exc:
        # Each integrity constraint of a draw adds an atom to the --atoms drawn.
        raise _InputError(f"--atoms {args.atoms}: {exc}") from None
    print(f"{args.count} instances, {len(discrepancies)} discrepancies")
    for item in discrepancies:
        print(f"instance {item.index}: {item.detail}")
        sys.stdout.write(item.program_text)
    return 1 if discrepancies else 0


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspcert",
        description="Solve, check, and cross-verify ground answer-set programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a program, optionally logging a proof")
    p_solve.add_argument("program")
    p_solve.add_argument("--proof-log", metavar="FILE")
    p_solve.add_argument("--heuristic", choices=HEURISTICS, default="min-true")
    p_solve.add_argument("--restarts", action="store_true")
    p_solve.set_defaults(run=_cmd_solve)

    p_check = sub.add_parser("check", help="check a proof against a program")
    p_check.add_argument("program")
    p_check.add_argument("proof")
    p_check.add_argument("--preloaded-completion", action="store_true")
    p_check.add_argument("--strict-delete", action="store_true")
    p_check.set_defaults(run=_cmd_check)

    p_oracle = sub.add_parser("oracle", help="enumerate all answer sets by brute force")
    p_oracle.add_argument("program")
    p_oracle.add_argument("--max-models", type=_at_least(1), metavar="N")
    p_oracle.set_defaults(run=_cmd_oracle)

    p_norm = sub.add_parser("normalize", help="print the short-body normalized program")
    p_norm.add_argument("program")
    p_norm.set_defaults(run=_cmd_normalize)

    p_fuzz = sub.add_parser("fuzz", help="differential-test solver, checker, and oracle")
    p_fuzz.add_argument("--count", type=_at_least(0), default=100)
    p_fuzz.add_argument("--atoms", type=_at_least(1), default=6)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.set_defaults(run=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
