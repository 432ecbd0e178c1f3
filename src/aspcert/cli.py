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
from .completion import BudgetError
from .core import Program, Rule, RuleKind, basic_rule
from .fuzz import differential_run
from .oracle import ATOM_GUARD, OracleError, enumerate_answer_sets
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
        except (SolveError, BudgetError) as exc:
            raise _InputError(str(exc)) from None
    finally:
        if sink is not None:
            sink.close()
    print(result.status)
    if result.status == CONSISTENT:
        print(_format_atoms(program, result.answer_set))
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
    except (ProofFormatError, BudgetError) as exc:
        raise _InputError(str(exc)) from None
    print(result.render())
    return 0 if result.ok else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    try:
        models = enumerate_answer_sets(program, cap=args.max_models)
    except OracleError as exc:
        raise _InputError(str(exc)) from None
    for model in models:
        print(_format_atoms(program, model))
    return 0


def normalize_short_body(program: Program) -> Program:
    """Name long bodies of multi-rule atoms with fresh auxiliary atoms.

    Only defined for normal programs, integrity constraints included, which
    pass through unchanged. The result has the same answer sets when
    projected to the original atoms, and every atom has at most one body or
    only bodies of at most one literal.
    """
    for rule in program.rules:
        if rule.kind is not RuleKind.BASIC or len(rule.head) > 1:
            raise ValueError("short-body normalization expects a normal program")
    rule_count: dict[int, int] = {}
    for rule in program.rules:
        if rule.head:
            rule_count[rule.head[0]] = rule_count.get(rule.head[0], 0) + 1

    names = list(program.atom_names)
    taken = set(names)
    aux_ids: dict[frozenset[int], int] = {}
    aux_counter = 0
    rules: list[Rule] = []
    for rule in program.rules:
        body = rule.body
        if rule.head and rule_count[rule.head[0]] >= 2 and len(body) >= 2:
            aux = aux_ids.get(body)
            if aux is None:
                # Counters only grow, so only the program's own names can collide.
                aux_counter += 1
                while f"__aux{aux_counter}" in taken:
                    aux_counter += 1
                names.append(f"__aux{aux_counter}")
                aux = aux_ids[body] = len(names)
                rules.append(basic_rule([aux], rule.pos_body, rule.neg_body))
            rules.append(basic_rule(rule.head, [aux]))
        else:
            rules.append(rule)
    return Program(tuple(names), tuple(rules))


def _cmd_normalize(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    try:
        normalized = normalize_short_body(program)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    sys.stdout.write(emit_program(normalized))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    discrepancies = differential_run(args.count, max_atoms=args.atoms, seed=args.seed)
    print(f"{args.count} instances, {len(discrepancies)} discrepancies")
    for item in discrepancies:
        print(f"instance {item.index}: {item.detail}")
        sys.stdout.write(item.program_text)
    return 1 if discrepancies else 0


def _at_least(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse type for integers no smaller than low and, if given, no larger than high."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
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
    # Every draw goes to the oracle, which enumerates at most ATOM_GUARD atoms.
    p_fuzz.add_argument("--atoms", type=_at_least(1, ATOM_GUARD), default=6)
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
