"""Command-line interface: subcommands and exit codes."""

import pytest

from aspcert.checker import check
from aspcert.cli import main
from aspcert.proof import parse_proof
from aspcert.program_io import parse_program


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def test_solve_consistent(write, capsys):
    path = write("p.lp", "a :- not b.\n")
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert out == "CONSISTENT\n{a}\n"


def test_solve_inconsistent_writes_proof_log(write, capsys, tmp_path):
    path = write("p.lp", "a.\n:- a.\n")
    log = tmp_path / "proof.drupe"
    assert main(["solve", path, "--proof-log", str(log)]) == 0
    assert capsys.readouterr().out == "INCONSISTENT\n"
    proof = parse_proof(log.read_text())
    assert check(parse_program("a.\n:- a.\n"), proof).ok


def test_solve_accepts_heuristic_and_restarts(write, capsys):
    path = write("p.lp", "{a}.\n{b}.\n:- a, b.\n")
    assert main(["solve", path, "--heuristic", "random", "--restarts"]) == 0
    assert capsys.readouterr().out.startswith("CONSISTENT\n")


def test_solve_rejects_unsupported_programs(write, capsys):
    path = write("p.lp", "a | b.\n")
    assert main(["solve", path]) == 2


def test_check_success(write, capsys, ex1_program, fig1_text):
    from aspcert.program_io import emit_program

    program = write("p.lp", emit_program(ex1_program))
    proof = write("p.drupe", fig1_text)
    assert main(["check", program, proof]) == 0
    assert capsys.readouterr().out == "Success\n"


def test_check_reports_semantic_errors(write, capsys, ex1_program, fig1_text):
    from aspcert.program_io import emit_program

    program = write("p.lp", emit_program(ex1_program))
    proof = write("p.drupe", fig1_text.replace("l 1 2 0", "l 1 5 0"))
    assert main(["check", program, proof]) == 1
    assert capsys.readouterr().out.startswith("Error at step 14")


def test_check_errors_name_the_proof_file_line(write, capsys):
    program = write("p.lp", "a :- not b.\nb :- not a.\n")
    proof = write("p.drupe", "b 3 -2 0\n\n\na 1 0\na 0\n")
    assert main(["check", program, proof]) == 1
    assert capsys.readouterr().out.startswith("Error at step 2 (line 4): ")
    proof = write("q.drupe", "b 3 -2 0\n\n  \na 99 0\n")
    assert main(["check", program, proof]) == 2
    assert "step 2 (line 4): unknown variable 99" in capsys.readouterr().err


def test_check_preloaded_completion(write, capsys):
    program = write("p.lp", "a :- not a.\n")
    proof = write("p.drupe", "a 1 0\na 0\n")
    assert main(["check", program, proof, "--preloaded-completion"]) == 0
    assert capsys.readouterr().out == "Success\n"


def test_check_strict_delete(write, capsys):
    program = write("p.lp", "a.\n:- a.\n")
    from aspcert.solver import solve
    from aspcert.proof import serialize_proof

    result = solve(parse_program("a.\n:- a.\n"))
    proof = write("p.drupe", "d 1 2 0\n" + serialize_proof(result.proof))
    assert main(["check", program, proof]) == 0
    assert main(["check", program, proof, "--strict-delete"]) == 1


def test_check_format_violations_exit_2(write, capsys):
    program = write("p.lp", "a :- b.\n")
    proof = write("p.drupe", "b 1 2 0\na 0\n")       # id collides with an atom
    assert main(["check", program, proof]) == 2
    proof = write("q.drupe", "a 1\n")                # missing terminator
    assert main(["check", program, proof]) == 2


def test_check_u_step_naming_an_extension_variable_exits_2(write, capsys):
    program = write("p.lp", "a :- not b.\nb :- not a.\n")
    proof = write("p.drupe", "e 3 0\nu 1 1 1 3 0\n")
    assert main(["check", program, proof]) == 2
    assert "extension variable 3" in capsys.readouterr().err


def test_oracle_lists_answer_sets(write, capsys):
    path = write("p.lp", "{a}.\n{b}.\n:- a, b.\n")
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out == "{}\n{a}\n{b}\n"


def test_oracle_max_models(write, capsys):
    path = write("p.lp", "{a}.\n{b}.\n:- a, b.\n")
    assert main(["oracle", path, "--max-models", "2"]) == 0
    assert capsys.readouterr().out == "{}\n{a}\n"


def test_oracle_silent_on_inconsistency(write, capsys):
    path = write("p.lp", "a.\n:- a.\n")
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out == ""


def test_normalize_prints_rewritten_program(write, capsys):
    path = write("p.lp", "a :- b, d.\na :- c.\n")
    assert main(["normalize", path]) == 0
    assert capsys.readouterr().out == (
        "#atoms a b d c __aux1.\n__aux1 :- b, d.\na :- __aux1.\na :- c.\n"
    )


def test_normalize_rejects_non_normal_programs(write):
    path = write("p.lp", "{a}.\n")
    assert main(["normalize", path]) == 2


def test_fuzz_clean_run(capsys):
    assert main(["fuzz", "--count", "20", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "20 instances, 0 discrepancies\n"


def test_fuzz_accepts_atom_bound(capsys):
    assert main(["fuzz", "--count", "5", "--atoms", "4", "--seed", "1"]) == 0


def test_fuzz_past_the_oracle_guard_exits_2(capsys):
    # The seventh draw at this seed has 21 atoms, one above the oracle's guard.
    assert main(["fuzz", "--count", "10", "--atoms", "20", "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: --atoms 20: 21 atoms exceed the enumeration guard 20\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fuzz", "--atoms", "0"], "argument --atoms: must be at least 1, got 0"),
        (["fuzz", "--atoms", "-3"], "argument --atoms: must be at least 1, got -3"),
        (["fuzz", "--count", "-1"], "argument --count: must be at least 0, got -1"),
        (["fuzz", "--count", "x"], "argument --count: invalid integer 'x'"),
        (["oracle", "p.lp", "--max-models", "0"], "argument --max-models: must be at least 1, got 0"),
    ],
)
def test_out_of_range_numbers_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_missing_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "absent.lp")]) == 2


def test_parse_error_names_the_statement_line(write, capsys):
    path = write("p.lp", "a.\nb :- .\n")
    assert main(["solve", path]) == 2
    assert capsys.readouterr().err.endswith(": line 2: rule body is empty\n")


def test_parse_error_exits_2(write):
    path = write("p.lp", "a :-\n")
    assert main(["solve", path]) == 2
    assert main(["oracle", path]) == 2
