"""Command-line interface: subcommands and exit codes."""

import pytest

import aspcert.cli as cli_module
import aspcert.fuzz as fuzz_module
from aspcert.checker import CheckResult, check
from aspcert.cli import main
from aspcert.proof import parse_proof, serialize_proof
from aspcert.program_io import parse_program
from aspcert.solver import solve


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
    # Every step holds, but without `a 0` the empty nogood is never derived.
    proof = write("q.drupe", fig1_text.removesuffix("a 0\n"))
    assert main(["check", program, proof]) == 1
    assert capsys.readouterr().out == "Error: empty nogood never derived (or deleted)\n"


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
    result = solve(parse_program("a.\n:- a.\n"))
    proof = write("p.drupe", "d 1 0\n" + serialize_proof(result.proof))
    assert main(["check", program, proof]) == 0
    assert main(["check", program, proof, "--strict-delete"]) == 1


def test_check_format_violations_exit_2(write, capsys):
    program = write("p.lp", "a :- b.\n")
    proof = write("p.drupe", "b 1 2 0\na 0\n")       # id collides with an atom
    assert main(["check", program, proof]) == 2
    proof = write("q.drupe", "a 1\n")                # missing terminator
    assert main(["check", program, proof]) == 2


def test_check_a_catalog_id_of_a_body_named_otherwise_exits_2(write, capsys):
    """Body {not b} has catalog id 3. Once a b line names it 4, a first use
    of 3 would name it a second time: a format error."""
    program = write("p.lp", "a :- not b.\nb :- not a.\n")
    proof = write("p.drupe", "b 4 -2 0\na 3 0\na 0\n")
    assert main(["check", program, proof]) == 2
    assert "step 2 (line 2): body [-2] is already named by id 4" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["1_0", "+3"])
def test_check_integer_tokens_beyond_ascii_digits_exit_2(write, capsys, token):
    """int() reads these; the proof format does not."""
    program = write("p.lp", "a :- not a.\n")
    proof = write("p.drupe", f"a 1 0\na {token} 0\n")
    assert main(["check", program, proof]) == 2
    assert "line 2: non-integer token" in capsys.readouterr().err


def test_check_numbers_lines_by_newlines_only(write, capsys):
    """A form feed is no line break: the two steps share line 1."""
    program = write("p.lp", "a :- not a.\n")
    proof = write("p.drupe", "a 1 0\fa 2 0\n")
    assert main(["check", program, proof]) == 2
    assert "line 1: non-integer token" in capsys.readouterr().err
    text = "a :- not b.\nb :- not a.\n:- a.\n:- b.\n"
    program = write("two.lp", text)
    proof_text = serialize_proof(solve(parse_program(text)).proof)
    proof = write("two.drupe", proof_text.replace("\n", "\r\n"))
    assert main(["check", program, proof]) == 0
    assert capsys.readouterr().out == "Success\n"


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


def test_oracle_answers_a_rule_with_6435_minimal_bodies(write, capsys, wide_weight_rule):
    """The oracle reads the rule by its reduct, so it answers at once: with
    no b atom true, a is not derived."""
    path = write("p.lp", wide_weight_rule)
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out == "{}\n"


# 30 literals of weights 1000 + i^2, bound at half their total: the counter
# would need more than COUNTER_CAP = 65,536 atoms.
PAST_CAP_RULE = (
    "a :- 19277 <= {" + ", ".join(f"b{i}={1000 + i * i}" for i in range(30)) + "}.\n:- a.\n"
)


def test_solve_and_check_refuse_a_rule_past_the_counter_cap(write, capsys):
    program = write("p.lp", PAST_CAP_RULE)
    proof = write("p.proof", "a 0\n")
    message = "error: weight rule 1, for a, needs more than 65536 counter atoms\n"
    for argv in (["solve", program], ["check", program, proof]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message
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


def test_fuzz_prints_each_discrepancy_and_exits_1(capsys, monkeypatch):
    """With every proof rejected as written, each refuted draw is printed
    with its finding and its program text, and the run exits 1."""
    monkeypatch.setattr(
        fuzz_module, "check",
        lambda program, proof, preloaded=False: CheckResult(preloaded, 1, "forced"))
    found = fuzz_module.differential_run(20, seed=3)
    assert found
    assert main(["fuzz", "--count", "20", "--seed", "3"]) == 1
    assert capsys.readouterr().out == f"20 instances, {len(found)} discrepancies\n" + "".join(
        f"instance {d.index}: proof rejected: Error at step 1: forced\n{d.program_text}"
        for d in found
    )


def test_fuzz_accepts_atom_bound(capsys):
    assert main(["fuzz", "--count", "5", "--atoms", "4", "--seed", "1"]) == 0


def test_fuzz_past_the_oracle_guard_exits_2(capsys, monkeypatch):
    # Every draw goes to the oracle, whose guard is 20 atoms, so 21 is
    # refused before any draw is made.
    def no_draws(*args, **kwargs):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(cli_module, "differential_run", no_draws)
    with pytest.raises(SystemExit) as stop:
        main(["fuzz", "--count", "10", "--atoms", "21", "--seed", "8"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert "argument --atoms: must be at most 20, got 21" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


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


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["solve", "p.lp", "--proof-log", "absent/p.proof"], "a.\n", "cannot write proof log: "),
        (["oracle", "p.lp"], "".join(f"x{i}.\n" for i in range(21)),
         "21 atoms exceed the enumeration guard 20"),
    ],
    ids=["proof log in a missing directory", "oracle past its atom guard"],
)
def test_input_errors_exit_2(write, capsys, tmp_path, monkeypatch, argv, text, message):
    monkeypatch.chdir(tmp_path)
    write("p.lp", text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: " + message)
    assert "Traceback" not in captured.err


def test_missing_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "absent.lp")]) == 2


def test_parse_error_names_the_statement_line(write, capsys):
    path = write("p.lp", "a.\nb :- .\n")
    assert main(["solve", path]) == 2
    assert capsys.readouterr().err.endswith(": line 2: rule body is empty\n")


def test_weight_rule_number_past_the_digit_limit_exits_2(write, capsys):
    """A bound of 5,000 digits is past int()'s limit; the error names its line."""
    path = write("p.lp", "a :- " + "9" * 5000 + " <= {b=1}.\n")
    assert main(["solve", path]) == 2
    assert capsys.readouterr().err.endswith(": line 1: number of 5000 digits is too long\n")


def test_weight_rule_deeper_than_the_recursion_limit(write, capsys):
    """A rule over 1,500 literals that needs all of them has a counter of
    1,499 atoms in a chain, built without recursion: solve finds the empty
    answer set, and the proof `a 0` is rejected at its step, not ended by a
    traceback."""
    program = write("p.lp", "a :- 1500 <= {" + ", ".join(f"b{i}=1" for i in range(1500)) + "}.\n")
    assert main(["solve", program]) == 0
    assert capsys.readouterr().out == "CONSISTENT\n{}\n"
    assert main(["check", program, write("p.drupe", "a 0\n")]) == 1
    assert capsys.readouterr().out.startswith("Error at step 1")


def test_parse_error_exits_2(write):
    path = write("p.lp", "a :-\n")
    assert main(["solve", path]) == 2
    assert main(["oracle", path]) == 2
