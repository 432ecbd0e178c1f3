"""Value semantics of the package's records: construction, copy and pickle,
equality, hashing, repr text and immutability.

The tests take no fixtures and import no test library, so the file also
runs as a plain script, for interpreters that have no pytest:

    PYTHONPATH=src python tests/test_records.py
"""

import copy
import pickle

from aspcert import CheckResult, Program, Proof, SolveResult, Step, basic_rule, parse_program, solve
from aspcert.checker import CheckerState
from aspcert.completion import body_catalog
from aspcert.fuzz import Discrepancy

TWO = "a :- not b.\nb :- not a.\n:- a.\n:- b.\n"
STEPS = (Step("a", 0, (-1,)), Step("a"))

# Each value record, built by keyword, with its field names in order and its repr.
RECORDS = [
    (
        Program(atom_names=("a", "b"), rules=(basic_rule((1,), neg=(2,)),)),
        ("atom_names", "rules"),
        "Program(atom_names=('a', 'b'), rules=(Rule(kind=<RuleKind.BASIC: 'basic'>, head=(1,), "
        "pos_body=frozenset(), neg_body=frozenset({2}), bound=0, weights=(), body=frozenset({-2}), "
        "is_disjunctive=False),))",
    ),
    (
        Step(kind="u", head=0, lits=(1, -2), unfounded=(1,)),
        ("kind", "head", "lits", "unfounded"),
        "Step(kind='u', head=0, lits=(1, -2), unfounded=(1,))",
    ),
    (
        Proof(steps=STEPS, lines=(1, 3)),
        ("steps", "lines"),
        "Proof(steps=(Step(kind='a', head=0, lits=(-1,), unfounded=()), "
        "Step(kind='a', head=0, lits=(), unfounded=())), lines=(1, 3))",
    ),
    (
        CheckResult(ok=False, step=1, reason="why", line=2),
        ("ok", "step", "reason", "line"),
        "CheckResult(ok=False, step=1, reason='why', line=2)",
    ),
    (
        SolveResult(status="INCONSISTENT", answer_set=None, proof=Proof(STEPS)),
        ("status", "answer_set", "proof"),
        "SolveResult(status='INCONSISTENT', answer_set=None, proof=Proof(steps=(Step(kind='a', "
        "head=0, lits=(-1,), unfounded=()), Step(kind='a', head=0, lits=(), unfounded=())), "
        "lines=()))",
    ),
    (
        SolveResult(status="CONSISTENT", answer_set=frozenset({2})),
        ("status", "answer_set", "proof"),
        "SolveResult(status='CONSISTENT', answer_set=frozenset({2}), proof=None)",
    ),
    (
        Discrepancy(index=3, program_text="a.\n", detail="x"),
        ("index", "program_text", "detail"),
        "Discrepancy(index=3, program_text='a.\\n', detail='x')",
    ),
]


def _copies(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


def _fields(record, names):
    return tuple(getattr(record, name) for name in names)


def _assert_frozen(record, names):
    for name in names:
        for attempt in (lambda: setattr(record, name, None), lambda: delattr(record, name)):
            try:
                attempt()
            except AttributeError:
                continue
            raise AssertionError(f"{type(record).__name__}.{name} could be changed")


def test_records_survive_copy_and_pickle():
    for record, names, _ in RECORDS:
        for other in _copies(record):
            assert type(other) is type(record)
            assert other == record and hash(other) == hash(record)
            assert _fields(other, names) == _fields(record, names)
            assert repr(other) == repr(record)


def test_record_repr_text():
    for record, _, text in RECORDS:
        assert repr(record) == text


def test_records_are_immutable():
    for record, names, _ in RECORDS:
        _assert_frozen(record, names)


def test_records_built_positionally_compare_by_value():
    for record, names, _ in RECORDS:
        twin = type(record)(*_fields(record, names))
        assert twin is not record and twin == record and hash(twin) == hash(record)
    assert Step("a", 0, (1,)) != Step("a", 0, (-1,)) != Step("d", 0, (-1,))
    assert CheckResult(True) and not CheckResult(False)


def test_proof_equality_ignores_lines():
    proof = Proof(STEPS, (1, 3))
    assert proof == Proof(STEPS) == Proof(STEPS, (2, 7))
    assert hash(proof) == hash(Proof(STEPS))
    assert proof != Proof(STEPS[:1], (1,))
    assert list(proof) == list(STEPS) and len(proof) == 2


def test_body_catalog_is_compared_by_identity():
    catalog = body_catalog(parse_program("a :- not b.\nb :- not a.\n:- a.\n"))
    names = ("ib", "ids", "bodies", "first_id", "shifted", "firing", "constraints")
    assert repr(catalog) == (
        "BodyCatalog(ib={1: (frozenset({-2}),), 2: (frozenset({-1}),)}, "
        "ids={frozenset({-2}): 3, frozenset({-1}): 4, frozenset({1}): 5}, "
        "bodies=(frozenset({-2}), frozenset({-1}), frozenset({1})), first_id=3, shifted=(), "
        "firing={(1, frozenset({-2})): None, (2, frozenset({-1})): None}, "
        "constraints=frozenset({frozenset({1})}))"
    )
    assert catalog == catalog and hash(catalog) == object.__hash__(catalog)
    for other in _copies(catalog):
        assert type(other) is type(catalog) and other != catalog
        assert _fields(other, names) == _fields(catalog, names)
        assert other.body_of(4) == frozenset({-1}) and other.bodies_of(1) == (frozenset({-2}),)
    _assert_frozen(catalog, names)


def test_checker_state_after_two_steps_survives_copy_and_pickle():
    program = parse_program(TWO)
    proof = solve(program).proof
    state = CheckerState(program)
    for step in proof.steps[:2]:
        state.step(step)
    shallow, *deep = _copies(state)
    assert shallow is not state and shallow != state and vars(shallow) == vars(state)
    for other in deep:
        assert type(other) is CheckerState and other != state
        assert other.step_no == 2 and other.catalog.ids == state.catalog.ids
        for step in proof.steps[2:]:
            other.step(step)
        assert other.result() == CheckResult(True)
    # The deep copies share nothing with the state: it has not moved on.
    assert state.step_no == 2 and not state.store.empty
    for step in proof.steps[2:]:
        state.step(step)
    assert state.result().ok


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name} passed")
