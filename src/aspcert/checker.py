"""Polynomial-time proof checking against a ground program.

The checker keeps a multiset of nogoods in a NogoodStore. b steps name
program bodies and attach their definitions, and so does the first line but
a d line that names a catalog id no b or e step has taken; c and s steps may
only add nogoods that belong to the program's completion (a c step with no
atoms, {T B}, only for an integrity constraint's body B); a steps must have
the reverse-unit-propagation property against the current multiset, tested
through the store's watch lists from the top-level assignment the store
keeps between tests; l and u steps are validated against the dependency
graph and the unfounded-set conditions; d steps remove one instance and
declare nothing. The dependency graph is built at the first l step, the only
reader. The proof succeeds when the empty nogood is present at the end.

One BodyRegistry owns every variable id above the atoms. b steps declare
bodies and e steps extension variables; a catalog id neither has taken
names its catalog body from the first line that uses it on, and the
preloaded completion declares every catalog id. An l step gives an external
body no line has named its catalog id, or the lowest free id from a high
base when an e or b step took that id or the body, a disjunctive rule's
unshifted body, has none. An id names one body or one extension variable
for good, and a body has one id, so a step that breaks either is refused.
The checker reads the program as normalize_weights rewrites it, so a
weight rule's counter atoms take the ids after the program's atoms, and the
catalog's body ids follow them. The body catalog of that program is the
checker's one index of the completion: which literal sets are bodies under
which ids, and which (atom, body) pairs fire.

Two error classes mirror the CLI exit codes: ProofFormatError means the proof
is ill-formed relative to the program (unknown ids, redeclared bodies, ...),
while a failed semantic condition yields an unsuccessful CheckResult naming
the offending step. Both name the step's line in the proof file as well when
the proof was parsed from text, since blank lines make the two counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .completion import BodyCatalog, BodyRegistry, body_catalog, body_definition, normalize_weights
from .core import Program, is_consistent
from .loops import Graph, dependency_graph, external_bodies, is_loop, is_unfounded_set, loop_nogood
from .proof import Proof, Step
from .propagation import NogoodStore, rup_run


class ProofFormatError(ValueError):
    """Proof text is well-formed but inconsistent with the program."""


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    step: int | None = None
    reason: str = ""
    line: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def render(self) -> str:
        if self.ok:
            return "Success"
        if self.step is None:
            return f"Error: {self.reason}"
        return f"Error at {_where(self.step, self.line)}: {self.reason}"


def _where(step: int, line: int | None) -> str:
    return f"step {step}" if line is None else f"step {step} (line {line})"


class _StepError(Exception):
    """A failed semantic condition; its one argument is the reason."""


class CheckerState:
    """Stepwise proof checker; drive with step(), finish with result()."""

    def __init__(
        self,
        program: Program,
        *,
        preloaded: bool = False,
        strict_delete: bool = False,
    ) -> None:
        self.program = program = normalize_weights(program)
        self.preloaded = preloaded
        self.strict_delete = strict_delete
        self.catalog: BodyCatalog = body_catalog(program)
        self.registry = BodyRegistry(program.atom_count)
        self.store = NogoodStore()
        self.step_no = 0
        self.line: int | None = None
        if preloaded:
            self._preload()

    # -- setup ---------------------------------------------------------------

    @cached_property
    def graph(self) -> Graph:
        """The positive dependency graph, built at the first l step that reads it."""
        return dependency_graph(self.program)

    def _preload(self) -> None:
        ids = self.catalog.ids
        for body, body_id in ids.items():
            self._declare(body_id, body)
            if body in self.catalog.constraints:
                self.store.insert(frozenset({body_id}))
        for atom in self.program.atom_ids():
            body_ids = tuple(ids[b] for b in self.catalog.bodies_of(atom))
            self.store.insert(loop_nogood(atom, body_ids))
        for atom, body in self.catalog.firing:
            self.store.insert(frozenset({-atom, ids[body]}))

    # -- variable vocabulary -------------------------------------------------

    def _declare(self, body_id: int, body: frozenset[int]) -> None:
        """Name body by body_id and add its definition."""
        try:
            self.registry.declare(body_id, body)
        except ValueError as exc:
            raise ProofFormatError(str(exc)) from None
        for nogood in body_definition(body_id, body):
            self.store.insert(nogood)

    def _body(self, body_id: int, what: str = "body id") -> frozenset[int]:
        """The body an id names; a catalog id no line has taken is declared here."""
        body = self.registry.lits_of(body_id)
        if body is None:
            body = None if self.registry.knows(body_id) else self.catalog.body_of(body_id)
            if body is None:
                raise ProofFormatError(f"unknown {what} {body_id}")
            self._declare(body_id, body)
        return body

    def _require_known(self, lits: tuple[int, ...]) -> None:
        knows = self.registry.knows
        for lit in lits:
            if not knows(abs(lit)):
                self._body(abs(lit), "variable")

    def _require_atoms(self, atoms: tuple[int, ...]) -> None:
        for atom in atoms:
            if not 1 <= atom <= self.program.atom_count:
                raise ProofFormatError(f"unknown atom {atom}")

    # -- steps -----------------------------------------------------------------

    def step(self, step: Step) -> None:
        """Apply one proof step: _StepError on bad semantics; a ProofFormatError names the step."""
        self.step_no += 1
        try:
            if self.preloaded and step.kind in ("b", "c", "s"):
                raise ProofFormatError(
                    f"{step.kind} steps are not allowed with a preloaded completion"
                )
            getattr(self, f"_step_{step.kind}")(step)
        except ProofFormatError as exc:
            raise ProofFormatError(f"{_where(self.step_no, self.line)}: {exc}") from None

    def _step_b(self, step: Step) -> None:
        body = frozenset(step.lits)
        if body not in self.catalog.ids:
            # Catalog bodies are consistent and name only atoms: check on a miss.
            self._require_atoms(tuple(abs(l) for l in step.lits))
            if not is_consistent(step.lits):
                raise ProofFormatError("contradictory body literals")
            raise ProofFormatError("literal set is not an induced body of the program")
        self._declare(step.head, body)

    def _step_a(self, step: Step) -> None:
        self._require_known(step.lits)
        delta = frozenset(step.lits)
        if rup_run(self.store, delta) is None:
            raise _StepError("nogood lacks the unit-propagation conflict property")
        self.store.insert(delta)

    def _step_c(self, step: Step) -> None:
        body = self._body(step.head)
        self._require_atoms(step.lits)
        if step.lits:
            firing = len(step.lits) == 1 and (step.lits[0], body) in self.catalog.firing
        else:
            firing = body in self.catalog.constraints
        if not firing:
            raise _StepError("not a rule-firing nogood of the program")
        self.store.insert(frozenset({step.head, *(-a for a in step.lits)}))

    def _step_s(self, step: Step) -> None:
        self._require_atoms((step.head,))
        if len(set(step.lits)) != len(step.lits):
            raise _StepError("repeated body id")
        bodies = {self._body(body_id) for body_id in step.lits}
        if bodies != set(self.catalog.bodies_of(step.head)):
            raise _StepError("body list does not match the atom's induced bodies")
        self.store.insert(loop_nogood(step.head, step.lits))

    def _step_e(self, step: Step) -> None:
        if step.lits:
            raise ProofFormatError("an e step carries no literals")
        try:
            self.registry.extend(step.head)
        except ValueError:
            raise _StepError("extension variable is not fresh") from None
        self.store.insert(frozenset({-step.head}))

    def _step_d(self, step: Step) -> None:
        if not self.store.remove(frozenset(step.lits)) and self.strict_delete:
            raise _StepError("deleted nogood is not present")

    def _step_l(self, step: Step) -> None:
        self._require_atoms(step.lits)
        atoms = frozenset(step.lits)
        if not is_loop(self.graph, atoms):
            raise _StepError("atom set is not a loop of the program")
        body_ids = []
        for body in external_bodies(self.program, self.catalog, atoms):
            body_id = self.registry.id_of(body)
            if body_id is None:
                body_id = self.catalog.ids.get(body)
                # An unshifted disjunctive body has no catalog id, and an e or
                # b line may have taken a catalog body's.
                if body_id is None or self.registry.knows(body_id):
                    body_id = self.registry.internal_id()
                self._declare(body_id, body)
            body_ids.append(body_id)
        self.store.insert(loop_nogood(step.lits[0], body_ids))

    def _step_u(self, step: Step) -> None:
        self._require_atoms(step.unfounded)
        self._require_known(step.lits)
        if not is_consistent(step.lits):
            raise ProofFormatError("contradictory assignment literals")
        named = sorted(abs(lit) for lit in step.lits if self.registry.is_extension(abs(lit)))
        if named:
            raise ProofFormatError(f"assignment names extension variable {named[0]}")
        unfounded = frozenset(step.unfounded)
        assignment = frozenset(step.lits)
        if not any(a in assignment for a in unfounded):
            raise _StepError("assignment makes no unfounded atom true")
        if not is_unfounded_set(self.program, assignment, unfounded, self.registry):
            raise _StepError("atom set is not unfounded for the assignment")
        self.store.insert(assignment)

    # -- result ------------------------------------------------------------

    def result(self) -> CheckResult:
        if not self.store.empty:
            return CheckResult(False, None, "empty nogood never derived (or deleted)")
        return CheckResult(True)


def check(
    program: Program,
    proof: Proof,
    *,
    preloaded: bool = False,
    strict_delete: bool = False,
) -> CheckResult:
    """Check a proof of inconsistency for the program; BudgetError when a
    weight rule's counter is past the cap."""
    state = CheckerState(program, preloaded=preloaded, strict_delete=strict_delete)
    for step, line in zip(proof.steps, proof.lines or (None,) * len(proof)):
        state.line = line
        try:
            state.step(step)
        except _StepError as exc:
            return CheckResult(False, state.step_no, str(exc), line)
    return state.result()
