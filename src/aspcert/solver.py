"""Conflict-driven solving with machine-checkable inconsistency proofs.

The solver assigns atoms and body variables under the program's completion
nogoods, learns first-UIP nogoods from conflicts, and breaks unfounded
positive recursion with loop nogoods. It runs on the program as
normalize_weights rewrites it: weight rules become normal rules over counter
atoms, numbered after the program's atoms, and the answer set drops them.
An inconsistent run ends once a conflict no longer depends on any decision.
Only then does the solver write the proof: the lines of the nogoods the
refutation rests on, learned ones included, and the empty nogood; see
"Lazy lines".

Search state lives in flat lists. Variable ids are contiguous, atoms
1..atom_count and then the bodies in catalog order, so `val` is indexed by
the literal itself (length 2*var_count+1; a negative literal wraps to the
tail) and holds True, False or None, `watches` is indexed the same way, and
`level` and `reason` are indexed by variable. Every variable below `cursor`
is assigned, so picking a branch walks forward from it, and a backjump
lowers it to the smallest variable it unassigns.

The trail is level-ordered: every literal, decision or implied, is assigned
at the current decision level, and `trail_lim` holds the trail length at
each decision, so a backjump pops a suffix of the trail and propagation
resumes at its new end without rescanning the kept part. A restart is a
backjump to level 0 every RESTART_INTERVAL conflicts; it keeps every learned
nogood, so no nogood is ever deleted, the search terminates, and the solver
writes no d line.

Set-up (`load_completion`) builds each completion nogood directly as a tuple
in `sorted_lits` order: by variable id, +v before -v. A body holds no atom
with both signs, so one sort of its literals by variable gives that order.
The body catalog numbers the bodies, lists each atom's bodies and the
rule-firing pairs; the solver keeps no index of its own, and its body ids
are the catalog's, which the checker knows too. Each body B, in id order,
gets the definition nogood (its sorted literals, then -B: a body id is above
every atom id) and (-l, B) per literal l, and then, if B is an integrity
constraint's body, the constraint's nogood (below). One support nogood
(a, -B1, ..., -Bk), body ids ascending, follows per atom in atom order, and
then the rule-firing nogoods (-a, B) in the catalog's firing order; each of
these is tagged with its s or c line (an s line lists the bodies in catalog
order). Apart from the constraints, these are the completion's body
definitions, support nogoods and rule-firing nogoods in sorted_lits order,
as the tests check against a reference built from the rules. Learned and
loop nogoods are sorted the same way. Set-up then watches every nogood in
one pass, as MiniSat adds its problem clauses: on its first two entries, a
unit nogood on its one entry twice, and a free unit nogood's complement is
set at level 0 with that nogood as its reason. The first propagation does
the rest; it meets a violated unit nogood on its true entry, and `run`
refutes that conflict. `attach` adds only what search derives, a learned or
loop nogood, which has no false entry and at most one free entry (a learned
one exactly one). When a watched entry becomes true, `propagate` reads the
other watched entry first: if that one is false, the nogood is satisfied,
keeps both watches and stays on the list without a replacement scan. Its
false entry was assigned at a level no higher than the true one, so a
backjump that frees the false entry frees the true one too.

An integrity constraint `:- B'.` is a rule with an empty head; its body B
(the literals B') must be false, the rule-firing nogood {T B}. Set-up
adds the nogood B' itself, the body's literals, tagged with the line
`c B 0`. When no other rule induces B, nothing else needs B: set-up sets B
false at level 0, with no reason, and adds no definition of B, so no nogood
names it. B' follows B's definition whatever its length. Once a lemma
rests on B', the tag writes `c B 0`, from which the checker derives B'.

Lazy lines. A first-UIP nogood follows by resolution from the conflict nogood
and the reasons `analyze` resolved on. `analyze` then minimises it: it drops
each literal below the conflict level whose reason's other entries are all
in the nogood or at level 0, so that reason derives it from the rest. The
nogood is RUP against the conflict, the reasons resolved on, the reasons
minimisation used and the level-0 reasons behind their level-0 literals.
`run` keeps these with the learned nogood as its antecedents: the first
three as nogood indices, the last as the level-0 variables. It writes
nothing. Once a conflict at level 0 is found, `refute` walks back from
it once: through the level-0 reason of each variable it meets and the
antecedents of each learned nogood. It gives the pending lines of the
nogoods it reached in nogood-index order, then the empty nogood. A
learned nogood rests only on nogoods attached before it, and level-0
assignments survive every restart, so that order puts every line after those
it rests on. A nogood's line is its own c, s, l or a line; a body definition
has none, and no b line is written. The checker declares each body, with
its definition, at the first line that names its catalog id, and an l line
gives its external bodies their catalog ids too. A body definition matters
to a lemma only through another nogood that names the body, and that
nogood's line comes first. A proof holds only the lines the refutation
rests on, and a run that never refutes anything writes no line. `solve`
returns these steps as the proof, or writes their text to a given sink.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import IO, NamedTuple

from .completion import body_catalog, normalize_weights
from .core import Nogood, Program
from .loops import (
    cyclic_atoms, dependency_graph, external_bodies, loop_nogood, strongly_connected_components,
)
from .proof import Proof, Step, serialize_step, sorted_lits

HEURISTICS = ("min-true", "min-false", "random")
RESTART_INTERVAL = 100

# The kind, head and literals of the line a nogood is written with once the
# refutation rests on it. A learned nogood's a tag has head 0; a constraint's
# c tag ("c", B, ()) has no atoms.
Tag = tuple[str, int, tuple[int, ...]]
# What a learned nogood was derived from: the conflict, the reasons analyze()
# resolved on and those minimisation used, and the level-0 variables they name.
Antecedents = tuple[tuple[int, ...], tuple[int, ...]]

CONSISTENT = "CONSISTENT"
INCONSISTENT = "INCONSISTENT"


class SolveError(ValueError):
    """Raised for programs outside the solver's scope."""


class SolveResult(NamedTuple):
    status: str
    answer_set: frozenset[int] | None = None
    proof: Proof | None = None


class _Search:
    """Two-watch engine plus CDNL state over atoms and body variables."""

    def __init__(self, program: Program, heuristic: str, rng: random.Random | None,
                 cyclic: frozenset[int]) -> None:
        self.program = program
        self.heuristic = heuristic
        self.rng = rng

        self.catalog = body_catalog(program)
        self.var_count = program.atom_count + len(self.catalog.ids)
        self.cyclic = cyclic
        self.supports: dict[int, list[tuple[int, frozenset[int]]]] = {
            atom: [
                (self.catalog.ids[body], frozenset(l for l in body if l > 0))
                for body in self.catalog.bodies_of(atom)
            ]
            for atom in self.cyclic
        }
        # The antecedents of each learned nogood, by index.
        self.antecedents: dict[int, Antecedents] = {}

        size = 2 * self.var_count + 1
        self.val: list[bool | None] = [None] * size
        self.level: list[int] = [0] * (self.var_count + 1)
        self.reason: list[int | None] = [None] * (self.var_count + 1)
        self.cursor = 1
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.dl = 0

        self.nogoods: list[tuple[int, ...]] = []
        self.watched: list[tuple[int, int]] = []
        self.watches: list[list[int]] = [[] for _ in range(size)]
        self.tags: list[Tag | None] = []
        self.loop_seen: set[Nogood] = set()
        self.conflicts = 0
        # Lower-level literals that minimisation dropped from learned nogoods.
        self.dropped = 0

    # -- proof steps -----------------------------------------------------------

    def refute(self, conflict: int) -> tuple[Step, ...]:
        """The pending lines of the nogoods a level-0 conflict rests on, then
        the empty nogood.

        From the conflict, the walk follows the level-0 reason of each
        variable it meets and the recorded antecedents of each learned
        nogood.
        """
        tags, reason, nogoods, antecedents = self.tags, self.reason, self.nogoods, self.antecedents
        batch: list[int] = []
        reached: set[int] = set()
        justified: set[int] = set()
        idxs, roots = [conflict], list(nogoods[conflict])
        while idxs or roots:
            if roots:
                var = abs(roots.pop())
                if var in justified:
                    continue
                justified.add(var)
                idx = reason[var]
                roots.extend(nogoods[idx])
            else:
                idx = idxs.pop()
            if idx in reached:
                continue
            reached.add(idx)
            batch.append(idx)
            if idx in antecedents:
                resolved, lemma_roots = antecedents[idx]
                idxs.extend(resolved)
                roots.extend(lemma_roots)
        steps = [Step(*tags[idx]) for idx in sorted(batch) if tags[idx] is not None]
        steps.append(Step("a"))
        return tuple(steps)

    # -- assignment ------------------------------------------------------------

    def assign(self, lit: int, reason_idx: int | None) -> None:
        var = lit if lit > 0 else -lit
        val = self.val
        val[lit] = True
        val[-lit] = False
        self.level[var] = self.dl
        self.reason[var] = reason_idx
        self.trail.append(lit)

    def decide(self, lit: int) -> None:
        self.trail_lim.append(len(self.trail))
        self.dl += 1
        self.assign(lit, None)

    def backjump(self, target: int) -> None:
        if target >= self.dl:
            return
        val, trail = self.val, self.trail
        cut = self.trail_lim[target]
        lowest = self.cursor
        for lit in trail[cut:]:
            val[lit] = val[-lit] = None
            var = lit if lit > 0 else -lit
            if var < lowest:
                lowest = var
        del trail[cut:]
        del self.trail_lim[target:]
        self.cursor = lowest
        self.qhead = cut
        self.dl = target

    # -- nogood store ------------------------------------------------------------

    def attach(self, entries: tuple[int, ...], tag: Tag) -> int | None:
        """Add a learned or loop nogood, given in sorted_lits order, its line
        pending; returns its index as a conflict if it is violated.

        The nogood has no false entry and at most one free entry (a learned
        one exactly one). It watches the free entry, if any, and the true
        entries of the highest levels, and implies the free entry's
        complement.
        """
        idx = len(self.nogoods)
        self.nogoods.append(entries)
        self.tags.append(tag)
        val, level = self.val, self.level
        frees = [l for l in entries if val[l] is None]
        trues = sorted([l for l in entries if val[l]], key=lambda l: -level[abs(l)])
        pool = frees + trues
        pair = (pool[0], pool[1] if len(pool) > 1 else pool[0])
        self.watched.append(pair)
        for lit in set(pair):
            self.watches[lit].append(idx)
        if not frees:
            return idx
        self.assign(-frees[0], idx)
        return None

    def load_completion(self) -> None:
        """Build the completion, its lines pending, in the order the module
        docstring gives, and watch it in one pass.

        Each nogood watches its first two entries, a unit nogood its one
        entry twice, and a free unit nogood's complement is set at level 0
        with that nogood as its reason. The first propagation does the rest:
        it finds any nogood violated at level 0, and `run` refutes it.
        """
        program, catalog = self.program, self.catalog
        nogoods, tags, body_ids = self.nogoods, self.tags, catalog.ids
        constraints = catalog.constraints
        # Constraint bodies no rule induces: only their constraint's nogood uses them.
        lone = constraints.difference(chain.from_iterable(catalog.ib.values()))

        for body, body_id in body_ids.items():
            lits = tuple(sorted(body, key=abs))
            if body in lone:
                self.assign(-body_id, None)
            else:
                nogoods.append(lits + (-body_id,))
                nogoods += [(-lit, body_id) for lit in lits]
                tags += [None] * (len(lits) + 1)
            if body in constraints:
                nogoods.append(lits)
                tags.append(("c", body_id, ()))
        for atom in program.atom_ids():
            ids = tuple([body_ids[body] for body in catalog.bodies_of(atom)])
            nogoods.append((atom, *[-b for b in sorted(ids)]))
            tags.append(("s", atom, ids))
        for atom, body in catalog.firing:
            body_id = body_ids[body]
            nogoods.append((-atom, body_id))
            tags.append(("c", body_id, (atom,)))

        val, watches = self.val, self.watches
        for idx, entries in enumerate(nogoods):
            first = entries[0]
            watches[first].append(idx)
            if len(entries) > 1:
                watches[entries[1]].append(idx)
            elif val[first] is None:
                self.assign(-first, idx)
        self.watched = [entries[:2] if len(entries) > 1 else entries * 2 for entries in nogoods]

    # -- propagation ------------------------------------------------------------

    def propagate(self) -> int | None:
        """Run the watch loop to fixpoint; returns a violated nogood's index.

        A visited nogood whose other watched entry is false is satisfied and
        keeps both watches; otherwise it looks for a replacement watch. A
        nogood of two literals watches both, so it never looks for one. The
        watch list is compacted in place; implied literals are assigned
        inline, as assign() would.
        """
        trail, val, level, reason = self.trail, self.val, self.level, self.reason
        nogoods, watched, watches = self.nogoods, self.watched, self.watches
        dl, qhead = self.dl, self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            idxs = watches[lit]
            kept = 0
            for pos, idx in enumerate(idxs):
                w1, w2 = watched[idx]
                if w1 != lit:
                    w1, w2 = w2, w1
                other = val[w2] if w2 != w1 else True
                if other is not False:
                    entries = nogoods[idx]
                    if len(entries) > 2:
                        for cand in entries:
                            if cand != w1 and cand != w2 and val[cand] is not True:
                                watched[idx] = (cand, w2)
                                watches[cand].append(idx)
                                break
                        else:
                            cand = 0  # no replacement: literal 0 never occurs
                        if cand:
                            continue
                idxs[kept] = idx
                kept += 1
                if other is False:
                    continue
                if other is None:
                    val[w2] = False
                    val[-w2] = True
                    var = w2 if w2 > 0 else -w2
                    level[var] = dl
                    reason[var] = idx
                    trail.append(-w2)
                    continue
                del idxs[kept:pos + 1]
                self.qhead = qhead
                return idx
            del idxs[kept:]
        self.qhead = qhead
        return None

    def propagate_full(self) -> int | None:
        """Watch fixpoint plus unfounded-set handling, as one closed operation."""
        while True:
            conflict = self.propagate()
            if conflict is not None or not self.cyclic:
                return conflict
            component = self._unfounded_component()
            if component is None:
                return None
            atoms = sorted(component)
            bodies = external_bodies(self.program, self.catalog, component)
            lam = loop_nogood(atoms[0], (self.catalog.ids[b] for b in bodies))
            if lam in self.loop_seen:
                raise AssertionError("unfounded component recurred")
            self.loop_seen.add(lam)
            conflict = self.attach(sorted_lits(lam), ("l", 0, tuple(atoms)))
            if conflict is not None:
                return conflict

    def _unfounded_component(self) -> frozenset[int] | None:
        """A source SCC of the support graph on the greatest unfounded set.

        Among several source SCCs the one whose least atom is smallest wins;
        the emitted l steps, and so the proof text, depend on this choice.
        """
        val = self.val
        unmarked = {a for a in self.cyclic if val[a] is not False}
        if not unmarked:
            return None
        changed = True
        while changed:
            changed = False
            for atom in sorted(unmarked):
                for body_id, pos in self.supports[atom]:
                    if val[body_id] is False or pos & unmarked:
                        continue
                    unmarked.discard(atom)
                    changed = True
                    break
        if not unmarked:
            return None
        # Edges run from an atom to the unmarked atoms its live bodies need,
        # so a source SCC is one whose members need nothing outside it.
        needs: dict[int, set[int]] = {atom: set() for atom in unmarked}
        for atom in unmarked:
            for body_id, pos in self.supports[atom]:
                if val[body_id] is not False:
                    needs[atom].update(pos & unmarked)
        components = [frozenset(c) for c in strongly_connected_components(needs)]
        sources = [c for c in components if all(needs[atom] <= c for atom in c)]
        return min(sources, key=min)

    # -- conflict analysis ---------------------------------------------------

    def analyze(self, conflict_idx: int, conflict_level: int) -> tuple[Nogood, int, Antecedents]:
        """First-UIP resolution with local minimisation; returns the learned
        nogood, the backjump level and the nogood's antecedents.

        Resolution walks the trail back from the conflict until one entry of
        the conflict level is left, the UIP. Minimisation then drops each
        entry of a lower level whose reason's other entries are all in the
        nogood or at level 0; that reason joins the resolved ones, and its
        level-0 variables the roots.
        """
        level, reason, nogoods, trail = self.level, self.reason, self.nogoods, self.trail
        seen: set[int] = set()
        below: list[int] = []
        roots: list[int] = []
        resolved = [conflict_idx]
        entries = nogoods[conflict_idx]
        skip = pending = 0
        pos = len(trail)
        while True:
            for entry in entries:
                var = entry if entry > 0 else -entry
                if entry == skip or var in seen:
                    continue
                seen.add(var)
                lv = level[var]
                if lv == conflict_level:
                    pending += 1
                elif lv:
                    below.append(entry)
                else:
                    roots.append(var)
            # Walking back, the trail meets no seen variable of another
            # level before the UIP.
            while True:
                pos -= 1
                lit = trail[pos]
                var = lit if lit > 0 else -lit
                if var in seen:
                    break
            pending -= 1
            if not pending:
                break
            idx = reason[var]
            resolved.append(idx)
            entries = nogoods[idx]
            skip = -lit
        learned = [lit]  # the UIP
        target = 0
        for lit in below:
            var = lit if lit > 0 else -lit
            idx = reason[var]
            if idx is not None:
                for entry in nogoods[idx]:
                    v = entry if entry > 0 else -entry
                    if v not in seen and level[v]:
                        break
                else:
                    resolved.append(idx)
                    for entry in nogoods[idx]:
                        v = entry if entry > 0 else -entry
                        if v not in seen:
                            seen.add(v)
                            roots.append(v)
                    continue
            learned.append(lit)
            if level[var] > target:
                target = level[var]
        self.dropped += len(below) + 1 - len(learned)
        return frozenset(learned), target, (tuple(resolved), tuple(roots))

    # -- search ---------------------------------------------------------------

    def pick_branch(self) -> int | None:
        val, cursor = self.val, self.cursor
        while cursor <= self.var_count and val[cursor] is not None:
            cursor += 1
        self.cursor = cursor
        if cursor > self.var_count:
            return None
        if self.heuristic == "random":
            free = [v for v in range(cursor, self.var_count + 1) if val[v] is None]
            var = self.rng.choice(free)
            return var if self.rng.random() < 0.5 else -var
        return cursor if self.heuristic == "min-true" else -cursor

    def run(self, restarts: bool) -> frozenset[int] | tuple[Step, ...]:
        """Search to the end: an answer set, or the steps of a refutation."""
        while True:
            conflict = self.propagate_full()
            if conflict is not None:
                entries = self.nogoods[conflict]
                conflict_level = max((self.level[abs(l)] for l in entries), default=0)
                if conflict_level == 0:
                    return self.refute(conflict)
                learned, target, antecedents = self.analyze(conflict, conflict_level)
                entries = sorted_lits(learned)
                self.conflicts += 1
                self.backjump(target)
                self.antecedents[len(self.nogoods)] = antecedents
                self.attach(entries, ("a", 0, entries))
                if restarts and self.conflicts % RESTART_INTERVAL == 0:
                    self.backjump(0)
                continue
            branch = self.pick_branch()
            if branch is None:
                return frozenset(a for a in self.program.atom_ids() if self.val[a])
            self.decide(branch)


def solve(
    program: Program,
    *,
    heuristic: str = "min-true",
    restarts: bool = False,
    seed: int = 0,
    proof_sink: IO[str] | None = None,
) -> SolveResult:
    """Solve a normal/choice/weight program, logging a checkable proof.

    Returns CONSISTENT with an answer set or INCONSISTENT with a proof. The
    search runs on the program as normalize_weights rewrites it, so the
    proof names its counter atoms, and the answer set drops them. Given a
    proof_sink, the proof's text is written there and not kept, so the
    result's proof is None; without one, the proof carries the line numbers
    1..n that its text would have.
    """
    if heuristic not in HEURISTICS:
        raise SolveError(f"unknown heuristic {heuristic!r}")
    if any(rule.is_disjunctive for rule in program.rules):
        raise SolveError("disjunctive rules are not supported by the solver")
    normal = normalize_weights(program)
    cyclic = cyclic_atoms(dependency_graph(normal))
    rng = random.Random(seed) if heuristic == "random" else None
    search = _Search(normal, heuristic, rng, cyclic)
    search.load_completion()
    outcome = search.run(restarts)
    if isinstance(outcome, frozenset):
        if normal is not program:
            outcome &= frozenset(program.atom_ids())
        return SolveResult(CONSISTENT, answer_set=outcome)
    if proof_sink is not None:
        proof_sink.writelines(serialize_step(step) + "\n" for step in outcome)
        return SolveResult(INCONSISTENT)
    return SolveResult(INCONSISTENT, proof=Proof(outcome, tuple(range(1, len(outcome) + 1))))
