"""Rule evaluation: enumerating assignments of rule bodies to database facts.

An *assignment* ``α`` (Section 2 of the paper) maps every body atom of a rule
to a fact of the database, consistently with variable bindings, such that all
comparison atoms hold.  ``α(head)`` is then the delta fact the rule derives.

The evaluator works over any :class:`~repro.storage.database.BaseDatabase`:

* base atoms ``R(Ȳ)`` match the **active** extent of ``R``;
* delta atoms ``ΔR(Ȳ)`` match the **delta** extent of ``R`` — except in
  *hypothetical mode* (used by Algorithm 1 / independent semantics), where a
  delta atom may match any tuple of the original database, modelling "this
  tuple could have been deleted";
* when the database is a :class:`~repro.storage.sqlite_backend.SQLiteDatabase`
  the body is compiled to a SQL join (see :mod:`repro.datalog.sql_compiler`)
  instead of being evaluated tuple-at-a-time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence

from repro.datalog.ast import Atom, Comparison, Constant, Program, Rule, Variable
from repro.exceptions import EvaluationError, UnknownEngineError
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact
from repro.storage.sqlite_backend import SQLiteDatabase

#: Engine names accepted by :func:`derive_closure` and the four semantics.
ENGINE_AUTO = "auto"
ENGINE_NAIVE = "naive"
ENGINE_SEMI_NAIVE = "semi-naive"
ENGINES = (ENGINE_NAIVE, ENGINE_SEMI_NAIVE)
ENGINE_CHOICES = (ENGINE_AUTO, *ENGINES)


def validate_engine(engine: str | None) -> None:
    """Reject unknown ``engine=`` knob values with a uniform :class:`ValueError`.

    Accepts None (treated as ``"auto"``) and the names in :data:`ENGINE_CHOICES`;
    anything else raises :class:`~repro.exceptions.UnknownEngineError`, which
    every fixpoint consumer (``derive_closure``, the four semantics, the
    provenance builders and :class:`~repro.core.repair.RepairEngine`) surfaces
    unchanged.
    """
    if engine is not None and engine not in ENGINE_CHOICES:
        raise UnknownEngineError(engine, ENGINE_CHOICES)


def resolve_engine(db: BaseDatabase, engine: str | None) -> str:
    """Resolve the ``engine=`` knob to a concrete engine name.

    ``"auto"`` (the default everywhere) selects the semi-naive engine on every
    backend and on any CPU count: the delta-driven in-memory engine for
    :class:`Database` instances and the SQL-level frontier-table engine
    (:mod:`repro.datalog.sql_seminaive`) for SQLite-backed ones.
    ``"naive"`` forces the re-evaluate-everything loop, the
    differential-testing oracle.
    """
    validate_engine(engine)
    if engine is None or engine == ENGINE_AUTO:
        return ENGINE_SEMI_NAIVE
    return engine


@dataclass(frozen=True)
class Assignment:
    """One satisfying assignment of a rule body.

    Attributes
    ----------
    rule:
        The rule being satisfied.
    bindings:
        Mapping from variable name to the value it was bound to.
    used:
        The ``(atom, fact)`` pairs, one per relational body atom, in the
        rule's body order.
    derived:
        The fact ``α(head)`` — the tuple the rule asks to delete.  It is always
        a *base* fact (of the head's relation); delta membership is tracked by
        the database, not by the fact object.
    """

    rule: Rule
    bindings: tuple[tuple[str, Any], ...]
    used: tuple[tuple[Atom, Fact], ...]
    derived: Fact

    @property
    def binding_map(self) -> Dict[str, Any]:
        """The bindings as a dictionary."""
        return dict(self.bindings)

    def base_facts(self) -> tuple[Fact, ...]:
        """Facts matched by the non-delta (positive) body atoms."""
        return tuple(item for atom, item in self.used if not atom.is_delta)

    def delta_facts(self) -> tuple[Fact, ...]:
        """Facts matched by the delta body atoms (as their base counterparts)."""
        return tuple(item for atom, item in self.used if atom.is_delta)

    def all_facts(self) -> tuple[Fact, ...]:
        """Every fact the assignment touches, in body order."""
        return tuple(item for _, item in self.used)

    def signature(self) -> tuple:
        """A hashable signature identifying this assignment up to rule + facts.

        The rule participates by full identity (head, body, comparisons and
        name), not by display name: distinct unnamed rules with the same head
        relation would otherwise collide, and the engines deduplicate
        assignments by this signature.
        """
        return (
            self.rule,
            tuple((atom.relation, atom.is_delta, item) for atom, item in self.used),
        )

    def __str__(self) -> str:
        facts = ", ".join(
            ("Δ" if atom.is_delta else "") + item.label() for atom, item in self.used
        )
        return f"{self.rule.display_name()}: [{facts}] ⟹ Δ{self.derived.label()}"


def ground_head(rule: Rule, bindings: Dict[str, Any]) -> Fact:
    """Instantiate ``α(head)`` from the rule head and a complete binding map."""
    values = []
    for term in rule.head.terms:
        if isinstance(term, Variable):
            if term.name not in bindings:
                raise EvaluationError(
                    f"rule {rule.display_name()}: head variable {term.name!r} is unbound",
                )
            values.append(bindings[term.name])
        else:
            assert isinstance(term, Constant)
            values.append(term.value)
    return Fact(rule.head.relation, tuple(values))


def _bound_positions(atom: Atom, bindings: Dict[str, Any]) -> Dict[int, Any]:
    """Positions of ``atom`` whose value is fixed by constants or current bindings."""
    fixed: Dict[int, Any] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            fixed[position] = term.value
        elif isinstance(term, Variable) and term.name in bindings:
            fixed[position] = bindings[term.name]
    return fixed


def _match_atom(
    atom: Atom, item: Fact, bindings: Dict[str, Any]
) -> Dict[str, Any] | None:
    """Try to unify ``atom`` with ``item`` under ``bindings``.

    Returns the extended bindings on success, None on failure.  Handles
    repeated variables within the atom and constants at any position.
    """
    extended = dict(bindings)
    for term, value in zip(atom.terms, item.values):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            assert isinstance(term, Variable)
            if term.name in extended:
                if extended[term.name] != value:
                    return None
            else:
                extended[term.name] = value
    return extended


def _candidate_facts(
    db: BaseDatabase,
    atom: Atom,
    bindings: Dict[str, Any],
    hypothetical_deltas: bool,
) -> Iterator[Fact]:
    """Facts the ``atom`` may match given the current bindings."""
    fixed = _bound_positions(atom, bindings)
    if atom.is_delta and hypothetical_deltas:
        # Independent semantics: a delta atom may match the delta counterpart of
        # any tuple of the database — both still-active tuples (hypothetically
        # deleted) and tuples already recorded as deleted.  The storage layer
        # deduplicates the two extents (via index membership tests when the
        # engine supports it) so no per-expansion ``seen`` set is built here.
        return db.hypothetical_candidates(atom.relation, fixed)
    return db.candidates(atom.relation, fixed, delta=atom.is_delta)


#: Signature of per-atom candidate providers used by the planned search:
#: ``(body_index, atom, fixed_positions) -> facts``.
CandidateFn = Callable[[int, Atom, Dict[int, Any]], Iterable[Fact]]


def default_candidates(db: BaseDatabase, hypothetical_deltas: bool) -> CandidateFn:
    """The plain candidate provider: active extent for base atoms, delta (or
    hypothetical) extent for delta atoms."""

    def candidates_for(index: int, atom: Atom, fixed: Dict[int, Any]) -> Iterable[Fact]:
        if atom.is_delta and hypothetical_deltas:
            return db.hypothetical_candidates(atom.relation, fixed)
        return db.candidates(atom.relation, fixed, delta=atom.is_delta)

    return candidates_for


def _finalize(
    rule: Rule,
    body: Sequence[Atom],
    comparisons: Sequence[Comparison],
    bindings: Dict[str, Any],
    used: List[tuple[int, Fact]],
    checked: set[int],
    results: List[Assignment],
) -> None:
    """Build an :class:`Assignment` from a complete match, in body order."""
    if len(checked) != len(comparisons):
        unchecked = [
            str(comparisons[i]) for i in range(len(comparisons)) if i not in checked
        ]
        raise EvaluationError(
            f"rule {rule.display_name()}: comparisons with unbound variables: "
            + ", ".join(unchecked),
        )
    derived = ground_head(rule, bindings)
    # ``used`` carries body indices, so restoring body order is a single
    # placement pass (no quadratic first-unconsumed-pair scan).
    pairs: List[tuple[Atom, Fact] | None] = [None] * len(body)
    for index, item in used:
        pairs[index] = (body[index], item)
    results.append(
        Assignment(
            rule=rule,
            bindings=tuple(sorted(bindings.items(), key=lambda kv: kv[0])),
            used=tuple(pairs),  # type: ignore[arg-type]
            derived=derived,
        ),
    )


def planned_search(
    rule: Rule,
    order: Sequence[int],
    position: int,
    bindings: Dict[str, Any],
    used: List[tuple[int, Fact]],
    checked: set[int],
    results: List[Assignment],
    candidates_for: CandidateFn,
) -> None:
    """Depth-first join along a static atom ``order`` (a planner product).

    ``used`` holds ``(body_index, fact)`` pairs for the prefix already matched
    (e.g. the semi-naive frontier seed); ``position`` indexes into ``order``.
    """
    body = rule.body
    comparisons = rule.comparisons
    if not _check_ready_comparisons(comparisons, bindings, checked):
        return
    if position == len(order):
        _finalize(rule, body, comparisons, bindings, used, checked, results)
        return
    index = order[position]
    atom = body[index]
    fixed = _bound_positions(atom, bindings)
    for item in candidates_for(index, atom, fixed):
        extended = _match_atom(atom, item, bindings)
        if extended is None:
            continue
        used.append((index, item))
        planned_search(
            rule, order, position + 1, extended, used, set(checked), results,
            candidates_for,
        )
        used.pop()


def _check_ready_comparisons(
    comparisons: Sequence[Comparison], bindings: Dict[str, Any], checked: set[int],
) -> bool:
    """Evaluate every not-yet-checked comparison whose variables are all bound.

    Mutates ``checked`` with the indexes that became ground.  Returns False as
    soon as one ground comparison fails.
    """
    for index, comparison in enumerate(comparisons):
        if index in checked:
            continue
        if comparison.is_ground(bindings):
            checked.add(index)
            if not comparison.evaluate(bindings):
                return False
    return True


def find_assignments(
    db: BaseDatabase,
    rule: Rule,
    hypothetical_deltas: bool = False,
    use_sql: bool | None = None,
    planner=None,
) -> List[Assignment]:
    """Enumerate every satisfying assignment of ``rule`` over ``db``.

    Parameters
    ----------
    db:
        The database state to evaluate against.
    rule:
        The (delta) rule whose body is matched.
    hypothetical_deltas:
        When True, delta atoms may match any tuple of the database (its
        hypothetical deletion) rather than only the recorded deletions.  This
        is the mode Algorithm 1 uses to build the full Boolean provenance.
    use_sql:
        Force (True) or forbid (False) the SQL evaluation path.  By default the
        SQL path is used exactly when ``db`` is a SQLite-backed engine.
    planner:
        A :class:`~repro.datalog.planner.JoinPlanner` providing a static,
        cached join order for the rule.  Without one, the join order is
        re-derived at every recursion step from the currently bound positions
        (the naive oracle behaviour).  Plans the planner classified as
        ``kind="wcoj"`` route through the generic-join driver
        (:mod:`repro.datalog.wcoj`) when eligible — in-memory engine,
        concrete deltas, no candidate observers — and fall back to the
        binary order otherwise.
    """
    if use_sql is None:
        use_sql = isinstance(db, SQLiteDatabase)
    if use_sql and isinstance(db, SQLiteDatabase):
        from repro.datalog.sql_compiler import find_assignments_sql

        return find_assignments_sql(db, rule, hypothetical_deltas=hypothetical_deltas)

    results: List[Assignment] = []

    if planner is not None:
        plan = planner.plan(rule, seed=None, hypothetical=hypothetical_deltas)
        if plan.kind != "binary":
            from repro.datalog.wcoj import wcoj_assignments, wcoj_eligible

            if wcoj_eligible(db, plan, hypothetical=hypothetical_deltas):
                return wcoj_assignments(db, rule, plan, stats=planner.stats)
        planned_search(
            rule, plan.order, 0, {}, [], set(), results,
            default_candidates(db, hypothetical_deltas),
        )
        return results

    body = list(rule.body)
    comparisons = list(rule.comparisons)

    def extend(
        bindings: Dict[str, Any],
        used: List[tuple[int, Fact]],
        remaining: List[int],
        checked: set[int],
    ) -> None:
        if not _check_ready_comparisons(comparisons, bindings, checked):
            return
        if not remaining:
            _finalize(rule, body, comparisons, bindings, used, checked, results)
            return
        # Choose the most constrained remaining atom (most bound positions) to
        # keep intermediate results small; ties keep body order for determinism.
        best_position = 0
        best_bound = -1
        for position, index in enumerate(remaining):
            bound = len(_bound_positions(body[index], bindings))
            if bound > best_bound:
                best_position, best_bound = position, bound
        index = remaining[best_position]
        atom = body[index]
        rest = remaining[:best_position] + remaining[best_position + 1 :]
        for item in _candidate_facts(db, atom, bindings, hypothetical_deltas):
            extended = _match_atom(atom, item, bindings)
            if extended is None:
                continue
            extend(extended, used + [(index, item)], rest, set(checked))

    extend({}, [], list(range(len(body))), set())
    return results


def find_all_assignments(
    db: BaseDatabase,
    program: Program | Iterable[Rule],
    hypothetical_deltas: bool = False,
) -> List[Assignment]:
    """All assignments of every rule of ``program`` over ``db``."""
    assignments: List[Assignment] = []
    for rule in program:
        assignments.extend(
            find_assignments(db, rule, hypothetical_deltas=hypothetical_deltas),
        )
    return assignments


def is_rule_satisfied(db: BaseDatabase, rule: Rule) -> bool:
    """True when ``rule`` has at least one satisfying assignment over ``db``."""
    return bool(find_assignments(db, rule))


@dataclass
class ClosureResult:
    """The outcome of a fixpoint closure run.

    Attributes
    ----------
    assignments:
        Every distinct assignment observed (by used-fact signature).
    rounds:
        Number of evaluation rounds until the fixpoint.
    engine:
        The concrete engine that ran (``"naive"`` or ``"semi-naive"``).
    """

    assignments: List[Assignment]
    rounds: int
    engine: str


def run_closure(
    db: BaseDatabase,
    program: Program | Iterable[Rule],
    on_assignment=None,
    max_rounds: int | None = None,
    engine: str = ENGINE_AUTO,
    collect_assignments: bool = True,
    context=None,
) -> ClosureResult:
    """End-semantics style closure: derive all delta facts without deleting.

    Records each newly derived delta fact with
    :meth:`BaseDatabase.mark_deleted` (the active extents are untouched) until
    a fixpoint is reached.  ``on_assignment`` (if given) is called exactly once
    with every *new* assignment — the provenance tracker uses this hook.
    Observers registered on a shared
    :class:`~repro.datalog.context.EvalContext` (``context=``) receive the
    same exactly-once stream; the context also carries the cross-run plan and
    compiled-variant caches.  ``collect_assignments=False`` suppresses the
    returned assignment list, and when *nothing* observes (no hook, no
    context observer, no collection) the SQLite semi-naive driver takes its
    install-only fast path: one join per rule variant per round, zero
    assignment rows materialised in Python.

    ``engine`` selects the evaluation strategy:

    * ``"semi-naive"`` (the ``"auto"`` default on every backend) — after a
      first full round, rules are only re-matched through assignments that use
      at least one delta fact derived in the previous round.  In-memory
      databases seed from the storage layer's frontier and join outward along
      cached per-rule plans (:mod:`repro.datalog.seminaive`); SQLite-backed
      databases run delta-rewritten SQL variants against generation-stamped
      frontier tables, with fact installation kept inside SQLite
      (:mod:`repro.datalog.sql_seminaive`);
    * ``"naive"`` — every round re-evaluates every rule against the whole
      database and discards already-seen assignments by signature.  Kept as
      the differential-testing oracle.
    """
    if resolve_engine(db, engine) == ENGINE_SEMI_NAIVE:
        if isinstance(db, SQLiteDatabase):
            from repro.datalog.sql_seminaive import sql_semi_naive_closure

            return sql_semi_naive_closure(
                db,
                program,
                on_assignment=on_assignment,
                max_rounds=max_rounds,
                collect_assignments=collect_assignments,
                context=context,
            )
        from repro.datalog.seminaive import semi_naive_closure

        return semi_naive_closure(
            db,
            program,
            on_assignment=on_assignment,
            max_rounds=max_rounds,
            collect_assignments=collect_assignments,
            context=context,
        )

    rules = list(program)
    all_assignments: list[Assignment] = []
    seen_signatures: set[tuple] = set()
    rounds = 0
    while True:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise EvaluationError(
                f"closure did not converge within {max_rounds} rounds",
            )
        new_delta = False
        for rule in rules:
            for assignment in find_assignments(db, rule):
                signature = assignment.signature()
                if signature in seen_signatures:
                    continue
                seen_signatures.add(signature)
                if collect_assignments:
                    all_assignments.append(assignment)
                if on_assignment is not None:
                    on_assignment(assignment)
                if context is not None:
                    context.notify(assignment)
                if db.mark_deleted(assignment.derived):
                    new_delta = True
        if not new_delta:
            break
    return ClosureResult(all_assignments, rounds, ENGINE_NAIVE)


def derive_closure(
    db: BaseDatabase,
    program: Program | Iterable[Rule],
    on_assignment=None,
    max_rounds: int | None = None,
    engine: str = ENGINE_AUTO,
) -> list[Assignment]:
    """Backwards-compatible wrapper around :func:`run_closure`.

    Returns only the assignment list; use :func:`run_closure` when the round
    count or the resolved engine name is needed.
    """
    return run_closure(
        db, program, on_assignment=on_assignment, max_rounds=max_rounds, engine=engine,
    ).assignments
