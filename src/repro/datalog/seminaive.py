"""Semi-naive, delta-driven fixpoint evaluation.

The naive closure re-evaluates **every** rule against the **whole** database
each round, so round ``k`` redoes all the work of rounds ``1..k-1`` and throws
the repetitions away through a signature set.  The engine in this module
applies the textbook semi-naive discipline to delta programs: after the first
full round, an assignment is new only if it matches at least one delta fact
derived in the previous round (the *frontier*), so each rule is re-entered
through its delta atoms seeded from the frontier and joined outward along a
cached per-rule plan (:mod:`repro.datalog.planner`).

Double counting is avoided by the usual stratification: when a rule has delta
atoms at ranks ``1..m`` (in body order) and the seed is rank ``i``, delta
atoms of rank ``< i`` match only *pre-frontier* facts and ranks ``> i`` match
the full delta extent.  Every new assignment is therefore enumerated exactly
once — the property the provenance ``on_assignment`` hook relies on.

Rounds are stage-style: facts derived during a round are recorded at its end,
so the frontier of round ``k+1`` is exactly what round ``k`` produced and the
round count is deterministic and rule-order independent.

Observer API
------------

Assignment consumers attach in three interchangeable ways, mirroring the SQL
driver (:mod:`repro.datalog.sql_seminaive`): the per-call ``on_assignment``
hook, observers registered on a shared
:class:`~repro.datalog.context.EvalContext` (``context.add_observer``), and
the returned :class:`~repro.datalog.evaluation.ClosureResult` assignment list
(suppressed with ``collect_assignments=False``).  Every observer sees every
*new* assignment exactly once, in derivation-round order.  The in-memory
engine always enumerates assignments in Python (the derivation itself needs
them), so unlike the SQL driver there is no install-only fast path — the
flags only control retention and delivery.  A ``context`` additionally
supplies the planner, backed by the context's shared structural plan cache so
several runs (e.g. the four semantics of one ``compare()``) plan each rule
shape once.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set

from repro.datalog.ast import Program, Rule
from repro.datalog.evaluation import (
    Assignment,
    ClosureResult,
    ENGINE_SEMI_NAIVE,
    _match_atom,
    find_assignments,
    planned_search,
)
from repro.datalog.planner import JoinPlanner
from repro.exceptions import EvaluationError
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact

#: ``relation -> frontier facts`` for one semi-naive round.
Frontier = Dict[str, Set[Fact]]


def delta_body_positions(rule: Rule) -> List[int]:
    """Body indices of the rule's delta atoms, in body order."""
    return [index for index, atom in enumerate(rule.body) if atom.is_delta]


def seeded_rank_assignments(
    db: BaseDatabase,
    rule: Rule,
    frontier: Frontier,
    planner: JoinPlanner,
    rank: int,
    seed_index: int,
    seed_facts: Iterable[Fact],
) -> List[Assignment]:
    """Assignments of ``rule`` seeded from ``seed_facts`` at delta rank ``rank``.

    One rank of the stratified enumeration of :func:`seeded_assignments`:
    ``seed_facts`` are the frontier facts of the seed atom's relation.
    """
    seed_atom = rule.body[seed_index]
    delta_positions = delta_body_positions(rule)
    plan = planner.plan(rule, seed=seed_index)
    # Delta atoms strictly before the seed (in body order) must match
    # pre-frontier facts only; later ones may match anything recorded.
    pre_frontier = set(delta_positions[:rank])

    if plan.kind != "binary":
        from repro.datalog.wcoj import wcoj_eligible, wcoj_seeded_assignments

        if wcoj_eligible(db, plan):
            excluded = {
                index: frontier[rule.body[index].relation]
                for index in pre_frontier
                if frontier.get(rule.body[index].relation)
            }
            return wcoj_seeded_assignments(
                db,
                rule,
                plan,
                seed_index,
                list(seed_facts),
                excluded=excluded or None,
                stats=planner.stats,
            )

    def candidates_for(index: int, atom, fixed):
        facts = db.candidates(atom.relation, fixed, delta=atom.is_delta)
        if index in pre_frontier:
            excluded = frontier.get(atom.relation)
            if excluded:
                return (item for item in facts if item not in excluded)
        return facts

    results: List[Assignment] = []
    for item in seed_facts:
        bindings = _match_atom(seed_atom, item, {})
        if bindings is None:
            continue
        planned_search(
            rule, plan.order, 1, bindings, [(seed_index, item)], set(),
            results, candidates_for,
        )
    return results


def seeded_assignments(
    db: BaseDatabase,
    rule: Rule,
    frontier: Frontier,
    planner: JoinPlanner,
) -> Iterator[Assignment]:
    """Assignments of ``rule`` that use at least one frontier delta fact.

    Each qualifying assignment is produced exactly once: the enumeration is
    split by the rank of the *first* delta atom matched to a frontier fact.
    Base atoms match the active extent and delta atoms the delta extent of
    ``db`` as usual.
    """
    delta_positions = delta_body_positions(rule)
    for rank, seed_index in enumerate(delta_positions):
        seed_facts = frontier.get(rule.body[seed_index].relation)
        if not seed_facts:
            continue
        yield from seeded_rank_assignments(
            db, rule, frontier, planner, rank, seed_index, seed_facts,
        )


def semi_naive_closure(
    db: BaseDatabase,
    program: Program | Iterable[Rule],
    on_assignment=None,
    max_rounds: int | None = None,
    planner: JoinPlanner | None = None,
    collect_assignments: bool = True,
    context=None,
) -> ClosureResult:
    """Derive all delta facts of ``db`` under ``program`` to fixpoint.

    Equivalent to the naive closure (same assignments, same delta facts, same
    exactly-once ``on_assignment`` calls) but incremental after round 1: only
    assignments reachable from the previous round's frontier are enumerated.
    The active extents are never touched (:meth:`BaseDatabase.mark_deleted`
    only records deletions), matching end-semantics style derivation.  See
    the module docstring for the observer knobs (``on_assignment``,
    ``context`` observers, ``collect_assignments``).
    """
    rules = list(program)
    if planner is None:
        planner = context.planner(db) if context is not None else JoinPlanner(db)
    delta_rules = [rule for rule in rules if any(atom.is_delta for atom in rule.body)]
    relations = sorted(
        {atom.relation for rule in delta_rules for atom in rule.body if atom.is_delta},
    )
    tokens = {relation: db.delta_token(relation) for relation in relations}

    all_assignments: List[Assignment] = []
    seen_signatures: set[tuple] = set()
    derived_now: List[Fact] = []

    def record(assignment: Assignment) -> None:
        signature = assignment.signature()
        if signature in seen_signatures:
            return
        seen_signatures.add(signature)
        if collect_assignments:
            all_assignments.append(assignment)
        if on_assignment is not None:
            on_assignment(assignment)
        if context is not None:
            context.notify(assignment)
        derived_now.append(assignment.derived)

    rounds = 0

    def enter_round() -> None:
        nonlocal rounds
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise EvaluationError(
                f"closure did not converge within {max_rounds} rounds",
            )

    # Round 1: one full evaluation of every rule (planned joins, no
    # frontier).
    enter_round()
    for rule in rules:
        for assignment in find_assignments(db, rule, planner=planner):
            record(assignment)
    for item in derived_now:
        db.mark_deleted(item)

    # Rounds 2..: re-enter rules only through the previous round's
    # frontier.  Each round boundary drops the planner's cardinality cache,
    # so a plan first built in this round is costed on the current extents;
    # cached plans are reused unchanged.
    while True:
        frontier: Frontier = {}
        for relation in relations:
            added = db.delta_added_since(relation, tokens[relation])
            tokens[relation] = db.delta_token(relation)
            if added:
                frontier[relation] = set(added)
        if not frontier:
            break
        enter_round()
        planner.begin_round()
        derived_now = []
        for rule in delta_rules:
            for assignment in seeded_assignments(db, rule, frontier, planner):
                record(assignment)
        for item in derived_now:
            db.mark_deleted(item)

    return ClosureResult(all_assignments, rounds, ENGINE_SEMI_NAIVE)
