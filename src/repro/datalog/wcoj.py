"""Worst-case-optimal (generic) join over the in-memory trie indexes.

The binary join path (:func:`~repro.datalog.evaluation.planned_search`)
extends partial assignments one *atom* at a time, which on cyclic bodies
materialises the classic intermediate-result blowup: a triangle
``R(x,y), R(y,z), R(z,x)`` enumerates ``Θ(N²)`` two-atom prefixes even though
only ``O(N^1.5)`` triangles can exist (the AGM bound).  This module implements
the generic-join / leapfrog-triejoin alternative for plans the
:class:`~repro.datalog.planner.JoinPlanner` classified as ``kind="wcoj"``:
variables are bound one at a time along :attr:`JoinPlan.var_order`, and each
variable's candidate values are the *intersection* of the key sets every
participating atom offers at its current trie node — so the search never
explores a prefix that some atom cannot extend.

Integration contract
--------------------

* Extents are walked through the per-position tries of
  :meth:`~repro.storage.indexes.RelationIndex.trie` (delta atoms over the
  delta extent, base atoms over the active extent), so the driver is only
  eligible on the in-memory :class:`~repro.storage.database.Database`.
* The drop-in entry points return plain :class:`Assignment` lists built by the
  same ``_finalize`` machinery as the binary path — body order, comparison
  checking and duplicate semantics are identical, so the semi-naive
  frontier/record pipeline (exactly-once observer delivery included) is
  unchanged.
* Seeded enumeration (:func:`wcoj_seeded_assignments`) mirrors
  :func:`~repro.datalog.seminaive.seeded_rank_assignments`: the seed fact is
  unified first and ``excluded`` rejects assignments whose pre-frontier delta
  atoms matched a frontier fact, preserving the rank-stratified
  exactly-once enumeration.
* Intersections are materialised in sorted value order (type name + repr — a
  deterministic total order even over mixed-type columns), making the
  enumeration order reproducible across runs.

``stats`` (a :class:`~repro.datalog.context.QueryStats`) receives one
``wcoj_intersections`` increment per variable-frontier intersection computed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Set, Tuple

from repro.datalog.ast import Constant, Rule, Variable
from repro.datalog.evaluation import (
    Assignment,
    _check_ready_comparisons,
    _finalize,
    _match_atom,
)
from repro.datalog.planner import PLAN_WCOJ, JoinPlan
from repro.storage.database import Database
from repro.storage.facts import Fact

_MISSING = object()


def wcoj_eligible(db, plan: JoinPlan, hypothetical: bool = False) -> bool:
    """True when ``plan`` should run through the generic-join driver.

    Requires a wcoj-classified plan, the in-memory engine (tries live on
    :class:`~repro.storage.indexes.RelationIndex`) and concrete extents (no
    hypothetical active ∪ delta union).
    """
    return plan.kind == PLAN_WCOJ and not hypothetical and isinstance(db, Database)


def _value_sort_key(value: Any) -> tuple[str, str]:
    """Deterministic total order over heterogeneous attribute values."""
    return (type(value).__name__, repr(value))


class _Cursor:
    """One non-seed body atom's walk state: a pointer into its extent trie.

    ``node`` starts at the trie root descended through the atom's constant
    positions and moves one level per variable occurrence as the driver binds
    variables; after the last occurrence it *is* the matched :class:`Fact`
    (extents hold one fact per value tuple).  ``occurrences[v]`` is how many
    consecutive trie levels variable ``v`` owns for this atom.
    """

    __slots__ = ("index", "node", "occurrences")

    def __init__(self, index: int, node: Any, occurrences: Dict[str, int]) -> None:
        self.index = index
        self.node = node
        self.occurrences = occurrences


def _make_cursor(
    db: Database, rule: Rule, plan: JoinPlan, index: int,
) -> _Cursor | None:
    """Build the cursor for body atom ``index``; None when unsatisfiable."""
    atom = rule.body[index]
    extent = db.relation_index(atom.relation, delta=atom.is_delta)
    const_positions: List[int] = []
    var_positions: Dict[str, List[int]] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            const_positions.append(position)
        else:
            assert isinstance(term, Variable)
            var_positions.setdefault(term.name, []).append(position)
    if not atom.terms:
        # Degenerate zero-arity atom: the extent holds at most one fact.
        facts = extent.facts()
        if not facts:
            return None
        return _Cursor(index, next(iter(facts)), {})
    # Trie key order: constants first, then each variable's occurrences as
    # one consecutive block, blocks sequenced by the plan's global variable
    # order — the driver descends exactly one block per variable binding.
    positions: List[int] = list(const_positions)
    for name in plan.var_order:
        if name in var_positions:
            positions.extend(var_positions[name])
    assert len(positions) == len(atom.terms)
    node: Any = extent.trie(tuple(positions))
    for position in const_positions:
        if not isinstance(node, dict):  # pragma: no cover - defensive
            return None
        node = node.get(atom.terms[position].value)
        if node is None:
            return None
    return _Cursor(
        index, node, {name: len(occ) for name, occ in var_positions.items()},
    )


def _descend(
    participants: Sequence[_Cursor], value: Any, name: str
) -> List[Any] | None:
    """Advance every participant through its ``name`` block by ``value``.

    Returns the saved previous nodes for restoration, or None when some atom
    has no fact with that value (the previous nodes are restored here).
    """
    saved: List[Any] = []
    for cursor in participants:
        node = cursor.node
        for _ in range(cursor.occurrences[name]):
            if not isinstance(node, dict):
                node = None
                break
            node = node.get(value)
            if node is None:
                break
        if node is None:
            for restored, prev in zip(participants, saved):
                restored.node = prev
            return None
        saved.append(cursor.node)
        cursor.node = node
    return saved


def _restore(participants: Sequence[_Cursor], saved: Sequence[Any]) -> None:
    for cursor, prev in zip(participants, saved):
        cursor.node = prev


def _enumerate_one(
    db: Database,
    rule: Rule,
    plan: JoinPlan,
    seed_index: int | None,
    seed_fact: Fact | None,
    excluded: Mapping[int, Set[Fact]] | None,
    stats,
    results: List[Assignment],
) -> None:
    """Generic join for one (possibly seeded) evaluation of ``rule``."""
    body = rule.body
    comparisons = rule.comparisons
    if seed_index is not None:
        assert seed_fact is not None
        bindings = _match_atom(body[seed_index], seed_fact, {})
        if bindings is None:
            return
    else:
        bindings = {}
    checked: set[int] = set()
    if not _check_ready_comparisons(comparisons, bindings, checked):
        return
    cursors: List[_Cursor] = []
    for index in range(len(body)):
        if index == seed_index:
            continue
        cursor = _make_cursor(db, rule, plan, index)
        if cursor is None:
            return
        cursors.append(cursor)
    # One schedule step per variable that still owns trie levels; variables
    # appearing only in the seed atom are already fully bound.
    schedule: List[Tuple[str, List[_Cursor]]] = []
    for name in plan.var_order:
        participants = [c for c in cursors if name in c.occurrences]
        if participants:
            schedule.append((name, participants))

    def finalize() -> None:
        used: List[Tuple[int, Fact]] = []
        if seed_index is not None:
            used.append((seed_index, seed_fact))
        for cursor in cursors:
            item = cursor.node
            assert isinstance(item, Fact)
            if excluded is not None:
                frontier = excluded.get(cursor.index)
                if frontier is not None and item in frontier:
                    return
            used.append((cursor.index, item))
        _finalize(rule, body, comparisons, bindings, used, set(checked), results)

    def step(depth: int) -> None:
        if depth == len(schedule):
            finalize()
            return
        name, participants = schedule[depth]
        bound = bindings.get(name, _MISSING)
        if bound is not _MISSING:
            saved = _descend(participants, bound, name)
            if saved is None:
                return
            step(depth + 1)
            _restore(participants, saved)
            return
        if stats is not None:
            stats.wcoj_intersections += 1
        smallest = min(participants, key=lambda c: len(c.node))
        others = [c for c in participants if c is not smallest]
        values = [
            value
            for value in smallest.node
            if all(value in c.node for c in others)
        ]
        values.sort(key=_value_sort_key)
        outer_checked = set(checked)
        for value in values:
            saved = _descend(participants, value, name)
            if saved is None:
                continue
            bindings[name] = value
            checked.clear()
            checked.update(outer_checked)
            if _check_ready_comparisons(comparisons, bindings, checked):
                step(depth + 1)
            del bindings[name]
            _restore(participants, saved)
        checked.clear()
        checked.update(outer_checked)

    step(0)


def wcoj_assignments(
    db: Database, rule: Rule, plan: JoinPlan, stats=None,
) -> List[Assignment]:
    """Full (unseeded) generic-join evaluation of ``rule`` over ``db``.

    The drop-in replacement for the binary planned search of
    :func:`~repro.datalog.evaluation.find_assignments`: same result contract
    (assignments in a deterministic order, duplicates impossible).
    """
    results: List[Assignment] = []
    _enumerate_one(db, rule, plan, None, None, None, stats, results)
    return results


def wcoj_seeded_assignments(
    db: Database,
    rule: Rule,
    plan: JoinPlan,
    seed_index: int,
    seed_facts: Sequence[Fact],
    excluded: Mapping[int, Set[Fact]] | None = None,
    stats=None,
) -> List[Assignment]:
    """Seeded generic join: unify body atom ``seed_index`` with each seed fact.

    ``excluded`` maps body-atom indices to fact sets the atom must *not*
    match — the semi-naive rank stratification's pre-frontier exclusion (and
    nothing else).  Seed facts are enumerated in the given order so callers
    control determinism exactly as on the binary path.
    """
    results: List[Assignment] = []
    for item in seed_facts:
        _enumerate_one(db, rule, plan, seed_index, item, excluded, stats, results)
    return results
