"""Incremental maintenance of delta closures under base-fact insert/delete streams.

Everything else in the engine is batch: any change to the base instance means
re-running the fixpoint from scratch.  This module maintains the closure —
the delta extents, the set of satisfying assignments, and therefore the
end-semantics repair outcome — **incrementally** across small update batches,
the machinery behind :class:`repro.service.RepairService`:

* **insertions** reuse the existing delta/frontier discipline.  A batch of
  new base facts is absorbed in two phases: a *base-seeded* phase enumerates
  every assignment using at least one new base fact (stratified over the
  eligible body positions exactly like the semi-naive rank stratification, so
  each assignment is found once), then the facts those assignments derive are
  marked and the standard frontier propagation takes over — the in-memory
  token loop of :mod:`repro.datalog.seminaive` or the generation-window
  driver of :mod:`repro.datalog.sql_seminaive`, both untouched;
* **deletions** run DRed-style over-delete / re-derive
  (:func:`dred_delete`) against an :class:`AssignmentStore` that indexes
  every live assignment by the facts it uses: dropping a base fact kills the
  assignments using it, the facts they derived are over-deleted transitively,
  and a re-derivation fixpoint rescues every fact that still has a derivation
  avoiding the deleted facts.  Facts that stay dead are retracted from the
  delta extent (:meth:`~repro.storage.database.BaseDatabase.retract_delta`),
  including their frontier bookkeeping, so a later batch can re-derive them
  through a fresh frontier entry.

Delta programs are monotone (no negation), so deletions only ever shrink the
closure and insertions only ever grow it — DRed is exact here, not an
approximation.  After every batch the maintained state equals a from-scratch
fixpoint on the updated base instance; the differential suite
(``tests/test_incremental.py``) checks closures, tids, assignment signatures
and repair outcomes against exactly that oracle on both backends.

Deterministic record order
--------------------------

Every driver sorts each (rule, round) batch into
:func:`assignment_replay_order` before recording it, and DRed retracts in
:meth:`~repro.storage.facts.Fact.sort_key` order.  Joins over hash-based
indexes enumerate in an order salted by ``PYTHONHASHSEED``; the sort makes
the record stream — and with it the observer stream, the assignment-store
aid order, the persisted ``_repro_assign*`` rows and the SQLite generation
stamps — the same in every process.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Callable, Dict, Iterable, List, Set, Tuple

from repro.datalog.ast import Rule
from repro.datalog.context import EvalContext
from repro.datalog.evaluation import (
    Assignment,
    _match_atom,
    ground_head,
    planned_search,
)
from repro.datalog.planner import JoinPlanner
from repro.exceptions import EvaluationError, StorageError
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact
from repro.storage.sqlite_backend import TAG_ASSIGN, SQLiteDatabase


def assignment_replay_order(assignment: Assignment) -> tuple:
    """Canonical record order of one (rule, round) batch of assignments.

    Sorts by the used facts (one rule per batch, so the tuples are
    comparable), which makes the record stream independent of the
    ``PYTHONHASHSEED``-salted enumeration order of hash-based indexes.
    """
    return tuple(
        (atom.relation, atom.is_delta, item.sort_key())
        for atom, item in assignment.used
    )


#: Signature of the recording callback the maintenance drivers feed: returns
#: True when the assignment was new (first sighting in the store), in which
#: case its derived fact joins the propagation frontier.
RecordFn = Callable[[Assignment], bool]


class AssignmentStore:
    """All live satisfying assignments, indexed by the facts they touch.

    The store is the maintenance layer's provenance structure: one entry per
    assignment signature, with three fact-level indexes —

    * :meth:`base_users` — assignments using a fact at a *base* (non-delta)
      body atom; invalidated permanently when the fact leaves the active
      extent;
    * :meth:`delta_users` — assignments using a fact at a *delta* body atom;
      invalidated when the fact is retracted from the delta extent;
    * :meth:`supports` — assignments *deriving* a fact; a delta fact stays
      derivable exactly as long as one support remains whose delta facts are
      all alive.

    Alongside the signature sets, the store maintains a per-fact **base-only
    support count** (:meth:`base_only_supports`): the number of supports whose
    rule body contains no delta atom.  Those derivations depend only on the
    active base instance, so after the DRed base-invalidation pass a positive
    count proves the fact alive without any over-delete/re-derive — the
    counting fast path of :func:`dred_delete`.  Counting *total* supports
    would be unsound under recursion (facts in a cycle support each other
    without being grounded in base facts); the base-only partition is the
    well-founded fragment.

    Fact equality ignores tids (set semantics), so lookups work with or
    without a tuple identifier.
    """

    __slots__ = ("_by_signature", "_by_base", "_by_delta", "_support", "_base_only")

    def __init__(self) -> None:
        self._by_signature: Dict[tuple, Assignment] = {}
        self._by_base: Dict[Fact, Set[tuple]] = {}
        self._by_delta: Dict[Fact, Set[tuple]] = {}
        self._support: Dict[Fact, Set[tuple]] = {}
        self._base_only: Dict[Fact, int] = {}

    def __len__(self) -> int:
        return len(self._by_signature)

    def __contains__(self, signature: tuple) -> bool:
        return signature in self._by_signature

    def get(self, signature: tuple) -> Assignment | None:
        """The stored assignment with this signature, or None."""
        return self._by_signature.get(signature)

    def assignments(self) -> Iterable[Assignment]:
        """Every live assignment (iteration order is insertion order)."""
        return self._by_signature.values()

    def add(self, assignment: Assignment) -> bool:
        """Index ``assignment``; returns False when its signature is known."""
        signature = assignment.signature()
        if signature in self._by_signature:
            return False
        self._by_signature[signature] = assignment
        base_only = True
        for atom, item in assignment.used:
            if atom.is_delta:
                base_only = False
            index = self._by_delta if atom.is_delta else self._by_base
            index.setdefault(item, set()).add(signature)
        self._support.setdefault(assignment.derived, set()).add(signature)
        if base_only:
            self._base_only[assignment.derived] = (
                self._base_only.get(assignment.derived, 0) + 1
            )
        return True

    def remove(self, signature: tuple) -> Assignment | None:
        """Drop one assignment and unindex it; None when already absent."""
        assignment = self._by_signature.pop(signature, None)
        if assignment is None:
            return None
        base_only = True
        for atom, item in assignment.used:
            if atom.is_delta:
                base_only = False
            index = self._by_delta if atom.is_delta else self._by_base
            bucket = index.get(item)
            if bucket is not None:
                bucket.discard(signature)
                if not bucket:
                    del index[item]
        bucket = self._support.get(assignment.derived)
        if bucket is not None:
            bucket.discard(signature)
            if not bucket:
                del self._support[assignment.derived]
        if base_only:
            count = self._base_only.get(assignment.derived, 0) - 1
            if count > 0:
                self._base_only[assignment.derived] = count
            else:
                self._base_only.pop(assignment.derived, None)
        return assignment

    def base_users(self, item: Fact) -> Tuple[tuple, ...]:
        """Signatures of assignments using ``item`` at a base atom."""
        return tuple(self._by_base.get(item, ()))

    def delta_users(self, item: Fact) -> Tuple[tuple, ...]:
        """Signatures of assignments using ``item`` at a delta atom."""
        return tuple(self._by_delta.get(item, ()))

    def supports(self, item: Fact) -> Tuple[tuple, ...]:
        """Signatures of assignments deriving ``item``."""
        return tuple(self._support.get(item, ()))

    def base_only_supports(self, item: Fact) -> int:
        """Live supports of ``item`` whose rule body uses no delta atom."""
        return self._base_only.get(item, 0)

    # -- persistence hooks (no-ops for the in-memory store) -----------------

    def load_persisted(self) -> "List[Assignment] | None":
        """Reload previously persisted assignments, in original record order.

        The in-memory store has no durable mirror, so this always returns
        None; :class:`PersistentAssignmentStore` overrides it.
        """
        return None

    def reset_persisted(self) -> None:
        """Drop any persisted state before a fresh closure load (no-op here)."""

    def begin_batch(self) -> None:
        """Mark the durable mirror dirty before a mutating batch (no-op here)."""

    def flush(self) -> None:
        """Persist buffered changes and clear the dirty mark (no-op here)."""


def program_fingerprint(rules: Iterable[Rule]) -> str:
    """A stable digest of a rule list, for warm-restart validation.

    Includes each rule's display identity (name + text), so a persisted
    assignment store is only reloaded under the exact program that wrote it —
    assignment signatures key on full rule identity.
    """
    payload = "\n".join(f"{rule.name!r}|{rule}" for rule in rules)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PersistentAssignmentStore(AssignmentStore):
    """An :class:`AssignmentStore` with a durable SQLite mirror.

    The in-memory indexes stay the hot read path — every lookup the
    maintenance passes issue is unchanged — while adds and removes are also
    buffered and flushed to the ``_repro_assign*`` tables of the backing
    :class:`~repro.storage.sqlite_backend.SQLiteDatabase` (same connection,
    batched ``executemany`` inside one transaction per flush, riding the
    backend's autocommit discipline).  One row per assignment
    (``_repro_assign``: rule index + the used facts' values/tids in body
    order; atoms are implied by the rule body, so nothing structural is
    serialised) plus the three fact-level edge tables mirroring
    :meth:`~AssignmentStore.base_users` / :meth:`~AssignmentStore.delta_users`
    / :meth:`~AssignmentStore.supports` (fact keys exclude tids, matching
    :class:`~repro.storage.facts.Fact` equality).

    Durability protocol: ``_repro_assign_meta`` holds the program fingerprint
    and a **dirty flag**.  :meth:`begin_batch` sets the flag (one autocommit
    statement) before any batch mutation; :meth:`flush` applies the buffered
    writes and clears it in the same transaction.  A process killed
    mid-batch therefore leaves the flag set, and :meth:`load_persisted`
    refuses the warm restart instead of reloading torn state.
    """

    __slots__ = (
        "_db",
        "_rules",
        "_rule_ids",
        "_fingerprint",
        "_aids",
        "_next_aid",
        "_pending_add",
        "_pending_remove",
        "_loading",
        "_dirty",
    )

    #: Schema version of the ``_repro_assign*`` layout; bump on layout changes
    #: so stale stores are rebuilt instead of misread.
    VERSION = "1"

    def __init__(self, db: SQLiteDatabase, rules: Iterable[Rule]) -> None:
        super().__init__()
        self._db = db
        self._rules = list(rules)
        self._rule_ids = {rule: index for index, rule in enumerate(self._rules)}
        self._fingerprint = program_fingerprint(self._rules)
        self._aids: Dict[tuple, int] = {}
        self._next_aid = 1
        self._pending_add: Dict[int, Assignment] = {}
        self._pending_remove: Set[int] = set()
        self._loading = False
        self._dirty = False
        db.ensure_assignment_tables()

    # -- serialisation -------------------------------------------------------

    @staticmethod
    def _fact_key(item: Fact) -> str:
        """Canonical text key for a fact (tid excluded, like Fact equality)."""
        return json.dumps([item.relation, list(item.values)], separators=(",", ":"))

    @staticmethod
    def _used_payload(assignment: Assignment) -> str:
        """The used facts' values + tids, in body order (atoms are implied)."""
        return json.dumps(
            [[*item.values, item.tid] for _, item in assignment.used],
            separators=(",", ":"),
        )

    def _reconstruct(self, rule_index: int, used_rows: list) -> Assignment:
        """Rebuild an :class:`Assignment` from one persisted row."""
        if not 0 <= rule_index < len(self._rules):
            raise StorageError(
                f"persistent assignment store references unknown rule index "
                f"{rule_index} (program has {len(self._rules)} rules)",
            )
        rule = self._rules[rule_index]
        if len(used_rows) != len(rule.body):
            raise StorageError(
                f"persistent assignment store row for rule "
                f"{rule.display_name()} has {len(used_rows)} used facts, "
                f"expected {len(rule.body)}",
            )
        bindings: Dict = {}
        used = []
        for atom, row in zip(rule.body, used_rows):
            item = Fact(atom.relation, tuple(row[:-1]), tid=row[-1])
            extended = _match_atom(atom, item, bindings)
            if extended is None:
                raise StorageError(
                    "persistent assignment store row does not unify with "
                    f"rule {rule.display_name()} (corrupted store?)",
                )
            bindings = extended
            used.append((atom, item))
        return Assignment(
            rule=rule,
            bindings=tuple(sorted(bindings.items(), key=lambda kv: kv[0])),
            used=tuple(used),
            derived=ground_head(rule, bindings),
        )

    # -- store API (write-through) ------------------------------------------

    def add(self, assignment: Assignment) -> bool:
        if not super().add(assignment):
            return False
        aid = self._next_aid
        self._next_aid += 1
        self._aids[assignment.signature()] = aid
        if not self._loading:
            self._pending_add[aid] = assignment
        return True

    def remove(self, signature: tuple) -> Assignment | None:
        assignment = super().remove(signature)
        if assignment is None:
            return None
        aid = self._aids.pop(signature)
        if self._pending_add.pop(aid, None) is None:
            # Only persisted rows need a durable delete; an assignment added
            # and removed inside the same unflushed window never hits disk.
            self._pending_remove.add(aid)
        return assignment

    # -- durability protocol -------------------------------------------------

    def load_persisted(self) -> List[Assignment] | None:
        """Reload the persisted store, or None when it cannot be trusted.

        Refuses (returns None) when the meta table is missing or records a
        different layout version, a different program fingerprint, or a set
        dirty flag (torn batch).  On success the in-memory indexes are rebuilt
        and the assignments are returned in their original record order — the
        caller replays them to observers, preserving the exactly-once
        delivery contract across restarts.
        """
        if (
            self._db.assignment_meta("version") != self.VERSION
            or self._db.assignment_meta("fingerprint") != self._fingerprint
            or self._db.assignment_meta("dirty") != "0"
        ):
            return None
        rows = self._db.execute(
            f"{TAG_ASSIGN} SELECT aid, rule, used FROM _repro_assign ORDER BY aid",
        ).fetchall()
        restored: List[Assignment] = []
        self._loading = True
        try:
            for aid, rule_index, used_text in rows:
                assignment = self._reconstruct(rule_index, json.loads(used_text))
                if not AssignmentStore.add(self, assignment):
                    raise StorageError(
                        "persistent assignment store contains duplicate "
                        "assignment signatures (corrupted store?)",
                    )
                self._aids[assignment.signature()] = int(aid)
                restored.append(assignment)
        finally:
            self._loading = False
        self._next_aid = max(self._aids.values(), default=0) + 1
        return restored

    def reset_persisted(self) -> None:
        """Clear the durable mirror before a fresh closure load.

        Leaves the dirty flag **set**: the load that follows streams adds into
        the pending buffer, and only the post-load :meth:`flush` marks the
        store consistent.  A crash mid-load therefore reads as torn.
        """
        for table in (
            "_repro_assign",
            "_repro_assign_base",
            "_repro_assign_delta",
            "_repro_assign_support",
            "_repro_assign_meta",
        ):
            self._db.execute(f"{TAG_ASSIGN} DELETE FROM {table}")
        self._db.set_assignment_meta("version", self.VERSION)
        self._db.set_assignment_meta("fingerprint", self._fingerprint)
        self._db.set_assignment_meta("dirty", "1")
        self._dirty = True

    def begin_batch(self) -> None:
        if not self._dirty:
            self._db.set_assignment_meta("dirty", "1")
            self._dirty = True

    def flush(self) -> None:
        if not (self._pending_add or self._pending_remove or self._dirty):
            return
        self._db.execute(f"{TAG_ASSIGN} BEGIN IMMEDIATE")
        try:
            if self._pending_remove:
                removals = [(aid,) for aid in sorted(self._pending_remove)]
                for table in (
                    "_repro_assign",
                    "_repro_assign_base",
                    "_repro_assign_delta",
                    "_repro_assign_support",
                ):
                    self._db.executemany(
                        f"{TAG_ASSIGN} DELETE FROM {table} WHERE aid = ?", removals,
                    )
            if self._pending_add:
                assign_rows = []
                base_rows = []
                delta_rows = []
                support_rows = []
                for aid in sorted(self._pending_add):
                    assignment = self._pending_add[aid]
                    assign_rows.append(
                        (
                            aid,
                            self._rule_ids[assignment.rule],
                            self._used_payload(assignment),
                        ),
                    )
                    base_only = 1
                    for atom, item in assignment.used:
                        key = self._fact_key(item)
                        if atom.is_delta:
                            base_only = 0
                            delta_rows.append((aid, key))
                        else:
                            base_rows.append((aid, key))
                    support_rows.append(
                        (aid, self._fact_key(assignment.derived), base_only),
                    )
                self._db.executemany(
                    f"{TAG_ASSIGN} INSERT INTO _repro_assign VALUES (?, ?, ?)",
                    assign_rows,
                )
                self._db.executemany(
                    f"{TAG_ASSIGN} INSERT INTO _repro_assign_base VALUES (?, ?)",
                    base_rows,
                )
                self._db.executemany(
                    f"{TAG_ASSIGN} INSERT INTO _repro_assign_delta VALUES (?, ?)",
                    delta_rows,
                )
                self._db.executemany(
                    f"{TAG_ASSIGN} INSERT INTO _repro_assign_support VALUES (?, ?, ?)",
                    support_rows,
                )
            self._db.set_assignment_meta("dirty", "0")
        except BaseException:
            self._db.execute(f"{TAG_ASSIGN} ROLLBACK")
            raise
        self._db.execute(f"{TAG_ASSIGN} COMMIT")
        self._pending_add.clear()
        self._pending_remove.clear()
        self._dirty = False


def make_assignment_store(
    db: BaseDatabase, rules: Iterable[Rule],
) -> AssignmentStore:
    """The assignment store matching ``db``'s backend.

    SQLite databases (``:memory:`` or file-backed) get the durable
    :class:`PersistentAssignmentStore`; everything else gets the plain
    in-memory :class:`AssignmentStore`.  Only file-backed databases can
    actually warm-restart, but persisting on ``:memory:`` keeps the write
    path uniformly exercised and costs one batched transaction per flush.
    """
    if isinstance(db, SQLiteDatabase):
        return PersistentAssignmentStore(db, rules)
    return AssignmentStore()


# ---------------------------------------------------------------------------
# Insertions: base-seeded discovery + frontier propagation
# ---------------------------------------------------------------------------


def seeded_insert_assignments(
    db: BaseDatabase,
    rule: Rule,
    new_by_relation: Dict[str, Set[Fact]],
    planner: JoinPlanner,
) -> List[Assignment]:
    """Assignments of ``rule`` using at least one newly inserted base fact.

    The insert-side mirror of
    :func:`repro.datalog.seminaive.seeded_rank_assignments`, seeding *base*
    atoms from the batch of new active facts instead of delta atoms from the
    frontier.  Exactly-once comes from the same rank stratification: the
    enumeration is split by the first eligible body position matched to a new
    fact, with earlier eligible positions restricted to pre-batch facts.
    Delta atoms match the current delta extent — the closure *before* the
    batch — so assignments needing a freshly derived delta fact are left to
    the frontier propagation that follows.  The result is sorted into
    :func:`assignment_replay_order`.
    """
    body = rule.body
    eligible = [
        index
        for index, atom in enumerate(body)
        if not atom.is_delta and new_by_relation.get(atom.relation)
    ]
    results: List[Assignment] = []
    for rank, seed_index in enumerate(eligible):
        seed_atom = body[seed_index]
        pre_batch = set(eligible[:rank])
        plan = planner.plan(rule, seed=seed_index)

        def candidates_for(index, atom, fixed, pre_batch=pre_batch):
            facts = db.candidates(atom.relation, fixed, delta=atom.is_delta)
            if index in pre_batch:
                fresh = new_by_relation.get(atom.relation)
                if fresh:
                    return (item for item in facts if item not in fresh)
            return facts

        for item in new_by_relation[seed_atom.relation]:
            bindings = _match_atom(seed_atom, item, {})
            if bindings is None:
                continue
            planned_search(
                rule, plan.order, 1, bindings, [(seed_index, item)], set(),
                results, candidates_for,
            )
    return sorted(results, key=assignment_replay_order)


def _check_round_cap(rounds: int, max_rounds: int | None) -> None:
    """Raise the closure engines' non-convergence error past the round cap."""
    if max_rounds is not None and rounds > max_rounds:
        raise EvaluationError(
            f"closure did not converge within {max_rounds} rounds",
        )


def propagate_marks(
    db: BaseDatabase,
    rules: Iterable[Rule],
    planner: JoinPlanner,
    context: EvalContext,
    record: RecordFn,
    seeds: Iterable[Fact],
    max_rounds: int | None = None,
) -> int:
    """Mark ``seeds`` as fresh delta facts and run frontier rounds to fixpoint.

    ``record`` receives every assignment the propagation enumerates and
    returns True for first sightings — only those contribute their derived
    fact to the next round's frontier.  ``context`` must be an observer-free
    query context (:meth:`EvalContext.query_context`): on SQLite the
    discovery path would otherwise deliver assignments to observers a second
    time, outside the caller's deduplication.  ``max_rounds`` caps the
    frontier rounds exactly like the closure engines, raising the same
    :class:`~repro.exceptions.EvaluationError`.  Returns the number of
    frontier rounds run.

    Each (rule, round) batch is recorded in :func:`assignment_replay_order`.
    """
    delta_rules = [rule for rule in rules if any(atom.is_delta for atom in rule.body)]
    if isinstance(db, SQLiteDatabase):
        return _propagate_sql(db, delta_rules, context, record, seeds, max_rounds)
    return _propagate_memory(db, delta_rules, planner, record, seeds, max_rounds)


def _propagate_memory(
    db: BaseDatabase,
    delta_rules: List[Rule],
    planner: JoinPlanner,
    record: RecordFn,
    seeds: Iterable[Fact],
    max_rounds: int | None,
) -> int:
    from repro.datalog.seminaive import Frontier, seeded_assignments

    relations = sorted(
        {atom.relation for rule in delta_rules for atom in rule.body if atom.is_delta},
    )
    tokens = {relation: db.delta_token(relation) for relation in relations}
    for item in seeds:
        db.mark_deleted(item)
    rounds = 0
    while True:
        frontier: Frontier = {}
        for relation in relations:
            added = db.delta_added_since(relation, tokens[relation])
            tokens[relation] = db.delta_token(relation)
            if added:
                frontier[relation] = set(added)
        if not frontier:
            return rounds
        rounds += 1
        _check_round_cap(rounds, max_rounds)
        planner.begin_round()
        derived: List[Fact] = []
        for rule in delta_rules:
            batch = seeded_assignments(db, rule, frontier, planner)
            for assignment in sorted(batch, key=assignment_replay_order):
                if record(assignment):
                    derived.append(assignment.derived)
        for item in derived:
            db.mark_deleted(item)


def _propagate_sql(
    db: SQLiteDatabase,
    delta_rules: List[Rule],
    context: EvalContext,
    record: RecordFn,
    seeds: Iterable[Fact],
    max_rounds: int | None,
) -> int:
    from repro.datalog.sql_seminaive import seeded_assignments_sql

    lo = db.generation()
    for item in seeds:
        db.mark_deleted(item)
    hi = db.generation()
    rounds = 0
    while hi > lo:
        rounds += 1
        _check_round_cap(rounds, max_rounds)
        derived: List[Fact] = []
        for rule in delta_rules:
            # Sorting materialises the batch before any mark: the streaming
            # SELECT must not see writes mid-cursor.
            batch = seeded_assignments_sql(db, rule, lo, hi, context)
            for assignment in sorted(batch, key=assignment_replay_order):
                if record(assignment):
                    derived.append(assignment.derived)
        for item in derived:
            db.mark_deleted(item)
        lo, hi = hi, db.generation()
    return rounds


def maintain_insertions(
    db: BaseDatabase,
    rules: Iterable[Rule],
    planner: JoinPlanner,
    context: EvalContext,
    record: RecordFn,
    new_facts: Iterable[Fact],
    max_rounds: int | None = None,
) -> int:
    """Absorb a batch of already-inserted base facts into the closure.

    ``new_facts`` must already be in the active extent (as stored, with
    tids).  ``max_rounds`` caps the frontier propagation like the closure
    engines.  Returns the number of frontier propagation rounds the batch
    needed.
    """
    new_by_relation: Dict[str, Set[Fact]] = {}
    for item in new_facts:
        new_by_relation.setdefault(item.relation, set()).add(item)
    if not new_by_relation:
        return 0
    seeds: List[Fact] = []
    for rule in rules:
        for assignment in seeded_insert_assignments(
            db, rule, new_by_relation, planner,
        ):
            if record(assignment) and not db.has_delta(assignment.derived):
                seeds.append(assignment.derived)
    return propagate_marks(
        db, rules, planner, context, record, seeds, max_rounds,
    )


# ---------------------------------------------------------------------------
# Deletions: DRed over-delete / re-derive
# ---------------------------------------------------------------------------


def dred_delete(
    db: BaseDatabase,
    store: AssignmentStore,
    removed: Iterable[Fact],
    stats=None,
    counting: bool = True,
) -> Tuple[Set[Fact], Set[Fact], Set[Fact]]:
    """Propagate base-fact deletions through the closure, DRed-style.

    ``removed`` are base facts already dropped from the active extent.  Three
    passes:

    1. assignments using a removed fact at a base atom are invalid forever —
       they leave the store, and the facts they derived seed the over-delete;
    2. *over-delete*: every fact with a derivation transitively touching a
       seeded fact at a delta atom is a deletion candidate;
    3. *re-derive*: a candidate survives when some remaining support uses
       only alive delta facts (its base facts are still active — every
       base-invalidated assignment left the store in pass 1).  Facts that
       stay dead are retracted from the delta extent and every assignment
       using them at a delta atom leaves the store.

    With ``counting`` enabled (the default), the **base-only support counts**
    of the store short-circuit passes 2–3 (the Berkholz/Keppeler/Schweikardt
    counting idea, restricted to the well-founded fragment): after pass 1
    every assignment touching a removed fact is gone, so a fact whose
    base-only count is still positive has a one-step derivation from
    surviving base facts and *cannot* leave the closure — nor can anything
    need over-deleting through it.  When every killed assignment's derived
    fact is covered this way the batch skips the over-delete/re-derive
    detour entirely (``stats.counted_deletes``); otherwise exact DRed runs,
    pruning provably alive facts from the over-delete BFS
    (``stats.dred_fallbacks``).  Counting *total* supports instead would be
    unsound under recursion — facts in a cycle support each other without
    being grounded in base facts.

    Returns ``(overdeleted, rederived, retracted)``; delta programs are
    monotone, so the result is exact — retracted facts are precisely the
    closure difference.
    """
    killed: List[Fact] = []
    for item in removed:
        for signature in store.base_users(item):
            assignment = store.remove(signature)
            if assignment is not None:
                killed.append(assignment.derived)

    if not killed:
        return set(), set(), set()
    if counting:
        if all(store.base_only_supports(item) > 0 for item in set(killed)):
            if stats is not None:
                stats.counted_deletes += 1
            return set(), set(), set()
        if stats is not None:
            stats.dred_fallbacks += 1

    work: deque[Fact] = deque(killed)
    overdeleted: Set[Fact] = set()
    while work:
        item = work.popleft()
        if item in overdeleted:
            continue
        if counting and store.base_only_supports(item) > 0:
            # Provably alive: some support uses surviving base facts only, so
            # neither this fact nor (through it) its delta users can retract.
            continue
        overdeleted.add(item)
        for signature in store.delta_users(item):
            user = store.get(signature)
            if user is not None:
                work.append(user.derived)

    rederived: Set[Fact] = set()
    changed = True
    while changed:
        changed = False
        for item in overdeleted:
            if item in rederived:
                continue
            for signature in store.supports(item):
                assignment = store.get(signature)
                if assignment is None:
                    continue
                if all(
                    used not in overdeleted or used in rederived
                    for used in assignment.delta_facts()
                ):
                    rederived.add(item)
                    changed = True
                    break

    retracted = overdeleted - rederived
    # Canonical retraction order: set iteration order depends on string
    # hashing, and retraction order is what the persistent store's pending
    # buffer and the backend deletes observe.
    for item in sorted(retracted, key=Fact.sort_key):
        db.retract_delta(item)
        for signature in store.delta_users(item):
            store.remove(signature)
    if stats is not None:
        stats.overdeleted += len(overdeleted)
        stats.rederived += len(rederived)
    return overdeleted, rederived, retracted
