"""A long-lived repair service maintained under insert/delete streams.

:class:`RepairService` is the user-facing face of the incremental layer
(:mod:`repro.datalog.incremental`): load a delta program over a base instance
once, then absorb per-user batches of base-fact insertions and deletions with
:meth:`~RepairService.apply`, keeping the closure, the satisfying
assignments, and the end-semantics repair outcome current without re-running
the fixpoint.  Between batches the service answers point queries — "is this
fact still derivable?" (:meth:`~RepairService.is_derivable`), "does it
survive the repair?" (:meth:`~RepairService.in_repair`) — straight off the
maintained extents, in milliseconds.

The maintained invariant, checked differentially in
``tests/test_incremental.py`` on both backends: the database's active
extents always equal the current base instance, its delta extents equal the
closure of that instance under the program, and the
:class:`~repro.datalog.incremental.AssignmentStore` holds exactly the
closure's satisfying assignments.  The repair outcome then falls out like in
:func:`repro.core.semantics.end.end_semantics`: the deleted set is every
closure fact that is also active.

Usage::

    service = RepairService(db, program)              # loads the closure
    service.apply(inserts=[fact("E", 1, 2)])           # absorb a batch
    service.apply(deletes=[fact("E", 0, 1)])           # DRed-maintained
    service.is_derivable(fact("N", 2))                 # point query
    service.in_repair(fact("N", 7))                    # survives the repair?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

from repro.datalog.ast import Program, Rule
from repro.datalog.context import EvalContext, QueryStats
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import (
    Assignment,
    ENGINE_AUTO,
    run_closure,
    validate_engine,
)
from repro.datalog.incremental import (
    AssignmentStore,
    dred_delete,
    maintain_insertions,
    make_assignment_store,
)
from repro.exceptions import EvaluationError, ServicePoisonedError
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact

__all__ = ["ENGINE_WARM", "MaintenanceResult", "RepairService"]

#: :attr:`RepairService.load_engine` value reported when the service
#: warm-restarted from a persisted assignment store instead of running a
#: closure engine.
ENGINE_WARM = "warm"


@dataclass(frozen=True)
class MaintenanceResult:
    """What one :meth:`RepairService.apply` batch did.

    Attributes
    ----------
    inserted:
        Base facts actually added (as stored, with tids); requested inserts
        already present are skipped.
    deleted:
        Base facts actually dropped; requested deletes not present are
        skipped.
    overdeleted / rederived:
        DRed pass sizes for this batch: deletion candidates considered, and
        the subset rescued by an unaffected derivation.
    retracted:
        Closure facts that left the delta extent (``overdeleted`` minus
        ``rederived``).
    rounds:
        Frontier propagation rounds the insert side needed.
    """

    inserted: Tuple[Fact, ...] = ()
    deleted: Tuple[Fact, ...] = ()
    overdeleted: int = 0
    rederived: int = 0
    retracted: frozenset = field(default_factory=frozenset)
    rounds: int = 0


class RepairService:
    """Load a delta program once; keep its repair current across update batches.

    Parameters
    ----------
    db:
        The base instance, either backend.  Its delta extents must be empty —
        the service owns the closure from here on.
    program:
        A :class:`~repro.datalog.delta.DeltaProgram` (validated against the
        schema) or any iterable of rules.
    engine:
        Engine for the initial load (``"auto"``/``"naive"``/``"semi-naive"``);
        maintenance itself always runs the incremental drivers.
    context:
        Optional shared :class:`~repro.datalog.context.EvalContext`; its
        observers see every assignment the service ever records, exactly
        once — during the load and during later batches.  Plans, compiled
        variants and :class:`~repro.datalog.context.QueryStats` are shared
        with the maintenance passes.  On a warm restart the persisted
        assignments are **replayed** to the observers in their original
        record order, so a fresh process keeps the exactly-once contract
        (an observer surviving from the writing process would see them
        twice — reuse the service, not just the database, in-process).
    counting:
        Enable the counting-based deletion fast path (default True): delete
        batches fully covered by base-only support counts skip the DRed
        over-delete/re-derive detour (``stats.counted_deletes``), everything
        else falls back to exact DRed (``stats.dred_fallbacks``).  Disable to
        force exact DRed on every batch (the benchmark's comparison knob).
    """

    def __init__(
        self,
        db: BaseDatabase,
        program: DeltaProgram | Program | Iterable[Rule],
        engine: str = ENGINE_AUTO,
        context: Optional[EvalContext] = None,
        max_rounds: int | None = None,
        counting: bool = True,
    ) -> None:
        validate_engine(engine)
        if isinstance(program, DeltaProgram):
            program.validate_against_schema(db.schema)
        self._db = db
        self._rules = list(program)
        self._context = context if context is not None else EvalContext()
        # Maintenance passes run under an observer-free twin of the context:
        # it shares stats and plan caches, but assignment delivery stays in
        # _record so the SQLite discovery path cannot double-notify.
        self._qctx = self._context.query_context()
        self._planner = self._qctx.planner(db)
        self._store: AssignmentStore = make_assignment_store(db, self._rules)
        self._max_rounds = max_rounds
        self._counting = counting
        self._poisoned: str | None = None
        if db.count_delta() != 0:
            restored = self._store.load_persisted()
            if restored is None:
                raise EvaluationError(
                    "RepairService requires an empty delta extent to load, or "
                    "a cleanly flushed persisted assignment store to "
                    "warm-restart from; pass a fresh base instance, or reopen "
                    "a file-backed database whose previous service flushed "
                    "its last batch (a dirty or mismatched store means the "
                    "closure must be re-derived)",
                )
            for assignment in restored:
                self._context.notify(assignment)
            self._load_rounds = 0
            self._load_engine = ENGINE_WARM
            return
        self._store.reset_persisted()
        result = run_closure(
            db,
            self._rules,
            on_assignment=self._store_and_notify,
            max_rounds=max_rounds,
            engine=engine,
            collect_assignments=False,
            context=self._qctx,
        )
        self._store.flush()
        self._load_rounds = result.rounds
        self._load_engine = result.engine

    # -- recording ---------------------------------------------------------

    def _store_and_notify(self, assignment: Assignment) -> bool:
        if not self._store.add(assignment):
            return False
        self._context.notify(assignment)
        return True

    # -- maintenance -------------------------------------------------------

    def apply(
        self,
        inserts: Sequence[Fact] = (),
        deletes: Sequence[Fact] = (),
    ) -> MaintenanceResult:
        """Absorb one batch of base-fact updates, maintaining the closure.

        Deletions run first (DRed over-delete / re-derive), then insertions
        (base-seeded discovery + frontier propagation), so a fact appearing
        in both lists ends up present.  Requested updates that are no-ops
        against the current base instance (inserting a present fact, deleting
        an absent one) are skipped silently — batches are idempotent.
        """
        return self.apply_many([(inserts, deletes)])

    def apply_many(
        self,
        batches: Sequence[Tuple[Sequence[Fact], Sequence[Fact]]],
    ) -> MaintenanceResult:
        """Coalesce many tenants' ``(inserts, deletes)`` streams into one pass.

        The batches are merged into their *net effect* — one op per fact,
        decided by walking the tenants in order with each tenant's deletes
        applied before its inserts (so insert wins within a tenant, and a
        later tenant overrides an earlier one) — and absorbed with a single
        discovery + propagation pass and a single DRed/counting pass, instead
        of one maintenance cycle per tenant.  The closure is a function of
        the final base instance alone (delta programs are monotone), so the
        maintained state equals applying the batches one by one; a fact
        deleted and re-inserted across tenants is left untouched if already
        present (net no-op), like re-inserting a present fact in
        :meth:`apply`.

        Every fact of the net batch is checked against the schema first
        (:meth:`~repro.storage.database.BaseDatabase.check_fact`): an
        unknown relation or a wrong arity raises before any state changes,
        and the service stays usable.
        """
        if self._poisoned is not None:
            raise ServicePoisonedError(self._poisoned)
        net: dict[Fact, bool] = {}
        for inserts, deletes in batches:
            for item in deletes:
                net[item] = False
            for item in inserts:
                net[item] = True
        for item in net:
            self._db.check_fact(item)

        self._store.begin_batch()
        try:
            # Drop the planner's cardinality cache so plans first built in
            # this batch are costed on the current extents.
            self._planner.begin_round()

            removed = []
            for item, is_insert in net.items():
                if is_insert:
                    continue
                stored = self._db.stored_active(item)
                if stored is not None and self._db.drop_active(stored):
                    removed.append(stored)
            if removed:
                overdeleted, rederived, retracted = dred_delete(
                    self._db,
                    self._store,
                    removed,
                    stats=self.stats,
                    counting=self._counting,
                )
            else:
                overdeleted, rederived, retracted = set(), set(), set()

            added = []
            for item, is_insert in net.items():
                if not is_insert or self._db.has_active(item):
                    continue
                self._db.insert(item)
                stored = self._db.stored_active(item)
                if stored is not None:
                    added.append(stored)
            rounds = 0
            if added:
                rounds = maintain_insertions(
                    self._db,
                    self._rules,
                    self._planner,
                    self._qctx,
                    self._store_and_notify,
                    added,
                    max_rounds=self._max_rounds,
                )
            self._store.flush()
        except BaseException as error:
            # The base extent may have mutated before the failure: active,
            # delta and store no longer agree.  Poison the service so every
            # later call fails loudly instead of answering from corrupt
            # state; the persistent store's dirty flag stays set, so a torn
            # on-disk state refuses warm restart too.
            self._poisoned = f"{type(error).__name__}: {error}"
            raise

        self.stats.maintained_batches += 1
        return MaintenanceResult(
            inserted=tuple(added),
            deleted=tuple(removed),
            overdeleted=len(overdeleted),
            rederived=len(rederived),
            retracted=frozenset(retracted),
            rounds=rounds,
        )

    # -- point queries -----------------------------------------------------

    def _check_usable(self) -> None:
        if self._poisoned is not None:
            raise ServicePoisonedError(self._poisoned)

    @property
    def poisoned(self) -> bool:
        """True after a failed batch left the maintained state inconsistent."""
        return self._poisoned is not None

    def is_derivable(self, item: Fact) -> bool:
        """Is ``item`` in the maintained closure (the delta extents)?"""
        self._check_usable()
        return self._db.has_delta(item)

    def in_repair(self, item: Fact) -> bool:
        """Does ``item`` survive the end-semantics repair of the current base
        instance?  True for active facts the closure does not delete."""
        self._check_usable()
        return self._db.has_active(item) and not self._db.has_delta(item)

    def repair_deleted(self) -> frozenset:
        """The end-semantics deleted set: closure facts that are active."""
        self._check_usable()
        return frozenset(
            item for item in self._db.all_deltas() if self._db.has_active(item)
        )

    # -- introspection -----------------------------------------------------

    def assignments(self) -> Tuple[Assignment, ...]:
        """Every live satisfying assignment of the maintained closure."""
        return tuple(self._store.assignments())

    @property
    def db(self) -> BaseDatabase:
        """The maintained database (active = base instance, delta = closure)."""
        return self._db

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return tuple(self._rules)

    @property
    def stats(self) -> QueryStats:
        """Shared counters, including ``maintained_batches`` /
        ``overdeleted`` / ``rederived``."""
        return self._context.stats

    @property
    def load_rounds(self) -> int:
        """Rounds the initial closure load took."""
        return self._load_rounds

    @property
    def load_engine(self) -> str:
        """The concrete engine that ran the initial load."""
        return self._load_engine
