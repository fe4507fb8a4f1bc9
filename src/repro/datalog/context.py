"""Shared evaluation context: plan caches, assignment observers, query stats.

One :class:`EvalContext` groups a family of fixpoint runs that should share
their planning work — typically the four semantics of one
:class:`~repro.core.repair.RepairEngine.compare` call, which evaluate the same
program against clones of the same database.  The context carries three kinds
of shared state:

* **plan caches** — a structural :class:`~repro.datalog.planner.JoinPlan`
  cache handed to every in-memory :class:`~repro.datalog.planner.JoinPlanner`
  the context creates (:meth:`planner`), and a per-rule cache of compiled
  frontier variants for the SQLite engine (:meth:`frontier_variants`), so one
  ``compare()`` run plans each rule structure and compiles each rule exactly
  once across all four semantics;
* **assignment observers** — callables invoked once per *new* assignment a
  closure enumerates (:meth:`add_observer` / :meth:`notify`).  Observers are
  the reason a SQLite round materialises its staged rows at all: when a run
  has no observer, no ``on_assignment`` hook and ``collect_assignments=False``,
  the SQL driver skips assignment enumeration entirely and installs head facts
  straight from the single join (the *fast path*);
* **query statistics** (:class:`QueryStats`) — counters the SQL driver bumps
  per executed statement class, used by the regression tests and the benchmark
  smoke run to assert that every rule variant's join runs exactly once per
  round (no double-join).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.datalog.ast import Rule
    from repro.datalog.evaluation import Assignment
    from repro.datalog.planner import JoinPlanner
    from repro.datalog.sql_compiler import FrontierQuery
    from repro.storage.database import BaseDatabase

#: Signature of an assignment observer.
AssignmentObserver = Callable[["Assignment"], None]


@dataclass
class QueryStats:
    """Per-statement-class counters for the SQLite semi-naive driver.

    The planner and maintenance counters ride along.  Join plans are built
    once and never re-planned, so :attr:`replans` and :attr:`noop_replans`
    always read zero.

    Attributes
    ----------
    staged_selects:
        Keyed ``INSERT INTO _repro_stage_wN ... SELECT`` statements — one
        *join* each; the staged rows then feed the observers (and, in the
        closure driver, the install).  Includes the staged stage-discovery
        joins run when a context is shared across semantics.
    stage_ddl:
        ``CREATE TEMP TABLE``/``CREATE INDEX`` statements creating a keyed
        stage table — at most one table per distinct variant width per
        connection; steady-state rounds issue none (the zero-DDL discipline
        the staging tests assert).
    staged_installs:
        ``INSERT OR IGNORE ... SELECT ... FROM`` the stage table — a scan of
        the staged rows, **not** a join over the base tables.
    direct_installs:
        Fast-path ``INSERT OR IGNORE ... SELECT`` over the base tables — one
        join each, used when no observer needs the assignments.
    assignment_selects:
        Plain streaming assignment ``SELECT`` joins run under a context —
        the stage-semantics discovery path when no assignment observer is
        registered (staging would be pure overhead with a single consumer;
        the gate mirrors the closure driver's ``observing`` flag).
    replans:
        Always zero.  Kept (with :attr:`noop_replans`) because external
        benchmark readers still read both counters by name; cached join
        plans are permanent, so nothing is ever re-planned.
    noop_replans:
        Always zero, like :attr:`replans`.
    shard_selects:
        Always zero.  Kept (with :attr:`effective_shards`) because external
        benchmark readers still read both counters by name; no engine shards
        its rounds any more.
    effective_shards:
        Always zero, like :attr:`shard_selects`.
    replay_batches:
        Bounded chunks in which staged rows were replayed to observers
        (:data:`~repro.datalog.sql_seminaive.STAGE_REPLAY_CHUNK` rows per
        chunk) instead of one unbounded Python round trip.
    variant_compiles:
        Distinct rules whose frontier variants this context resolved (cache
        misses of :meth:`EvalContext.frontier_variants`).  This counts
        *per-context* first sightings — the compilation itself is also
        memoised process-wide by the ``lru_cache`` on
        :func:`~repro.datalog.sql_compiler.compile_frontier_rule`, so a miss
        here is cheap; the counter exists to make sharing observable in
        tests, not to measure compile cost.  Keyed per ``(rule, plan kind)``
        since the wcoj lowering compiles distinct SQL.
    wcoj_rules:
        Plan builds the in-memory planner classified as worst-case-optimal
        (``plan_kind="wcoj"``) — once per plan build.
    wcoj_intersections:
        Variable-level leapfrog intersection steps the generic-join driver
        performed (one per variable binding frontier explored).  Updated by
        the in-memory wcoj driver only; SQLite wcoj statements are observable
        through the ``/* repro:wcoj */`` statement tag instead.
    width_estimates:
        Width classifications performed (GYO reduction + AGM-vs-binary cost
        comparison) — one per plan build over a body with ≥ 2 atoms.
    maintained_batches:
        Insert/delete batches absorbed incrementally by a
        :class:`~repro.service.RepairService` (one per
        :meth:`~repro.service.RepairService.apply` call) instead of a full
        re-fixpoint.
    overdeleted:
        Delta facts the DRed deletion pass over-deleted — facts with at least
        one derivation transitively touching a deleted base fact, each a
        re-derivation candidate.
    rederived:
        The subset of :attr:`overdeleted` rescued by the re-derivation pass
        (an alternative derivation avoiding the deleted facts survived); the
        difference ``overdeleted - rederived`` left the delta extent.
    counted_deletes:
        Deletion batches fully decided by the counting fast path: every killed
        assignment's derived fact kept a positive *base-only* support count,
        so the DRed over-delete / re-derive detour was skipped entirely.
    dred_fallbacks:
        Deletion batches where support counts alone could not prove every
        affected fact alive, so the exact DRed passes ran (with counting-based
        pruning of provably alive facts when enabled).
    """

    staged_selects: int = 0
    stage_ddl: int = 0
    staged_installs: int = 0
    direct_installs: int = 0
    assignment_selects: int = 0
    replans: int = 0
    noop_replans: int = 0
    variant_compiles: int = 0
    shard_selects: int = 0
    effective_shards: int = 0
    replay_batches: int = 0
    wcoj_rules: int = 0
    wcoj_intersections: int = 0
    width_estimates: int = 0
    maintained_batches: int = 0
    overdeleted: int = 0
    rederived: int = 0
    counted_deletes: int = 0
    dred_fallbacks: int = 0

    def joins(self) -> int:
        """Total statements that join the base/frontier tables."""
        return self.staged_selects + self.direct_installs + self.assignment_selects

    def reset(self) -> None:
        """Zero every counter (the benchmark reuses one context per run)."""
        self.staged_selects = 0
        self.stage_ddl = 0
        self.staged_installs = 0
        self.direct_installs = 0
        self.assignment_selects = 0
        self.replans = 0
        self.noop_replans = 0
        self.variant_compiles = 0
        self.shard_selects = 0
        self.effective_shards = 0
        self.replay_batches = 0
        self.wcoj_rules = 0
        self.wcoj_intersections = 0
        self.width_estimates = 0
        self.maintained_batches = 0
        self.overdeleted = 0
        self.rederived = 0
        self.counted_deletes = 0
        self.dred_fallbacks = 0


@dataclass
class EvalContext:
    """Shared cross-run evaluation state (see module docstring).

    A context is cheap to create and safe to drop; every fixpoint entry point
    creates a private one when the caller does not pass ``context=``.  Sharing
    only ever reuses *structural* artefacts (join orders keyed on rule shape,
    compiled SQL keyed on the rule), so one context may span databases with
    different contents — e.g. the per-semantics clones of a ``compare()`` run.
    """

    stats: QueryStats = field(default_factory=QueryStats)
    _plans: Dict = field(default_factory=dict, repr=False)
    _variants: Dict = field(default_factory=dict, repr=False)
    _observers: List[AssignmentObserver] = field(default_factory=list, repr=False)

    # -- planning ---------------------------------------------------------------

    def planner(self, db: "BaseDatabase") -> "JoinPlanner":
        """A planner for ``db`` backed by this context's shared plan cache.

        Cardinality estimates stay per-planner (they describe one database
        instance); the structural plan dictionary is shared, so every planner
        the context hands out benefits from plans built by the others.  A
        plan, once in the shared cache, is never rebuilt.
        """
        from repro.datalog.planner import JoinPlanner

        return JoinPlanner(db, plans=self._plans, stats=self.stats)

    def plan_cache_size(self) -> int:
        """Number of distinct rule structures planned so far."""
        return len(self._plans)

    def frontier_variants(
        self, rule: "Rule",
    ) -> Tuple["FrontierQuery", Tuple["FrontierQuery", ...]]:
        """The compiled ``(full, seeded)`` SQL variants of ``rule``, cached.

        The first request per rule resolves the variants (and counts a
        :attr:`QueryStats.variant_compiles`); later requests — including from
        other semantics sharing the context — return the cached tuple.  The
        per-context dict sits on top of the process-wide ``lru_cache`` of
        :func:`~repro.datalog.sql_compiler.compile_frontier_rule`: it pins
        the variants against lru eviction for the context's lifetime and
        gives the tests a deterministic sharing signal.  The cache key
        includes the resolved plan kind so flipping ``REPRO_FORCE_PLAN``
        mid-process can never serve a stale lowering.
        """
        from repro.datalog.sql_compiler import (
            compile_frontier_rule,
            resolve_plan_kind,
        )

        key = (rule, resolve_plan_kind(rule))
        cached = self._variants.get(key)
        if cached is None:
            self.stats.variant_compiles += 1
            cached = compile_frontier_rule(rule, plan_kind=key[1])
            self._variants[key] = cached
        return cached

    def query_context(self) -> "EvalContext":
        """A derived context sharing stats and caches — but no observers.

        The incremental-maintenance layer (:mod:`repro.datalog.incremental`)
        runs internal discovery queries that must benefit from this context's
        plan/variant caches and account into the same :class:`QueryStats`,
        while observer delivery stays under the caller's exactly-once
        deduplication — the SQL discovery path notifies context observers
        itself, so handing it the primary context would deliver assignments
        twice.
        """
        derived = EvalContext(stats=self.stats)
        derived._plans = self._plans
        derived._variants = self._variants
        return derived

    # -- observers --------------------------------------------------------------

    def add_observer(self, observer: AssignmentObserver) -> None:
        """Register ``observer`` to receive every new assignment enumerated."""
        self._observers.append(observer)

    def remove_observer(self, observer: AssignmentObserver) -> None:
        """Unregister a previously added observer (no-op when absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    @property
    def has_observers(self) -> bool:
        """True when at least one observer is registered."""
        return bool(self._observers)

    def notify(self, assignment: "Assignment") -> None:
        """Deliver one new assignment to every registered observer."""
        for observer in self._observers:
            observer(assignment)
