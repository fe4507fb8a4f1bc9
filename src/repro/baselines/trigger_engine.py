"""A simulator for "after delete, delete" SQL triggers.

Section 6 of the paper compares the four semantics against the same programs
implemented as triggers in PostgreSQL and MySQL, highlighting that when several
triggers watch the same event the systems pick the firing order themselves:
PostgreSQL fires them alphabetically by trigger name, MySQL in creation order.
PostgreSQL/MySQL are not available offline, so this module simulates the
relevant behaviour: a row-level cascade where each deletion event is handed to
the watching triggers in policy order, each firing deletes its target rows
immediately, and the newly deleted rows are queued as further events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Sequence

from repro.constraints.triggers import DeleteTrigger, triggers_from_program
from repro.datalog.ast import Atom, Constant, Rule, Variable
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import find_assignments
from repro.datalog.planner import JoinPlanner
from repro.exceptions import ExperimentError
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact
from repro.utils.timing import Stopwatch


class FiringPolicy(str, Enum):
    """How simultaneous triggers on the same event are ordered."""

    POSTGRESQL = "postgresql"  # alphabetical by trigger name
    MYSQL = "mysql"            # order of creation

    def __str__(self) -> str:
        return self.value


@dataclass
class TriggerRun:
    """The outcome of one trigger-cascade simulation."""

    policy: FiringPolicy
    deleted: frozenset[Fact]
    deletion_order: tuple[Fact, ...]
    fired: tuple[tuple[str, Fact], ...]
    runtime: float

    @property
    def size(self) -> int:
        """Number of deleted tuples."""
        return len(self.deleted)


@dataclass
class TriggerEngine:
    """Simulates a set of row-level "after delete, delete" triggers.

    Parameters
    ----------
    triggers:
        The trigger definitions, in creation order.
    policy:
        The firing-order policy for triggers watching the same relation.
    max_events:
        Safety bound on processed deletion events (MySQL famously failed to
        terminate on the paper's program 20; the simulator raises instead).
    """

    triggers: Sequence[DeleteTrigger]
    policy: FiringPolicy = FiringPolicy.POSTGRESQL
    max_events: int = 1_000_000

    @classmethod
    def from_program(
        cls,
        program: DeltaProgram,
        policy: FiringPolicy = FiringPolicy.POSTGRESQL,
        max_events: int = 1_000_000,
    ) -> "TriggerEngine":
        """Build the engine from a delta program (cascade rules become triggers).

        Rules without a delta body atom (selection/seed rules) are not
        triggers; their matching tuples should be passed to :meth:`run` as the
        initial deletions instead (see :func:`seed_deletions`).
        """
        return cls(
            triggers=tuple(triggers_from_program(program)),
            policy=policy,
            max_events=max_events,
        )

    # -- execution -------------------------------------------------------------

    def _ordered_triggers(self, relation: str) -> List[DeleteTrigger]:
        watching = [
            trigger for trigger in self.triggers if trigger.watched.relation == relation
        ]
        if self.policy is FiringPolicy.POSTGRESQL:
            return sorted(watching, key=lambda trigger: trigger.name)
        return watching  # creation order

    def run(
        self,
        db: BaseDatabase,
        initial_deletions: Iterable[Fact],
        context=None,
    ) -> TriggerRun:
        """Delete ``initial_deletions`` and cascade through the triggers.

        The input database is cloned; the clone after the cascade is discarded
        (only the deletion set and order are reported, as in the paper).
        ``context`` (an :class:`~repro.datalog.context.EvalContext`) lets the
        per-event probe plans be shared with other runs — e.g. repeated
        cascades of a trigger-comparison experiment — and subscribes the
        context's assignment observers (``context.add_observer``) to the
        cascade *as it runs*: each receives a probe match the moment a trigger
        fires on it, mid-cascade rather than from the post-run report.
        """
        watch = Stopwatch()
        watch.start()
        working = db.clone()
        # Probe rules built per deletion event share their body structure per
        # trigger, so one planner caches a single join plan per trigger.
        planner = (
            context.planner(working) if context is not None else JoinPlanner(working)
        )
        deleted: List[Fact] = []
        fired: List[tuple[str, Fact]] = []
        queue: deque[Fact] = deque()

        for item in initial_deletions:
            if working.has_active(item):
                working.delete(item)
                deleted.append(item)
                queue.append(item)

        processed = 0
        while queue:
            processed += 1
            if processed > self.max_events:
                raise ExperimentError(
                    f"trigger cascade exceeded {self.max_events} events "
                    "(possible non-termination)",
                )
            event = queue.popleft()
            for trigger in self._ordered_triggers(event.relation):
                for assignment in self._matching_assignments(
                    working, trigger, event, planner,
                ):
                    target = assignment.derived
                    if not working.has_active(target):
                        continue
                    if context is not None:
                        # Mid-cascade delivery: observers hear about the
                        # firing probe match before its deletion applies.
                        context.notify(assignment)
                    working.delete(target)
                    deleted.append(target)
                    fired.append((trigger.name, target))
                    queue.append(target)
        return TriggerRun(
            policy=self.policy,
            deleted=frozenset(deleted),
            deletion_order=tuple(deleted),
            fired=tuple(fired),
            runtime=watch.stop(),
        )

    def _matching_assignments(
        self,
        db: BaseDatabase,
        trigger: DeleteTrigger,
        event: Fact,
        planner: JoinPlanner | None = None,
    ) -> List:
        """Probe assignments of the trigger for the deletion of ``event``
        (their ``derived`` facts are the deletion targets).

        The trigger's WHEN condition is evaluated against the current state of
        the database with the watched atom bound to the deleted row (the SQL
        ``OLD`` record).
        """
        bound_watched = Atom(
            trigger.watched.relation,
            tuple(Constant(value) for value in event.values),
            is_delta=False,
        )
        bindings: Dict[str, object] = {}
        for term, value in zip(trigger.watched.terms, event.values):
            if isinstance(term, Variable):
                if term.name in bindings and bindings[term.name] != value:
                    return []
                bindings[term.name] = value
            elif isinstance(term, Constant) and term.value != value:
                return []
        target = trigger.target.substitute(bindings)
        condition = tuple(atom.substitute(bindings) for atom in trigger.condition)
        comparisons = tuple(
            _substitute_comparison(comparison, bindings)
            for comparison in trigger.comparisons
        )
        probe_rule = Rule(
            head=target.as_delta(),
            body=(target, *condition),
            comparisons=comparisons,
            name=trigger.name,
        )
        del bound_watched  # the OLD record itself is gone from the active extent
        return find_assignments(db, probe_rule, planner=planner)


def _substitute_comparison(comparison, bindings: Dict[str, object]):
    """Replace bound variables of a comparison by constants."""
    from repro.datalog.ast import Comparison

    def resolve(term):
        if isinstance(term, Variable) and term.name in bindings:
            return Constant(bindings[term.name])
        return term

    return Comparison(resolve(comparison.lhs), comparison.op, resolve(comparison.rhs))


def seed_deletions(db: BaseDatabase, program: DeltaProgram) -> List[Fact]:
    """The initial deletions of a trigger comparison: tuples matched by seed rules.

    Seed rules are the program's rules without delta atoms in their bodies
    (selection rules such as ``ΔO(oid, n) :- O(oid, n), oid = C``).
    """
    seeds: List[Fact] = []
    seen: set[Fact] = set()
    for rule in program:
        if any(atom.is_delta for atom in rule.body):
            continue
        for assignment in find_assignments(db, rule):
            if assignment.derived not in seen:
                seen.add(assignment.derived)
                seeds.append(assignment.derived)
    return seeds
