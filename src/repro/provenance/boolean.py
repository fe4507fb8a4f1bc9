"""Boolean provenance for delta tuples (Algorithm 1, Section 5.1).

Algorithm 1 of the paper represents the provenance of every *possible* delta
tuple as a DNF formula: each clause corresponds to one assignment deriving the
tuple, with base tuples as positive literals and delta tuples as the negation
of their base counterpart.  The disjunction of all those DNFs is negated into a
CNF and handed to a Min-Ones SAT solver.

This module encodes that construction directly over "deletion variables": for
every tuple ``t`` of the database there is a variable ``x_t`` meaning "``t`` is
deleted".  An assignment ``α`` of a rule body is then *voided* exactly when

* some base-atom fact of ``α`` is deleted (``x_t`` true), or
* some delta-atom fact of ``α`` is kept (``x_t`` false),

so the negated provenance is the CNF whose clause for ``α`` is::

    OR_{t base atom of α} x_t   OR   OR_{t delta atom of α} ¬x_t

A satisfying assignment with a minimum number of true variables is exactly the
result of independent semantics (``Ind(P, D)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.datalog.ast import Program, Rule
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import Assignment, find_assignments
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact


@dataclass(frozen=True)
class Clause:
    """One CNF clause of the negated provenance.

    ``positives`` are facts whose deletion satisfies the clause; ``negatives``
    are facts whose *retention* satisfies it.  The clause corresponds to a
    single assignment of a single rule and satisfying it voids that assignment.
    """

    positives: frozenset[Fact]
    negatives: frozenset[Fact]
    rule_name: str = ""
    derived: Fact | None = None

    def is_empty(self) -> bool:
        """True when the clause has no literals (the assignment cannot be voided)."""
        return not self.positives and not self.negatives

    def variables(self) -> frozenset[Fact]:
        """All facts mentioned by the clause."""
        return self.positives | self.negatives

    def satisfied_by(self, deleted: Iterable[Fact]) -> bool:
        """True when deleting exactly ``deleted`` satisfies (voids) this clause."""
        deleted_set = set(deleted)
        if self.positives & deleted_set:
            return True
        return bool(self.negatives - deleted_set)

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)

    def __str__(self) -> str:
        parts = [f"del({item.label()})" for item in sorted(self.positives)]
        parts += [f"keep({item.label()})" for item in sorted(self.negatives)]
        return " ∨ ".join(parts) if parts else "⊥"


@dataclass
class BooleanProvenance:
    """The Boolean provenance of a (database, delta program) pair.

    Attributes
    ----------
    clauses:
        The CNF clauses of the negated provenance (one per hypothetical
        assignment).
    dnf_by_tuple:
        The positive DNF provenance per derivable delta tuple: for each head
        fact, the list of assignments that can derive it.  This is the paper's
        ``Prov(t)`` before negation, kept for explanations and tests.
    variables:
        Every fact that occurs in some clause (candidate deletions).
    """

    clauses: List[Clause] = field(default_factory=list)
    dnf_by_tuple: Dict[Fact, List[Assignment]] = field(default_factory=dict)
    variables: set[Fact] = field(default_factory=set)

    def add_assignment(
        self, assignment: Assignment, already_deleted: set[Fact]
    ) -> None:
        """Record one hypothetical assignment as a DNF clause and a CNF clause."""
        self.dnf_by_tuple.setdefault(assignment.derived, []).append(assignment)
        positives = frozenset(assignment.base_facts())
        # A delta atom that matched a fact already recorded as deleted is a
        # constant-true literal of the positive provenance, so it contributes
        # nothing to the negated clause (it can never be "kept" again).
        negatives = frozenset(
            item for item in assignment.delta_facts() if item not in already_deleted
        )
        clause = Clause(
            positives=positives,
            negatives=negatives,
            rule_name=assignment.rule.display_name(),
            derived=assignment.derived,
        )
        self.clauses.append(clause)
        self.variables |= clause.variables()

    # -- inspection -----------------------------------------------------------

    def clause_count(self) -> int:
        """Number of CNF clauses (hypothetical assignments)."""
        return len(self.clauses)

    def variable_count(self) -> int:
        """Number of distinct facts mentioned by the provenance."""
        return len(self.variables)

    def derivable_tuples(self) -> frozenset[Fact]:
        """All delta tuples with at least one hypothetical derivation."""
        return frozenset(self.dnf_by_tuple)

    def is_voided_by(self, deleted: Iterable[Fact]) -> bool:
        """True when deleting ``deleted`` voids every assignment (satisfies the CNF)."""
        deleted_set = set(deleted)
        return all(clause.satisfied_by(deleted_set) for clause in self.clauses)

    def violated_clauses(self, deleted: Iterable[Fact]) -> List[Clause]:
        """Clauses not satisfied when deleting exactly ``deleted`` (for debugging)."""
        deleted_set = set(deleted)
        return [
            clause for clause in self.clauses if not clause.satisfied_by(deleted_set)
        ]

    def describe(self) -> str:
        """A compact multi-line rendering of the negated provenance."""
        lines = [f"{self.clause_count()} clauses over {self.variable_count()} tuples"]
        for clause in self.clauses:
            target = clause.derived.label() if clause.derived is not None else "?"
            lines.append(f"  [{clause.rule_name} ⟹ Δ{target}] {clause}")
        return "\n".join(lines)


def build_boolean_provenance(
    db: BaseDatabase,
    program: DeltaProgram | Program | Sequence[Rule],
    engine: str = "auto",
    context=None,
) -> BooleanProvenance:
    """Build the Boolean provenance of every possible delta tuple (Algorithm 1, line 1).

    Delta atoms in rule bodies are evaluated *hypothetically*: they may match
    the delta counterpart of any tuple of ``db``, not only tuples already
    recorded as deleted.  This captures every potential cascade without
    committing to an operational semantics.

    The hypothetical evaluation is a single pass (no fixpoint), so ``engine``
    only controls join planning: the default plans each rule's joins once and
    caches them, while ``engine="naive"`` re-derives the atom order at every
    recursion step (the oracle behaviour).  A shared
    :class:`~repro.datalog.context.EvalContext` (``context=``) backs the
    planner with its cross-run structural plan cache.  On SQLite-backed
    databases both engines evaluate through compiled SQL joins (the planner
    is bypassed), so the knob only validates; unknown names raise
    :class:`~repro.exceptions.UnknownEngineError` either way.
    """
    from repro.datalog.evaluation import ENGINE_NAIVE, resolve_engine
    from repro.storage.sqlite_backend import SQLiteDatabase

    planner = None
    if resolve_engine(db, engine) != ENGINE_NAIVE and not isinstance(
        db, SQLiteDatabase,
    ):
        from repro.datalog.planner import JoinPlanner

        planner = context.planner(db) if context is not None else JoinPlanner(db)
    provenance = BooleanProvenance()
    already_deleted = set(db.all_deltas())
    for rule in program:
        for assignment in find_assignments(
            db, rule, hypothetical_deltas=True, planner=planner,
        ):
            provenance.add_assignment(assignment, already_deleted)
    return provenance
