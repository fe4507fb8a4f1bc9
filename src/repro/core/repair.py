"""The public repair engine: one object tying a database to a delta program.

:class:`RepairEngine` is the main entry point of the library.  It validates the
program against the database schema, answers stability questions, computes the
repair under any of the four semantics, and compares the four results the way
the paper's experimental section does.

Example
-------
>>> from repro import Database, Schema, RepairEngine, DeltaProgram, Semantics
>>> schema = Schema.from_arities({"R": 1, "S": 1})
>>> db = Database.from_dicts(schema, {"R": [(1,)], "S": [(1,)]})
>>> program = DeltaProgram.from_text("delta R(x) :- R(x), S(x).")
>>> engine = RepairEngine(db, program)
>>> engine.repair(Semantics.END).size
1
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Sequence

from repro.core.containment import ContainmentReport, compare_results

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datalog.context import EvalContext
from repro.core.semantics import RepairResult, Semantics, compute_repair
from repro.core.stability import is_stable, is_stabilizing_set, verify_repair
from repro.datalog.ast import Program, Rule
from repro.datalog.delta import DeltaProgram
from repro.exceptions import SemanticsError
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact


class RepairEngine:
    """Computes and verifies repairs of a database under a delta program.

    Parameters
    ----------
    db:
        The database instance.  It is never modified: every repair works on a
        clone and the repaired database is returned inside the result.
    program:
        The delta program, as a :class:`DeltaProgram`, a plain
        :class:`Program`, or any iterable of rules.  Plain programs are wrapped
        and validated.
    validate_schema:
        Check relations and arities of the program against the database schema
        (default True).
    verify:
        When True, every computed result is checked to be a stabilizing set
        before being returned (slower; useful in tests and demos).
    engine:
        Default evaluation engine for every repair computed by this object:
        ``"auto"`` (semi-naive on every backend and CPU count — delta-driven
        planned joins in memory, frontier-table SQL variants on SQLite),
        ``"semi-naive"``, or ``"naive"`` (the differential-testing oracle).
        Unknown names raise :class:`~repro.exceptions.UnknownEngineError`
        (a :class:`ValueError`).
        A per-call ``engine=`` option to :meth:`repair` overrides it.
    context:
        Optional :class:`~repro.datalog.context.EvalContext`.  Every repair
        this engine computes shares it, so a :meth:`compare` / :meth:`repair_all`
        run builds join plans and compiled SQL rule variants **once** and
        reuses them across all four semantics (and across repeated calls on
        the same engine object).  By default each engine creates its own
        private context; pass one explicitly to share planning state between
        several engines evaluating structurally similar programs.
    """

    def __init__(
        self,
        db: BaseDatabase,
        program: DeltaProgram | Program | Iterable[Rule],
        validate_schema: bool = True,
        verify: bool = False,
        engine: str = "auto",
        context: "EvalContext | None" = None,
    ) -> None:
        from repro.datalog.context import EvalContext
        from repro.datalog.evaluation import validate_engine

        validate_engine(engine)
        self._db = db
        if isinstance(program, DeltaProgram):
            self._program = program
        else:
            rules = tuple(program)
            self._program = DeltaProgram(Program(rules))
        if validate_schema:
            self._program.validate_against_schema(db.schema)
        self._verify = verify
        self._engine = engine
        self._context = context if context is not None else EvalContext()

    # -- accessors --------------------------------------------------------------

    @property
    def database(self) -> BaseDatabase:
        """The original (unmodified) database."""
        return self._db

    @property
    def program(self) -> DeltaProgram:
        """The validated delta program."""
        return self._program

    @property
    def context(self) -> "EvalContext":
        """The shared evaluation context (plan caches, observers, stats)."""
        return self._context

    # -- queries -----------------------------------------------------------------

    def is_stable(self) -> bool:
        """True when the database already satisfies no rule of the program."""
        return is_stable(self._db, self._program)

    def is_stabilizing_set(self, deleted: Iterable[Fact]) -> bool:
        """True when deleting ``deleted`` stabilizes the database."""
        return is_stabilizing_set(self._db, self._program, deleted)

    # -- repairs ------------------------------------------------------------------

    def repair(
        self, semantics: Semantics | str = Semantics.INDEPENDENT, **options: Any,
    ) -> RepairResult:
        """Compute the repair under the given semantics.

        ``options`` are forwarded to the underlying algorithm (e.g.
        ``method="exhaustive"`` for step semantics, ``engine="naive"`` to force
        the oracle evaluation engine).  Unless overridden, every call shares
        this engine's :attr:`context`, so plans and compiled rule variants
        carry across semantics and repeated repairs.
        """
        options.setdefault("engine", self._engine)
        options.setdefault("context", self._context)
        result = compute_repair(self._db, self._program, semantics, **options)
        if self._verify and not verify_repair(self._db, self._program, result):
            raise SemanticsError(
                f"{result.semantics.value} semantics returned a non-stabilizing set "
                "(internal error)",
            )
        return result

    def repair_all(
        self,
        semantics: Sequence[Semantics | str] | None = None,
        **options: Any,
    ) -> Dict[Semantics, RepairResult]:
        """Compute the repair under several semantics (all four by default)."""
        requested = (
            [Semantics.parse(member) for member in semantics]
            if semantics is not None
            else list(Semantics)
        )
        return {member: self.repair(member, **options) for member in requested}

    def with_deletion_requests(self, items: Sequence[Fact]) -> "RepairEngine":
        """A new engine whose program additionally requests the deletion of ``items``.

        This is the paper's second initialisation mode (Section 3.6): the
        database may be stable, and the user seeds the process by asking for
        specific tuples to go (the running example's rule (0)).
        """
        return RepairEngine(
            self._db,
            self._program.with_deletion_requests(items),
            validate_schema=False,
            verify=self._verify,
            engine=self._engine,
            # Request rules only rename constants, so the structural plan
            # cache (and the base rules' compiled variants) stay valid.
            context=self._context,
        )

    # -- comparisons ---------------------------------------------------------------

    def compare(self, name: str = "", **options: Any) -> ContainmentReport:
        """Run all four semantics and report their containment relationships."""
        results = self.repair_all(**options)
        return compare_results(results, name=name)

    def __repr__(self) -> str:
        return (
            f"RepairEngine(db={self._db.summary()!r}, rules={len(self._program)}, "
            f"verify={self._verify})"
        )
