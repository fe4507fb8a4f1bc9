"""SQLite-backed storage engine with SQL-level frontier tables.

The paper's prototype keeps the data in PostgreSQL and evaluates delta rules
as SQL queries over it.  PostgreSQL is not available in this environment, so
this module provides the closest substitute that exercises the same code path:
a :class:`SQLiteDatabase` engine storing every relation ``R`` in three tables,
all with columns ``c0 .. c{arity-1}`` plus a ``tid`` label column:

* ``r_R`` — the **active** extent (the current content of ``R``);
* ``d_R`` — the **delta** extent (the content of ``Δ_R``);
* ``f_R`` — the **frontier** table: the same facts as ``d_R`` plus a ``gen``
  generation stamp recording *when* each fact entered the delta extent.

The frontier scheme drives the SQL-level semi-naive engine
(:mod:`repro.datalog.sql_seminaive`).  A single monotone generation counter is
kept per database; every batch of delta insertions (a Python-level
:meth:`~SQLiteDatabase.mark_deleted`, or one ``INSERT OR IGNORE ... SELECT``
install statement of the semi-naive driver) stamps its *new* rows with a fresh
generation.  A half-open generation window ``(lo, hi]`` then identifies one
round's frontier entirely inside SQLite: delta-rewritten rule variants join
their seed atom against ``f_R WHERE gen > :lo AND gen <= :hi``, pre-seed delta
atoms against ``f_R WHERE gen <= :lo`` and the remaining delta atoms against
``f_R WHERE gen <= :hi``, so no frontier set is ever materialised in Python.
``INSERT OR IGNORE`` keyed on the value columns guarantees a fact keeps the
generation of its *first* arrival, which is exactly the semi-naive frontier
discipline (a re-derived fact never re-enters the frontier).

Rule bodies are compiled to SQL joins by :mod:`repro.datalog.sql_compiler`;
the generic evaluator automatically uses that path whenever the database is a
:class:`SQLiteDatabase`, and the closure engines route ``engine="auto"`` /
``"semi-naive"`` through the frontier-table driver.

File-backed databases run in **WAL mode** with ``synchronous = NORMAL``
(in-memory ones keep a MEMORY journal): WAL survives a crash mid-write where
a MEMORY journal can corrupt the file.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Dict, Iterable, Iterator, Mapping

from repro.exceptions import StorageError, UnknownRelationError
from repro.storage.database import BaseDatabase
from repro.storage.facts import Fact
from repro.storage.schema import Schema

#: Mapping from repro attribute types to SQLite column types.
_SQL_TYPES = {"int": "INTEGER", "str": "TEXT", "float": "REAL"}

#: Statement tag on the stage-table DDL (see :mod:`repro.datalog.sql_compiler`
#: for the other ``/* repro:<class> */`` tags).  Stage DDL runs at most once
#: per (connection, stage width); steady-state rounds issue none.
TAG_STAGE_DDL = "/* repro:stage-ddl */"

#: Statement tag on every persistent-assignment-store statement (DDL, batched
#: writes, meta updates) — see
#: :class:`repro.datalog.incremental.PersistentAssignmentStore`.
TAG_ASSIGN = "/* repro:assign */"


def stage_table_name(width: int) -> str:
    """Name of the keyed temp table staging rows of ``width`` columns.

    One persistent temp table exists per distinct *stage width* (number of
    projected columns of a compiled rule variant); rows of different variants
    share it, keyed by a ``variant_id`` column.  Temp tables are
    connection-local, so concurrent databases never collide, and the sqlite
    backup API never copies them into clones.
    """
    return f"_repro_stage_w{width}"


def active_table(relation: str) -> str:
    """Name of the SQLite table holding the active extent of ``relation``."""
    return f"r_{relation}"


def delta_table(relation: str) -> str:
    """Name of the SQLite table holding the delta extent of ``relation``."""
    return f"d_{relation}"


def frontier_table(relation: str) -> str:
    """Name of the SQLite table holding the generation-stamped delta extent."""
    return f"f_{relation}"


class SQLiteDatabase(BaseDatabase):
    """A :class:`BaseDatabase` implementation backed by an SQLite connection.

    Example
    -------
    >>> from repro.storage import Schema, RelationSchema, fact
    >>> schema = Schema.from_relations([RelationSchema.of("R", "x:int", "y:str")])
    >>> db = SQLiteDatabase(schema)
    >>> _ = db.insert(fact("R", 1, "a"))
    >>> db.count_active("R")
    1
    """

    def __init__(self, schema: Schema, path: str = ":memory:") -> None:
        self._schema = schema
        self._path = path
        # Autocommit mode: every statement commits immediately, so the backup
        # API used by clone() always sees the latest state and no transaction
        # bookkeeping leaks into the storage interface.
        self._connection = sqlite3.connect(path, isolation_level=None)
        if path == ":memory:":
            # In-memory databases have no durability story; the rollback
            # journal is pure overhead.
            self._connection.execute("PRAGMA synchronous = OFF")
            self._connection.execute("PRAGMA journal_mode = MEMORY")
        else:
            # File-backed databases run in WAL mode: crash-safe (a MEMORY
            # journal can corrupt the file on an ill-timed kill).
            # ``synchronous = NORMAL`` is the recommended WAL pairing:
            # commits only sync at checkpoints.
            self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute("PRAGMA synchronous = NORMAL")
        # Keep temp objects (the persistent keyed stage tables) in memory even
        # when the main database is file-backed; staged rows are per-round
        # scratch state and must never pay disk I/O.
        self._connection.execute("PRAGMA temp_store = MEMORY")
        #: Callables receiving the text of every statement routed through
        #: :meth:`execute` (the compiled-evaluation path) — the query-counter
        #: hooks the staging tests and the benchmark smoke run install.
        self._statement_hooks: list = []
        #: Stage widths whose keyed temp table already exists on this
        #: connection (see :meth:`ensure_stage_table`).
        self._stage_widths: set[int] = set()
        #: wcoj covering-index statements already applied through this
        #: connection (see :meth:`ensure_wcoj_indexes`).
        self._wcoj_indexes: set[str] = set()
        self._create_tables()
        #: Monotone generation counter backing the frontier tables.  Reopening
        #: a file-backed database must resume after the persisted stamps, or
        #: new deltas would collide with (and frontier windows exclude) the
        #: facts recorded by the previous session.
        self._generation = self._max_persisted_generation()
        if path != ":memory:":
            # A file written by an interrupted session may violate the
            # d_R ↔ f_R mirror invariant (a kill between the install and the
            # delta copy, or between the delta insert and the frontier stamp);
            # restore it before any consumer takes a frontier token.
            self._reconcile_frontier()

    # -- schema / DDL ---------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying SQLite connection (exposed for the SQL compiler)."""
        return self._connection

    def _columns(self, relation: str) -> list[str]:
        arity = self._schema.arity(relation)
        return [f"c{i}" for i in range(arity)]

    def _create_tables(self) -> None:
        cursor = self._connection.cursor()
        for relation_schema in self._schema:
            name = relation_schema.name
            column_defs = ", ".join(
                f"c{i} {_SQL_TYPES[attribute.dtype]}"
                for i, attribute in enumerate(relation_schema.attributes)
            )
            key = ", ".join(self._columns(name))
            for table in (active_table(name), delta_table(name)):
                cursor.execute(
                    f"CREATE TABLE IF NOT EXISTS {table} ({column_defs}, tid TEXT, "
                    f"PRIMARY KEY ({key}))",
                )
            cursor.execute(
                f"CREATE TABLE IF NOT EXISTS {frontier_table(name)} "
                f"({column_defs}, tid TEXT, gen INTEGER NOT NULL, PRIMARY KEY ({key}))",
            )
            cursor.execute(
                f"CREATE INDEX IF NOT EXISTS idx_{name}_f_gen "
                f"ON {frontier_table(name)} (gen)",
            )
            # Index every column: rule bodies join on arbitrary positions.
            for i in range(relation_schema.arity):
                for tag, table in (
                    ("a", active_table(name)),
                    ("d", delta_table(name)),
                    ("f", frontier_table(name)),
                ):
                    cursor.execute(
                        f"CREATE INDEX IF NOT EXISTS idx_{name}_{tag}_{i} "
                        f"ON {table} (c{i})",
                    )

    def _max_persisted_generation(self) -> int:
        top = 0
        for name in self._schema.names():
            row = self._connection.execute(
                f"SELECT MAX(gen) FROM {frontier_table(name)}",
            ).fetchone()
            if row[0] is not None:
                top = max(top, int(row[0]))
        return top

    def _reconcile_frontier(self) -> None:
        """Restore the delta ↔ frontier mirror after a torn previous session.

        The two extents are written by consecutive statements under autocommit,
        so a crash can leave either side ahead:

        * an ``INSERT OR IGNORE ... SELECT`` install commits into ``f_R``
          before :func:`~repro.datalog.sql_compiler.delta_copy_sql` promotes
          the rows into ``d_R`` — orphaned frontier rows would then never show
          up in :meth:`delta_facts` and the repair semantics would silently
          skip them;
        * :meth:`mark_deleted` inserts into ``d_R`` before stamping ``f_R`` —
          an unstamped delta fact would never enter any frontier window, so
          semi-naive consumers would never join it (a *skipped* frontier
          fact).

        Frontier rows are copied into the delta extent verbatim; unstamped
        delta rows are stamped with one fresh generation, so consumers that
        take their token *after* reopening (they all do — tokens never
        persist) see them as regular round-1 frontier content.
        """
        for name in self._schema.names():
            columns = ", ".join([*self._columns(name), "tid"])
            self._connection.execute(
                f"INSERT OR IGNORE INTO {delta_table(name)} ({columns}) "
                f"SELECT {columns} FROM {frontier_table(name)}",
            )
            cursor = self._connection.execute(
                f"INSERT OR IGNORE INTO {frontier_table(name)} "
                f"({columns}, gen) SELECT {columns}, ? FROM {delta_table(name)}",
                (self._generation + 1,),
            )
            if cursor.rowcount > 0:
                self._generation += 1

    # -- reading -----------------------------------------------------------------

    def _rows_to_facts(self, relation: str, rows: Iterable[tuple]) -> Iterator[Fact]:
        arity = self._schema.arity(relation)
        for row in rows:
            yield Fact(relation, row[:arity], tid=row[arity])

    def active_facts(self, relation: str) -> frozenset[Fact]:
        if relation not in self._schema:
            raise UnknownRelationError(relation)
        rows = self._connection.execute(f"SELECT * FROM {active_table(relation)}")
        return frozenset(self._rows_to_facts(relation, rows))

    def delta_facts(self, relation: str) -> frozenset[Fact]:
        if relation not in self._schema:
            raise UnknownRelationError(relation)
        rows = self._connection.execute(f"SELECT * FROM {delta_table(relation)}")
        return frozenset(self._rows_to_facts(relation, rows))

    def candidates(
        self, relation: str, bindings: Mapping[int, Any], delta: bool = False,
    ) -> Iterator[Fact]:
        if relation not in self._schema:
            raise UnknownRelationError(relation)
        table = delta_table(relation) if delta else active_table(relation)
        where = ""
        params: list[Any] = []
        if bindings:
            clauses = []
            for position, value in bindings.items():
                clauses.append(f"c{position} = ?")
                params.append(value)
            where = " WHERE " + " AND ".join(clauses)
        rows = self._connection.execute(f"SELECT * FROM {table}{where}", params)
        return self._rows_to_facts(relation, rows)

    def has_active(self, item: Fact) -> bool:
        return self._exists(active_table(item.relation), item)

    def has_delta(self, item: Fact) -> bool:
        return self._exists(delta_table(item.relation), item)

    def _exists(self, table: str, item: Fact) -> bool:
        self.check_fact(item)
        clauses = " AND ".join(f"c{i} = ?" for i in range(item.arity))
        row = self._connection.execute(
            f"SELECT 1 FROM {table} WHERE {clauses} LIMIT 1", item.values,
        ).fetchone()
        return row is not None

    def count_active(self, relation: str | None = None) -> int:
        if relation is not None:
            return self._count(active_table(relation))
        return sum(self._count(active_table(name)) for name in self._schema.names())

    def count_delta(self, relation: str | None = None) -> int:
        if relation is not None:
            return self._count(delta_table(relation))
        return sum(self._count(delta_table(name)) for name in self._schema.names())

    def _count(self, table: str) -> int:
        row = self._connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        return int(row[0])

    # -- frontier tracking --------------------------------------------------------

    def generation(self) -> int:
        """The current value of the monotone generation counter."""
        return self._generation

    def next_generation(self) -> int:
        """Advance and return the generation counter (one stamp per batch)."""
        self._generation += 1
        return self._generation

    def delta_token(self, relation: str) -> int:
        """Frontier token: the database-wide generation counter.

        Generations are globally unique across relations, so the single counter
        satisfies the per-relation contract of
        :meth:`~repro.storage.database.BaseDatabase.delta_token`.
        """
        if relation not in self._schema:
            raise UnknownRelationError(relation)
        return self._generation

    def delta_added_since(self, relation: str, token: int) -> list[Fact]:
        if relation not in self._schema:
            raise UnknownRelationError(relation)
        arity = self._schema.arity(relation)
        columns = ", ".join([*self._columns(relation), "tid"])
        rows = self._connection.execute(
            f"SELECT {columns} FROM {frontier_table(relation)} WHERE gen > ?",
            (token,),
        )
        return [Fact(relation, row[:arity], tid=row[arity]) for row in rows]

    # -- writing -----------------------------------------------------------------

    def insert(self, item: Fact) -> bool:
        self.check_fact(item)
        return self._insert_into(active_table(item.relation), item)

    def _insert_into(self, table: str, item: Fact) -> bool:
        placeholders = ", ".join("?" for _ in range(item.arity + 1))
        cursor = self._connection.execute(
            f"INSERT OR IGNORE INTO {table} VALUES ({placeholders})",
            (*item.values, item.tid),
        )
        return cursor.rowcount > 0

    def _record_delta(self, item: Fact) -> bool:
        """Insert ``item`` into the delta extent and, when new, the frontier."""
        if not self._insert_into(delta_table(item.relation), item):
            return False
        placeholders = ", ".join("?" for _ in range(item.arity + 2))
        self._connection.execute(
            f"INSERT OR IGNORE INTO {frontier_table(item.relation)} "
            f"VALUES ({placeholders})",
            (*item.values, item.tid, self.next_generation()),
        )
        return True

    def _delete_from(self, table: str, item: Fact) -> bool:
        clauses = " AND ".join(f"c{i} = ?" for i in range(item.arity))
        cursor = self._connection.execute(
            f"DELETE FROM {table} WHERE {clauses}", item.values,
        )
        return cursor.rowcount > 0

    def delete(self, item: Fact) -> bool:
        self.check_fact(item)
        self._delete_from(active_table(item.relation), item)
        return self._record_delta(item)

    def mark_deleted(self, item: Fact) -> bool:
        self.check_fact(item)
        return self._record_delta(item)

    def drop_active(self, item: Fact) -> bool:
        self.check_fact(item)
        return self._delete_from(active_table(item.relation), item)

    def retract_delta(self, item: Fact) -> bool:
        self.check_fact(item)
        removed = self._delete_from(delta_table(item.relation), item)
        # Drop the frontier mirror too: a later re-derivation must re-stamp
        # ``f_R`` with a fresh generation (``INSERT OR IGNORE`` would otherwise
        # keep the stale row and the fact would never re-enter any window).
        self._delete_from(frontier_table(item.relation), item)
        return removed

    def insert_all(self, items: Iterable[Fact]) -> int:
        by_relation: Dict[str, list[tuple]] = {}
        for item in items:
            self.check_fact(item)
            by_relation.setdefault(item.relation, []).append((*item.values, item.tid))
        inserted = 0
        for relation, rows in by_relation.items():
            placeholders = ", ".join("?" for _ in range(len(rows[0])))
            cursor = self._connection.executemany(
                f"INSERT OR IGNORE INTO {active_table(relation)} "
                f"VALUES ({placeholders})",
                rows,
            )
            inserted += cursor.rowcount
        return inserted

    # -- lifecycle -----------------------------------------------------------------

    def clone(self) -> "SQLiteDatabase":
        copy = SQLiteDatabase(self._schema)
        # The backup API copies all three table families (and their indexes)
        # page-wise, orders of magnitude faster than re-inserting row by row.
        self._connection.backup(copy._connection)
        copy._generation = self._generation
        return copy

    @property
    def path(self) -> str:
        """The database path (``":memory:"`` for in-memory engines)."""
        return self._path

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def ensure_stage_table(self, width: int) -> bool:
        """Create the keyed stage table for ``width`` columns, once per connection.

        Returns True when the DDL actually ran (first sighting of ``width`` on
        this connection), False on the steady-state no-op path.  The table is
        a temp table ``_repro_stage_w{width}`` with a ``variant_id`` key column
        plus ``s0..s{width-1}``; the semi-naive driver and the staged
        stage-discovery path ``DELETE``/``INSERT`` into it per round instead
        of dropping and recreating a table per variant execution, so
        steady-state rounds issue zero DDL.  The DDL routes through
        :meth:`execute` (tagged :data:`TAG_STAGE_DDL`) so statement hooks can
        assert exactly that.
        """
        if width in self._stage_widths:
            return False
        table = stage_table_name(width)
        columns = ", ".join(f"s{i}" for i in range(width))
        self.execute(
            f"{TAG_STAGE_DDL} CREATE TEMP TABLE IF NOT EXISTS {table} "
            f"(variant_id INTEGER NOT NULL, {columns})",
        )
        self.execute(
            f"{TAG_STAGE_DDL} CREATE INDEX IF NOT EXISTS idx_stage_w{width}_variant "
            f"ON {table} (variant_id)",
        )
        self._stage_widths.add(width)
        return True

    def ensure_wcoj_indexes(self, statements) -> int:
        """Apply a wcoj variant's covering-index DDL, once per connection.

        ``statements`` is :attr:`FrontierQuery.wcoj_index_sql
        <repro.datalog.sql_compiler.FrontierQuery.wcoj_index_sql>` — tagged
        ``CREATE INDEX IF NOT EXISTS`` statements.  Returns how many actually
        ran (statements seen before on this connection are skipped, so
        steady-state rounds issue zero DDL; ``IF NOT EXISTS`` makes the first
        run idempotent across connections sharing a database file).  The DDL
        routes through :meth:`execute` so statement hooks count it.
        """
        ran = 0
        for statement in statements:
            if statement in self._wcoj_indexes:
                continue
            self.execute(statement)
            self._wcoj_indexes.add(statement)
            ran += 1
        return ran

    def add_statement_hook(self, hook) -> None:
        """Register ``hook(sql)`` to observe every :meth:`execute` statement.

        The compiled evaluation paths (rule SELECTs, staged creates, installs,
        delta copies) all route through :meth:`execute`, and every compiled
        statement embeds a ``/* repro:<class> */`` tag
        (:mod:`repro.datalog.sql_compiler`), so a hook can count statement
        classes — the staging tests and the benchmark smoke run use this to
        assert each rule variant's join runs exactly once per round.
        """
        self._statement_hooks.append(hook)

    def remove_statement_hook(self, hook) -> None:
        """Unregister a previously added statement hook (no-op when absent)."""
        try:
            self._statement_hooks.remove(hook)
        except ValueError:
            pass

    def execute(
        self, sql: str, params: Iterable[Any] | Mapping[str, Any] = (),
    ) -> sqlite3.Cursor:
        """Run a raw SQL statement against the backing connection.

        ``params`` may be positional (for ``?`` placeholders) or a mapping (for
        the named ``:name`` placeholders the semi-naive compiler emits).
        """
        for hook in self._statement_hooks:
            hook(sql)
        try:
            if isinstance(params, Mapping):
                return self._connection.execute(sql, params)
            return self._connection.execute(sql, tuple(params))
        except sqlite3.Error as error:
            raise StorageError(f"SQL execution failed: {error}") from error

    # -- persistent assignment store ------------------------------------------

    def ensure_assignment_tables(self) -> None:
        """Create the ``_repro_assign*`` table family, idempotently.

        The durable mirror of the incremental maintenance layer's
        :class:`~repro.datalog.incremental.AssignmentStore` — one row per live
        satisfying assignment plus the three fact-level indexes and a meta
        table (program fingerprint, dirty flag, aid counter).  The tables live
        in the main database (not temp), so a file-backed
        :class:`~repro.service.RepairService` can warm-restart from them; all
        writes go through :meth:`execute` / :meth:`executemany` under the
        existing autocommit discipline (batch flushes open their own
        transaction), tagged :data:`TAG_ASSIGN` for statement hooks.
        """
        statements = (
            "CREATE TABLE IF NOT EXISTS _repro_assign ("
            "aid INTEGER PRIMARY KEY, rule INTEGER NOT NULL, used TEXT NOT NULL)",
            "CREATE TABLE IF NOT EXISTS _repro_assign_base ("
            "aid INTEGER NOT NULL, fact TEXT NOT NULL)",
            "CREATE INDEX IF NOT EXISTS idx_assign_base_fact "
            "ON _repro_assign_base (fact)",
            "CREATE INDEX IF NOT EXISTS idx_assign_base_aid "
            "ON _repro_assign_base (aid)",
            "CREATE TABLE IF NOT EXISTS _repro_assign_delta ("
            "aid INTEGER NOT NULL, fact TEXT NOT NULL)",
            "CREATE INDEX IF NOT EXISTS idx_assign_delta_fact "
            "ON _repro_assign_delta (fact)",
            "CREATE INDEX IF NOT EXISTS idx_assign_delta_aid "
            "ON _repro_assign_delta (aid)",
            "CREATE TABLE IF NOT EXISTS _repro_assign_support ("
            "aid INTEGER NOT NULL, fact TEXT NOT NULL, base_only INTEGER NOT NULL)",
            "CREATE INDEX IF NOT EXISTS idx_assign_support_fact "
            "ON _repro_assign_support (fact)",
            "CREATE INDEX IF NOT EXISTS idx_assign_support_aid "
            "ON _repro_assign_support (aid)",
            "CREATE TABLE IF NOT EXISTS _repro_assign_meta ("
            "key TEXT PRIMARY KEY, value TEXT NOT NULL)",
        )
        for statement in statements:
            self.execute(f"{TAG_ASSIGN} {statement}")

    def assignment_meta(self, key: str) -> str | None:
        """One value from the ``_repro_assign_meta`` table, or None."""
        row = self.execute(
            f"{TAG_ASSIGN} SELECT value FROM _repro_assign_meta WHERE key = ?",
            (key,),
        ).fetchone()
        return None if row is None else str(row[0])

    def set_assignment_meta(self, key: str, value: str) -> None:
        """Upsert one ``_repro_assign_meta`` entry (commits immediately unless
        the caller opened a transaction)."""
        self.execute(
            f"{TAG_ASSIGN} INSERT OR REPLACE INTO _repro_assign_meta VALUES (?, ?)",
            (key, value),
        )

    def executemany(self, sql: str, rows: Iterable[tuple]) -> sqlite3.Cursor:
        """Run one parameterised statement over many rows (hook-visible).

        The batched-write mirror of :meth:`execute`: statement hooks see the
        SQL once per call, and :class:`sqlite3.Error` is wrapped in
        :class:`~repro.exceptions.StorageError` like every other storage
        failure.
        """
        for hook in self._statement_hooks:
            hook(sql)
        try:
            return self._connection.executemany(sql, rows)
        except sqlite3.Error as error:
            raise StorageError(f"SQL execution failed: {error}") from error

    @classmethod
    def from_database(cls, source: BaseDatabase, path: str = ":memory:") -> "SQLiteDatabase":
        """Copy an existing (e.g. in-memory) database into a SQLite engine.

        Facts are inserted in sorted order, not the source's set-iteration
        order, so copies built in different processes assign the same rowids
        to the same facts (string hashes are salted per process).
        """
        copy = cls(source.schema, path=path)
        for relation in source.relation_names():
            copy.insert_all(sorted(source.active_facts(relation), key=Fact.sort_key))
            for item in sorted(source.delta_facts(relation), key=Fact.sort_key):
                copy.mark_deleted(item)
        return copy

    def __repr__(self) -> str:
        return self.summary()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BaseDatabase):
            return NotImplemented
        return self.same_state_as(other)

    def __hash__(self) -> int:  # pragma: no cover
        raise TypeError("SQLiteDatabase instances are mutable and unhashable")

