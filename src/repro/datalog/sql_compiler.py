"""Compilation of delta-rule bodies to SQL for the SQLite backend.

The paper's prototype evaluates delta rules as SQL queries over PostgreSQL;
this module reproduces that code path on SQLite.  Every body atom becomes a
table alias in the ``FROM`` clause (the active table for base atoms, the delta
table for delta atoms), repeated variables become equality join conditions,
constants and comparison atoms become ``WHERE`` predicates, and the ``SELECT``
list pulls every aliased column plus the ``tid`` labels so that full
:class:`~repro.datalog.evaluation.Assignment` objects can be reconstructed.

Two compilation schemes are provided:

* :func:`compile_rule` — the naive scheme: one query per rule (one per
  source-table combination in hypothetical mode), used by the full
  re-evaluation oracle and by Algorithm 1's provenance build;
* :func:`compile_frontier_rule` — the semi-naive scheme: delta atoms read the
  generation-stamped frontier tables (``f_R``) and the rule is rewritten into
  one variant per delta atom.  The variant seeded at rank ``i`` joins that
  atom against the current frontier window (``gen > :lo AND gen <= :hi``),
  delta atoms of rank ``< i`` against the pre-frontier (``gen <= :lo``) and
  ranks ``> i`` against everything recorded (``gen <= :hi``), so each new
  assignment is enumerated exactly once per closure.

Every frontier variant carries three execution forms so the semi-naive driver
can evaluate its join **exactly once per round**:

* :attr:`FrontierQuery.install_sql` — fast path: ``INSERT OR IGNORE ...
  SELECT`` over the body join, installing the derived head facts directly
  inside SQLite.  Used when nothing observes the assignments: the body join
  runs once and no row crosses into Python;
* :attr:`FrontierQuery.staged_insert_sql` — staged path, step 1: the same
  body join with every projected column aliased ``s0..sN``, inserted into the
  **persistent keyed stage table** of the variant's width
  (:func:`~repro.storage.sqlite_backend.stage_table_name`), keyed by the
  variant's :attr:`~FrontierQuery.variant_id`.  The table is created once per
  connection (``SQLiteDatabase.ensure_stage_table``) and reused by every
  variant of the same width, so steady-state rounds issue **zero DDL** — the
  per-round cycle is ``DELETE`` (:attr:`~FrontierQuery.stage_delete_sql`) then
  ``INSERT ... SELECT``;
* :attr:`FrontierQuery.staged_install_sql` — staged path, step 2: the install
  re-expressed over the variant's staged rows, so observers (assignment
  collection, provenance builders, stage discovery) and the install both read
  the single join's output instead of re-running it.  Observers read the rows
  back via :attr:`~FrontierQuery.staged_rows_sql`.

Each statement embeds a ``/* repro:<class> */`` tag comment
(:data:`TAG_ASSIGN_SELECT` ...), which the query-counter hooks of
:meth:`~repro.storage.sqlite_backend.SQLiteDatabase.add_statement_hook` use to
assert the single-pass and zero-DDL disciplines from tests and benchmarks.

Frontier variants additionally come in two *lowerings*, selected per rule by
:func:`resolve_plan_kind` (mirroring the in-memory planner's plan kinds):
binary variants keep the comma join and leave ordering to SQLite's optimiser,
while wcoj variants — rules whose join hypergraph is cyclic — pin an explicit
multi-way join order with ``CROSS JOIN`` and ship covering-index DDL
(:attr:`FrontierQuery.wcoj_index_sql`) so each non-leading atom is entered
through a sorted equality prefix, the ordered-join shape of a generic join.
All wcoj statements carry the extra :data:`TAG_WCOJ` tag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Iterator, List, Tuple

from repro.datalog.ast import Atom, Comparison, Constant, Rule, Variable
from repro.datalog.planner import (
    PLAN_BINARY,
    PLAN_WCOJ,
    cyclic_core,
    env_forced_plan,
)
from repro.exceptions import EvaluationError
from repro.storage.facts import Fact
from repro.storage.sqlite_backend import (
    SQLiteDatabase,
    active_table,
    delta_table,
    frontier_table,
    stage_table_name,
)

_SQL_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Statement-tag comments embedded in compiled SQL, one per statement class.
#: Query-counter hooks grep for these to verify the single-pass (and, for the
#: keyed stage tables, zero-DDL) discipline.  ``TAG_STAGE`` marks the keyed
#: ``INSERT INTO _repro_stage_wN ... SELECT`` — one body *join* each;
#: ``TAG_STAGE_DELETE`` / ``TAG_STAGE_ROWS`` mark the per-round key cleanup
#: and the staged-row read-back, both plain scans of the stage table.
TAG_ASSIGN_SELECT = "/* repro:assign-select */"
TAG_STAGE = "/* repro:stage */"
TAG_STAGE_DELETE = "/* repro:stage-delete */"
TAG_STAGE_ROWS = "/* repro:stage-rows */"
TAG_INSTALL_DIRECT = "/* repro:install-direct */"
TAG_INSTALL_STAGED = "/* repro:install-staged */"

#: Extra tag carried by every statement of a wcoj-lowered variant — the join
#: statements *in addition to* their class tag, and the covering-index DDL of
#: :attr:`FrontierQuery.wcoj_index_sql` on its own.  Statement hooks count it
#: to assert which plan kind a run's SQL actually executed.
TAG_WCOJ = "/* repro:wcoj */"

#: Process-wide allocator of :attr:`FrontierQuery.variant_id` keys.  Ids are
#: assigned at compile time and never reused, so two live variants can never
#: collide in a shared stage table.  A rule evicted from the ``lru_cache``
#: and recompiled gets a *fresh* id; the only cost is that rows a caller
#: abandoned mid-iteration under the old id stop being reclaimed by that
#: variant's pre-insert DELETE (completed runs always delete their rows, and
#: per-context caches pin variants against eviction for a context's
#: lifetime).
_variant_ids = itertools.count(1)


@dataclass(frozen=True)
class CompiledRule:
    """The SQL form of a rule body.

    Attributes
    ----------
    sql:
        A ``SELECT`` statement whose result rows contain, for each body atom
        ``i`` (in body order), its value columns followed by its ``tid``.
    params:
        Bind parameters for the constant predicates.
    atom_arities:
        The arity of each body atom, used to slice result rows back into facts.
    """

    sql: str
    params: tuple[Any, ...]
    atom_arities: tuple[int, ...]


def compile_rule(
    rule: Rule,
    hypothetical_deltas: bool = False,
) -> List[CompiledRule]:
    """Compile ``rule`` into one or more SQL queries.

    In hypothetical mode a delta atom may range over both the active and the
    delta table of its relation; the compiler then emits one query per
    combination of source tables (the union of their results is the assignment
    set).  In normal mode exactly one query is produced.
    """
    delta_positions = [index for index, atom in enumerate(rule.body) if atom.is_delta]
    source_choices: List[Dict[int, str]] = [{}]
    if hypothetical_deltas and delta_positions:
        source_choices = []
        for mask in range(2 ** len(delta_positions)):
            choice = {}
            for bit, position in enumerate(delta_positions):
                choice[position] = "active" if (mask >> bit) & 1 else "delta"
            source_choices.append(choice)

    compiled = []
    for choice in source_choices:
        compiled.append(_compile_single(rule, choice))
    return compiled


def _table_for(atom: Atom, index: int, choice: Dict[int, str]) -> str:
    if atom.is_delta:
        source = choice.get(index, "delta")
        if source == "active":
            return active_table(atom.relation)
        return delta_table(atom.relation)
    return active_table(atom.relation)


def _compile_single(rule: Rule, choice: Dict[int, str]) -> CompiledRule:
    aliases = [f"a{i}" for i in range(len(rule.body))]
    select_parts: List[str] = []
    from_parts: List[str] = []
    where: List[str] = []
    params: List[Any] = []
    arities: List[int] = []

    # First column reference of every variable, for join conditions and
    # comparison predicates.
    variable_column: Dict[str, str] = {}

    for index, atom in enumerate(rule.body):
        alias = aliases[index]
        from_parts.append(f"{_table_for(atom, index, choice)} AS {alias}")
        arities.append(atom.arity)
        for position in range(atom.arity):
            select_parts.append(f"{alias}.c{position}")
        select_parts.append(f"{alias}.tid")
        for position, term in enumerate(atom.terms):
            column = f"{alias}.c{position}"
            if isinstance(term, Constant):
                where.append(f"{column} = ?")
                params.append(term.value)
            else:
                assert isinstance(term, Variable)
                if term.name in variable_column:
                    where.append(f"{column} = {variable_column[term.name]}")
                else:
                    variable_column[term.name] = column

    for comparison in rule.comparisons:
        where.append(_compile_comparison(comparison, variable_column, params, rule))

    sql = (
        f"{TAG_ASSIGN_SELECT} SELECT {', '.join(select_parts)} "
        f"FROM {', '.join(from_parts)}"
    )
    if where:
        sql += " WHERE " + " AND ".join(where)
    return CompiledRule(sql, tuple(params), tuple(arities))


def _compile_comparison(
    comparison: Comparison,
    variable_column: Dict[str, str],
    params: List[Any],
    rule: Rule,
) -> str:
    def operand(term: Any) -> str:
        if isinstance(term, Variable):
            if term.name not in variable_column:
                raise EvaluationError(
                    f"rule {rule.display_name()}: comparison variable {term.name!r} "
                    "does not occur in any body atom",
                )
            return variable_column[term.name]
        assert isinstance(term, Constant)
        params.append(term.value)
        return "?"

    left = operand(comparison.lhs)
    right = operand(comparison.rhs)
    return f"{left} {_SQL_OPS[comparison.op]} {right}"


# ---------------------------------------------------------------------------
# Semi-naive (frontier-window) compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierQuery:
    """One delta-rewritten variant of a rule for the semi-naive SQL engine.

    The query and install statement use named placeholders: ``:lo`` / ``:hi``
    bound to the frontier generation window at execution time, ``:gen`` (in
    ``install_sql`` only) to the generation stamping this round's new facts,
    and ``:kN`` to the rule's constants (pre-bound in :attr:`params`).

    Attributes
    ----------
    sql:
        ``SELECT`` enumerating the variant's assignments (per-atom value
        columns + ``tid``, in body order — same row shape as
        :class:`CompiledRule`).  The semi-naive driver itself never runs this
        (it reads the staged rows instead); it remains the re-SELECT oracle
        for the staging regression tests and external callers.
    install_sql:
        Fast path: ``INSERT OR IGNORE INTO f_H ... SELECT DISTINCT <head>,
        NULL, :gen`` over the body join, installing the derived head facts
        into the head relation's frontier table without leaving SQLite.
    staged_insert_sql:
        The body join with every projected column aliased ``s0..sN``,
        inserted into the keyed stage table of this variant's width under
        ``:variant`` (pre-bound to :attr:`variant_id`).  One body join per
        execution; the table itself persists across rounds and runs.
    staged_rows_sql:
        Read-back of this variant's staged rows (a keyed scan, no join).
    stage_delete_sql:
        Per-round cleanup of this variant's key in the stage table.
    staged_install_sql:
        The install re-expressed over the variant's staged rows (a keyed scan
        of the stage table, no base-table join).
    params:
        The pre-bound parameters, as ``(name, value)`` pairs: the rule's
        constants (``kN``) plus the stage key (``variant``).
    atom_arities:
        Arity of each body atom, for row-to-assignment reconstruction.
    seed:
        Body index of the frontier-seeded delta atom, or None for the
        round-1 full variant.
    seed_relation:
        Relation of the seed atom (None for the full variant); the driver
        skips a variant when that relation's frontier is empty.
    stage_table:
        Name of the keyed stage table this variant stages into (shared by
        every variant of the same :attr:`stage_width`).
    stage_width:
        Number of projected (staged) columns of the body join.
    variant_id:
        The variant's key into :attr:`stage_table` (process-wide unique).
    plan_kind:
        The lowering this variant was compiled under (``"binary"`` comma
        join or ``"wcoj"`` ordered ``CROSS JOIN``); see
        :func:`resolve_plan_kind`.
    wcoj_index_sql:
        For wcoj variants, the ``CREATE INDEX IF NOT EXISTS`` statements
        (tagged :data:`TAG_WCOJ`) backing every non-leading atom of the
        explicit join order with a covering index — equality-bound columns
        first, the ``gen`` window next for frontier tables, then the covered
        remainder and ``tid``.  Drivers run them once per connection via
        :meth:`~repro.storage.sqlite_backend.SQLiteDatabase.ensure_wcoj_indexes`
        before the variant's first execution.  Empty for binary variants.
    """

    sql: str
    install_sql: str
    staged_insert_sql: str
    staged_rows_sql: str
    stage_delete_sql: str
    staged_install_sql: str
    params: tuple[tuple[str, Any], ...]
    atom_arities: tuple[int, ...]
    seed: int | None
    seed_relation: str | None
    stage_table: str
    stage_width: int
    variant_id: int
    plan_kind: str = PLAN_BINARY
    wcoj_index_sql: tuple[str, ...] = ()

    def bind(self, **window: int) -> Dict[str, Any]:
        """The full parameter mapping for one execution of the variant."""
        return {**dict(self.params), **window}


def resolve_plan_kind(rule: Rule) -> str:
    """Plan kind the SQL lowering uses for ``rule``.

    The SQL compiler runs ahead of any live cardinalities, so the decision is
    structural where the in-memory :class:`~repro.datalog.planner.JoinPlanner`
    is cost-based: a rule whose join hypergraph keeps a cyclic core under GYO
    reduction (:func:`~repro.datalog.planner.cyclic_core`) lowers to the wcoj
    form, acyclic rules to the binary comma join.  ``REPRO_FORCE_PLAN``
    overrides the structural choice exactly as it does in the planner; rules
    with fewer than two body atoms have no join and are always binary.
    """
    if len(rule.body) < 2:
        return PLAN_BINARY
    forced = env_forced_plan()
    if forced is not None:
        return forced
    return PLAN_WCOJ if cyclic_core(rule) else PLAN_BINARY


def compile_frontier_rule(
    rule: Rule, plan_kind: str | None = None,
) -> tuple[FrontierQuery, tuple[FrontierQuery, ...]]:
    """Compile ``rule`` for the semi-naive engine.

    Returns ``(full, seeded)``: the round-1 variant whose delta atoms all read
    ``gen <= :hi``, plus one frontier-seeded variant per delta atom (empty for
    rules without delta atoms, which can only fire in round 1).

    ``plan_kind`` selects the lowering (``"binary"`` comma join vs ``"wcoj"``
    ordered ``CROSS JOIN``); None resolves it via :func:`resolve_plan_kind`.
    Both kinds are cached independently, so a context that re-decides a rule's
    kind at a round boundary swaps variants without recompiling.
    """
    if plan_kind is None:
        plan_kind = resolve_plan_kind(rule)
    elif plan_kind == PLAN_WCOJ and len(rule.body) < 2:
        plan_kind = PLAN_BINARY
    return _compile_frontier_rule_cached(rule, plan_kind)


@lru_cache(maxsize=1024)
def _compile_frontier_rule_cached(
    rule: Rule, kind: str,
) -> tuple[FrontierQuery, tuple[FrontierQuery, ...]]:
    full = _compile_frontier_variant(rule, seed=None, kind=kind)
    seeded = tuple(
        _compile_frontier_variant(rule, seed=index, kind=kind)
        for index, atom in enumerate(rule.body)
        if atom.is_delta
    )
    return full, seeded


def _wcoj_join_order(rule: Rule, seed: int | None) -> List[int]:
    """Explicit multi-way join order for the wcoj lowering.

    Starts at the seed atom (the frontier window is the outermost loop, as on
    the binary path) or at the first body atom for the full variant, then
    greedily appends the atom sharing the most already-bound variables —
    ties broken towards cyclic-core atoms, then body order — so every later
    table is entered through the equality prefix its covering index sorts on.
    """
    body = rule.body
    core = set(cyclic_core(rule))
    start = seed if seed is not None else 0
    order = [start]
    bound = set(body[start].variable_names())
    remaining = [index for index in range(len(body)) if index != start]
    while remaining:
        best = min(
            remaining,
            key=lambda index: (
                -len(bound & body[index].variable_names()),
                0 if index in core else 1,
                index,
            ),
        )
        order.append(best)
        bound |= set(body[best].variable_names())
        remaining.remove(best)
    return order


def _compile_frontier_variant(
    rule: Rule, seed: int | None, kind: str = PLAN_BINARY,
) -> FrontierQuery:
    delta_positions = [index for index, atom in enumerate(rule.body) if atom.is_delta]
    seed_rank = delta_positions.index(seed) if seed is not None else None

    select_parts: List[str] = []
    from_parts: List[str] = []
    where: List[str] = []
    params: List[tuple[str, Any]] = []
    arities: List[int] = []
    variable_column: Dict[str, str] = {}
    #: Staged alias (``sN``) of every projected ``aI.cJ`` / ``aI.tid`` column.
    staged_column: Dict[str, str] = {}

    def project(expression: str) -> None:
        staged_column[expression] = f"s{len(select_parts)}"
        select_parts.append(expression)

    def constant_param(value: Any) -> str:
        name = f"k{len(params)}"
        params.append((name, value))
        return f":{name}"

    for index, atom in enumerate(rule.body):
        alias = f"a{index}"
        arities.append(atom.arity)
        if atom.is_delta:
            from_parts.append(f"{frontier_table(atom.relation)} AS {alias}")
            rank = delta_positions.index(index)
            if seed_rank is None:
                where.append(f"{alias}.gen <= :hi")
            elif rank == seed_rank:
                where.append(f"{alias}.gen > :lo AND {alias}.gen <= :hi")
            elif rank < seed_rank:
                where.append(f"{alias}.gen <= :lo")
            else:
                where.append(f"{alias}.gen <= :hi")
        else:
            from_parts.append(f"{active_table(atom.relation)} AS {alias}")
        for position in range(atom.arity):
            project(f"{alias}.c{position}")
        project(f"{alias}.tid")
        for position, term in enumerate(atom.terms):
            column = f"{alias}.c{position}"
            if isinstance(term, Constant):
                where.append(f"{column} = {constant_param(term.value)}")
            else:
                assert isinstance(term, Variable)
                if term.name in variable_column:
                    where.append(f"{column} = {variable_column[term.name]}")
                else:
                    variable_column[term.name] = column

    for comparison in rule.comparisons:
        def operand(term: Any) -> str:
            if isinstance(term, Variable):
                if term.name not in variable_column:
                    raise EvaluationError(
                        f"rule {rule.display_name()}: comparison variable "
                        f"{term.name!r} does not occur in any body atom",
                    )
                return variable_column[term.name]
            assert isinstance(term, Constant)
            return constant_param(term.value)

        where.append(
            f"{operand(comparison.lhs)} {_SQL_OPS[comparison.op]} "
            f"{operand(comparison.rhs)}",
        )

    # The wcoj lowering pins an explicit multi-way join order with CROSS JOIN
    # (SQLite keeps the written order for CROSS JOIN) and backs every
    # non-leading atom with a covering index whose prefix is exactly the
    # columns equality-bound by the time the atom is entered — the multi-way
    # ordered-join shape of a generic join.  Binary variants keep the comma
    # join and leave the order to SQLite's optimiser.
    wcoj_index_sql: tuple[str, ...] = ()
    wcoj_tag = ""
    if kind == PLAN_WCOJ:
        wcoj_tag = f" {TAG_WCOJ}"
        join_order = _wcoj_join_order(rule, seed)
        from_sql = " CROSS JOIN ".join(from_parts[index] for index in join_order)
        indexes: List[str] = []
        bound_vars = set(rule.body[join_order[0]].variable_names())
        for index in join_order[1:]:
            atom = rule.body[index]
            table = (
                frontier_table(atom.relation)
                if atom.is_delta
                else active_table(atom.relation)
            )
            eq_positions: List[int] = []
            rest_positions: List[int] = []
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant) or term.name in bound_vars:
                    eq_positions.append(position)
                else:
                    rest_positions.append(position)
            columns = [f"c{position}" for position in eq_positions]
            if atom.is_delta:
                # The gen window is a range predicate: it sorts after the
                # equality prefix, ahead of the covered remainder.
                columns.append("gen")
            columns.extend(f"c{position}" for position in rest_positions)
            columns.append("tid")
            name = f"wcoj_{table}__{'_'.join(columns)}"
            indexes.append(
                f"{TAG_WCOJ} CREATE INDEX IF NOT EXISTS {name} "
                f"ON {table} ({', '.join(columns)})",
            )
            bound_vars |= set(atom.variable_names())
        wcoj_index_sql = tuple(dict.fromkeys(indexes))
    else:
        from_sql = ", ".join(from_parts)

    where_sql = (" WHERE " + " AND ".join(where)) if where else ""
    body_sql = f"FROM {from_sql}{where_sql}"
    sql = f"{TAG_ASSIGN_SELECT}{wcoj_tag} SELECT {', '.join(select_parts)} {body_sql}"

    variant_id = next(_variant_ids)
    stage_width = len(select_parts)
    stage_table = stage_table_name(stage_width)
    staged_columns = ", ".join(staged_column[expr] for expr in select_parts)
    staged_insert_sql = (
        f"{TAG_STAGE}{wcoj_tag} INSERT INTO {stage_table} "
        f"(variant_id, {staged_columns}) "
        f"SELECT :variant, {', '.join(select_parts)} {body_sql}"
    )
    staged_rows_sql = (
        f"{TAG_STAGE_ROWS} SELECT {staged_columns} FROM {stage_table} "
        "WHERE variant_id = :variant"
    )
    stage_delete_sql = (
        f"{TAG_STAGE_DELETE} DELETE FROM {stage_table} WHERE variant_id = :variant"
    )

    head_exprs: List[str] = []
    staged_head_exprs: List[str] = []
    for term in rule.head.terms:
        if isinstance(term, Variable):
            if term.name not in variable_column:
                raise EvaluationError(
                    f"rule {rule.display_name()}: head variable {term.name!r} "
                    "is unbound",
                )
            column = variable_column[term.name]
            head_exprs.append(column)
            staged_head_exprs.append(staged_column[column])
        else:
            assert isinstance(term, Constant)
            placeholder = constant_param(term.value)
            head_exprs.append(placeholder)
            staged_head_exprs.append(placeholder)
    head_columns = ", ".join(
        [*(f"c{i}" for i in range(rule.head.arity)), "tid", "gen"],
    )
    install_into = (
        f"INSERT OR IGNORE INTO {frontier_table(rule.head.relation)} "
        f"({head_columns}) "
    )
    install_sql = (
        f"{TAG_INSTALL_DIRECT}{wcoj_tag} {install_into}"
        f"SELECT DISTINCT {', '.join(head_exprs)}, NULL, :gen {body_sql}"
    )
    staged_install_sql = (
        f"{TAG_INSTALL_STAGED} {install_into}"
        f"SELECT DISTINCT {', '.join(staged_head_exprs)}, NULL, :gen "
        f"FROM {stage_table} WHERE variant_id = :variant"
    )

    seed_atom = rule.body[seed] if seed is not None else None
    return FrontierQuery(
        sql=sql,
        install_sql=install_sql,
        staged_insert_sql=staged_insert_sql,
        staged_rows_sql=staged_rows_sql,
        stage_delete_sql=stage_delete_sql,
        staged_install_sql=staged_install_sql,
        params=(*params, ("variant", variant_id)),
        atom_arities=tuple(arities),
        seed=seed,
        seed_relation=seed_atom.relation if seed_atom is not None else None,
        stage_table=stage_table,
        stage_width=stage_width,
        variant_id=variant_id,
        plan_kind=kind,
        wcoj_index_sql=wcoj_index_sql,
    )


def delta_copy_sql(relation: str, arity: int) -> str:
    """Statement promoting one generation of frontier rows into the delta table.

    Run after a round's installs with the same ``:gen`` so that ``d_R`` keeps
    mirroring ``f_R`` (the generic delta extent never lags the frontier).
    """
    columns = ", ".join([*(f"c{i}" for i in range(arity)), "tid"])
    return (
        f"INSERT OR IGNORE INTO {delta_table(relation)} ({columns}) "
        f"SELECT {columns} FROM {frontier_table(relation)} WHERE gen = :gen"
    )


# ---------------------------------------------------------------------------
# Row → Assignment reconstruction (shared by the naive and semi-naive paths)
# ---------------------------------------------------------------------------


def assignments_from_rows(
    rule: Rule, atom_arities: Tuple[int, ...], rows: Iterator[tuple],
) -> Iterator["Assignment"]:
    """Rebuild :class:`~repro.datalog.evaluation.Assignment` objects from rows.

    Each row holds, per body atom in body order, the atom's value columns
    followed by its ``tid``.  Repeated-variable consistency is re-checked in
    Python as a guard against SQLite's type-affinity coercions.
    """
    from repro.datalog.evaluation import Assignment, ground_head

    for row in rows:
        used = []
        bindings: Dict[str, Any] = {}
        offset = 0
        valid = True
        for atom, arity in zip(rule.body, atom_arities):
            values = tuple(row[offset : offset + arity])
            tid = row[offset + arity]
            offset += arity + 1
            item = Fact(atom.relation, values, tid=tid)
            used.append((atom, item))
            for term, value in zip(atom.terms, values):
                if isinstance(term, Variable):
                    if term.name in bindings and bindings[term.name] != value:
                        valid = False
                        break
                    bindings[term.name] = value
            if not valid:
                break
        if not valid:
            continue
        yield Assignment(
            rule=rule,
            bindings=tuple(sorted(bindings.items(), key=lambda kv: kv[0])),
            used=tuple(used),
            derived=ground_head(rule, bindings),
        )


def find_assignments_sql(
    db: SQLiteDatabase,
    rule: Rule,
    hypothetical_deltas: bool = False,
):
    """Evaluate ``rule`` over a SQLite-backed database via compiled SQL.

    Returns the same :class:`~repro.datalog.evaluation.Assignment` objects the
    in-memory evaluator produces (up to ordering), so the two backends are
    interchangeable for the semantics implementations.
    """
    assignments = []
    seen: set[tuple] = set()
    for compiled in compile_rule(rule, hypothetical_deltas=hypothetical_deltas):
        cursor = db.execute(compiled.sql, compiled.params)
        for assignment in assignments_from_rows(
            rule, compiled.atom_arities, cursor,
        ):
            signature = assignment.signature()
            if signature not in seen:
                seen.add(signature)
                assignments.append(assignment)
    return assignments
