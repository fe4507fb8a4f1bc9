"""Tests for the SQLite staging layer and its shared-context matrix.

Three groups:

* **keyed stage tables** — the SQLite staged path persists one temp table per
  variant width (``_repro_stage_wN`` with a ``variant_id`` key) instead of
  dropping and recreating ``_repro_stage`` per variant execution, so
  steady-state rounds issue zero DDL (no ``DROP TABLE``/``CREATE TEMP
  TABLE``);
* **staged stage-discovery** — with a shared context, stage-semantics
  discovery joins stage through the same keyed tables (covered in
  ``tests/test_sql_staging.py``; the matrix check here exercises it through
  :class:`~repro.core.repair.RepairEngine`);
* **matrix** — repeated ``repair_all()`` passes over one shared context, on
  both backends, match the naive oracle.
"""

from __future__ import annotations

from repro.core.repair import RepairEngine
from repro.core.semantics import Semantics
from repro.datalog import DeltaProgram, EvalContext, run_closure
from repro.datalog.sql_compiler import compile_frontier_rule
from repro.storage.facts import fact
from repro.storage.schema import RelationSchema, Schema
from repro.storage.sqlite_backend import SQLiteDatabase, stage_table_name

from tests.generators import random_instance


def ddl_counter(db: SQLiteDatabase) -> dict:
    """Hook counting stage DDL and (forbidden) drop/create-per-round statements."""
    counts = {"drop": 0, "create_temp": 0}

    def hook(sql: str) -> None:
        if "DROP TABLE" in sql:
            counts["drop"] += 1
        if "CREATE TEMP TABLE" in sql:
            counts["create_temp"] += 1

    db.add_statement_hook(hook)
    return counts


def cascade_fixture():
    schema = Schema.from_relations(
        [RelationSchema.of("R", "x:int", "y:str"), RelationSchema.of("S", "x:int")],
    )
    db = SQLiteDatabase(schema)
    db.insert_all(
        [fact("R", 1, "a", tid="r1"), fact("R", 2, "b", tid="r2"), fact("S", 1, tid="s1")],
    )
    program = DeltaProgram.from_text(
        """
        delta R(x, y) :- R(x, y), S(x).
        delta S(x) :- S(x), delta R(x, y).
        delta R(x, y) :- R(x, y), delta S(x).
        """,
    )
    return db, program


class TestKeyedStageTables:
    def test_staged_run_issues_ddl_once_then_steady_state_zero(self):
        db, program = cascade_fixture()
        counts = ddl_counter(db)
        ctx = EvalContext()
        result = run_closure(db, program, engine="semi-naive", context=ctx)
        assert result.rounds == 3
        # The multi-round staged run created each width's table exactly once
        # (no DROP ever) while staging many more joins than DDL batches.
        assert counts["drop"] == 0
        assert counts["create_temp"] == ctx.stats.stage_ddl > 0
        assert ctx.stats.staged_selects > ctx.stats.stage_ddl
        # Steady state: a second closure on the same connection reuses the
        # tables — staging happens, DDL does not.
        steady = ddl_counter(db)
        again = run_closure(db, program, engine="semi-naive", context=ctx)
        assert again.rounds >= 1
        assert steady["drop"] == steady["create_temp"] == 0
        assert ctx.stats.staged_selects > 0

    def test_one_table_per_distinct_width(self):
        schema = Schema.from_arities({"A": 1, "B": 2, "C": 3})
        db = SQLiteDatabase(schema)
        db.insert_all([fact("A", 1), fact("B", 1, 2), fact("C", 1, 2, 3)])
        program = DeltaProgram.from_text(
            """
            delta A(x) :- A(x).
            delta B(x, y) :- B(x, y), delta A(x).
            delta C(x, y, z) :- C(x, y, z), delta A(x).
            """,
        )
        widths = set()
        for rule in program:
            full, seeded = compile_frontier_rule(rule)
            for variant in (full, *seeded):
                widths.add(variant.stage_width)
                assert variant.stage_table == stage_table_name(variant.stage_width)
        assert len(widths) > 1
        counts = ddl_counter(db)
        ctx = EvalContext()
        run_closure(db, program, engine="semi-naive", context=ctx)
        assert counts["drop"] == 0
        # One CREATE TEMP TABLE per distinct width actually staged, at most.
        assert 0 < counts["create_temp"] <= len(widths)
        assert ctx.stats.stage_ddl == counts["create_temp"]

    def test_variant_ids_are_unique_and_prebound(self):
        program = DeltaProgram.from_text(
            """
            delta R(x) :- R(x), S(x).
            delta S(x) :- S(x), delta R(x).
            """,
        )
        seen_ids = set()
        for rule in program:
            full, seeded = compile_frontier_rule(rule)
            for variant in (full, *seeded):
                assert variant.variant_id not in seen_ids
                seen_ids.add(variant.variant_id)
                assert variant.bind()["variant"] == variant.variant_id
                assert "variant_id = :variant" in variant.staged_install_sql

    def test_stage_tables_left_empty_after_runs(self):
        # A finished run must not leave rows behind in the persistent tables
        # (they live for the whole connection, in memory).
        db, program = cascade_fixture()
        ctx = EvalContext()
        run_closure(db, program, engine="semi-naive", context=ctx)
        widths = set()
        for rule in program:
            full, seeded = ctx.frontier_variants(rule)
            for variant in (full, *seeded):
                widths.add(variant.stage_width)
        for width in widths:
            rows = db.execute(
                f"SELECT COUNT(*) FROM {stage_table_name(width)}",
            ).fetchone()
            assert rows[0] == 0, width
        # Staged discovery (observer-bearing context) cleans up after itself
        # too; it runs on the clone stage semantics returns as the repaired
        # database.
        from repro.core.semantics import stage_semantics

        ctx.add_observer(lambda assignment: None)
        result = stage_semantics(db, program, context=ctx)
        assert result.deleted
        repaired = result.repaired
        staged_tables = 0
        for width in widths:
            exists = repaired.execute(
                "SELECT name FROM sqlite_temp_master WHERE name = ?",
                (stage_table_name(width),),
            ).fetchone()
            if exists is None:
                continue
            staged_tables += 1
            rows = repaired.execute(
                f"SELECT COUNT(*) FROM {stage_table_name(width)}",
            ).fetchone()
            assert rows[0] == 0, width
        assert staged_tables > 0

    def test_keyed_staging_matches_fast_path_fixpoint(self):
        db, program = cascade_fixture()
        staged_db, fast_db = db.clone(), db.clone()
        staged = run_closure(staged_db, program, engine="semi-naive")
        fast = run_closure(
            fast_db, program, engine="semi-naive", collect_assignments=False,
        )
        assert staged.rounds == fast.rounds
        assert set(staged_db.all_deltas()) == set(fast_db.all_deltas())


class TestAdaptiveMatrixStaysGreen:
    def test_repair_engine_shared_context_matches_naive_oracle(self):
        for seed in range(6):
            memory, program = random_instance(seed, max_facts=20)
            sqlite = SQLiteDatabase.from_database(memory)
            oracle = RepairEngine(memory, program, engine="naive").repair_all()
            for backend_db in (memory, sqlite):
                engine = RepairEngine(backend_db, program)
                # Two passes over one shared context: the second exercises the
                # steady-state keyed stage tables and the cached plans.
                for _ in range(2):
                    results = engine.repair_all()
                    for member in Semantics:
                        if member is Semantics.INDEPENDENT:
                            # Min-Ones tie-breaking is legitimately unstable;
                            # sizes must still agree.
                            assert results[member].size == oracle[member].size, seed
                        else:
                            assert (
                                results[member].deleted == oracle[member].deleted
                            ), (seed, member)
