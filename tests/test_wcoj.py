"""Worst-case-optimal join path: classifier, tries, driver, SQL lowering.

Covers the four layers the wcoj feature spans:

* plan-kind classification (GYO cyclic core, AGM-vs-binary costing, the
  ``REPRO_FORCE_PLAN`` override, and the guarantee that the paper's acyclic
  MAS / TPC-H programs never leave the binary path);
* the per-position tries of :class:`repro.storage.indexes.RelationIndex`
  (lazy build, incremental maintenance, interior-node pruning);
* the in-memory generic-join driver against the naive oracle (full and
  seeded enumeration, stats counters);
* the SQLite lowering (``CROSS JOIN``-pinned ordered joins, the
  ``/* repro:wcoj */`` statement tag, covering-index DDL idempotence) and
  the benchmark's baseline gate (loud missing-column warning, absolute
  wcoj-speedup floor).

Every test neutralises an inherited ``REPRO_FORCE_PLAN`` first (the CI
differential passes export it), then sets it explicitly where forcing is the
behaviour under test.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.datalog.context import EvalContext
from repro.datalog.evaluation import find_assignments, run_closure
from repro.datalog.parser import parse_rule
from repro.datalog.planner import (
    PLAN_BINARY,
    PLAN_ENV,
    PLAN_WCOJ,
    JoinPlanner,
    cyclic_core,
)
from repro.datalog.sql_compiler import (
    TAG_WCOJ,
    compile_frontier_rule,
    resolve_plan_kind,
)
from repro.storage.facts import Fact
from repro.storage.indexes import RelationIndex
from repro.storage.sqlite_backend import SQLiteDatabase
from repro.workloads.cyclic import (
    generate_cyclic,
    mutual_recursion_program,
    triangle_program,
)
from repro.workloads.mas import generate_mas
from repro.workloads.programs_mas import mas_programs
from repro.workloads.programs_tpch import tpch_programs
from repro.workloads.tpch import generate_tpch

from tests.generators import random_torture_spec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench_fixpoint import (  # noqa: E402
    WCOJ_GATE_SPEEDUP,
    check_against_baseline,
)

TRIANGLE = "delta Edge(x, y) :- Edge(x, y), Edge(y, z), Edge(z, x)."


@pytest.fixture(autouse=True)
def _no_inherited_forced_plan(monkeypatch):
    """The CI differential passes export REPRO_FORCE_PLAN; this suite tests
    both kinds explicitly, so an inherited knob must not leak in."""
    monkeypatch.delenv(PLAN_ENV, raising=False)


@pytest.fixture
def cyclic():
    return generate_cyclic(scale=1.0, seed=3)


# ---------------------------------------------------------------------------
# Plan-kind classification
# ---------------------------------------------------------------------------


class TestCyclicCore:
    def test_triangle_core_is_the_whole_body(self):
        rule = parse_rule(TRIANGLE)
        assert cyclic_core(rule) == (0, 1, 2)

    def test_guarded_chain_is_acyclic(self):
        rule = parse_rule("delta Edge(x, y) :- Edge(x, y), Edge(y, z), A(z, w).")
        assert cyclic_core(rule) == ()

    def test_four_clique_core_survives(self):
        rule = parse_rule(
            "delta Edge(x, y) :- Edge(x, y), Edge(y, z), Edge(z, w), "
            "Edge(w, x), Edge(x, z), Edge(y, w).",
        )
        assert len(cyclic_core(rule)) == 6


class TestClassifier:
    def test_triangle_classifies_wcoj(self, cyclic):
        plan = JoinPlanner(cyclic.db).plan(parse_rule(TRIANGLE))
        assert plan.kind == PLAN_WCOJ
        assert plan.width == pytest.approx(1.5)
        assert set(plan.var_order) == {"x", "y", "z"}

    def test_single_atom_rule_stays_binary(self, cyclic):
        plan = JoinPlanner(cyclic.db).plan(parse_rule("delta Edge(x, y) :- Edge(x, y)."))
        assert plan.kind == PLAN_BINARY

    def test_hypothetical_plans_stay_binary_even_forced(self, cyclic, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, PLAN_WCOJ)
        plan = JoinPlanner(cyclic.db).plan(parse_rule(TRIANGLE), hypothetical=True)
        assert plan.kind == PLAN_BINARY

    def test_forced_binary_overrides_cyclic_core(self, cyclic, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, PLAN_BINARY)
        plan = JoinPlanner(cyclic.db).plan(parse_rule(TRIANGLE))
        assert plan.kind == PLAN_BINARY

    def test_forced_wcoj_overrides_acyclic_body(self, cyclic, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, PLAN_WCOJ)
        rule = parse_rule("delta Edge(x, y) :- Edge(x, y), A(y, z).")
        plan = JoinPlanner(cyclic.db).plan(rule)
        assert plan.kind == PLAN_WCOJ

    def test_mas_programs_stay_binary(self):
        dataset = generate_mas(scale=0.5)
        planner = JoinPlanner(dataset.db)
        for name, program in mas_programs(dataset).items():
            for rule in program.rules:
                assert planner.plan(rule).kind == PLAN_BINARY, (name, rule)

    def test_tpch_programs_stay_binary(self):
        dataset = generate_tpch(scale=0.5)
        planner = JoinPlanner(dataset.db)
        for name, program in tpch_programs(dataset).items():
            for rule in program.rules:
                assert planner.plan(rule).kind == PLAN_BINARY, (name, rule)


# ---------------------------------------------------------------------------
# Per-position tries
# ---------------------------------------------------------------------------


class TestRelationTries:
    def facts(self):
        return [
            Fact("R", (1, 10), tid="t0"),
            Fact("R", (1, 20), tid="t1"),
            Fact("R", (2, 10), tid="t2"),
        ]

    def test_trie_nests_positions_in_requested_order(self):
        index = RelationIndex(self.facts())
        trie = index.trie((0, 1))
        assert set(trie) == {1, 2}
        assert set(trie[1]) == {10, 20}
        assert trie[2][10] == Fact("R", (2, 10))
        reversed_trie = index.trie((1, 0))
        assert set(reversed_trie) == {10, 20}
        assert set(reversed_trie[10]) == {1, 2}

    def test_built_tries_are_maintained_incrementally(self):
        index = RelationIndex(self.facts())
        trie = index.trie((0, 1))
        index.add(Fact("R", (3, 30), tid="t3"))
        assert trie[3][30] == Fact("R", (3, 30))
        index.discard(Fact("R", (3, 30)))
        assert 3 not in trie  # empty interior nodes are pruned

    def test_discard_keeps_sibling_entries(self):
        index = RelationIndex(self.facts())
        trie = index.trie((0, 1))
        index.discard(Fact("R", (1, 10)))
        assert set(trie[1]) == {20}

    def test_clear_drops_tries(self):
        index = RelationIndex(self.facts())
        index.trie((0, 1))
        index.clear()
        assert index.trie((0, 1)) == {}

    def test_copy_rebuilds_tries_from_scratch(self):
        index = RelationIndex(self.facts())
        original = index.trie((0, 1))
        duplicate = index.copy()
        rebuilt = duplicate.trie((0, 1))
        assert rebuilt is not original
        duplicate.add(Fact("R", (9, 90), tid="t9"))
        assert 9 not in original


# ---------------------------------------------------------------------------
# Generic-join driver vs the oracle
# ---------------------------------------------------------------------------


class TestDriverOracle:
    def test_full_enumeration_matches_unplanned_search(self, cyclic, monkeypatch):
        rule = parse_rule(TRIANGLE)
        oracle = {a.signature() for a in find_assignments(cyclic.db, rule)}
        monkeypatch.setenv(PLAN_ENV, PLAN_WCOJ)
        planner = JoinPlanner(cyclic.db)
        assert planner.plan(rule).kind == PLAN_WCOJ
        wcoj = find_assignments(cyclic.db, rule, planner=planner)
        signatures = [a.signature() for a in wcoj]
        assert set(signatures) == oracle
        assert len(set(signatures)) == len(signatures)

    @pytest.mark.parametrize("program_name", ["triangle", "mutual"])
    def test_closure_matches_naive_oracle_both_kinds(
        self, cyclic, monkeypatch, program_name,
    ):
        program = (
            triangle_program()
            if program_name == "triangle"
            else mutual_recursion_program(cyclic.hub)
        )
        oracle_db = cyclic.fresh_db()
        oracle = run_closure(oracle_db, program, engine="naive")
        oracle_deltas = set(oracle_db.all_deltas())
        oracle_sigs = {a.signature() for a in oracle.assignments}
        for kind in (PLAN_BINARY, PLAN_WCOJ):
            monkeypatch.setenv(PLAN_ENV, kind)
            db = cyclic.fresh_db()
            closure = run_closure(db, program, engine="semi-naive")
            assert set(db.all_deltas()) == oracle_deltas, kind
            assert {a.signature() for a in closure.assignments} == oracle_sigs, kind

    @pytest.mark.parametrize("seed", range(6))
    def test_random_cyclic_specs_agree_across_kinds(self, monkeypatch, seed):
        spec = random_torture_spec(random.Random(seed), cyclic_rate=1.0)
        memory, program = spec.build()
        oracle_db = memory.clone()
        run_closure(oracle_db, program, engine="naive", max_rounds=200)
        oracle_deltas = set(oracle_db.all_deltas())
        for kind in (PLAN_BINARY, PLAN_WCOJ):
            monkeypatch.setenv(PLAN_ENV, kind)
            db = memory.clone()
            run_closure(db, program, engine="semi-naive", max_rounds=200)
            assert set(db.all_deltas()) == oracle_deltas, (seed, kind)

    def test_stats_counters_surface_through_context(self, cyclic):
        ctx = EvalContext()
        run_closure(cyclic.fresh_db(), triangle_program(), engine="semi-naive", context=ctx)
        assert ctx.stats.width_estimates > 0
        assert ctx.stats.wcoj_rules > 0
        assert ctx.stats.wcoj_intersections > 0

    def test_binary_run_counts_no_wcoj_rules(self, cyclic, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, PLAN_BINARY)
        ctx = EvalContext()
        run_closure(cyclic.fresh_db(), triangle_program(), engine="semi-naive", context=ctx)
        assert ctx.stats.wcoj_rules == 0
        assert ctx.stats.wcoj_intersections == 0
        assert ctx.stats.width_estimates > 0


# ---------------------------------------------------------------------------
# SQLite lowering
# ---------------------------------------------------------------------------


class TestSQLLowering:
    def test_resolve_plan_kind_structural(self, monkeypatch):
        triangle = parse_rule(TRIANGLE)
        acyclic = parse_rule("delta Edge(x, y) :- Edge(x, y), A(y, z).")
        single = parse_rule("delta Edge(x, y) :- Edge(x, y).")
        assert resolve_plan_kind(triangle) == PLAN_WCOJ
        assert resolve_plan_kind(acyclic) == PLAN_BINARY
        assert resolve_plan_kind(single) == PLAN_BINARY
        monkeypatch.setenv(PLAN_ENV, PLAN_WCOJ)
        assert resolve_plan_kind(acyclic) == PLAN_WCOJ
        assert resolve_plan_kind(single) == PLAN_BINARY  # too short to force
        monkeypatch.setenv(PLAN_ENV, PLAN_BINARY)
        assert resolve_plan_kind(triangle) == PLAN_BINARY

    def test_wcoj_variant_pins_join_order(self):
        rule = parse_rule(TRIANGLE)
        full, seeded = compile_frontier_rule(rule, plan_kind=PLAN_WCOJ)
        assert full.plan_kind == PLAN_WCOJ
        assert "CROSS JOIN" in full.sql
        assert TAG_WCOJ in full.sql
        assert full.wcoj_index_sql
        for statement in full.wcoj_index_sql:
            assert statement.startswith(TAG_WCOJ)
            assert "CREATE INDEX IF NOT EXISTS" in statement
        assert seeded == ()  # no delta body atoms in the non-recursive rule

    def test_seeded_wcoj_variant_starts_at_the_frontier(self):
        rule = parse_rule(
            "delta Edge(x, y) :- Edge(x, y), delta Edge(y, z), Edge(z, x).",
        )
        _full, seeded = compile_frontier_rule(rule, plan_kind=PLAN_WCOJ)
        assert len(seeded) == 1
        assert "FROM f_Edge" in seeded[0].sql
        assert "CROSS JOIN" in seeded[0].sql

    def test_binary_variant_carries_no_wcoj_artifacts(self):
        rule = parse_rule(TRIANGLE)
        full, _seeded = compile_frontier_rule(rule, plan_kind=PLAN_BINARY)
        assert full.plan_kind == PLAN_BINARY
        assert "CROSS JOIN" not in full.sql
        assert TAG_WCOJ not in full.sql
        assert full.wcoj_index_sql == ()

    def test_ensure_wcoj_indexes_runs_ddl_once_per_connection(self, cyclic):
        db = SQLiteDatabase.from_database(cyclic.db)
        full, _seeded = compile_frontier_rule(
            parse_rule(TRIANGLE), plan_kind=PLAN_WCOJ,
        )
        assert db.ensure_wcoj_indexes(full.wcoj_index_sql) == len(full.wcoj_index_sql)
        assert db.ensure_wcoj_indexes(full.wcoj_index_sql) == 0

    @pytest.mark.parametrize(
        "kind,expect_tagged", [(PLAN_WCOJ, True), (PLAN_BINARY, False)],
    )
    def test_statement_tag_accounting(self, cyclic, monkeypatch, kind, expect_tagged):
        monkeypatch.setenv(PLAN_ENV, kind)
        db = SQLiteDatabase.from_database(cyclic.db)
        tagged = []
        db.add_statement_hook(
            lambda sql: tagged.append(sql) if TAG_WCOJ in sql else None,
        )
        run_closure(db, triangle_program(), engine="semi-naive")
        assert bool(tagged) is expect_tagged

    def test_sqlite_wcoj_matches_memory_oracle(self, cyclic, monkeypatch):
        program = mutual_recursion_program(cyclic.hub)
        oracle_db = cyclic.fresh_db()
        run_closure(oracle_db, program, engine="naive")
        oracle_deltas = set(oracle_db.all_deltas())
        monkeypatch.setenv(PLAN_ENV, PLAN_WCOJ)
        db = SQLiteDatabase.from_database(cyclic.db)
        run_closure(db, program, engine="semi-naive")
        assert set(db.all_deltas()) == oracle_deltas


# ---------------------------------------------------------------------------
# Benchmark baseline gate
# ---------------------------------------------------------------------------


def _wcoj_row(speedup: float, program: str = "triangle", scale: float = 3.0) -> dict:
    return {
        "backend": "memory",
        "workload": "cyclic",
        "program": program,
        "scale": scale,
        "wcoj_speedup": speedup,
    }


class TestBaselineGate:
    def test_missing_baseline_column_warns_loudly(self, capsys):
        baseline_row = _wcoj_row(5.0)
        del baseline_row["wcoj_speedup"]
        report = {"meta": {"cpus": 1}, "wcoj": [_wcoj_row(5.0)]}
        baseline = {"meta": {"cpus": 1}, "wcoj": [baseline_row]}
        problems = check_against_baseline(report, baseline)
        assert problems == []
        err = capsys.readouterr().err
        assert "missing from the committed baseline" in err
        assert "wcoj_speedup" in err

    def test_missing_run_column_warns_and_fails_the_absolute_gate(self, capsys):
        run_row = _wcoj_row(WCOJ_GATE_SPEEDUP + 1)
        del run_row["wcoj_speedup"]
        report = {
            "meta": {"cpus": 1},
            "wcoj": [run_row, _wcoj_row(WCOJ_GATE_SPEEDUP + 1, program="clique4")],
        }
        baseline = {
            "meta": {"cpus": 1},
            "wcoj": [_wcoj_row(5.0), _wcoj_row(5.0, program="clique4")],
        }
        problems = check_against_baseline(report, baseline)
        # The drift comparison warns; the absolute floor fails outright — a
        # gate program without the ratio is unverifiable, not skippable.
        assert "missing from the run" in capsys.readouterr().err
        assert any("cannot be verified" in p for p in problems)
        assert len(problems) == 1

    def test_absolute_wcoj_floor_fails_even_with_matching_baseline(self):
        slow = WCOJ_GATE_SPEEDUP / 2
        report = {"meta": {"cpus": 1}, "wcoj": [_wcoj_row(slow)]}
        baseline = {"meta": {"cpus": 1}, "wcoj": [_wcoj_row(slow)]}
        problems = check_against_baseline(report, baseline)
        assert any("absolute worst-case-optimal floor" in p for p in problems)

    def test_gate_only_binds_the_largest_scale(self):
        report = {
            "meta": {"cpus": 1},
            "wcoj": [
                _wcoj_row(1.0, scale=1.0),  # small scale may be under the floor
                _wcoj_row(WCOJ_GATE_SPEEDUP + 1, scale=3.0),
            ],
        }
        baseline = {"meta": {"cpus": 1}, "wcoj": [_wcoj_row(1.0, scale=1.0)]}
        assert check_against_baseline(report, baseline) == []

    def test_relative_drift_band_still_applies(self):
        report = {"meta": {"cpus": 1}, "wcoj": [_wcoj_row(WCOJ_GATE_SPEEDUP, scale=1.0)]}
        baseline = {"meta": {"cpus": 1}, "wcoj": [_wcoj_row(100.0, scale=1.0)]}
        problems = check_against_baseline(report, baseline)
        assert any("wcoj_speedup" in p and "committed" in p for p in problems)
