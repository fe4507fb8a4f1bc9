"""Cross-backend differential tests: in-memory vs SQLite storage engines.

The SQLite backend must be observationally equivalent to the in-memory one
under *every* evaluation engine:

* closures derive the same delta facts and the same assignment sets (by
  used-fact signature), with the stage-style semi-naive round counts agreeing
  exactly across backends;
* end, stage and step semantics return identical stabilizing sets and
  repaired states;
* independent semantics returns minima of the same size (the Min-Ones solver
  may break ties between equal minima differently depending on clause order,
  which legitimately differs between backends), and each backend's set must
  actually stabilize the instance;
* the hypothetical assignment enumeration feeding Algorithm 1 produces the
  same Boolean provenance content.

Instances come from the seeded generators shared with the engine differential
suite (:mod:`tests.generators`); 50+ randomized instances are checked per
semantics, each under both the semi-naive engine and the naive oracle.
``PYTEST_SEED`` rebases the instance seeds (instance ``i`` uses
``PYTEST_SEED * 100003 + i``, default 0 → the historical seeds ``0..49``) and
every failure message carries the concrete seed, so a CI failure is
reproducible from the log alone — parity with the property torture suite.
"""

from __future__ import annotations

import pytest

from repro.core.semantics import (
    end_semantics,
    independent_semantics,
    stage_semantics,
    step_semantics,
)
from repro.core.stability import is_stabilizing_set
from repro.datalog.evaluation import find_all_assignments, run_closure
from repro.provenance.boolean import build_boolean_provenance
from repro.storage.sqlite_backend import SQLiteDatabase

from tests.generators import (
    differential_seeds,
    paper_instance,
    random_instance,
    seed_note,
)

#: One randomized instance per seed (rebased on ``PYTEST_SEED``); ≥ 50
#: instances per semantics.
SEEDS = differential_seeds(50)
ENGINES = ("naive", "semi-naive")


def instance_pair(seed: int):
    """One random instance materialised on both backends."""
    memory, program = random_instance(seed, max_facts=25)
    return memory, SQLiteDatabase.from_database(memory), program


@pytest.mark.parametrize("seed", SEEDS)
class TestClosureEquivalence:
    def test_same_assignments_deltas_and_hooks(self, seed):
        memory, sqlite, program = instance_pair(seed)
        for engine in ENGINES:
            mem_db, sql_db = memory.clone(), sqlite.clone()
            mem_seen: list = []
            sql_seen: list = []
            mem = run_closure(
                mem_db, program, on_assignment=mem_seen.append, engine=engine,
            )
            sql = run_closure(
                sql_db, program, on_assignment=sql_seen.append, engine=engine,
            )
            assert mem.engine == sql.engine == engine, seed_note(seed, engine)
            # Same delta fixpoint.
            assert set(mem_db.all_deltas()) == set(sql_db.all_deltas()), (
                seed_note(seed, engine)
            )
            # Same assignments; both backends duplicate-free and firing the
            # on_assignment hook exactly once per assignment.
            mem_signatures = [a.signature() for a in mem.assignments]
            sql_signatures = [a.signature() for a in sql.assignments]
            assert len(set(sql_signatures)) == len(sql_signatures), (
                seed_note(seed, engine)
            )
            assert set(mem_signatures) == set(sql_signatures), seed_note(seed, engine)
            assert [a.signature() for a in mem_seen] == mem_signatures, (
                seed_note(seed, engine)
            )
            assert [a.signature() for a in sql_seen] == sql_signatures, (
                seed_note(seed, engine)
            )

    def test_semi_naive_round_counts_agree(self, seed):
        # Both semi-naive engines count stage-style rounds (frontier of round
        # k+1 = facts derived in round k), so the counts must match exactly.
        memory, sqlite, program = instance_pair(seed)
        mem = run_closure(memory.clone(), program, engine="semi-naive")
        sql = run_closure(sqlite.clone(), program, engine="semi-naive")
        assert mem.rounds == sql.rounds >= 1, seed_note(seed)

    def test_hypothetical_assignments_agree(self, seed):
        memory, sqlite, program = instance_pair(seed)
        mem = {
            a.signature()
            for a in find_all_assignments(memory, program, hypothetical_deltas=True)
        }
        sql = {
            a.signature()
            for a in find_all_assignments(sqlite, program, hypothetical_deltas=True)
        }
        assert mem == sql, seed_note(seed)


@pytest.mark.parametrize("seed", SEEDS)
class TestShardedEquivalence:
    """The default ``auto`` engine on a multi-core machine, both backends,
    against the naive in-memory oracle.

    The class keeps its historical name: these seeds used to run the
    hash-partitioned engine that ``auto`` picked whenever several CPUs were
    available.  With ``os.cpu_count`` patched to 8, ``auto`` must now report
    the single-partition semi-naive engine and stay invisible against the
    oracle: identical delta fixpoints, identical assignment-signature sets,
    duplicate-free results, an exactly-once hook stream and the stage-style
    round count of the explicit semi-naive engine.
    """

    def test_sharded_closure_matches_naive_oracle(self, seed, monkeypatch):
        memory, sqlite, program = instance_pair(seed)
        oracle_db = memory.clone()
        oracle = run_closure(oracle_db, program, engine="naive")
        oracle_deltas = set(oracle_db.all_deltas())
        oracle_signatures = {a.signature() for a in oracle.assignments}
        semi_rounds = run_closure(
            memory.clone(), program, engine="semi-naive",
        ).rounds
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        for backend, db in (
            ("memory", memory.clone()),
            ("sqlite", sqlite.clone()),
        ):
            note = seed_note(seed, f"auto/8 cpus/{backend}")
            hook_seen: list = []
            result = run_closure(
                db, program, engine="auto", on_assignment=hook_seen.append,
            )
            assert result.engine == "semi-naive", note
            assert result.rounds == semi_rounds, note
            assert set(db.all_deltas()) == oracle_deltas, note
            signatures = [a.signature() for a in result.assignments]
            assert len(set(signatures)) == len(signatures), note
            assert set(signatures) == oracle_signatures, note
            assert [a.signature() for a in hook_seen] == signatures, note

    def test_sharded_end_semantics_matches_oracle(self, seed, monkeypatch):
        memory, sqlite, program = instance_pair(seed)
        oracle = end_semantics(memory, program, engine="naive")
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        for backend, db in (("memory", memory), ("sqlite", sqlite)):
            note = seed_note(seed, f"auto/8 cpus/{backend}")
            result = end_semantics(db, program, engine="auto")
            assert result.deleted == oracle.deleted, note


@pytest.mark.parametrize("seed", SEEDS)
class TestSemanticsEquivalence:
    def test_end_semantics(self, seed):
        memory, sqlite, program = instance_pair(seed)
        for engine in ENGINES:
            mem = end_semantics(memory, program, engine=engine)
            sql = end_semantics(sqlite, program, engine=engine)
            assert mem.deleted == sql.deleted, seed_note(seed, engine)
            assert mem.repaired.same_state_as(sql.repaired), seed_note(seed, engine)
            assert mem.rounds == sql.rounds or engine == "naive", (
                seed_note(seed, engine)
            )

    def test_stage_semantics(self, seed):
        memory, sqlite, program = instance_pair(seed)
        for engine in ENGINES:
            mem = stage_semantics(memory, program, engine=engine)
            sql = stage_semantics(sqlite, program, engine=engine)
            assert mem.deleted == sql.deleted, seed_note(seed, engine)
            assert mem.repaired.same_state_as(sql.repaired), seed_note(seed, engine)
            # Stage counts the unique fixpoint iteration: backend-independent.
            assert mem.rounds == sql.rounds, seed_note(seed, engine)

    def test_step_semantics(self, seed):
        memory, sqlite, program = instance_pair(seed)
        for engine in ENGINES:
            mem = step_semantics(memory, program, engine=engine)
            sql = step_semantics(sqlite, program, engine=engine)
            # The greedy traversal is deterministic in the provenance content,
            # which both backends build identically.
            assert mem.deleted == sql.deleted, seed_note(seed, engine)
            assert mem.metadata["provenance_assignments"] == (
                sql.metadata["provenance_assignments"]
            ), seed_note(seed, engine)

    def test_independent_semantics(self, seed):
        memory, sqlite, program = instance_pair(seed)
        for engine in ENGINES:
            mem = independent_semantics(memory, program, engine=engine)
            sql = independent_semantics(sqlite, program, engine=engine)
            # Min-Ones may break ties between equal-size minima differently,
            # so compare sizes and validity rather than the exact sets.
            assert mem.size == sql.size, seed_note(seed, engine)
            assert is_stabilizing_set(memory, program, mem.deleted), (
                seed_note(seed, engine)
            )
            assert is_stabilizing_set(sqlite, program, sql.deleted), (
                seed_note(seed, engine)
            )

    def test_boolean_provenance_content(self, seed):
        memory, sqlite, program = instance_pair(seed)
        mem = build_boolean_provenance(memory, program)
        sql = build_boolean_provenance(sqlite, program)

        def clause_multiset(provenance):
            counted: dict = {}
            for clause in provenance.clauses:
                key = (clause.positives, clause.negatives, clause.rule_name)
                counted[key] = counted.get(key, 0) + 1
            return counted

        assert clause_multiset(mem) == clause_multiset(sql), seed_note(seed)
        assert mem.variables == sql.variables, seed_note(seed)


class TestPaperInstance:
    def test_paper_program_all_semantics_both_engines(self):
        memory, program = paper_instance()
        sqlite = SQLiteDatabase.from_database(memory)
        for compute in (
            end_semantics,
            stage_semantics,
            step_semantics,
            independent_semantics,
        ):
            for engine in ENGINES:
                mem = compute(memory, program, engine=engine)
                sql = compute(sqlite, program, engine=engine)
                assert mem.deleted == sql.deleted, (compute.__name__, engine)

    def test_closure_on_pre_marked_deltas(self):
        # Initial delta facts (a deletion already recorded) must seed round 1,
        # not the frontier, on both backends.
        from repro.storage.facts import Fact

        memory, program = paper_instance()
        memory.mark_deleted(Fact("Grant", (1, "NSF")))
        sqlite = SQLiteDatabase.from_database(memory)
        mem = run_closure(memory.clone(), program, engine="semi-naive")
        sql = run_closure(sqlite, program, engine="semi-naive")
        assert {a.signature() for a in mem.assignments} == {
            a.signature() for a in sql.assignments
        }
