"""Tests for the trigger simulator and the HoloClean-style cell-repair baseline."""

import pytest

from repro import Database, RepairEngine, Schema, Semantics, fact
from repro.baselines import FiringPolicy, HoloCleanStyleRepairer, TriggerEngine
from repro.baselines.trigger_engine import seed_deletions
from repro.constraints.triggers import DeleteTrigger
from repro.datalog.ast import make_atom
from repro.datalog.context import EvalContext
from repro.datalog.delta import DeltaProgram
from repro.exceptions import ExperimentError
from repro.workloads.errors import generate_author_table, inject_errors
from repro.workloads.programs_dc import dc_constraints


@pytest.fixture
def academic_db() -> Database:
    schema = Schema.from_arities({"Author": 2, "Writes": 2, "Publication": 2})
    return Database.from_dicts(
        schema,
        {
            "Author": [(1, "Ada"), (2, "Alan")],
            "Writes": [(1, 10), (1, 11), (2, 11)],
            "Publication": [(10, "p10"), (11, "p11")],
        },
    )


def cascade_program() -> DeltaProgram:
    return DeltaProgram.from_text(
        """
        delta Author(a, n) :- Author(a, n), a = 1.
        delta Writes(a, p) :- Writes(a, p), delta Author(a, n).
        delta Publication(p, t) :- Publication(p, t), delta Writes(a, p).
        """,
    )


class TestTriggerEngine:
    def test_seed_deletions_come_from_selection_rules(self, academic_db):
        seeds = seed_deletions(academic_db, cascade_program())
        assert seeds == [fact("Author", 1, "Ada")]

    def test_cascade_matches_stage_semantics_on_chain(self, academic_db):
        program = cascade_program()
        engine = TriggerEngine.from_program(program)
        run = engine.run(academic_db, seed_deletions(academic_db, program))
        stage = RepairEngine(academic_db, program).repair(Semantics.STAGE)
        assert run.deleted == stage.deleted

    def test_deletion_order_starts_with_seed(self, academic_db):
        program = cascade_program()
        run = TriggerEngine.from_program(program).run(
            academic_db, seed_deletions(academic_db, program),
        )
        assert run.deletion_order[0] == fact("Author", 1, "Ada")
        assert run.fired  # cascading triggers actually fired

    def test_original_database_untouched(self, academic_db):
        program = cascade_program()
        TriggerEngine.from_program(program).run(
            academic_db, seed_deletions(academic_db, program),
        )
        assert academic_db.count_delta() == 0

    def test_policies_order_same_event_triggers_differently(self):
        """Two triggers watch the same event; PostgreSQL picks by name, MySQL by creation."""
        schema = Schema.from_arities({"A": 1, "B": 1, "C": 1})
        db = Database.from_dicts(schema, {"A": [(1,)], "B": [(1,)], "C": [(1,)]})
        # Creation order: z_delete_B first; alphabetical order: a_delete_C first.
        triggers = [
            DeleteTrigger("z_delete_B", make_atom("A", "x"), make_atom("B", "x"),
                          condition=(make_atom("C", "x"),)),
            DeleteTrigger("a_delete_C", make_atom("A", "x"), make_atom("C", "x"),
                          condition=(make_atom("B", "x"),)),
        ]
        seeds = [fact("A", 1)]
        postgres = TriggerEngine(triggers, FiringPolicy.POSTGRESQL).run(db, seeds)
        mysql = TriggerEngine(triggers, FiringPolicy.MYSQL).run(db, seeds)
        # Each policy fires one of the two triggers first, which disables the other.
        assert postgres.deleted == frozenset({fact("A", 1), fact("C", 1)})
        assert mysql.deleted == frozenset({fact("A", 1), fact("B", 1)})

    def test_event_budget_guard(self, academic_db):
        program = cascade_program()
        engine = TriggerEngine.from_program(program, max_events=1)
        with pytest.raises(ExperimentError):
            engine.run(academic_db, seed_deletions(academic_db, program))

    def test_run_reports_runtime_and_size(self, academic_db):
        program = cascade_program()
        run = TriggerEngine.from_program(program).run(
            academic_db, seed_deletions(academic_db, program),
        )
        assert run.size == len(run.deleted)
        assert run.runtime >= 0.0

    def test_context_observers_hear_each_firing_in_cascade_order(
        self, academic_db,
    ):
        program = cascade_program()
        context = EvalContext()
        assignments = []
        context.add_observer(assignments.append)
        run = TriggerEngine.from_program(program).run(
            academic_db, seed_deletions(academic_db, program), context=context,
        )
        # Every cascaded deletion (everything after the seed) was announced.
        assert [a.derived for a in assignments] == list(run.deletion_order[1:])


class TestHoloCleanStyleRepairer:
    def make_dirty(self, rows: int = 120, errors: int = 12):
        clean = generate_author_table(rows, seed=5)
        return inject_errors(clean, errors, seed=6)

    def test_detects_noisy_cells_only_when_dirty(self):
        repairer = HoloCleanStyleRepairer(list(dc_constraints().values()))
        clean = generate_author_table(60, seed=5)
        assert repairer.repair(clean).noisy_cells == set()
        dirty = self.make_dirty()
        assert repairer.repair(dirty.db).noisy_cells

    def test_repairs_cells_not_tuples(self):
        repairer = HoloCleanStyleRepairer(list(dc_constraints().values()))
        dirty = self.make_dirty()
        result = repairer.repair(dirty.db)
        # Cell repairs never add rows; they may merge a repaired duplicate into
        # its clean counterpart (set semantics), so the count can only shrink.
        assert result.repaired_db.count_active() <= dirty.db.count_active()
        assert result.repaired_db.count_active() >= (
            dirty.db.count_active() - result.repaired_tuple_count
        )
        assert 0 < result.repaired_tuple_count <= result.repaired_cell_count

    def test_under_repairs_relative_to_ground_truth(self):
        repairer = HoloCleanStyleRepairer(list(dc_constraints().values()))
        dirty = self.make_dirty()
        result = repairer.repair(dirty.db)
        assert result.repaired_tuple_count <= dirty.error_count

    def test_reduces_but_may_not_eliminate_violations(self):
        repairer = HoloCleanStyleRepairer(list(dc_constraints().values()))
        dirty = self.make_dirty()
        result = repairer.repair(dirty.db)
        assert result.total_residual_violations() <= result.total_initial_violations()
        assert result.total_initial_violations() > 0

    def test_violation_counts_per_constraint(self):
        repairer = HoloCleanStyleRepairer(list(dc_constraints().values()))
        dirty = self.make_dirty()
        counts = repairer.count_violations(dirty.db)
        assert set(counts) == {"DC1", "DC2", "DC3", "DC4"}
        assert sum(counts.values()) > 0

    def test_confidence_margin_makes_it_more_conservative(self):
        dirty = self.make_dirty()
        eager = HoloCleanStyleRepairer(
            list(dc_constraints().values()), confidence_margin=1.0
        )
        cautious = HoloCleanStyleRepairer(
            list(dc_constraints().values()), confidence_margin=50.0,
        )
        assert (
            cautious.repair(dirty.db).repaired_cell_count
            <= eager.repair(dirty.db).repaired_cell_count
        )

    def test_semantics_always_reach_zero_violations(self):
        """The Table-5 contrast: our repairs always stabilize, the baseline may not."""
        from repro.workloads.programs_dc import dc_program

        repairer = HoloCleanStyleRepairer(list(dc_constraints().values()))
        dirty = self.make_dirty(rows=80, errors=8)
        engine = RepairEngine(dirty.db, dc_program())
        repaired = engine.repair(Semantics.INDEPENDENT).repaired
        assert sum(repairer.count_violations(repaired).values()) == 0
