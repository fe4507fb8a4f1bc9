"""The ``engine=`` knob must reject unknown names uniformly, as a ValueError.

Every fixpoint consumer — ``derive_closure`` / ``run_closure``, the four
semantics, the provenance builders and ``RepairEngine`` — takes the knob; an
unknown string must raise :class:`~repro.exceptions.UnknownEngineError`
(a :class:`ValueError` subclass) whose message lists the valid choices, on
both storage backends, instead of silently falling back or failing deep inside
an evaluation round.
"""

from __future__ import annotations

import pytest

from repro.core.repair import RepairEngine
from repro.core.semantics import (
    end_semantics,
    independent_semantics,
    stage_semantics,
    step_semantics,
)
from repro.datalog.delta import DeltaProgram
from repro.datalog.evaluation import (
    ENGINE_CHOICES,
    ENGINE_SEMI_NAIVE,
    derive_closure,
    resolve_engine,
    run_closure,
    validate_engine,
)
from repro.exceptions import EvaluationError, UnknownEngineError
from repro.provenance.boolean import build_boolean_provenance
from repro.provenance.graph import build_provenance_graph
from repro.storage.database import Database
from repro.storage.schema import RelationSchema, Schema
from repro.storage.sqlite_backend import SQLiteDatabase

BAD_ENGINES = ("bogus", "semi", "SEMI-NAIVE", "")


def small_instance():
    schema = Schema.from_relations(
        [RelationSchema.of("R", "x:int"), RelationSchema.of("S", "x:int")],
    )
    db = Database.from_dicts(schema, {"R": [(1,), (2,)], "S": [(1,)]})
    program = DeltaProgram.from_text("delta R(x) :- R(x), S(x).")
    return db, program


@pytest.fixture(params=["memory", "sqlite"])
def db_and_program(request):
    db, program = small_instance()
    if request.param == "sqlite":
        db = SQLiteDatabase.from_database(db)
    return db, program


@pytest.mark.parametrize("bad", BAD_ENGINES)
class TestUnknownEngineRejected:
    def test_validate_and_resolve(self, bad, db_and_program):
        db, _ = db_and_program
        with pytest.raises(ValueError):
            validate_engine(bad)
        with pytest.raises(ValueError):
            resolve_engine(db, bad)

    def test_closure_entry_points(self, bad, db_and_program):
        db, program = db_and_program
        with pytest.raises(ValueError):
            derive_closure(db.clone(), program, engine=bad)
        with pytest.raises(ValueError):
            run_closure(db.clone(), program, engine=bad)

    def test_all_four_semantics(self, bad, db_and_program):
        db, program = db_and_program
        for compute in (
            end_semantics,
            stage_semantics,
            step_semantics,
            independent_semantics,
        ):
            with pytest.raises(ValueError):
                compute(db, program, engine=bad)

    def test_step_exhaustive_still_validates(self, bad, db_and_program):
        # The exhaustive search ignores the engine, but the knob must be
        # checked before it is ignored.
        db, program = db_and_program
        with pytest.raises(ValueError):
            step_semantics(db, program, method="exhaustive", engine=bad)

    def test_provenance_builders(self, bad, db_and_program):
        db, program = db_and_program
        with pytest.raises(ValueError):
            build_boolean_provenance(db, program, engine=bad)
        with pytest.raises(ValueError):
            build_provenance_graph(db, program, engine=bad)

    def test_repair_engine_constructor_and_call(self, bad, db_and_program):
        db, program = db_and_program
        with pytest.raises(ValueError):
            RepairEngine(db, program, engine=bad)
        engine = RepairEngine(db, program)
        with pytest.raises(ValueError):
            engine.repair("end", engine=bad)


class TestErrorShape:
    def test_message_lists_choices_and_offender(self):
        with pytest.raises(ValueError) as excinfo:
            validate_engine("bogus")
        message = str(excinfo.value)
        assert "bogus" in message
        for choice in ENGINE_CHOICES:
            assert repr(choice) in message

    def test_error_is_both_value_and_evaluation_error(self):
        # Callers catching the library hierarchy keep working.
        with pytest.raises(EvaluationError):
            validate_engine("bogus")
        with pytest.raises(UnknownEngineError):
            validate_engine("bogus")

    def test_known_engines_accepted(self, db_and_program):
        db, program = db_and_program
        for engine in ENGINE_CHOICES:
            validate_engine(engine)
            result = end_semantics(db, program, engine=engine)
            assert result.size == 1
        validate_engine(None)


class TestDeletedAndDefaultEngines:
    def test_sharded_engine_is_unknown(self, db_and_program):
        db, program = db_and_program
        with pytest.raises(UnknownEngineError):
            validate_engine("sharded")
        with pytest.raises(UnknownEngineError):
            run_closure(db.clone(), program, engine="sharded")

    def test_auto_is_semi_naive_on_a_multicore_machine(
        self, db_and_program, monkeypatch,
    ):
        db, program = db_and_program
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert resolve_engine(db, "auto") == ENGINE_SEMI_NAIVE
        assert run_closure(db.clone(), program).engine == ENGINE_SEMI_NAIVE
