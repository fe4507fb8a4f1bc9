"""Property-based differential torture suite.

Every instance drawn from :func:`tests.generators.random_torture_spec` is
checked across the full evaluation matrix

    {in-memory, SQLite} × {naive, semi-naive} × {end, stage, step, independent}

against a single oracle: the **naive engine on the in-memory backend**.  The
closure layer is checked too (delta fixpoints, assignment-signature sets and
exactly-once ``on_assignment`` delivery).  Any divergence is shrunk to a
1-minimal repro (:func:`tests.generators.shrink_spec`) before failing, and the
failure message contains the spec ``repr`` plus the seed, so the repro can be
replayed verbatim:

    from tests.generators import InstanceSpec, RuleSpec
    from tests.test_property_differential import divergences
    spec = <paste the InstanceSpec(...) from the failure message>
    print(divergences(spec))

Reproducibility and scale knobs (read once at import):

* ``PYTEST_SEED`` — base seed for the whole run (default 20260730); instance
  ``i`` uses ``PYTEST_SEED * 100003 + i``.
* ``PROPERTY_SCALE`` — multiplies the instance count (default 1 → 100
  instances; the nightly CI job runs ``PROPERTY_SCALE=10``).
"""

from __future__ import annotations

import os
import random
from typing import List

import pytest

from repro.core.semantics import (
    end_semantics,
    independent_semantics,
    stage_semantics,
    step_semantics,
)
from repro.core.stability import is_stabilizing_set
from repro.datalog.evaluation import run_closure
from repro.storage.sqlite_backend import SQLiteDatabase

from tests.generators import InstanceSpec, random_torture_spec, shrink_spec

SEED = int(os.environ.get("PYTEST_SEED", "20260730"))
SCALE = int(os.environ.get("PROPERTY_SCALE", "1"))
INSTANCE_COUNT = 100 * SCALE

ENGINES = ("naive", "semi-naive")
MAX_ROUNDS = 200

def _spec_for(index: int) -> InstanceSpec:
    rng = random.Random(SEED * 100003 + index)
    return random_torture_spec(rng)


def divergences(spec: InstanceSpec) -> List[str]:
    """Every way ``spec`` diverges from the naive in-memory oracle (none = ok)."""
    memory, program = spec.build()
    problems: List[str] = []

    # -- closure layer ------------------------------------------------------
    oracle_db = memory.clone()
    oracle_closure = run_closure(oracle_db, program, engine="naive")
    oracle_deltas = set(oracle_db.all_deltas())
    oracle_signatures = {a.signature() for a in oracle_closure.assignments}
    for backend in ("memory", "sqlite"):
        for engine in ENGINES:
            if backend == "memory" and engine == "naive":
                continue  # that is the oracle itself
            db = (
                SQLiteDatabase.from_database(memory)
                if backend == "sqlite"
                else memory.clone()
            )
            hook_seen: List = []
            closure = run_closure(
                db,
                program,
                on_assignment=hook_seen.append,
                engine=engine,
                max_rounds=MAX_ROUNDS,
            )
            label = f"closure[{backend}/{engine}]"
            if set(db.all_deltas()) != oracle_deltas:
                problems.append(f"{label}: delta fixpoint differs from oracle")
            signatures = [a.signature() for a in closure.assignments]
            if len(set(signatures)) != len(signatures):
                problems.append(f"{label}: duplicate assignments")
            if set(signatures) != oracle_signatures:
                problems.append(f"{label}: assignment set differs from oracle")
            if [a.signature() for a in hook_seen] != signatures:
                problems.append(f"{label}: on_assignment stream != result list")

    # -- semantics layer ----------------------------------------------------
    oracle_results = {
        "end": end_semantics(memory, program, engine="naive"),
        "stage": stage_semantics(memory, program, engine="naive"),
        "step": step_semantics(memory, program, engine="naive"),
        "independent": independent_semantics(memory, program, engine="naive"),
    }
    for backend in ("memory", "sqlite"):
        db = (SQLiteDatabase.from_database(memory) if backend == "sqlite" else memory)
        for engine in ENGINES:
            if backend == "memory" and engine == "naive":
                continue
            label = f"[{backend}/{engine}]"
            end = end_semantics(db, program, engine=engine)
            if end.deleted != oracle_results["end"].deleted:
                problems.append(f"end{label}: deleted set differs from oracle")
            stage = stage_semantics(db, program, engine=engine)
            if stage.deleted != oracle_results["stage"].deleted:
                problems.append(f"stage{label}: deleted set differs from oracle")
            if stage.rounds != oracle_results["stage"].rounds:
                problems.append(
                    f"stage{label}: {stage.rounds} stages, oracle "
                    f"{oracle_results['stage'].rounds}",
                )
            step = step_semantics(db, program, engine=engine)
            if step.deleted != oracle_results["step"].deleted:
                problems.append(f"step{label}: deleted set differs from oracle")
            independent = independent_semantics(db, program, engine=engine)
            if independent.size != oracle_results["independent"].size:
                problems.append(
                    f"independent{label}: size {independent.size}, oracle "
                    f"{oracle_results['independent'].size}",
                )
            if not is_stabilizing_set(db, program, independent.deleted):
                problems.append(f"independent{label}: non-stabilizing result")
    return problems


def _still_fails(spec: InstanceSpec) -> bool:
    try:
        spec.build()
    except Exception:
        # Invalid shrink candidate (duplicate rules etc.): not a failure.
        return False
    try:
        return bool(divergences(spec))
    except Exception:
        # A crash inside the engines is a genuine repro — keep shrinking it.
        return True


@pytest.mark.parametrize("index", range(INSTANCE_COUNT))
def test_instance_matches_naive_oracle(index: int) -> None:
    spec = _spec_for(index)
    problems = divergences(spec)
    if problems:
        shrunk = shrink_spec(spec, _still_fails)
        final = divergences(shrunk)
        pytest.fail(
            f"instance {index} (PYTEST_SEED={SEED}) diverges from the naive "
            f"oracle:\n  " + "\n  ".join(final or problems) + "\n"
            f"minimized repro (paste into divergences()):\n{shrunk!r}",
        )


def test_shrinker_produces_buildable_minimum() -> None:
    """The shrinking machinery itself: minimise against a synthetic predicate.

    An always-failing (but validity-respecting) predicate must drive the spec
    down to the structural floor: one rule reduced to its guard atom, no
    facts, no comparisons — and the result must still build.
    """
    spec = _spec_for(0)
    shrunk = shrink_spec(spec, _buildable)
    assert len(shrunk.rules) == 1
    assert shrunk.facts == ()
    assert len(shrunk.rules[0].body) == 1  # just the guard
    assert shrunk.rules[0].comparisons == ()
    shrunk.build()
    assert shrunk.size() < spec.size()


def _buildable(spec: InstanceSpec) -> bool:
    try:
        spec.build()
        return True
    except Exception:
        return False
