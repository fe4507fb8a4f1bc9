"""Unit tests for the per-rule join planner (repro.datalog.planner)."""

import pytest

from repro.datalog.context import EvalContext
from repro.datalog.parser import parse_rule
from repro.datalog.planner import JoinPlanner, plan_key
from repro.storage.database import Database
from repro.storage.facts import Fact
from repro.storage.schema import Schema


@pytest.fixture
def db() -> Database:
    schema = Schema.from_arities({"Big": 2, "Small": 2, "Tiny": 1})
    return Database.from_dicts(
        schema,
        {
            "Big": [(i, i % 5) for i in range(50)],
            "Small": [(i, i) for i in range(5)],
            "Tiny": [(1,)],
        },
    )


class TestJoinPlanner:
    def test_plan_covers_every_body_atom_once(self, db):
        rule = parse_rule("delta Big(x, y) :- Big(x, y), Small(y, z), Tiny(x).")
        plan = JoinPlanner(db).plan(rule)
        assert sorted(plan.order) == [0, 1, 2]
        assert plan.seed is None

    def test_smallest_relation_starts_an_unseeded_plan(self, db):
        rule = parse_rule("delta Big(x, y) :- Big(x, y), Tiny(x).")
        plan = JoinPlanner(db).plan(rule)
        # Nothing is bound initially, so the scan starts at the smallest extent.
        assert plan.order[0] == 1  # Tiny

    def test_connectivity_beats_cardinality(self, db):
        # After seeding Big(x, y), Small(y, z) is connected through y while
        # Tiny(w) is disconnected (a cross product) despite being tiny.
        rule = parse_rule("delta Big(x, y) :- Big(x, y), Tiny(w), Small(y, z).")
        plan = JoinPlanner(db).plan(rule, seed=0)
        assert plan.order == (0, 2, 1)

    def test_seeded_plan_puts_seed_first(self, db):
        rule = parse_rule("delta Big(x, y) :- Big(x, y), delta Small(y, z).")
        plan = JoinPlanner(db).plan(rule, seed=1)
        assert plan.order[0] == 1
        assert plan.seed == 1

    def test_plans_are_cached(self, db):
        rule = parse_rule("delta Big(x, y) :- Big(x, y), Small(y, z).")
        planner = JoinPlanner(db)
        assert planner.plan(rule) is planner.plan(rule)

    def test_rules_differing_only_in_constants_share_a_plan(self, db):
        first = parse_rule("delta Big(x, 1) :- Big(x, 1), Small(x, z).")
        second = parse_rule("delta Big(x, 2) :- Big(x, 2), Small(x, z).")
        assert plan_key(first, None, False) == plan_key(second, None, False)
        planner = JoinPlanner(db)
        assert planner.plan(first) is planner.plan(second)

    def test_constant_positions_count_as_bound(self, db):
        # Big(x, 1) has a constant: it should be preferred over the equally
        # sized unconstrained Big(a, b) copy at the start of the plan.
        rule = parse_rule("delta Big(x, 1) :- Big(x, 1), Big(a, b), Small(x, z).")
        plan = JoinPlanner(db).plan(rule)
        assert plan.order[0] == 0

    def test_hypothetical_delta_cardinality_is_both_extents(self):
        schema = Schema.from_arities({"Big": 2, "Huge": 2})
        db = Database.from_dicts(
            schema,
            {
                "Big": [(i, i) for i in range(10)],
                "Huge": [(i, i) for i in range(100)],
            },
        )
        rule = parse_rule("delta Big(x, y) :- Big(x, y), delta Huge(x, z).")
        planner = JoinPlanner(db)
        # The delta extent of Huge is empty, so the plain plan drives the scan
        # from it; hypothetically the atom weighs active ∪ delta (100 facts)
        # and the plan starts from the smaller Big instead.
        assert planner.plan(rule, hypothetical=False).order == (1, 0)
        assert planner.plan(rule, hypothetical=True).order == (0, 1)

    def test_cached_plans_are_permanent_across_rounds(self):
        schema = Schema.from_arities({"R": 1, "S": 1})
        db = Database.from_dicts(
            schema, {"R": [(i,) for i in range(2)], "S": [(i,) for i in range(20)]},
        )
        planner = EvalContext().planner(db)
        rule = parse_rule("delta R(x) :- R(x), S(x).")
        cached = planner.plan(rule)
        assert cached.order == (0, 1)  # R (2 facts) before S (20)
        for value in range(100, 128):  # R grows 15x, to 30 facts
            db.insert(Fact("R", (value,)))
        planner.begin_round()
        # The cached plan survives the round boundary untouched...
        assert planner.plan(rule) is cached
        # ...while a structure first planned after it is costed on the grown
        # extents: S (20) now comes before R (30).
        assert planner.plan(parse_rule("delta S(x) :- S(x), R(x).")).order == (0, 1)
