"""Unit tests for repro.storage.facts."""

import pytest

from repro.storage.facts import Fact, fact, facts_by_relation


class TestFactIdentity:
    def test_equality_ignores_tid(self):
        assert Fact("R", (1, 2), tid="a") == Fact("R", (1, 2), tid="b")

    def test_equality_requires_same_relation(self):
        assert Fact("R", (1,)) != Fact("S", (1,))

    def test_equality_requires_same_values(self):
        assert Fact("R", (1, 2)) != Fact("R", (2, 1))

    def test_hash_consistent_with_equality(self):
        assert hash(Fact("R", (1, 2), tid="x")) == hash(Fact("R", (1, 2)))

    def test_usable_in_sets(self):
        items = {Fact("R", (1,)), Fact("R", (1,), tid="dup"), Fact("R", (2,))}
        assert len(items) == 2

    def test_not_equal_to_non_fact(self):
        assert Fact("R", (1,)) != (1,)


class TestFactBehaviour:
    def test_immutable(self):
        item = Fact("R", (1,))
        with pytest.raises(AttributeError):
            item.relation = "S"
        with pytest.raises(AttributeError):
            del item.values

    def test_values_are_tuple(self):
        item = Fact("R", [1, 2])
        assert item.values == (1, 2)
        assert item.arity == 2
        assert item.value(1) == 2

    def test_fact_pickling_round_trip(self):
        import pickle

        item = fact("R", 1, "x", tid="r1")
        clone = pickle.loads(pickle.dumps(item))
        assert clone == item
        assert clone.tid == "r1"
        assert clone.values == (1, "x")

    def test_with_tid(self):
        renamed = Fact("R", (1,)).with_tid("g2")
        assert renamed.tid == "g2"
        assert renamed == Fact("R", (1,))

    def test_label_prefers_tid(self):
        assert Fact("R", (1,), tid="g2").label() == "g2"
        assert Fact("R", (1,)).label() == "R(1)"

    def test_repr_and_str(self):
        item = Fact("Author", (4, "Marge"), tid="a2")
        assert str(item) == "Author(4, Marge)"
        assert repr(item) == "Author(4, 'Marge')#a2"

    def test_sort_key_orders_deterministically(self):
        items = [Fact("B", (2,)), Fact("A", (10,)), Fact("A", (2,))]
        ordered = sorted(items)
        assert ordered[0].relation == "A"
        assert ordered[-1].relation == "B"

    def test_fact_helper(self):
        item = fact("R", 1, "x", tid="t")
        assert item.relation == "R"
        assert item.values == (1, "x")
        assert item.tid == "t"


def test_facts_by_relation_groups():
    grouped = facts_by_relation([fact("R", 1), fact("R", 2), fact("S", 1)])
    assert set(grouped) == {"R", "S"}
    assert len(grouped["R"]) == 2
    assert len(grouped["S"]) == 1
