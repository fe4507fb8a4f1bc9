"""Unit tests for the provenance graph (repro.provenance.graph)."""

from repro.datalog.delta import DeltaProgram
from repro.provenance.graph import build_provenance_graph
from repro.storage.database import Database
from repro.storage.facts import fact
from repro.storage.schema import Schema
from repro.workloads.mas import generate_mas
from repro.workloads.programs_mas import mas_program

from tests.conftest import PAPER_PROGRAM_TEXT, make_paper_database


def paper_graph():
    db = make_paper_database()
    program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
    return build_provenance_graph(db, program)


class TestPaperExampleGraph:
    """Figure 5 of the paper: the provenance graph of the running example."""

    def test_layers_match_figure_5(self):
        graph = paper_graph()
        assert graph.layer_count == 4
        assert graph.tuples_in_layer(1) == {fact("Grant", 2, "ERC")}
        assert graph.tuples_in_layer(2) == {
            fact("Author", 4, "Marge"),
            fact("Author", 5, "Homer"),
        }
        assert graph.tuples_in_layer(3) == {
            fact("Writes", 4, 6),
            fact("Writes", 5, 7),
            fact("Pub", 6, "x"),
            fact("Pub", 7, "y"),
        }
        assert graph.tuples_in_layer(4) == {fact("Cite", 7, 6)}

    def test_benefits_match_figure_5(self):
        graph = paper_graph()
        assert graph.benefit(fact("Grant", 2, "ERC")) == -1
        assert graph.benefit(fact("Author", 4, "Marge")) == -1
        assert graph.benefit(fact("Author", 5, "Homer")) == -1
        assert graph.benefit(fact("Writes", 4, 6)) == 3
        assert graph.benefit(fact("Writes", 5, 7)) == 3
        # Tuples that never participate have benefit 0.
        assert graph.benefit(fact("Grant", 1, "NSF")) == 0

    def test_derived_set_is_end_result(self):
        graph = paper_graph()
        assert len(graph.derived) == 8

    def test_assignment_queries(self):
        graph = paper_graph()
        assert len(graph.assignments_deriving(fact("Author", 4, "Marge"))) == 1
        assert len(graph.assignments_using_delta(fact("Grant", 2, "ERC"))) == 2
        assert len(graph.assignments_using_base(fact("Writes", 4, 6))) == 3

    def test_graph_counts(self):
        graph = paper_graph()
        assert graph.node_count() >= len(graph.derived)
        assert graph.edge_count() > 0

    def test_exact_graph_counts(self):
        # Pinned to the counts of the earlier networkx.DiGraph representation.
        graph = paper_graph()
        assert (graph.node_count(), graph.edge_count()) == (18, 23)
        dataset = generate_mas(scale=0.5, seed=3)
        graph = build_provenance_graph(dataset.fresh_db(), mas_program(dataset, "20"))
        assert (graph.node_count(), graph.edge_count()) == (640, 662)

    def test_describe_lists_layers(self):
        text = paper_graph().describe()
        assert "layer 1" in text and "layer 4" in text

    def test_original_database_not_modified(self):
        db = make_paper_database()
        program = DeltaProgram.from_text(PAPER_PROGRAM_TEXT)
        build_provenance_graph(db, program)
        assert db.count_delta() == 0
        assert db.count_active() == 13


class TestEdgeCases:
    def test_empty_graph_for_stable_database(self):
        schema = Schema.from_arities({"R": 1, "S": 1})
        db = Database.from_dicts(schema, {"R": [(1,)], "S": []})
        program = DeltaProgram.from_text("delta R(x) :- R(x), S(x).")
        graph = build_provenance_graph(db, program)
        assert graph.layer_count == 0
        assert graph.derived == set()
        assert graph.assignments == []

    def test_multiple_derivations_keep_min_layer(self):
        schema = Schema.from_arities({"A": 1, "B": 1, "C": 1})
        db = Database.from_dicts(schema, {"A": [(1,)], "B": [(1,)], "C": [(1,)]})
        program = DeltaProgram.from_text(
            """
            delta A(x) :- A(x).
            delta B(x) :- B(x), delta A(x).
            delta C(x) :- C(x), delta B(x).
            delta C(x) :- C(x), delta A(x).
            """,
        )
        graph = build_provenance_graph(db, program)
        # C(1) is derivable both at depth 2 (via A) and 3 (via B); the layer is the minimum.
        assert graph.layers[fact("C", 1)] == 2
        assert len(graph.assignments_deriving(fact("C", 1))) == 2
