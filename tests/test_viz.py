"""DOT export: well-formed output mentioning every element."""

import pytest

from repro.core.planner import plan_query
from repro.core.join_graph import join_graph
from repro.core.tree_decomposition import from_elimination_order
from repro.viz import (
    decomposition_to_dot,
    graph_to_dot,
    join_graph_to_dot,
    plan_to_dot,
)
from repro.workloads.coloring import coloring_query
from repro.workloads.graphs import pentagon


@pytest.fixture
def query():
    return coloring_query(pentagon())


class TestPlanDot:
    def test_mentions_every_scan(self, query):
        plan = plan_query(query, "bucket")
        dot = plan_to_dot(plan)
        assert dot.startswith("digraph")
        assert dot.count("Scan edge") == 5
        assert dot.rstrip().endswith("}")

    def test_edges_match_tree_structure(self, query):
        plan = plan_query(query, "straightforward")
        dot = plan_to_dot(plan)
        # 5 scans + 4 joins + 1 project = 10 nodes -> 9 edges.
        assert dot.count("->") == 9

    def test_zero_column_projection_rendered(self):
        from repro.plans import Project, Scan

        dot = plan_to_dot(Project(Scan("edge", ("a", "b")), ()))
        assert "∅" in dot

    def test_title_quoted_and_escaped(self, query):
        plan = plan_query(query, "bucket")
        dot = plan_to_dot(plan, title='my "special" plan')
        assert '\\"special\\"' in dot


class TestJoinGraphDot:
    def test_free_variables_doubled(self, query):
        dot = join_graph_to_dot(query)
        assert "doublecircle" in dot  # v1 is free
        assert dot.count(" -- ") == 5  # pentagon edges

    def test_all_variables_present(self, query):
        dot = join_graph_to_dot(query)
        for i in range(1, 6):
            assert f'"v{i}"' in dot


class TestDecompositionDot:
    def test_bags_rendered(self, query):
        graph = join_graph(query)
        td = from_elimination_order(graph, sorted(graph.nodes))
        dot = decomposition_to_dot(td)
        assert dot.count("label=") == len(td.bags)
        assert dot.count(" -- ") == len(td.edges)

    def test_bag_contents_visible(self, query):
        graph = join_graph(query)
        td = from_elimination_order(graph, sorted(graph.nodes))
        dot = decomposition_to_dot(td)
        assert "{" in dot and "}" in dot


class TestGraphDot:
    def test_plain_graph(self):
        # graph_to_dot is duck-typed: a networkx graph draws like ours.
        nx = pytest.importorskip("networkx")
        graph = nx.path_graph(4)
        dot = graph_to_dot(graph, title="p4")
        assert dot.count(" -- ") == 3
        assert '"p4"' in dot
