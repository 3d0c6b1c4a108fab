"""Unit tests for repro.graphs.graph.Graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphConstructionError, GraphError
from repro.graphs import Graph, complete_graph, path_graph, star_graph


class TestConstruction:
    def test_basic_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3
        assert g.m == 3
        assert g.degree(0) == 2

    def test_single_vertex(self):
        g = Graph(1, [])
        assert g.n == 1
        assert g.m == 0

    def test_edges_any_orientation(self):
        g1 = Graph(3, [(0, 1), (1, 2)])
        g2 = Graph(3, [(1, 0), (2, 1)])
        assert g1 == g2

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphConstructionError):
            Graph(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphConstructionError):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphConstructionError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphConstructionError):
            Graph(3, [(0, 3)])
        with pytest.raises(GraphConstructionError):
            Graph(3, [(-1, 0)])

    def test_rejects_malformed_edges(self):
        with pytest.raises(GraphConstructionError):
            Graph(3, [(0, 1, 2)])

    @pytest.mark.parametrize(
        "edges",
        [[(0, 0)], [(0, 1), (1, 0)], [(0, 3)], [(-1, 0)], [(0, 1, 2)]],
        ids=["self-loop", "duplicate", "too-large", "negative", "malformed"],
    )
    def test_array_input_keeps_every_validation(self, edges):
        with pytest.raises(GraphConstructionError):
            Graph(3, np.array(edges))

    def test_array_input_matches_list_input(self):
        edges = [(2, 0), (1, 2), (3, 1), (0, 3)]
        from_array = Graph(4, np.array(edges))
        from_list = Graph(4, edges)
        assert np.array_equal(from_array.edge_array, from_list.edge_array)
        assert np.array_equal(from_array.indices, from_list.indices)
        assert np.array_equal(from_array.indptr, from_list.indptr)
        assert Graph(3, np.empty((0, 2), dtype=np.int64)).m == 0


class TestAccessors:
    def test_degrees_sum_to_2m(self, any_graph):
        assert any_graph.degrees.sum() == 2 * any_graph.m

    def test_neighbors_sorted_and_symmetric(self, any_graph):
        for v in range(any_graph.n):
            nbrs = any_graph.neighbors(v)
            assert list(nbrs) == sorted(nbrs)
            for w in nbrs:
                assert v in any_graph.neighbors(int(w))

    def test_has_edge(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_has_edge_out_of_range(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            g.has_edge(0, 5)

    def test_edges_iteration_canonical(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert list(g.edges()) == [(0, 1), (2, 3)]

    def test_edge_array_read_only(self, small_complete):
        with pytest.raises(ValueError):
            small_complete.edge_array[0, 0] = 99

    def test_indices_read_only(self, small_complete):
        with pytest.raises(ValueError):
            small_complete.indices[0] = 99

    def test_neighbors_out_of_range(self, small_complete):
        with pytest.raises(GraphError):
            small_complete.neighbors(100)


class TestDerived:
    def test_stationary_distribution_sums_to_one(self, any_graph):
        pi = any_graph.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi > 0)

    def test_stationary_distribution_star(self):
        g = star_graph(5)  # hub degree 4, leaves degree 1, 2m = 8
        pi = g.stationary_distribution()
        assert pi[0] == pytest.approx(0.5)
        assert pi[1] == pytest.approx(1 / 8)

    def test_stationary_needs_edges(self):
        with pytest.raises(GraphError):
            Graph(2, []).stationary_distribution()

    def test_total_degree(self):
        g = star_graph(5)
        assert g.total_degree([0]) == 4
        assert g.total_degree([1, 2]) == 2
        assert g.total_degree(range(g.n)) == 2 * g.m

    def test_total_degree_out_of_range(self, small_star):
        with pytest.raises(GraphError):
            small_star.total_degree([99])

    def test_is_connected(self):
        assert path_graph(5).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
        assert Graph(1, []).is_connected()

    def test_is_regular(self):
        assert complete_graph(5).is_regular()
        assert not star_graph(4).is_regular()

    def test_is_bipartite(self):
        assert path_graph(5).is_bipartite()
        assert star_graph(6).is_bipartite()
        assert not complete_graph(3).is_bipartite()

    def test_equality_and_hash(self):
        g1 = Graph(3, [(0, 1), (1, 2)])
        g2 = Graph(3, [(2, 1), (0, 1)])
        g3 = Graph(3, [(0, 1), (0, 2)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != g3
        assert g1 != "not a graph"
