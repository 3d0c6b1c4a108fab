"""Unit tests for the substrate contract: churn plans, epochs, zealots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ChurnPlan, OpinionState, Substrate, as_substrate, rewire_edges
from repro.core.stopping import frozen_consensus
from repro.errors import InvalidOpinionsError, ProcessError
from repro.graphs import Graph, complete_graph, random_regular_graph
from repro.rng import make_rng


class TestChurnPlan:
    def test_validation(self):
        with pytest.raises(ProcessError, match="period"):
            ChurnPlan(period=0, swaps=1, seed=0)
        with pytest.raises(ProcessError, match="swaps"):
            ChurnPlan(period=5, swaps=0, seed=0)
        with pytest.raises(ProcessError, match="events"):
            ChurnPlan(period=5, swaps=1, seed=0, events=-1)

    def test_plans_are_hashable_value_objects(self):
        assert ChurnPlan(5, 2, seed=1) == ChurnPlan(5, 2, seed=1)
        assert hash(ChurnPlan(5, 2, seed=1)) == hash(ChurnPlan(5, 2, seed=1))


class TestRewireEdges:
    def test_preserves_degrees_edge_count_and_simplicity(self):
        rng = make_rng(0)
        graph = random_regular_graph(30, 4, rng=rng)
        rewired = rewire_edges(graph, make_rng(7), swaps=50)
        assert rewired is not graph
        assert rewired.n == graph.n
        assert rewired.m == graph.m
        assert np.array_equal(rewired.degrees, graph.degrees)
        undirected = {tuple(sorted(e)) for e in rewired.edge_array.tolist()}
        assert len(undirected) == rewired.m  # simple: no duplicate edges
        assert all(a != b for a, b in undirected)  # no self-loops

    def test_deterministic_given_generator_state(self):
        graph = random_regular_graph(30, 4, rng=make_rng(0))
        a = rewire_edges(graph, make_rng(3), swaps=20)
        b = rewire_edges(graph, make_rng(3), swaps=20)
        assert np.array_equal(a.edge_array, b.edge_array)

    def test_too_small_graph_is_returned_unchanged(self):
        graph = Graph(2, [(0, 1)])
        assert rewire_edges(graph, make_rng(0), swaps=10) is graph

    def test_input_graph_never_mutated(self):
        graph = random_regular_graph(20, 4, rng=make_rng(1))
        before = graph.edge_array.copy()
        rewire_edges(graph, make_rng(2), swaps=30)
        assert np.array_equal(graph.edge_array, before)


class TestSubstrate:
    def _substrate(self, seed=5, period=10, swaps=12, events=None):
        graph = random_regular_graph(24, 4, rng=make_rng(0))
        return Substrate(graph, ChurnPlan(period, swaps, seed=seed, events=events))

    def test_static_substrate(self):
        graph = complete_graph(5)
        substrate = Substrate(graph)
        assert substrate.is_static
        assert substrate.epoch == 0
        assert substrate.next_boundary(0) is None
        assert not substrate.advance_to(10**9)
        assert substrate.graph is graph

    def test_as_substrate_coerces_and_passes_through(self):
        graph = complete_graph(4)
        substrate = as_substrate(graph)
        assert isinstance(substrate, Substrate)
        assert substrate.graph is graph
        assert as_substrate(substrate) is substrate
        with pytest.raises(ProcessError):
            as_substrate("not a graph")

    def test_boundaries_and_epoch_progression(self):
        substrate = self._substrate(period=10)
        assert not substrate.is_static
        assert substrate.next_boundary(0) == 10
        assert substrate.next_boundary(9) == 10
        assert substrate.next_boundary(10) == 20
        first = substrate.graph
        assert substrate.advance_to(10)
        assert substrate.epoch == 1
        assert substrate.graph is not first
        # Idempotent per step: nothing more due until the next boundary.
        assert not substrate.advance_to(10)
        assert substrate.epoch == 1

    def test_skipping_several_boundaries_applies_all_events(self):
        a = self._substrate(seed=9, period=10)
        b = self._substrate(seed=9, period=10)
        for step in (10, 20, 30):
            a.advance_to(step)
        b.advance_to(30)  # one jump
        assert a.epoch == b.epoch
        assert np.array_equal(a.graph.edge_array, b.graph.edge_array)

    def test_equal_plans_evolve_identically(self):
        a = self._substrate(seed=21)
        b = self._substrate(seed=21)
        a.advance_to(50)
        b.advance_to(50)
        assert np.array_equal(a.graph.edge_array, b.graph.edge_array)

    def test_bounded_plans_go_static_after_last_event(self):
        substrate = self._substrate(period=10, events=2)
        assert substrate.next_boundary(15) == 20
        assert substrate.next_boundary(20) is None
        substrate.advance_to(100)
        assert substrate.is_static
        assert substrate.epoch <= 2
        assert not substrate.advance_to(1000)

    def test_degrees_preserved_across_epochs(self):
        substrate = self._substrate()
        degrees = substrate.graph.degrees.copy()
        substrate.advance_to(200)
        assert substrate.epoch > 0
        assert np.array_equal(substrate.graph.degrees, degrees)

    def test_epochs_share_offsets_and_degrees(self):
        # Swaps never move CSR offsets, so epochs share them (and the
        # degrees the vertex schedulers cache) instead of copying.
        substrate = self._substrate()
        first = substrate.graph
        substrate.advance_to(10)
        assert substrate.graph is not first
        assert substrate.graph.indptr is first.indptr
        assert substrate.graph.degrees is first.degrees


class TestFrozenState:
    def _state(self, frozen):
        graph = complete_graph(6)
        return OpinionState(graph, [1, 2, 3, 4, 5, 3], frozen=frozen)

    def test_no_zealots_by_default(self):
        state = self._state(None)
        assert not state.has_frozen
        assert state.frozen_mask is None
        assert not state.is_frozen(0)
        assert state.frozen_vertices().size == 0
        assert state.frozen_support() == []

    def test_vertex_ids_and_mask_spellings_agree(self):
        by_ids = self._state([0, 4])
        mask = np.zeros(6, dtype=bool)
        mask[[0, 4]] = True
        by_mask = self._state(mask)
        assert np.array_equal(by_ids.frozen_mask, by_mask.frozen_mask)
        assert by_ids.frozen_support() == [1, 5]
        assert list(by_ids.frozen_vertices()) == [0, 4]

    def test_apply_is_a_noop_on_frozen_vertices(self):
        state = self._state([0])
        before = state.value(0)
        assert state.apply(0, 3) == before
        assert state.value(0) == before
        assert state.apply(1, 3) == 2  # unfrozen vertices still move
        assert state.value(1) == 3

    def test_apply_block_drops_frozen_rows(self):
        state = self._state([0, 4])
        state.apply_block(
            np.array([0, 1, 4, 2]), np.array([5, 5, 1, 5])
        )
        assert state.value(0) == 1
        assert state.value(4) == 5
        assert state.value(1) == 5
        assert state.value(2) == 5
        state.check_consistency()

    def test_writable_masks_frozen_targets(self):
        state = self._state([0, 4])
        vertices = np.array([0, 1, 4, 5])
        proposal = np.array([True, True, False, True])
        assert list(state.writable(vertices, proposal)) == [
            False,
            True,
            False,
            True,
        ]

    def test_copy_preserves_the_mask(self):
        state = self._state([2])
        clone = state.copy()
        assert clone.is_frozen(2)
        clone.apply(2, 5)
        assert clone.value(2) == 3

    def test_invalid_frozen_specs_rejected(self):
        with pytest.raises(InvalidOpinionsError):
            self._state([99])
        with pytest.raises(InvalidOpinionsError):
            self._state(np.zeros(4, dtype=bool))  # wrong mask length

    def test_frozen_consensus_floor(self):
        state = self._state([0, 4])  # pinned at opinions 1 and 5
        condition = frozen_consensus(state)
        assert condition(state) is None
        # Support can never drop below 2; the factory publishes that.
        (term,) = condition.support_range_terms
        assert term.support_at_most == 2
        assert term.reason == "frozen_consensus"
        no_zealots = frozen_consensus(self._state(None))
        (term,) = no_zealots.support_range_terms
        assert term.support_at_most == 1


class TestRebindGraph:
    def test_rebinds_and_recomputes_weights(self):
        graph = random_regular_graph(16, 4, rng=make_rng(0))
        state = OpinionState(graph, list(range(1, 17)))
        z_before = state.degree_weighted_sum
        rewired = rewire_edges(graph, make_rng(5), swaps=20)
        state.rebind_graph(rewired)
        assert state.graph is rewired
        # Degree-preserving churn keeps the weighted sum invariant.
        assert state.degree_weighted_sum == z_before
        state.check_consistency()

    def test_rejects_mismatched_vertex_count(self):
        state = OpinionState(complete_graph(5), [1, 2, 3, 4, 5])
        with pytest.raises(InvalidOpinionsError):
            state.rebind_graph(complete_graph(6))
