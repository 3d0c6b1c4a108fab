"""Golden trajectories for the scenario hot paths: churn and adversarial redirects.

Churn events and adversarial redirects are computed incrementally and in
bulk, not through the plain ``Graph`` constructor or a per-pair loop.
Reference implementations of both definitions (a set of all edges plus
a full rebuild; a per-pair ``argmax``) are compared against them here,
and the digests below pin their exact outputs — every epoch's
``edge_array`` and CSR ``indices`` along a fixed :class:`ChurnPlan`,
and every ``AdversarialScheduler.draw_block`` pair — so any change to
the churn RNG trajectory, the edge order, the row order or the redirect
tie rule fails here loudly.  The structural checks assert that each
epoch graph is exactly what ``Graph(n, edge_array)`` would build.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    AdversarialScheduler,
    ChurnPlan,
    OpinionState,
    Substrate,
    rewire_edges,
)
from repro.graphs import (
    Graph,
    complete_graph,
    lollipop_graph,
    random_regular_graph,
    star_graph,
)
from repro.rng import make_rng

_EVENTS = 200


def _assert_canonical(graph: Graph) -> None:
    """``graph`` equals the constructor's build of its own edge list."""
    ref = Graph(graph.n, graph.edge_array)
    assert np.array_equal(graph.indptr, ref.indptr)
    assert np.array_equal(graph.indices, ref.indices)
    assert np.array_equal(graph.edge_array, ref.edge_array)
    assert np.array_equal(graph.degrees, ref.degrees)
    for array in (graph.indptr, graph.indices, graph.edge_array, graph.degrees):
        assert not array.flags.writeable


def _churn_digest(graph: Graph, plan: ChurnPlan) -> str:
    substrate = Substrate(graph, plan)
    before = (graph.edge_array.copy(), graph.indices.copy())
    digest = hashlib.sha256()
    for step in range(plan.period, (_EVENTS + 1) * plan.period, plan.period):
        substrate.advance_to(step)
        current = substrate.graph
        _assert_canonical(current)
        assert np.array_equal(current.degrees, graph.degrees)
        digest.update(current.edge_array.tobytes())
        digest.update(current.indices.tobytes())
    # The caller's input graph is never mutated by the churn.
    assert np.array_equal(graph.edge_array, before[0])
    assert np.array_equal(graph.indices, before[1])
    digest.update(str(substrate.epoch).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "build, plan, expected",
    [
        (
            lambda: random_regular_graph(400, 8, rng=make_rng(0)),
            ChurnPlan(period=1, swaps=16, seed=11),
            "cd390ede96afe313",
        ),
        (
            lambda: lollipop_graph(24, 40),
            ChurnPlan(period=3, swaps=24, seed=5),
            "61a650f00dda198d",
        ),
    ],
    ids=["rr400_8", "lollipop24_40"],
)
def test_churn_trajectory_is_pinned(build, plan, expected):
    assert _churn_digest(build(), plan) == expected


def _reference_rewire(graph, rng, swaps):
    """Set-of-all-edges swaps plus a full ``Graph`` rebuild: the definition."""
    m = graph.m
    if m < 2:
        return graph
    edges = graph.edge_array.copy()
    present = {(int(u), int(v)) for u, v in edges}
    changed = False
    for _ in range(swaps):
        i, j = (int(x) for x in rng.integers(0, m, size=2))
        flip = int(rng.integers(0, 2))
        if i == j:
            continue
        a, b = int(edges[i, 0]), int(edges[i, 1])
        c, d = int(edges[j, 0]), int(edges[j, 1])
        if flip:
            c, d = d, c
        if a == d or c == b:
            continue
        e1 = (min(a, d), max(a, d))
        e2 = (min(c, b), max(c, b))
        if e1 == e2 or e1 in present or e2 in present:
            continue
        present.difference_update({(a, b), (min(c, d), max(c, d))})
        present.update({e1, e2})
        edges[i] = e1
        edges[j] = e2
        changed = True
    return Graph(graph.n, edges, name=graph.name) if changed else graph


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_regular_graph(60, 4, rng=make_rng(2)),
        lambda: lollipop_graph(8, 6),
        lambda: star_graph(9),
        lambda: complete_graph(6),
        lambda: Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)]),
    ],
    ids=["rr60_4", "lollipop8_6", "star9", "k6", "hexagon"],
)
@pytest.mark.parametrize("swaps", [1, 5, 40])
def test_rewire_edges_matches_reference(build, swaps):
    fast = slow = build()
    fast_rng, slow_rng = make_rng(swaps), make_rng(swaps)
    for _ in range(60):
        fast_next = rewire_edges(fast, fast_rng, swaps)
        slow_next = _reference_rewire(slow, slow_rng, swaps)
        assert (fast_next is fast) == (slow_next is slow)
        fast, slow = fast_next, slow_next
        assert np.array_equal(fast.edge_array, slow.edge_array)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.indptr, slow.indptr)


def _reference_draw_block(scheduler, rng, size):
    """Per-pair ``argmax`` redirect: the definition the bulk path must match."""
    graph = scheduler.graph
    v = rng.integers(0, graph.n, size=size)
    offsets = rng.integers(0, graph.degrees[v])
    w = graph.indices[graph.indptr[v] + offsets]
    if scheduler.strength > 0.0:
        redirect = rng.random(size) < scheduler.strength
        state = scheduler.state
        values = state.values
        centre = state.min_opinion + state.max_opinion
        for idx in np.flatnonzero(redirect).tolist():
            nbrs = graph.neighbors(int(v[idx]))
            w[idx] = nbrs[int(np.argmax(np.abs(2 * values[nbrs] - centre)))]
    return v, w


def _tied_extremes():
    """K_9 with opinions alternating between the two extremes (|2x - c| ties)."""
    graph = complete_graph(9)
    return graph, [1, 5, 1, 5, 3, 5, 1, 3, 5]


def _lollipop():
    graph = lollipop_graph(12, 20)
    return graph, make_rng(4).integers(1, 8, size=graph.n).tolist()


def _star():
    graph = star_graph(30)
    return graph, make_rng(6).integers(1, 6, size=graph.n).tolist()


@pytest.mark.parametrize(
    "case, strength, expected",
    [
        (_lollipop, 0.5, "e097ca029aa36c40"),
        (_lollipop, 1.0, "3f9e887f546bea56"),
        (_star, 0.5, "81d2812e0703c504"),
        (_star, 1.0, "5d458ba47c7ae6d4"),
        (_tied_extremes, 0.5, "d51335e290d20bbb"),
        (_tied_extremes, 1.0, "b0f195242e6fa6a8"),
    ],
    ids=["lollipop-0.5", "lollipop-1", "star-0.5", "star-1", "tied-0.5", "tied-1"],
)
def test_adversarial_draw_block_is_pinned(case, strength, expected):
    graph, opinions = case()
    digest = hashlib.sha256()
    for size in (1, 7, 64, 1000):
        state = OpinionState(graph, opinions)
        scheduler = AdversarialScheduler(graph, state, strength=strength)
        v, w = scheduler.draw_block(make_rng(size), size)
        v_ref, w_ref = _reference_draw_block(scheduler, make_rng(size), size)
        assert np.array_equal(v, v_ref)
        assert np.array_equal(w, w_ref)
        digest.update(v.tobytes())
        digest.update(w.tobytes())
    assert digest.hexdigest()[:16] == expected
