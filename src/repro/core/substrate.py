"""Dynamic interaction substrates: a graph plus its evolution schedule.

The paper analyses DIV on a *static* graph, and until this module the
whole engine shared that assumption: :class:`~repro.graphs.graph.Graph`
is immutable, schedulers snapshot its CSR arrays at construction, and
the three execution kernels never revisit the topology.  The ROADMAP's
"dynamic and adversarial scenarios" item breaks the assumption on
purpose — probing how robust DIV's mean-preserving convergence is when
the communication topology rewires underneath it.

:class:`Substrate` is the explicit contract that replaces the implicit
static one:

* it wraps the *current* :class:`Graph` plus an optional
  :class:`ChurnPlan` — a deterministic, seeded schedule of
  degree-preserving edge rewirings at fixed step numbers;
* time between two consecutive rewiring steps is an **epoch**.  Within
  an epoch the graph is immutable exactly as before; at an epoch
  boundary the substrate swaps in a rewired graph and increments its
  :attr:`epoch` counter;
* schedulers cache per-epoch arrays (degrees, edge lists) keyed by that
  counter and must :meth:`~repro.core.schedulers.VertexScheduler.rebuild`
  when it advances; drawing from a stale cache raises a loud
  :class:`~repro.errors.ProcessError` instead of silently sampling the
  dead topology;
* the execution kernels clip every scheduler block at the next epoch
  boundary (the same clipping they already do for sampled-observer due
  steps), so all kernels draw identical block sizes at identical steps
  and the RNG stream — and therefore every outcome — stays bit-for-bit
  kernel-independent on dynamic substrates too (see
  ``docs/scenarios.md``).

Churn is intentionally *degree-preserving* (double-edge swaps): vertex
degrees, ``2m`` and the stationary measure are all invariants of the
plan, so both asynchronous processes stay well-defined across every
epoch and the vertex process never strands a vertex without neighbours.
The rewiring RNG is a **private stream** derived from the plan's seed —
it never touches the engine generator, which is what keeps scheduler
draws identical whether or not churn is active at other steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ProcessError
from repro.graphs.graph import Graph
from repro.rng import make_rng


@dataclass(frozen=True)
class ChurnPlan:
    """A deterministic schedule of degree-preserving edge rewirings.

    Attributes
    ----------
    period:
        Steps between consecutive rewiring events: the graph rewires
        just before steps ``period, 2·period, ...`` are drawn, i.e.
        pairs for step ``period + 1`` onward see the new topology.
    swaps:
        Double-edge-swap *attempts* per event.  Each attempt picks two
        distinct edges and a random orientation and rewires them iff the
        result stays a simple graph; failed attempts are skipped, so the
        realized swap count can be lower.
    seed:
        Seed of the plan's private rewiring stream.  Two substrates
        built from equal plans evolve identically — per-trial
        reproducibility therefore derives churn seeds from the trial
        seed, exactly like the engine RNG.
    events:
        Total number of rewiring events, or ``None`` for an unbounded
        plan.  After the last event the substrate is static again.
    """

    period: int
    swaps: int
    seed: int
    events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ProcessError(f"churn period must be >= 1, got {self.period}")
        if self.swaps < 1:
            raise ProcessError(f"churn swaps must be >= 1, got {self.swaps}")
        if self.events is not None and self.events < 0:
            raise ProcessError(f"churn events must be >= 0, got {self.events}")


def rewire_edges(graph: Graph, rng: np.random.Generator, swaps: int) -> Graph:
    """One churn event: ``swaps`` double-edge-swap attempts on ``graph``.

    A double edge swap replaces edges ``{a, b}, {c, d}`` by
    ``{a, d}, {c, b}`` — every vertex keeps its degree.  An attempt is
    skipped (not retried) when it would create a self-loop or a
    duplicate edge, so the procedure is a deterministic function of the
    generator state.  Returns a new :class:`Graph` iff some attempt was
    accepted; the input is never mutated.

    Cost model: attempts index slots of ``graph.edge_array`` and test
    membership by binary search in the sorted CSR rows of ``graph``
    plus a small overlay of this event's own edits — O(swaps·log d),
    no Python work over all ``m`` edges.  The next epoch's graph then
    re-sorts only the touched rows and merges the changed edges into
    ``edge_array`` (``Graph._with_swapped_edges``: O(swaps·(d + log m))
    plus copying both arrays), so it equals ``Graph(n, edges)`` array
    for array and the next event samples the same slots a full rebuild
    would.
    """
    m = graph.m
    if m < 2:
        return graph
    base = graph.edge_array
    indptr, indices = graph.indptr, graph.indices
    slots = {}  # edge_array slot -> this event's edge in it
    overlay = {}  # edge -> whether present, for edges this event edited

    def present(edge):
        known = overlay.get(edge)
        if known is not None:
            return known
        u, v = edge
        lo, hi = indptr.item(u), indptr.item(u + 1)
        k = lo + indices[lo:hi].searchsorted(v)
        return k < hi and indices.item(k) == v

    for _ in range(swaps):
        i, j = rng.integers(0, m, size=2).tolist()
        flip = int(rng.integers(0, 2))
        if i == j:
            continue
        a, b = slots.get(i) or base[i].tolist()
        c, d = slots.get(j) or base[j].tolist()
        if flip:
            c, d = d, c
        # Propose {a, d} and {c, b}.
        if a == d or c == b:
            continue
        e1 = (min(a, d), max(a, d))
        e2 = (min(c, b), max(c, b))
        if e1 == e2 or present(e1) or present(e2):
            continue
        overlay[(a, b)] = False
        overlay[(min(c, d), max(c, d))] = False
        overlay[e1] = True
        overlay[e2] = True
        slots[i] = e1
        slots[j] = e2
    if not slots:
        return graph
    before = {tuple(base[i].tolist()) for i in slots}
    after = set(slots.values())
    removed = np.array(sorted(before - after), dtype=np.int64).reshape(-1, 2)
    added = np.array(sorted(after - before), dtype=np.int64).reshape(-1, 2)
    return graph._with_swapped_edges(removed, added)


class Substrate:
    """The current graph plus the epoch bookkeeping of its evolution.

    A substrate built without a plan (or via :func:`as_substrate` from a
    bare :class:`Graph`) is *static*: :attr:`epoch` stays 0 and
    :meth:`next_boundary` always returns ``None``, so every existing
    static-graph code path runs unchanged and unclipped.

    A substrate is single-run state: the engine advances it in place as
    the step counter crosses rewiring events.  Build a fresh one per run
    (cheap — construction does no rewiring) exactly like a fresh
    :class:`~repro.core.state.OpinionState`.
    """

    __slots__ = ("_graph", "_churn", "_epoch", "_rng", "_applied")

    def __init__(self, graph: Graph, churn: Optional[ChurnPlan] = None) -> None:
        self._graph = graph
        self._churn = churn
        self._epoch = 0
        # Private stream: rewiring must never consume engine randomness,
        # or scheduler draws would shift relative to a churn-free run.
        self._rng = make_rng(churn.seed) if churn is not None else None
        self._applied = 0  # rewiring events applied so far

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The current-epoch graph (immutable, swapped at boundaries)."""
        return self._graph

    @property
    def churn(self) -> Optional[ChurnPlan]:
        """The rewiring schedule, or ``None`` for a static substrate."""
        return self._churn

    @property
    def epoch(self) -> int:
        """Number of rewiring events applied so far (cache version key)."""
        return self._epoch

    @property
    def is_static(self) -> bool:
        """Whether the graph can still change at a future step."""
        if self._churn is None:
            return True
        events = self._churn.events
        return events is not None and self._applied >= events

    def next_boundary(self, step: int) -> Optional[int]:
        """The first step strictly after ``step`` at which the graph changes.

        Execution kernels clip scheduler blocks here: a block drawn at
        ``step`` may cover at most ``next_boundary(step) - step`` pairs,
        which keeps every kernel's ``draw_block`` sizes — and hence the
        shared RNG stream — identical on dynamic substrates.  ``None``
        means the substrate is static from ``step`` on.
        """
        if self.is_static:
            return None
        period = self._churn.period
        boundary = (step // period + 1) * period
        if self._churn.events is not None:
            last = self._churn.events * period
            if boundary > last:
                return None
        return boundary

    # ------------------------------------------------------------------
    # Mutation (engine-driven)
    # ------------------------------------------------------------------
    def advance_to(self, step: int) -> bool:
        """Apply every rewiring event scheduled at or before ``step``.

        Idempotent per step; returns ``True`` iff the graph object was
        swapped (callers then rebind states and rebuild scheduler
        caches).  Events are applied in order even when ``step`` jumps
        several boundaries at once, so the graph trajectory is a
        function of the plan alone, never of caller cadence.
        """
        if self._churn is None:
            return False
        due = step // self._churn.period
        if self._churn.events is not None:
            due = min(due, self._churn.events)
        swapped = False
        while self._applied < due:
            rewired = rewire_edges(self._graph, self._rng, self._churn.swaps)
            if rewired is not self._graph:
                # The epoch counter versions scheduler caches, so it
                # only advances when the topology really changed — an
                # all-attempts-rejected event keeps caches valid.
                self._graph = rewired
                self._epoch += 1
                swapped = True
            self._applied += 1
        return swapped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        plan = "static" if self._churn is None else repr(self._churn)
        return f"Substrate({self._graph.name}, epoch={self._epoch}, {plan})"


SubstrateLike = Union[Graph, Substrate]


def as_substrate(source: SubstrateLike) -> Substrate:
    """Coerce a :class:`Graph` (static) or pass a :class:`Substrate` through."""
    if isinstance(source, Substrate):
        return source
    if isinstance(source, Graph):
        return Substrate(source)
    raise ProcessError(f"cannot interpret {source!r} as a substrate")
