"""Interaction schedulers: who talks to whom at each asynchronous step.

The paper defines two asynchronous selection rules (§1, "Definition of
process"):

* **vertex process** — a uniform vertex ``v`` then a uniform neighbour
  ``w`` of ``v``; ``P(v chooses w) = 1 / (n · d(v))``, eq. (2);
* **edge process** — a uniform edge then a uniform endpoint as ``v``;
  ``P(v chooses w) = 1 / 2m``.

Schedulers draw interaction pairs in blocks to amortize RNG overhead;
the simulation engines consume one pair per step.

Every scheduler is built over a :class:`~repro.core.substrate.Substrate`
(a bare :class:`Graph` is coerced to a static one) and caches the
per-epoch CSR arrays it samples from.  On a dynamic substrate the
execution kernels call :meth:`rebuild` at every epoch boundary; drawing
from a cache whose epoch no longer matches the substrate raises a loud
:class:`~repro.errors.ProcessError` — silently sampling a dead topology
was a latent bug of the construction-time snapshots this replaces.

Beyond the paper's two neutral rules, this module ships two *probe*
schedulers for the ROADMAP's adversarial scenarios —
:class:`BiasedScheduler` and :class:`AdversarialScheduler`.  Both read
the live :class:`~repro.core.state.OpinionState` they are bound to, and
both are deterministic functions of (seeded RNG, state): since every
execution kernel draws whole scheduler blocks at identical step counts
against identical states, state-dependent schedulers keep the
bit-for-bit kernel-equivalence guarantee (see ``docs/scenarios.md``).
A scheduler that reads the state must expose it as its ``state``
attribute: the per-pair core of the loop and compiled kernels keeps
its own copy of the opinions and commits it to that state before each
of the scheduler's draws.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

import numpy as np

from repro.core.state import OpinionState
from repro.core.substrate import Substrate, SubstrateLike, as_substrate
from repro.errors import ProcessError
from repro.graphs.graph import Graph


class Scheduler(Protocol):
    """Draws blocks of (updating vertex, observed neighbour) pairs."""

    graph: Graph
    substrate: Substrate

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return arrays ``(v, w)`` of ``size`` interaction pairs."""
        ...  # pragma: no cover - protocol

    def rebuild(self) -> None:
        """Refresh per-epoch caches after the substrate crossed a boundary."""
        ...  # pragma: no cover - protocol


class _EpochCached:
    """Shared epoch bookkeeping: cache versioning plus the staleness guard."""

    def __init__(self, source: SubstrateLike) -> None:
        self.substrate = as_substrate(source)
        self.rebuild()

    @property
    def graph(self) -> Graph:
        """The substrate's current-epoch graph."""
        return self.substrate.graph

    def rebuild(self) -> None:
        """Re-snapshot the sampling arrays from the current epoch's graph."""
        self._rebuild(self.substrate.graph)
        self._epoch = self.substrate.epoch

    def _rebuild(self, graph: Graph) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check_epoch(self) -> None:
        """Refuse to sample a topology the substrate already replaced."""
        if self._epoch != self.substrate.epoch:
            raise ProcessError(
                f"stale scheduler cache: {type(self).__name__} snapshotted "
                f"epoch {self._epoch} but the substrate is at epoch "
                f"{self.substrate.epoch}; call rebuild() after every "
                f"substrate mutation (the execution kernels do this at "
                f"epoch boundaries)"
            )


class _NeighbourSampler(_EpochCached):
    """Epoch cache of the vertex-process family: ``v`` then a uniform neighbour."""

    _degrees: Optional[np.ndarray] = None

    def _rebuild(self, graph: Graph) -> None:
        # Churn shares one degrees array across epochs, so after the
        # first check an epoch rebuild is a pointer swap.
        if graph.degrees is not self._degrees:
            if graph.m == 0 or np.any(graph.degrees == 0):
                raise ProcessError("the vertex process needs every vertex to have a neighbour")
            self._degrees = graph.degrees
        self._cached = graph

    def _neighbours(self, rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
        """A uniform neighbour of each vertex in ``v``."""
        graph = self._cached
        offsets = rng.integers(0, self._degrees[v])
        return graph.indices[graph.indptr[v] + offsets]


class VertexScheduler(_NeighbourSampler):
    """The asynchronous vertex process: uniform vertex, uniform neighbour."""

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._check_epoch()
        v = rng.integers(0, self._cached.n, size=size)
        return v, self._neighbours(rng, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexScheduler({self.graph.name})"


class EdgeScheduler(_EpochCached):
    """The asynchronous edge process: uniform edge, uniform endpoint."""

    def _rebuild(self, graph: Graph) -> None:
        if graph.m == 0:
            raise ProcessError("the edge process needs at least one edge")
        self._cached = graph
        self._edges = graph.edge_array

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._check_epoch()
        edge_ids = rng.integers(0, self._cached.m, size=size)
        sides = rng.integers(0, 2, size=size)
        endpoints = self._edges[edge_ids]
        v = endpoints[np.arange(size), sides]
        w = endpoints[np.arange(size), 1 - sides]
        return v, w

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeScheduler({self.graph.name})"


class BiasedScheduler(_NeighbourSampler):
    """A vertex process whose updating vertex is biased toward extremes.

    The updating vertex ``v`` is drawn with probability proportional to
    ``1 + bias · dist(v)`` where ``dist(v) ∈ [0, 1]`` is ``X_v``'s
    normalized distance from the centre of the current opinion range;
    the observed neighbour stays uniform.  ``bias > 0`` *targets*
    extreme holders (updating them erodes the extreme classes faster);
    ``bias < 0`` (down to -1) shelters them, starving the contraction
    argument of Lemma 4 — the regime E19 probes.

    The scheduler must be bound to the engine's live state; it reads the
    opinions at every ``draw_block``, i.e. the bias reacts at block
    granularity.  All randomness comes from the engine generator, so
    draws are deterministic given the seed — and identical across
    execution kernels, which draw blocks at identical steps against
    identical states.
    """

    def __init__(
        self, source: SubstrateLike, state: OpinionState, bias: float = 1.0
    ) -> None:
        if bias < -1.0:
            raise ProcessError(f"bias must be >= -1 (got {bias}): "
                               "weights 1 + bias·dist must stay non-negative")
        self.state = state
        self.bias = float(bias)
        super().__init__(source)

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._check_epoch()
        graph = self._cached
        state = self.state
        lo = state.min_opinion
        hi = state.max_opinion
        if hi == lo or self.bias == 0.0:
            v = rng.integers(0, graph.n, size=size)
        else:
            values = state.values
            # dist(v) = |X_v - centre| / (half range), in [0, 1].
            dist = np.abs(2.0 * values - (lo + hi)) / float(hi - lo)
            weights = 1.0 + self.bias * dist
            p = weights / weights.sum()
            v = rng.choice(graph.n, size=size, p=p)
        return v, self._neighbours(rng, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BiasedScheduler({self.graph.name}, bias={self.bias})"


class AdversarialScheduler(_NeighbourSampler):
    """A worst-case probe: interior vertices are shown extreme neighbours.

    Starts from a plain vertex-process draw; then, independently with
    probability ``strength`` per pair, replaces the observed neighbour
    ``w`` by the neighbour of ``v`` whose opinion is *farthest from the
    centre* of the current range — on ties, the first such neighbour in
    ``v``'s sorted CSR row, i.e. the smallest vertex id.  Under
    DIV this maximally re-inflates the range — each redirected
    interaction pulls ``v`` toward an extreme — making it the natural
    adversary for the extreme-contraction stage (Lemma 4 / E13).

    Like :class:`BiasedScheduler` this is bound to the live state and
    fully deterministic given the engine seed: the redirect decision
    consumes engine randomness, the redirect target is a deterministic
    function of the state, and every kernel sees the same state at every
    block draw.

    All redirects of a block are resolved in one vectorised segmented
    pass over the CSR rows of the redirected vertices (see
    :meth:`_most_extreme_neighbour`), so the probe costs about as much
    as a plain vertex-process draw.
    """

    def __init__(
        self, source: SubstrateLike, state: OpinionState, strength: float = 0.5
    ) -> None:
        if not 0.0 <= strength <= 1.0:
            raise ProcessError(f"strength must be in [0, 1], got {strength}")
        self.state = state
        self.strength = float(strength)
        super().__init__(source)

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._check_epoch()
        v = rng.integers(0, self._cached.n, size=size)
        w = self._neighbours(rng, v)
        if self.strength > 0.0:
            hits = np.flatnonzero(rng.random(size) < self.strength)
            if hits.size:
                w[hits] = self._most_extreme_neighbour(v[hits])
        return v, w

    def _most_extreme_neighbour(self, v: np.ndarray) -> np.ndarray:
        """Each vertex's neighbour farthest from the centre of the range.

        One segmented pass over the CSR rows of ``v``: the rows are
        gathered end to end, ``np.maximum.reduceat`` takes each row's
        largest ``|2·x - centre|``, and the first slot of each row
        attaining it is picked — ``argmax``'s tie rule, so the first
        such neighbour in the sorted row wins.
        """
        graph = self._cached
        state = self.state
        extremity = np.abs(2 * state.values - (state.min_opinion + state.max_opinion))
        lens = self._degrees[v]
        starts = np.cumsum(lens) - lens
        total = int(starts[-1] + lens[-1])
        nbrs = graph.indices[np.repeat(graph.indptr[v] - starts, lens) + np.arange(total)]
        row_extremity = extremity[nbrs]
        peak = np.maximum.reduceat(row_extremity, starts)
        # Every row attains its own peak, so the first hit at or after a
        # row's start lies in that row.
        hits = np.flatnonzero(row_extremity == np.repeat(peak, lens))
        return nbrs[hits[hits.searchsorted(starts)]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdversarialScheduler({self.graph.name}, strength={self.strength})"


def make_scheduler(
    source: SubstrateLike,
    process: str,
    *,
    state: Optional[OpinionState] = None,
    strength: Optional[float] = None,
) -> Scheduler:
    """Build the scheduler for a process name.

    ``"vertex"`` and ``"edge"`` are the paper's neutral rules and need
    no state.  ``"biased"`` and ``"adversarial"`` are the scenario
    probes; they require ``state`` (the engine's live state) and accept
    ``strength`` — the bias coefficient for ``"biased"``, the redirect
    probability for ``"adversarial"``.
    """
    if process == "vertex":
        return VertexScheduler(source)
    if process == "edge":
        return EdgeScheduler(source)
    if process in ("biased", "adversarial"):
        if state is None:
            raise ProcessError(
                f"the {process!r} scheduler reads the live opinion state; "
                f"pass state=..."
            )
        if process == "biased":
            kwargs = {} if strength is None else {"bias": strength}
            return BiasedScheduler(source, state, **kwargs)
        kwargs = {} if strength is None else {"strength": strength}
        return AdversarialScheduler(source, state, **kwargs)
    raise ProcessError(
        f"unknown process {process!r}; expected 'vertex', 'edge', "
        f"'biased' or 'adversarial'"
    )
