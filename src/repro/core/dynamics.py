"""Update rules (dynamics) for the asynchronous engines.

A *dynamic* consumes one interaction pair per step and mutates the
:class:`OpinionState` through :meth:`OpinionState.apply`. The package's
primary contribution is :class:`IncrementalVoting` (eq. (1) of the
paper); the rest are the comparison dynamics the paper discusses.

All dynamics implement::

    step(state, v, w, rng) -> bool   # True iff any opinion changed

``rng`` is used by dynamics that need extra neighbour samples (median
voting, best-of-k).

Dynamics whose update depends only on the pair ``(X_v, X_w)`` — DIV,
pull and push — additionally implement :meth:`Dynamics.step_block`, a
vectorized *proposal* over a conflict-free segment of interaction pairs.
The block execution kernel (:mod:`repro.core.kernels`) uses it to apply
whole scheduler segments in one numpy pass; dynamics without it (those
drawing per-step RNG or polling whole neighbourhoods) transparently run
on the per-step loop kernel instead.

Substrate contract (``docs/scenarios.md``): every dynamic treats a
frozen (zealot) target as a no-change step — the scalar ``step`` checks
:meth:`OpinionState.is_frozen` before writing and ``step_block`` routes
its proposal mask through :meth:`OpinionState.writable` — so change
counters, change observers and stopping checks stay bit-identical
across execution kernels.  A dynamic that advertises the vectorized or
compiled fast paths (``step_block`` / ``compiled_id``) must *declare*
that it honours this contract via a class-level ``substrate_compat``
tuple naming the scenario features it supports (``"frozen"``,
``"churn"``); :func:`repro.core.kernels.resolve_kernel` degrades an
undeclared dynamic to the loop kernel whenever a scenario feature is
active, and the KER005 project-lint rule rejects fast-path dynamics
with no declaration at all.
"""

from __future__ import annotations

from typing import Protocol, Tuple

import numpy as np

from repro.core.state import OpinionState
from repro.errors import ProcessError


#: The scenario features a fully substrate-aware dynamic declares: it
#: masks frozen targets in every execution path ("frozen") and reads no
#: cross-epoch topology snapshots ("churn").
SUBSTRATE_FEATURES = ("frozen", "churn")


class Dynamics(Protocol):
    """One asynchronous update rule."""

    name: str

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        """Apply one interaction where ``v`` observes ``w``."""
        ...  # pragma: no cover - protocol


def supports_substrate(dynamics: Dynamics, feature: str) -> bool:
    """Whether ``dynamics`` declares support for a scenario ``feature``.

    Features are ``"frozen"`` (zealot masks) and ``"churn"`` (epoch
    rewiring); see :data:`SUBSTRATE_FEATURES`.  Undeclared dynamics run
    such scenarios on the loop kernel's per-step path only — exact,
    just not vectorized (see :func:`repro.core.kernels.resolve_kernel`).
    """
    return feature in getattr(dynamics, "substrate_compat", ())


class BlockDynamics(Dynamics, Protocol):
    """A dynamic that can propose updates for a whole segment at once.

    ``step_block`` must be *pure* (it reads the state but never mutates
    it) and RNG-free; applying its proposal through
    :meth:`OpinionState.apply_block` must be bit-identical to running
    :meth:`Dynamics.step` over the segment sequentially, which holds
    whenever the segment is conflict-free (no vertex appears twice
    across the ``v`` and ``w`` arrays).
    """

    def step_block(
        self, state: OpinionState, v: np.ndarray, w: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Propose the updates of one conflict-free segment.

        Returns ``(changed, targets, new_values)``: a boolean mask over
        the segment positions marking the steps that change an opinion,
        plus the written vertex and its new value for each changed
        position (both aligned with ``changed``'s true entries, in
        segment order).
        """
        ...  # pragma: no cover - protocol


class IncrementalVoting:
    """Discrete incremental voting — eq. (1) of the paper.

    ``v`` moves one unit toward ``w``'s opinion:
    ``X'_v = X_v + sign(X_w - X_v)``. The observed vertex ``w`` never
    changes.
    """

    name = "div"
    #: Dispatch code for the per-pair core the loop and compiled
    #: kernels share (see ``repro.core.kernels.pairs``): 0 = move one
    #: unit toward the observed value. Only meaningful for RNG-free pairwise
    #: dynamics whose update depends on ``(X_v, X_w)`` alone.
    compiled_id = 0
    #: Scenario features honoured on every execution path (KER005).
    substrate_compat = SUBSTRATE_FEATURES

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        xv = state.value(v)
        xw = state.value(w)
        if xw == xv or state.is_frozen(v):
            return False
        state.apply(v, xv + 1 if xw > xv else xv - 1)
        return True

    def step_block(
        self, state: OpinionState, v: np.ndarray, w: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized eq. (1) over a conflict-free segment."""
        values = state.values
        xv = values[v]
        moves = np.sign(values[w] - xv)
        changed = state.writable(v, moves != 0)
        return changed, v[changed], xv[changed] + moves[changed]


class PullVoting:
    """Classic pull voting: ``v`` adopts ``w``'s opinion wholesale."""

    name = "pull"
    #: Compiled-kernel dispatch code: 1 = ``v`` adopts ``X_w``.
    compiled_id = 1
    substrate_compat = SUBSTRATE_FEATURES

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        xv = state.value(v)
        xw = state.value(w)
        if xw == xv or state.is_frozen(v):
            return False
        state.apply(v, xw)
        return True

    def step_block(
        self, state: OpinionState, v: np.ndarray, w: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized pull over a conflict-free segment."""
        values = state.values
        xw = values[w]
        changed = state.writable(v, xw != values[v])
        return changed, v[changed], xw[changed]


class PushVoting:
    """Push voting: ``v`` imposes its opinion on the sampled neighbour ``w``."""

    name = "push"
    #: Compiled-kernel dispatch code: 2 = ``w`` adopts ``X_v``.
    compiled_id = 2
    substrate_compat = SUBSTRATE_FEATURES

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        xv = state.value(v)
        xw = state.value(w)
        if xw == xv or state.is_frozen(w):
            return False
        state.apply(w, xv)
        return True

    def step_block(
        self, state: OpinionState, v: np.ndarray, w: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized push over a conflict-free segment (writes ``w``)."""
        values = state.values
        xv = values[v]
        changed = state.writable(w, values[w] != xv)
        return changed, w[changed], xv[changed]


class MedianVoting:
    """Median voting (Doerr et al., SPAA 2011).

    ``v`` samples a second uniform neighbour ``u`` and replaces its value
    by ``median(X_v, X_w, X_u)``. Converges to ≈ the median of the
    initial values; the paper contrasts this with DIV's mean.
    """

    name = "median"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        if state.is_frozen(v):
            return False
        graph = state.graph
        neighbors = graph.neighbors(v)
        u = int(neighbors[rng.integers(0, neighbors.size)])
        xv = state.value(v)
        values = sorted((xv, state.value(w), state.value(u)))
        new_value = values[1]
        if new_value != xv:
            state.apply(v, new_value)
            return True
        return False


class BestOfTwo:
    """Two-choices dynamics: adopt the sampled value iff two samples agree.

    ``v`` samples a second uniform neighbour ``u``; if ``X_w == X_u`` it
    adopts that value, otherwise it keeps its own.
    """

    name = "best_of_two"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        if state.is_frozen(v):
            return False
        graph = state.graph
        neighbors = graph.neighbors(v)
        u = int(neighbors[rng.integers(0, neighbors.size)])
        xw = state.value(w)
        if xw == state.value(u) and xw != state.value(v):
            state.apply(v, xw)
            return True
        return False


class BestOfThree:
    """3-majority dynamics: adopt the majority of three neighbour samples.

    ``v`` samples two additional uniform neighbours; if at least two of
    the three samples agree, ``v`` adopts that value, otherwise it adopts
    the first sample (the standard random tie-break of the 3-majority
    literature).
    """

    name = "best_of_three"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        if state.is_frozen(v):
            return False
        graph = state.graph
        neighbors = graph.neighbors(v)
        picks = rng.integers(0, neighbors.size, size=2)
        a = state.value(w)
        b = state.value(int(neighbors[picks[0]]))
        c = state.value(int(neighbors[picks[1]]))
        if a == b or a == c:
            new_value = a
        elif b == c:
            new_value = b
        else:
            new_value = a
        if new_value != state.value(v):
            state.apply(v, new_value)
            return True
        return False


class LocalMajority:
    """Asynchronous local majority polling (cf. [1, 21] in the paper).

    The selected vertex adopts the opinion held by the largest number of
    its neighbours (its sampled neighbour ``w`` is ignored — the rule
    polls the whole neighbourhood). Ties keep the current opinion if it
    is among the tied values, otherwise the smallest tied value wins.
    A deterministic-per-step contrast to the sampling dynamics.
    """

    name = "local_majority"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        if state.is_frozen(v):
            return False
        neighbors = state.graph.neighbors(v)
        values = state.values[neighbors]
        candidates, counts = np.unique(values, return_counts=True)
        best = counts.max()
        tied = candidates[counts == best]
        xv = state.value(v)
        new_value = xv if xv in tied else int(tied.min())
        if new_value != xv:
            state.apply(v, new_value)
            return True
        return False


class LoadBalancing:
    """Edge-averaging load balancing (Berenbrink et al., IPDPS 2019).

    The endpoints of the selected edge set their loads to
    ``⌊(a+b)/2⌋`` and ``⌈(a+b)/2⌉``. The endpoint with the smaller prior
    load receives the floor (ties keep both unchanged), which avoids the
    degenerate churn of swapping adjacent loads back and forth. Unlike
    DIV this is a *coordinated two-vertex update*, the coordination cost
    the paper's one-sided rule avoids — and it conserves ``S(t)``
    exactly.
    """

    name = "load_balancing"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        # A coordinated two-vertex update needs both endpoints writable;
        # a zealot on either side vetoes the whole exchange (averaging
        # against an unmovable load would not conserve S(t)).
        if state.is_frozen(v) or state.is_frozen(w):
            return False
        a = state.value(v)
        b = state.value(w)
        if abs(a - b) <= 1:
            return False
        total = a + b
        lo, hi = total // 2, (total + 1) // 2
        if a <= b:
            state.apply(v, lo)
            state.apply(w, hi)
        else:
            state.apply(v, hi)
            state.apply(w, lo)
        return True


class NoisyDynamics:
    """Communication-noise wrapper around any pairwise dynamics.

    Models two standard message faults, decided independently per step
    from the engine generator:

    * with probability ``drop`` the interaction is lost outright (the
      step changes nothing);
    * otherwise, with probability ``misread``, ``v`` misreads its
      sampled neighbour and the inner rule runs against a uniformly
      random vertex instead (a garbled sender identity — the received
      value need not even come from ``v``'s neighbourhood).

    Because every step consumes RNG for the fault decision, there is no
    conflict-free vectorized form: the wrapper deliberately implements
    neither ``step_block`` nor ``compiled_id``, so
    :func:`repro.core.kernels.resolve_kernel` degrades any block or
    compiled request down to the loop kernel and records the
    degradation on ``RunResult.kernel`` — the designed behaviour for
    contract-breaking combinations, not an error (E19 asserts it).
    """

    def __init__(self, inner, drop: float = 0.0, misread: float = 0.0) -> None:
        if not 0.0 <= drop <= 1.0:
            raise ProcessError(f"drop must be in [0, 1], got {drop}")
        if not 0.0 <= misread <= 1.0:
            raise ProcessError(f"misread must be in [0, 1], got {misread}")
        self.inner = make_dynamics(inner)
        self.drop = float(drop)
        self.misread = float(misread)
        self.name = f"noisy({self.inner.name})"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        u = rng.random()
        if u < self.drop:
            return False
        if u < self.drop + self.misread:
            w = int(rng.integers(0, state.n))
            if w == v:  # a self-misread carries no information
                return False
        return self.inner.step(state, v, w, rng)


_NAMED = {
    cls.name: cls
    for cls in (
        IncrementalVoting,
        PullVoting,
        PushVoting,
        MedianVoting,
        BestOfTwo,
        BestOfThree,
        LocalMajority,
        LoadBalancing,
    )
}


def make_dynamics(spec) -> Dynamics:
    """Resolve a dynamic from its name, or pass an instance through."""
    if isinstance(spec, str):
        try:
            return _NAMED[spec]()
        except KeyError:
            known = ", ".join(sorted(_NAMED))
            raise ProcessError(f"unknown dynamics {spec!r}; known: {known}") from None
    if hasattr(spec, "step"):
        return spec
    raise ProcessError(f"cannot interpret {spec!r} as a dynamics")
