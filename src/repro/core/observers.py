"""Observers: instrumentation hooks for the asynchronous engines.

Two kinds of hook keep instrumented runs fast:

* *sampled* observers implement ``sample(step, state)`` and declare an
  ``interval``; the engine calls them every ``interval`` steps (and at
  step 0 and at the final step);
* *change* observers implement ``on_change(step, v, w, state)`` and are
  called only on steps where an opinion actually changed, with the
  interaction pair ``(v, w)`` of that step.

Un-instrumented runs pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Protocol, Tuple, Union, runtime_checkable

import numpy as np

from repro.core.state import OpinionState
from repro.core.stopping import support_range_terms
from repro.errors import ProcessError

#: Interval so large that sampled hooks fire only at step 0 and the end.
ENDPOINTS_ONLY = 1 << 62


def validate_interval(interval: int, *, owner: str = "observer") -> int:
    """Validate a sample interval (must be ``>= 1``); returns it as int.

    A non-positive interval would silently re-arm a sampled observer to
    a step in the past, making it fire on *every* step (or never
    terminate in round-based engines).  The trace constructors and both
    engines reject it loudly through this single path, so an interval
    typo can never silently degrade a run to per-step sampling.
    """
    interval = int(interval)
    if interval <= 0:
        raise ProcessError(
            f"observer {owner} has non-positive sample "
            f"interval {interval}; intervals must be >= 1"
        )
    return interval


def resolve_interval(observer: object) -> int:
    """The validated sample interval of ``observer`` (default 1)."""
    return validate_interval(
        getattr(observer, "interval", 1), owner=type(observer).__name__
    )


class TraceBuffer:
    """Growable preallocated array the trace observers append into.

    The engines call ``sample`` on every due step, so per-sample Python
    list appends used to dominate trace memory at paper scale (a boxed
    ``int``/``float`` plus list slot per sample).  A ``TraceBuffer``
    stores samples unboxed in a preallocated numpy array that doubles
    geometrically — O(log n) allocations for n samples, no per-sample
    allocation once warm.

    Reads are sequence-like: ``len``, indexing, iteration, equality
    against any sequence, and ``np.asarray(buf)`` is a zero-copy view of
    the filled prefix (so existing ``np.array([t.weights ...])``
    consumers keep working).  Buffers pickle with their contents, which
    the parallel trial layer relies on.
    """

    __slots__ = ("_buf", "_size")

    def __init__(self, dtype=np.float64, capacity: int = 64) -> None:
        self._buf = np.empty(max(int(capacity), 1), dtype=dtype)
        self._size = 0

    def append(self, value) -> None:
        """Append one sample (amortized O(1), no allocation once warm)."""
        if self._size == self._buf.size:
            grown = np.empty(2 * self._buf.size, dtype=self._buf.dtype)
            grown[: self._size] = self._buf
            self._buf = grown
        self._buf[self._size] = value
        self._size += 1

    @property
    def values(self) -> np.ndarray:
        """Read-only zero-copy view of the filled prefix."""
        view = self._buf[: self._size].view()
        view.setflags(write=False)
        return view

    @property
    def capacity(self) -> int:
        """Current allocated slots (grows geometrically, never shrinks)."""
        return int(self._buf.size)

    def tolist(self) -> list:
        return self._buf[: self._size].tolist()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        arr = self._buf[: self._size]
        if dtype is not None and arr.dtype != np.dtype(dtype):
            return arr.astype(dtype)
        return arr

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._buf[: self._size][index]

    def __iter__(self) -> Iterator:
        return iter(self._buf[: self._size].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceBuffer):
            return bool(np.array_equal(self.values, other.values))
        if isinstance(other, np.ndarray):
            return self.values.shape == other.shape and bool(
                np.array_equal(self.values, other)
            )
        if isinstance(other, (list, tuple)):
            # Python-level compare so pytest.approx members keep working.
            return self.tolist() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable container

    def __getstate__(self) -> Tuple[np.ndarray, int]:
        return (self._buf[: self._size].copy(), self._size)

    def __setstate__(self, state: Tuple[np.ndarray, int]) -> None:
        self._buf, self._size = state
        if self._buf.size == 0:  # keep append()'s doubling well-defined
            self._buf = np.empty(1, dtype=self._buf.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceBuffer({self.tolist()!r})"


@runtime_checkable
class SampledObserver(Protocol):
    """Called every ``interval`` steps with the current state."""

    interval: int

    def sample(self, step: int, state: OpinionState) -> None:
        ...  # pragma: no cover - protocol


@runtime_checkable
class ChangeObserver(Protocol):
    """Called on every step whose interaction changed some opinion."""

    def on_change(self, step: int, v: int, w: int, state: OpinionState) -> None:
        ...  # pragma: no cover - protocol


#: What the engines accept in an ``observers`` sequence: anything
#: implementing the sampled hook, the change hook, or both.
EngineObserver = Union[SampledObserver, ChangeObserver]


class WeightTrace:
    """Records the total weight ``W(t)`` every ``interval`` steps.

    ``W`` is ``S(t)`` for the edge process and ``Z(t)`` for the vertex
    process (Lemma 3); the martingale experiment E5 feeds these traces to
    the Azuma envelope check.
    """

    def __init__(self, process: str, interval: int = 1) -> None:
        self.process = process
        self.interval = validate_interval(interval, owner=type(self).__name__)
        self.steps = TraceBuffer(dtype=np.int64)
        self.weights = TraceBuffer(dtype=np.float64)

    def sample(self, step: int, state: OpinionState) -> None:
        self.steps.append(step)
        self.weights.append(state.total_weight(self.process))


class SupportTrace:
    """Records ``(support size, min, max)`` every ``interval`` steps."""

    def __init__(self, interval: int = 1) -> None:
        self.interval = validate_interval(interval, owner=type(self).__name__)
        self.steps = TraceBuffer(dtype=np.int64)
        self.sizes = TraceBuffer(dtype=np.int64)
        self.mins = TraceBuffer(dtype=np.int64)
        self.maxs = TraceBuffer(dtype=np.int64)

    def sample(self, step: int, state: OpinionState) -> None:
        self.steps.append(step)
        self.sizes.append(state.support_size)
        self.mins.append(state.min_opinion)
        self.maxs.append(state.max_opinion)


class EpochTrace:
    """Records the substrate epoch alongside each sample (churn scenarios).

    Bound to the run's :class:`~repro.core.substrate.Substrate`, it
    captures ``(step, epoch)`` every ``interval`` steps — the post-hoc
    record of *when* the topology rewired under the run.  E18 pairs it
    with a :class:`WeightTrace` to attribute martingale drift to epoch
    boundaries.  (The substrate advances between scheduler blocks, so a
    sample at step ``t`` reports the epoch whose graph drew step ``t``'s
    pair.)
    """

    def __init__(self, substrate, interval: int = 1) -> None:
        self.substrate = substrate
        self.interval = validate_interval(interval, owner=type(self).__name__)
        self.steps = TraceBuffer(dtype=np.int64)
        self.epochs = TraceBuffer(dtype=np.int64)

    def sample(self, step: int, state: OpinionState) -> None:
        self.steps.append(step)
        self.epochs.append(self.substrate.epoch)


class OpinionCountsTrace:
    """Records the full ``opinion -> count`` histogram every ``interval`` steps."""

    def __init__(self, interval: int = 1) -> None:
        self.interval = validate_interval(interval, owner=type(self).__name__)
        self.steps = TraceBuffer(dtype=np.int64)
        self.histograms: List[dict] = []

    def sample(self, step: int, state: OpinionState) -> None:
        self.steps.append(step)
        self.histograms.append(state.counts_dict())


class ExtremeMeasureTrace:
    """Records the stationary measures of the extreme opinion classes.

    Samples ``π(A_s(t))``, ``π(A_ℓ(t))`` and their product ``Y_t`` — the
    supermartingale of Lemma 10's proof — every ``interval`` steps, along
    with the support size (the lemma's decay bound applies while ≥ 4
    opinions remain).
    """

    def __init__(self, interval: int = 1) -> None:
        self.interval = validate_interval(interval, owner=type(self).__name__)
        self.steps = TraceBuffer(dtype=np.int64)
        self.pi_min_class = TraceBuffer(dtype=np.float64)
        self.pi_max_class = TraceBuffer(dtype=np.float64)
        self.products = TraceBuffer(dtype=np.float64)
        self.support_sizes = TraceBuffer(dtype=np.int64)

    def sample(self, step: int, state: OpinionState) -> None:
        pi_s = state.stationary_measure(state.min_opinion)
        pi_l = state.stationary_measure(state.max_opinion)
        self.steps.append(step)
        self.pi_min_class.append(pi_s)
        self.pi_max_class.append(pi_l)
        self.products.append(pi_s * pi_l if state.support_size > 1 else 0.0)
        self.support_sizes.append(state.support_size)


@dataclass(frozen=True)
class Stage:
    """One stage of the support-set evolution (the paper's worked example)."""

    step: int
    support: Tuple[int, ...]


class StageRecorder:
    """Records every change of the *support set* of present opinions.

    Reproduces the paper's stage notation, e.g.
    ``{1,2,5} → {1,2,4} → ... → {3}``: a new stage begins whenever an
    opinion appears or disappears.
    """

    interval = ENDPOINTS_ONLY

    def __init__(self) -> None:
        self.stages: List[Stage] = []
        self._last_support: Optional[Tuple[int, ...]] = None

    def sample(self, step: int, state: OpinionState) -> None:
        self._record(step, state)

    def on_change(self, step: int, v: int, w: int, state: OpinionState) -> None:
        self._record(step, state)

    def _record(self, step: int, state: OpinionState) -> None:
        support = tuple(state.support())
        if support != self._last_support:
            self.stages.append(Stage(step=step, support=support))
            self._last_support = support

    def extreme_removals(self) -> List[int]:
        """Extreme opinions in their order of irreversible removal.

        The paper notes consensus requires removing the extreme opinions
        one at a time (e.g. ``5, 1, 4, 2`` in the worked example).
        Interior opinions may vanish and reappear; an extreme removal is
        final because values can never leave the current range.
        """
        removed: List[int] = []
        for previous, current in zip(self.stages, self.stages[1:]):
            if not current.support:
                continue
            lo, hi = current.support[0], current.support[-1]
            for opinion in set(previous.support) - set(current.support):
                if opinion < lo or opinion > hi:
                    removed.append(opinion)
        return removed


class FirstTimeTracker:
    """Records the first step at which a state predicate becomes true.

    Example: time to reach the two-adjacent stage (the ``τ`` of
    Theorem 1) on a run that continues to full consensus.

    A predicate publishing ``support_range_terms`` (any built-in stop
    condition) makes the tracker a *milestone*: the kernels set
    ``first_step`` without calling :meth:`on_change` — the block kernel
    from its stop timeline, the per-pair core (loop and compiled) from
    its thresholds, checked after the stop's; an opaque predicate sends
    the run to the loop's per-step path.
    """

    interval = ENDPOINTS_ONLY

    def __init__(self, predicate, label: str = "") -> None:
        self.predicate = predicate
        self.label = label
        self.first_step: Optional[int] = None
        self.support_range_terms = support_range_terms(predicate)

    def sample(self, step: int, state: OpinionState) -> None:
        self._check(step, state)

    def on_change(self, step: int, v: int, w: int, state: OpinionState) -> None:
        self._check(step, state)

    def _check(self, step: int, state: OpinionState) -> None:
        if self.first_step is None and self.predicate(state):
            self.first_step = step


@dataclass
class ChangeLog:
    """Records every changing interaction; for tests and tiny demos only.

    Entries are ``(step, v, w, X_v after, X_w after)``.
    """

    entries: List[Tuple[int, int, int, int, int]] = field(default_factory=list)

    def on_change(self, step: int, v: int, w: int, state: OpinionState) -> None:
        self.entries.append((step, v, w, state.value(v), state.value(w)))
