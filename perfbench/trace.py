"""In-memory span recorder and the layer wrappers of the traced run.

The traced run measures each layer of ``repro`` from the outside: it
replaces a public name *where its caller looks it up* (a module global
such as ``repro.core.div.run_dynamics`` or a class attribute such as
``OpinionState.apply_block``) with a wrapper that records a span, and
restores every original on exit. Nothing under ``src/`` changes.

Spans (name, start, end, parent, trial id) are kept in memory and
dumped as JSON lines when the run ends. Self time — a span's duration
minus the part its child spans cover — is aggregated online per span
name, so even spans beyond the storage cap still count.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: Spans kept for the dump; later spans are aggregated but not stored.
SPAN_CAP = 400_000


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Recorder:
    """Records nested spans and named counters of one traced run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.dropped = 0
        self.stats: Dict[str, SpanStats] = {}
        self.counters: Dict[str, float] = {}
        self.trial: Optional[str] = None
        # Open spans: [name, start, child_time, stored index or -1].
        self._stack: List[list] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, time.perf_counter(), 0.0, -1]
        if len(self.spans) < SPAN_CAP:
            frame[3] = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            stats.calls += 1
            stats.total += duration
            stats.self_time += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            if frame[3] >= 0:
                self.spans[frame[3]] = (name, frame[1], end, parent, self.trial)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.calls if stats is not None else 0

    def self_seconds(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.self_time if stats is not None else 0.0

    def total_seconds(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.total if stats is not None else 0.0

    def dump(self, path: Path) -> None:
        """Write every stored span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, trial) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trial": trial,
                        }
                    )
                    + "\n"
                )


def _spanned(recorder: Recorder, name: str, fn: Callable, on_result=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _counted(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def _replaced(owner: object, attr: str, replacement: object) -> Iterator[None]:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def instrumented(recorder: Recorder) -> Iterator[None]:
    """Wrap every layer boundary the per-layer table reports on."""
    import repro.analysis.initializers as initializers
    import repro.analysis.montecarlo as montecarlo
    import repro.checkpoint as checkpoint
    import repro.core.div as div
    import repro.core.engine as engine
    import repro.core.fast_complete as fast_complete
    import repro.core.kernels.block as block
    import repro.core.observers as observers
    import repro.core.schedulers as schedulers
    import repro.core.state as state
    import repro.core.substrate as substrate
    import repro.graphs.generators as generators
    import repro.graphs.spectral as spectral
    from repro.core.dynamics import IncrementalVoting

    def on_run(result):
        recorder.count(f"kernels.resolved.{result.kernel}")

    def on_bounds(bounds):
        recorder.count("kernels.windows", len(bounds) - 1)
        recorder.count("kernels.window_pairs", bounds[-1] - bounds[0])

    def on_execute(result):
        _, timings = result
        busy = sum(w.busy_seconds for w in timings.worker_stats)
        recorder.count("parallel.worker_busy_s", busy)
        slots = timings.total_seconds * max(1, timings.requested_workers)
        recorder.count("parallel.worker_slots_s", slots)
        recorder.count("parallel.retries", timings.retries)

    def on_batch(trial_set):
        timings = trial_set.timings
        if timings is not None:
            # Trial compute the batch's workers account for, spread evenly.
            workers = max(1, timings.requested_workers)
            recorder.count("montecarlo.trial_s", sum(timings.trial_seconds) / workers)

    replacements = [
        (div, "run_dynamics",
         _spanned(recorder, "engine.run_dynamics", div.run_dynamics, on_run)),
        (engine, "run_dynamics",
         _spanned(recorder, "engine.run_dynamics", engine.run_dynamics, on_run)),
        (block, "conflict_free_bounds",
         _spanned(recorder, "kernels.conflict_free_bounds", block.conflict_free_bounds, on_bounds)),
        (state.OpinionState, "__init__",
         _spanned(recorder, "state.init", state.OpinionState.__init__)),
        (state.OpinionState, "apply_block",
         _spanned(recorder, "state.apply_block", state.OpinionState.apply_block)),
        (state.OpinionState, "support_range_timeline",
         _spanned(recorder, "state.timeline", state.OpinionState.support_range_timeline)),
        (IncrementalVoting, "step_block",
         _spanned(recorder, "dynamics.step_block", IncrementalVoting.step_block)),
        (observers.FirstTimeTracker, "on_change",
         _counted(recorder, "observers.on_change_calls", observers.FirstTimeTracker.on_change)),
        (schedulers._EpochCached, "rebuild",
         _counted(recorder, "schedulers.rebuild_calls", schedulers._EpochCached.rebuild)),
        (substrate, "rewire_edges", _spanned(recorder, "substrate.rewire", substrate.rewire_edges)),
        (substrate.Substrate, "advance_to",
         _spanned(recorder, "substrate.advance", substrate.Substrate.advance_to)),
        (fast_complete, "run_div_complete",
         _spanned(recorder, "fast_complete.run", fast_complete.run_div_complete)),
        (montecarlo, "run_trials",
         _spanned(recorder, "montecarlo.batch", montecarlo.run_trials, on_batch)),
        (montecarlo, "execute_tasks",
         _spanned(recorder, "parallel.execute", montecarlo.execute_tasks, on_execute)),
        (checkpoint.CheckpointJournal, "record",
         _spanned(recorder, "checkpoint.record", checkpoint.CheckpointJournal.record)),
        (checkpoint.CheckpointJournal, "completed",
         _spanned(recorder, "checkpoint.load", checkpoint.CheckpointJournal.completed)),
        (spectral, "second_eigenvalue",
         _spanned(recorder, "graphs.spectral", spectral.second_eigenvalue)),
    ]
    for cls in (schedulers.VertexScheduler, schedulers.EdgeScheduler,
                schedulers.BiasedScheduler, schedulers.AdversarialScheduler):
        replacements.append(
            (cls, "draw_block", _spanned(recorder, "schedulers.draw_block", cls.draw_block))
        )
    for name in ("random_regular_graph", "lollipop_graph", "complete_graph"):
        replacements.append(
            (generators, name, _spanned(recorder, "graphs.build", getattr(generators, name)))
        )
    replacements.append(
        (initializers, "uniform_random_opinions",
         _spanned(recorder, "initializers", initializers.uniform_random_opinions))
    )
    with ExitStack() as stack:
        for owner, attr, replacement in replacements:
            stack.enter_context(_replaced(owner, attr, replacement))
        yield
