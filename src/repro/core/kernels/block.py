"""Vectorized execution: conflict-free block application.

The reference loop pays one Python-level ``Dynamics.step`` call per
asynchronous step — the single hot path under every paper-scale sweep
(Theorem 1's ``T = o(n²)`` budget means hundreds of millions of steps).
This kernel removes it for the pairwise dynamics (DIV, pull, push):

1. draw the scheduler block exactly like the loop (identical RNG use);
2. let the dynamics propose updates for a *lookahead* of upcoming pairs
   in one numpy pass (:meth:`Dynamics.step_block`), computed from the
   current state;
3. find the first pair that reads or writes a vertex an earlier pair in
   the lookahead *changed* — every proposal before that point saw
   exactly the state the sequential loop would have seen, so the prefix
   (a conflict-free *window*) commits in one batch through
   :meth:`OpinionState.apply_block`, bit-identically;
4. reconstruct the exact step a stopping condition first fires *inside*
   an applied window from the cumulative support/range deltas
   (:meth:`OpinionState.support_range_timeline` +
   :class:`~repro.core.stopping.StopTerm`), truncating the commit so
   outcomes, stop reasons and step counts match the loop exactly.

The window rule is *optimistic*: only vertices whose opinion actually
changed can invalidate a later read, so windows stretch far beyond a
value-independent segmentation such as :func:`conflict_free_bounds`
(which splits on any reappearance) — crucially so late in a run, when
almost no interaction changes anything and windows grow to whole
blocks.  The lookahead length adapts to the realised window so little
proposal work is thrown away when conflicts are frequent.

Sampled observers are handled by clipping windows at their next due
step.  *Milestones* — change observers publishing ``support_range_terms``,
such as ``run_div``'s two-adjacent :class:`~repro.core.observers.
FirstTimeTracker` — get their first-hit step from the timeline of step 4.
Any other change observer, or an opaque stop callable, needs the live
state after every change: the whole run then goes to the loop kernel,
reported as ``"loop"`` on :attr:`KernelRun.kernel`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels.base import KernelContext, KernelRun, epoch_window
from repro.core.kernels.loop import LoopKernel
from repro.core.observers import ENDPOINTS_ONLY
from repro.core.stopping import MAX_STEPS_REASON, StopTerm, support_range_terms

#: ``first_write`` sentinel for "vertex not changed in this lookahead";
#: larger than any pair index so the ``< index`` conflict test is false.
_NEVER = np.iinfo(np.int64).max

#: Smallest proposal lookahead (pairs).  Windows shorter than this are
#: conflict-dominated anyway; proposing at least this many pairs keeps
#: the per-window numpy overhead amortized.
_MIN_LOOKAHEAD = 128


def conflict_free_bounds(v_block: np.ndarray, w_block: np.ndarray) -> List[int]:
    """Split a block of pairs into maximal conflict-free segments.

    Returns ascending pair-index boundaries ``[0, b1, ..., size]``; each
    half-open range ``[b_i, b_{i+1})`` is conflict-free: no vertex
    appears in two different pairs of the range, in either role. A pair
    whose own ``v == w`` is a single appearance (it reads one vertex and
    can never change anything), so it does not conflict with itself —
    but a *repeat* of it does conflict, like any other reappearance.

    The segmentation is greedy, i.e. each segment is the longest
    conflict-free prefix of what remains, matching the sequential
    engine's order of application.  It is value-independent — any
    reappearance splits, changed or not — so proposals for a whole
    segment are valid before knowing which of them will commit.
    """
    size = int(v_block.size)
    if size == 0:
        return [0]
    interleaved = np.empty(2 * size, dtype=np.int64)
    interleaved[0::2] = v_block
    interleaved[1::2] = w_block
    order = np.argsort(interleaved, kind="stable")
    ordered = interleaved[order]
    same = ordered[1:] == ordered[:-1]
    previous = np.full(2 * size, -1, dtype=np.int64)
    previous[order[1:][same]] = order[:-1][same]
    v_previous = previous[0::2]
    w_previous = previous[1::2]
    # A v == w pair links its w slot straight back to its own v slot;
    # skip that self-link and chase the v slot's predecessor instead.
    self_link = w_previous == np.arange(0, 2 * size, 2)
    w_previous = np.where(self_link, v_previous, w_previous)
    last_seen = np.maximum(v_previous, w_previous) // 2

    bounds = [0]
    start = 0
    conflicts = np.flatnonzero(last_seen >= 0)
    for pair, seen in zip(conflicts.tolist(), last_seen[conflicts].tolist()):
        if pair > start and seen >= start:
            bounds.append(pair)
            start = pair
    bounds.append(size)
    return bounds


def _first_fire(
    terms: Sequence[StopTerm],
    support_sizes: np.ndarray,
    range_widths: np.ndarray,
) -> Tuple[Optional[int], Optional[str]]:
    """First change index at which any term fires, with its reason.

    Terms are evaluated in order and ties go to the earlier term —
    exactly the sequential semantics of ``first_of``.
    """
    best: Optional[int] = None
    best_reason: Optional[str] = None
    for term in terms:
        mask = term.fires(support_sizes, range_widths)
        if mask.any():
            index = int(mask.argmax())
            if best is None or index < best:
                best = index
                best_reason = term.reason
    return best, best_reason


def _gate_terms(terms: Sequence[StopTerm], milestones: list) -> List[StopTerm]:
    """The stop terms plus those of every pending milestone."""
    return [*terms, *(term for obs in milestones for term in obs.support_range_terms)]


def _record_milestones(
    milestones: list,
    support_sizes: np.ndarray,
    range_widths: np.ndarray,
    last_index: Optional[int],
    positions: np.ndarray,
    steps_before: int,
) -> list:
    """Set ``first_step`` on milestones hit in a window's change timeline.

    A hit at change index ``i <= last_index`` (the change the stop fires
    on; ``None`` when it does not fire) records that change's step: the
    loop runs change observers before the stop check, so a tie goes to
    the milestone. Returns the milestones still pending.
    """
    pending = []
    for obs in milestones:
        index, _ = _first_fire(obs.support_range_terms, support_sizes, range_widths)
        if index is None or (last_index is not None and index > last_index):
            pending.append(obs)
        else:
            obs.first_step = steps_before + int(positions[index]) + 1
    return pending


def _may_fire(state, pending_changes: int, terms: Sequence[StopTerm]) -> bool:
    """Whether any term could fire within ``pending_changes`` changes.

    Reaching a term's ``support_ceiling`` means emptying whole opinion
    classes, which takes at least
    :meth:`OpinionState.min_changes_to_support` changes; a window with
    fewer pending changes provably cannot fire the term. This skips the
    timeline reconstruction for almost the entire run under the common
    ``consensus`` / ``two_adjacent`` conditions — e.g. consensus stays
    out of reach while the minority class outnumbers the window.
    """
    for term in terms:
        ceiling = term.support_ceiling
        if ceiling is None or state.min_changes_to_support(ceiling) <= pending_changes:
            return True
    return False


class BlockKernel:
    """Vectorized execution of conflict-free scheduler windows."""

    name = "block"

    def execute(self, ctx: KernelContext) -> KernelRun:
        terms = support_range_terms(ctx.stop_condition)
        milestones = [
            obs for obs in ctx.change_observers
            if support_range_terms(obs) is not None
        ]
        if terms is None or len(milestones) < len(ctx.change_observers):
            # Per-change callbacks and opaque stops need the live state
            # after every change; the reference loop is exact for them.
            run = LoopKernel().execute(ctx)
            run.kernel = LoopKernel.name
            return run
        state = ctx.state
        generator = ctx.generator
        scheduler = ctx.scheduler
        stop_condition = ctx.stop_condition
        step_block = ctx.dynamics.step_block
        max_steps = ctx.max_steps
        block_size = ctx.block_size
        sampled = ctx.sampled
        intervals = ctx.intervals

        for obs in sampled:
            obs.sample(0, state)
        last_sampled = {id(obs): 0 for obs in sampled}
        next_due = list(intervals)
        # A step-0 sample may already have recorded a milestone.
        watching = [obs for obs in milestones if obs.first_step is None]
        gate = _gate_terms(terms, watching)

        # Fast-path scratch: first pair index that changed each vertex
        # within the current lookahead (reset after every window), a
        # reusable pair-index ramp for the conflict comparison, and
        # per-run gather/mask buffers so the conflict test allocates
        # nothing per window.
        first_write = np.full(state.graph.n, _NEVER, dtype=np.int64)
        pair_index = np.arange(block_size, dtype=np.int64)
        gather_v = np.empty(block_size, dtype=np.int64)
        gather_w = np.empty(block_size, dtype=np.int64)
        mask_v = np.empty(block_size, dtype=np.bool_)
        mask_w = np.empty(block_size, dtype=np.bool_)
        lookahead = _MIN_LOOKAHEAD
        # Unless a sampled observer comes due mid-run, nothing reads the
        # degree-weighted aggregates before the run ends, so their
        # bookkeeping is deferred to the first read after it
        # (bit-identical, see apply_block).
        defer_weights = min(intervals, default=ENDPOINTS_ONLY) >= ENDPOINTS_ONLY

        reason = stop_condition(state)
        step = 0
        blocks = 0
        changes = 0
        while reason is None:
            remaining = block_size
            if max_steps is not None:
                remaining = min(remaining, max_steps - step)
                if remaining <= 0:
                    reason = MAX_STEPS_REASON
                    break
            remaining = epoch_window(ctx, step, remaining)
            v_block, w_block = scheduler.draw_block(generator, remaining)
            blocks += 1
            base = step  # steps completed before this block
            pos = 0
            while pos < remaining:
                look = remaining - pos
                if next_due:
                    # Never let a sampled observer come due strictly
                    # inside a window; the clipped tail resumes next
                    # iteration with fresh proposals.
                    look = min(look, min(next_due) - base - pos)
                look = min(look, lookahead)
                seg_v = v_block[pos:pos + look]
                seg_w = w_block[pos:pos + look]
                changed, targets, new_values = step_block(state, seg_v, seg_w)
                positions = np.flatnonzero(changed)
                window = look
                if positions.size:
                    # Earliest changing pair per vertex: reversed fancy
                    # assignment lets the first occurrence win.
                    first_write[targets[::-1]] = positions[::-1]
                    index = pair_index[:look]
                    fw_v = gather_v[:look]
                    fw_w = gather_w[:look]
                    # mode="clip" skips the bounds check; seg_v/seg_w are
                    # scheduler-drawn vertices, always < n.
                    first_write.take(seg_v, out=fw_v, mode="clip")
                    first_write.take(seg_w, out=fw_w, mode="clip")
                    conflict = mask_v[:look]
                    np.less(fw_v, index, out=conflict)
                    np.less(fw_w, index, out=mask_w[:look])
                    np.logical_or(conflict, mask_w[:look], out=conflict)
                    first_write[targets] = _NEVER
                    if conflict.any():
                        # Proposals past the first conflict read state an
                        # earlier pair rewrote; drop them (recomputed
                        # from the true state next iteration).
                        window = int(conflict.argmax())
                        kept = int(np.searchsorted(positions, window))
                        positions = positions[:kept]
                        targets = targets[:kept]
                        new_values = new_values[:kept]
                pending = int(targets.size)
                if pending:
                    if _may_fire(state, pending, gate):
                        old_values = state.values[targets]
                        support_sizes, range_widths = state.support_range_timeline(
                            old_values, new_values
                        )
                        fire_index, fire_reason = _first_fire(
                            terms, support_sizes, range_widths
                        )
                        if watching:
                            watching = _record_milestones(
                                watching, support_sizes, range_widths,
                                fire_index, positions, base + pos,
                            )
                            gate = _gate_terms(terms, watching)
                        if fire_index is not None:
                            kept = fire_index + 1
                            state.apply_block(
                                targets[:kept],
                                new_values[:kept],
                                defer_weights=defer_weights,
                            )
                            changes += kept
                            step = base + pos + int(positions[fire_index]) + 1
                            reason = fire_reason
                            break
                    state.apply_block(
                        targets, new_values, defer_weights=defer_weights
                    )
                    changes += pending
                step = base + pos + window
                pos += window
                # Conflict-dominated phases keep the lookahead near the
                # realised window (≈2× so growth is detectable); once
                # changes dry up it doubles out to whole blocks.
                lookahead = min(block_size, max(_MIN_LOOKAHEAD, 2 * window))
                if sampled:
                    step = self._fire_due(
                        sampled, intervals, next_due, last_sampled, step, state
                    )

        for obs in sampled:
            if last_sampled[id(obs)] != step:
                obs.sample(step, state)
        return KernelRun(
            steps=step, stop_reason=reason, blocks=blocks, changes=changes
        )

    @staticmethod
    def _fire_due(sampled, intervals, next_due, last_sampled, step, state) -> int:
        """Fire every sampled observer whose next due step was reached."""
        for i, obs in enumerate(sampled):
            if step >= next_due[i]:
                obs.sample(step, state)
                last_sampled[id(obs)] = step
                next_due[i] = step + intervals[i]
        return step
