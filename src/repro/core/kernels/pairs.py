"""The sequential per-pair recurrence and the driver that feeds it.

:func:`_consume_pairs` is the whole sequential engine for the pairwise
dynamics (DIV, pull, push) as one plain function over flat buffers:
the dynamics update, the count/support/extreme bookkeeping of
:meth:`OpinionState.apply` and the stop check after every change.  It
takes any indexable sequence, so the same function runs in two places:

* the loop kernel's *flat path*, as plain Python over list mirrors of
  the state (list indexing costs a fraction of a numpy scalar access);
* the compiled kernel, jitted by numba over the state's own arrays.

:func:`run_pairs` is the one driver both use.  It draws scheduler
blocks of the same sizes as every other kernel (so the RNG stream is
shared), crosses churn epochs through :func:`epoch_window`, clips
segments at sampled observers' due steps, maps the core's fired term
back to a stop reason and records *milestones* (see
:func:`plan_pairs`).  Anything outside the core reads the state only
after :meth:`_FlatBuffers.commit` has written the buffers back through
:meth:`OpinionState.kernel_commit`: before each sampled-observer fire,
before each draw of a scheduler bound to the live state, and at the
end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dynamics import Dynamics
from repro.core.kernels.base import (
    KernelContext,
    KernelRun,
    declares_scenario,
    epoch_window,
    fire_due,
)
from repro.core.state import OpinionState
from repro.core.stopping import MAX_STEPS_REASON, StopTerm, support_range_terms

#: Threshold sentinel for "unbounded" (every support/width satisfies it).
_UNBOUNDED = int(np.iinfo(np.int64).max)

#: ``(support_at_most, width_at_most)`` per term.
Thresholds = Tuple[List[int], List[int]]


def supports_compiled(dynamics: Dynamics) -> bool:
    """Whether ``dynamics`` publishes a per-pair dispatch code (``compiled_id``)."""
    return isinstance(getattr(dynamics, "compiled_id", None), int)


def _consume_pairs(
    values,
    counts,
    offset,
    min_idx,
    max_idx,
    support_size,
    v_seg,
    w_seg,
    dyn_id,
    frozen,
    term_support,
    term_width,
):
    """Apply one scheduler segment pair by pair over the flat buffers.

    Per pair: the dynamics update (``dyn_id``: 0 = DIV's one-unit move,
    1 = pull, 2 = push), the count/support/extreme bookkeeping of
    :meth:`OpinionState.apply`, and the stop check after every change —
    a term ``t`` fires iff ``support <= term_support[t] and width <=
    term_width[t]`` (checked in term order, so ties report the earliest
    term like ``first_of``).  New values never leave the current
    ``[min, max]`` range for these dynamics, so the extreme pointers
    only ever move inward.

    ``frozen`` is the zealot mask over all ``n`` vertices (all-false
    when the scenario has none): a pair whose write target is frozen is
    a no-change step, mirroring :meth:`OpinionState.apply`'s no-op and
    the mask every ``step_block`` applies before commit.

    Every buffer is only indexed and measured with ``len``, so Python
    lists and numpy arrays (jitted or not) run the same code.

    Returns ``(pairs_done, changes, fired_term or -1, support_size,
    min_idx, max_idx)``; ``pairs_done`` counts the firing pair.
    """
    changes = 0
    n_terms = len(term_support)
    for i in range(len(v_seg)):
        v = v_seg[i]
        w = w_seg[i]
        xv = values[v]
        xw = values[w]
        if xv == xw:
            continue
        if dyn_id == 0:  # DIV: v moves one unit toward w
            target = v
            new_value = xv + 1 if xw > xv else xv - 1
        elif dyn_id == 1:  # pull: v adopts w's opinion
            target = v
            new_value = xw
        else:  # push: v imposes its opinion on w
            target = w
            new_value = xv
        if frozen[target]:
            continue
        old_value = values[target]
        values[target] = new_value
        old_idx = old_value - offset
        new_idx = new_value - offset
        counts[old_idx] -= 1
        if counts[old_idx] == 0:
            support_size -= 1
        if counts[new_idx] == 0:
            support_size += 1
        counts[new_idx] += 1
        if counts[min_idx] == 0:
            while counts[min_idx] == 0 and min_idx < max_idx:
                min_idx += 1
        if counts[max_idx] == 0:
            while counts[max_idx] == 0 and max_idx > min_idx:
                max_idx -= 1
        changes += 1
        width = max_idx - min_idx
        for t in range(n_terms):
            if support_size <= term_support[t] and width <= term_width[t]:
                return i + 1, changes, t, support_size, min_idx, max_idx
    return len(v_seg), changes, -1, support_size, min_idx, max_idx


def _thresholds(terms: Optional[Sequence[StopTerm]]) -> Optional[Thresholds]:
    """Canonical ``(support, width)`` thresholds of ``terms``, or ``None``.

    ``None`` means at least one term publishes no canonical conjunction
    form, or the condition is opaque.
    """
    if terms is None:
        return None
    supports: List[int] = []
    widths: List[int] = []
    for term in terms:
        if term.support_at_most is None and term.width_at_most is None:
            return None
        supports.append(
            _UNBOUNDED if term.support_at_most is None else term.support_at_most
        )
        widths.append(_UNBOUNDED if term.width_at_most is None else term.width_at_most)
    return supports, widths


@dataclass
class _Milestone:
    """A change observer the core watches as extra threshold terms."""

    observer: Any
    supports: List[int]
    widths: List[int]

    def hit(self, support_size: int, width: int) -> bool:
        return any(
            support_size <= s and width <= w
            for s, w in zip(self.supports, self.widths)
        )


@dataclass
class PairPlan:
    """A run the core can execute: stop thresholds plus milestones."""

    reasons: List[str]
    stop: Thresholds
    milestones: List[_Milestone]


def plan_pairs(ctx: KernelContext) -> Tuple[Optional[PairPlan], Optional[str]]:
    """Plan ``ctx`` for the per-pair core, or say why it cannot run there.

    Returns ``(plan, None)`` or ``(None, reason)`` with ``reason`` one of

    * ``"dynamics"`` — no ``compiled_id``, or an active scenario feature
      (zealots, churn) the dynamics does not declare;
    * ``"opaque_stop"`` — a stop condition without canonical
      ``StopTerm`` thresholds;
    * ``"change_observer"`` — a change observer that is not a canonical
      *milestone*.  A milestone publishes ``support_range_terms`` with
      canonical thresholds (``run_div``'s two-adjacent
      :class:`~repro.core.observers.FirstTimeTracker`); the core checks
      its terms after the stop terms and the driver sets its
      ``first_step``.
    """
    dynamics = ctx.dynamics
    if not supports_compiled(dynamics) or not declares_scenario(
        dynamics, ctx.state, ctx.substrate
    ):
        return None, "dynamics"
    terms = support_range_terms(ctx.stop_condition)
    stop = _thresholds(terms)
    if terms is None or stop is None:
        return None, "opaque_stop"
    milestones = []
    for obs in ctx.change_observers:
        watched = _thresholds(support_range_terms(obs))
        if watched is None:
            return None, "change_observer"
        milestones.append(_Milestone(obs, *watched))
    return PairPlan([term.reason for term in terms], stop, milestones), None


class _FlatBuffers:
    """The state's flat buffers, as list mirrors or as the live arrays."""

    def __init__(self, state: OpinionState, mirror: bool) -> None:
        values, counts, self.offset, self.min_idx, self.max_idx, self.support_size = (
            state.kernel_buffers()
        )
        frozen = state.frozen_mask
        if frozen is None:
            frozen = np.zeros(state.n, dtype=np.bool_)
        self._state = state
        self._arrays = (values, counts) if mirror else None
        if mirror:
            self.values = values.tolist()
            self.counts = counts.tolist()
            self.frozen = frozen.tolist()
        else:
            # The jit core takes the zealot mask unconditionally (one
            # stable signature).
            self.values = values
            self.counts = counts
            self.frozen = frozen.astype(np.bool_)
        # Whether the buffers changed since the last commit (drives the
        # write-back and the exact lazy weight rebuild).
        self.mutated = False

    def terms(self, stop: Thresholds, milestones: List[_Milestone]):
        """The core's term arrays: stop terms first, then milestones'."""
        supports = stop[0] + [s for m in milestones for s in m.supports]
        widths = stop[1] + [w for m in milestones for w in m.widths]
        if self._arrays is not None:
            return supports, widths
        return np.array(supports, dtype=np.int64), np.array(widths, dtype=np.int64)

    def commit(self) -> None:
        """Make the state current for a reader outside the core."""
        if self.mutated and self._arrays is not None:
            values, counts = self._arrays
            values[:] = self.values
            counts[:] = self.counts
        self._state.kernel_commit(
            self.support_size, self.min_idx, self.max_idx, self.mutated
        )
        self.mutated = False


def run_pairs(ctx: KernelContext, plan: PairPlan, core, *, mirror: bool) -> KernelRun:
    """Execute ``ctx`` through ``core`` (list mirrors when ``mirror``)."""
    state = ctx.state
    generator = ctx.generator
    scheduler = ctx.scheduler
    max_steps = ctx.max_steps
    block_size = ctx.block_size
    sampled = ctx.sampled
    intervals = ctx.intervals
    dyn_id = ctx.dynamics.compiled_id

    for obs in sampled:
        obs.sample(0, state)
    last_sampled = {id(obs): 0 for obs in sampled}
    next_due = list(intervals)

    reason = ctx.stop_condition(state)
    step = 0
    blocks = 0
    changes = 0
    buf = _FlatBuffers(state, mirror)
    values, counts, frozen, offset = buf.values, buf.counts, buf.frozen, buf.offset
    n_stop = len(plan.reasons)
    # A step-0 sample may already have recorded a milestone.
    pending = [m for m in plan.milestones if m.observer.first_step is None]
    term_support, term_width = buf.terms(plan.stop, pending)
    # The scenario schedulers read the live state at every draw.
    reads_state = getattr(scheduler, "state", None) is state
    while reason is None:
        remaining = block_size
        if max_steps is not None:
            remaining = min(remaining, max_steps - step)
            if remaining <= 0:
                reason = MAX_STEPS_REASON
                break
        remaining = epoch_window(ctx, step, remaining)
        if reads_state:
            buf.commit()
        v_block, w_block = scheduler.draw_block(generator, remaining)
        if mirror:
            v_block = v_block.tolist()
            w_block = w_block.tolist()
        blocks += 1
        base = step  # steps completed before this block
        pos = 0
        while pos < remaining:
            end = remaining
            if next_due:
                # Never let a sampled observer come due strictly inside
                # a segment; the clipped tail resumes next iteration.
                end = min(end, min(next_due) - base)
            done, seg_changes, fired, support, lo, hi = core(
                values,
                counts,
                offset,
                buf.min_idx,
                buf.max_idx,
                buf.support_size,
                v_block[pos:end],
                w_block[pos:end],
                dyn_id,
                frozen,
                term_support,
                term_width,
            )
            buf.support_size, buf.min_idx, buf.max_idx = int(support), int(lo), int(hi)
            if seg_changes:
                changes += int(seg_changes)
                buf.mutated = True
            pos += int(done)
            step = base + pos
            if fired >= 0:
                # The loop runs change observers before the stop check,
                # so a milestone hit on the stop's own change counts.
                width = buf.max_idx - buf.min_idx
                still = []
                for milestone in pending:
                    if milestone.hit(buf.support_size, width):
                        milestone.observer.first_step = step
                    else:
                        still.append(milestone)
                if fired < n_stop:
                    reason = plan.reasons[fired]
                    break
                pending = still
                term_support, term_width = buf.terms(plan.stop, pending)
                continue
            if sampled and step >= min(next_due):
                buf.commit()
                fire_due(sampled, intervals, next_due, last_sampled, step, state)

    buf.commit()
    for obs in sampled:
        if last_sampled[id(obs)] != step:
            obs.sample(step, state)
    return KernelRun(steps=step, stop_reason=reason, blocks=blocks, changes=changes)
