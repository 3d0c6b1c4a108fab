"""Execution-kernel interface of the asynchronous engine.

A *kernel* is the strategy :func:`repro.core.engine.run_dynamics` uses
to turn scheduler blocks of interaction pairs into state updates. Every
kernel implements the same contract:

* it consumes the scheduler and RNG exactly like sequential execution
  (one ``draw_block`` of the same size per iteration), so the random
  stream — and therefore every outcome — is independent of the kernel;
* it fires stopping conditions, sampled observers and change observers
  at the exact steps sequential execution would, including the implicit
  step-0 sample and the final-step flush;
* it reports the same counters (steps, stop reason, opinion changes,
  RNG blocks) for observability.

Three kernels ship with the package: :class:`~repro.core.kernels.loop.
LoopKernel` (sequential: the per-pair core over list mirrors, or one
``Dynamics.step`` per pair), :class:`~repro.core.kernels.block.
BlockKernel` (vectorized conflict-free segment application) and
:class:`~repro.core.kernels.compiled.CompiledKernel` (the loop's
per-pair core, jitted). See ``docs/kernels.md`` for the equivalence
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

import numpy as np

from repro.core.dynamics import Dynamics, supports_substrate
from repro.core.observers import EngineObserver
from repro.core.schedulers import Scheduler
from repro.core.state import OpinionState
from repro.core.stopping import StopCondition
from repro.core.substrate import Substrate


@dataclass
class KernelContext:
    """Everything a kernel needs to execute one engine run.

    Built by :func:`repro.core.engine.run_dynamics` after it has resolved
    names into objects; kernels never parse user-facing specs.

    ``sampled`` and ``intervals`` are aligned: ``intervals[i]`` is the
    validated sample interval of ``sampled[i]``.

    ``substrate`` is the scheduler's substrate when it has one (else
    ``None``, the static fast path): kernels thread every outer
    iteration through :func:`epoch_window`, which crosses due churn
    boundaries and clips the next draw at the following one.
    """

    state: OpinionState
    scheduler: Scheduler
    dynamics: Dynamics
    stop_condition: StopCondition
    generator: np.random.Generator
    max_steps: Optional[int]
    block_size: int
    sampled: Sequence[EngineObserver]
    intervals: Sequence[int]
    change_observers: Sequence[EngineObserver]
    substrate: Optional[Substrate] = None


@dataclass
class KernelRun:
    """What a kernel reports back to the engine wrapper.

    ``steps`` and ``stop_reason`` become the :class:`RunResult`;
    ``blocks`` and ``changes`` feed the metrics/trace span so both
    kernels stay comparable in the observability layer. ``kernel``,
    when set, names the backend that actually executed the run — a
    kernel that delegates at execution time (compiled or block to
    loop: see their modules) reports the delegate here so
    ``RunResult.kernel`` never lies. ``loop_fallback``, when set, says
    why the run took the loop's per-step path instead of the per-pair
    core: ``"dynamics"``, ``"opaque_stop"`` or ``"change_observer"``
    (see :func:`repro.core.kernels.pairs.plan_pairs`).
    """

    steps: int
    stop_reason: str
    blocks: int
    changes: int
    kernel: Optional[str] = None
    loop_fallback: Optional[str] = None


class ExecutionKernel(Protocol):
    """One execution strategy for the asynchronous engine."""

    name: str

    def execute(self, ctx: KernelContext) -> KernelRun:
        """Run to the stopping condition or the step budget."""
        ...  # pragma: no cover - protocol


def declares_scenario(dynamics: Dynamics, state, substrate) -> bool:
    """Whether ``dynamics`` declares every scenario feature the run uses.

    The features are zealots frozen on ``state`` (``"frozen"``) and a
    churning ``substrate`` (``"churn"``); see
    :func:`repro.core.dynamics.supports_substrate`.
    """
    needs: List[str] = []
    if state is not None and state.has_frozen:
        needs.append("frozen")
    if substrate is not None and not substrate.is_static:
        needs.append("churn")
    return all(supports_substrate(dynamics, feature) for feature in needs)


def supports_block(dynamics: Dynamics) -> bool:
    """Whether ``dynamics`` can run on the vectorized block kernel."""
    return callable(getattr(dynamics, "step_block", None))


def fire_due(sampled, intervals, next_due, last_sampled, step, state) -> None:
    """Fire every sampled observer whose next due step was reached."""
    for i, obs in enumerate(sampled):
        if step >= next_due[i]:
            obs.sample(step, state)
            last_sampled[id(obs)] = step
            next_due[i] = step + intervals[i]


def epoch_window(ctx: KernelContext, step: int, remaining: int) -> int:
    """Cross due epoch boundaries at ``step`` and clip the next draw.

    The dynamic-substrate half of the kernel equivalence contract, in
    one place so all three kernels share it bit for bit:

    1. apply every churn event scheduled at or before ``step`` (the
       substrate's private RNG, never the engine generator), rebinding
       the state's graph and rebuilding the scheduler's epoch caches
       when the topology changed;
    2. return ``remaining`` clipped so the upcoming ``draw_block``
       cannot reach past the *next* boundary — the same treatment
       sampled-observer due steps already get, and what keeps every
       kernel's draw sizes (hence the shared RNG stream) identical on
       dynamic substrates.

    Static substrates (or ``ctx.substrate is None``) return
    ``remaining`` unchanged at the cost of one predicate.
    """
    substrate = ctx.substrate
    if substrate is None:
        return remaining
    if substrate.advance_to(step):
        ctx.state.rebind_graph(substrate.graph)
        ctx.scheduler.rebuild()
    boundary = substrate.next_boundary(step)
    if boundary is None:
        return remaining
    return min(remaining, boundary - step)
