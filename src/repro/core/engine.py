"""The asynchronous simulation engine.

Runs any :mod:`~repro.core.dynamics` under any
:mod:`~repro.core.schedulers` scheduler until a stopping condition fires
or the step budget runs out. Interaction pairs are drawn in blocks to
amortize RNG overhead; observers (see :mod:`~repro.core.observers`) hook
in without slowing down un-instrumented runs.

The hot loop itself lives in :mod:`repro.core.kernels`: this module
resolves specs into objects, picks an execution kernel (the sequential
``"loop"`` kernel, the vectorized ``"block"`` kernel, or the numba
``"compiled"`` kernel — all bit-identical for any seed) and wraps the
run in the observability layer (tracing span, metrics counters,
profiler section).
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.dynamics import Dynamics, make_dynamics
from repro.core.kernels import KernelContext, resolve_kernel
from repro.core.observers import EngineObserver, resolve_interval
from repro.core.results import BaseRunResult
from repro.core.schedulers import Scheduler
from repro.core.state import OpinionState
from repro.core.stopping import StopCondition, StopLike, make_stop_condition
from repro.errors import ProcessError
from repro.obs.metrics import active_metrics
from repro.obs.profile import active_profiler
from repro.obs.tracing import PhaseTraceObserver, current_tracer
from repro.rng import RngLike, make_rng

#: Default number of interaction pairs drawn per RNG block.
DEFAULT_BLOCK_SIZE = 8192


@dataclass
class RunResult(BaseRunResult):
    """Outcome of one engine run.

    Attributes
    ----------
    stop_reason:
        The reason string of the stopping condition that fired, or
        ``"max_steps"``.
    steps:
        Number of asynchronous steps executed (each step is one
        interaction, whether or not it changed an opinion).
    state:
        The final :class:`OpinionState` (the same object that was passed
        in, mutated in place).
    kernel:
        Name of the execution kernel that actually ran (``"loop"``,
        ``"block"`` or ``"compiled"`` — the resolved backend, never
        ``"auto"``; a kernel that delegated the run mid-execution
        reports the delegate, see :class:`KernelRun`).
    """

    steps: int
    state: OpinionState
    kernel: str = "loop"


def run_dynamics(
    state: OpinionState,
    scheduler: Scheduler,
    dynamics: Dynamics,
    *,
    stop: StopLike = "consensus",
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    observers: Sequence[EngineObserver] = (),
    block_size: int = DEFAULT_BLOCK_SIZE,
    kernel: str = "auto",
) -> RunResult:
    """Run ``dynamics`` on ``state`` until ``stop`` fires.

    Parameters
    ----------
    state:
        Mutated in place; pass ``state.copy()`` to preserve the original.
    scheduler:
        Source of (v, w) interaction pairs.
    dynamics:
        Update rule instance or name (see :func:`make_dynamics`).
    stop:
        Stopping condition callable or name (see
        :func:`repro.core.stopping.make_stop_condition`).
    rng:
        Seed or generator; ``None`` draws fresh entropy.
    max_steps:
        Hard step budget. Mandatory when ``stop`` can never fire
        (e.g. ``"never"``).
    observers:
        Objects implementing the sampled and/or change observer hooks.
    block_size:
        Interaction pairs drawn per RNG block (identical across kernels,
        which is what keeps their random streams in lockstep).
    kernel:
        Execution backend: ``"loop"``, ``"block"``, ``"compiled"`` or
        ``"auto"`` (the default — honours the ambient
        :func:`repro.core.kernels.use_kernel` override, then picks
        ``"block"`` on graphs of at least
        :data:`repro.core.kernels.AUTO_BLOCK_MIN_N` vertices when the
        dynamics supports it, else ``"loop"``). ``"compiled"`` without
        numba resolves like ``"auto"``, ``"block"`` without
        ``step_block`` becomes ``"loop"``; kernels are bit-identical;
        see ``docs/kernels.md``. A loop run that cannot use the
        per-pair core says why on the ``engine.run`` span
        (``loop_fallback``) and in an ``engine.loop_fallback.<reason>``
        counter.
    """
    dynamics = make_dynamics(dynamics)
    stop_condition: StopCondition = make_stop_condition(stop)
    generator = make_rng(rng)
    if block_size < 1:
        raise ProcessError(f"block_size must be >= 1, got {block_size}")

    sampled = [obs for obs in observers if hasattr(obs, "sample")]
    change_observers = [obs for obs in observers if hasattr(obs, "on_change")]
    if max_steps is None and getattr(stop_condition, "__name__", "") == "never":
        raise ProcessError("stop='never' requires max_steps")

    # The scheduler owns the substrate; a static one (including every
    # bare-graph scheduler) is dropped from the context so the kernels'
    # epoch handling stays a single None check on the static hot path.
    substrate = getattr(scheduler, "substrate", None)
    if substrate is not None and substrate.is_static:
        substrate = None
    if substrate is not None and not callable(getattr(scheduler, "rebuild", None)):
        raise ProcessError(
            f"{type(scheduler).__name__} cannot run on a churning substrate: "
            f"it has no rebuild() to refresh its epoch caches"
        )

    tracer = current_tracer()
    metrics = active_metrics()
    profiler = active_profiler()
    phase_obs: Optional[PhaseTraceObserver] = None
    if tracer is not None:
        # Every traced run records the paper's phase structure without
        # the caller wiring an observer explicitly.
        phase_obs = PhaseTraceObserver()
        sampled.append(phase_obs)
        change_observers.append(phase_obs)

    # Resolve each observer's interval once: observers without an
    # ``interval`` attribute default to 1 here *and* at every re-arm.
    intervals = [resolve_interval(obs) for obs in sampled]

    engine_kernel = resolve_kernel(
        kernel, dynamics, state=state, substrate=substrate
    )
    ctx = KernelContext(
        state=state,
        scheduler=scheduler,
        dynamics=dynamics,
        stop_condition=stop_condition,
        generator=generator,
        max_steps=max_steps,
        block_size=block_size,
        sampled=sampled,
        intervals=intervals,
        change_observers=change_observers,
        substrate=substrate,
    )

    with ExitStack() as stack:
        span = (
            stack.enter_context(tracer.span("engine.run"))
            if tracer is not None
            else None
        )
        if profiler is not None:
            stack.enter_context(profiler.section("engine.run"))
        started = time.perf_counter()

        run = engine_kernel.execute(ctx)

        executed_kernel = run.kernel or engine_kernel.name
        if span is not None:
            span.set(
                engine="generic",
                kernel=executed_kernel,
                steps=run.steps,
                stop_reason=run.stop_reason,
                opinion_changes=run.changes,
                rng_blocks=run.blocks,
                n=state.n,
                loop_fallback=run.loop_fallback,
            )
            phase_obs.emit(span)
        if metrics is not None:
            metrics.inc("engine.runs")
            metrics.inc("engine.steps", run.steps)
            metrics.inc("engine.opinion_changes", run.changes)
            metrics.inc("engine.rng_blocks", run.blocks)
            if run.loop_fallback is not None:
                metrics.inc(f"engine.loop_fallback.{run.loop_fallback}")
            metrics.observe("engine.run_seconds", time.perf_counter() - started)
    return RunResult(
        steps=run.steps,
        stop_reason=run.stop_reason,
        state=state,
        kernel=executed_kernel,
    )
