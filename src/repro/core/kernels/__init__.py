"""Backend-selectable execution kernels for the asynchronous engine.

:func:`repro.core.engine.run_dynamics` delegates its hot loop to an
*execution kernel*. Three ship with the package:

``"loop"``
    Sequential execution. DIV, pull and push run on its *flat path*:
    the per-pair core of :mod:`repro.core.kernels.pairs` as plain
    Python over list mirrors of the state. Every other run (other
    dynamics, opaque stop callables, change observers that are not
    milestones) takes its per-step path, one :meth:`Dynamics.step`
    call per pair; the reason is recorded on ``KernelRun.loop_fallback``.
    Works with every dynamic.
``"block"``
    Vectorized application of conflict-free scheduler windows. Only
    dynamics implementing :meth:`Dynamics.step_block` (DIV, pull, push)
    can use it; runs that need per-change callbacks go to the loop.
``"compiled"``
    The loop's per-pair core, jitted by numba over the state's own
    arrays. Needs numba (an optional extra) and a dynamics publishing
    a ``compiled_id`` (DIV, pull, push); otherwise the spec resolves
    like ``"auto"``.

All kernels consume the RNG identically and fire stopping conditions
and observers at the same steps, so results are bit-for-bit identical
for any seed — ``tests/test_kernels.py`` sweeps that guarantee.

Callers pick a kernel per run (``kernel="block"``), or ambiently for a
whole campaign::

    with use_kernel("block"):
        run_trials(...)        # every engine call resolves "auto" -> block

mirroring how :mod:`repro.obs.metrics` scopes its active sink. The
default ``"auto"`` picks the block kernel whenever the dynamics supports
it and the graph has at least :data:`AUTO_BLOCK_MIN_N` vertices.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core.dynamics import Dynamics
from repro.core.kernels.base import (
    ExecutionKernel,
    KernelContext,
    KernelRun,
    declares_scenario,
    epoch_window,
    supports_block,
)
from repro.core.kernels.block import BlockKernel, conflict_free_bounds
from repro.core.kernels.compiled import (
    NUMBA_AVAILABLE,
    CompiledKernel,
    compiled_runtime_available,
    interpreted_compiled,
)
from repro.core.kernels.loop import LoopKernel
from repro.core.kernels.pairs import supports_compiled
from repro.errors import ProcessError

__all__ = [
    "AUTO_BLOCK_MIN_N",
    "KERNEL_NAMES",
    "NUMBA_AVAILABLE",
    "BlockKernel",
    "CompiledKernel",
    "ExecutionKernel",
    "KernelContext",
    "KernelRun",
    "LoopKernel",
    "active_kernel",
    "compiled_runtime_available",
    "conflict_free_bounds",
    "epoch_window",
    "interpreted_compiled",
    "make_kernel",
    "resolve_kernel",
    "supports_block",
    "supports_compiled",
    "use_kernel",
]

_KERNELS = {
    LoopKernel.name: LoopKernel,
    BlockKernel.name: BlockKernel,
    CompiledKernel.name: CompiledKernel,
}

#: Kernel specs accepted by the engine entry points.
KERNEL_NAMES = ("auto",) + tuple(sorted(_KERNELS))

#: Fewest vertices on which ``"auto"`` picks block: below it block's
#: set-up and per-window numpy calls outweigh the loop's per-pair core
#: (measured crossover in ``docs/kernels.md``).
AUTO_BLOCK_MIN_N = 24000

# Ambient kernel override for ``kernel="auto"`` calls, innermost wins —
# same scoping idiom as ``repro.obs.metrics._ACTIVE``. Note this stack
# is per-process: parallel campaigns ship the kernel name to their
# workers explicitly (see ``repro.parallel``).
_ACTIVE: list = []


def active_kernel() -> Optional[str]:
    """The innermost ambient kernel override, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def use_kernel(kernel: Optional[str]) -> Iterator[None]:
    """Scope an ambient kernel default for ``kernel="auto"`` engine calls.

    ``None`` is a no-op pass-through so callers can thread an optional
    setting without branching; ``"auto"`` restores the heuristic inside
    an outer override. Explicit ``kernel=`` arguments on engine entry
    points always win over the ambient value.
    """
    if kernel is None:
        yield
        return
    if kernel not in KERNEL_NAMES:
        known = ", ".join(KERNEL_NAMES)
        raise ProcessError(f"unknown kernel {kernel!r}; known: {known}")
    _ACTIVE.append(kernel)
    try:
        yield
    finally:
        _ACTIVE.pop()


def make_kernel(name: str) -> ExecutionKernel:
    """Instantiate a kernel by its registered name (no ``"auto"`` here)."""
    try:
        return _KERNELS[name]()
    except KeyError:
        known = ", ".join(KERNEL_NAMES)
        raise ProcessError(f"unknown kernel {name!r}; known: {known}") from None


def _auto_kernel(dynamics: Dynamics, state) -> str:
    """``"auto"``'s size rule: block on large graphs, else the loop."""
    small = state is not None and state.n < AUTO_BLOCK_MIN_N
    return "block" if supports_block(dynamics) and not small else "loop"


def resolve_kernel(
    spec: str,
    dynamics: Dynamics,
    *,
    state=None,
    substrate=None,
) -> ExecutionKernel:
    """Resolve a kernel spec against a concrete dynamics.

    ``"auto"`` consults the ambient :func:`use_kernel` override first and
    otherwise picks the block kernel when the dynamics supports it and
    ``state`` (if given) has at least :data:`AUTO_BLOCK_MIN_N` vertices,
    else the loop (``"compiled"`` is opt-in: its speed-up depends on
    numba being installed, so ``"auto"`` stays dependency-free and
    predictable).  Unsatisfiable requests degrade transparently:
    ``"compiled"`` without an importable numba or without a
    ``compiled_id`` on the dynamics resolves like ``"auto"``;
    ``"block"`` for a dynamics without :meth:`step_block` (per-step RNG
    draws or whole-neighbourhood polls cannot be vectorized) becomes
    ``"loop"``.  Check the executed name on the result
    (``RunResult.kernel``) when it matters.

    ``state`` and ``substrate`` carry the run's scenario features: when
    zealots are frozen on the state or the substrate churns, a dynamics
    that does not *declare* the matching ``substrate_compat`` feature
    (see :func:`repro.core.dynamics.supports_substrate`) degrades to the
    loop — its per-step path honours the mask through
    :meth:`OpinionState.apply` regardless of the dynamics, so it is the
    one backend that is exact for undeclared code.  The degradation is
    recorded on ``RunResult.kernel`` like every other, so scenario runs
    never silently diverge across kernels (lint rule KER005 enforces
    the declaration on new fast-path dynamics).
    """
    name = spec
    if name == "auto":
        name = active_kernel() or "auto"
    if name == "auto":
        name = _auto_kernel(dynamics, state)
    if name != "loop" and not declares_scenario(dynamics, state, substrate):
        name = "loop"
    if name == "compiled" and not (
        compiled_runtime_available() and supports_compiled(dynamics)
    ):
        name = _auto_kernel(dynamics, state)
    if name == "block" and not supports_block(dynamics):
        name = "loop"
    return make_kernel(name)
