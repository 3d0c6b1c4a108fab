"""Backend-selectable execution kernels for the asynchronous engine.

:func:`repro.core.engine.run_dynamics` delegates its hot loop to an
*execution kernel*. Two ship with the package:

``"loop"``
    The per-step reference implementation (the engine's original loop,
    extracted verbatim). Works with every dynamic.
``"block"``
    Vectorized application of conflict-free scheduler windows. Only
    dynamics implementing :meth:`Dynamics.step_block` (DIV, pull, push)
    can use it; for the rest, and for runs that need per-change
    callbacks, it transparently falls back to the loop.
``"compiled"``
    The per-pair recurrence as one numba ``@njit`` machine-code loop
    over the state's flat int64 buffers. Needs numba (an optional
    extra) and a dynamics publishing a ``compiled_id`` (DIV, pull,
    push); otherwise it transparently falls back to the block kernel
    (and through it to the loop).

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

from repro.core.dynamics import Dynamics, supports_substrate
from repro.core.kernels.base import (
    ExecutionKernel,
    KernelContext,
    KernelRun,
    epoch_window,
    supports_block,
)
from repro.core.kernels.block import BlockKernel, conflict_free_bounds
from repro.core.kernels.compiled import (
    NUMBA_AVAILABLE,
    CompiledKernel,
    compiled_runtime_available,
    interpreted_compiled,
    supports_compiled,
)
from repro.core.kernels.loop import LoopKernel
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
#: set-up and per-window numpy calls outweigh the loop's per-step
#: dispatch (measured crossover in ``docs/kernels.md``).
AUTO_BLOCK_MIN_N = 512

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
    ``state`` (if given) has at least :data:`AUTO_BLOCK_MIN_N` vertices
    (``"compiled"`` is opt-in: its speed-up depends on numba being
    installed, so ``"auto"`` stays dependency-free and predictable).
    Unsatisfiable requests degrade transparently down the chain
    ``compiled -> block -> loop``: ``"compiled"`` without an importable
    numba or without a ``compiled_id`` on the dynamics becomes
    ``"block"``; ``"block"`` for a dynamics without :meth:`step_block`
    (per-step RNG draws or whole-neighbourhood polls cannot be
    vectorized) becomes ``"loop"``.  Check the executed name on the
    result (``RunResult.kernel``) when it matters.

    ``state`` and ``substrate`` carry the run's scenario features: when
    zealots are frozen on the state or the substrate churns, a dynamics
    that does not *declare* the matching ``substrate_compat`` feature
    (see :func:`repro.core.dynamics.supports_substrate`) degrades to the
    reference loop — the loop's per-step :meth:`OpinionState.apply`
    honours the mask regardless of the dynamics, so it is the one
    backend that is exact for undeclared code.  The degradation is
    recorded on ``RunResult.kernel`` like every other, so scenario runs
    never silently diverge across kernels (lint rule KER005 enforces
    the declaration on new fast-path dynamics).
    """
    name = spec
    if name == "auto":
        name = active_kernel() or "auto"
    if name == "auto":
        small = state is not None and state.n < AUTO_BLOCK_MIN_N
        name = "block" if supports_block(dynamics) and not small else "loop"
    if name != "loop":
        needs = []
        if state is not None and state.has_frozen:
            needs.append("frozen")
        if substrate is not None and not substrate.is_static:
            needs.append("churn")
        if any(not supports_substrate(dynamics, f) for f in needs):
            name = "loop"
    if name == "compiled" and not (
        compiled_runtime_available() and supports_compiled(dynamics)
    ):
        name = "block"
    if name == "block" and not supports_block(dynamics):
        name = "loop"
    return make_kernel(name)
