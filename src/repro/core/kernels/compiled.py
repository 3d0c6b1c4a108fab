"""Compiled execution: the loop kernel's per-pair core in machine code.

The loop kernel's flat path runs the sequential per-pair recurrence
(:func:`repro.core.kernels.pairs._consume_pairs`) as plain Python over
list mirrors of the state.  This kernel runs the *same function*,
jitted by numba, over the state's own flat int64 buffers
(:meth:`OpinionState.kernel_buffers`), driven by the same driver
(:func:`~repro.core.kernels.pairs.run_pairs`): scheduler blocks of the
same sizes at the same steps, the same segment clipping at sampled
observers' due steps, the same stop thresholds and milestones.  The
only difference is that the live arrays need no write-back before an
outside read, just :meth:`OpinionState.kernel_commit`.

A run outside the core's contract (:func:`~repro.core.kernels.pairs.
plan_pairs`: change observers that are not milestones, opaque stop
callables, terms without canonical thresholds, dynamics without a
``compiled_id``) runs on the loop kernel's per-step path and reports
``"loop"`` on :attr:`KernelRun.kernel`.

numba is an *optional* dependency (``pip install div-repro[compiled]``).
Without it :func:`compiled_runtime_available` is false and
``resolve_kernel("compiled")`` resolves like ``"auto"``, so CI and
tier-1 stay dependency-free; :func:`interpreted_compiled` runs the
undecorated core over the live arrays, which keeps this kernel's
control flow testable everywhere.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.kernels.base import KernelContext, KernelRun
from repro.core.kernels.loop import LoopKernel
from repro.core.kernels.pairs import _consume_pairs, plan_pairs, run_pairs

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the default in CI
    _njit = None
    NUMBA_AVAILABLE = False

# Test override stack: forces the interpreted core (and reports the
# runtime as available) so the sweep exercises the compiled kernel's
# control flow on machines without numba.
_INTERPRETED: list = []


def compiled_runtime_available() -> bool:
    """Whether the compiled backend can execute here (numba importable).

    :func:`interpreted_compiled` overrides this for tests; without it
    ``resolve_kernel("compiled")`` resolves like ``"auto"``.
    """
    return NUMBA_AVAILABLE or bool(_INTERPRETED)


@contextmanager
def interpreted_compiled() -> Iterator[None]:
    """Force the compiled kernel's pure-Python core (tests only).

    Inside the context :func:`compiled_runtime_available` reports true
    and :class:`CompiledKernel` runs the undecorated core over the live
    arrays, so the equivalence sweep covers the backend's control flow
    bit-for-bit on machines without numba.
    """
    _INTERPRETED.append(True)
    try:
        yield
    finally:
        _INTERPRETED.pop()


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only with numba
    _consume_pairs_jit = _njit(cache=True)(_consume_pairs)
else:
    _consume_pairs_jit = None


class CompiledKernel:
    """Machine-code execution of the sequential per-pair recurrence."""

    name = "compiled"

    def execute(self, ctx: KernelContext) -> KernelRun:
        plan, _ = plan_pairs(ctx)
        if plan is None:
            # Outside the core's contract the loop's per-step path is
            # exact for every case; report the backend that actually
            # ran (and why) on RunResult.kernel.
            run = LoopKernel().execute(ctx)
            run.kernel = LoopKernel.name
            return run
        core = _consume_pairs
        if _consume_pairs_jit is not None and not _INTERPRETED:
            core = _consume_pairs_jit
        return run_pairs(ctx, plan, core, mirror=False)
