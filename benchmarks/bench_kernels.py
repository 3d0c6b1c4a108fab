"""Execution-kernel throughput: loop vs block vs compiled (steps/s).

Under DIV the loop kernel runs its flat path (the per-pair core over
list mirrors), so these compare the three ways of running the same
recurrence on a random regular expander with n ≥ 10⁴; the compiled
kernel (where numba is installed) must beat the block kernel on the
same workload.  All backends are bit-for-bit equivalent (see
``tests/test_kernels.py`` and ``docs/kernels.md``), so these benchmarks
are purely about wall-clock; a run to consensus under each backend
asserts equal step counts as a cheap sanity check.  The compiled
benches skip without numba — the backend would silently resolve like
``auto`` and measure nothing new.
"""

import numpy as np
import pytest

from repro.analysis import uniform_random_opinions
from repro.core import IncrementalVoting, OpinionState, run_dynamics
from repro.core.kernels import NUMBA_AVAILABLE
from repro.core.schedulers import EdgeScheduler, VertexScheduler
from repro.graphs import random_regular_graph

_N = 10_000
_D = 10
_STEPS = 2_000_000
#: Paper-scale size for the large-n sweep (ROADMAP: million-node runs).
_N_LARGE = 100_000


def _run(graph, scheduler_cls, kernel, stop="never", max_steps=_STEPS):
    opinions = uniform_random_opinions(graph.n, 5, rng=0)
    state = OpinionState(graph, opinions)
    result = run_dynamics(
        state,
        scheduler_cls(graph),
        IncrementalVoting(),
        stop=stop,
        rng=1,
        max_steps=max_steps,
        kernel=kernel,
    )
    assert result.kernel == kernel
    return result


def _bench_kernel(benchmark, kernel, scheduler_cls, process, n=_N):
    graph = random_regular_graph(n, _D, rng=0)
    benchmark.extra_info.update(
        engine="generic",
        kernel=kernel,
        process=process,
        n=n,
        d=_D,
        steps=_STEPS,
    )
    benchmark.pedantic(
        lambda: _run(graph, scheduler_cls, kernel), rounds=3, iterations=1
    )


def test_loop_kernel_vertex_throughput(benchmark):
    _bench_kernel(benchmark, "loop", VertexScheduler, "vertex")


def test_block_kernel_vertex_throughput(benchmark):
    _bench_kernel(benchmark, "block", VertexScheduler, "vertex")


def test_loop_kernel_edge_throughput(benchmark):
    _bench_kernel(benchmark, "loop", EdgeScheduler, "edge")


def test_block_kernel_edge_throughput(benchmark):
    _bench_kernel(benchmark, "block", EdgeScheduler, "edge")


def test_block_kernel_large_n_throughput(benchmark):
    _bench_kernel(benchmark, "block", VertexScheduler, "vertex", n=_N_LARGE)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_compiled_kernel_vertex_throughput(benchmark):
    _bench_kernel(benchmark, "compiled", VertexScheduler, "vertex")


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_compiled_kernel_edge_throughput(benchmark):
    _bench_kernel(benchmark, "compiled", EdgeScheduler, "edge")


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_compiled_kernel_large_n_throughput(benchmark):
    _bench_kernel(benchmark, "compiled", VertexScheduler, "vertex", n=_N_LARGE)


def test_kernels_agree_to_consensus(benchmark):
    """Consensus run under both kernels: equal steps, block wall-clock."""
    graph = random_regular_graph(_N, _D, rng=0)
    loop = _run(graph, VertexScheduler, "loop", stop="consensus", max_steps=None)
    benchmark.extra_info.update(
        engine="generic",
        kernel="block",
        process="vertex",
        n=_N,
        d=_D,
        stop="consensus",
        steps=loop.steps,
    )

    def run_block():
        block = _run(
            graph, VertexScheduler, "block", stop="consensus", max_steps=None
        )
        assert block.steps == loop.steps
        assert block.stop_reason == loop.stop_reason
        np.testing.assert_array_equal(block.state.values, loop.state.values)
        return block

    benchmark.pedantic(run_block, rounds=3, iterations=1)
