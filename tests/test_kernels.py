"""Execution-kernel equivalence and unit tests (loop / block / compiled).

Every kernel's contract is *bit-for-bit* equivalence with the
sequential reference loop: same final opinions, same step count, same
stop reason, same observer sequences, for any seed.  The sweep below
exercises that contract across graphs × dynamics × schedulers × stop
conditions × observers for both the block and the compiled backend
(the latter through its interpreted core, so the sweep runs without
numba); the unit tests pin down the conflict-free segment splitter and
the batched state operations the kernels rely on.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    AdversarialScheduler,
    BiasedScheduler,
    ChurnPlan,
    EdgeScheduler,
    IncrementalVoting,
    MedianVoting,
    NoisyDynamics,
    OpinionState,
    PullVoting,
    PushVoting,
    Substrate,
    VertexScheduler,
    frozen_consensus,
    run_dynamics,
)
from repro.core.div import run_div
from repro.core.kernels import (
    AUTO_BLOCK_MIN_N,
    BlockKernel,
    CompiledKernel,
    KERNEL_NAMES,
    LoopKernel,
    NUMBA_AVAILABLE,
    active_kernel,
    compiled_runtime_available,
    conflict_free_bounds,
    interpreted_compiled,
    make_kernel,
    resolve_kernel,
    supports_block,
    supports_compiled,
    use_kernel,
)
from repro.core.observers import (
    ChangeLog,
    FirstTimeTracker,
    SupportTrace,
    TraceBuffer,
    WeightTrace,
)
from repro.core.stopping import (
    first_of,
    never,
    range_at_most,
    support_at_most,
    two_adjacent,
)
from repro.errors import ProcessError
from repro.graphs import complete_graph, random_regular_graph
from repro.rng import make_rng


def initial_state(graph, seed, k=6):
    opinions = make_rng(seed).integers(0, k, size=graph.n)
    return OpinionState(graph, opinions)


#: Non-reference kernels the sweep compares against "loop".  The
#: compiled kernel runs through :func:`interpreted_compiled`, so its
#: control flow is covered bit-for-bit even without numba (with numba
#: installed the jitted core is the same function, machine-compiled).
SWEEP_KERNELS = ("loop", "block", "compiled")


def run_pair(graph, dynamics, scheduler_cls, *, stop, seed, observers=(), **kw):
    """Run the same configuration under every kernel; return all results
    plus the observer sets for sequence comparison."""
    results, observer_sets = [], []
    with interpreted_compiled():
        for kernel in SWEEP_KERNELS:
            state = initial_state(graph, seed)
            obs = [factory() for factory in observers]
            result = run_dynamics(
                state,
                scheduler_cls(graph),
                dynamics,
                stop=stop,
                rng=seed + 1,
                observers=obs,
                kernel=kernel,
                **kw,
            )
            results.append(result)
            observer_sets.append(obs)
    return results, observer_sets


def _observable_state(observer):
    return {
        key: val
        for key, val in vars(observer).items()
        if isinstance(val, (list, TraceBuffer))
    }


def assert_equivalent(results, observer_sets):
    loop = results[0]
    for other in results[1:]:
        assert other.steps == loop.steps
        assert other.stop_reason == loop.stop_reason
        np.testing.assert_array_equal(other.state.values, loop.state.values)
        other.state.check_consistency()
    for observers in zip(*observer_sets):
        reference = _observable_state(observers[0])
        for other in observers[1:]:
            assert _observable_state(other) == reference


GRAPHS = [
    pytest.param(lambda: complete_graph(17), id="complete17"),
    pytest.param(lambda: random_regular_graph(26, 5, rng=3), id="regular26"),
]
DYNAMICS = [
    pytest.param(IncrementalVoting, id="div"),
    pytest.param(PullVoting, id="pull"),
    pytest.param(PushVoting, id="push"),
    pytest.param(MedianVoting, id="median"),
]
SCHEDULERS = [
    pytest.param(VertexScheduler, id="vertex"),
    pytest.param(EdgeScheduler, id="edge"),
]


class TestEquivalenceSweep:
    @pytest.mark.parametrize("graph_factory", GRAPHS)
    @pytest.mark.parametrize("dynamics_cls", DYNAMICS)
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_consensus_runs_bit_identical(
        self, graph_factory, dynamics_cls, scheduler_cls, seed
    ):
        results, observers = run_pair(
            graph_factory(),
            dynamics_cls(),
            scheduler_cls,
            stop="consensus",
            seed=seed,
        )
        assert_equivalent(results, observers)

    @pytest.mark.parametrize(
        "stop",
        [
            pytest.param(two_adjacent, id="two_adjacent"),
            pytest.param(support_at_most(2), id="support_at_most2"),
            pytest.param(range_at_most(1), id="range_at_most1"),
            pytest.param(
                first_of(support_at_most(3), range_at_most(2)), id="first_of"
            ),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_stop_conditions_fire_at_same_step(self, stop, seed):
        results, observers = run_pair(
            complete_graph(19),
            IncrementalVoting(),
            VertexScheduler,
            stop=stop,
            seed=seed,
        )
        assert_equivalent(results, observers)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_never_with_max_steps(self, seed):
        results, observers = run_pair(
            complete_graph(15),
            IncrementalVoting(),
            VertexScheduler,
            stop=never,
            seed=seed,
            max_steps=173,
        )
        assert_equivalent(results, observers)
        assert results[0].steps == 173
        assert not results[1].reached_stop

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sampled_observers_identical(self, seed):
        results, observers = run_pair(
            complete_graph(21),
            IncrementalVoting(),
            EdgeScheduler,
            stop="consensus",
            seed=seed,
            observers=(
                lambda: WeightTrace("vertex", interval=7),
                lambda: SupportTrace(interval=13),
            ),
        )
        assert_equivalent(results, observers)
        assert observers[0][0].steps  # the trace actually sampled

    @pytest.mark.parametrize("seed", [0, 9])
    def test_change_observers_delegate_to_loop(self, seed):
        """ChangeLog sees every (step, v, w, values) tuple identically —
        the block kernel hands runs with such observers to the loop."""
        results, observers = run_pair(
            complete_graph(14),
            PullVoting(),
            VertexScheduler,
            stop="consensus",
            seed=seed,
            observers=(ChangeLog, lambda: WeightTrace("edge", interval=11)),
        )
        assert_equivalent(results, observers)
        assert observers[0][0].entries == observers[1][0].entries
        assert results[1].kernel == "loop"

    def test_small_block_size_hits_segment_boundaries(self):
        results, observers = run_pair(
            complete_graph(13),
            IncrementalVoting(),
            VertexScheduler,
            stop="consensus",
            seed=4,
            block_size=3,
        )
        assert_equivalent(results, observers)


#: Scenario matrix for the substrate-contract sweep: every scenario is
#: run under every kernel and must either match the loop reference
#: bit-for-bit or record an explicit degradation on ``RunResult.kernel``.
SCENARIOS = (
    "churn",
    "zealots",
    "churn_zealots",
    "bias",
    "adversarial",
    "noise",
)


def run_scenario(scenario, kernel, seed):
    """Build a fresh substrate/state/scheduler (substrates mutate in
    place, scenario schedulers bind to a live state) and run one
    scenario under ``kernel``.  Returns (result, substrate, observers)."""
    graph = random_regular_graph(26, 5, rng=3)
    opinions = make_rng(seed).integers(0, 6, size=graph.n)
    plan = None
    if scenario in ("churn", "churn_zealots"):
        plan = ChurnPlan(period=150, swaps=8, seed=seed + 11)
    substrate = Substrate(graph, plan)
    frozen = [0, 13] if scenario in ("zealots", "churn_zealots") else None
    state = OpinionState(graph, opinions, frozen=frozen)
    stop = frozen_consensus(state) if frozen else "consensus"
    if scenario == "bias":
        scheduler = BiasedScheduler(substrate, state, bias=1.5)
    elif scenario == "adversarial":
        scheduler = AdversarialScheduler(substrate, state, strength=0.4)
    else:
        scheduler = VertexScheduler(substrate)
    dynamics = IncrementalVoting()
    if scenario == "noise":
        dynamics = NoisyDynamics(dynamics, drop=0.2, misread=0.15)
    observers = [SupportTrace(interval=13)]
    result = run_dynamics(
        state,
        scheduler,
        dynamics,
        stop=stop,
        rng=seed + 1,
        max_steps=300_000,
        observers=observers,
        kernel=kernel,
    )
    return result, substrate, observers


class TestScenarioEquivalenceSweep:
    """{churn, zealots, bias, noise} × {loop, block, compiled}: the
    kernel contract extends to non-static substrates.  Identical
    outcomes everywhere — except :class:`NoisyDynamics`, which does not
    declare substrate compatibility and must *record* its degradation
    to the loop kernel rather than silently diverge."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 4])
    def test_scenarios_bit_identical_across_kernels(self, scenario, seed):
        results, observer_sets = [], []
        with interpreted_compiled():
            for kernel in SWEEP_KERNELS:
                result, substrate, observers = run_scenario(
                    scenario, kernel, seed
                )
                results.append(result)
                observer_sets.append([observers[0]])
                if scenario in ("churn", "churn_zealots"):
                    # The run really crossed epoch boundaries; the
                    # caches were rebuilt, not just never invalidated.
                    assert substrate.epoch > 0
        assert_equivalent(results, observer_sets)
        if scenario == "noise":
            # NoisyDynamics offers no fast path and declares no
            # substrate compatibility: every kernel request degrades
            # to the sequential loop — and says so on the result.
            assert {r.kernel for r in results} == {"loop"}
        else:
            # DIV declares ("frozen", "churn"): the fast backends stay
            # engaged even with zealots and a rewiring substrate.
            assert [r.kernel for r in results] == list(SWEEP_KERNELS)

    @pytest.mark.parametrize("scenario", ["zealots", "churn_zealots"])
    def test_zealot_runs_stop_at_frozen_floor(self, scenario):
        with interpreted_compiled():
            result, _, _ = run_scenario(scenario, "block", seed=2)
        assert result.reached_stop
        support = result.state.frozen_support()
        assert result.state.support_size == len(set(support))
        for vertex in (0, 13):
            assert result.state.is_frozen(vertex)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_scenario_scheduler_at_zero_matches_vertex_process(self, seed):
        """bias=0 / strength=0 consume the engine stream exactly like
        the plain vertex process — the equivalence anchor that lets the
        scenario sweep piggyback on the main sweep's guarantees."""
        graph = random_regular_graph(26, 5, rng=3)
        outcomes = []
        with interpreted_compiled():
            for build in (
                lambda st: VertexScheduler(graph),
                lambda st: BiasedScheduler(graph, st, bias=0.0),
                lambda st: AdversarialScheduler(graph, st, strength=0.0),
            ):
                state = initial_state(graph, seed)
                result = run_dynamics(
                    state,
                    build(state),
                    IncrementalVoting(),
                    rng=seed + 1,
                    kernel="compiled",
                )
                outcomes.append(result)
        reference = outcomes[0]
        for other in outcomes[1:]:
            assert other.steps == reference.steps
            np.testing.assert_array_equal(
                other.state.values, reference.state.values
            )


def tracked_run(kernel, graph, opinions, seed, *, stop="consensus",
                frozen=None, plan=None, observers=(), block_size=8192):
    """``run_div``'s configuration through ``run_dynamics``: DIV on the
    vertex process with a two-adjacent :class:`FirstTimeTracker`, so
    block size, churn and zealots can be varied.  Returns the result
    and the tracker's first step."""
    state = OpinionState(graph, opinions, frozen=frozen)
    if frozen is not None:
        stop = frozen_consensus(state)
    tracker = FirstTimeTracker(two_adjacent, label="two_adjacent")
    with interpreted_compiled():
        result = run_dynamics(
            state,
            VertexScheduler(Substrate(graph, plan)),
            IncrementalVoting(),
            stop=stop,
            rng=seed + 1,
            max_steps=300_000,
            observers=[*(factory() for factory in observers), tracker],
            block_size=block_size,
            kernel=kernel,
        )
    return result, tracker.first_step


class TestMilestones:
    """The two-adjacent time is a milestone: the block kernel (and the
    compiled kernel, through it) reads its first step off the stop
    timeline and must land on the loop's step exactly."""

    def assert_same_milestone(self, graph, opinions, seed, **kw):
        (reference, tau), *others = [
            tracked_run(kernel, graph, opinions, seed, **kw)
            for kernel in SWEEP_KERNELS
        ]
        for result, other_tau in others:
            assert other_tau == tau
            assert result.steps == reference.steps
            assert result.stop_reason == reference.stop_reason
            np.testing.assert_array_equal(
                result.state.values, reference.state.values
            )
            assert result.kernel == "block"
        return reference, tau

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_first_step_matches_loop(self, seed):
        graph = random_regular_graph(26, 5, rng=3)
        opinions = make_rng(seed).integers(0, 6, size=graph.n)
        result, tau = self.assert_same_milestone(graph, opinions, seed)
        assert 0 < tau < result.steps

    def test_hit_at_step_zero(self):
        graph = complete_graph(16)
        opinions = [3, 4] * 8
        _, tau = self.assert_same_milestone(graph, opinions, 2)
        assert tau == 0

    @pytest.mark.parametrize("seed", [0, 5])
    def test_tie_with_the_stop_goes_to_the_milestone(self, seed):
        graph = complete_graph(19)
        opinions = make_rng(seed).integers(0, 6, size=graph.n)
        result, tau = self.assert_same_milestone(
            graph, opinions, seed, stop="two_adjacent"
        )
        assert result.stop_reason == "two_adjacent"
        assert tau == result.steps

    @pytest.mark.parametrize("seed", [0, 4])
    def test_windows_clipped_by_sampled_observer(self, seed):
        graph = random_regular_graph(26, 5, rng=3)
        opinions = make_rng(seed).integers(0, 6, size=graph.n)
        self.assert_same_milestone(
            graph,
            opinions,
            seed,
            observers=(lambda: SupportTrace(interval=13),),
        )

    def test_small_block_size(self):
        graph = complete_graph(13)
        opinions = make_rng(4).integers(0, 6, size=graph.n)
        self.assert_same_milestone(graph, opinions, 4, block_size=3)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_churn(self, seed):
        graph = random_regular_graph(26, 5, rng=3)
        opinions = make_rng(seed).integers(0, 6, size=graph.n)
        plan = ChurnPlan(period=150, swaps=8, seed=seed + 11)
        self.assert_same_milestone(graph, opinions, seed, plan=plan)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_zealots(self, seed):
        graph = random_regular_graph(26, 5, rng=3)
        opinions = make_rng(seed).integers(0, 6, size=graph.n)
        opinions[0], opinions[13] = 2, 3  # two-adjacent stays reachable
        result, tau = self.assert_same_milestone(
            graph, opinions, seed, frozen=[0, 13]
        )
        assert tau is not None and result.reached_stop

    def test_large_graph_records_without_on_change(self, monkeypatch):
        graph = random_regular_graph(AUTO_BLOCK_MIN_N, 6, rng=5)
        opinions = make_rng(6).integers(0, 4, size=graph.n)
        reference = run_div(graph, opinions, rng=7, kernel="loop")
        calls = []
        original = FirstTimeTracker.on_change

        def counted(self, *args):
            calls.append(args[0])
            original(self, *args)

        monkeypatch.setattr(FirstTimeTracker, "on_change", counted)
        outcome = run_div(graph, opinions, rng=7, kernel="block")
        assert calls == []
        assert outcome.two_adjacent_step == reference.two_adjacent_step
        assert outcome.steps == reference.steps
        assert outcome.winner == reference.winner

    def test_run_div_compiled_executes_on_block(self, monkeypatch):
        # run_div's milestone keeps the compiled kernel's delegate on
        # the window path; opaque predicates go all the way to loop.
        import repro.core.div as div

        kernels = []
        original = div.run_dynamics

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            kernels.append(result.kernel)
            return result

        monkeypatch.setattr(div, "run_dynamics", recording)
        graph = complete_graph(12)
        opinions = make_rng(3).integers(0, 6, size=graph.n)
        with interpreted_compiled():
            outcomes = [
                run_div(graph, opinions, rng=4, kernel=kernel)
                for kernel in SWEEP_KERNELS
            ]
        assert kernels == ["loop", "block", "block"]
        for outcome in outcomes[1:]:
            assert outcome.two_adjacent_step == outcomes[0].two_adjacent_step
            assert outcome.steps == outcomes[0].steps

    def test_opaque_predicate_runs_on_loop(self):
        graph = complete_graph(14)
        taus = []
        for kernel in ("loop", "block"):
            tracker = FirstTimeTracker(lambda s: s.is_two_adjacent)
            assert tracker.support_range_terms is None
            result = run_dynamics(
                initial_state(graph, 2),
                VertexScheduler(graph),
                IncrementalVoting(),
                rng=3,
                observers=[tracker],
                kernel=kernel,
            )
            assert result.kernel == "loop"
            taus.append(tracker.first_step)
        assert taus[0] is not None and taus[0] == taus[1]


class TestConflictFreeBounds:
    def test_no_conflicts_single_segment(self):
        v = np.array([0, 1, 2, 3])
        w = np.array([4, 5, 6, 7])
        assert conflict_free_bounds(v, w) == [0, 4]

    def test_split_at_repeated_updater(self):
        v = np.array([0, 1, 2, 0, 3])
        w = np.array([4, 5, 6, 7, 8])
        assert conflict_free_bounds(v, w) == [0, 3, 5]

    def test_split_at_updater_observed_earlier(self):
        # pair 2 updates vertex 5, which pair 1 observed.
        v = np.array([0, 1, 5])
        w = np.array([4, 5, 6])
        assert conflict_free_bounds(v, w) == [0, 2, 3]

    def test_single_self_pair_is_not_a_conflict(self):
        assert conflict_free_bounds(np.array([3]), np.array([3])) == [0, 1]

    def test_repeated_self_pair_splits(self):
        v = np.array([3, 3])
        w = np.array([3, 3])
        assert conflict_free_bounds(v, w) == [0, 1, 2]

    def test_full_conflict_block_degenerates_to_singletons(self):
        v = np.array([2, 2, 2, 2])
        w = np.array([9, 9, 9, 9])
        assert conflict_free_bounds(v, w) == [0, 1, 2, 3, 4]

    def test_empty_block(self):
        empty = np.array([], dtype=np.int64)
        assert conflict_free_bounds(empty, empty) == [0]

    def test_segments_are_internally_conflict_free(self):
        rng = make_rng(11)
        v = rng.integers(0, 12, size=200)
        w = rng.integers(0, 12, size=200)
        bounds = conflict_free_bounds(v, w)
        assert bounds[0] == 0 and bounds[-1] == 200
        assert bounds == sorted(set(bounds))
        for start, end in zip(bounds, bounds[1:]):
            touched = []
            for i in range(start, end):
                # within a segment no vertex may repeat, except that a
                # pair's own v==w coincidence is harmless.
                pair = {int(v[i]), int(w[i])}
                assert not pair & set(touched)
                touched.extend(pair)


class TestBatchedStateOps:
    def _random_batch(self, state, size, seed):
        rng = make_rng(seed)
        vertices = rng.permutation(state.graph.n)[:size]
        new_values = state.values[vertices] + rng.integers(-1, 2, size=size)
        lo, hi = state.values.min(), state.values.max()
        new_values = np.clip(new_values, lo, hi)
        changed = new_values != state.values[vertices]
        return vertices[changed], new_values[changed]

    def test_apply_block_matches_scalar_apply(self):
        graph = random_regular_graph(30, 4, rng=2)
        scalar = initial_state(graph, 8)
        batched = initial_state(graph, 8)
        vertices, new_values = self._random_batch(scalar, 12, seed=21)
        for vertex, value in zip(vertices, new_values):
            scalar.apply(int(vertex), int(value))
        old = batched.apply_block(vertices, new_values)
        np.testing.assert_array_equal(batched.values, scalar.values)
        np.testing.assert_array_equal(
            old, initial_state(graph, 8).values[vertices]
        )
        batched.check_consistency()
        assert batched.support_size == scalar.support_size

    def test_support_range_timeline_matches_replay(self):
        graph = complete_graph(25)
        state = initial_state(graph, 13)
        vertices, new_values = self._random_batch(state, 10, seed=5)
        old_values = state.values[vertices]
        supports, widths = state.support_range_timeline(old_values, new_values)
        replay = state  # timeline must not have mutated the state
        for i, (vertex, value) in enumerate(zip(vertices, new_values)):
            replay.apply(int(vertex), int(value))
            assert supports[i] == replay.support_size
            assert widths[i] == replay.max_opinion - replay.min_opinion


class TestKernelSelection:
    def test_kernel_names(self):
        assert KERNEL_NAMES == ("auto", "block", "compiled", "loop")

    def test_make_kernel(self):
        assert isinstance(make_kernel("loop"), LoopKernel)
        assert isinstance(make_kernel("block"), BlockKernel)
        assert isinstance(make_kernel("compiled"), CompiledKernel)
        with pytest.raises(ProcessError):
            make_kernel("vectorised")

    def test_supports_block(self):
        assert supports_block(IncrementalVoting())
        assert not supports_block(MedianVoting())

    def test_supports_compiled(self):
        assert supports_compiled(IncrementalVoting())
        assert supports_compiled(PullVoting())
        assert supports_compiled(PushVoting())
        assert not supports_compiled(MedianVoting())

    def test_auto_resolves_by_dynamics(self):
        assert resolve_kernel("auto", IncrementalVoting()).name == "block"
        assert resolve_kernel("auto", MedianVoting()).name == "loop"

    def test_block_falls_back_without_step_block(self):
        assert resolve_kernel("block", MedianVoting()).name == "loop"

    def test_compiled_falls_back_without_numba(self, monkeypatch):
        # Without an importable numba the compiled backend must degrade
        # to the block kernel (then the loop, for non-block dynamics)
        # so dependency-free environments keep working.
        monkeypatch.setattr(
            "repro.core.kernels.compiled.NUMBA_AVAILABLE", False
        )
        assert not compiled_runtime_available()
        assert resolve_kernel("compiled", IncrementalVoting()).name == "block"
        assert resolve_kernel("compiled", MedianVoting()).name == "loop"

    def test_interpreted_compiled_forces_backend(self):
        with interpreted_compiled():
            assert compiled_runtime_available()
            assert (
                resolve_kernel("compiled", IncrementalVoting()).name
                == "compiled"
            )
        assert compiled_runtime_available() == NUMBA_AVAILABLE

    def test_compiled_falls_back_without_compiled_id(self):
        with interpreted_compiled():
            assert resolve_kernel("compiled", MedianVoting()).name == "loop"

    def test_explicit_loop_wins_over_heuristic(self):
        assert resolve_kernel("loop", IncrementalVoting()).name == "loop"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ProcessError):
            resolve_kernel("simd", IncrementalVoting())

    def test_use_kernel_overrides_auto(self):
        assert active_kernel() is None
        with use_kernel("loop"):
            assert active_kernel() == "loop"
            assert resolve_kernel("auto", IncrementalVoting()).name == "loop"
            with use_kernel("block"):
                assert active_kernel() == "block"
            assert active_kernel() == "loop"
        assert active_kernel() is None

    def test_use_kernel_none_is_passthrough(self):
        with use_kernel(None):
            assert active_kernel() is None

    def test_use_kernel_rejects_unknown(self):
        with pytest.raises(ProcessError):
            with use_kernel("simd"):
                pass  # pragma: no cover

    def test_result_records_resolved_kernel(self):
        # "auto" picks by size: loop below AUTO_BLOCK_MIN_N vertices,
        # block from it on; explicit names ignore the size rule.
        small = complete_graph(10)
        below = random_regular_graph(AUTO_BLOCK_MIN_N - 1, 4, rng=1)
        at = random_regular_graph(AUTO_BLOCK_MIN_N, 4, rng=1)
        for graph, kernel, expected in (
            (small, "auto", "loop"),
            (small, "block", "block"),
            (small, "loop", "loop"),
            (below, "auto", "loop"),
            (at, "auto", "block"),
            (at, "loop", "loop"),
        ):
            result = run_dynamics(
                initial_state(graph, 1),
                VertexScheduler(graph),
                IncrementalVoting(),
                rng=2,
                max_steps=5_000,
                kernel=kernel,
            )
            assert result.kernel == expected
        with use_kernel("block"):
            assert resolve_kernel(
                "auto", IncrementalVoting(), state=initial_state(small, 1)
            ).name == "block"

    def test_fallback_recorded_on_result(self):
        graph = complete_graph(10)
        result = run_dynamics(
            initial_state(graph, 1),
            VertexScheduler(graph),
            MedianVoting(),
            rng=2,
            kernel="block",
        )
        assert result.kernel == "loop"

    def test_compiled_fallback_recorded_on_result(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.kernels.compiled.NUMBA_AVAILABLE", False
        )
        graph = complete_graph(10)
        result = run_dynamics(
            initial_state(graph, 1),
            VertexScheduler(graph),
            IncrementalVoting(),
            rng=2,
            kernel="compiled",
        )
        assert result.kernel == "block"


class TestCompiledKernel:
    def test_result_records_compiled(self):
        graph = complete_graph(12)
        with interpreted_compiled():
            result = run_dynamics(
                initial_state(graph, 3),
                VertexScheduler(graph),
                IncrementalVoting(),
                rng=4,
                kernel="compiled",
            )
        assert result.kernel == "compiled"

    def test_change_observer_delegates_to_block(self):
        # Change observers need the live state after every change; the
        # compiled kernel hands such runs to the block kernel, which
        # hands them on to the loop, and the result must name the
        # backend that actually ran.
        graph = complete_graph(12)
        log = ChangeLog()
        with interpreted_compiled():
            result = run_dynamics(
                initial_state(graph, 3),
                VertexScheduler(graph),
                IncrementalVoting(),
                rng=4,
                kernel="compiled",
                observers=[log],
            )
        assert result.kernel == "loop"
        assert log.entries

    def test_opaque_stop_delegates_to_block(self):
        graph = complete_graph(12)

        def opaque(state):
            return "shrunk" if state.support_size <= 2 else None

        with interpreted_compiled():
            result = run_dynamics(
                initial_state(graph, 3),
                VertexScheduler(graph),
                IncrementalVoting(),
                stop=opaque,
                rng=4,
                max_steps=10**6,
                kernel="compiled",
            )
        assert result.kernel == "loop"
        assert result.stop_reason == "shrunk"

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_jitted_core_matches_loop(self):
        # With numba present the real machine-code core must still be
        # bit-for-bit identical (the sweep above covers the interpreted
        # twin everywhere).
        graph = random_regular_graph(64, 6, rng=1)
        reference = run_dynamics(
            initial_state(graph, 5),
            VertexScheduler(graph),
            IncrementalVoting(),
            rng=6,
            kernel="loop",
        )
        compiled = run_dynamics(
            initial_state(graph, 5),
            VertexScheduler(graph),
            IncrementalVoting(),
            rng=6,
            kernel="compiled",
        )
        assert compiled.kernel == "compiled"
        assert compiled.steps == reference.steps
        np.testing.assert_array_equal(
            compiled.state.values, reference.state.values
        )


class TestAllocationRegression:
    def test_batched_hot_path_reuses_scratch(self):
        """apply_block / support_range_timeline settle into zero
        per-window allocation: scratch buffers are identical objects
        across calls and tracemalloc sees no growth once warm."""
        graph = random_regular_graph(200, 6, rng=7)
        state = initial_state(graph, 9)
        rng = make_rng(31)

        def one_window(size=64):
            vertices = rng.permutation(state.graph.n)[:size]
            new_values = np.clip(
                state.values[vertices] + rng.integers(-1, 2, size=size),
                state.values.min(),
                state.values.max(),
            )
            changed = new_values != state.values[vertices]
            vertices, new_values = vertices[changed], new_values[changed]
            if vertices.size == 0:
                return
            state.support_range_timeline(state.values[vertices], new_values)
            state.apply_block(vertices, new_values, defer_weights=True)

        for _ in range(5):  # warm the scratch pool
            one_window()
        warm = {name: id(buf) for name, buf in state._scratch.items()}

        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(20):
            one_window()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()

        assert {name: id(buf) for name, buf in state._scratch.items()} == warm
        state_py = __import__(
            "repro.core.state", fromlist=["__file__"]
        ).__file__
        grown = [
            diff
            for diff in after.compare_to(before, "filename")
            if diff.traceback[0].filename == state_py and diff.size_diff > 0
        ]
        assert sum(d.size_diff for d in grown) < 4096, grown

    def test_trace_buffers_preallocate(self):
        """A long sampled run must not grow one Python object per
        sample: the trace arrays double geometrically instead."""
        trace = SupportTrace(interval=1)
        graph = complete_graph(20)
        state = initial_state(graph, 2)
        for step in range(10_000):
            trace.sample(step, state)
        assert len(trace.steps) == 10_000
        assert trace.steps.capacity < 20_000  # geometric, not per-sample
        assert trace.steps[-1] == 9_999
