"""The four benchmark workloads.

Every workload builds its inputs from the run seed alone: graphs in
:meth:`setup`, and per trial an opinion vector and an engine generator
drawn from ``SeedSequence([seed, workload, round, index])``. A *round*
is one pass over the workload's fixed trial mix with fresh trial seeds;
the harness runs whole rounds back to back (a closed loop, one caller).

Calls into ``repro`` go through module attributes
(``generators.random_regular_graph(...)``, ``engine.run_dynamics(...)``)
so the traced run's wrappers see them.

See ``NOTES.md`` for why each workload exists and what it should move.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.analysis.initializers as initializers
import repro.analysis.montecarlo as montecarlo
import repro.core.div as div
import repro.core.engine as engine
import repro.core.fast_complete as fast_complete
import repro.core.schedulers as schedulers
import repro.graphs.generators as generators
import repro.graphs.spectral as spectral
from repro.checkpoint import CheckpointJournal, campaign
from repro.core.dynamics import IncrementalVoting
from repro.core.state import OpinionState
from repro.core.substrate import ChurnPlan, Substrate
from repro.obs.metrics import active_metrics, collecting
from repro.obs.telemetry import TelemetryFeed, telemetering

#: Opinions 1..K in every workload.
K = 5

#: Round id of the untimed warm-up trials (never a timed round).
WARM_UP_ROUND = 2**31 - 1

#: Step cap of the warm-up trials.
WARM_UP_STEPS = 20_000

#: Theorem 2 traffic: averages with fractional part 0.3.
C_TARGET = 3.3


@dataclass
class Outcome:
    """One trial's result, reduced to what the checks compare."""

    tid: Tuple[int, int]
    kind: str
    winner: Optional[int]
    steps: int
    tadj: Optional[int]
    c: float
    fhash: str
    stop_reason: str
    pinned: Optional[int] = None
    support: Tuple[int, ...] = ()
    theorem2: bool = False
    #: Step cap of a budgeted run (``None``: ran to its natural stop).
    budget: Optional[int] = None
    seconds: float = 0.0

    def key(self) -> tuple:
        """Fields that must be bit-identical across re-runs and kernels."""
        return (self.tid, self.winner, self.steps, self.tadj, self.fhash, self.stop_reason)


@dataclass
class Spec:
    """One trial of a round: its id, class and seed material."""

    tid: Tuple[int, int]
    kind: str
    process: str = "vertex"
    entropy: Tuple[int, ...] = ()
    #: Which graph of the class's pool the trial runs on.
    graph: int = 0


@dataclass
class RoundResult:
    outcomes: List[Outcome]
    extra: Dict[str, float] = field(default_factory=dict)


def values_hash(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def spread_opinions(n: int, c: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform opinions in 1..K nudged one unit at a time to average ``c``.

    Every opinion stays present (unlike the two-point mixtures of
    ``initializers.opinions_with_mean``), which is the k=5 input shape
    Theorem 2 is stated for.
    """
    opinions = initializers.uniform_random_opinions(n, K, rng=rng)
    target = round(c * n)
    total = int(opinions.sum())
    while total != target:
        step = 1 if total < target else -1
        movable = np.flatnonzero(opinions < K if step > 0 else opinions > 1)
        chosen = rng.choice(movable, size=min(abs(target - total), movable.size), replace=False)
        opinions[chosen] += step
        total += step * chosen.size
    return opinions


def regular_pool(n: int, size: int):
    """``(pool size, factory)`` of a pool of random 8-regular graphs on ``n`` vertices."""
    return size, lambda rng: generators.random_regular_graph(n, 8, rng=rng)


def capped(budget: Optional[int], cap: Optional[int]) -> Optional[int]:
    """The tighter of a trial's own step budget and an outside cap."""
    if cap is None:
        return budget
    return cap if budget is None else min(budget, cap)


def _div_outcome(
    spec: Spec, result, c: float, theorem2: bool = False, budget: Optional[int] = None
) -> Outcome:
    return Outcome(
        tid=spec.tid,
        kind=spec.kind,
        winner=result.winner,
        steps=result.steps,
        tadj=result.two_adjacent_step,
        c=c,
        fhash=values_hash(result.state.values),
        stop_reason=result.stop_reason,
        support=tuple(result.final_support),
        theorem2=theorem2,
        budget=budget,
    )


class SerialWorkload:
    """A workload whose trials run one after another in this process."""

    name = ""
    ident = 0
    #: Trial classes of one round, in order: (kind, repetitions).
    mix: Tuple[Tuple[str, int], ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def specs(self, rnd: int) -> List[Spec]:
        specs = []
        for kind, reps in self.mix:
            for rep in range(reps):
                index = len(specs)
                specs.append(
                    Spec(
                        tid=(rnd, index),
                        kind=kind,
                        process="vertex" if (rnd + index) % 2 == 0 else "edge",
                        entropy=(self.seed, self.ident, rnd, index),
                        graph=rnd * reps + rep,
                    )
                )
        return specs

    def build_pools(self, factories) -> Dict[str, list]:
        """``{kind: [graph, ...]}`` from ``{kind: (pool size, factory(rng))}``.

        A class runs on a pool of graphs drawn from the seed rather than
        on one, so that the run's timings do not hang on how fast one
        random graph happens to be.
        """
        rng = np.random.default_rng([self.seed, self.ident, 0xFFFF])
        return {kind: [build(rng) for _ in range(size)] for kind, (size, build) in factories.items()}

    def graph_of(self, spec: Spec):
        pool = self.graphs[spec.kind]
        return pool[spec.graph % len(pool)]

    def execute(
        self, spec: Spec, kernel: str = "auto", cap: Optional[int] = None
    ) -> Outcome:  # pragma: no cover - abstract
        """Run one trial; ``cap`` limits its steps (the warm-up's short runs)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run one short trial of every class so lazy paths load before timing."""
        seen = set()
        for spec in self.specs(WARM_UP_ROUND):
            if spec.kind not in seen:
                seen.add(spec.kind)
                self.execute(spec, cap=WARM_UP_STEPS)


class GraphDiv(SerialWorkload):
    """``run_div`` with ``kernel="auto"`` on a mix of static graphs."""

    name = "graph_div"
    ident = 1
    # Consensus times are heavy-tailed (a trial's CV is 0.7-0.9), so the
    # median and the tail trial are put inside budgeted classes: the ten
    # RR(1000) runs cut at MID_BUDGET·n steps are slower than most of the
    # ten consensus runs and faster than the large ones, so the median
    # trial is one of them; two RR(5000) runs a round make the slowest
    # class, with the tail percentile (ten trials beyond it) near its
    # middle rather than on its fastest run.
    mix = (
        ("rr60", 4),
        ("rr120", 2),
        ("rr250", 2),
        ("lollipop", 1),
        ("k200", 1),
        ("mid1000", 10),
        ("large3000", 1),
        ("large5000", 2),
    )
    #: Step budget of the large graphs, per vertex (see NOTES.md).
    LARGE_BUDGET = 40
    #: Step budget of the RR(1000) runs, per vertex.
    MID_BUDGET = 40

    def per_vertex_budget(self, kind: str) -> Optional[int]:
        """Step budget per vertex of a budgeted class; ``None``: to consensus."""
        if kind == "mid1000":
            return self.MID_BUDGET
        return self.LARGE_BUDGET if kind.startswith("large") else None

    def setup(self) -> None:
        self.graphs = self.build_pools({
            "rr60": regular_pool(60, 4),
            "rr120": regular_pool(120, 2),
            "rr250": regular_pool(250, 2),
            "lollipop": (1, lambda rng: generators.lollipop_graph(12, 24)),
            "k200": (1, lambda rng: generators.complete_graph(200)),
            "mid1000": regular_pool(1000, 5),
            "large3000": regular_pool(3000, 1),
            "large5000": regular_pool(5000, 2),
        })
        # Spectral precheck: Theorem 2 is only claimed where its
        # hypotheses (small λk, π_min = Θ(1/n)) hold; the sparse 8-regular
        # graphs (λk ≈ 3.3) and the lollipop get the exact Lemma 3 check.
        # The budgeted graphs have no winner to check, so their
        # eigenvalues are not worth the set-up time.
        self.theorem2_kinds = {
            kind
            for kind, pool in self.graphs.items()
            if self.per_vertex_budget(kind) is None
            and all(spectral.spectral_profile(g).satisfies_theorem_conditions(K) for g in pool)
        }

    def execute(self, spec: Spec, kernel: str = "auto", cap: Optional[int] = None) -> Outcome:
        rng = np.random.default_rng(spec.entropy)
        graph = self.graph_of(spec)
        per_vertex = self.per_vertex_budget(spec.kind)
        max_steps = capped(per_vertex * graph.n if per_vertex else None, cap)
        if spec.kind == "k200":
            opinions = spread_opinions(graph.n, C_TARGET, rng)
        else:
            opinions = initializers.uniform_random_opinions(graph.n, K, rng=rng)
        result = div.run_div(
            graph, opinions, process=spec.process, rng=rng, max_steps=max_steps, kernel=kernel
        )
        c = result.initial_mean if spec.process == "edge" else result.initial_weighted_mean
        return _div_outcome(
            spec, result, c, theorem2=spec.kind in self.theorem2_kinds, budget=max_steps
        )


class CompleteCounts(SerialWorkload):
    """``run_div_complete`` on K_200 (to consensus), K_800 and K_6400 (to T)."""

    name = "complete_counts"
    ident = 2
    # K_200's consensus time has little mass near its median, so the
    # twelve K_800 runs to T (a steady step count, timed close to that
    # median) hold the median trial; K_6400 to T (about 0.23 s, steps
    # CV 0.1) is the slowest class, so the tail percentile falls inside
    # it rather than on the heavy tail of K_200's consensus times.
    mix = (("k200", 24), ("k800", 12), ("k6400", 1))
    SIZES = {"k200": 200, "k800": 800, "k6400": 6400}

    def setup(self) -> None:
        # The count engine needs no graph; the precheck confirms on the
        # smaller K_n that Theorem 2's hypotheses hold (λ = 1/(n-1)
        # only shrinks with n).
        profile = spectral.spectral_profile(generators.complete_graph(self.SIZES["k200"]))
        ok = profile.satisfies_theorem_conditions(K)
        self.theorem2_kinds = set(self.SIZES) if ok else set()

    def execute(self, spec: Spec, kernel: str = "auto", cap: Optional[int] = None) -> Outcome:
        rng = np.random.default_rng(spec.entropy)
        n = self.SIZES[spec.kind]
        opinions = spread_opinions(n, C_TARGET, rng)
        values, counts = np.unique(opinions, return_counts=True)
        histogram = {int(o): int(c) for o, c in zip(values, counts)}
        stop = "consensus" if spec.kind == "k200" else "two_adjacent"
        result = fast_complete.run_div_complete(n, histogram, stop=stop, rng=rng, max_steps=cap)
        fhash = hashlib.sha256(repr(sorted(result.counts.items())).encode()).hexdigest()[:16]
        return Outcome(
            tid=spec.tid,
            kind=spec.kind,
            winner=result.winner,
            steps=result.steps,
            tadj=result.two_adjacent_step,
            c=sum(o * c for o, c in histogram.items()) / n,
            fhash=fhash,
            stop_reason=result.stop_reason,
            support=tuple(result.support),
            theorem2=spec.kind in self.theorem2_kinds,
            budget=cap,
        )


class ScenarioDiv(SerialWorkload):
    """Churn, zealots and the adversarial scheduler on random regular graphs."""

    name = "scenario_div"
    ident = 3
    # Sorted by time a round is 2 zealot runs < 5 adversarial < 2 churn,
    # so the median trial is the third adversarial run (a budgeted,
    # steady class) with two runs of the same class on either side; the
    # churn runs, whose times overlap the slowest adversarial ones, stay
    # clear of it.
    mix = (("churn", 2), ("zealot300", 1), ("zealot600", 1), ("adversarial", 5))
    CHURN_BUDGET = 40
    ADVERSARIAL_BUDGET = 40

    def setup(self) -> None:
        self.graphs = self.build_pools({
            "churn": regular_pool(400, 2),
            "zealot300": regular_pool(300, 2),
            "zealot600": regular_pool(600, 2),
            "adversarial": regular_pool(1000, 5),
        })
        for kind, pool in self.graphs.items():
            # λ < 1: connected and non-bipartite, so every run can mix.
            if any(spectral.second_eigenvalue(graph) >= 1.0 for graph in pool):
                raise RuntimeError(f"{kind}: generated graph is not an expander")

    def execute(self, spec: Spec, kernel: str = "auto", cap: Optional[int] = None) -> Outcome:
        rng = np.random.default_rng(spec.entropy)
        graph = self.graph_of(spec)
        n = graph.n
        opinions = initializers.uniform_random_opinions(n, K, rng=rng)
        if spec.kind == "churn":
            churn_seed = int(rng.integers(0, 2**31))
            substrate = Substrate(graph, ChurnPlan(period=n, swaps=16, seed=churn_seed))
            budget = capped(self.CHURN_BUDGET * n, cap)
            result = div.run_div(
                substrate, opinions, process=spec.process, rng=rng,
                max_steps=budget, kernel=kernel,
            )
            return _div_outcome(spec, result, result.initial_mean, budget=budget)
        if spec.kind.startswith("zealot"):
            pinned = int(rng.integers(1, K + 1))
            frozen = rng.choice(n, size=n // 10, replace=False)
            opinions[frozen] = pinned
            # The cap is a safety net: a run reaching it fails the zealot check.
            budget = capped(4000 * n, cap)
            result = div.run_div(
                graph, opinions, process=spec.process, rng=rng, stop="frozen_consensus",
                frozen=frozen, max_steps=budget, kernel=kernel,
            )
            outcome = _div_outcome(spec, result, result.initial_mean, budget=budget)
            outcome.pinned = pinned
            return outcome
        state = OpinionState(graph, opinions)
        scheduler = schedulers.make_scheduler(graph, "adversarial", state=state, strength=0.5)
        budget = capped(self.ADVERSARIAL_BUDGET * n, cap)
        result = engine.run_dynamics(
            state, scheduler, IncrementalVoting(), rng=rng, max_steps=budget, kernel=kernel,
        )
        return Outcome(
            tid=spec.tid,
            kind=spec.kind,
            winner=state.consensus_value(),
            steps=result.steps,
            tadj=None,
            c=0.0,
            fhash=values_hash(state.values),
            stop_reason=result.stop_reason,
            budget=budget,
        )


#: Every ``LONG_EVERY``-th trial of the journaled campaign is a long one.
LONG_EVERY = 40
#: Step budget of a long journaled trial, per vertex.
LONG_BUDGET = 40


def journal_trial(graphs, index: int, rng: np.random.Generator) -> tuple:
    """One trial of the journaled campaign (picklable).

    ``graphs`` is ``(tiny, long)``. Most trials run ``run_div`` to
    consensus on the tiny graph; every ``LONG_EVERY``-th runs
    ``LONG_BUDGET``·n steps on the long one (about 0.1 s), so that the
    tail percentile falls in a steady class rather than on the heavy
    tail of the tiny trials' consensus times.
    """
    tiny, long = graphs
    budget = LONG_BUDGET * long.n if index % LONG_EVERY == LONG_EVERY - 1 else None
    graph = tiny if budget is None else long
    opinions = initializers.uniform_random_opinions(graph.n, K, rng=rng)
    result = div.run_div(graph, opinions, rng=rng, max_steps=budget)
    return (
        result.winner,
        result.steps,
        result.two_adjacent_step,
        result.initial_weighted_mean,
        values_hash(result.state.values),
        result.stop_reason,
    )


class JournalCampaign:
    """Many tiny trials through ``run_trials`` in a journaled campaign.

    One round is one fresh campaign: ``TRIALS`` trials (one in
    ``LONG_EVERY`` a longer budgeted run, see :func:`journal_trial`) on
    the ``pool`` executor with ``workers = min(2, cpu count)``, journaled, with a
    telemetry feed and a metrics registry, followed by a resume pass
    over the complete journal (timed on its own).
    """

    name = "journal_campaign"
    ident = 4
    TRIALS = 160

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.workers = max(1, min(2, os.cpu_count() or 1))

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, self.ident, 0xFFFF])
        self.graphs = (
            generators.random_regular_graph(40, 6, rng=rng),
            generators.random_regular_graph(1000, 8, rng=rng),
        )
        if any(spectral.second_eigenvalue(graph) >= 1.0 for graph in self.graphs):
            raise RuntimeError("journal graph is not an expander")

    def warm_up(self) -> None:
        montecarlo.run_trials(4, functools.partial(journal_trial, self.graphs), seed=WARM_UP_ROUND)
        journal_trial(self.graphs, LONG_EVERY - 1, np.random.default_rng(WARM_UP_ROUND))

    def campaign_seed(self, rnd: int) -> int:
        return int(np.random.SeedSequence([self.seed, self.ident, rnd]).generate_state(1)[0])

    def _campaign(self, directory: Path, rnd: int, resume: bool):
        journal = CheckpointJournal(directory)
        journal.open(fingerprint=f"perfbench-{self.seed}-{rnd}", resume=resume, seed=self.seed)
        # Reuse an outer registry (the traced run's) so engine counters
        # from the workers reach it.
        feed = TelemetryFeed(directory / "telemetry")
        with collecting(active_metrics()), telemetering(feed), campaign(journal, executor="pool"):
            return montecarlo.run_trials(
                self.TRIALS,
                functools.partial(journal_trial, self.graphs),
                seed=self.campaign_seed(rnd),
                workers=self.workers,
            )

    def run_round(self, rnd: int, clock) -> RoundResult:
        """Run one campaign and its resume; ``clock`` times each part."""
        directory = self.scratch / f"campaign-{rnd}"
        if directory.exists():
            shutil.rmtree(directory)
        started = clock()
        fresh = self._campaign(directory, rnd, resume=False)
        wall = clock() - started
        started = clock()
        resumed = self._campaign(directory, rnd, resume=True)
        resume_s = clock() - started
        outcomes = [
            self._outcome(rnd, index, raw, seconds)
            for index, (raw, seconds) in enumerate(zip(fresh.outcomes, fresh.timings.trial_seconds))
        ]
        records = list((directory / "trials").rglob("*.rec"))
        telemetry = list((directory / "telemetry").glob("*.jsonl"))
        telemetry_lines = 0
        for path in telemetry:
            with open(path, "rb") as handle:
                telemetry_lines += sum(1 for _ in handle)
        extra = {
            "wall": wall,
            "resume_s": resume_s,
            "resume_identical": float(resumed.outcomes == fresh.outcomes),
            "journal_records": float(len(records)),
            "checkpoint_bytes": float(sum(p.stat().st_size for p in records)),
            "telemetry_records": float(telemetry_lines),
            "telemetry_bytes": float(sum(p.stat().st_size for p in telemetry)),
        }
        shutil.rmtree(directory)
        return RoundResult(outcomes=outcomes, extra=extra)

    def rerun(self, rnd: int, count: int, kernel: str) -> List[Outcome]:
        """Serial re-run of round ``rnd``'s first ``count`` trials under ``kernel``."""
        trial_set = montecarlo.run_trials(
            count,
            functools.partial(journal_trial, self.graphs),
            seed=self.campaign_seed(rnd),
            kernel=kernel,
        )
        return [self._outcome(rnd, i, raw, 0.0) for i, raw in enumerate(trial_set.outcomes)]

    def _outcome(self, rnd: int, index: int, raw: tuple, seconds: float) -> Outcome:
        winner, steps, tadj, c, fhash, reason = raw
        return Outcome(
            tid=(rnd, index), kind="tiny", winner=winner, steps=steps, tadj=tadj,
            c=c, fhash=fhash, stop_reason=reason, seconds=seconds,
        )


SERIAL_WORKLOADS = {cls.name: cls for cls in (GraphDiv, CompleteCounts, ScenarioDiv)}
WORKLOAD_NAMES = tuple(SERIAL_WORKLOADS) + (JournalCampaign.name,)


def make_workload(name: str, seed: int, scratch: Path):
    if name == JournalCampaign.name:
        return JournalCampaign(seed, scratch)
    return SERIAL_WORKLOADS[name](seed)
