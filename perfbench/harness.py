"""Timing loop, host calibration, metrics and the traced per-layer run.

One invocation runs one workload:

1. set-up (graph generation, spectral precheck, warm-up) ``SETUP_REPS``
   times; ``setup_s`` is the import time plus the median set-up;
2. the timed phase: whole rounds back to back until ``seconds`` of
   round time have passed, with the calibration probe run between
   rounds (outside the timing);
3. the correctness checks (see :mod:`perfbench.checks`), including a
   ``kernel="loop"`` re-run of round 0.

With ``trace`` the timed phase is split: rounds run untraced for half
the time, then the same rounds run again with every layer wrapped
(:mod:`perfbench.trace`); the per-layer metrics come from the second
pass and ``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks
from perfbench.trace import Recorder, instrumented
from perfbench.workloads import (
    CompleteCounts,
    JournalCampaign,
    Outcome,
    RoundResult,
    make_workload,
)
from repro.obs.metrics import collecting

SETUP_REPS = 3
#: Trials of round 0 the journal workload re-runs under ``kernel="loop"``.
JOURNAL_RERUN = 40
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Journal-round measurements folded into the traced counters.
JOURNAL_COUNTERS = {
    "resume_s": "checkpoint.resume_s",
    "checkpoint_bytes": "checkpoint.bytes",
    "telemetry_records": "telemetry.records",
    "telemetry_bytes": "telemetry.bytes",
}

clock = time.perf_counter

_PROBE_RNG = np.random.default_rng(0)
_PROBE_VALUES = _PROBE_RNG.random(4096)
_PROBE_INDEX = _PROBE_RNG.integers(0, 4096, 256)
_PROBE_LARGE = _PROBE_RNG.random(400_000)
#: Back-to-back runs of the probe body per calibration; the median is kept.
PROBE_REPS = 3


def _probe_once(scalar: bool) -> float:
    """A pure-Python loop of 1500 small-array numpy passes (gather, mask, cumsum).

    This is the shape of the engine's own traffic: many numpy calls on
    a few hundred elements from Python. With ``scalar`` a 150k-iteration
    scalar Python loop and a sort over 400k doubles follow, for the
    journaled campaign, whose time goes to interpreter work (pickling,
    dispatch, journal writes) more than to numpy (see NOTES.md).
    """
    started = clock()
    for _ in range(1500):
        gathered = _PROBE_VALUES[_PROBE_INDEX]
        np.cumsum(gathered[gathered > 0.5])
    if scalar:
        acc = 0
        for i in range(150_000):
            acc = (acc * 31 + i) % 1_000_003
        np.cumsum(np.sort(_PROBE_LARGE))
    return clock() - started


def calibration_probe(scalar: bool = False) -> float:
    """Seconds for one probe body: the median of ``PROBE_REPS`` back-to-back runs.

    One run disturbed by another tenant then does not set a whole
    round's unit.
    """
    return statistics.median(_probe_once(scalar) for _ in range(PROBE_REPS))


def tail(times: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(times)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


class Runner:
    """Runs one workload's rounds and keeps what the metrics need."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.journal = isinstance(workload, JournalCampaign)
        self.errors: List[str] = []
        self.failed_ids = set()
        #: Set during the traced pass: rounds and trials become spans.
        self.recorder: Optional[Recorder] = None

    def run_round(self, rnd: int) -> Tuple[RoundResult, float]:
        recorder = self.recorder
        with recorder.span("round") if recorder is not None else nullcontext():
            if self.journal:
                if recorder is not None:
                    recorder.trial = f"campaign-{rnd}"
                result = self.workload.run_round(rnd, clock)
                if recorder is not None:
                    for key, name in JOURNAL_COUNTERS.items():
                        recorder.count(name, result.extra[key])
                return result, result.extra["wall"]
            outcomes = []
            started = clock()
            for spec in self.workload.specs(rnd):
                trial_started = clock()
                if recorder is not None:
                    recorder.trial = f"{spec.tid[0]}.{spec.tid[1]}"
                with recorder.span("trial") if recorder is not None else nullcontext():
                    outcome = self._execute(spec, "auto")
                if outcome is not None:
                    outcome.seconds = clock() - trial_started
                    outcomes.append(outcome)
            return RoundResult(outcomes), clock() - started

    def _execute(self, spec, kernel: str) -> Optional[Outcome]:
        try:
            return self.workload.execute(spec, kernel=kernel)
        except Exception:  # noqa: BLE001 - a failing trial is counted, not fatal
            self.errors.append(traceback.format_exc())
            self.failed_ids.add(spec.tid)
            return None

    def rerun(self, rnd: int, kernel: str) -> List[Outcome]:
        """Re-run round ``rnd`` (outside the timed phase) under ``kernel``."""
        if self.journal:
            started = clock()
            outcomes = self.workload.rerun(rnd, JOURNAL_RERUN, kernel)
            for outcome in outcomes:
                outcome.seconds = (clock() - started) / len(outcomes)
            return outcomes
        outcomes = []
        for spec in self.workload.specs(rnd):
            started = clock()
            outcome = self._execute(spec, kernel)
            if outcome is not None:
                outcome.seconds = clock() - started
                outcomes.append(outcome)
        return outcomes


def _phase(runner: Runner, rounds: Optional[int], seconds: float, cal: List[float]):
    """Run ``rounds`` rounds, or whole rounds until ``seconds`` have passed.

    The calibration probe runs before every round and once after the
    last; each round keeps the mean of the probes on either side of it.
    """
    results: List[RoundResult] = []
    elapsed = 0.0
    rnd = 0
    probe = calibration_probe(scalar=runner.journal)
    cal.append(probe)
    while (rnd < rounds) if rounds is not None else (elapsed < seconds or rnd == 0):
        result, wall = runner.run_round(rnd)
        after = calibration_probe(scalar=runner.journal)
        cal.append(after)
        result.extra["wall"] = wall
        result.extra["probe"] = (probe + after) / 2
        probe = after
        results.append(result)
        elapsed += wall
        rnd += 1
    return results, elapsed


def _auto_over_best(runner: Runner, loop: List[Outcome]) -> float:
    """Σ auto ÷ Σ min(loop, block) seconds over round 0's trials."""
    if isinstance(runner.workload, CompleteCounts):
        return 0.0  # the count engine has no execution kernel
    auto = {o.tid: o.seconds for o in runner.rerun(0, "auto")}
    block = {o.tid: o.seconds for o in runner.rerun(0, "block")}
    best = sum(min(o.seconds, block[o.tid]) for o in loop if o.tid in block)
    return sum(auto.values()) / best if best else 0.0


def _normalised(results: List[RoundResult]) -> float:
    """Mean of each round's wall time ÷ the probes taken next to it.

    Comparing every round with the host speed measured beside it keeps
    a host that changes speed during the run from showing as a change.
    """
    return statistics.fmean(r.extra["wall"] / r.extra["probe"] for r in results)


def _trial_seconds(results: List[RoundResult]) -> List[float]:
    return [o.seconds for r in results for o in r.outcomes]


def _trial_probes(results: List[RoundResult]) -> List[float]:
    """Each trial's time in probe units (÷ the probes beside its round)."""
    return [o.seconds / r.extra["probe"] for r in results for o in r.outcomes]


def end_to_end(results, elapsed, setup_s) -> Dict[str, float]:
    """Host-normalised timings (reported) and raw wall-clock ones (printed).

    The timings of the result line are in *probes*: multiples of the
    calibration probe run beside each round. The host's own speed drifts
    by more than the bounds over a minute (see NOTES.md), so the raw
    seconds go to the run record and the printed table, not the gate.
    """
    outcomes = [o for r in results for o in r.outcomes]
    times = _trial_seconds(results)
    probes = _trial_probes(results)
    steps = sum(o.steps for o in outcomes)
    wall_probes = sum(r.extra["wall"] / r.extra["probe"] for r in results)
    return {
        "wall_norm": _normalised(results),
        "steps_per_probe": steps / wall_probes,
        "trial_p50_norm": statistics.median(probes),
        "trial_tail_norm": tail(probes)[0],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": elapsed / len(results),
        "trials_per_s": len(outcomes) / elapsed,
        "steps_per_s": steps / elapsed,
        "trial_p50_ms": 1000.0 * statistics.median(times),
        "trial_tail_ms": 1000.0 * tail(times)[0],
    }


#: Raw wall-clock metrics: printed and recorded beside the reported ones.
RAW_METRICS = ("wall_s", "trials_per_s", "steps_per_s", "trial_p50_ms", "trial_tail_ms")


def per_layer(
    recorder: Recorder, registry, rounds: int, overhead: float, cal_ms: float,
    auto_over_best: float,
) -> Dict[str, float]:
    """Per-round layer numbers of the traced pass (totals ÷ rounds)."""
    snapshot = registry.snapshot()
    counters = dict(snapshot.counters)
    c = recorder.counters
    per = 1.0 / rounds

    def self_s(name):
        return recorder.self_seconds(name) * per

    def calls(name):
        return recorder.calls(name) * per

    steps = counters.get("engine.steps", 0)
    windows = c.get("kernels.windows", 0)
    batch = recorder.total_seconds("montecarlo.batch")
    slots = c.get("parallel.worker_slots_s", 0.0)
    return {
        "kernels.resolved.loop": c.get("kernels.resolved.loop", 0) * per,
        "kernels.resolved.block": c.get("kernels.resolved.block", 0) * per,
        "kernels.windows": windows * per,
        "kernels.mean_window": c.get("kernels.window_pairs", 0) / windows if windows else 0.0,
        "kernels.auto_over_best": auto_over_best,
        "observers.on_change_calls": c.get("observers.on_change_calls", 0) * per,
        "state.init_s": self_s("state.init"),
        "state.apply_block_s": self_s("state.apply_block"),
        "state.apply_block_calls": calls("state.apply_block"),
        "state.timeline_s": self_s("state.timeline"),
        "dynamics.step_block_s": self_s("dynamics.step_block"),
        "dynamics.step_block_calls": calls("dynamics.step_block"),
        "engine.run_dynamics_s": self_s("engine.run_dynamics"),
        "engine.steps": steps * per,
        "engine.opinion_changes": counters.get("engine.opinion_changes", 0) * per,
        "engine.rng_blocks": counters.get("engine.rng_blocks", 0) * per,
        "engine.change_ratio": counters.get("engine.opinion_changes", 0) / steps if steps else 0.0,
        "schedulers.draw_block_s": self_s("schedulers.draw_block"),
        "schedulers.draw_block_calls": calls("schedulers.draw_block"),
        "schedulers.rebuild_calls": c.get("schedulers.rebuild_calls", 0) * per,
        "substrate.rewire_s": self_s("substrate.rewire"),
        "substrate.rewire_calls": calls("substrate.rewire"),
        "substrate.advance_s": self_s("substrate.advance"),
        "fast_complete.run_s": self_s("fast_complete.run"),
        "fast_complete.calls": calls("fast_complete.run"),
        "montecarlo.batch_s": batch * per,
        "montecarlo.overhead_s": max(0.0, batch - c.get("montecarlo.trial_s", 0.0)) * per,
        "initializers.s": self_s("initializers"),
        "parallel.execute_s": recorder.total_seconds("parallel.execute") * per,
        "parallel.worker_busy_s": c.get("parallel.worker_busy_s", 0.0) * per,
        "parallel.utilization": c.get("parallel.worker_busy_s", 0.0) / slots if slots else 0.0,
        "parallel.retries": c.get("parallel.retries", 0) * per,
        "checkpoint.record_s": self_s("checkpoint.record"),
        "checkpoint.record_calls": calls("checkpoint.record"),
        "checkpoint.load_s": self_s("checkpoint.load"),
        "checkpoint.resume_s": c.get("checkpoint.resume_s", 0.0) * per,
        "checkpoint.bytes": c.get("checkpoint.bytes", 0.0) * per,
        "telemetry.records": c.get("telemetry.records", 0.0) * per,
        "telemetry.bytes": c.get("telemetry.bytes", 0.0) * per,
        "graphs.build_s": recorder.self_seconds("graphs.build"),
        "graphs.spectral_s": recorder.self_seconds("graphs.spectral"),
        "host.cal_ms": cal_ms,
        "trace.overhead_frac": overhead,
    }


#: Per-layer rows of the printed table: (layer, span, count metric).
LAYER_ROWS = (
    ("core.engine", "engine.run_dynamics"),
    ("core.kernels", "kernels.conflict_free_bounds"),
    ("core.dynamics", "dynamics.step_block"),
    ("core.state", "state.apply_block"),
    ("core.state", "state.timeline"),
    ("core.state", "state.init"),
    ("core.schedulers", "schedulers.draw_block"),
    ("core.substrate", "substrate.advance"),
    ("core.substrate", "substrate.rewire"),
    ("core.fast_complete", "fast_complete.run"),
    ("analysis.montecarlo", "montecarlo.batch"),
    ("analysis.initializers", "initializers"),
    ("parallel", "parallel.execute"),
    ("checkpoint", "checkpoint.record"),
    ("checkpoint", "checkpoint.load"),
    ("graphs", "graphs.build"),
    ("graphs", "graphs.spectral"),
)


def layer_table(recorder: Recorder, rounds: int, metrics: Dict[str, float], wall: float) -> str:
    lines = [
        f"per-layer, traced pass of {rounds} round(s), {wall:.3f} s "
        "(graphs.* over one traced set-up):",
        f"  {'layer':22} {'span':30} {'calls':>10} {'total s':>10} {'self s':>10} {'self %':>7}",
    ]
    for layer, name in LAYER_ROWS:
        stats = recorder.stats.get(name)
        if stats is None:
            continue
        share = 100.0 * stats.self_time / wall if wall else 0.0
        lines.append(
            f"  {layer:22} {name:30} {stats.calls:>10} {stats.total:>10.4f} "
            f"{stats.self_time:>10.4f} {share:>6.1f}%"
        )
    lines.append("  ratios:")
    lines.append(
        f"    engine.change_ratio = {metrics['engine.change_ratio']:.4f} "
        f"(opinion changes {metrics['engine.opinion_changes'] * rounds:.0f} "
        f"/ steps {metrics['engine.steps'] * rounds:.0f})"
    )
    lines.append(
        f"    kernels.mean_window = {metrics['kernels.mean_window']:.2f} pairs "
        f"(windows {metrics['kernels.windows'] * rounds:.0f})"
    )
    lines.append(
        f"    parallel.utilization = {metrics['parallel.utilization']:.3f} "
        f"(worker busy {metrics['parallel.worker_busy_s'] * rounds:.3f} s / workers x execute wall)"
    )
    lines.append(f"    kernels.auto_over_best = {metrics['kernels.auto_over_best']:.3f} "
                 "(auto s / min(loop, block) s on round 0; 0 where no kernel runs)")
    lines.append(f"    trace.overhead_frac = {metrics['trace.overhead_frac']:+.3f} "
                 "(traced / untraced probe-normalised wall of the same rounds - 1)")
    lines.append(f"    spans stored {len(recorder.spans)}, beyond cap {recorder.dropped}")
    return "\n".join(lines)


def run(name: str, seed: int, seconds: float, trace: bool, out: Path, import_s: float) -> dict:
    """Run one workload end to end; returns the result object to print."""
    out.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, out / f"scratch-{name}-{seed}")
    runner = Runner(workload)

    setup_times = []
    for _ in range(SETUP_REPS):
        started = clock()
        workload.setup()
        workload.warm_up()
        setup_times.append(clock() - started)
    setup_s = import_s + statistics.median(setup_times)

    cal: List[float] = []
    results, elapsed = _phase(runner, None, seconds / 2 if trace else seconds, cal)
    outcomes = [o for r in results for o in r.outcomes]
    attempted = len(outcomes) + len(runner.failed_ids)

    loop = runner.rerun(0, "loop")
    all_checks = [
        checks.check_digest(results[0].outcomes, loop),
        checks.check_identical("loop_rerun", results[0].outcomes, loop),
    ]
    all_checks += checks.law_checks(outcomes)
    if runner.journal:
        all_checks += checks.check_resume(results, JournalCampaign.TRIALS)

    cal_ms = 1000.0 * statistics.median(cal)
    record = {"workload": name, "seed": seed, "trace": int(trace), "rounds": len(results),
              "digest_round0": checks.digest(results[0].outcomes)}
    if trace:
        recorder = Recorder()
        with instrumented(recorder):
            workload.setup()
        recorder.counters.clear()
        runner.recorder = recorder
        with collecting() as registry, instrumented(recorder):
            traced, traced_elapsed = _phase(runner, len(results), 0.0, cal)
        runner.recorder = None
        traced_outcomes = [o for r in traced for o in r.outcomes]
        attempted += len(traced_outcomes)
        all_checks.append(checks.check_identical("traced_rerun", outcomes, traced_outcomes))
        # Probe-normalised, so host drift between the passes cancels.
        overhead = _normalised(traced) / _normalised(results) - 1.0
        metrics = per_layer(
            recorder, registry, len(traced), overhead, cal_ms, _auto_over_best(runner, loop)
        )
        print(layer_table(recorder, len(traced), metrics, traced_elapsed))
        spans_path = out / f"spans-{name}-s{seed}.jsonl"
        recorder.dump(spans_path)
        record["spans"] = spans_path.name
    else:
        metrics = end_to_end(results, elapsed, setup_s)
        times = _trial_seconds(results)
        _, percentile = tail(times)
        record["tail"] = {"percentile": percentile, "samples": len(times)}
        print(f"trial_tail_norm and trial_tail_ms are p{percentile:.2f} of {len(times)} "
              f"trials; trial_p50_norm and trial_p50_ms are the median of the same "
              f"{len(times)}")
        print("raw wall clock: " + ", ".join(f"{k} {metrics[k]:.6g}" for k in RAW_METRICS))

    failed_ids = set(runner.failed_ids)
    for check in all_checks:
        failed_ids |= check.failed
    failed = min(attempted, len(failed_ids))
    correct = all(check.ok for check in all_checks) and not runner.errors
    for check in all_checks:
        print(f"check {check.name}: {'ok' if check.ok else 'FAILED'} - {check.detail}")
    for error in runner.errors[:3]:
        print(error)
    print(f"host calibration probe: median {cal_ms:.3f} ms over {len(cal)} probes "
          f"(min {1000 * min(cal):.3f}, max {1000 * max(cal):.3f})")
    print(f"rounds {len(results)}, trials {len(outcomes)}, "
          f"failed_frac {failed / max(1, attempted):.4f} ({failed}/{attempted}), "
          f"digest(round 0) {record['digest_round0']}")
    record.update(
        correct=correct, attempted=attempted, failed=failed,
        failed_frac=failed / max(1, attempted),
        calibration={"median_ms": cal_ms, "probes_ms": [1000 * c for c in cal]},
        round_walls_s=[r.extra["wall"] for r in results],
        setup_runs_s=setup_times, import_s=import_s,
        checks=[{"name": c.name, "ok": c.ok, "detail": c.detail} for c in all_checks],
        metrics=metrics,
    )
    with open(out / f"run-{name}-s{seed}-t{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    shutil.rmtree(out / f"scratch-{name}-{seed}", ignore_errors=True)
    return {"correct": correct, "attempted": max(1, attempted), "failed": failed,
            "metrics": metrics}
