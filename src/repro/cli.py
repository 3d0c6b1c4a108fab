"""Command-line interface: ``python -m repro`` or the ``div-repro`` script.

Commands
--------
``list``
    Show all registered experiments.
``run E1 [E5 ...] [--quick] [--seed N] [--workers N] [--kernel K]``
    Run experiments and print their reports (``all`` runs everything).
    ``--workers N`` parallelizes Monte-Carlo trials across N processes
    with outcomes bit-for-bit identical to the serial run.
    ``--kernel loop|block|compiled|auto`` selects the engine execution
    backend (also outcome-identical; see ``docs/kernels.md``).
    ``--checkpoint-dir DIR`` journals every completed trial so a killed
    campaign can continue with ``--resume``; ``--inject-faults SPEC``
    runs a deterministic chaos drill (see ``docs/robustness.md``).
    ``--executor journal`` lets several launcher processes pointed at
    the same ``--checkpoint-dir`` drain one campaign cooperatively via
    lease files (``--lease-ttl`` tunes dead-launcher reclaim).
``campaign status DIR`` / ``campaign watch DIR [--interval S] [--once]``
    Per-batch progress and live/stale lease ownership of a campaign
    being drained by journal-executor launchers. ``watch`` follows the
    campaign live through its telemetry feeds (``run --telemetry``):
    per-launcher throughput, completed-vs-total per batch, ETA, and
    stale-lease / dead-launcher warnings.
``timeline report DIR [--trace PATH] [--bin S]``
    Post-hoc analysis of a telemetered campaign: per-launcher
    utilization and contention, throughput-over-time, merged metrics,
    and per-phase attribution joined from ``--trace-dir`` traces.
``bench compare OLD.json NEW.json [--threshold R]``
    Diff two committed ``BENCH_*.json`` snapshots per benchmark; exits
    1 on any regression beyond the threshold (the CI perf gate).
``demo``
    A 30-second tour: one DIV run with a stage trace on a small graph.
``lint [--format text|json|sarif] [--rules R1,R2] [paths]``
    Run the project-wide static analysis engine (see ``repro.devtools``)
    over the given files/directories (default: ``src`` and ``tests``):
    per-file rules plus the concurrency-safety (PAR), determinism-flow
    (DET), kernel-contract (KER) and declared-layering (LAY) analyzer
    families.  Warm runs reuse a content-hash cache (``--no-cache`` to
    disable); accepted findings live in ``lint-baseline.json``
    (``--update-baseline`` to regenerate); ``--format sarif`` emits a
    SARIF 2.1.0 log for GitHub code-scanning annotations.
``checkpoint show DIR`` / ``checkpoint diff A B``
    Inspect a campaign directory, or compare two campaigns' journaled
    trial records bit-for-bit.
``trace summarize PATH``
    Per-phase step/wall-time breakdown and per-worker throughput of the
    JSONL traces written by ``run --trace-dir`` (see
    ``docs/observability.md``). ``run`` also takes ``--metrics-out``
    (aggregated counters/histograms as JSON) and ``--profile-out``
    (cProfile hot paths per span).

Expected failures (unknown experiment, bad graph file, corrupt or
mismatched checkpoint — anything raising ``ReproError``) print a
one-line message to stderr and exit 2; tracebacks are reserved for
genuine bugs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments.registry import all_experiments, get_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="div-repro",
        description="Reproduction harness for 'Discrete Incremental Voting on Expanders'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+", help="experiment ids (E1..E19) or 'all'")
    run.add_argument("--quick", action="store_true", help="benchmark-scale configs")
    run.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel trial workers (outcomes identical to serial; "
        "experiments without parallel support run serially)",
    )
    run.add_argument(
        "--kernel",
        choices=("auto", "block", "compiled", "loop"),
        default="auto",
        help="engine execution kernel: 'loop' (sequential: one per-pair "
        "core for DIV/pull/push, one step call per pair otherwise), "
        "'block' (vectorized conflict-free segments), 'compiled' "
        "(the per-pair core jitted by numba; resolves like 'auto' "
        "without numba) or 'auto' (default; block on graphs of at "
        "least 24000 vertices where the dynamics supports it, else "
        "loop). "
        "Reports are bit-for-bit identical across kernels "
        "(docs/kernels.md)",
    )
    run.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write each report as DIR/<id>.json",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="journal completed trials under DIR/<experiment id> so an "
        "interrupted campaign can be resumed",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="skip trials already journaled in --checkpoint-dir "
        "(outcomes stay bit-for-bit identical to an uninterrupted run)",
    )
    run.add_argument(
        "--discard-corrupt",
        action="store_true",
        help="re-run trials whose checkpoint records fail their "
        "integrity check instead of aborting the resume",
    )
    run.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="deterministic chaos drill: scripted worker crashes/hangs "
        "and checkpoint damage by trial index, e.g. "
        "'crash@3:1;hang@5:1;corrupt@7' (see docs/robustness.md)",
    )
    run.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for each parallel dispatch round "
        "(enforced as one per-round deadline across its chunks)",
    )
    run.add_argument(
        "--executor",
        choices=("auto", "serial", "pool", "journal"),
        default="auto",
        help="trial execution backend: 'serial' (in-process), 'pool' "
        "(local process pool), 'journal' (several launchers sharing "
        "--checkpoint-dir drain the campaign cooperatively via lease "
        "files) or 'auto' (default; serial/pool from --workers). "
        "Outcomes are bit-for-bit identical across executors "
        "(docs/robustness.md)",
    )
    run.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="journal executor only: heartbeat TTL after which a dead "
        "launcher's chunk claims are reclaimed by peers",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="pool retry rounds after a worker crash or chunk timeout "
        "before falling back in-process",
    )
    run.add_argument(
        "--telemetry",
        action="store_true",
        help="stream per-launcher progress feeds under "
        "<checkpoint dir>/<experiment>/telemetry/ for 'campaign watch' "
        "and 'timeline report' (requires --checkpoint-dir)",
    )
    run.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="write one JSONL span/event trace per experiment under DIR "
        "(inspect with 'div-repro trace summarize DIR'; see "
        "docs/observability.md)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write aggregated counters/gauges/histograms of the whole "
        "invocation as JSON to FILE",
    )
    run.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="profile the run with cProfile (slow!) and write per-span "
        "hot-path stats to FILE",
    )

    sub.add_parser("demo", help="run a small annotated DIV demo")

    lint = sub.add_parser(
        "lint", help="run the project-wide static analysis engine"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule/analyzer ids to run (default: all "
        "analyzers plus the per-file rules they do not supersede)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and analyzers and exit",
    )
    lint.add_argument(
        "--no-project",
        action="store_true",
        help="per-file rules only: skip the cross-module analyzers, the "
        "cache and the baseline (the pre-project behaviour)",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the incremental lint cache",
    )
    lint.add_argument(
        "--cache",
        default=None,
        metavar="FILE",
        help="cache file location (default .div_repro_lint_cache.json)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppression baseline file (default lint-baseline.json "
        "when it exists)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept all current findings "
        "(preserving existing justifications), then exit clean",
    )

    report = sub.add_parser(
        "report", help="run every experiment and write one combined markdown report"
    )
    report.add_argument("output", help="output markdown file")
    report.add_argument("--quick", action="store_true", help="benchmark-scale configs")
    report.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    report.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel trial workers (outcomes identical to serial)",
    )
    report.add_argument(
        "--kernel",
        choices=("auto", "block", "compiled", "loop"),
        default="auto",
        help="engine execution kernel (bit-identical; see docs/kernels.md)",
    )

    trace = sub.add_parser(
        "trace", help="inspect JSONL run traces written by 'run --trace-dir'"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase step/wall-time breakdown and per-worker throughput "
        "of a trace file or directory",
    )
    summarize.add_argument("path", help="trace .jsonl file or a directory of them")

    campaign = sub.add_parser(
        "campaign",
        help="inspect live multi-launcher campaigns (journal executor)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    status = campaign_sub.add_parser(
        "status",
        help="per-batch progress and lease ownership of a campaign "
        "directory being drained by journal-executor launchers",
    )
    status.add_argument("directory", help="campaign dir (or a parent of several)")
    watch = campaign_sub.add_parser(
        "watch",
        help="follow a telemetered campaign live: per-launcher "
        "throughput, batch progress, ETA, stale-lease and "
        "dead-launcher warnings (campaigns run with --telemetry)",
    )
    watch.add_argument("directory", help="campaign dir (or a parent of several)")
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval (default 2s)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (scripting/CI)",
    )

    timeline = sub.add_parser(
        "timeline",
        help="post-hoc analysis of a telemetered campaign's feeds",
    )
    timeline_sub = timeline.add_subparsers(dest="timeline_command", required=True)
    tl_report = timeline_sub.add_parser(
        "report",
        help="per-launcher utilization, contention, throughput-over-time "
        "and merged metrics of a campaign run with --telemetry",
    )
    tl_report.add_argument("directory", help="campaign dir (or a parent of several)")
    tl_report.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="join per-phase step/wall attribution from a trace file or "
        "directory written by 'run --trace-dir'",
    )
    tl_report.add_argument(
        "--bin",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="bin width of the throughput-over-time series (default 5s)",
    )

    bench = sub.add_parser(
        "bench", help="compare committed benchmark snapshots"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    compare = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json snapshots per benchmark; exit 1 on "
        "regressions beyond the threshold or missing benchmarks",
    )
    compare.add_argument("old", help="baseline snapshot (the committed one)")
    compare.add_argument("new", help="candidate snapshot")
    compare.add_argument(
        "--threshold",
        type=float,
        default=0.3,
        metavar="RATIO",
        help="relative mean-time change that counts as a regression/"
        "improvement (default 0.3 = 30%%)",
    )
    compare.add_argument(
        "--min-seconds",
        type=float,
        default=1e-4,
        metavar="S",
        help="noise floor: benchmarks with baseline mean below S are "
        "never judged (default 1e-4)",
    )

    checkpoint = sub.add_parser(
        "checkpoint", help="inspect or compare campaign checkpoint directories"
    )
    checkpoint_sub = checkpoint.add_subparsers(dest="checkpoint_command", required=True)
    show = checkpoint_sub.add_parser(
        "show", help="summarize a campaign directory's manifest and records"
    )
    show.add_argument("directory", help="campaign dir (or a parent of several)")
    diff = checkpoint_sub.add_parser(
        "diff",
        help="compare two campaigns' trial records bit-for-bit "
        "(exit 1 on any difference)",
    )
    diff.add_argument("left", help="first campaign directory")
    diff.add_argument("right", help="second campaign directory")
    return parser


def _cmd_list() -> int:
    for spec in all_experiments():
        print(f"{spec.experiment_id:>4}  {spec.title}")
    return 0


def _cmd_run(args) -> int:
    ids: List[str] = args.experiments
    quick: bool = args.quick
    seed: int = args.seed
    json_dir: Optional[str] = args.json
    workers: Optional[int] = args.workers
    fault_plan = None
    if args.inject_faults is not None:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.parse(args.inject_faults)
        print(f"[chaos drill: injecting faults {fault_plan.render()}]")
    if args.resume and args.checkpoint_dir is None:
        from repro.errors import CheckpointError

        raise CheckpointError("--resume requires --checkpoint-dir")
    if args.executor == "journal" and args.checkpoint_dir is None:
        from repro.errors import CheckpointError

        raise CheckpointError(
            "--executor journal coordinates launchers through the "
            "campaign journal; it requires --checkpoint-dir"
        )
    if args.telemetry and args.checkpoint_dir is None:
        from repro.errors import CheckpointError

        raise CheckpointError(
            "--telemetry feeds live under the campaign journal; it "
            "requires --checkpoint-dir"
        )
    campaign_options = dict(
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        discard_corrupt=args.discard_corrupt,
        fault_plan=fault_plan,
        trial_timeout=args.trial_timeout,
        max_retries=args.max_retries,
        kernel=None if args.kernel == "auto" else args.kernel,
        executor=None if args.executor == "auto" else args.executor,
        lease_ttl=args.lease_ttl,
        telemetry=args.telemetry,
    )
    if any(e.lower() == "all" for e in ids):
        specs = all_experiments()
    else:
        specs = [get_experiment(e) for e in ids]
    from contextlib import ExitStack

    with ExitStack() as stack:
        registry = None
        if args.metrics_out is not None:
            from repro.obs.metrics import collecting

            registry = stack.enter_context(collecting())
        profiler = None
        if args.profile_out is not None:
            from repro.obs.profile import profiling

            profiler = stack.enter_context(profiling())
        for spec in specs:
            if workers is not None and not spec.supports_workers:
                print(
                    f"[{spec.experiment_id} has no parallel trial support; "
                    "running serially]"
                )
            started = time.time()
            tracer = None
            with ExitStack() as spec_stack:
                if args.trace_dir is not None:
                    from pathlib import Path

                    from repro.obs.tracing import Tracer, activate

                    tracer = Tracer(
                        Path(args.trace_dir)
                        / f"{spec.experiment_id.lower()}.jsonl"
                    )
                    spec_stack.enter_context(activate(tracer))
                report = spec.run_campaign(
                    "quick" if quick else "full",
                    seed=seed,
                    workers=workers,
                    **campaign_options,
                )
            print(report.render())
            print(
                f"\n[{spec.experiment_id} finished in "
                f"{time.time() - started:.1f}s]\n"
            )
            if tracer is not None:
                print(f"[wrote trace {tracer.close()}]\n")
            if json_dir is not None:
                from pathlib import Path

                from repro.io import write_report_json

                directory = Path(json_dir)
                directory.mkdir(parents=True, exist_ok=True)
                target = directory / f"{spec.experiment_id.lower()}.json"
                write_report_json(report, target)
                print(f"[wrote {target}]\n")
        if registry is not None:
            from repro.io import write_json

            write_json(registry.snapshot().to_dict(), args.metrics_out)
            print(f"[wrote metrics {args.metrics_out}]")
        if profiler is not None:
            from repro.io import atomic_write_text

            atomic_write_text(args.profile_out, profiler.render())
            print(f"[wrote profile {args.profile_out}]")
    return 0


def _cmd_demo() -> int:
    from repro.analysis.initializers import opinions_from_counts
    from repro.core.div import run_div
    from repro.core.observers import StageRecorder
    from repro.graphs import complete_graph

    graph = complete_graph(30)
    opinions = opinions_from_counts({1: 10, 2: 10, 5: 10}, rng=0)
    recorder = StageRecorder()
    result = run_div(graph, opinions, process="vertex", rng=1, observers=[recorder])
    print(f"DIV on {graph.name}, initial opinions {{1,2,5}} (c = {result.initial_mean:.2f})")
    trajectory = " -> ".join(
        "{" + ",".join(map(str, stage.support)) + "}" for stage in recorder.stages
    )
    print(f"stage evolution: {trajectory}")
    print(
        f"winner {result.winner} after {result.steps} steps "
        f"(two adjacent opinions from step {result.two_adjacent_step})"
    )
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro import devtools

    if args.list_rules:
        superseded = devtools.superseded_rule_ids()
        for rule in devtools.get_rules():
            note = (
                f"  (superseded by {superseded[rule.rule_id]} in project mode)"
                if rule.rule_id in superseded
                else ""
            )
            print(f"{rule.rule_id}  [{rule.severity.value}]  {rule.title}{note}")
        for analyzer in devtools.get_analyzers():
            print(
                f"{analyzer.rule_id}  [{analyzer.severity.value}]  "
                f"{analyzer.summary}"
            )
        return 0
    rule_ids = None
    if args.rules is not None:
        # An empty --rules value falls back to the full rule set rather
        # than silently linting with no rules at all.
        rule_ids = [
            part.strip() for part in args.rules.split(",") if part.strip()
        ] or None
    paths = args.paths
    if not paths:
        paths = [p for p in ("src", "tests") if Path(p).exists()] or ["."]
    try:
        if args.no_project:
            run = devtools.lint_paths(paths, rule_ids=rule_ids)
        else:
            baseline = args.baseline
            if baseline is None and Path(devtools.DEFAULT_BASELINE_NAME).exists():
                baseline = devtools.DEFAULT_BASELINE_NAME
            if baseline is None and args.update_baseline:
                baseline = devtools.DEFAULT_BASELINE_NAME
            cache = args.cache if args.cache else devtools.DEFAULT_CACHE_NAME
            run = devtools.lint_project(
                paths,
                rule_ids=rule_ids,
                cache_path=cache,
                use_cache=not args.no_cache,
                baseline_path=baseline,
                update_baseline=args.update_baseline,
            )
    except KeyError as exc:
        known = ", ".join(
            devtools.all_rule_ids() + devtools.all_analyzer_ids()
        )
        print(f"unknown rule id {exc.args[0]!r} (known: {known})", file=sys.stderr)
        return 2
    except devtools.LintConfigError as exc:
        print(f"lint configuration error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(devtools.render_json(run.findings, run.checked_files))
    elif args.format == "sarif":
        docs = dict(devtools.RULE_DOCS)
        docs.update(devtools.analyzer_docs())
        print(devtools.render_sarif(run.findings, rule_docs=docs))
    else:
        print(devtools.render_text(run.findings, run.checked_files))
        baselined = getattr(run, "baselined", [])
        if baselined:
            print(
                f"note: {len(baselined)} finding(s) accepted by the "
                f"suppression baseline"
            )
    return 1 if run.findings else 0


def _campaign_dirs(directory) -> list:
    """The campaign dirs under ``directory`` (itself, or its children)."""
    from pathlib import Path

    from repro.checkpoint import MANIFEST_NAME
    from repro.errors import CheckpointError

    root = Path(directory)
    if (root / MANIFEST_NAME).is_file():
        return [root]
    if root.is_dir():
        found = sorted(
            child for child in root.iterdir() if (child / MANIFEST_NAME).is_file()
        )
        if found:
            return found
    raise CheckpointError(
        f"{root}: no campaign found (expected {MANIFEST_NAME} in it or in "
        "a direct subdirectory)"
    )


def _cmd_trace_summarize(path: str) -> int:
    from repro.experiments.tables import Table
    from repro.obs.tracing import load_trace_dir, summarize_records

    summary = summarize_records(load_trace_dir(path))
    for record in summary.campaigns:
        workers = record.get("workers", 0)
        print(
            f"campaign {record.get('experiment', '?')} "
            f"[{record.get('scale', '?')}] seed={record.get('seed', '?')} "
            f"workers={workers if workers else 'serial'} "
            f"— {record.get('seconds', 0.0):.2f}s"
        )
    print(
        f"{summary.engine_spans} engine run(s), {summary.total_steps} steps, "
        f"{summary.total_engine_seconds:.3f}s engine wall time "
        f"({1e3 * summary.mean_engine_seconds:.2f}"
        f"±{1e3 * summary.stddev_engine_seconds:.2f}ms/run), "
        f"{summary.phase_transitions} phase transition(s)"
    )
    if summary.phase_steps:
        table = Table(
            title="Per-phase breakdown (phase = number of distinct opinions)",
            headers=["|support|", "runs", "steps", "steps %", "wall s", "wall %"],
        )
        total_steps = max(summary.total_steps, 1)
        total_seconds = max(summary.total_engine_seconds, 1e-12)
        for support in sorted(summary.phase_steps, reverse=True):
            steps = summary.phase_steps[support]
            seconds = summary.phase_seconds.get(support, 0.0)
            table.add_row(
                support,
                summary.phase_spans.get(support, 0),
                steps,
                f"{100.0 * steps / total_steps:.1f}",
                f"{seconds:.3f}",
                f"{100.0 * seconds / total_seconds:.1f}",
            )
        table.add_note(
            "per-span phase steps always sum to the span's total steps "
            "(validated while loading)"
        )
        print()
        print(table.render())
    if summary.workers:
        table = Table(
            title="Per-worker throughput",
            headers=["worker", "trials", "busy s", "trials/s"],
        )
        for worker in sorted(summary.workers):
            trials, busy = summary.workers[worker]
            rate = trials / busy if busy > 0 else float("inf")
            table.add_row(worker, trials, f"{busy:.3f}", f"{rate:.1f}")
        print()
        print(table.render())
    return 0


def _campaign_snapshot(campaign_dir):
    """One campaign's merged state: journal truth, leases, telemetry.

    The single code path behind both ``campaign status`` and ``campaign
    watch`` — the timeline is ``None`` when the campaign was not run
    with ``--telemetry`` (or has produced no feeds yet).
    """
    from repro.checkpoint import LEASES_DIRNAME, MANIFEST_NAME, CheckpointJournal
    from repro.obs.telemetry import TELEMETRY_DIRNAME
    from repro.obs.timeline import load_timeline
    from repro.parallel import scan_leases, summarize_leases

    manifest = {}
    per_batch = {}
    if (campaign_dir / MANIFEST_NAME).is_file():
        journal = CheckpointJournal(campaign_dir)
        manifest = journal.read_manifest()
        for batch, _, _ in journal.iter_records():
            per_batch[batch] = per_batch.get(batch, 0) + 1
    leases = scan_leases(campaign_dir / LEASES_DIRNAME)
    timeline = None
    if (campaign_dir / TELEMETRY_DIRNAME).is_dir() or (
        campaign_dir.name == TELEMETRY_DIRNAME and campaign_dir.is_dir()
    ):
        timeline = load_timeline(campaign_dir)
    return {
        "dir": campaign_dir,
        "manifest": manifest,
        "per_batch": per_batch,
        "leases": leases,
        "lease_split": summarize_leases(leases),
        "timeline": timeline,
    }


def _lease_lines(snapshot) -> list:
    """Per-batch journal/lease lines shared by status and watch.

    Heartbeat ages are clamped at zero: a peer whose clock runs ahead
    of ours writes heartbeats "from the future", and a raw negative age
    reads like corruption when it is only skew.
    """
    lines = []
    by_batch = {}
    for lease in snapshot["leases"]:
        by_batch.setdefault(lease.path.parent.name, []).append(lease)
    for batch in sorted(set(snapshot["per_batch"]) | set(by_batch)):
        lines.append(f"  {batch}: {snapshot['per_batch'].get(batch, 0)} trial(s)")
        for lease in by_batch.get(batch, ()):
            state = "stale" if lease.is_stale() else "live"
            indices = lease.chunk
            span = f"t{indices[0]}..t{indices[-1]}" if indices else "empty"
            lines.append(
                f"    {lease.path.name}: {state}, owner {lease.owner}, "
                f"{span}, heartbeat {max(0.0, lease.age()):.1f}s ago "
                f"(ttl {lease.ttl:.0f}s)"
            )
    return lines


def _cmd_campaign_status(directory: str) -> int:
    for campaign_dir in _campaign_dirs(directory):
        snapshot = _campaign_snapshot(campaign_dir)
        manifest = snapshot["manifest"]
        per_batch = snapshot["per_batch"]
        split = snapshot["lease_split"]
        print(
            f"{campaign_dir}: {manifest.get('experiment_id', '?')} "
            f"[{manifest.get('scale', '?')}] seed={manifest.get('seed', '?')} "
            f"— {sum(per_batch.values())} journaled trial(s) in "
            f"{len(per_batch)} batch(es); {split['live']} live / "
            f"{split['stale']} stale lease(s)"
        )
        for line in _lease_lines(snapshot):
            print(line)
        timeline = snapshot["timeline"]
        if timeline is not None and timeline.launchers:
            closed = sum(1 for l in timeline.launchers.values() if l.closed)
            print(
                f"  telemetry: {len(timeline.launchers)} launcher feed(s) "
                f"({closed} closed), {timeline.executed} executed "
                f"trial(s), {timeline.duplicates} duplicate(s)"
            )
    return 0


def _timeline_dirs(directory) -> list:
    """Campaign dirs under ``directory`` — accepting manifest-less dirs
    that hold telemetry feeds (hand-built or partially-synced campaigns)."""
    from pathlib import Path

    from repro.errors import CheckpointError
    from repro.obs.telemetry import TELEMETRY_DIRNAME

    try:
        return _campaign_dirs(directory)
    except CheckpointError:
        root = Path(directory)
        if root.name == TELEMETRY_DIRNAME or (root / TELEMETRY_DIRNAME).is_dir():
            return [root]
        raise


def _render_watch(campaign_dir, now: float) -> None:
    snapshot = _campaign_snapshot(campaign_dir)
    timeline = snapshot["timeline"]
    manifest = snapshot["manifest"]
    if timeline is None or not timeline.launchers:
        print(
            f"{campaign_dir}: no telemetry feeds yet (campaign not "
            "started, or run without --telemetry)"
        )
        for line in _lease_lines(snapshot):
            print(line)
        return
    total = timeline.total
    completed = timeline.completed
    rate = timeline.recent_rate()
    eta = timeline.eta_seconds()
    percent = 100.0 * completed / total if total else 0.0
    eta_text = "done" if eta == 0.0 else ("?" if eta is None else f"{eta:.0f}s")
    print(
        f"{campaign_dir}: {manifest.get('experiment_id', '?')} "
        f"[{manifest.get('scale', '?')}] — {completed}/{total} trial(s) "
        f"({percent:.0f}%), {rate:.1f} trials/s, ETA {eta_text}"
    )
    for key in sorted(timeline.batches):
        batch = timeline.batches[key]
        executors = sorted(set(batch.finished_by.values()))
        suffix = f" [{'+'.join(executors)}]" if executors else ""
        dup = f", {batch.duplicates} duplicate(s)" if batch.duplicates else ""
        print(f"  {key}: {batch.completed}/{batch.size}{suffix}{dup}")
    for name in sorted(timeline.launchers):
        launcher = timeline.launchers[name]
        if launcher.closed:
            state = "closed"
        elif launcher.is_stale(now):
            quiet = now - launcher.last_seen
            state = f"SILENT {quiet:.1f}s (heartbeat due every {launcher.heartbeat_interval:.1f}s — dead launcher?)"
        else:
            state = f"live, last seen {max(0.0, now - launcher.last_seen):.1f}s ago"
        print(
            f"  launcher {launcher.name}: {launcher.executed} trial(s), "
            f"{launcher.trials_per_second:.1f}/s, "
            f"util {100.0 * launcher.utilization:.0f}%, {state}"
        )
    stale = [lease for lease in snapshot["leases"] if lease.is_stale()]
    for lease in stale:
        indices = lease.chunk
        span = f"t{indices[0]}..t{indices[-1]}" if indices else "empty"
        print(
            f"  WARNING: stale lease {lease.path.parent.name}/"
            f"{lease.path.name} ({span}) owner {lease.owner}, heartbeat "
            f"{max(0.0, lease.age()):.1f}s ago — peers will reclaim it"
        )
    if timeline.torn_lines:
        print(f"  note: {timeline.torn_lines} torn feed line(s) skipped")


def _cmd_campaign_watch(directory: str, interval: float, once: bool) -> int:
    dirs = _timeline_dirs(directory)
    while True:
        now = time.time()
        for campaign_dir in dirs:
            _render_watch(campaign_dir, now)
        if once:
            return 0
        sys.stdout.flush()
        try:
            time.sleep(max(interval, 0.1))
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0
        print()


def _cmd_timeline_report(directory: str, trace: Optional[str], bin_seconds: float) -> int:
    from repro.experiments.tables import Table
    from repro.obs.timeline import load_timeline

    for campaign_dir in _timeline_dirs(directory):
        timeline = load_timeline(campaign_dir)
        span = max(timeline.last_seen - timeline.started, 0.0)
        print(
            f"{campaign_dir}: {len(timeline.launchers)} launcher feed(s), "
            f"{timeline.completed}/{timeline.total} trial(s) over "
            f"{span:.1f}s, {timeline.duplicates} duplicate(s), "
            f"{timeline.torn_lines} torn line(s)"
        )
        if timeline.launchers:
            table = Table(
                title="Per-launcher utilization",
                headers=[
                    "launcher", "trials", "peer", "busy s", "wall s",
                    "util %", "trials/s", "leases",
                ],
            )
            for name in sorted(timeline.launchers):
                launcher = timeline.launchers[name]
                lease_text = (
                    ", ".join(
                        f"{kind}:{count}"
                        for kind, count in sorted(launcher.lease_events.items())
                    )
                    or "-"
                )
                table.add_row(
                    launcher.name,
                    launcher.executed,
                    launcher.peer_loaded,
                    f"{launcher.busy_seconds:.2f}",
                    f"{launcher.wall_seconds:.2f}",
                    f"{100.0 * launcher.utilization:.0f}",
                    f"{launcher.trials_per_second:.1f}",
                    lease_text,
                )
            table.add_note(
                "util = busy trial seconds / observed launcher lifetime; "
                "peer = records loaded from peers' journal entries "
                "(contention, not progress)"
            )
            print()
            print(table.render())
        if timeline.batches:
            table = Table(
                title="Per-batch progress",
                headers=["batch", "size", "completed", "duplicates", "executors"],
            )
            for key in sorted(timeline.batches):
                batch = timeline.batches[key]
                executors = sorted(set(batch.finished_by.values()))
                table.add_row(
                    key,
                    batch.size,
                    batch.completed,
                    batch.duplicates,
                    "+".join(executors) if executors else "-",
                )
            print()
            print(table.render())
        series = timeline.throughput_series(bin_seconds)
        if series:
            peak = max(count for _, count in series)
            print()
            print(f"Throughput over time ({bin_seconds:g}s bins):")
            for offset, count in series:
                bar = "#" * max(1, round(30 * count / peak))
                print(f"  t+{offset:6.1f}s  {bar} {count}")
        metrics = timeline.metrics
        if not metrics.empty:
            print()
            print("Merged campaign metrics (all launchers):")
            for name_, value in sorted(metrics.counters.items()):
                print(f"  {name_} = {value:g}")
            for name_, summary in sorted(metrics.histograms.items()):
                print(
                    f"  {name_}: n={summary.count} "
                    f"mean={summary.mean:.6f}±{summary.stddev:.6f} "
                    f"min={summary.minimum:.6f} max={summary.maximum:.6f}"
                )
        if trace is not None:
            from repro.obs.tracing import load_trace_dir, summarize_records

            trace_summary = summarize_records(load_trace_dir(trace))
            print()
            print(
                f"Trace join: {trace_summary.engine_spans} engine run(s), "
                f"{trace_summary.total_steps} steps, "
                f"{1e3 * trace_summary.mean_engine_seconds:.2f}"
                f"±{1e3 * trace_summary.stddev_engine_seconds:.2f}ms/run"
            )
            if trace_summary.phase_steps:
                table = Table(
                    title="Per-phase attribution (joined from traces)",
                    headers=["|support|", "steps", "wall s"],
                )
                for support in sorted(trace_summary.phase_steps, reverse=True):
                    table.add_row(
                        support,
                        trace_summary.phase_steps[support],
                        f"{trace_summary.phase_seconds.get(support, 0.0):.3f}",
                    )
                print(table.render())
    return 0


def _cmd_bench_compare(
    old: str, new: str, threshold: float, min_seconds: float
) -> int:
    from repro.obs.bench import compare_snapshots, load_snapshot

    deltas = compare_snapshots(
        load_snapshot(old),
        load_snapshot(new),
        threshold=threshold,
        min_seconds=min_seconds,
    )
    failed = [delta for delta in deltas if delta.failed]
    width = max((len(delta.name) for delta in deltas), default=4)
    for delta in deltas:
        if delta.status == "missing":
            detail = f"{1e3 * delta.old_mean:9.3f}ms ->   (absent)"
        elif delta.status == "new":
            detail = f"  (absent)   -> {1e3 * delta.new_mean:9.3f}ms"
        else:
            detail = (
                f"{1e3 * delta.old_mean:9.3f}ms -> {1e3 * delta.new_mean:9.3f}ms "
                f"({delta.ratio - 1.0:+7.1%})".replace("%", " %")
            )
        print(f"{delta.status.upper():>9}  {delta.name:<{width}}  {detail}")
    print(
        f"{len(deltas)} benchmark(s) compared at threshold "
        f"{threshold:.0%}: {len(failed)} regression(s)/missing"
    )
    return 1 if failed else 0


def _cmd_checkpoint_show(directory: str) -> int:
    from repro.checkpoint import CheckpointJournal

    for campaign_dir in _campaign_dirs(directory):
        journal = CheckpointJournal(campaign_dir)
        manifest = journal.read_manifest()
        records = list(journal.iter_records())
        per_batch = {}
        for batch, _, _ in records:
            per_batch[batch] = per_batch.get(batch, 0) + 1
        print(
            f"{campaign_dir}: {manifest.get('experiment_id', '?')} "
            f"[{manifest.get('scale', '?')}] seed={manifest.get('seed', '?')} "
            f"— {len(records)} journaled trial(s) in {len(per_batch)} batch(es)"
        )
        for batch in sorted(per_batch):
            print(f"  {batch}: {per_batch[batch]} trial(s)")
    return 0


def _cmd_checkpoint_diff(left: str, right: str) -> int:
    from repro.checkpoint import CheckpointJournal, diff_journals

    differences = diff_journals(CheckpointJournal(left), CheckpointJournal(right))
    if not differences:
        print(f"identical: {left} == {right} (bit-for-bit)")
        return 0
    for line in differences:
        print(line)
    print(f"{len(differences)} difference(s)")
    return 1


def _cmd_report(
    output: str,
    quick: bool,
    seed: int,
    workers: Optional[int],
    kernel: Optional[str],
) -> int:
    from pathlib import Path

    sections = [
        "# DIV reproduction — combined experiment report",
        "",
        f"Scale: {'quick (benchmark)' if quick else 'full (paper)'} configurations, "
        f"master seed {seed}. Regenerate with "
        f"`python -m repro report {output}{' --quick' if quick else ''} --seed {seed}`.",
    ]
    for spec in all_experiments():
        started = time.time()
        runner = spec.run_quick if quick else spec.run_full
        report = runner(seed=seed, workers=workers, kernel=kernel)
        elapsed = time.time() - started
        print(f"[{spec.experiment_id} finished in {elapsed:.1f}s]")
        sections.append("")
        sections.append("```")
        sections.append(report.render())
        sections.append("```")
    Path(output).write_text("\n".join(sections) + "\n", encoding="utf-8")
    print(f"[wrote {output}]")
    return 0


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "report":
        return _cmd_report(
            args.output,
            args.quick,
            args.seed,
            args.workers,
            None if args.kernel == "auto" else args.kernel,
        )
    if args.command == "trace":
        return _cmd_trace_summarize(args.path)
    if args.command == "campaign":
        if args.campaign_command == "watch":
            return _cmd_campaign_watch(args.directory, args.interval, args.once)
        return _cmd_campaign_status(args.directory)
    if args.command == "timeline":
        return _cmd_timeline_report(args.directory, args.trace, args.bin)
    if args.command == "bench":
        return _cmd_bench_compare(
            args.old, args.new, args.threshold, args.min_seconds
        )
    if args.command == "checkpoint":
        if args.checkpoint_command == "show":
            return _cmd_checkpoint_show(args.directory)
        return _cmd_checkpoint_diff(args.left, args.right)
    return 2  # pragma: no cover - argparse enforces the choices


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Expected failures — anything raising :class:`~repro.errors.ReproError`
    (unknown experiment id, malformed graph file, corrupt or mismatched
    checkpoint, bad fault spec) — print one line to stderr and exit 2.
    Unexpected exceptions keep their traceback: those are bugs, not
    usage errors.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"div-repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer closed early (`div-repro timeline report | head`).
        # Detach stdout so the interpreter's shutdown flush can't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
