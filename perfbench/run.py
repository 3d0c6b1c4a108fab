"""Benchmark entry point.

    python3 perfbench/run.py --workload graph_div --seed 1 --seconds 16 --trace 0

Runs one workload from ``BENCHMARK.json`` (repository root) on the
``repro`` package under ``src/`` and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
``end_to_end`` metric with ``--trace 0``, every ``per_layer`` metric
with ``--trace 1``. Run records, span dumps and the journal scratch
space go under ``.bench_out/``. Exits 2, printing no result, when the
program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("graph_div", "complete_counts", "scenario_div", "journal_campaign")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"{spec_path.name} not found at the repository root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        _fail("the program (src/repro) is not in this checkout")
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro
        from perfbench import harness
    except ImportError as exc:
        _fail(f"cannot import the program: {exc}")
    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from this checkout")
    import_s = time.perf_counter() - _STARTED

    result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out", import_s
    )
    try:
        result["metrics"] = select_metrics(spec, result["metrics"], bool(args.trace))
    except KeyError as exc:
        _fail(f"metrics not produced: {exc.args[0]}")
    print(json.dumps(result))


def select_metrics(spec: dict, values: dict, trace: bool) -> dict:
    """The metrics ``BENCHMARK.json`` names for this mode, with their units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(", ".join(missing))
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}


if __name__ == "__main__":
    main()
