"""The benchmark's own tests, on tiny trial mixes.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, harness, workloads
from perfbench.run import select_metrics

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's round to a handful of short trials."""
    monkeypatch.setattr(
        workloads.GraphDiv, "mix", (("rr60", 1), ("lollipop", 1), ("k200", 1), ("large3000", 1))
    )
    monkeypatch.setattr(workloads.GraphDiv, "LARGE_BUDGET", 2)
    monkeypatch.setattr(workloads.CompleteCounts, "mix", (("k200", 1), ("k800", 1)))
    monkeypatch.setattr(
        workloads.ScenarioDiv, "mix", (("churn", 1), ("zealot300", 1), ("adversarial", 1))
    )
    monkeypatch.setattr(workloads.ScenarioDiv, "CHURN_BUDGET", 3)
    monkeypatch.setattr(workloads.ScenarioDiv, "ADVERSARIAL_BUDGET", 2)
    monkeypatch.setattr(workloads.JournalCampaign, "TRIALS", 6)
    monkeypatch.setattr(harness, "JOURNAL_RERUN", 3)
    monkeypatch.setattr(harness, "SETUP_REPS", 1)


def _run(name, seed, trace, out):
    result = harness.run(name, seed, 0.001, trace, out, 0.0)
    result["metrics"] = select_metrics(SPEC, result["metrics"], trace)
    return result


def test_workload_names_match_the_harness():
    assert NAMES == list(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(tiny, tmp_path, name, trace):
    result = _run(name, 1, trace, tmp_path)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_two_seeds_give_different_inputs_and_the_same_metric_set(tiny, tmp_path):
    first, second = workloads.GraphDiv(1), workloads.GraphDiv(2)
    first.setup()
    second.setup()
    assert not (first.graphs["rr60"][0].edge_array == second.graphs["rr60"][0].edge_array).all()
    results = [_run("graph_div", seed, False, tmp_path) for seed in (1, 2)]
    digests = [
        json.loads((tmp_path / f"run-graph_div-s{seed}-t0.json").read_text())["digest_round0"]
        for seed in (1, 2)
    ]
    assert digests[0] != digests[1]
    assert results[0]["metrics"].keys() == results[1]["metrics"].keys()


def test_a_perturbed_outcome_fails_the_digest_check():
    workload = workloads.CompleteCounts(3)
    workload.setup()
    timed = [workload.execute(spec) for spec in workload.specs(0)[:3]]
    rerun = [workload.execute(spec) for spec in workload.specs(0)[:3]]
    assert checks.check_digest(timed, rerun).ok
    assert checks.check_identical("rerun", timed, rerun).ok
    rerun[1] = dataclasses.replace(rerun[1], steps=rerun[1].steps + 1)
    digest = checks.check_digest(timed, rerun)
    identical = checks.check_identical("rerun", timed, rerun)
    assert not digest.ok and not identical.ok
    assert identical.failed == {rerun[1].tid}


def test_theorem2_check_rejects_winners_off_the_rounding():
    outcome = workloads.Outcome(
        tid=(0, 0), kind="k200", winner=3, steps=1, tadj=1, c=3.3, fhash="",
        stop_reason="consensus", theorem2=True,
    )
    good = [dataclasses.replace(outcome, tid=(0, i), winner=4 if i % 10 < 3 else 3)
            for i in range(200)]
    assert all(check.ok for check in checks.check_theorem2(good))
    bad = [dataclasses.replace(o, winner=5) for o in good]
    assert not any(check.ok for check in checks.check_theorem2(bad))


def test_run_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph_div", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
