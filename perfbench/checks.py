"""Correctness checks run by every benchmark invocation.

A failing check names the trials it covers; the harness counts each
covered trial once in ``failed``. Statistical checks use thresholds
fixed here, before any run: a Wilson interval at z = 4 widened by the
same ±0.02 finite-n slack ``tests/test_integration.py`` uses, a
one-sided binomial test at 1e-4 for "w.h.p." claims, and |z| ≤ 4.5 for
the martingale mean. At these levels a correct program fails a check
far less than once in the few hundred runs a benchmark campaign makes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set, Tuple

#: z of the Wilson interval for P(winner = ⌈c⌉).
WILSON_Z = 4.0
#: Finite-n slack around Theorem 2's asymptotic prediction.
WILSON_SLACK = 0.02
#: Share of trials allowed to land outside {⌊c⌋, ⌈c⌉} ("w.h.p.").
OUTSIDE_RATE = 0.01
#: Binomial tail probability below which the outside count is too high.
OUTSIDE_ALPHA = 1e-4
#: Largest |z| of mean(winner - c) the Lemma 3 martingale allows.
MARTINGALE_Z = 4.5
#: Fewest runs the martingale test needs for its standard error.
MARTINGALE_MIN_RUNS = 10


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    failed: Set[Tuple[int, int]] = field(default_factory=set)


def digest(outcomes: Iterable) -> str:
    """Digest of (trial id, winner, steps, two-adjacent step) per trial."""
    rows = sorted([list(o.tid), o.winner, o.steps, o.tadj] for o in outcomes)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def check_digest(timed: Sequence, rerun: Sequence) -> Check:
    """The re-run trials must reproduce the timed run's digest."""
    ids = {o.tid for o in rerun}
    subset = [o for o in timed if o.tid in ids]
    ours, theirs = digest(subset), digest(rerun)
    ok = ours == theirs and len(subset) == len(rerun)
    return Check(
        "digest", ok, f"{len(rerun)} trials, digest {ours} vs re-run {theirs}",
        set() if ok else ids,
    )


def check_identical(name: str, timed: Sequence, rerun: Sequence) -> Check:
    """Every re-run trial must match its timed twin bit for bit."""
    reference = {o.tid: o.key() for o in timed}
    bad = {o.tid for o in rerun if reference.get(o.tid) != o.key()}
    return Check(name, not bad, f"{len(rerun) - len(bad)}/{len(rerun)} trials identical", bad)


def wilson(successes: int, trials: int, z: float = WILSON_Z) -> Tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return centre - half, centre + half


def binomial_tail(trials: int, rate: float, observed: int) -> float:
    """P(Binomial(trials, rate) >= observed)."""
    below = sum(
        math.comb(trials, k) * rate**k * (1 - rate) ** (trials - k) for k in range(observed)
    )
    return max(0.0, 1.0 - below)


def check_theorem2(outcomes: Sequence) -> List[Check]:
    """Theorem 2 on trials whose graph passed the spectral precheck.

    Consensus trials: the winner is ⌊c⌋ or ⌈c⌉ (w.h.p.), and
    P(winner = ⌈c⌉) matches c − ⌊c⌋. Trials stopped at the two-adjacent
    time: the two surviving opinions are ⌊c⌋ and ⌈c⌉ (w.h.p.).
    """
    checks = []
    selected = [o for o in outcomes if o.theorem2]
    if not selected:
        return checks
    ids = {o.tid for o in selected}
    outside = []
    for o in selected:
        allowed = {math.floor(o.c), math.ceil(o.c)}
        values = {o.winner} if o.winner is not None else set(o.support)
        if not values <= allowed:
            outside.append(o)
    tail = binomial_tail(len(selected), OUTSIDE_RATE, len(outside))
    ok = tail >= OUTSIDE_ALPHA
    checks.append(
        Check(
            "theorem2.rounding", ok,
            f"{len(outside)}/{len(selected)} outside {{⌊c⌋,⌈c⌉}} "
            f"(P[Bin(n,{OUTSIDE_RATE}) >= that] = {tail:.2g})",
            set() if ok else ids,
        )
    )
    winners = [o for o in selected if o.winner is not None]
    if winners:
        hits = sum(1 for o in winners if o.winner == math.ceil(o.c) and o.c != math.ceil(o.c))
        predicted = sum(o.c - math.floor(o.c) for o in winners) / len(winners)
        low, high = wilson(hits, len(winners))
        ok = low - WILSON_SLACK <= predicted <= high + WILSON_SLACK
        checks.append(
            Check(
                "theorem2.ceil_probability", ok,
                f"P(winner=⌈c⌉) {hits}/{len(winners)}, Wilson z={WILSON_Z} "
                f"[{low:.3f}, {high:.3f}] vs c-⌊c⌋ = {predicted:.3f}",
                set() if ok else {o.tid for o in winners},
            )
        )
    return checks


def check_martingale(outcomes: Sequence) -> List[Check]:
    """Lemma 3: the (degree-weighted) average is a martingale, so E[winner] = c.

    Exact on every connected graph for both processes, so it covers the
    trials whose graphs fail Theorem 2's hypotheses too.
    """
    # A step cap conditions on finishing early, which biases E[winner].
    runs = [
        o for o in outcomes
        if o.stop_reason == "consensus" and o.winner is not None and o.budget is None
    ]
    if len(runs) < MARTINGALE_MIN_RUNS:
        return []
    diffs = [o.winner - o.c for o in runs]
    mean = sum(diffs) / len(diffs)
    var = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
    stderr = math.sqrt(var / len(diffs))
    z = mean / stderr if stderr > 0 else (0.0 if mean == 0 else math.inf)
    ok = abs(z) <= MARTINGALE_Z
    return [
        Check(
            "lemma3.martingale", ok,
            f"mean(winner - c) = {mean:+.4f} over {len(runs)} runs, z = {z:+.2f}",
            set() if ok else {o.tid for o in runs},
        )
    ]


def check_zealots(outcomes: Sequence) -> List[Check]:
    """Runs with one-sided zealots end on the pinned opinion."""
    runs = [o for o in outcomes if o.pinned is not None]
    if not runs:
        return []
    bad = {
        o.tid for o in runs
        if o.stop_reason != "frozen_consensus" or o.support != (o.pinned,)
    }
    return [Check("zealots.pinned", not bad, f"{len(runs) - len(bad)}/{len(runs)} end pinned", bad)]


def check_resume(rounds: Sequence, trials_per_round: int) -> List[Check]:
    """Resume returns identical outcomes; the journal holds one record per trial."""
    bad = set()
    for result in rounds:
        extra = result.extra
        if extra["resume_identical"] != 1.0 or extra["journal_records"] != trials_per_round:
            bad |= {o.tid for o in result.outcomes}
    return [Check("journal.resume", not bad, f"{len(rounds)} campaigns resumed", bad)]


def law_checks(outcomes: Sequence) -> List[Check]:
    return check_theorem2(outcomes) + check_martingale(outcomes) + check_zealots(outcomes)
