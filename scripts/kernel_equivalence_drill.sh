#!/usr/bin/env bash
# Kernel-equivalence drill: the same experiment must produce
# byte-identical reports under every execution kernel.
#
# Runs E1 (--quick) once per backend — loop, block, compiled — and
# byte-compares the JSON reports pairwise against the loop reference.
# E11 (vertex vs edge process on the lollipop) does the same for
# run_div's two-adjacent milestone, which the block kernel reads off
# its stop timeline, on both processes and an irregular graph.
# Then repeats the comparison for the non-static substrate scenarios:
# E17 (zealots: frozen vertices through every commit path) and E18
# (edge churn: epoch-crossing runs with scheduler cache rebuilds) —
# the kernel contract must hold on dynamic substrates too, not just
# static graphs. E19 runs the biased and adversarial schedulers, whose
# draws read the live state; its report records the executed backend
# in a per-row `kernel` column, so that one field is normalised (a
# short Python filter rewrites it to "*") before the byte comparison —
# every other byte must still match. The compiled leg only measures something when its jit
# runtime (numba) is importable; without it the spec would silently
# resolve like auto and the comparison would be vacuous, so it is
# skipped with a notice instead. The loop leg runs the per-pair core
# (the loop kernel's flat path) wherever `--kernel loop` allows it.
#
# Usage: scripts/kernel_equivalence_drill.sh [WORK_DIR]   (default: mktemp)
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=${1:-$(mktemp -d)}
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

say() { echo "[kernel-drill] $*"; }

KERNELS="loop block"
if python -c "import sys; from repro.core.kernels import NUMBA_AVAILABLE; sys.exit(0 if NUMBA_AVAILABLE else 1)"; then
    KERNELS="$KERNELS compiled"
else
    say "numba not installed - compiled leg skipped (would resolve like auto)"
fi

# E1: the static-substrate reference comparison. E11: the two-adjacent
# milestone under both processes. E17/E18: zealots and edge churn — the
# scenario legs added with the substrate contract. E19: biased and
# adversarial scheduling (kernel column normalised).
EXPERIMENTS="E1 E11 E17 E18 E19"

# Rewrite every table's `kernel` column to "*" so reports that differ
# only in the recorded backend compare equal.
normalise_kernel() {
    python - "$1" "$2" <<'PY'
import json
import sys

report = json.load(open(sys.argv[1], encoding="utf-8"))
for table in report.get("tables", []):
    if "kernel" in table["headers"]:
        col = table["headers"].index("kernel")
        for row in table["rows"]:
            row[col] = "*"
with open(sys.argv[2], "w", encoding="utf-8") as out:
    json.dump(report, out, indent=2, sort_keys=True)
PY
}

for experiment in $EXPERIMENTS; do
    for kernel in $KERNELS; do
        say "running $experiment --quick under kernel=$kernel"
        python -m repro.cli run "$experiment" --quick --seed 7 \
            --kernel "$kernel" --json "$WORK/$kernel"
    done
done

for experiment in $EXPERIMENTS; do
    name=$(echo "$experiment" | tr '[:upper:]' '[:lower:]')
    for kernel in $KERNELS; do
        [ "$kernel" = loop ] && continue
        if [ "$experiment" = E19 ]; then
            normalise_kernel "$WORK/loop/$name.json" "$WORK/loop/$name.norm.json"
            normalise_kernel "$WORK/$kernel/$name.json" "$WORK/$kernel/$name.norm.json"
            cmp "$WORK/loop/$name.norm.json" "$WORK/$kernel/$name.norm.json"
            say "$experiment: loop and $kernel reports are identical up to the kernel column"
        else
            cmp "$WORK/loop/$name.json" "$WORK/$kernel/$name.json"
            say "$experiment: loop and $kernel reports are byte-identical"
        fi
    done
done

say "OK: kernels agree on $EXPERIMENTS ($KERNELS)"
