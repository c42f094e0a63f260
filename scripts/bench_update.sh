#!/usr/bin/env bash
# Regenerate the committed BENCH.json baseline from a full (non-smoke) run
# of the tracked throughput bench.
#
# The baseline is the per-benchmark MEDIAN of three full runs — a typical
# observation, not a lucky one. The perf gate in scripts/verify.sh compares
# the BEST of three fresh runs against it with 10% slack; the asymmetry is
# deliberate: on a shared box interference only ever slows a run down, so a
# fresh best that still can't get within 10% of a committed median is a
# real regression, not scheduler noise. The output is
# canonicalized so regeneration is deterministic given the same
# measurements: results sorted by name, keys in a pinned order, one result
# per line — a diff of BENCH.json is always a diff of numbers, never of
# formatting. Run this on an otherwise-idle machine.
#
# Usage: scripts/bench_update.sh [--filter <substring>]
#
# With --filter, only benchmarks whose full name contains the substring
# (exported as TESTKIT_BENCH_FILTER) are re-run, and their fresh medians
# are merged over the existing BENCH.json — results for unmatched names
# are kept verbatim. This makes a wheel-level change
# affordable to re-baseline without paying for the multi-minute
# browse_10k_mono monolith.
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER=""
while [ $# -gt 0 ]; do
    case "$1" in
        --filter)
            [ $# -ge 2 ] || { echo "bench_update.sh: --filter needs a substring" >&2; exit 1; }
            FILTER="$2"
            shift 2
            ;;
        *)
            echo "bench_update.sh: unknown argument '$1'" >&2
            echo "usage: scripts/bench_update.sh [--filter <substring>]" >&2
            exit 1
            ;;
    esac
done

if [ "${TESTKIT_BENCH_SMOKE:-0}" = "1" ]; then
    echo "bench_update.sh: refusing to run with TESTKIT_BENCH_SMOKE=1 —" \
        "a 1-iteration smoke run is not a baseline" >&2
    exit 1
fi

if [ -n "$FILTER" ] && [ ! -f BENCH.json ]; then
    echo "bench_update.sh: --filter needs an existing BENCH.json to merge into" >&2
    exit 1
fi

export TESTKIT_BENCH_FILTER="$FILTER"

run_a="$(mktemp /tmp/bench-update-a.XXXXXX.json)"
run_b="$(mktemp /tmp/bench-update-b.XXXXXX.json)"
run_c="$(mktemp /tmp/bench-update-c.XXXXXX.json)"
run_d="$(mktemp /tmp/bench-update-d.XXXXXX.json)"
trap 'rm -f "$run_a" "$run_b" "$run_c" "$run_d"' EXIT

echo "== three full sim_throughput runs (this takes a few minutes) =="
for run_json in "$run_a" "$run_b" "$run_c"; do
    TESTKIT_BENCH_JSON="$run_json" \
        cargo bench --offline -p ecf-bench --bench sim_throughput
done

# The sharded sweep bench is informational (not perf-gated) and its
# monolith baseline costs minutes per iteration, so one full run suffices.
# Its results carry a "workers" key recording what the rates were measured
# on — a sharded number is only comparable at the same worker count.
echo "== one full sharded sweep run (monolith baseline is slow) =="
TESTKIT_BENCH_JSON="$run_d" \
    cargo bench --offline -p ecf-bench --bench sharded

echo "== canonicalizing median-of-three into BENCH.json =="
python3 - BENCH.json "$FILTER" "$run_a" "$run_b" "$run_c" "$run_d" <<'PY'
import json, sys

dst, filt = sys.argv[1], sys.argv[2]
by_name = {}
for src in sys.argv[3:]:
    doc = json.load(open(src))
    if doc.get("schema") != 1:
        sys.exit(f"bench_update.sh: unexpected schema {doc.get('schema')!r}")
    if doc.get("smoke"):
        sys.exit("bench_update.sh: bench ran in smoke mode; baseline rejected")
    for r in doc["results"]:
        by_name.setdefault(r["name"], []).append(r)

if filt and not by_name:
    sys.exit(f"bench_update.sh: filter {filt!r} matched no benchmarks")

# Per benchmark, keep the run whose throughput is the median of the runs
# that measured it (three for sim_throughput, one for the sharded sweep).
median = {}
for name, runs in by_name.items():
    runs.sort(key=lambda r: r.get("elements_per_sec", 0))
    median[name] = runs[len(runs) // 2]

# Partial regeneration: carry over existing results the filter excluded
# from this run. Fresh measurements always win over carried-over ones.
carried = 0
if filt:
    old = json.load(open(dst))
    for r in old.get("results", []):
        if r["name"] not in median:
            median[r["name"]] = r
            carried += 1

KEYS = ("name", "median_ns", "p95_ns", "samples", "iters_per_sample",
        "elements_per_iter", "elements_per_sec")
OPTIONAL = ("workers",)

def canon(r):
    missing = [k for k in KEYS if k not in r]
    if missing:
        sys.exit(f"bench_update.sh: result {r.get('name')!r} lacks {missing}")
    keys = KEYS + tuple(k for k in OPTIONAL if k in r)
    return "    {" + ", ".join(f'"{k}": {json.dumps(r[k])}' for k in keys) + "}"

lines = [canon(median[name]) for name in sorted(median)]
body = '{\n  "schema": 1,\n  "smoke": false,\n  "results": [\n'
body += ",\n".join(lines) + "\n  ]\n}\n"
open(dst, "w").write(body)
fresh = len(lines) - carried
note = f", {carried} carried over" if carried else ""
print(f"bench_update.sh: wrote {dst} ({fresh} fresh results{note})")
PY

git --no-pager diff --stat BENCH.json || true
