#!/bin/sh
# Benchmark harness: runs one benchmark set with -benchmem and hands the
# output to the stdlib-only comparator (cmd/decos-benchcmp), which writes
# the JSON perf-trajectory reports committed as BENCH_<pr>.json.
#
# Usage:
#   scripts/bench.sh [curated|cluster|ingest] [-short] [-benchtime T]
#                    [-baseline OLD] [-gate RATIO] [-o REPORT.json] [-keep RAW.txt]
#
# Sets:
#   curated  (default) the steady-state hot paths at the default 1s
#            benchtime, plus three iterations of the whole-experiment set
#            (E8, E13) — a single iteration shows ~±25% wall-clock noise on
#            a shared rig, the 3-run mean stays within the benchfull gate.
#            Compared against -baseline (bench text or a committed
#            BENCH_<pr>.json) when given, else snapshotted to -o.
#   cluster  BenchmarkClusterIngest (delivered uplink throughput against
#            latency-bound shard peers), the 4-shard run compared against
#            the 1-shard run: -gate 0.5 demands at least 2x the events/sec.
#   ingest   single-peer trace decode and collector ingest, the binary
#            runs compared against the NDJSON runs: -gate 0.2 demands at
#            least 5x the events/sec.
#
# -gate RATIO turns the comparison into a regression gate (benchcmp
# -max-ns-ratio RATIO, non-zero exit on any regression). -short runs ten
# iterations per benchmark and skips the whole-experiment set, so the
# harness finishes in seconds (CI smoke test).
set -eu
cd "$(dirname "$0")/.."

SET=curated
case "${1:-}" in
curated | cluster | ingest) SET=$1; shift ;;
esac
SHORT=0
BENCHTIME=""
BASELINE=""
GATE=""
OUT=""
KEEP=""
while [ $# -gt 0 ]; do
    case "$1" in
    -short) SHORT=1 ;;
    -benchtime) BENCHTIME=$2; shift ;;
    -baseline) BASELINE=$2; shift ;;
    -gate) GATE=$2; shift ;;
    -o) OUT=$2; shift ;;
    -keep) KEEP=$2; shift ;;
    *)
        echo "usage: scripts/bench.sh [curated|cluster|ingest] [-short] [-benchtime t] [-baseline old] [-gate ratio] [-o report.json] [-keep raw.txt]" >&2
        exit 2
        ;;
    esac
    shift
done
[ "$SHORT" = 0 ] || BENCHTIME=10x

RAW=${KEEP:-$(mktemp "${TMPDIR:-/tmp}/decos-bench.XXXXXX")}
OLD=$(mktemp "${TMPDIR:-/tmp}/decos-bench-old.XXXXXX")
NEW=$(mktemp "${TMPDIR:-/tmp}/decos-bench-new.XXXXXX")
trap 'rm -f "$OLD" "$NEW"; [ -n "$KEEP" ] || rm -f "$RAW"' EXIT

# bench PATTERN [BENCHTIME] runs the matching root-package benchmarks.
bench() {
    go test -run='^$' -bench "$1" -benchmem ${2:+-benchtime="$2"} .
}

# compare OLD NEW runs decos-benchcmp with the shared -o and -gate options.
compare() {
    go run ./cmd/decos-benchcmp ${OUT:+-o "$OUT"} ${GATE:+-max-ns-ratio "$GATE"} "$@"
}

# pair OLD-LABEL NEW-LABEL OLD-SUFFIX NEW-SUFFIX compares the subbenchmarks
# named with NEW-SUFFIX against those named with OLD-SUFFIX. decos-benchcmp
# pairs results by name, so the suffixes are stripped first.
pair() {
    grep "$3" "$RAW" | sed "s|$3||" >"$OLD"
    grep "$4" "$RAW" | sed "s|$4||" >"$NEW"
    if [ ! -s "$OLD" ] || [ ! -s "$NEW" ]; then
        echo "bench: the $SET set produced no comparable output" >&2
        exit 1
    fi
    compare -label-old "$1" -label-new "$2" "$OLD" "$NEW"
}

case "$SET" in
curated)
    bench '^(BenchmarkSchedulerThroughput|BenchmarkClusterRound|BenchmarkClusterRoundUnderFault|BenchmarkBayesRound|BenchmarkAssessorEpoch|BenchmarkWarrantyIngest|BenchmarkCheckpoint|BenchmarkRestore)$' "$BENCHTIME" | tee "$RAW"
    if [ "$SHORT" = 0 ]; then
        bench '^(BenchmarkE8NFF|BenchmarkE13FleetWarranty)$' 3x | tee -a "$RAW"
    fi
    if [ -n "$BASELINE" ]; then
        compare "$BASELINE" "$RAW"
    elif [ -n "$OUT" ]; then
        go run ./cmd/decos-benchcmp -snapshot -o "$OUT" "$RAW"
    fi
    ;;
cluster)
    bench '^BenchmarkClusterIngest$' "${BENCHTIME:-1s}" | tee "$RAW"
    pair 1-shard 4-shard /shards=1 /shards=4
    ;;
ingest)
    bench '^(BenchmarkTraceDecode|BenchmarkIngest)$' "${BENCHTIME:-1s}" | tee "$RAW"
    pair ndjson binary /format=ndjson /format=binary
    ;;
esac
