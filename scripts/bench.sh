#!/usr/bin/env bash
# bench.sh — regenerate the benchmark-regression baseline BENCH_core.json.
#
# Runs the core kernel benchmarks (ITER / CliqueRank / fusion, including the
# Product-scale workers={1,2,4} fan-out matrix) plus the root package's
# BenchmarkResolveStages (whose stage-<name>-ms metrics record the engine's
# per-stage wall clock), BenchmarkFusion100k (the 100k-record fusion
# matrix), BenchmarkBlocking100k (the
# 100k-record candidate-generation matrix over the incremental index's
# batch builder), BenchmarkBuildCorpus100k (the 100k-record tokenize
# stage: the chunked corpus builder), BenchmarkCollectionBulkLoad100k
# (the 100k-record streaming load through Collection.Upsert, with the mean
# upsert time per quarter of the load) and BenchmarkCollectionRefresh100k
# (the warm delta path: 50 mutations + Collection.Resolve on a loaded 100k
# collection, with the materialize and DeltaFuse walls), pipes the output through
# cmd/erbenchjson, and writes BENCH_core.json at the repo root: ns/op,
# B/op, allocs/op per kernel and worker count, per-stage timings under
# stage_ms, other custom metrics under metrics, each fan-out's speedup
# against the same run's workers=1, and the serial speedup against the
# committed pre-optimization seed in results/bench_baseline_seed.txt.
#
#   scripts/bench.sh            # full run (benchtime 2s; minutes)
#   scripts/bench.sh -quick     # CI smoke: benchtime 50ms and -short (the
#                               # seconds-scale 100k corpus benches are
#                               # skipped); timing is noise, but the file
#                               # shape and the alloc counts
#                               # (benchtime-independent) stay meaningful
#
# The raw `go test -bench` output is preserved in results/bench_latest.txt
# so a surprising JSON number can be traced to its source line.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime=2s
short=""
if [ "${1:-}" = "-quick" ]; then
    benchtime=50ms
    short="-short"
fi

mkdir -p results
echo "==> go test -bench (benchtime $benchtime)" >&2
go test ./internal/core/ -run xxx -bench 'ITER|CliqueRank|Fusion' \
    -benchmem -benchtime "$benchtime" -timeout 30m | tee results/bench_latest.txt

echo "==> go test -bench ResolveStages + Fusion100k + Blocking100k + BuildCorpus100k + CollectionBulkLoad100k + CollectionRefresh100k (stage timings, 100k matrices)" >&2
go test . -run xxx -bench 'ResolveStages|Fusion100k|Blocking100k|BuildCorpus100k|CollectionBulkLoad100k|CollectionRefresh100k' $short \
    -benchtime "$benchtime" -timeout 30m | tee -a results/bench_latest.txt

echo "==> erbenchjson -> BENCH_core.json" >&2
go run ./cmd/erbenchjson -baseline results/bench_baseline_seed.txt \
    < results/bench_latest.txt > BENCH_core.json

echo "wrote BENCH_core.json" >&2
