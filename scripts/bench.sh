#!/usr/bin/env sh
# Regenerate BENCH_PR<n>.json: run the micro-benchmark suite and the E3
# size sweep, and fold the results into the checked-in trajectory file
# (see DESIGN.md, "Performance"). The existing baseline run in the
# output file is preserved; pass BASELINE=<file> to (re)set it from a
# saved `go test -bench` output.
#
# Usage:
#   scripts/bench.sh                # refresh BENCH_PR4.json's after run
#   PR=5 scripts/bench.sh           # start BENCH_PR5.json
#   BENCHTIME=5x scripts/bench.sh   # quicker, noisier numbers
set -eu
cd "$(dirname "$0")/.."

PR="${PR:-4}"
OUT="${OUT:-BENCH_PR${PR}.json}"
BENCHTIME="${BENCHTIME:-1s}"
# Repeats per benchmark; benchjson keeps the fastest (see its doc).
COUNT="${COUNT:-3}"
BENCH_RE="${BENCH_RE:-^(BenchmarkInstMap|BenchmarkInverse|BenchmarkXSLTForward|BenchmarkTranslateQuery|BenchmarkTranslateOptimized|BenchmarkTranslateCached|BenchmarkEvalXPath|BenchmarkEvalANFA|BenchmarkAnfaEvalCompiled|BenchmarkEvalInterpreted|BenchmarkEvalCompiled|BenchmarkBatchMigrate|BenchmarkFindRandom|BenchmarkFindUnambiguous|BenchmarkFindParallel|BenchmarkFindSize|BenchmarkFindSizeNop|BenchmarkFindSizeLedger|BenchmarkBatchMigrateNop|BenchmarkBatchMigrateStream|BenchmarkStreamMigrate|BenchmarkTokenize|BenchmarkParse|BenchmarkCompose|BenchmarkSpecializedTyping|BenchmarkLexicalMatrix|BenchmarkValidateEmbedding)\$}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "bench.sh: running micro-benchmarks (benchtime=$BENCHTIME, count=$COUNT)..." >&2
go test -run '^$' -bench "$BENCH_RE" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" -timeout 60m . | tee "$tmp/after.txt" >&2

echo "bench.sh: running E3 size sweep..." >&2
go run ./cmd/xse-bench -exp e3 -quick -trials 3 > "$tmp/e3.txt"

echo "bench.sh: running corpus heuristic shoot-out..." >&2
go run ./cmd/xse-corpus -pairs dblp,xmark -docs 2 -doc-nodes 400 \
    -search-timeout 60s -q > "$tmp/corpus.txt"

# NOTE, when set, replaces the file's free-form note (otherwise the
# existing note is preserved; see benchjson).
set -- -pr "$PR" -after "$tmp/after.txt" -e3 "$tmp/e3.txt" -corpus "$tmp/corpus.txt" -out "$OUT"
if [ -n "${BASELINE:-}" ]; then
    set -- "$@" -baseline "$BASELINE"
fi
if [ -n "${NOTE:-}" ]; then
    set -- "$@" -note "$NOTE"
fi
go run ./scripts/benchjson "$@"
echo "bench.sh: wrote $OUT" >&2
