#!/bin/sh
# scripts/ci.sh — the full pre-merge gate: the tier-1 verify line
# followed by a benchmark run diffed against the newest checked-in
# BENCH_*.json baseline (scripts/bench_compare.sh fails on >10% ns/op
# regressions; parallel-speedup gates are skipped on single-core
# runners).
#
# The bench gate compares with TOLERANCE 40 (not bench_compare's
# default 10): on a shared single-core runner the min-of-N of a
# count-based -benchtime swings up to ±35% run to run under ambient
# load, so a tight gate fails on noise. 40% still reliably catches the
# failure modes the gate exists for — a broken optimizer fixpoint, a
# dead memo/cache, an accidental quadratic — which all cost 2× or
# more. And because -count runs one benchmark's repetitions
# back-to-back, a single multi-second stall (CPU frequency dip, noisy
# neighbour) can poison every sample of whichever benchmark it lands
# on; a first-pass failure therefore re-measures just the flagged
# benchmarks in isolation and only fails if the regression reproduces.
# For deliberate A/B measurements, run bench.sh twice on a quiet
# machine with a higher BENCHCOUNT and compare at the strict default.
#
# A GOGC smoke stage runs cold Figure 6 once with the default GOGC and
# once with GOGC=off and prints both times: the gap is the GC's share
# of the cold path, the number the worker-workspace arenas (DESIGN.md
# §12) exist to keep small. It is informational — on a shared runner
# the two single-shot times are too noisy to gate on — but a gap that
# suddenly grows to 2× in CI output is the early warning that an
# allocation regression slipped past the count-based gates.
#
# A scale smoke stage runs the generated-corpus differential test
# (internal/measure TestMeasureStreamMatchesBatchGenerated: a
# 100-component gencorpus corpus, streaming vs batch, cache off / cold
# / warm) under the race detector. The tier-1 race line already covers
# the package; the named stage exists so a contention bug introduced
# in the sharded planner fails CI with the scale test's name in the
# output rather than somewhere inside a package-wide run.
#
# Usage:
#   scripts/ci.sh                      # tier-1 + fuzz smoke + cover + bench gate
#   SKIP_BENCH=1 scripts/ci.sh         # skip the bench baseline diff
#   SKIP_FUZZ=1 scripts/ci.sh          # skip the fuzz smoke stage
#   SKIP_GOGC=1 scripts/ci.sh          # skip the GOGC sensitivity smoke
#   SKIP_SCALE=1 scripts/ci.sh         # skip the generated-corpus scale smoke
#   SKIP_BENCHMOD=1 scripts/ci.sh      # skip the bench/ module's tests
#   SKIP_SERVE=1 scripts/ci.sh         # skip the ucserved daemon smoke
#   FUZZTIME=30s scripts/ci.sh         # longer fuzz smoke (default 10s)
#   BENCHCOUNT=10 scripts/ci.sh        # more bench repetitions (default 5)
#   BENCH_TOLERANCE=10 scripts/ci.sh   # stricter regression gate
set -eu
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
go build ./...
echo "== tier-1: vet =="
go vet ./...
# bench/ is a module of its own, so the root build and vet skip it; vet
# compiles it against this tree, so a deleted name it still calls fails
# here rather than only in the skippable benchmark-module stage below.
echo "== tier-1: vet bench/ =="
(cd bench && go vet ./...)
echo "== tier-1: test =="
go test ./...
echo "== tier-1: race =="
go test -race ./internal/parallel ./internal/nlme ./internal/paper ./internal/elab ./internal/measure ./internal/core ./internal/depgraph ./internal/serve ./internal/hdl ./internal/cache

if [ "${SKIP_SCALE:-0}" != "1" ]; then
	echo "== scale smoke (generated 100-component corpus, -race) =="
	go test -race -run '^TestMeasureStreamMatchesBatchGenerated$' ./internal/measure
fi

if [ "${SKIP_BENCHMOD:-0}" != "1" ]; then
	# bench/ is a Go module of its own (bench/README.md), so the root
	# `go test ./...` never reaches its tests: the workload checkers
	# (the Table 4 bound, the DEE1 AIC/BIC bound, corpus-cold's σε
	# identity), the BENCHMARK.json metric list, and a reduced smoke run
	# of every workload.
	echo "== benchmark module tests (bench/) =="
	(cd bench && go test ./...)
fi

if [ "${SKIP_FUZZ:-0}" != "1" ]; then
	# Short coverage-guided smoke on the fuzz targets: the parser's
	# round-trip fuzzer, the synthesis-vs-RTL differential fuzzer, the
	# corpus generator's parse-and-synthesize fuzzer (every seed must
	# yield a valid, synthesizable corpus), the cache codec's two
	# decoder fuzzers, and the dependency-graph decoder fuzzer (hostile
	# bytes must error, never panic). internal/codec has two targets,
	# so each is named explicitly (-fuzz runs exactly one target per
	# invocation).
	fuzztime="${FUZZTIME:-10s}"
	echo "== fuzz smoke (${fuzztime}/target) =="
	go test -run '^$' -fuzz Fuzz -fuzztime "$fuzztime" ./internal/hdl
	go test -run '^$' -fuzz Fuzz -fuzztime "$fuzztime" ./internal/equiv
	go test -run '^$' -fuzz Fuzz -fuzztime "$fuzztime" ./internal/gencorpus
	go test -run '^$' -fuzz '^FuzzDecodeEntry$' -fuzztime "$fuzztime" ./internal/codec
	go test -run '^$' -fuzz '^FuzzDecodeNetlist$' -fuzztime "$fuzztime" ./internal/codec
	go test -run '^$' -fuzz '^FuzzDecodeGraph$' -fuzztime "$fuzztime" ./internal/depgraph
	go test -run '^$' -fuzz '^FuzzServeRequest$' -fuzztime "$fuzztime" ./internal/serve
fi

if [ "${SKIP_SERVE:-0}" != "1" ]; then
	# Daemon smoke: build ucserved, start it on an ephemeral port, serve
	# one measurement over the wire, health-check it, SIGTERM it, and
	# require a clean drained exit (cmd/ucserved TestDaemonProcessSmoke).
	# The in-process e2e matrix already runs in tier-1; this stage is
	# the only one that exercises the real binary's flag/signal wiring.
	echo "== daemon smoke (ucserved process lifecycle) =="
	go test -count=1 -run '^TestDaemonProcessSmoke$' ./cmd/ucserved
fi

# Coverage report (informational; a pipeline would mask a test failure
# under `set -eu`, so capture to a file first).
echo "== coverage report =="
cover_out="$(mktemp)"
if go test -count=1 -cover ./... >"$cover_out" 2>&1; then
	grep -v '\[no test files\]' "$cover_out" || true
	rm -f "$cover_out"
else
	cat "$cover_out"
	rm -f "$cover_out"
	exit 1
fi

if [ "${SKIP_GOGC:-0}" != "1" ]; then
	# GC-sensitivity smoke: cold Figure 6 with and without the
	# collector. Single shot each (-benchtime 1x -count 1); extract
	# ns/op and the alloc columns from the benchmark line.
	echo "== GOGC sensitivity smoke (cold Figure 6) =="
	gogc_line() {
		GOGC="$1" go test -run '^$' -bench '^BenchmarkFigure6$' -benchtime 1x -benchmem . |
			awk '/^BenchmarkFigure6/ {
				ns = $3; allocs = "?"; bytes = "?"
				for (i = 5; i + 1 <= NF; i += 2) {
					if ($(i + 1) == "B/op") bytes = $i
					if ($(i + 1) == "allocs/op") allocs = $i
				}
				printf "%.1f ms/op, %s allocs/op, %s B/op", ns / 1e6, allocs, bytes
			}'
	}
	def="$(gogc_line "")"
	off="$(gogc_line off)"
	echo "  GOGC=default  $def"
	echo "  GOGC=off      $off"
fi

if [ "${SKIP_BENCH:-0}" = "1" ]; then
	echo "ci: tier-1 passed (bench gate skipped)"
	exit 0
fi

baseline="$(ls BENCH_*.json 2>/dev/null | sort | tail -1 || true)"
if [ -z "$baseline" ]; then
	echo "ci: tier-1 passed; no BENCH_*.json baseline checked in, skipping bench gate"
	exit 0
fi

echo "== bench gate (baseline: $baseline) =="
new="$(mktemp)"
cmp_out="$(mktemp)"
retry="$(mktemp)"
trap 'rm -f "$new" "$cmp_out" "$retry"' EXIT
tol="${BENCH_TOLERANCE:-40}"
BENCHOUT="$new" BENCHCOUNT="${BENCHCOUNT:-5}" BENCHTIME="${BENCHTIME:-3x}" scripts/bench.sh >/dev/null

# No pipe here: a POSIX-sh pipeline's exit status is the LAST command's,
# so `bench_compare | tee` would mask a failed compare. Capture to a file.
if TOLERANCE="$tol" scripts/bench_compare.sh "$baseline" "$new" >"$cmp_out" 2>&1; then
	cat "$cmp_out"
	echo "ci: all gates passed"
	exit 0
fi
cat "$cmp_out"

# First pass flagged regressions: re-measure only those benchmarks in
# isolation and re-compare (bench_compare ignores baseline entries
# missing from the retry file).
pattern="$(awk '/^  REGRESSION/ { sub(/\/.*/, "", $2); if (!seen[$2]++) names = names (names == "" ? "" : "|") $2 }
	END { if (names != "") printf "^(%s)$", names }' "$cmp_out")"
if [ -z "$pattern" ]; then
	echo "ci: bench gate failed (non-regression error)" >&2
	exit 1
fi
echo "== bench gate retry (isolated re-measure: $pattern) =="
BENCHOUT="$retry" BENCHCOUNT="${BENCHCOUNT:-5}" BENCHTIME="${BENCHTIME:-3x}" scripts/bench.sh "$pattern" >/dev/null
TOLERANCE="$tol" scripts/bench_compare.sh "$baseline" "$retry"
echo "ci: all gates passed (after retry)"
