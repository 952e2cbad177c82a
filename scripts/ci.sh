#!/bin/sh
# scripts/ci.sh — the full pre-merge gate. Every test runs once:
#
#   1. tier-1: build, gofmt (no file may need reformatting), vet (the
#      root module and bench/), the test suite with a per-package
#      coverage report, and the race line. The suite includes the
#      minimality gate (TestNoUnusedExports, exports_test.go), which
#      type-checks both modules' non-test code and fails on an exported
#      name of internal/ with no non-test use, an exported method with
#      no non-test use, or an exported struct field no non-test code
#      sets.
#   2. the bench/ module's tests: the paper-number checks (Table 4 σε,
#      DEE1 AIC/BIC), the BENCHMARK.json metric list, and a reduced
#      smoke run of every benchmark workload.
#   3. a short fuzz smoke on every fuzz target.
#   4. a ucserved process smoke: the real binary's flag and signal
#      wiring.
#
# Performance is gated in two places, neither of them here. The
# load-independent bounds (allocation budgets, the edit loop's dirty
# cone, per-unit scaling, one metric-kernel run per distinct netlist,
# one flight per design point — name-blind, and blind to parameter
# defaults no elaboration reads — one search per structural top, and
# one disk record per searched structure and per design point) are
# ordinary tests in gates_test.go and run in stage 1. Wall time is
# the bench/ module's job: `bash bench/run.sh` runs the end-to-end
# workloads that BENCHMARK.json lists.
#
# Usage:
#   scripts/ci.sh                      # all stages
#   SKIP_BENCHMOD=1 scripts/ci.sh      # skip the bench/ module's tests
#   SKIP_FUZZ=1 scripts/ci.sh          # skip the fuzz smoke stage
#   SKIP_SERVE=1 scripts/ci.sh         # skip the ucserved process smoke
#   FUZZTIME=30s scripts/ci.sh         # longer fuzz smoke (default 10s)
set -eu
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
go build ./...
# gofmt -l lists every file whose formatting differs from gofmt's and
# exits 0 either way, so the list itself is the verdict.
echo "== tier-1: gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting (run gofmt -w):" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== tier-1: vet =="
go vet ./...
# bench/ is a module of its own, so the root build and vet skip it; vet
# compiles it against this tree, so a deleted name it still calls fails
# here rather than only in the skippable benchmark-module stage below.
echo "== tier-1: vet bench/ =="
(cd bench && go vet ./...)
echo "== tier-1: test (with coverage) =="
go test -cover ./...
echo "== tier-1: race =="
go test -race ./internal/parallel ./internal/nlme ./internal/paper ./internal/elab ./internal/measure ./internal/core ./internal/depgraph ./internal/serve ./internal/hdl ./internal/cache ./internal/netlist ./internal/synth

if [ "${SKIP_BENCHMOD:-0}" != "1" ]; then
	echo "== benchmark module tests (bench/) =="
	(cd bench && go test ./...)
fi

if [ "${SKIP_FUZZ:-0}" != "1" ]; then
	# Short coverage-guided smoke on the fuzz targets: the parser's
	# round-trip fuzzer, the structural keys' fuzzer (StructuralHash and
	# DesignPointHash: invariant under a bijective module renaming, equal
	# exactly when the canonically renamed sources with dead parameter
	# defaults cut and dead declarations deleted are, unmoved by a fresh
	# unused scalar wire, and moved by rewriting a default exactly when
	# it is live), the synthesis-vs-RTL differential fuzzer, the
	# corpus generator's parse-and-synthesize fuzzer (every seed must
	# yield a valid, synthesizable corpus), the cache codec's two
	# decoder fuzzers, the cache's segment-scan fuzzer (arbitrary bytes
	# beside a valid segment: Open never panics, a Get misses or returns
	# a value a Put wrote), the measurement record decoder fuzzer (search
	# and sig payloads: never a sig record without metrics, nor a search
	# with a missing or duplicate parameter), incremental
	# remeasurement over fuzzed edit scripts (Remeasure must equal a
	# from-scratch MeasureAll, errors included), the daemon's request
	# fuzzer, and the request decoder's differential fuzzer (the same
	# decision and request as encoding/json). Every target is named by
	# an anchored pattern: -fuzz runs exactly one target per invocation,
	# so a bare prefix would fail the stage as soon as a package gained
	# a second target.
	fuzztime="${FUZZTIME:-10s}"
	echo "== fuzz smoke (${fuzztime}/target) =="
	go test -run '^$' -fuzz '^FuzzParseDesign$' -fuzztime "$fuzztime" ./internal/hdl
	go test -run '^$' -fuzz '^FuzzStructuralHash$' -fuzztime "$fuzztime" ./internal/hdl
	go test -run '^$' -fuzz '^FuzzEquivalence$' -fuzztime "$fuzztime" ./internal/equiv
	go test -run '^$' -fuzz '^FuzzGenerate$' -fuzztime "$fuzztime" ./internal/gencorpus
	go test -run '^$' -fuzz '^FuzzDecodeEntry$' -fuzztime "$fuzztime" ./internal/codec
	go test -run '^$' -fuzz '^FuzzDecodeNetlist$' -fuzztime "$fuzztime" ./internal/codec
	go test -run '^$' -fuzz '^FuzzLoadSegment$' -fuzztime "$fuzztime" ./internal/cache
	go test -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime "$fuzztime" ./internal/measure
	go test -run '^$' -fuzz '^FuzzRemeasure$' -fuzztime "$fuzztime" ./internal/measure
	go test -run '^$' -fuzz '^FuzzServeRequest$' -fuzztime "$fuzztime" ./internal/serve
	go test -run '^$' -fuzz '^FuzzParseRequest$' -fuzztime "$fuzztime" ./internal/serve
fi

if [ "${SKIP_SERVE:-0}" != "1" ]; then
	# Daemon smoke: build ucserved, start it on an ephemeral port, serve
	# one measurement over the wire, health-check it, SIGTERM it, and
	# require a clean drained exit (cmd/ucserved TestDaemonProcessSmoke).
	# Tier-1 runs it too, possibly from go test's result cache; this
	# stage re-runs it uncached (-count=1), so CI always ends having
	# built and driven the real binary.
	echo "== daemon smoke (ucserved process lifecycle) =="
	go test -count=1 -run '^TestDaemonProcessSmoke$' ./cmd/ucserved
fi

echo "ci: all gates passed"
