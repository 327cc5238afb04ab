#!/usr/bin/env bash
# check.sh — the full local verification gate. Run from anywhere inside
# the repo; CI and pre-commit hooks should invoke exactly this script so
# there is one definition of "green".
#
#   FUZZTIME=30s scripts/check.sh    # longer fuzz smoke (default 5s each)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-5s}"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# cedarvet runs after stock vet on purpose: its analyzers assume a
# vet-clean tree (no unreachable code, no misused builtins), so stock
# vet findings would only show up here as noise. The -json artifact is
# what CI uploads; on failure we print it so the findings are visible in
# the log too.
echo "==> cedarvet (hot-path allocs, layering, concurrency, error flow, determinism)"
mkdir -p artifacts
if ! go run ./cmd/cedarvet -json ./... > artifacts/cedarvet.json; then
  cat artifacts/cedarvet.json
  echo "cedarvet: findings (see artifacts/cedarvet.json)" >&2
  exit 1
fi

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
# The full-report integration tests skip themselves under -race (they
# multiply minutes of simulation by the detector's overhead); the line
# above runs them unraced.
go test -race ./...

echo "==> cedarfleet parallel-vs-sequential equality (-race, pool enabled)"
# The worker pool must be invisible: -jobs 8 and -jobs 1 byte-identical
# report/JSON/trace/metrics, with the detector watching the real parallel
# execution — for healthy runs and for fault-injected (cedarfault)
# degraded runs alike. -count=1 defeats the test cache so the gate always
# exercises the pool.
go test -race -count=1 -run '^(TestParallelVsSequentialEquality|TestFaultedRunDeterministic|TestBenchArtifactDeterminism)$' .

echo "==> stepped-vs-event engine equivalence (-race)"
# The event wheel (internal/sim) skips sleeping components and jumps the
# clock over empty cycles; both must be invisible. These run the suite
# with the wheel on and with pure per-cycle stepping and byte-compare
# every artifact, plus the seeded random-interleaving property test.
go test -race -count=1 -run '^(TestSteppedVsEventEquality|TestSteppedVsEventDegraded)$' .
go test -race -count=1 -run '^TestRandomWakeInterleavingsMatchStepped$' ./internal/sim

echo "==> cedarserve cached-vs-fresh response equality (-race)"
# The serving daemon's cache must be invisible: a response served from
# the in-process cache, from a coalesced in-flight computation, or from
# the durable on-disk store across a daemon restart must be
# byte-identical to the freshly simulated one — with the race detector
# watching the real concurrent submissions. The store's own half of the
# contract is its durable round trip. Plus the fleet-pool crash-safety
# regressions: a panicking job surfaces on the caller, never a stray
# goroutine, and a failed cache copy recomputes instead of aliasing.
go test -race -count=1 -run '^(TestCacheHitByteEquality|TestCoalescedRequestsShareOneSimulation|TestPanicBecomes500)$' ./internal/serve
go test -race -count=1 -run '^TestRoundTripDeterminism$' ./internal/store
go test -race -count=1 -run '^(TestWorkerPanicRethrownOnCaller|TestCopyFailureRecomputesNeverAliases|TestHealthyAfterFaultedNotServedDegraded)$' ./internal/fleet

echo "==> cedarbench smoke campaign + regression diff"
# The smoke campaign runs the full matrix once per declared jobs value
# ([1, 8]) and fails itself if the deterministic sections differ, so a
# successful run is a cross-jobs byte-equality proof. The diff then
# gates simcycles (tight, they are deterministic) and allocations
# (loose, they drift with the toolchain) against the committed baseline.
go run ./cmd/cedarbench run -config bench/campaigns/smoke.json -out artifacts/BENCH_smoke.json -q
go run ./cmd/cedarbench diff bench/BENCH_smoke.json artifacts/BENCH_smoke.json -threshold 5% -alloc-threshold 30%

echo "==> cedarbench latency campaign (event-wheel win) + regression diff"
# The latency campaign is dominated by long memory waits — exactly what
# the event wheel jumps over — so its simcycles are also the regression
# gate on the wheel's scheduling (a missed wake changes cycle counts
# before it changes anything else).
go run ./cmd/cedarbench run -config bench/campaigns/latency.json -out artifacts/BENCH_latency.json -q
go run ./cmd/cedarbench diff bench/BENCH_latency.json artifacts/BENCH_latency.json -threshold 5% -alloc-threshold 30%

echo "==> cedarbench wide campaign (16/64-cluster presets) + regression diff"
# The wide campaign runs the scale-up machines, where the omega fabrics
# and global memory carry most of the host time; the diff gates their
# simcycles like any other committed baseline.
go run ./cmd/cedarbench run -config bench/campaigns/wide.json -out artifacts/BENCH_wide.json -q
go run ./cmd/cedarbench diff bench/BENCH_wide.json artifacts/BENCH_wide.json -threshold 5% -alloc-threshold 30%

echo "==> perfbench unit tests"
# The repo benchmark (perfbench/, declared in BENCHMARK.json) is its own
# Go module, hidden from ./... by the leading underscore of _cmd. Its
# tests run under the same build environment perfbench/run.sh exports,
# so they see exactly what the benchmark build sees.
(
  out="$PWD/.bench_build"
  export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
  export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
  mkdir -p "$GOTMPDIR"
  cd perfbench/_cmd && go test ./...
)

echo "==> fuzz smoke ($FUZZTIME per target)"
go test -run='^$' -fuzz='^FuzzOmegaRouting$' -fuzztime="$FUZZTIME" ./internal/network
go test -run='^$' -fuzz='^FuzzInstability$' -fuzztime="$FUZZTIME" ./internal/ppt
go test -run='^$' -fuzz='^FuzzBands$' -fuzztime="$FUZZTIME" ./internal/ppt

echo "OK: build, vet, cedarvet, race tests, engine equality, serve equality, bench campaigns, perfbench tests and fuzz smoke all green"
