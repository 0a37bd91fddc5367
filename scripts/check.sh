#!/bin/sh
# Repo gate: vet, build, and the full test suite under the race detector.
# The harness fans simulations out across goroutines, so -race here is
# what keeps future PRs honest about cache/pool concurrency.
#
# Usage: ./scripts/check.sh [-short]   (-short skips the slowest sweeps)
set -eu
cd "$(dirname "$0")/.."
set -x
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
go vet ./...
go build ./...
# Static-analysis gate: build the repo's own vet tool and run the analyzer
# suite (determinism, allocfree, pinpair, metricshoist, atomicfield,
# lockorder, seqlock, spsc, shardsafe, directives) over the module.
# See internal/analysis/README.md for the contracts and //bfgts: directives.
go build -o "$workdir/bfgtsvet" ./cmd/bfgtsvet
go vet -vettool="$workdir/bfgtsvet" ./...
# Concurrency lane: the sharded differentials (the sequential fallback and
# the partitioned lanes) and the AtomicTree stress tests under the race
# detector — short mode, fresh run (-count=1 so the cache never absorbs a
# flake), and a hard timeout, so a protocol regression surfaces here in
# seconds even when the full suite below is trimmed with -short.
go test -race -short -count=1 -timeout 300s \
	-run 'TestShardedFallbackMatchesSequential|TestPartitionedWideMatchesSequential|TestPartitionedRaceStress|TestShardBarrierRace|TestShardRingSPSC' \
	./internal/sim/
# Recycled runner shells and the managers retired in them: every manager
# on every kernel and the wide machine (BFGTS-SW/HW at 512, 1024 and 8192
# bits), in two cell orders on a four-worker session and fresh, must
# agree, and no Result may change when a later cell reuses its shell.
go test -race -short -count=1 -timeout 300s -cpu 1,2,4 \
	-run 'TestRecycledCellsMatchFresh' \
	./internal/harness/
# Allocation budgets, counted exactly (MemStats deltas): a warm cell under
# each manager kind, and the engine's schedule/fire cycle. The cell budgets
# skip themselves under the race detector, whose sync.Pool drops shells at
# random, so this lane runs without it.
go test -count=20 -cpu 1,2 \
	-run 'TestCellSetupAllocBudget|TestEngineDispatchAllocFree' \
	./internal/sim/
go test -race -short -count=1 -timeout 300s \
	-run 'TestAtomicTreeMatchesTree|TestAtomicTreeRepairNoStaleBits|TestAtomicTreeConcurrentStress' \
	./internal/bloofi/
# The STM's cell reclamation: readers asserting whole, agreeing values
# while writers recycle (one System and two, at one, two and four
# processors), Peek against commits, a reader parked mid-attempt, the
# single-worker take/put property, and the panic/error exits. A cell
# reused under a reader is a plain write racing a plain read, so the
# detector sees it even when the values agree.
go test -race -short -count=1 -timeout 300s -cpu 1,2,4 \
	-run 'TestReclaimKeepsReadersConsistent|TestReclaimHonoursForeignReaders' \
	./internal/stm/
go test -race -short -count=1 -timeout 300s \
	-run 'TestPeekDuringCommits|TestParkedReaderCostsPeersNoFreshCells|TestNoInstalledCellHandedOut|TestUserPanicPropagates|TestErrorExitSettlesExecution' \
	./internal/stm/
go test -race "$@" ./...
# The benchmark program is a module of its own (bench/go.mod), so ./...
# above does not reach it: run its toy-size self-drive here.
(cd bench && go test -short ./...)
# Machine-readable output round trip: generate a small export and parse it
# back through the schema.
tmp="$workdir/export.json"
go run ./cmd/bfgts-sim -exp speedup -seed 1 -scale 0.02 -quiet -json-out "$tmp" >/dev/null
go run ./scripts/jsonverify "$tmp"
# Sharding differential gate: the same experiment cell split across 4
# engine shards must also be byte-identical — sharding is a host-side
# execution strategy, never a result change. The randomized in-process
# differentials are TestShardedFallbackMatchesSequential and
# TestPartitionedWideMatchesSequential; this catches CLI-level drift.
shardtmp="$workdir/export-sharded.json"
go run ./cmd/bfgts-sim -exp speedup -seed 1 -scale 0.02 -quiet -shards 4 -json-out "$shardtmp" >/dev/null
cmp "$tmp" "$shardtmp"
# STM smoke: a tiny stmbench sweep must run all three contention managers
# and emit an export that passes the same schema gate.
stmtmp="$workdir/stm.json"
go run ./cmd/stmbench -workers 2 -ops 200 -workloads counter,zipf -quiet -json-out "$stmtmp"
go run ./scripts/jsonverify "$stmtmp"
# Decision-trace round trip: a small single run must emit a schema-v2
# decisions document and a well-formed Chrome trace, both passing the
# jsonverify dispatch (it routes on document shape).
dectmp="$workdir/decisions.json"
chrometmp="$workdir/decisions.trace.json"
go run ./cmd/bfgts-sim -bench intruder -scale 0.02 -quiet \
	-decisions-out "$dectmp" -trace-chrome "$chrometmp" >/dev/null
go run ./scripts/jsonverify "$dectmp"
go run ./scripts/jsonverify "$chrometmp"
# Bench smoke: compile and run each hot-path microbenchmark once. The
# paired Test*AllocFree tests already gate the 0 allocs/op contract; this
# catches benchmarks that rot until release time.
go test -run=NONE -bench='BenchmarkTxLifecycle|BenchmarkEngineChurn|BenchmarkEq3Estimate|BenchmarkTreeProbe|BenchmarkAtomicTreeProbe|BenchmarkBFGTSPredict|BenchmarkStampNext' \
	-benchtime=1x ./internal/tm/ ./internal/sim/ ./internal/bloom/ ./internal/bloofi/ ./internal/sched/ ./internal/stamp/ >/dev/null
# The STM benchmark also gates memory: a read-modify-write commit must
# report 0 B/op under every manager (-benchmem rounds the pools' one-time
# growth away over 20000 ops). On one processor, because a commit is only
# allocation-free while no peer sits descheduled in the middle of an
# attempt, and on a shared host that is not ours to promise.
go test -run=NONE -bench='BenchmarkSTMContended$' -benchmem -benchtime=20000x -cpu 1 ./internal/stm/ |
	awk '/^BenchmarkSTMContended/ {
		seen++
		for (i = 2; i <= NF; i++) if ($i == "B/op" && $(i-1) != 0) { print "non-zero B/op: " $0; bad = 1 }
	}
	END { if (seen != 3) { print "expected 3 BenchmarkSTMContended results, saw " seen+0; bad = 1 }; exit bad }'
go test -run=NONE -bench='BenchmarkWideSharded' -benchtime=1x . >/dev/null
# Fig4a wall-clock gate: the end-to-end figure run must stay within 15% of
# the committed baseline, so batching-path regressions fail here instead of
# rotting. The baseline is machine-specific — on other hardware either
# refresh scripts/fig4a_baseline.txt or set SKIP_FIG4A_GATE=1.
if [ -z "${SKIP_FIG4A_GATE:-}" ]; then
	baseline=$(grep -v '^#' scripts/fig4a_baseline.txt)
	nsop=$(go test -run=NONE -bench='^BenchmarkFig4a$' -benchtime=1x . |
		awk '/^BenchmarkFig4a/ {print $3; exit}')
	awk -v base="$baseline" -v got="$nsop" 'BEGIN {
		limit = base * 1.15
		printf "fig4a gate: %.0f ns/op vs baseline %.0f (limit %.0f)\n", got, base, limit
		exit got > limit ? 1 : 0
	}' || { echo "BenchmarkFig4a regressed >15% vs scripts/fig4a_baseline.txt" >&2; exit 1; }
fi
