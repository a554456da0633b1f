#!/usr/bin/env sh
# Tier-1 gate: vet, build, and the full test suite under the race
# detector (the experiment grid, the run/workload caches, and the
# per-run execute/timing pipeline are concurrent by default).
# -timeout 1800s: the experiments package now exceeds go test's 10m
# default under race instrumentation on 1-CPU hosts (the golden sweep
# covers eight report harnesses across four host modes).
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# Format gate: gofmt -l prints the files it would rewrite (.bench_build/
# is bench/run.sh's build directory, not source).
test -z "$(gofmt -l . | grep -v '^\.bench_build/')"
go build ./...
go test -race -timeout 1800s ./...

# The pipeline's worker budgeting and ring hand-off must also hold when
# the producer and consumer are forced to share two OS threads. Scoped
# to the pipeline/store tests: with GOMAXPROCS=2 the pipeline engages
# inside *every* simulated run, and the full experiments suite under
# race instrumentation exceeds the go-test timeout on small CI hosts.
# (-count=1: GOMAXPROCS is not part of the test cache key, so a cached
# pass from the full run above would otherwise satisfy this line.)
GOMAXPROCS=2 go test -race -count=1 -timeout 1800s -run 'Pipeline|RunStore' \
	./internal/vmm/ ./internal/experiments/

# Store-fault gate: the run store's crash-safety contract. The fault-
# injection suite (faultfs + storefault_test.go) proves every injected
# failure — kill-mid-write, truncation at every byte, bit flips,
# ENOSPC, EROFS — degrades to a correct recomputation with corrupt
# entries quarantined, for run records and interpreter profiles alike;
# the multi-process stress tests re-exec the test binary and SIGKILL
# lock holders to prove exactly-once simulation and no orphaned locks
# across real process deaths. With them, what the one fetch path
# promises every artifact kind: a warm pass computes nothing
# (TestWarmPassComputesNothing), profiles are store records like runs
# (TestProfile*, TestFig3Units*), a cancelled lock wait is not memoized
# (TestCancelledWait*), and an empty lock — its owner killed before
# writing a token — is stolen after one heartbeat, exactly once
# (TestEmptyLock*). Run narrow and uncached so the gate cannot be
# satisfied by a stale pass.
go test -race -count=1 ./internal/experiments/faultfs/
GOMAXPROCS=2 go test -race -count=1 -timeout 900s \
	-run 'TestRunStoreCorruption|TestRunStoreSave|TestRunStoreReadOnly|TestRunStoreMkdir|TestRunStoreKill|TestRunStoreFaultsDegrade|TestRunStoreGC|TestRunStoreMultiProcess|TestWarmPassComputesNothing|TestProfile|TestFig3Units|TestCancelledWait|TestEmptyLock' \
	./internal/experiments/

# Benchmark smoke: one iteration each of the hot-path benchmarks, so a
# build that breaks their alloc budgets or harness wiring fails here
# rather than in a manual perf run.
go test -run '^$' -bench 'DispatchHot|BBTTranslate' -benchtime=1x ./internal/vmm/ ./internal/bbt/
go test -run '^$' -bench 'Decode|Crack|Analyze|ExecBlock|InterpStep' -benchtime=1x \
	./internal/x86/ ./internal/crack/ ./internal/timing/ ./internal/interp/
# The warm-start decode leg (ns and B per translation through one
# scratch), the cache level's hit and miss paths and what a hierarchy
# costs to build (B/op), the profilers' counter increment.
go test -run '^$' -bench 'SnapshotDecode|CacheAccess|Table2|CountersInc' -benchmem -benchtime=1x \
	./internal/codecache/ ./internal/cache/ ./internal/profile/
go test -run '^$' -bench 'Fig2' -benchtime=1x .

# Inline-budget gate: the hot-path helpers (charge, segInterpAt,
# sampleIfDue, the memory TLB probe, the decoder's byte fetch, the
# micro-op descriptor-table accessors, what ExecBlock and ChargeBlock
# inline per micro-op: the 32-bit flag rules, the register merge, the
# event-queue pops; the counter table's probe and the cache's LRU
# promote) must stay inlinable.
sh scripts/inlinecheck.sh

# Fuzz legs: the seed corpora already ran in the suite above; these
# spend a few seconds each looking for new inputs — to the x86 decoder,
# and to the CCVM2 record decoder behind a re-sealed section CRC.
go test -run '^$' -fuzz 'FuzzDecode' -fuzztime 10s ./internal/x86/
go test -run '^$' -fuzz 'FuzzSnapshotRecord' -fuzztime 10s ./internal/codecache/

# Perf gate. Three checks:
#   1. The steady-state dispatch paths (chained and disabled-obs) must
#      allocate exactly nothing per op — asserted by the ZeroAlloc
#      tests via testing.AllocsPerRun, which is exact, unlike one
#      -benchtime=1x benchmark iteration — and building a VM must stay
#      under its byte ceiling (TestNewVMAllocCeiling: the cache
#      hierarchy's arrays are most of it).
#   2. BBT translation must stay within its recorded byte ceiling per
#      op (scratch-and-commit leaves only the arena's amortized slab
#      growth; the ceiling has ~3x headroom over the recorded value).
#   3. The committed BENCH_PR8.json must not have regressed ns/op by
#      more than 50% against any same-named benchmark in BENCH_PR7.json
#      (generous threshold: wall-clock on shared CI hosts is noisy;
#      the A/B minima in EXPERIMENTS.md are the precise record).
go test -race -count=1 -run 'ZeroAlloc|AllocCeiling' ./internal/vmm/
bbt_bop="$(go test -run '^$' -bench 'BBTTranslateHot' -benchmem -benchtime 100x ./internal/bbt/ |
	awk '/BenchmarkBBTTranslateHot/ {for (i=1; i<NF; i++) if ($(i+1) == "B/op") print $i}')"
[ -n "$bbt_bop" ]
[ "$bbt_bop" -le 600 ] || { echo "BBT translate $bbt_bop B/op exceeds 600 B/op ceiling"; exit 1; }
go run ./scripts/benchjson -diff -fail-over 50 BENCH_PR10.json BENCH_PR15.json

# Warm-start gate (persistent translation caches; DESIGN.md §10).
# Four checks:
#   1. Snapshot integrity: the CCVM2 property/truncation/bit-flip sweep
#      in codecache, through ParseSnapshot + DecodeInto + Insert — the
#      one restore path there is — plus the store-level corruption-
#      degradation tests: a damaged snapshot must quarantine to .bad
#      and rebuild, never feed a VM.
#   2. Warm-mode determinism: every restore policy byte-identical
#      across threaded/unthreaded × sequential/pipelined hosts, under
#      race instrumentation on two procs, including a per-arm snapshot
#      rebuild of the whole figure.
#   3. The persist report is two cached runs per app — fig2's cold
#      VM.soft run and an eager restore at zero simulated cost from
#      warmstart's snapshot — so it has no determinism of its own to
#      gate: like warmstart it rides TestGoldenReportsAcrossDispatchModes
#      below, and vmm's TestPersist* pin the zero-cost restore itself.
#   4. Wall-clock: a lazy warm-start sweep iteration must not run more
#      than 25% slower than the cold iteration it replaces (it should
#      be faster; the honest A/B minima live in EXPERIMENTS.md).
go test -race -count=1 -run 'TestPersist|TestSnapshot|TestDecodeInto' ./internal/codecache/
GOMAXPROCS=2 go test -race -count=1 -timeout 900s -run 'TestWarmModes|TestPersist|TestWarmSnapshot|TestGoldenWarmStartRebuild' \
	./internal/vmm/ ./internal/experiments/
warm_tmp="${TMPDIR:-/tmp}/warmsweep.$$"
WARMSTART_BENCH_MODE=cold go test -run '^$' -bench 'WarmSweep' -benchtime 2x -count 1 . |
	go run ./scripts/benchjson > "$warm_tmp.cold.json"
WARMSTART_BENCH_MODE=lazy go test -run '^$' -bench 'WarmSweep' -benchtime 2x -count 1 . |
	go run ./scripts/benchjson > "$warm_tmp.lazy.json"
go run ./scripts/benchjson -diff -fail-over 25 "$warm_tmp.cold.json" "$warm_tmp.lazy.json"
rm -f "$warm_tmp.cold.json" "$warm_tmp.lazy.json"

# The golden determinism sweep: the six figure reports plus the
# persist and warmstart extension reports, byte-identical across
# threaded/unthreaded dispatch and sequential/pipelined modes, under
# race instrumentation on two procs (-count=1: GOMAXPROCS is not in
# the test cache key).
GOMAXPROCS=2 go test -race -count=1 -timeout 1800s -run 'TestGoldenReportsAcrossDispatchModes' \
	./internal/experiments/

# Observability gate: every example must build, and the disabled-mode
# cost contract must hold — TestObsDisabledAllocFree /
# TestHotPathAllocFree assert zero hot-path allocations with no recorder
# attached and with the sampler unarmed (the deterministic half of the
# <2% overhead budget; the timing half is the A/B record in
# EXPERIMENTS.md). The Timeline/Trace tests are the cross-mode
# determinism goldens for the interval sampler and the Chrome trace
# export. The 1x ObsModes smoke keeps the disabled/metrics/jsonl
# benchmark harness itself from bit-rotting.
go build -o "${TMPDIR:-/tmp}/obs-example.$$" ./examples/observability
go build -o "${TMPDIR:-/tmp}/curves-example.$$" ./examples/startup_curves
rm -f "${TMPDIR:-/tmp}/obs-example.$$" "${TMPDIR:-/tmp}/curves-example.$$"
go test -count=1 -run 'Obs|HotPathAllocFree|Timeline|Trace|OpenMetrics|JSONL|Label' ./internal/vmm/ ./internal/obs/
go test -run '^$' -bench 'ObsModes' -benchtime=1x ./internal/vmm/

# Cycle-attribution gate (DESIGN.md §11). The attrib unit suite pins
# the exact-sum reconciliation and the collapsed-stack/merge formats;
# the vmm tests pin the invariant end-to-end (every strategy, warm
# mode, and pipeline mode sums bit-for-bit to the run's cycles); the
# phases golden pins the whole figure byte-identical across the four
# host modes under race instrumentation on two procs. The disabled-
# cost alloc half (TestAttribDisabledZeroAlloc) already rides the
# ZeroAlloc gate above.
go test -race -count=1 ./internal/obs/attrib/
GOMAXPROCS=2 go test -race -count=1 -timeout 900s \
	-run 'TestAttribExactSum|TestAttribPipelineBitIdentical|TestGoldenPhasesAcrossHostModes|TestPhasesFigInvariants|TestDefaultAttribSpec' \
	./internal/vmm/ ./internal/experiments/

# Live-introspection smoke: start a short sweep with -http on an
# ephemeral port, then check /healthz answers and /metrics serves
# terminated OpenMetrics while the sweep runs.
ci_tmp="${TMPDIR:-/tmp}/vmsim-ci.$$"
mkdir -p "$ci_tmp"
go build -o "$ci_tmp/vmsim" ./cmd/vmsim
"$ci_tmp/vmsim" -exp fig2 -scale 200 -http 127.0.0.1:0 \
	>"$ci_tmp/out.log" 2>"$ci_tmp/err.log" &
vmsim_pid=$!
addr=""
for _ in $(seq 1 50); do
	addr="$(sed -n 's#.*introspection server on http://##p' "$ci_tmp/err.log" | head -1)"
	[ -n "$addr" ] && break
	sleep 0.2
done
[ -n "$addr" ] || { cat "$ci_tmp/err.log"; exit 1; }
curl -fsS "http://$addr/healthz" | grep -q '^ok$'
curl -fsS "http://$addr/metrics" | grep -q '^# EOF'
curl -fsS "http://$addr/runs" | grep -q '"runs_started"'
wait "$vmsim_pid"

# Job-service smoke (docs/api.md): boot -exp serve against a fresh run
# store, go through the whole client lifecycle over live HTTP — submit,
# poll to completion, stream the result — then diff the streamed report
# against the CLI's stdout for the same spec with the wall-clock
# "[… completed in …]" progress lines stripped: the byte-identity
# contract, checked end to end on a real server. Unit-test coverage of
# the same flow is in internal/jobs; this proves the vmsim wiring
# (flags, signal-driven drain, shared mux) works from outside.
mkdir -p "$ci_tmp/store"
"$ci_tmp/vmsim" -exp serve -http 127.0.0.1:0 -store "$ci_tmp/store" \
	>"$ci_tmp/serve.out.log" 2>"$ci_tmp/serve.err.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
	addr="$(sed -n 's#.*introspection server on http://##p' "$ci_tmp/serve.err.log" | head -1)"
	[ -n "$addr" ] && break
	sleep 0.2
done
[ -n "$addr" ] || { cat "$ci_tmp/serve.err.log"; exit 1; }
spec='{"exp":"fig2","scale":500,"apps":["Word"],"instrs":200000}'
job_id="$(curl -fsS -X POST "http://$addr/jobs" -d "$spec" |
	grep -o '"id": "[^"]*"' | head -1 | cut -d'"' -f4)"
[ -n "$job_id" ] || { echo "job submission returned no id"; exit 1; }
state=""
for _ in $(seq 1 300); do
	state="$(curl -fsS "http://$addr/jobs/$job_id" |
		grep -o '"state": "[^"]*"' | head -1 | cut -d'"' -f4)"
	case "$state" in done|failed|cancelled) break ;; esac
	sleep 0.2
done
[ "$state" = done ] || { echo "job $job_id ended in state '$state'"; curl -fsS "http://$addr/jobs/$job_id"; exit 1; }
curl -fsS "http://$addr/jobs/$job_id/result" > "$ci_tmp/job.txt"
"$ci_tmp/vmsim" -exp fig2 -scale 500 -apps Word -instrs 200000 2>/dev/null |
	sed '/^\[.* completed in .*\]$/d' > "$ci_tmp/cli.txt"
diff "$ci_tmp/job.txt" "$ci_tmp/cli.txt"
curl -fsS "http://$addr/metrics" | grep -q '^codesignvm_jobs_done_total 1'
# SIGTERM must drain gracefully (exit 0), not kill accepted work.
kill -TERM "$serve_pid"
wait "$serve_pid"

# Distributed-sweep gate (docs/ARCHITECTURE.md): the golden sweep run
# with -workers 4 over a fresh store must merge byte-identical to the
# single-process output (wall-clock timing lines stripped), and it must
# stay byte-identical when one worker is SIGKILLed after its first
# completed unit (VMSIM_COORD_KILL_WORKER — the coordinator's crash
# seam): the survivors steal the corpse's units through the store's
# lock protocol, so the merge still finds every record.
"$ci_tmp/vmsim" -exp sweep -scale 400 2>/dev/null |
	sed '/^\[.* completed in .*\]$/d' > "$ci_tmp/sweep.single.txt"
mkdir -p "$ci_tmp/dist4"
"$ci_tmp/vmsim" -exp sweep -scale 400 -workers 4 -store "$ci_tmp/dist4" \
	2>"$ci_tmp/dist4.log" |
	sed '/^\[.* completed in .*\]$/d' > "$ci_tmp/sweep.dist4.txt"
diff "$ci_tmp/sweep.single.txt" "$ci_tmp/sweep.dist4.txt"
grep -q '^coordinator: .* units: .* done' "$ci_tmp/dist4.log"
mkdir -p "$ci_tmp/distkill"
VMSIM_COORD_KILL_WORKER=1 "$ci_tmp/vmsim" -exp sweep -scale 400 -workers 4 \
	-store "$ci_tmp/distkill" 2>"$ci_tmp/distkill.log" |
	sed '/^\[.* completed in .*\]$/d' > "$ci_tmp/sweep.distkill.txt"
diff "$ci_tmp/sweep.single.txt" "$ci_tmp/sweep.distkill.txt"
grep -q '^coordinator: worker 1 killed by seam$' "$ci_tmp/distkill.log"
rm -rf "$ci_tmp"

# Bench snapshots: the committed BENCH_PR9.json (regenerated by
# scripts/bench.sh) and the BENCH_PR8.json baseline it is diffed
# against must stay well-formed bench.v1 JSON. The trend gate then
# walks the whole committed series (docs/BENCH_TREND.md renders it):
# the per-PR -diff above resets its baseline every PR, so N small
# regressions compound invisibly; -trend compares the newest snapshot
# against the median of the whole prior series and fails past 50%
# (generous: cross-session wall clock on this host drifts ±10%).
go run ./scripts/benchjson -check BENCH_PR10.json
go run ./scripts/benchjson -check BENCH_PR15.json
go run ./scripts/benchjson -trend -fail-over 50 BENCH_PR*.json > /dev/null
