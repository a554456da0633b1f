#!/usr/bin/env sh
# Tier-1 gate: vet, build, and the full test suite under the race
# detector (the experiment grid, the run/workload caches, the run store
# and the job service are concurrent; a simulated run is one goroutine).
# -timeout 1800s: headroom for slow 1-CPU hosts; under race
# instrumentation the experiments package takes ≈ 4 min on two vCPUs.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# Format gate: gofmt -l prints the files it would rewrite (.bench_build/
# is bench/run.sh's build directory, not source).
test -z "$(gofmt -l . | grep -v '^\.bench_build/')"
go build ./...
go test -race -timeout 1800s ./...

# What is concurrent must also hold on two OS threads whatever the CI
# host has: the experiment grid's worker pool (TestForEachTaskRunsConcurrently
# fails if the pool runs its tasks one at a time, and
# TestForEachTaskRecoversPanic if a panicking task on a pool goroutine
# ends the process; the parallel reports, warm-start snapshot rebuilds
# and phase attributions included, must equal the sequential ones), the
# run store's lock protocol, and the job service. (-count=1: GOMAXPROCS
# is not part of the test cache key, so a cached pass from the full run
# above would otherwise satisfy these lines.)
GOMAXPROCS=2 go test -race -count=1 -timeout 900s \
	-run 'TestParallelReportsMatchSequential|TestParallelCurvesBitIdentical|TestForEachTaskRunsConcurrently|TestForEachTaskRecoversPanic|AcrossHostModes|RunStore' \
	./internal/experiments/
GOMAXPROCS=2 go test -race -count=1 ./internal/jobs/

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
# (TestProfile*, TestFig3Profiles*), a cancelled lock wait is not
# memoized (TestCancelledWait*) nor handed to a request sharing the
# fill, which fills again under its own context (TestCancelledFill*),
# a panicking build leaves neither its lock nor its memo slot behind
# (TestPanickingBuild*), and an empty lock — its owner killed before
# writing a token — is stolen after one heartbeat, exactly once
# (TestEmptyLock*). Run narrow and uncached so the gate cannot be
# satisfied by a stale pass.
go test -race -count=1 ./internal/experiments/faultfs/
GOMAXPROCS=2 go test -race -count=1 -timeout 900s \
	-run 'TestRunStoreCorruption|TestRunStoreSave|TestRunStoreReadOnly|TestRunStoreMkdir|TestRunStoreKill|TestRunStoreFaultsDegrade|TestRunStoreGC|TestRunStoreMultiProcess|TestWarmPassComputesNothing|TestProfile|TestFig3Profiles|TestPanickingBuild|TestCancelledWait|TestCancelledFill|TestEmptyLock' \
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

# Inline-budget gate: the hot-path helpers (charge, sampleIfDue, the memory TLB probe, the decoder's byte fetch, the
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

# Perf gate. Two checks (wall-clock speed is bench/'s business):
#   1. The steady-state dispatch paths (chained and disabled-obs) must
#      allocate exactly nothing per op — asserted by the ZeroAlloc
#      tests via testing.AllocsPerRun, which is exact, unlike one
#      -benchtime=1x benchmark iteration — and building a VM must stay
#      under its byte ceiling (TestNewVMAllocCeiling: the cache
#      hierarchy's arrays are most of it).
#   2. BBT translation must stay within its recorded byte ceiling per
#      op (scratch-and-commit leaves only the arena's amortized slab
#      growth; the ceiling has ~3x headroom over the recorded value).
go test -race -count=1 -run 'ZeroAlloc|AllocCeiling' ./internal/vmm/
bbt_bop="$(go test -run '^$' -bench 'BBTTranslateHot' -benchmem -benchtime 100x ./internal/bbt/ |
	awk '/BenchmarkBBTTranslateHot/ {for (i=1; i<NF; i++) if ($(i+1) == "B/op") print $i}')"
[ -n "$bbt_bop" ]
[ "$bbt_bop" -le 600 ] || { echo "BBT translate $bbt_bop B/op exceeds 600 B/op ceiling"; exit 1; }

# Warm-start gate (persistent translation caches; DESIGN.md §10).
# Two checks:
#   1. Snapshot integrity: the CCVM2 property/truncation/bit-flip sweep
#      in codecache, through ParseSnapshot + DecodeInto + Insert — the
#      one restore path there is — plus the store-level corruption-
#      degradation tests: a damaged snapshot must quarantine to .bad
#      and rebuild, never feed a VM.
#   2. Restore semantics: every restore policy reproduces the golden
#      architected execution and beats cold startup (TestWarmModes*),
#      and vmm's TestPersist* pin the zero-cost eager restore the
#      persist report is made of. The warmstart, persist and phases
#      reports themselves are pinned by TestReportDigests below.
go test -race -count=1 -run 'TestPersist|TestSnapshot|TestDecodeInto' ./internal/codecache/
go test -race -count=1 -run 'TestWarmModes|TestPersist|TestWarmSnapshot' \
	./internal/vmm/ ./internal/experiments/

# The report digests: the six figure reports plus the persist,
# warmstart, ablation and phases reports, each rebuilt from cleared
# caches and compared with testdata/reports.sha256, under race
# instrumentation on two procs so the grid really runs in parallel
# (-count=1: GOMAXPROCS is not in the test cache key).
GOMAXPROCS=2 go test -race -count=1 -timeout 900s -run 'TestReportDigests' \
	./internal/experiments/

# Observability gate: every example must build, and the disabled-mode
# cost contract must hold — TestObsDisabledAllocFree /
# TestHotPathAllocFree assert zero hot-path allocations with no recorder
# attached and with the sampler unarmed (the deterministic half of the
# <2% overhead budget; the timing half is the A/B record in
# EXPERIMENTS.md). The Timeline/Trace tests are the determinism
# goldens for the interval sampler and the Chrome trace export (the
# export of a run is byte-identical with the rest of the layer armed). The 1x ObsModes smoke keeps the
# disabled/metrics/jsonl benchmark harness itself from bit-rotting.
go build -o "${TMPDIR:-/tmp}/obs-example.$$" ./examples/observability
go build -o "${TMPDIR:-/tmp}/curves-example.$$" ./examples/startup_curves
rm -f "${TMPDIR:-/tmp}/obs-example.$$" "${TMPDIR:-/tmp}/curves-example.$$"
go test -count=1 -run 'Obs|HotPathAllocFree|Timeline|Trace|OpenMetrics|JSONL|Label' ./internal/vmm/ ./internal/obs/
go test -run '^$' -bench 'ObsModes' -benchtime=1x ./internal/vmm/

# Cycle-attribution gate (DESIGN.md §11). The attrib unit suite pins
# the exact-sum reconciliation and the collapsed-stack/merge formats;
# the vmm tests pin the invariant end-to-end (every strategy and warm
# mode sums bit-for-bit to the run's cycles); the phases figure's
# invariants are checked here and its report digest above. The
# disabled-cost alloc half (TestAttribDisabledZeroAlloc) already rides
# the ZeroAlloc gate above.
go test -race -count=1 ./internal/obs/attrib/
go test -race -count=1 \
	-run 'TestAttribExactSum|TestPhasesFigInvariants|TestDefaultAttribSpec' \
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

rm -rf "$ci_tmp"
