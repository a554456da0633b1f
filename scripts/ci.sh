#!/usr/bin/env sh
# Tier-1 gate: vet, build, and the full test suite under the race
# detector (the experiment grid, the run/workload caches, the run store
# and the job service are concurrent; a simulated run is one goroutine).
# -timeout 1800s: headroom for slow 1-CPU hosts; under race
# instrumentation the experiments package takes ≈ 4 min on two vCPUs.
set -eux

cd "$(dirname "$0")/.."

# Each leg ends in `lap NAME`, which prints the leg's wall time (whole
# seconds since the previous lap) and keeps it for the summary the
# script prints when every leg has passed.
lap_start=$(date +%s)
laps=""
lap() {
	lap_end=$(date +%s)
	laps="$laps$1: $((lap_end - lap_start)) s
"
	echo "ci leg $1: $((lap_end - lap_start)) s"
	lap_start=$lap_end
}

go vet ./...
lap vet
# Format gate: gofmt -l prints the files it would rewrite (.bench_build/
# is bench/run.sh's build directory, not source).
test -z "$(gofmt -l . | grep -v '^\.bench_build/')"
lap gofmt
go build ./...
lap build
# The benchmark is a module of its own (bench/go.mod), so the root
# build above skips it: vet it here, so a deleted or changed export
# that bench/*.go uses fails CI rather than the next benchmark run.
(cd bench && go vet ./...)
lap bench-vet
# The full suite under the race detector, uncached, on two OS threads
# whatever the CI host has (-count=1: GOMAXPROCS is not part of the
# test cache key, so a cached pass at another setting would otherwise
# satisfy it). What is concurrent must hold on two threads even where
# the host has one CPU: the experiment grid's worker pool
# (TestForEachTaskRunsConcurrently fails if the pool runs its tasks one
# at a time, and TestForEachTaskRecoversPanic if a panicking task on a
# pool goroutine ends the process; the parallel reports, warm-start
# snapshot rebuilds and phase attributions included, must equal the
# sequential ones), the run store's lock protocol, and the job service.
#
# The same pass is the store-fault gate: the store's crash-safety
# contract. The store (framing, publish, lock, GC) is internal/store,
# whose own suite kills a process between writing its lock token and
# linking it into place and finds no lock left, only temp debris that GC
# collects (TestLockKilledBeforeLink); its fault injector and filesystem
# seam are internal/store/faultfs. The suites that drive the store
# through the experiment harness stay in internal/experiments. The
# fault-injection suite (storefault_test.go) proves every injected
# failure — kill-mid-write, truncation at every byte, bit flips, ENOSPC,
# EROFS — degrades to a correct recomputation with corrupt entries
# quarantined, for run records and interpreter profiles alike; the
# multi-process stress tests (storestress_test.go) re-exec the test
# binary and SIGKILL lock holders to prove exactly-once simulation and
# no orphaned locks across real process deaths. With them, what the one
# fetch path promises every artifact kind: a warm pass computes nothing
# (TestWarmPassComputesNothing), profiles are store records like runs
# (TestProfile*, TestFig3Profiles*), a cancelled lock wait is not
# memoized (TestCancelledWait*) nor handed to a request sharing the
# fill, which fills again under its own context (TestCancelledFill*),
# and a panicking build leaves neither its lock nor its memo slot behind
# (TestPanickingBuild*).
#
# And it is the report-digest gate: TestReportDigests rebuilds every
# named report experiment from cleared caches and compares it with
# testdata/reports.sha256, under race instrumentation, with the grid
# really running in parallel.
GOMAXPROCS=2 go test -race -count=1 -timeout 1800s ./...
lap test-race

# The fault injector's own suite, at the host's GOMAXPROCS.
go test -race -count=1 ./internal/store/faultfs/
lap faultfs

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
lap bench-smoke

# Inline-budget gate: the hot-path helpers (charge, sampleIfDue, the memory TLB probe, the decoder's byte fetch, the
# micro-op descriptor-table accessors, what ExecBlock and ChargeBlock
# inline per micro-op: the 32-bit flag rules, the register merge, the
# event-queue pops; the counter table's probe and the cache's LRU
# promote) must stay inlinable.
sh scripts/inlinecheck.sh
lap inline

# Fuzz legs: the seed corpora already ran in the suite above; these
# spend a few seconds each looking for new inputs — to the x86 decoder,
# to the CCVM2 record decoder behind a re-sealed section CRC, to the
# CRUN2 run-record decoder behind a re-sealed record CRC, and to
# Breakeven, which must return the bits of the search that evaluates
# every grid point. Minimizing each new input is bounded: unbounded
# (60 s per input by default), a leg spends its whole 10 s minimizing
# its first finds and then runs no execs at all.
go test -run '^$' -fuzz 'FuzzDecode' -fuzztime 10s -fuzzminimizetime 100x ./internal/x86/
lap fuzz-decode
go test -run '^$' -fuzz 'FuzzSnapshotRecord' -fuzztime 10s -fuzzminimizetime 100x ./internal/codecache/
lap fuzz-snapshot-record
go test -run '^$' -fuzz 'FuzzRunRecord' -fuzztime 10s -fuzzminimizetime 100x ./internal/experiments/
lap fuzz-run-record
go test -run '^$' -fuzz 'FuzzBreakeven' -fuzztime 10s -fuzzminimizetime 100x ./internal/metrics/
lap fuzz-breakeven

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
lap perf

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
#      reports themselves are pinned by TestReportDigests (full pass).
go test -race -count=1 -run 'TestPersist|TestSnapshot|TestDecodeInto' ./internal/codecache/
go test -race -count=1 -run 'TestWarmModes|TestPersist|TestWarmSnapshot' \
	./internal/vmm/ ./internal/experiments/
lap warm-start

# Observability gate: every example must build, and the disabled-mode
# cost contract must hold — TestObsDisabledAllocFree /
# TestHotPathAllocFree assert zero hot-path allocations with no recorder
# attached and with the sampler unarmed (the deterministic half of the
# <2% overhead budget; the timing half is the A/B record in
# EXPERIMENTS.md). TestObsMetricsAcrossModes and
# TestTimelineIdenticalAcrossModes are the goldens across observation
# modes (a run's metrics and timeline are the same with a trace, a
# timeline and attribution armed); the TraceSink tests pin the host-time
# trace's lanes, spans and payloads. The 1x ObsModes smoke keeps the
# disabled/metrics/trace benchmark harness itself from bit-rotting.
go build -o "${TMPDIR:-/tmp}/obs-example.$$" ./examples/observability
go build -o "${TMPDIR:-/tmp}/curves-example.$$" ./examples/startup_curves
rm -f "${TMPDIR:-/tmp}/obs-example.$$" "${TMPDIR:-/tmp}/curves-example.$$"
go test -count=1 -run 'Obs|HotPathAllocFree|Timeline|TraceSink|OpenMetrics|Label|Note' ./internal/vmm/ ./internal/obs/
go test -run '^$' -bench 'ObsModes' -benchtime=1x ./internal/vmm/
lap obs

# Cycle-attribution gate (DESIGN.md §11). The attrib unit suite pins
# the exact-sum reconciliation and the collapsed-stack/merge formats;
# the vmm tests pin the invariant end-to-end (every strategy and warm
# mode sums bit-for-bit to the run's cycles); the phases figure's
# invariants are checked here and its report digest in the full pass. The
# disabled-cost alloc half (TestAttribDisabledZeroAlloc) already rides
# the ZeroAlloc gate above.
go test -race -count=1 ./internal/obs/attrib/
go test -race -count=1 \
	-run 'TestAttribExactSum|TestPhasesFigInvariants|TestDefaultAttribSpec' \
	./internal/vmm/ ./internal/experiments/
lap attrib

# Every experiment a store client: a warm pass over the store the cold
# pass filled is a second process that simulates nothing, for every
# experiment. It must print the same stdout, byte for byte (the
# wall-clock "[… completed in …]" lines are on stderr), and write
# byte-identical -flamegraph and -timeline files, which are built from
# the Results the reports consumed. -trace is the host view, so the two
# traces differ; neither may hold a simulated-machine event, and the
# warm one holds the store hits that served it.
ci_tmp="${TMPDIR:-/tmp}/vmsim-ci.$$"
mkdir -p "$ci_tmp/obsstore"
go build -o "$ci_tmp/vmsim" ./cmd/vmsim
for pass in cold warm; do
	"$ci_tmp/vmsim" -exp all -scale 200 -apps Word,Winzip -store "$ci_tmp/obsstore" \
		-flamegraph "$ci_tmp/flame.$pass" -timeline "$ci_tmp/tl.$pass" \
		-trace "$ci_tmp/trace.$pass" >"$ci_tmp/all.$pass"
done
diff "$ci_tmp/all.cold" "$ci_tmp/all.warm"
cmp "$ci_tmp/flame.cold" "$ci_tmp/flame.warm"
cmp "$ci_tmp/tl.cold" "$ci_tmp/tl.warm"
[ -s "$ci_tmp/flame.cold" ] && [ "$(wc -l <"$ci_tmp/tl.cold")" -gt 1 ]
if grep -q 'bbt-translate' "$ci_tmp/trace.cold" "$ci_tmp/trace.warm"; then
	echo "-trace holds a simulated-machine event"
	exit 1
fi
grep -q '"store-hit"' "$ci_tmp/trace.warm"
lap cold-warm-store

# Live-introspection smoke: start a short sweep with -http on an
# ephemeral port, then check /healthz answers and /metrics serves
# terminated OpenMetrics while the sweep runs.
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
lap introspection

# Job-service smoke (docs/api.md): boot -exp serve against a fresh run
# store, go through the whole client lifecycle over live HTTP — submit,
# poll to completion, stream the result — then diff the streamed report
# against the CLI's stdout for the same spec, byte for byte: the
# byte-identity contract, checked end to end on a real server. Unit-test coverage of
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
"$ci_tmp/vmsim" -exp fig2 -scale 500 -apps Word -instrs 200000 >"$ci_tmp/cli.txt" 2>/dev/null
diff "$ci_tmp/job.txt" "$ci_tmp/cli.txt"
curl -fsS "http://$addr/metrics" | grep -q '^codesignvm_jobs_done_total 1'
# SIGTERM must drain gracefully (exit 0), not kill accepted work.
kill -TERM "$serve_pid"
wait "$serve_pid"
lap job-service

rm -rf "$ci_tmp"
printf 'ci legs (wall time):\n%s' "$laps"
