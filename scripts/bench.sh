#!/usr/bin/env sh
# Tier-1 micro-benchmark snapshot: runs the hot-path benchmarks the CI
# smoke-tests at 1x (end-to-end Fig. 2, the warm-start sweep, BBT
# translation, the dispatch loop, the observability modes, the
# job-service submission envelope, and the cold-path layers: x86
# decode, crack, timing analysis, interpreter step) at real benchtime,
# and records the
# results as BENCH_PR<N>.json (schema bench.v1, with host metadata) via
# scripts/benchjson. <N> defaults to one past the newest committed
# snapshot, so each PR's run lands in a fresh file; committed snapshots
# are history and the script refuses to overwrite them. Compare
# snapshots with `benchjson -diff` or render the whole series with
# `benchjson -trend`; scripts/ci.sh validates the committed files.
#
# Usage: scripts/bench.sh [output.json]
set -eu

cd "$(dirname "$0")/.."

out="${1:-}"
if [ -z "$out" ]; then
	last=0
	for f in BENCH_PR*.json; do
		[ -e "$f" ] || continue
		n="${f#BENCH_PR}"
		n="${n%.json}"
		case "$n" in
		'' | *[!0-9]*) continue ;;
		esac
		[ "$n" -gt "$last" ] && last="$n"
	done
	out="BENCH_PR$((last + 1)).json"
fi
if git ls-files --error-unmatch "$out" >/dev/null 2>&1; then
	echo "bench.sh: $out is a committed snapshot (history); pick a new output name" >&2
	exit 1
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

{
	go test -run '^$' -bench 'Fig2|WarmSweep' -benchmem -benchtime 2x -count 1 .
	go test -run '^$' -bench 'DispatchHot|ObsModes' -benchmem -benchtime 200ms -count 1 ./internal/vmm/
	go test -run '^$' -bench 'BBTTranslate' -benchmem -benchtime 200ms -count 1 ./internal/bbt/
	go test -run '^$' -bench 'Decode|Crack|Analyze|InterpStep' -benchmem -benchtime 200ms -count 1 \
		./internal/x86/ ./internal/crack/ ./internal/timing/ ./internal/interp/
	go test -run '^$' -bench 'JobSubmission' -benchmem -benchtime 200ms -count 1 ./internal/jobs/
} | tee "$tmp"

# Distributed-sweep scaling curve: wall-clock the cold scale-25 sweep at
# worker counts 1/2/4/8, each against a fresh store, and record the
# timings as synthetic one-iteration benchmark lines so the snapshot
# (and benchjson -trend) carries the curve alongside the micro-benches.
# On a single-core host this measures coordination overhead, not
# speedup — see EXPERIMENTS.md "PR 10".
bench_tmp="$(mktemp -d)"
go build -o "$bench_tmp/vmsim" ./cmd/vmsim
for n in 1 2 4 8; do
	mkdir -p "$bench_tmp/store$n"
	start_ns="$(date +%s%N)"
	"$bench_tmp/vmsim" -exp sweep -scale 25 -workers "$n" \
		-store "$bench_tmp/store$n" >/dev/null 2>&1
	end_ns="$(date +%s%N)"
	printf 'BenchmarkDistSweep/workers=%d 1 %d ns/op\n' \
		"$n" "$((end_ns - start_ns))" | tee -a "$tmp"
done
rm -rf "$bench_tmp"

go run ./scripts/benchjson < "$tmp" > "$out"
go run ./scripts/benchjson -check "$out"
echo "wrote $out"
