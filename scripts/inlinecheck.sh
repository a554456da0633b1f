#!/usr/bin/env sh
# Inline-budget gate. The functions below sit on the simulator's hot
# paths and are written to fit the compiler's inlining budget; a change
# that pushes one over it costs a call per micro-op or per dispatch and
# shows up only as unexplained drift in the benchmarks (PR 9 lost 2-4%
# that way). The gate compiles with -gcflags=-m=2 and fails unless each
# is reported "can inline".
#
# Usage: scripts/inlinecheck.sh
set -euf # -f: the function names below contain * and must not glob

cd "$(dirname "$0")/.."

# package<TAB>function as the compiler prints it
want='./internal/vmm	(*VM).charge
./internal/vmm	(*VM).segInterpAt
./internal/vmm	(*VM).sampleIfDue
./internal/x86	(*Memory).lookup
./internal/x86	(*decoder).u8
./internal/x86	FlagsAdd32
./internal/x86	FlagsSub32
./internal/x86	FlagsLogic32
./internal/x86	FlagsInc32
./internal/x86	FlagsDec32
./internal/timing	(*Engine).popLoad
./internal/timing	(*Engine).popBr
./internal/timing	(*Engine).AdvanceClock
./internal/fisa	WriteMerged
./internal/fisa	(*MicroOp).IsLoad
./internal/fisa	(*MicroOp).IsStore
./internal/fisa	(*MicroOp).IsBranch
./internal/fisa	(*MicroOp).HasDst
./internal/fisa	(*MicroOp).MemWidth
./internal/fisa	(*MicroOp).FlagUse
./internal/fisa	(*MicroOp).Sources
./internal/fisa	Op.Latency
./internal/fisa	EncodedLen
./internal/fisa	compactable
./internal/profile	(*Counters).probe
./internal/cache	promote'

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

status=0
for pkg in $(printf '%s\n' "$want" | cut -f1 | sort -u); do
	# -a is not needed: -gcflags is part of the build cache key, and the
	# compiler replays its diagnostics from the cache.
	go build -gcflags=-m=2 "$pkg" 2>"$out" || { cat "$out"; exit 1; }
	for fn in $(printf '%s\n' "$want" | awk -F '\t' -v p="$pkg" '$1 == p {print $2}'); do
		if grep -qF ": can inline $fn with cost" "$out"; then
			continue
		fi
		echo "inlinecheck: $pkg $fn is not inlinable:" >&2
		grep -F "inline $fn" "$out" >&2 || echo "  (no inlining diagnostic: was it renamed?)" >&2
		status=1
	done
done
[ "$status" -eq 0 ] && echo "inlinecheck: $(printf '%s\n' "$want" | wc -l) hot-path functions inlinable"
exit "$status"
