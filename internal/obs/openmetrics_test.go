package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestWriteOpenMetricsEmptyRegistry: an empty snapshot is still a
// well-formed exposition — exactly the # EOF terminator, nothing else.
func TestWriteOpenMetricsEmptyRegistry(t *testing.T) {
	var sb strings.Builder
	if err := NewRegistry().Snapshot().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "# EOF\n" {
		t.Fatalf("empty exposition = %q, want exactly \"# EOF\\n\"", sb.String())
	}
}

// TestWriteOpenMetricsZeroObservationHistogram: a registered histogram
// that never observed anything must still expose a complete series —
// all-zero cumulative buckets, an explicit +Inf bucket, zero count and
// sum — not a truncated family.
func TestWriteOpenMetricsZeroObservationHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("vm.xlate.bbt.size", "instrs", []uint64{8, 16})
	var sb strings.Builder
	if err := reg.Snapshot().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	validateOpenMetrics(t, body)
	for _, want := range []string{
		"# TYPE codesignvm_vm_xlate_bbt_size histogram",
		`codesignvm_vm_xlate_bbt_size_bucket{le="8"} 0`,
		`codesignvm_vm_xlate_bbt_size_bucket{le="16"} 0`,
		`codesignvm_vm_xlate_bbt_size_bucket{le="+Inf"} 0`,
		"codesignvm_vm_xlate_bbt_size_count 0",
		"codesignvm_vm_xlate_bbt_size_sum 0",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestLabelEscaping pins the Label helper's exposition escaping:
// backslash, double quote and newline are the three characters the
// OpenMetrics text format requires escaped inside label values.
func TestLabelEscaping(t *testing.T) {
	for _, tc := range []struct{ k, v, want string }{
		{"category", "bbt-exec", `category="bbt-exec"`},
		{"path", `a\b`, `path="a\\b"`},
		{"msg", `say "hi"`, `msg="say \"hi\""`},
		{"nl", "a\nb", `nl="a\nb"`},
		{"all", "\\\"\n", `all="\\\"\n"`},
	} {
		if got := Label(tc.k, tc.v); got != tc.want {
			t.Errorf("Label(%q, %q) = %q, want %q", tc.k, tc.v, got, tc.want)
		}
	}
}

// TestWriteOpenMetricsLabeledFamily: members of one labeled counter
// family share a single TYPE/HELP block, render sorted by label
// string, and pass escaped label values through verbatim.
func TestWriteOpenMetricsLabeledFamily(t *testing.T) {
	reg := NewRegistry()
	reg.CounterL("cycles", "cycles", Label("category", "interpret")).Add(3)
	reg.CounterL("cycles", "cycles", Label("category", "bbt-exec")).Add(5)
	reg.CounterL("cycles", "cycles", Label("category", `odd"name`)).Add(7)
	var sb strings.Builder
	if err := reg.Snapshot().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	validateOpenMetrics(t, body)
	if n := strings.Count(body, "# TYPE codesignvm_cycles counter"); n != 1 {
		t.Fatalf("labeled family has %d TYPE lines, want 1:\n%s", n, body)
	}
	for _, want := range []string{
		`codesignvm_cycles_total{category="bbt-exec"} 5`,
		`codesignvm_cycles_total{category="interpret"} 3`,
		`codesignvm_cycles_total{category="odd\"name"} 7`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// Sorted by label string: bbt-exec before interpret before odd".
	if strings.Index(body, `category="bbt-exec"`) > strings.Index(body, `category="interpret"`) {
		t.Errorf("labeled members not sorted:\n%s", body)
	}
}

// TestGoldenJSONLEventSchema pins the JSONL event wire format — field
// names, field order, kind names and per-kind payload labels — one
// golden line per event kind. Any change here is a consumer-visible
// schema change: renaming a field or kind must be deliberate (and
// documented in OBSERVABILITY.md), never a refactoring accident.
func TestGoldenJSONLEventSchema(t *testing.T) {
	golden := []string{
		`{"seq":1,"t":0,"ev":"run-start","tag":"VM.soft/Word","budget":1}`,
		`{"seq":2,"t":0,"ev":"run-end","tag":"VM.soft/Word","instrs":1,"cycles":2}`,
		`{"seq":3,"t":0,"ev":"bbt-translate","tag":"VM.soft/Word","pc":4198400,"x86":1,"uops":2,"bytes":3}`,
		`{"seq":4,"t":0,"ev":"sbt-promote","tag":"VM.soft/Word","pc":4198400,"x86":1,"uops":2,"bytes":3}`,
		`{"seq":5,"t":0,"ev":"chain","tag":"VM.soft/Word","pc":4198400,"from":1,"to":2}`,
		`{"seq":6,"t":0,"ev":"unchain","tag":"VM.soft/Word","pc":4198400,"epoch":1}`,
		`{"seq":7,"t":0,"ev":"cache-flush","tag":"VM.soft/Word","cache":1,"epoch":2,"flushes":3}`,
		`{"seq":8,"t":0,"ev":"shadow-evict","tag":"VM.soft/Word","pc":4198400,"resident":1}`,
		`{"seq":9,"t":0,"ev":"jtlb-epoch","tag":"VM.soft/Word","hits":1,"misses":2}`,
		`{"seq":10,"t":0,"ev":"store-hit","tag":"VM.soft/Word"}`,
		`{"seq":11,"t":0,"ev":"store-miss","tag":"VM.soft/Word"}`,
		`{"seq":12,"t":0,"ev":"store-corrupt","tag":"VM.soft/Word","bytes":1}`,
		`{"seq":13,"t":0,"ev":"store-steal","tag":"VM.soft/Word","stale_ns":1}`,
		`{"seq":14,"t":0,"ev":"store-gc","tag":"VM.soft/Word","debris":1,"evicted":2}`,
		`{"seq":15,"t":0,"ev":"restore","tag":"VM.soft/Word","entries":1,"preloaded":2,"x86":3}`,
		`{"seq":16,"t":0,"ev":"restore-fault","tag":"VM.soft/Word","pc":4198400,"x86":1,"bytes":2}`,
		`{"seq":17,"t":0,"ev":"job-submit","tag":"VM.soft/Word","queued":1}`,
		`{"seq":18,"t":0,"ev":"job-start","tag":"VM.soft/Word","queued":1}`,
		`{"seq":19,"t":0,"ev":"job-done","tag":"VM.soft/Word","state":1,"bytes":2,"wall_ns":3}`,
		`{"seq":20,"t":0,"ev":"job-reject","tag":"VM.soft/Word","reason":1}`,
		`{"seq":21,"t":0,"ev":"job-cancel","tag":"VM.soft/Word","state":1}`,
	}
	if int(NumEventKinds) != len(golden) {
		t.Fatalf("event kinds = %d, golden lines = %d — new kinds need a golden line here", NumEventKinds, len(golden))
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := NewObserver(sink)
	for k := EventKind(0); k < NumEventKinds; k++ {
		o.Emit(k, "VM.soft/Word", 0x401000, 1, 2, 3)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(golden) {
		t.Fatalf("emitted %d lines, want %d:\n%s", len(lines), len(golden), buf.String())
	}
	for i, want := range golden {
		if lines[i] != want {
			t.Errorf("kind %d wire format changed\n got: %s\nwant: %s", i, lines[i], want)
		}
	}
	_ = fmt.Sprint() // keep fmt for future debugging edits
}
