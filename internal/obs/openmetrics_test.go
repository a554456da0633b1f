package obs

import (
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
