package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateReports = flag.Bool("update-reports", false,
	"rewrite testdata/reports.sha256 from the harnesses under test")

const reportsFile = "testdata/reports.sha256"

// TestReportDigests pins every named report experiment to the SHA-256
// of the text RunExperiment renders at detOpt, recorded in
// testdata/reports.sha256. It is the
// standing contract of every host-side change: a speed-up, a
// deletion or a refactoring must leave each report byte-identical. The
// in-process caches are cleared before every harness, so each one
// simulates for itself and rebuilds its own warm-start snapshots (cold
// producer run → Cache.Save → ParseSnapshot → restore): the digests
// cover that whole chain, not a cached copy of it. A mismatch means a
// simulated number moved; regenerate (-update-reports) only when that
// is the intent.
func TestReportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	var lines []string
	got := map[string]string{}
	texts := map[string]string{}
	names := ExperimentNames()
	for _, name := range names {
		ResetRunCacheForTest()
		txt, err := RunExperiment(name, detOpt(), "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(txt))
		got[name] = hex.EncodeToString(sum[:])
		texts[name] = txt
		lines = append(lines, got[name]+"  "+name)
	}
	if *updateReports {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportsFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d reports", reportsFile, len(lines))
		return
	}
	raw, err := os.ReadFile(reportsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var sum, name string
		if _, err := fmt.Sscan(line, &sum, &name); err != nil {
			t.Fatalf("%s: malformed line %q", reportsFile, line)
		}
		want[name] = sum
	}
	if len(want) != len(names) {
		t.Errorf("%s pins %d reports, the suite renders %d", reportsFile, len(want), len(names))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s report digest = %s, want %s\n%s", name, got[name], want[name], texts[name])
		}
	}
}
