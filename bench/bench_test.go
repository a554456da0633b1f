package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// Run from this directory: `go test` (bench/ is a module of its own, so
// the repository's `go test ./...` does not reach it).

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON: BENCHMARK.json is what `-spec` prints,
// and stays within the limits of its schema.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(benchmarkJSON()), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("BENCHMARK.json differs from `-spec`; regenerate it")
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}
	for _, w := range workloads() {
		check(w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
	}
	if len(perLayer) > 128 || len(committed) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d bytes: over the schema's limits", len(perLayer), len(committed))
	}
}

// lastLine runs the command in this process and decodes its result line.
func lastLine(t *testing.T, args ...string) (map[string]json.RawMessage, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-dir", "."}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("result line: %v\n%s", err, stdout.String())
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
	}
	return keys, res
}

func wantMetrics(t *testing.T, res result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, %d specified", len(res.Metrics), len(specs))
	}
	for _, spec := range specs {
		m, ok := res.Metrics[spec.Name]
		if !ok {
			t.Errorf("%s not emitted", spec.Name)
		} else if m.Unit != spec.Unit {
			t.Errorf("%s: unit %q, specified %q", spec.Name, m.Unit, spec.Unit)
		}
	}
}

// TestWorkloads drives every workload through the command line for a
// short timed run at the golden seed. Two set-ups share one checker, so
// the priming digests must repeat in process as well as equal
// golden.json.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			_, res := lastLine(t, "--workload", w.name, "--seed", "1", "--seconds", "0.3", "--trace", "0",
				"-setups", "2", "-min-ops", "0")
			wantMetrics(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}
}

// TestOtherSeed: a seed without golden values still checks itself.
func TestOtherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	lastLine(t, "--workload", "warm_restore", "--seed", "7", "--seconds", "0.2", "--trace", "0", "-setups", "2", "-min-ops", "0")
}

// TestTraced: the traced run emits exactly the per-layer metrics and a
// trace in which every span's parent exists.
func TestTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	_, res := lastLine(t, "--workload", "startup_cold", "--seed", "1", "--seconds", "1", "--trace", "1")
	wantMetrics(t, res, perLayer)
	events, err := readTrace(filepath.Join("out", "trace.startup_cold.json"))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[float64]bool{}
	secs := map[string]bool{}
	for _, ev := range events {
		ids[ev.Args["id"].(float64)] = true
		secs[ev.Cat] = true
	}
	for _, ev := range events {
		if p := ev.Args["parent"].(float64); p >= 0 && !ids[p] {
			t.Fatalf("span %v (%s) has no parent %v in the trace", ev.Args["id"], ev.Name, p)
		}
		if ev.Args["self_us"].(float64) < -1 {
			t.Errorf("span %v (%s): children cover more than the span", ev.Args["id"], ev.Name)
		}
	}
	for _, w := range workloads() {
		if !secs[w.name] {
			t.Errorf("no spans from a pass of %s", w.name)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x * 1.005, x * 0.995} }
	noisy := func(x float64) []float64 { return []float64{x, x * 1.3, x * 0.7, x * 1.2, x * 0.8} }
	for _, c := range []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(103), "same"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, noisy(100), noisy(105), "unresolved"},
		{lower, noisy(100), steady(50), "better"}, // every run of B beats every run of A
	} {
		if _, got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s %v→%v: %s, want %s", c.spec.Name, median(c.a), median(c.b), got, c.want)
		}
	}
}

// TestBaselinesAgree: the two committed sets of runs of one commit are
// within the benchmark's own bounds of each other.
func TestBaselinesAgree(t *testing.T) {
	var out bytes.Buffer
	worse, err := compareFiles(&out, filepath.Join("baseline", "run1.json"), filepath.Join("baseline", "run2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if worse {
		t.Errorf("baseline/run2.json is worse than run1.json:\n%s", out.String())
	}
}
