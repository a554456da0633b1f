package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	codesignvm "codesignvm"
)

// TestMain lets a test re-run this binary as vmsim itself: with
// VMSIM_TEST_MAIN set, the process parses the given flags and runs
// main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("VMSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// vmsim runs the command with args and returns its stdout, stderr and
// exit code. A run that has not exited after two minutes is killed, so
// a mode that starts serving by mistake fails instead of hanging.
func vmsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VMSIM_TEST_MAIN=1")
	var outb, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &outb, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return outb.String(), errb.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return outb.String(), errb.String(), 0
}

// TestPositionalArgument: flag parsing stops at the first non-flag, so
// an argument would silently drop every flag after it (here -trace, and
// -metrics' retired "table" value). vmsim fails with one line instead,
// and writes nothing.
func TestPositionalArgument(t *testing.T) {
	trace := t.TempDir() + "/t.json"
	for _, args := range [][]string{
		{"-exp", "table2", "-metrics", "table", "-trace", trace},
		{"-exp", "table2", "table1", "-trace", trace},
	} {
		_, stderr, code := vmsim(t, args...)
		want := "vmsim: unexpected argument \"" + args[len(args)-3] + "\": vmsim takes flags only, and ignores every flag after an argument\n"
		if code != 1 || stderr != want {
			t.Errorf("%q: exit %d, stderr %q; want exit 1, %q", args, code, stderr, want)
		}
		if _, err := os.Stat(trace); !os.IsNotExist(err) {
			t.Errorf("%q: wrote %s", args, trace)
		}
	}
}

// TestScaleOutOfRange: a -scale outside the job spec's range fails up
// front with one line — not a divide-by-zero panic (-scale 0, which a
// spec would read as the default) or a silent run at another scale
// (-scale -3).
func TestScaleOutOfRange(t *testing.T) {
	for _, scale := range []string{"0", "-3", "100001"} {
		for _, exp := range []string{"run", "fig2"} {
			_, stderr, code := vmsim(t, "-exp", exp, "-scale", scale)
			want := "vmsim: spec: scale " + scale + " out of range [1, 100000]\n"
			if scale == "0" {
				want = "vmsim: -scale must be at least 1, got 0\n"
			}
			if code != 1 || stderr != want {
				t.Errorf("-exp %s -scale %s: exit %d, stderr %q; want exit 1, %q", exp, scale, code, stderr, want)
			}
		}
	}
}

// TestBadSpecFailsBeforeOutput: the spec is validated before any
// report renders or any output file is created, so a bad app late in
// -apps cannot print the reports that do not use it first.
func TestBadSpecFailsBeforeOutput(t *testing.T) {
	trace := t.TempDir() + "/t.json"
	for _, args := range [][]string{
		{"-exp", "all", "-apps", "Word,Nope", "-scale", "500"},
		{"-exp", "fig99"},
		{"-exp", "pressure", "-app", "Nope", "-scale", "500"},
		{"-exp", "fig2", "-instrs", "500000001"},
	} {
		stdout, stderr, code := vmsim(t, append(args, "-trace", trace)...)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "vmsim: spec: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 1, no stdout, one \"vmsim: spec:\" line", args, code, stdout, stderr)
		}
		if _, err := os.Stat(trace); !os.IsNotExist(err) {
			t.Errorf("%q: wrote %s", args, trace)
		}
	}
}

// TestStdoutIsJobResult: vmsim's stdout is the result of a job with the
// same spec, byte for byte — the wall-clock lines and the -metrics
// table are on stderr — for a single report, for a composite, and with
// every observability output on.
func TestStdoutIsJobResult(t *testing.T) {
	m, err := codesignvm.NewJobManager(codesignvm.JobManagerConfig{Workers: 1, Store: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	dir := t.TempDir()
	for _, c := range []struct {
		exp string
		obs []string
	}{
		{"fig2", nil},
		{"all", nil},
		{"fig2", []string{"-metrics", "-trace", dir + "/F", "-timeline", dir + "/T", "-flamegraph", dir + "/G"}},
	} {
		exp := c.exp
		args := append([]string{"-exp", exp, "-scale", "500", "-apps", "Word", "-instrs", "200000"}, c.obs...)
		stdout, stderr, code := vmsim(t, args...)
		if code != 0 {
			t.Fatalf("-exp %s: exit %d, stderr %q", exp, code, stderr)
		}
		if !strings.Contains(stderr, " completed in ") {
			t.Errorf("-exp %s: no completion line on stderr %q", exp, stderr)
		}
		j, _, err := m.Submit(codesignvm.JobSpec{Exp: exp, Scale: 500, Apps: []string{"Word"}, Instrs: 200000})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		report, errText, state := j.Result()
		if errText != "" {
			t.Fatalf("job %s ended %v: %s", exp, state, errText)
		}
		if stdout != report {
			t.Errorf("%q: stdout (%d bytes) differs from the job result (%d bytes):\n--- stdout\n%s\n--- job\n%s",
				args, len(stdout), len(report), stdout, report)
		}
	}
}

// TestUnusedFlagFails: a flag set in a mode that ignores it fails with
// one line before any output file is created, instead of reading as if
// it took effect.
func TestUnusedFlagFails(t *testing.T) {
	dir := t.TempDir()
	trace := dir + "/t.json"
	serve := []string{"-exp", "serve", "-http", "127.0.0.1:0", "-store", dir + "/store"}
	for _, c := range []struct {
		args []string
		want string
	}{
		{append(serve, "-scale", "-3", "-apps", "Nope"), "-apps does nothing with -exp serve: each job brings its own spec"},
		{append(serve, "-app", "Word"), "-app does nothing with -exp serve: each job brings its own spec"},
		{append(serve, "-instrs", "1000"), "-instrs does nothing with -exp serve: each job brings its own spec"},
		{append(serve, "-scale", "25"), "-scale does nothing with -exp serve: each job brings its own spec"},
		{[]string{"-exp", "run", "-apps", "Excel", "-scale", "500"}, "-apps does nothing with -exp run: it simulates the one app -app names"},
		{[]string{"-exp", "dump", "-apps", "Excel", "-scale", "500"}, "-apps does nothing with -exp dump: it simulates the one app -app names"},
		{[]string{"-exp", "fig2", "-app", "Excel", "-scale", "500"}, "-app applies only to -exp run, dump, pressure, ctxswitch, deltasweep and all"},
		{[]string{"-exp", "sweep", "-app", "Excel", "-scale", "500"}, "-app applies only to -exp run, dump, pressure, ctxswitch, deltasweep and all"},
		{[]string{"-exp", "dump", "-flamegraph", dir + "/G", "-scale", "500"}, "-flamegraph writes nothing with -exp dump: its VM runs unobserved"},
		{[]string{"-exp", "dump", "-timeline", dir + "/T", "-scale", "500"}, "-timeline writes nothing with -exp dump: its VM runs unobserved"},
		{append(serve, "-flamegraph", dir+"/G"), "-flamegraph writes nothing with -exp serve: each job runs under an observer of its own"},
		{append(serve, "-timeline", dir+"/T"), "-timeline writes nothing with -exp serve: each job runs under an observer of its own"},
		{[]string{"-exp", "fig2", "-model", "VM.be"}, "-model applies only to -exp run and dump"},
		{[]string{"-exp", "dump", "-warm-cache", "lazy"}, "-warm-cache applies only to -exp run"},
		{[]string{"-exp", "run", "-jobs-workers", "4"}, "-jobs-workers applies only to -exp serve"},
		{[]string{"-exp", "fig2", "-drain-timeout", "1s"}, "-drain-timeout applies only to -exp serve"},
	} {
		stdout, stderr, code := vmsim(t, append(c.args, "-trace", trace)...)
		if want := "vmsim: " + c.want + "\n"; code != 1 || stdout != "" || stderr != want {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 1, no stdout, %q", c.args, code, stdout, stderr, want)
		}
		for _, out := range []string{trace, dir + "/G", dir + "/T"} {
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("%q: wrote %s", c.args, out)
			}
		}
	}
}

// TestTraceIsHostView: -trace holds host time only. A cold pass over an
// empty store traces one run span per simulation it started; a warm
// pass over the same store starts none and traces its store hits, at
// their real times. Neither trace holds a simulated-machine event.
func TestTraceIsHostView(t *testing.T) {
	dir := t.TempDir()
	simulated := map[string]bool{"bbt-translate": true, "sbt-promote": true, "chain": true, "unchain": true,
		"cache-flush": true, "shadow-evict": true, "jtlb": true, "jtlb-epoch": true, "restore": true, "restore-fault": true}
	started := regexp.MustCompile(`(?m)^runs\.started +(\d+) `)
	for _, pass := range []string{"cold", "warm"} {
		trace := dir + "/" + pass + ".json"
		_, stderr, code := vmsim(t, "-exp", "fig2", "-scale", "500", "-apps", "Word", "-store", dir+"/store", "-trace", trace, "-metrics")
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", pass, code, stderr)
		}
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Ts   float64 `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", pass, err)
		}
		runs, hits := 0, 0
		for _, e := range doc.TraceEvents {
			switch {
			case simulated[e.Name]:
				t.Fatalf("%s: simulated-machine event %q in the trace", pass, e.Name)
			case e.Name == "run" && e.Ph == "B":
				runs++
			case e.Name == "store-hit":
				hits++
				if e.Ts <= 0 {
					t.Errorf("%s: store-hit at ts %v, not host time", pass, e.Ts)
				}
			}
		}
		want := 0
		if m := started.FindStringSubmatch(stderr); m != nil {
			want, _ = strconv.Atoi(m[1])
		}
		if pass == "cold" && (runs == 0 || runs != want) {
			t.Errorf("cold: %d run spans, %d runs started (stderr %q)", runs, want, stderr)
		}
		if pass == "warm" && (runs != 0 || hits == 0) {
			t.Errorf("warm: %d run spans and %d store hits; want none and some", runs, hits)
		}
	}
}
