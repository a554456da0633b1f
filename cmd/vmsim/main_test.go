package main

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"

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
// exit code.
func vmsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
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
// same spec, byte for byte — the wall-clock lines are on stderr — for a
// single report and for a composite.
func TestStdoutIsJobResult(t *testing.T) {
	m, err := codesignvm.NewJobManager(codesignvm.JobManagerConfig{Workers: 1, Store: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	for _, exp := range []string{"fig2", "all"} {
		stdout, stderr, code := vmsim(t, "-exp", exp, "-scale", "500", "-apps", "Word", "-instrs", "200000")
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
			t.Errorf("-exp %s: stdout (%d bytes) differs from the job result (%d bytes):\n--- stdout\n%s\n--- job\n%s",
				exp, len(stdout), len(report), stdout, report)
		}
	}
}
