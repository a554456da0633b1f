package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
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

// vmsim runs the command with args and returns its stderr and exit
// code.
func vmsim(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VMSIM_TEST_MAIN=1")
	var errb strings.Builder
	cmd.Stderr = &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return errb.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return errb.String(), 0
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
		stderr, code := vmsim(t, args...)
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
// front with one line naming the flag — not a divide-by-zero panic
// (-scale 0) or a silent run at another scale (-scale -3).
func TestScaleOutOfRange(t *testing.T) {
	for _, scale := range []string{"0", "-3", "100001"} {
		for _, exp := range []string{"run", "fig2"} {
			stderr, code := vmsim(t, "-exp", exp, "-scale", scale)
			want := "vmsim: -scale must be in [1, 100000], got " + scale + "\n"
			if code != 1 || stderr != want {
				t.Errorf("-exp %s -scale %s: exit %d, stderr %q; want exit 1, %q", exp, scale, code, stderr, want)
			}
		}
	}
}
