package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// get performs one request against the handler and returns status,
// content type and body.
func get(t *testing.T, h *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// openMetricsLine matches every line the exposition format allows:
// comments (# TYPE/# HELP/# EOF) and sample lines
// `name{labels} value` with our numeric value shapes.
var openMetricsLine = regexp.MustCompile(
	`^(# (TYPE|HELP|UNIT) codesignvm_[a-zA-Z0-9_]+ .*` +
		`|# EOF` +
		`|codesignvm_[a-zA-Z0-9_]+(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

// validateOpenMetrics checks every line of an exposition body and the
// terminating # EOF.
func validateOpenMetrics(t *testing.T, body string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) == 0 || lines[len(lines)-1] != "# EOF" {
		t.Fatalf("exposition does not end with # EOF:\n%s", body)
	}
	for i, l := range lines {
		if !openMetricsLine.MatchString(l) {
			t.Fatalf("line %d is not valid OpenMetrics: %q", i+1, l)
		}
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("vm.dispatch.lookups", "lookups").Add(42)
	reg.Gauge("vm.cache.bbt.used", "bytes").Set(1234)
	h := reg.Histogram("vm.xlate.bbt.size", "instrs", []uint64{8, 16})
	h.Observe(5)
	h.Observe(12)
	h.Observe(99)
	var sb strings.Builder
	if err := reg.Snapshot().WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	validateOpenMetrics(t, body)
	for _, want := range []string{
		"# TYPE codesignvm_vm_dispatch_lookups counter",
		"codesignvm_vm_dispatch_lookups_total 42",
		"codesignvm_vm_cache_bbt_used 1234",
		"# TYPE codesignvm_vm_xlate_bbt_size histogram",
		`codesignvm_vm_xlate_bbt_size_bucket{le="8"} 1`,
		`codesignvm_vm_xlate_bbt_size_bucket{le="16"} 2`,
		`codesignvm_vm_xlate_bbt_size_bucket{le="+Inf"} 3`,
		"codesignvm_vm_xlate_bbt_size_count 3",
		"codesignvm_vm_xlate_bbt_size_sum 116",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	o := NewObserver(nil)
	o.EnableTimeline()
	o.Proc.Counter("runs.started", "runs").Add(2)
	o.Proc.Counter("runs.done", "runs").Add(1)
	r := o.NewRun("VM.soft/Word")
	r.Reg.Counter("vm.dispatch.lookups", "lookups").Add(7)
	r.Timeline().Append(TimeSlice{EndCycles: 100, Instrs: 80})
	r.Timeline().Append(TimeSlice{EndCycles: 200, Instrs: 280})

	srv := httptest.NewServer(NewHTTPHandler(o, map[string]string{"exp": "fig2"}))
	defer srv.Close()

	code, ct, body := get(t, srv, "/healthz")
	if code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, ct, body = get(t, srv, "/metrics")
	if code != 200 || ct != OpenMetricsContentType {
		t.Fatalf("/metrics: %d %q", code, ct)
	}
	validateOpenMetrics(t, body)
	for _, want := range []string{
		"codesignvm_runs_started_total 2",
		"codesignvm_vm_dispatch_lookups_total 7",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, ct, body = get(t, srv, "/runs")
	if code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/runs: %d %q", code, ct)
	}
	var st RunsStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/runs is not valid JSON: %v\n%s", err, body)
	}
	if st.Info["exp"] != "fig2" || st.RunsStarted != 2 || st.RunsDone != 1 {
		t.Fatalf("/runs progress wrong: %+v", st)
	}
	if len(st.Runs) != 1 {
		t.Fatalf("/runs has %d runs, want 1", len(st.Runs))
	}
	rs := st.Runs[0]
	// Live state comes from the newest timeline slice (the run-end
	// mirror metrics don't exist yet).
	if rs.Tag != "VM.soft/Word" || rs.Instrs != 280 || rs.Cycles != 200 {
		t.Fatalf("live run state wrong: %+v", rs)
	}
	if rs.IntervalIPC != 2.0 || rs.TimelineSlices != 2 || rs.IPC != 1.4 {
		t.Fatalf("derived run state wrong: %+v", rs)
	}
}

// TestHTTPHandlerNilObserver: the server may start before the sweep
// wires an observer; every endpoint must still answer well-formed.
func TestHTTPHandlerNilObserver(t *testing.T) {
	srv := httptest.NewServer(NewHTTPHandler(nil, nil))
	defer srv.Close()
	code, _, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics on nil observer: %d", code)
	}
	validateOpenMetrics(t, body)
	code, _, body = get(t, srv, "/runs")
	if code != 200 {
		t.Fatalf("/runs on nil observer: %d", code)
	}
	var st RunsStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/runs on nil observer invalid: %v", err)
	}
}

// Ensure the example metric names used above stay representative of the
// real registry names (dots and dashes both map to underscores).
func TestOpenMetricsNameMapping(t *testing.T) {
	for in, want := range map[string]string{
		"vm.run.instrs":  "codesignvm_vm_run_instrs",
		"ring-stalls":    "codesignvm_ring_stalls",
		"store.hits":     "codesignvm_store_hits",
		"weird name/40%": "codesignvm_weird_name_40_",
	} {
		if got := openMetricsName(in); got != want {
			t.Fatalf("openMetricsName(%q) = %q, want %q", in, got, want)
		}
	}
}
