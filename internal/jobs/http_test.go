package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"codesignvm/internal/experiments"
)

// newTestServer mounts a fresh API over m on an httptest server.
func newTestServer(t *testing.T, m *Manager, rate, burst float64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	NewAPI(m, rate, burst).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// postSpec submits body (a JSON spec) and returns the decoded status
// plus the raw response for header checks.
func postSpec(t *testing.T, srv *httptest.Server, body string) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp
}

// pollDone polls GET /jobs/{id} until the job reaches a terminal
// state, returning the final status.
func pollDone(t *testing.T, srv *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatalf("GET /jobs/%s: %v", id, err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if st.State >= StateDone {
			return st
		}
		select {
		case <-deadline:
			t.Fatalf("job %s never finished (state %v)", id, st.State)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func getResult(t *testing.T, srv *httptest.Server, id string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String(), resp
}

// TestAPIByteIdentity proves the core contract: the report streamed
// from /jobs/{id}/result is byte-identical to running the same spec
// directly through the experiments registry, each report followed by
// one blank line (which is what the vmsim CLI prints).
func TestAPIByteIdentity(t *testing.T) {
	store := t.TempDir()
	experiments.ResetRunCacheForTest()
	m := newTestManager(t, Config{Workers: 1, Store: store})
	srv := newTestServer(t, m, 0, 0)

	spec := `{"exp":"fig2","scale":800,"apps":["Word"],"instrs":200000}`
	st, resp := postSpec(t, srv, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d, want 201", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q, want /jobs/%s", loc, st.ID)
	}
	final := pollDone(t, srv, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %v (error %q), want done", final.State, final.Error)
	}
	got, resp := getResult(t, srv, st.ID)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("result = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	// The reference: the same dispatch the CLI uses, same store (the
	// simulator is deterministic, so the store only affects speed).
	opt := experiments.Options{
		Scale: 800, Apps: []string{"Word"},
		LongInstrs: 200000, ShortInstrs: 40000,
		Store: store, Ctx: context.Background(),
	}
	txt, err := experiments.RunExperiment("fig2", opt, "")
	if err != nil {
		t.Fatalf("direct RunExperiment(fig2): %v", err)
	}
	if want := txt + "\n"; got != want {
		t.Fatalf("job result differs from direct run:\n--- job (%d bytes)\n%s\n--- direct (%d bytes)\n%s",
			len(got), got, len(want), want)
	}
	if final.ResultBytes != len(got) {
		t.Fatalf("status result_bytes = %d, body = %d", final.ResultBytes, len(got))
	}

	// JSON envelope carries the same report.
	jr, err := http.Get(srv.URL + "/jobs/" + st.ID + "/result?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var rb resultBody
	if err := json.NewDecoder(jr.Body).Decode(&rb); err != nil {
		t.Fatalf("decode json result: %v", err)
	}
	if rb.Report != got || rb.ID != st.ID || rb.State != StateDone {
		t.Fatalf("json result mismatch: id=%q state=%v report %d bytes", rb.ID, rb.State, len(rb.Report))
	}
}

// TestAPIStoreDedupe proves a resubmitted spec re-reads the run store
// instead of re-simulating: after clearing the in-process run cache,
// the second job completes with zero runs started and only store hits,
// and its bytes match the first job's.
func TestAPIStoreDedupe(t *testing.T) {
	store := t.TempDir()
	experiments.ResetRunCacheForTest()
	m := newTestManager(t, Config{Workers: 1, Store: store})
	srv := newTestServer(t, m, 0, 0)

	spec := `{"exp":"fig2","scale":600,"apps":["Word"],"instrs":150000}`
	st1, _ := postSpec(t, srv, spec)
	final1 := pollDone(t, srv, st1.ID)
	if final1.State != StateDone {
		t.Fatalf("first job %v: %s", final1.State, final1.Error)
	}
	if final1.Progress == nil || final1.Progress.RunsStarted == 0 || final1.Progress.StoreMisses == 0 {
		t.Fatalf("first (cold) job progress = %+v, want runs started and store misses", final1.Progress)
	}
	body1, _ := getResult(t, srv, st1.ID)

	// Forget the in-process memoization; only the on-disk store remains.
	experiments.ResetRunCacheForTest()

	st2, resp := postSpec(t, srv, spec)
	if resp.StatusCode != http.StatusCreated || st2.ID == st1.ID {
		t.Fatalf("resubmission after completion: %d id=%s (first %s)", resp.StatusCode, st2.ID, st1.ID)
	}
	final2 := pollDone(t, srv, st2.ID)
	if final2.State != StateDone {
		t.Fatalf("second job %v: %s", final2.State, final2.Error)
	}
	if final2.Progress == nil || final2.Progress.RunsStarted != 0 || final2.Progress.StoreHits == 0 {
		t.Fatalf("second job progress = %+v, want zero runs started and store hits only", final2.Progress)
	}
	body2, _ := getResult(t, srv, st2.ID)
	if body1 != body2 {
		t.Fatalf("store-replayed result differs from simulated result")
	}
}

// TestAPIConcurrentDuplicatesExactlyOnce submits the same spec N times
// concurrently with force=true (defeating job-level dedupe) and proves
// the simulation layer still ran each underlying experiment exactly
// once: the runs-started counters summed across all N jobs equal the
// count from a single cold run, and every result is byte-identical.
func TestAPIConcurrentDuplicatesExactlyOnce(t *testing.T) {
	// Phase 1: learn how many runs one cold execution starts.
	experiments.ResetRunCacheForTest()
	m0 := newTestManager(t, Config{Workers: 1, Store: t.TempDir()})
	srv0 := newTestServer(t, m0, 0, 0)
	spec := `{"exp":"fig2","scale":500,"apps":["Word"],"instrs":100000,"force":true}`
	st0, _ := postSpec(t, srv0, spec)
	cold := pollDone(t, srv0, st0.ID)
	if cold.State != StateDone || cold.Progress == nil || cold.Progress.RunsStarted == 0 {
		t.Fatalf("cold run: %+v", cold)
	}
	unique := cold.Progress.RunsStarted

	// Phase 2: fresh store + cache, N concurrent duplicates.
	experiments.ResetRunCacheForTest()
	m := newTestManager(t, Config{Workers: 4, QueueDepth: 16, Store: t.TempDir()})
	srv := newTestServer(t, m, 0, 0)
	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postSpec(t, srv, spec)
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("concurrent POST %d = %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var totalStarted uint64
	var bodies []string
	for _, id := range ids {
		final := pollDone(t, srv, id)
		if final.State != StateDone {
			t.Fatalf("job %s finished %v: %s", id, final.State, final.Error)
		}
		if final.Progress != nil {
			totalStarted += final.Progress.RunsStarted
		}
		body, _ := getResult(t, srv, id)
		bodies = append(bodies, body)
	}
	if totalStarted != unique {
		t.Fatalf("runs started across %d duplicate jobs = %d, want exactly %d (exactly-once)", n, totalStarted, unique)
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("job %s result differs from job %s", ids[i], ids[0])
		}
	}
}

func TestAPIRateLimit(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 16})
	srv := newTestServer(t, m, 0.01, 2) // 2-request burst, ~no refill
	spec := `{"exp":"table2","force":true}`
	for i := 0; i < 2; i++ {
		if _, resp := postSpec(t, srv, spec); resp.StatusCode != http.StatusCreated {
			t.Fatalf("burst request %d = %d", i, resp.StatusCode)
		}
	}
	_, resp := postSpec(t, srv, spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Reads are never throttled.
	lr, err := http.Get(srv.URL + "/jobs")
	if err != nil || lr.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs while throttled: %v %d", err, lr.StatusCode)
	}
	lr.Body.Close()
}

func TestAPIQueueFull(t *testing.T) {
	r, started, release := blockingRunner()
	defer close(release)
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1, Runner: r})
	srv := newTestServer(t, m, 0, 0)
	spec := `{"exp":"fig2","force":true}`
	if _, resp := postSpec(t, srv, spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first POST = %d", resp.StatusCode)
	}
	<-started // worker busy
	if _, resp := postSpec(t, srv, spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second POST = %d", resp.StatusCode)
	}
	_, resp := postSpec(t, srv, spec)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("queue-full POST = %d Retry-After=%q, want 429 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestAPIIdempotentResubmission(t *testing.T) {
	r, started, release := blockingRunner()
	defer close(release)
	m := newTestManager(t, Config{Workers: 1, Runner: r})
	srv := newTestServer(t, m, 0, 0)
	st1, resp1 := postSpec(t, srv, `{"exp":"fig2"}`)
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("first POST = %d", resp1.StatusCode)
	}
	<-started
	st2, resp2 := postSpec(t, srv, `{"exp":"fig2"}`)
	if resp2.StatusCode != http.StatusOK || st2.ID != st1.ID {
		t.Fatalf("duplicate POST = %d id=%s, want 200 with id %s", resp2.StatusCode, st2.ID, st1.ID)
	}
}

func TestAPICancel(t *testing.T) {
	r, started, release := blockingRunner()
	defer close(release)
	m := newTestManager(t, Config{Workers: 1, Runner: r})
	srv := newTestServer(t, m, 0, 0)
	st, _ := postSpec(t, srv, `{"exp":"fig2"}`)
	<-started

	// Result while running: 202 + Retry-After.
	_, resp := getResult(t, srv, st.ID)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("pending result = %d, want 202 with Retry-After", resp.StatusCode)
	}

	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", dresp.StatusCode)
	}
	final := pollDone(t, srv, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %v", final.State)
	}
	// Cancelled result: 410. Second cancel: 409.
	if _, resp := getResult(t, srv, st.ID); resp.StatusCode != http.StatusGone {
		t.Fatalf("cancelled result = %d, want 410", resp.StatusCode)
	}
	dresp2, err := http.DefaultClient.Do(del.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE = %d, want 409", dresp2.StatusCode)
	}
}

func TestAPIDrain503(t *testing.T) {
	r, started, release := blockingRunner()
	m, err := NewManager(Config{Workers: 1, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, m, 0, 0)
	st, _ := postSpec(t, srv, `{"exp":"fig2"}`)
	<-started
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- m.Drain(ctx)
	}()
	deadline := time.After(5 * time.Second)
	for !m.Draining() {
		select {
		case <-deadline:
			t.Fatal("manager never started draining")
		case <-time.After(time.Millisecond):
		}
	}
	_, resp := postSpec(t, srv, `{"exp":"fig8"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got, resp := getResult(t, srv, st.ID); resp.StatusCode != http.StatusOK || got == "" {
		t.Fatalf("accepted job after drain: %d %q", resp.StatusCode, got)
	}
}

func TestAPIErrors(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := newTestServer(t, m, 0, 0)
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad json", http.MethodPost, "/jobs", "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/jobs", `{"exp":"fig2","nope":1}`, http.StatusBadRequest},
		{"unknown exp", http.MethodPost, "/jobs", `{"exp":"fig99"}`, http.StatusBadRequest},
		{"interactive exp", http.MethodPost, "/jobs", `{"exp":"run"}`, http.StatusBadRequest},
		{"unknown job", http.MethodGet, "/jobs/nope", "", http.StatusNotFound},
		{"unknown job result", http.MethodGet, "/jobs/nope/result", "", http.StatusNotFound},
		{"bad method collection", http.MethodPut, "/jobs", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("error body missing: err=%v body=%+v", err, eb)
			}
		})
	}
}

func TestAPIList(t *testing.T) {
	r, started, release := blockingRunner()
	defer close(release)
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 8, Runner: r})
	srv := newTestServer(t, m, 0, 0)
	for i := 0; i < 3; i++ {
		postSpec(t, srv, fmt.Sprintf(`{"exp":"fig2","scale":%d,"force":true}`, 100+i))
	}
	<-started
	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lb listBody
	if err := json.NewDecoder(resp.Body).Decode(&lb); err != nil {
		t.Fatal(err)
	}
	if lb.Workers != 1 || len(lb.Jobs) != 3 {
		t.Fatalf("list = workers %d, %d jobs; want 1 worker, 3 jobs", lb.Workers, len(lb.Jobs))
	}
	for _, j := range lb.Jobs {
		if j.ID == "" || j.Created == "" {
			t.Fatalf("list entry missing identity: %+v", j)
		}
	}
}
