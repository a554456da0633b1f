package jobs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"codesignvm/internal/obs"
)

// BenchmarkJobSubmission measures the service's envelope overhead —
// submit, poll to completion, fetch the result over HTTP — with a
// trivial runner, so the number is pure job-machinery cost (queueing,
// state tracking, JSON, routing) with no simulation time in it.
func BenchmarkJobSubmission(b *testing.B) {
	m, err := NewManager(Config{
		Workers:    2,
		QueueDepth: 64,
		Runner: func(ctx context.Context, spec Spec, _ *obs.Observer) (string, error) {
			return "report\n", nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	mux := http.NewServeMux()
	NewAPI(m, 0, 0).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := srv.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(srv.URL+"/jobs", "application/json",
			strings.NewReader(`{"exp":"fig2","force":true}`))
		if err != nil {
			b.Fatal(err)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("POST = %d", resp.StatusCode)
		}
		for {
			sr, err := client.Get(srv.URL + "/jobs/" + st.ID)
			if err != nil {
				b.Fatal(err)
			}
			var cur Status
			if err := json.NewDecoder(sr.Body).Decode(&cur); err != nil {
				b.Fatal(err)
			}
			sr.Body.Close()
			if cur.State >= StateDone {
				break
			}
		}
		rr, err := client.Get(srv.URL + "/jobs/" + st.ID + "/result")
		if err != nil {
			b.Fatal(err)
		}
		rr.Body.Close()
		if rr.StatusCode != http.StatusOK {
			b.Fatalf("result = %d", rr.StatusCode)
		}
	}
}
