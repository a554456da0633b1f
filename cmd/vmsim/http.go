package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	codesignvm "codesignvm"
)

// Client timeouts of the introspection server. A client that never
// finishes its request header is cut off after readHeaderTimeout and an
// idle keep-alive connection after idleTimeout, so stalled clients
// cannot pin sockets and goroutines. There is deliberately no write
// timeout: /debug/pprof/profile streams for 30 s by default.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// startIntrospection serves the live introspection endpoints on an
// already-bound listener (bound during flag validation so an occupied
// port fails before any simulation starts):
//
//	/metrics       aggregate metrics, OpenMetrics text (Prometheus)
//	/runs          sweep progress and per-run state, JSON
//	/healthz       liveness probe
//	/debug/pprof/  the standard Go profiling endpoints
//	/jobs…         the async job API, in -exp serve mode only
//	               (docs/api.md; submissions need the run store)
//
// The returned stop function shuts the server down gracefully and
// reports any serve or shutdown failure, so a server that died
// mid-sweep (or refused to drain) surfaces as a non-zero exit instead
// of a swallowed goroutine log; the sweep does not wait on it
// otherwise.
func startIntrospection(ln net.Listener, o *codesignvm.Observer) (stop func() error) {
	mux := http.NewServeMux()
	mux.Handle("/", codesignvm.NewIntrospectionHandler(o, map[string]string{
		"exp":   *expFlag,
		"scale": fmt.Sprint(*scaleFlag),
	}))
	if jobsManager != nil {
		codesignvm.NewJobAPI(jobsManager, *jobsRate, *jobsBurst).Register(mux)
	}
	// net/http/pprof registers only on http.DefaultServeMux; mount its
	// handlers explicitly so this private mux serves them too.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	done := make(chan struct{})
	var serveErr error // written before close(done), read after <-done
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr = err
			fmt.Fprintln(os.Stderr, "vmsim: -http:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "vmsim: introspection server on http://%s\n", ln.Addr())
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		shutErr := srv.Shutdown(ctx)
		<-done
		if serveErr != nil {
			return fmt.Errorf("-http: %w", serveErr)
		}
		if shutErr != nil {
			return fmt.Errorf("-http shutdown: %w", shutErr)
		}
		return nil
	}
}
