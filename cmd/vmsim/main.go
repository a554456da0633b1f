// Command vmsim drives the co-designed VM simulator: it runs individual
// machine/benchmark combinations or regenerates any table/figure of the
// paper's evaluation.
//
// Usage:
//
//	vmsim -exp fig8                      # startup curves with HW assists
//	vmsim -exp fig9 -scale 25            # per-benchmark breakeven points
//	vmsim -exp all                       # every experiment, in order
//	vmsim -exp run -model VM.be -app Word -instrs 20000000
//
// -exp names a report experiment, a composite or a mode. "sweep" runs
// the paper's figures (2, 3, 8–11) in one process so they share
// simulation results; "all" runs every report, the extension
// experiments included; "run", "dump" and "serve" are the modes. An
// unknown name fails with the list of report names.
//
// Reports go to stdout, each followed by one blank line: the stream is
// byte-identical to a job's result for the same spec (docs/api.md).
// The wall-clock "[exp completed in …]" line after each report and the
// -metrics table go to stderr.
//
// A flag that does nothing in the chosen mode fails with one line: a
// spec flag (-apps, -app, -scale, -instrs) under serve, -apps under run
// and dump (they simulate the one app -app names), -app outside run,
// dump, the app-scoped reports (pressure, ctxswitch, deltasweep) and
// all, -flamegraph and -timeline under dump and serve (nothing they
// write is observed), -model outside run and dump, -warm-cache outside
// run, and the -jobs-* flags and -drain-timeout outside serve.
//
// Cycle attribution (see OBSERVABILITY.md):
//
//	vmsim -exp phases                    # startup decomposed by category
//	vmsim -exp run -flamegraph out.folded
//	vmsim -exp phases -flamegraph out.folded
//
// Warm start (persistent translation caches; see DESIGN.md §10):
//
//	vmsim -exp warmstart                 # cold vs lazy/hybrid/eager figure
//	vmsim -exp run -warm-cache lazy      # single-run warm-vs-cold A/B
//
// Observability (see OBSERVABILITY.md):
//
//	vmsim -exp fig2 -metrics                 # aggregate metric table (stderr)
//	vmsim -exp fig2 -trace run.trace.json    # host-time Chrome trace (Perfetto)
//	vmsim -exp fig2 -timeline tl.csv         # interval-sampled timelines
//	vmsim -exp sweep -http 127.0.0.1:890     # live introspection server
//
// Job service (async sweep-as-a-service API; see docs/api.md):
//
//	vmsim -exp serve -http :8080 -store /var/lib/vmsim/store
//	curl -d '{"exp":"fig2","scale":200}' http://localhost:8080/jobs
//
// Host-side profiling (see README.md):
//
//	vmsim -exp sweep -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"syscall"
	"time"

	codesignvm "codesignvm"
)

var (
	expFlag    = flag.String("exp", "fig8", "a report experiment, sweep (the paper's figures), all (every report), or the mode run, dump or serve; an unknown name lists the reports")
	scaleFlag  = flag.Int("scale", 25, "workload scale divisor (1 = paper-sized)")
	appsFlag   = flag.String("apps", "", "comma-separated subset of benchmarks (default: all ten)")
	modelFlag  = flag.String("model", "VM.soft", "machine model for -exp run")
	appFlag    = flag.String("app", "Word", "benchmark for -exp run and dump and the app-scoped reports (pressure, ctxswitch, deltasweep)")
	instrsFlag = flag.Uint64("instrs", 0, "instruction budget, at most 500M (default 500M/scale)")
	freshFlag  = flag.Bool("fresh", false, "disable the simulation-result caches (in-process memoization and -store reads)")
	storeFlag  = flag.String("store", "", "directory for the persistent cross-process run store (empty: disabled; see docs/runstore.md)")
	storeMax   = flag.Int64("store-max", 0, "cap on total -store record bytes; least-recently-used records are evicted at startup (0: uncapped)")
	warmFlag   = flag.String("warm-cache", "off", "warm-start restore policy for -exp run: off lazy hybrid eager (runs a cold pass first, snapshots its translations, then A/Bs the warm restore)")

	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	gotraceFile = flag.String("gotrace", "", "write a Go runtime execution trace to this file")

	metricsFlag  = flag.Bool("metrics", false, "print a table of aggregate observability metrics to stderr on exit (/metrics on -http is the machine-readable form)")
	traceFlag    = flag.String("trace", "", "write where this process spent its wall time — each run's and job's span, run-store and job events — as Chrome trace-event JSON to this file (view in Perfetto)")
	timelineFlag = flag.String("timeline", "", "write the startup timelines of every run the reports consumed to this CSV file on exit; enables timeline sampling on all runs (not with -exp dump or serve)")
	flameFlag    = flag.String("flamegraph", "", "write a collapsed-stack cycle-attribution profile (category;region count) merged over every run the reports consumed to this file on exit; enables attribution on all runs (not with -exp dump or serve)")
	httpFlag     = flag.String("http", "", "serve live introspection on this address (/metrics /runs /healthz /debug/pprof; -exp serve adds /jobs)")

	jobsWorkers  = flag.Int("jobs-workers", 2, "worker-pool size of the -exp serve job service")
	jobsQueue    = flag.Int("jobs-queue", 16, "bounded queue depth of the job service (full queue: 429 + Retry-After)")
	jobsRate     = flag.Float64("jobs-rate", 5, "per-client job submissions per second (0: unlimited)")
	jobsBurst    = flag.Float64("jobs-burst", 10, "per-client submission burst size")
	drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, how long -exp serve waits for accepted jobs before cancelling them")
)

// spec is the request the -exp, -apps, -app, -scale and -instrs flags
// describe, as Validate returned it: the reports render it through the
// job path, and run and dump read the same fields.
var spec codesignvm.JobSpec

// obsv is the process observer, non-nil when any observability flag is
// set. All experiment and single runs report into it.
var obsv *codesignvm.Observer

// jobsManager is the async job service, non-nil in -exp serve mode
// (created in setupObservability so the /jobs endpoints are mounted
// when the introspection server starts).
var jobsManager *codesignvm.JobManager

// runCtx cancels the experiment grid (task pickup and store lock
// waits) on SIGINT/SIGTERM, so an interrupted sweep exits promptly and
// releases its store locks instead of dying mid-heartbeat.
var runCtx = context.Background()

func main() {
	flag.Parse()
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	runCtx = ctx
	stop, err := startProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmsim:", err)
		os.Exit(1)
	}
	finish, err := setupObservability()
	if err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "vmsim:", err)
		os.Exit(1)
	}
	err = run()
	if ferr := finish(); err == nil {
		err = ferr
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmsim:", err)
		os.Exit(1)
	}
}

// validateFlags checks the flag set up front, so a bad value or
// combination fails with one clear line before any output file is
// created or any simulation starts, never mid-sweep. The spec fields
// are checked by JobSpec.Validate, the job service's validator; this
// function checks only what is about the flags themselves. Output
// files are created here (catching unwritable paths), and the -http
// listener is bound here (catching occupied ports).
func validateFlags() (files map[string]*os.File, ln net.Listener, err error) {
	fail := func(format string, args ...any) (map[string]*os.File, net.Listener, error) {
		for _, f := range files {
			f.Close()
		}
		if ln != nil {
			ln.Close()
		}
		return nil, nil, fmt.Errorf(format, args...)
	}
	// Flag parsing stops at the first non-flag argument: every flag
	// after it would be dropped without a word.
	if flag.NArg() > 0 {
		return fail("unexpected argument %q: vmsim takes flags only, and ignores every flag after an argument", flag.Arg(0))
	}
	if msg := unusedFlag(*expFlag); msg != "" {
		return fail("%s", msg)
	}
	// A spec's scale 0 means the default; a flag is never absent, so
	// -scale 0 is a divisor of zero, not a request for the default.
	if *scaleFlag == 0 {
		return fail("-scale must be at least 1, got 0")
	}
	spec = codesignvm.JobSpec{Exp: *expFlag, App: *appFlag, Scale: *scaleFlag, Instrs: *instrsFlag}
	if *appsFlag != "" {
		spec.Apps = strings.Split(*appsFlag, ",")
	}
	if *expFlag != "serve" {
		if spec, err = spec.Validate(); err != nil {
			return fail("%v", err)
		}
	}
	// The job service needs both a front door and the run store: jobs
	// execute through the store for exactly-once simulation and
	// duplicate-spec dedupe, so a missing -store must fail here with
	// one line, not as a 500 at submit time. (Plain -http without
	// -exp serve stays introspection-only and needs no store.)
	if *expFlag == "serve" {
		if *httpFlag == "" || *storeFlag == "" {
			return fail("-exp serve requires both -http ADDR and -store DIR (jobs execute through the run store; see docs/api.md)")
		}
		if *freshFlag {
			return fail("-exp serve is incompatible with -fresh: bypassing store reads would break the job service's exactly-once dedupe")
		}
		if *jobsWorkers < 1 {
			return fail("-jobs-workers must be at least 1, got %d", *jobsWorkers)
		}
		if *jobsQueue < 1 {
			return fail("-jobs-queue must be at least 1, got %d", *jobsQueue)
		}
	}
	files = map[string]*os.File{}
	for _, out := range []struct{ flag, path string }{
		{"-trace", *traceFlag}, {"-timeline", *timelineFlag}, {"-flamegraph", *flameFlag},
	} {
		if out.path == "" {
			continue
		}
		f, cerr := os.Create(out.path)
		if cerr != nil {
			return fail("%s: %v", out.flag, cerr)
		}
		files[out.flag] = f
	}
	if *httpFlag != "" {
		ln, err = net.Listen("tcp", *httpFlag)
		if err != nil {
			return fail("-http %s: %v", *httpFlag, err)
		}
	}
	return files, ln, nil
}

// unusedFlag describes the first flag set on the command line that
// does nothing under -exp exp, or returns "" when every set flag
// applies: a flag that is silently ignored reads as if it took effect.
func unusedFlag(exp string) (msg string) {
	flag.Visit(func(f *flag.Flag) {
		name := f.Name
		switch {
		case msg != "":
		case exp == "serve" && (name == "apps" || name == "app" || name == "instrs" || name == "scale"):
			msg = "-" + name + " does nothing with -exp serve: each job brings its own spec"
		case name == "apps" && (exp == "run" || exp == "dump"):
			msg = "-apps does nothing with -exp " + exp + ": it simulates the one app -app names"
		case name == "app" && exp != "run" && exp != "dump" && exp != "pressure" && exp != "ctxswitch" && exp != "deltasweep" && exp != "all":
			msg = "-app applies only to -exp run, dump, pressure, ctxswitch, deltasweep and all"
		case (name == "flamegraph" || name == "timeline") && exp == "dump":
			msg = "-" + name + " writes nothing with -exp dump: its VM runs unobserved"
		case (name == "flamegraph" || name == "timeline") && exp == "serve":
			msg = "-" + name + " writes nothing with -exp serve: each job runs under an observer of its own"
		case name == "model" && exp != "run" && exp != "dump":
			msg = "-model applies only to -exp run and dump"
		case name == "warm-cache" && exp != "run":
			msg = "-warm-cache applies only to -exp run"
		case (strings.HasPrefix(name, "jobs-") || name == "drain-timeout") && exp != "serve":
			msg = "-" + name + " applies only to -exp serve"
		}
	})
	return msg
}

// setupObservability builds the process observer from the -metrics,
// -trace, -timeline, -flamegraph and -http flags. The returned finish
// function prints the aggregate metrics, flushes the trace and writes
// the timeline and flamegraph exports; it must run after the
// experiments complete.
func setupObservability() (finish func() error, err error) {
	files, ln, err := validateFlags()
	if err != nil {
		return nil, err
	}
	if !*metricsFlag && len(files) == 0 && ln == nil {
		return func() error { return nil }, nil
	}

	var sink codesignvm.EventSink
	var tracer *codesignvm.TraceSink
	if f := files["-trace"]; f != nil {
		tracer = codesignvm.NewTraceSink(f)
		sink = tracer
	}
	obsv = codesignvm.NewObserver(sink)
	if *flameFlag != "" {
		// Attribution milestones follow the effective instruction budget,
		// matching the withDefaults derivation.
		obsv.EnableAttrib(codesignvm.DefaultAttribSpec(longBudget()))
	}
	if *timelineFlag != "" {
		obsv.EnableTimeline()
	}
	if *expFlag == "serve" {
		// The manager must exist before the server starts so the /jobs
		// endpoints are live from the first request. Jobs derive from
		// Background, not the signal context: SIGTERM triggers a
		// graceful drain (serveJobs), not an instant cancellation.
		jobsManager, err = codesignvm.NewJobManager(codesignvm.JobManagerConfig{
			Workers:       *jobsWorkers,
			QueueDepth:    *jobsQueue,
			Store:         *storeFlag,
			StoreMaxBytes: *storeMax,
			Obs:           obsv,
		})
		if err != nil {
			return nil, err
		}
	}
	stopHTTP := func() error { return nil }
	if ln != nil {
		stopHTTP = startIntrospection(ln, obsv)
	}
	return func() error {
		// FullSnapshot: the per-run aggregate plus the process-level
		// registry (runs.*, store.* health), matching /metrics. On
		// stderr: stdout is the job result.
		if *metricsFlag {
			fmt.Fprintf(os.Stderr, "observability metrics (aggregate over %d runs):\n", obsv.RunCount())
			obsv.FullSnapshot().Format(os.Stderr)
		}
		var firstErr error
		keep := func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
		if tracer != nil {
			keep(tracer.Flush())
			fmt.Fprintf(os.Stderr, "vmsim: wrote Chrome trace to %s (open in ui.perfetto.dev)\n", *traceFlag)
			keep(files["-trace"].Close())
		}
		// Both exports render the Results the reports consumed (cache
		// and store hits included), deduplicated, in tag-then-key order.
		if f := files["-timeline"]; f != nil {
			n, err := obsv.WriteTimelines(f)
			keep(err)
			fmt.Fprintf(os.Stderr, "vmsim: wrote %d run timelines to %s\n", n, *timelineFlag)
			keep(f.Close())
		}
		if f := files["-flamegraph"]; f != nil {
			n, err := obsv.WriteFlamegraph(f)
			keep(err)
			fmt.Fprintf(os.Stderr, "vmsim: wrote collapsed-stack attribution of %d runs to %s\n", n, *flameFlag)
			keep(f.Close())
		}
		keep(stopHTTP())
		return firstErr
	}, nil
}

// startProfiling wires the standard pprof/trace outputs around the run.
// The returned stop function must run before exit (os.Exit skips
// defers, so main sequences it explicitly).
func startProfiling() (stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *gotraceFile != "" {
		f, err := os.Create(*gotraceFile)
		if err != nil {
			stop()
			return func() {}, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return func() {}, err
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if *memProfile != "" {
		path := *memProfile
		stops = append(stops, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vmsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vmsim: memprofile:", err)
			}
		})
	}
	return stop, nil
}

// longBudget is the long-trace instruction budget: -instrs, or 500M/scale.
func longBudget() uint64 {
	if spec.Instrs > 0 {
		return spec.Instrs
	}
	return 500_000_000 / uint64(spec.Scale)
}

func run() error {
	switch spec.Exp {
	case "serve":
		return serveJobs()
	case "run":
		return runSingle()
	case "dump":
		m, err := codesignvm.ModelByName(*modelFlag)
		if err != nil {
			return err
		}
		txt, err := codesignvm.DumpTranslations(spec.App, m, spec.Scale, spec.Instrs, 3)
		if err != nil {
			return err
		}
		_, err = io.WriteString(os.Stdout, txt)
		return err
	}
	// The reports render through the job path: stdout is the result a
	// job with this spec returns, byte for byte.
	env := codesignvm.Options{FreshRuns: *freshFlag, Store: *storeFlag, StoreMaxBytes: *storeMax, Obs: obsv, Ctx: runCtx}
	start := time.Now()
	return codesignvm.RunSpec(spec, env, func(exp, section string) error {
		if _, err := io.WriteString(os.Stdout, section); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", exp, time.Since(start).Round(time.Millisecond))
		start = time.Now()
		return nil
	})
}

// serveJobs is -exp serve: the process becomes a long-running job
// service. The HTTP server (and the /jobs endpoints) is already up
// via setupObservability; this just holds the process open until
// SIGINT/SIGTERM, then drains — accepted jobs complete (bounded by
// -drain-timeout, after which they are cancelled) before the server
// shuts down.
func serveJobs() error {
	fmt.Fprintf(os.Stderr, "vmsim: job service ready: POST /jobs (workers=%d queue=%d store=%s); SIGINT/SIGTERM drains\n",
		*jobsWorkers, *jobsQueue, *storeFlag)
	<-runCtx.Done()
	fmt.Fprintf(os.Stderr, "vmsim: draining job service (up to %v)\n", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := jobsManager.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w (running jobs were cancelled)", err)
	}
	return nil
}

func runSingle() error {
	m, err := codesignvm.ModelByName(*modelFlag)
	if err != nil {
		return err
	}
	prog, err := codesignvm.LoadWorkload(spec.App, spec.Scale)
	if err != nil {
		return err
	}
	budget := longBudget()
	warmMode, err := codesignvm.ParseWarmStart(*warmFlag)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %v: %d static instrs, budget %d\n", spec.App, m, prog.StaticInstrs, budget)
	cfg := codesignvm.DefaultConfig(m)
	start := time.Now()
	// NewRun on a nil observer returns a nil recorder: observability off.
	tag := fmt.Sprintf("%v/%s", m, spec.App)
	vm := codesignvm.NewConfiguredVM(cfg, prog)
	vm.SetObserver(obsv.NewRun(tag))
	res, err := vm.Run(budget)
	if err != nil {
		return err
	}
	// One or two runs, told apart by their tags: no run key needed.
	obsv.Note(tag, "", res.Attrib, res.Timeline)
	el := time.Since(start)
	fmt.Printf("retired %d instructions in %.4g cycles (IPC %.3f) — %.1fM instrs/s wall\n",
		res.Instrs, res.Cycles, res.IPC(), float64(res.Instrs)/el.Seconds()/1e6)
	if warmMode != codesignvm.WarmOff {
		// A/B: snapshot the cold run's translation caches, then re-run
		// the same workload restoring from them.
		var buf bytes.Buffer
		if err := vm.SaveTranslations(&buf); err != nil {
			return err
		}
		snap, err := codesignvm.ParseSnapshot(buf.Bytes())
		if err != nil {
			return err
		}
		wcfg := cfg
		wcfg.WarmStart = warmMode
		wstart := time.Now()
		wtag := fmt.Sprintf("%s/warm-%v", tag, warmMode)
		wres, err := codesignvm.RunConfigWarm(wcfg, prog, budget, obsv.NewRun(wtag), snap)
		if err != nil {
			return err
		}
		obsv.Note(wtag, "", wres.Attrib, wres.Timeline)
		wel := time.Since(wstart)
		fmt.Printf("warm-%v: %.4g cycles (cold %.4g, %.2fx), restored %d translations (%d x86 instrs) of %d snapshotted (%d bytes), %d BBT re-translations — %v wall (cold %v)\n",
			warmMode, wres.Cycles, res.Cycles, res.Cycles/wres.Cycles,
			wres.RestoredTranslations, wres.RestoredX86, snap.Len(), buf.Len(),
			wres.BBTTranslations, wel.Round(time.Millisecond), el.Round(time.Millisecond))
	}
	fmt.Printf("steady-state IPC (tail): %.3f   hotspot coverage: %.1f%%\n",
		codesignvm.SteadyIPC(res.Samples, 0.5), 100*res.HotspotCoverage())
	fmt.Printf("cycle breakdown:\n")
	for c := codesignvm.Category(0); c < codesignvm.NumCategories; c++ {
		if res.Cat[c] > 0 {
			fmt.Printf("  %-10v %14.4g  (%.1f%%)\n", c, res.Cat[c], 100*res.Cat[c]/res.Cycles)
		}
	}
	if a := res.Attrib; a != nil {
		fmt.Printf("cycle attribution (per-category sum is exact):\n")
		for c := codesignvm.AttribCategory(0); c < codesignvm.NumAttribCategories; c++ {
			if a.Cat[c] > 0 {
				fmt.Printf("  %-16v %14.4g  (%.1f%%)\n", c, a.Cat[c], 100*a.Cat[c]/a.TotalCycles)
			}
		}
	}
	fmt.Printf("translations: %d BBT (%d instrs), %d SBT (%d instrs), %d callouts\n",
		res.BBTTranslations, res.BBTX86Translated, res.SBTTranslations, res.SBTX86Translated, res.Callouts)
	if res.XltInvocations > 0 {
		fmt.Printf("XLTx86: %d invocations, %d busy cycles\n", res.XltInvocations, res.XltBusyCycles)
	}
	fmt.Println("startup curve (cycles, cumulative instrs, aggregate IPC):")
	for i := 0; i < len(res.Samples); i += 8 {
		s := res.Samples[i]
		fmt.Printf("  %14.4g %14d %8.3f\n", s.Cycles, s.Instrs, s.AggregateIPC())
	}
	return nil
}
