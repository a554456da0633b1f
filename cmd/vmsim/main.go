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
// Experiments: fig2 fig3 fig8 fig9 fig10 fig11 overhead threshold
// ablation table1 table2 run sweep all. "sweep" runs the paper's
// figures (2, 3, 8–11) in one process so they share simulation
// results; "all" adds the extension experiments.
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
//	vmsim -exp fig2 -metrics table           # aggregate metric table
//	vmsim -exp run -events events.jsonl      # JSONL lifecycle events
//	vmsim -exp run -trace run.trace.json     # Chrome trace (Perfetto)
//	vmsim -exp run -timeline tl.csv          # interval-sampled timelines
//	vmsim -exp sweep -http 127.0.0.1:890     # live introspection server
//	vmsim -exp sweep -progress 10s           # periodic progress line
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
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	codesignvm "codesignvm"
)

var (
	expFlag    = flag.String("exp", "fig8", "experiment: fig2 fig3 fig8 fig9 fig10 fig11 overhead threshold ablation table1 table2 persist warmstart pressure coldstart ctxswitch staged deltasweep phases dump run sweep all serve")
	scaleFlag  = flag.Int("scale", 25, "workload scale divisor (1 = paper-sized)")
	appsFlag   = flag.String("apps", "", "comma-separated subset of benchmarks (default: all ten)")
	modelFlag  = flag.String("model", "VM.soft", "machine model for -exp run")
	appFlag    = flag.String("app", "Word", "benchmark for -exp run")
	instrsFlag = flag.Uint64("instrs", 0, "instruction budget (default 500M/scale)")
	seqFlag    = flag.Bool("seq", false, "run the experiment grid sequentially")
	freshFlag  = flag.Bool("fresh", false, "disable the simulation-result caches (in-process memoization and -store reads)")
	storeFlag  = flag.String("store", "", "directory for the persistent cross-process run store (empty: disabled; see docs/runstore.md)")
	storeMax   = flag.Int64("store-max", 0, "cap on total -store record bytes; least-recently-used records are evicted at startup (0: uncapped)")
	warmFlag   = flag.String("warm-cache", "off", "warm-start restore policy for -exp run: off lazy hybrid eager (runs a cold pass first, snapshots its translations, then A/Bs the warm restore)")

	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	gotraceFile = flag.String("gotrace", "", "write a Go runtime execution trace to this file")

	metricsFlag  = flag.String("metrics", "", "print aggregate observability metrics on exit: \"table\" or \"json\"")
	eventsFlag   = flag.String("events", "", "write the VM lifecycle-event trace to this file (JSON Lines)")
	traceFlag    = flag.String("trace", "", "write the lifecycle-event stream as Chrome trace-event JSON to this file (view in Perfetto)")
	timelineFlag = flag.String("timeline", "", "sample per-run startup timelines and write them to this file on exit (.json: JSON, otherwise CSV); implies -fresh")
	tlInterval   = flag.Float64("timeline-interval", codesignvm.DefaultTimelineInterval, "initial timeline slice width in simulated cycles")
	tlSlices     = flag.Int("timeline-slices", codesignvm.DefaultTimelineSlices, "max timeline slices per run (full timelines coalesce, doubling the interval)")
	flameFlag    = flag.String("flamegraph", "", "write a collapsed-stack cycle-attribution profile (category;region count) merged over every simulated run to this file on exit; enables attribution on all runs")
	httpFlag     = flag.String("http", "", "serve live introspection on this address (/metrics /runs /healthz /debug/pprof; -exp serve adds /jobs)")
	progressFlag = flag.Duration("progress", 0, "print a progress line to stderr at this interval during sweeps (0: disabled; requires a terminal on stderr)")

	jobsWorkers  = flag.Int("jobs-workers", 2, "worker-pool size of the -exp serve job service")
	jobsQueue    = flag.Int("jobs-queue", 16, "bounded queue depth of the job service (full queue: 429 + Retry-After)")
	jobsRate     = flag.Float64("jobs-rate", 5, "per-client job submissions per second (0: unlimited)")
	jobsBurst    = flag.Float64("jobs-burst", 10, "per-client submission burst size")
	drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, how long -exp serve waits for accepted jobs before cancelling them")
)

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

// multiSink fans one event stream out to several sinks (-events and
// -trace together).
type multiSink []codesignvm.EventSink

func (m multiSink) Emit(e codesignvm.Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// validateObsFlags checks the observability flag set up front, so a bad
// combination fails with one clear line before any simulation starts,
// never mid-sweep. Output files are created here (catching unwritable
// paths), and the -http listener is bound here (catching occupied
// ports).
func validateObsFlags() (files map[string]*os.File, ln net.Listener, err error) {
	fail := func(format string, args ...any) (map[string]*os.File, net.Listener, error) {
		for _, f := range files {
			f.Close()
		}
		if ln != nil {
			ln.Close()
		}
		return nil, nil, fmt.Errorf(format, args...)
	}
	if *metricsFlag != "" && *metricsFlag != "table" && *metricsFlag != "json" {
		return fail("-metrics must be \"table\" or \"json\", got %q", *metricsFlag)
	}
	if *tlInterval <= 0 {
		return fail("-timeline-interval must be positive, got %g", *tlInterval)
	}
	if *tlSlices < 2 {
		return fail("-timeline-slices must be at least 2, got %d", *tlSlices)
	}
	if *progressFlag > 0 {
		if fi, serr := os.Stderr.Stat(); serr == nil && fi.Mode()&os.ModeCharDevice == 0 {
			return fail("-progress needs a terminal on stderr (it rewrites a status line); use -http %s for live introspection instead", "ADDR")
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
		if *timelineFlag != "" {
			return fail("-exp serve is incompatible with -timeline (it implies -fresh); use GET /jobs/{id} for live job progress")
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
		{"-events", *eventsFlag}, {"-trace", *traceFlag}, {"-timeline", *timelineFlag},
		{"-flamegraph", *flameFlag},
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

// setupObservability builds the process observer from the -metrics,
// -events, -trace, -timeline, -http and -progress flags. The returned
// finish function stops the progress printer, prints the aggregate
// metrics, flushes the event and trace files and writes the timeline
// export; it must run after the experiments complete.
func setupObservability() (finish func() error, err error) {
	files, ln, err := validateObsFlags()
	if err != nil {
		return nil, err
	}
	if *metricsFlag == "" && *progressFlag <= 0 && len(files) == 0 && ln == nil {
		return func() error { return nil }, nil
	}

	var sinks multiSink
	var jsonl *codesignvm.JSONLSink
	var tracer *codesignvm.TraceSink
	if f := files["-events"]; f != nil {
		jsonl = codesignvm.NewJSONLSink(f)
		sinks = append(sinks, jsonl)
	}
	if f := files["-trace"]; f != nil {
		tracer = codesignvm.NewTraceSink(f)
		sinks = append(sinks, tracer)
	}
	var sink codesignvm.EventSink
	switch len(sinks) {
	case 0:
	case 1:
		sink = sinks[0]
	default:
		sink = sinks
	}
	obsv = codesignvm.NewObserver(sink)
	if *flameFlag != "" {
		// Attribution milestones follow the effective instruction budget,
		// matching the options() / withDefaults derivation.
		budget := *instrsFlag
		if budget == 0 && *scaleFlag > 0 {
			budget = 500_000_000 / uint64(*scaleFlag)
		}
		obsv.EnableAttrib(codesignvm.DefaultAttribSpec(budget))
	}
	if *timelineFlag != "" {
		obsv.EnableTimeline(codesignvm.TimelineSpec{
			IntervalCycles: *tlInterval,
			MaxSlices:      *tlSlices,
		})
		// Cached and store-loaded results carry no timeline — only a
		// fresh simulation samples one — so -timeline forces -fresh
		// (options() honors this); store writes still happen.
		if !*freshFlag {
			fmt.Fprintln(os.Stderr, "vmsim: -timeline implies -fresh (only fresh simulations sample a timeline)")
		}
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
	stopProgress := func() {}
	if *progressFlag > 0 {
		stopProgress = startProgress(obsv, *progressFlag)
	}
	return func() error {
		stopProgress()
		// FullSnapshot: the per-run aggregate plus the process-level
		// registry (runs.*, store.* health), matching /metrics.
		if *metricsFlag == "json" {
			if err := obsv.FullSnapshot().WriteJSON(os.Stdout); err != nil {
				return err
			}
		} else if *metricsFlag == "table" {
			fmt.Printf("observability metrics (aggregate over %d runs):\n", obsv.RunCount())
			obsv.FullSnapshot().Format(os.Stdout)
		}
		var firstErr error
		keep := func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
		if jsonl != nil {
			keep(jsonl.Flush())
			fmt.Fprintf(os.Stderr, "vmsim: wrote %d events to %s\n", obsv.EventsEmitted(), *eventsFlag)
			keep(files["-events"].Close())
		}
		if tracer != nil {
			keep(tracer.Flush())
			fmt.Fprintf(os.Stderr, "vmsim: wrote Chrome trace to %s (open in ui.perfetto.dev)\n", *traceFlag)
			keep(files["-trace"].Close())
		}
		if f := files["-timeline"]; f != nil {
			runs := obsv.Runs()
			if strings.EqualFold(filepath.Ext(*timelineFlag), ".json") {
				keep(codesignvm.WriteTimelinesJSON(f, runs))
			} else {
				keep(codesignvm.WriteTimelinesCSV(f, runs))
			}
			fmt.Fprintf(os.Stderr, "vmsim: wrote %d run timelines to %s\n", len(runs), *timelineFlag)
			keep(f.Close())
		}
		if f := files["-flamegraph"]; f != nil {
			// Merge in tag order, not run-completion order, so the merged
			// counts do not depend on pool scheduling. Cache and store
			// hits mint no recorder, so only freshly simulated runs
			// contribute (use -fresh for a complete profile).
			type tagged struct {
				tag  string
				snap *codesignvm.AttribSnapshot
			}
			var snaps []tagged
			for _, r := range obsv.Runs() {
				if s := r.AttribSnapshot(); s != nil {
					snaps = append(snaps, tagged{r.Tag(), s})
				}
			}
			sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].tag < snaps[j].tag })
			ordered := make([]*codesignvm.AttribSnapshot, len(snaps))
			for i, t := range snaps {
				ordered[i] = t.snap
			}
			keep(codesignvm.MergeAttrib(ordered...).WriteCollapsed(f))
			fmt.Fprintf(os.Stderr, "vmsim: wrote collapsed-stack attribution of %d runs to %s\n", len(snaps), *flameFlag)
			keep(f.Close())
		}
		keep(stopHTTP())
		return firstErr
	}, nil
}

// startProgress prints a periodic sweep-progress line to stderr. It
// reads only atomic process counters, the global event sequence and the
// (mutex-guarded) timeline tails, so it is safe against the
// concurrently running experiment grid.
func startProgress(o *codesignvm.Observer, every time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		start := time.Now()
		lastEvents := uint64(0)
		lastTick := start
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				events := o.EventsEmitted()
				rate := float64(events-lastEvents) / now.Sub(lastTick).Seconds()
				lastEvents, lastTick = events, now
				line := fmt.Sprintf("[vmsim +%s] runs %d/%d done, store %d hit / %d miss, %d events (%.0f ev/s)",
					time.Since(start).Round(time.Second),
					o.Proc.Counter("runs.done", "runs").Value(),
					o.Proc.Counter("runs.started", "runs").Value(),
					o.Proc.Counter("store.hits", "loads").Value(),
					o.Proc.Counter("store.misses", "loads").Value(),
					events, rate)
				if ipc, ok := o.LiveIntervalIPC(); ok {
					line += fmt.Sprintf(", interval IPC %.3f", ipc)
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
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

func options() codesignvm.Options {
	opt := codesignvm.Options{
		Scale:         *scaleFlag,
		Sequential:    *seqFlag,
		FreshRuns:     *freshFlag || *timelineFlag != "",
		Store:         *storeFlag,
		StoreMaxBytes: *storeMax,
		Obs:           obsv,
		Ctx:           runCtx,
	}
	if *appsFlag != "" {
		opt.Apps = strings.Split(*appsFlag, ",")
	}
	if *instrsFlag > 0 {
		opt.LongInstrs = *instrsFlag
		opt.ShortInstrs = *instrsFlag / 5
	}
	return opt
}

func run() error {
	if *expFlag == "serve" {
		return serveJobs()
	}
	// "sweep" and "all" expand through the shared registry ("sweep":
	// the paper's figures in one process — fig8/fig9/fig11 share
	// their long-trace runs and fig10's VM.soft run seeds the
	// ablation-style short traces through the result cache).
	exps := codesignvm.ExpandExperiment(*expFlag)
	for _, exp := range exps {
		start := time.Now()
		if err := runOne(exp); err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", exp, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func runOne(exp string) error {
	opt := options()
	switch exp {
	case "dump":
		m, err := codesignvm.ModelByName(*modelFlag)
		if err != nil {
			return err
		}
		txt, err := codesignvm.DumpTranslations(*appFlag, m, *scaleFlag, *instrsFlag, 3)
		if err != nil {
			return err
		}
		fmt.Print(txt)
		return nil
	case "run":
		return runSingle(opt)
	}
	// Every report experiment dispatches through the shared registry —
	// the same code path the job service executes, so a report fetched
	// from GET /jobs/{id}/result is byte-identical to this output.
	txt, err := codesignvm.RunExperiment(exp, opt, *appFlag)
	if err != nil {
		return err
	}
	fmt.Print(txt)
	return nil
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

func runSingle(opt codesignvm.Options) error {
	m, err := codesignvm.ModelByName(*modelFlag)
	if err != nil {
		return err
	}
	prog, err := codesignvm.LoadWorkload(*appFlag, *scaleFlag)
	if err != nil {
		return err
	}
	budget := *instrsFlag
	if budget == 0 {
		budget = 500_000_000 / uint64(*scaleFlag)
	}
	warmMode, err := codesignvm.ParseWarmStart(*warmFlag)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %v: %d static instrs, budget %d\n", *appFlag, m, prog.StaticInstrs, budget)
	cfg := codesignvm.DefaultConfig(m)
	start := time.Now()
	// NewRun on a nil observer returns a nil recorder: observability off.
	vm := codesignvm.NewConfiguredVM(cfg, prog)
	vm.SetObserver(obsv.NewRun(fmt.Sprintf("%v/%s", m, *appFlag)))
	res, err := vm.Run(budget)
	if err != nil {
		return err
	}
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
		wres, err := codesignvm.RunConfigWarm(wcfg, prog, budget,
			obsv.NewRun(fmt.Sprintf("%v/%s/warm-%v", m, *appFlag, warmMode)), snap)
		if err != nil {
			return err
		}
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
