package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"codesignvm"
)

// The traced run: `-trace 1`. It reports every per-layer metric, and no
// end-to-end metric — those come from the untraced run only.
//
// One traced run of workload W is:
//
//  1. W set up once, then an untraced and a traced pass of 0.2×seconds
//     each over the same instance: the ratio of their throughputs is
//     bench.trace_overhead_ratio;
//  2. two traced rounds of each other workload, so that the spans every
//     per-layer metric is computed from exist whichever W is;
//  3. the stand-alone probes of the leaf layers (layers.go), fed from
//     W's own programs, and the probes that compare two configurations
//     of a whole run (below).
//
// Spans and samples are keyed by the workload pass they were taken in
// (tracer.section), and each metric names the pass it reads.

const (
	otherRounds = 2
	probeBox    = 60 * time.Millisecond
	probeReps   = 3
)

func runTraced(cfg config, w workload) (*result, error) {
	tr := newTracer()
	e := &env{seed: cfg.seed, tmp: cfg.tmp, tr: tr}
	chk := newChecker(nil)
	res := &result{Metrics: map[string]metric{}}
	count := func(lr loopResult) {
		res.Attempted += lr.attempted
		res.Failed += lr.failed
	}

	tr.section(w.name)
	runtime.GOMAXPROCS(workloadCores)
	in, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	pass := time.Duration(cfg.seconds * 0.2 * float64(time.Second))
	var plain, traced fastest
	count(runLoop(in, 0, 1, 0, nil, chk, new(fastest))) // priming
	count(runLoop(in, pass, 0, 0, nil, chk, &plain))
	count(runLoop(in, pass, 0, 0, tr, chk, &traced))
	progs := in.progs
	in.close()

	for _, o := range workloads() {
		if o.name == w.name {
			continue
		}
		tr.section(o.name)
		in, err := o.setup(e)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", o.name, err)
		}
		count(runLoop(in, 0, otherRounds, 0, tr, chk, new(fastest)))
		in.close()
	}

	tr.section("probes")
	prog := (*codesignvm.Program)(nil)
	if len(progs) > 0 {
		prog = progs[0]
	} else if prog, err = codesignvm.LoadWorkload(benchApps[0], sweepScale); err != nil {
		return nil, err
	}
	values, err := leafProbes(prog, probeBox)
	if err != nil {
		return nil, fmt.Errorf("leaf probes: %w", err)
	}
	if err := pairProbes(e, prog, values); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	_, plainOpsPerS, _, _ := plain.undisturbed()
	_, tracedOpsPerS, _, _ := traced.undisturbed()
	values["bench.trace_overhead_ratio"] = ratio(tracedOpsPerS, plainOpsPerS)
	spanMetrics(tr, values)

	for _, spec := range perLayer {
		v, ok := values[spec.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", spec.Name)
		}
		res.Metrics[spec.Name] = metric{v, spec.Unit}
	}
	res.notes = chk.notes
	res.Correct = res.Failed == 0
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	return res, writeTrace(filepath.Join(cfg.out, "trace."+w.name+".json"), tr.events(1))
}

// alternate times a and b probeReps times each, interleaved so that
// drift of the host hits both alike, and returns median(a) ÷ median(b).
func alternate(a, b func() error) (float64, error) {
	var ta, tb []float64
	for i := 0; i < probeReps; i++ {
		for j, f := range []func() error{a, b} {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			d := float64(time.Since(t0))
			if j == 0 {
				ta = append(ta, d)
			} else {
				tb = append(tb, d)
			}
		}
	}
	return ratio(median(ta), median(tb)), nil
}

// pairProbes measures the ratios between two configurations of the same
// whole run. These are the only places the benchmark chooses a host
// mode (GOMAXPROCS, Sequential) itself.
func pairProbes(e *env, prog *codesignvm.Program, m map[string]float64) error {
	var err error
	run := func(procs int) func() error {
		return func() error {
			runtime.GOMAXPROCS(procs)
			_, err := codesignvm.Run(codesignvm.VMSoft, prog, 400_000)
			return err
		}
	}
	if m["vmm.cores2_over_cores1"], err = alternate(run(2), run(1)); err != nil {
		return err
	}
	runtime.GOMAXPROCS(workloadCores)

	cfg := codesignvm.DefaultConfig(codesignvm.VMSoft)
	observer := codesignvm.NewObserver(nil) // metrics only, no event sink
	observed := func(rec func() *codesignvm.Recorder) func() error {
		return func() error {
			_, err := codesignvm.RunConfigObserved(cfg, prog, 1_000_000, rec())
			return err
		}
	}
	m["obs.metrics_overhead_ratio"], err = alternate(
		observed(func() *codesignvm.Recorder { return observer.NewRun("probe") }),
		observed(func() *codesignvm.Recorder { return nil }))
	if err != nil {
		return err
	}

	store, err := e.dir("probe-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(store)
	fig8 := func(opt codesignvm.Options) func() error {
		opt.Scale, opt.LongInstrs, opt.FreshRuns = sweepScale, sweepInstrs, true
		return func() error {
			_, err := codesignvm.RunExperiment("fig8", opt, "")
			return err
		}
	}
	one := benchApps[:1]
	if m["experiments.publish_overhead_ratio"], err = alternate(
		fig8(codesignvm.Options{Apps: one, Store: store}), fig8(codesignvm.Options{Apps: one})); err != nil {
		return err
	}
	runtime.GOMAXPROCS(twoCores())
	defer runtime.GOMAXPROCS(workloadCores)
	m["experiments.grid_speedup"], err = alternate(
		fig8(codesignvm.Options{Apps: benchApps, Sequential: true}), fig8(codesignvm.Options{Apps: benchApps}))
	return err
}

// spanMetrics computes the metrics of the layers that are measured where
// the workloads call them: from the spans and samples of the passes.
func spanMetrics(tr *tracer, m map[string]float64) {
	medianOf := func(sec, name, label string) float64 { return median(durations(tr.find(sec, name, label))) }
	samples := func(key string) []float64 { return tr.samples[key] }

	m["vmm.new_us"] = medianOf("", "vmm.new", "") / 1e3
	for i, model := range benchModels {
		m["vmm.startup_ns_per_instr."+models[i]] = nsPerUnit(tr.find("startup_cold", "vmm.run", model.String()))
		m["vmm.steady_ns_per_instr."+models[i]] = nsPerUnit(tr.find("steady_hot", "vmm.run", model.String()))
	}
	m["vmm.restore_us.lazy"] = medianOf("warm_restore", "vmm.restore", "lazy") / 1e3
	m["vmm.restore_us.eager"] = medianOf("warm_restore", "vmm.restore", "eager") / 1e3
	m["vmm.bbt_translations"] = mean(samples("startup_cold/bbt_translations"))
	m["vmm.sbt_translations"] = mean(samples("steady_hot/sbt_translations"))
	m["vmm.sbt_coverage"] = ratio(sum(samples("steady_hot/sbt_instrs")), sum(samples("steady_hot/instrs")))
	hits, misses := sum(samples("steady_hot/jtlb_hits")), sum(samples("steady_hot/jtlb_misses"))
	m["vmm.jtlb_hit_ratio"] = ratio(hits, hits+misses)
	m["vmm.restored_translations"] = mean(samples("warm_restore/restored_translations"))

	// The startup budget: what the translators and the static analysis
	// would cost at their stand-alone rates, for the static instructions
	// startup_cold's runs translated, as shares of those runs' wall time.
	translatedBBT, translatedSBT := sum(samples("startup_cold/bbt_x86")), sum(samples("startup_cold/sbt_x86"))
	wall := sum(durations(tr.find("startup_cold", "vmm.run", "")))
	m["vmm.share_translate"] = ratio(m["bbt.translate_ns_per_inst"]*translatedBBT+m["sbt.form_ns_per_inst"]*translatedSBT, wall)
	m["vmm.share_analyze"] = ratio(m["timing.analyze_ns_per_uop"]*m["crack.uops_per_inst"]*(translatedBBT+translatedSBT), wall)
	m["vmm.share_other"] = 1 - m["vmm.share_translate"] - m["vmm.share_analyze"]

	m["workload.gen_ms"] = medianOf("", "workload.gen", "") / 1e6
	m["workload.static_insts"] = sum(samples("startup_cold/workload.static_insts"))

	var cached, stored []float64
	for _, s := range tr.find("resweep_store", "experiments.report_cached", "") {
		if s.Label != "fig3" {
			cached = append(cached, s.dur())
		}
	}
	for _, s := range tr.find("resweep_store", "experiments.report", "") {
		if s.Label != "fig3" {
			stored = append(stored, s.dur())
		}
	}
	m["experiments.report_cold_ms"] = mean(durations(tr.find("resweep_store", "experiments.report_cold", ""))) / 1e6
	m["experiments.report_cached_us"] = median(cached) / 1e3
	m["experiments.report_store_us"] = median(stored) / 1e3
	m["experiments.fig3_ms"] = medianOf("resweep_store", "experiments.report", "fig3") / 1e6
	storeHits, storeMisses := sum(samples("resweep_store/store_hits")), sum(samples("resweep_store/store_misses"))
	m["experiments.store_hit_ratio"] = ratio(storeHits, storeHits+storeMisses)
	m["experiments.store_kb"] = sum(samples("resweep_store/store_kb"))
	m["experiments.store_files"] = sum(samples("resweep_store/store_files"))

	m["jobs.admit_us"] = medianOf("jobs_mixed", "jobs.admit", "") / 1e3
	m["jobs.queue_wait_us"] = median(samples("jobs_mixed/queue_wait_us"))
	m["jobs.run_ms_miss"] = median(samples("jobs_mixed/run_ms.miss"))
	m["jobs.result_fetch_us"] = medianOf("jobs_mixed", "jobs.result_fetch", "") / 1e3
	// The envelope is everything a served-from-cache job costs its
	// client: admit, wait and fetch of one hit op.
	perOp := map[int32]float64{}
	for _, s := range tr.spans {
		if s.Sec == "jobs_mixed" && s.Label == "hit" && strings.HasPrefix(s.Name, "jobs.") {
			perOp[s.Op] += s.dur()
		}
	}
	var envelope []float64
	for _, d := range perOp {
		envelope = append(envelope, d)
	}
	m["jobs.envelope_us"] = median(envelope) / 1e3
	submitted, deduped := sum(samples("jobs_mixed/jobs.submitted")), sum(samples("jobs_mixed/jobs.deduped"))
	m["jobs.dedupe_ratio"] = ratio(deduped, submitted+deduped)
	m["jobs.rejected"] = sum(samples("jobs_mixed/jobs.rejected.rate")) +
		sum(samples("jobs_mixed/jobs.rejected.queue")) + sum(samples("jobs_mixed/jobs.rejected.drain"))
}
