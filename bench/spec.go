package main

import (
	"encoding/json"
	"strings"
)

// The benchmark's contract: the names, units, directions and regression
// bounds BENCHMARK.json states. This table is the source; `-spec` prints
// BENCHMARK.json from it and bench_test.go checks the two agree.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const runSeconds = 15

// endToEnd are what a user of the simulator sees, per workload, measured
// with tracing off. Bound is the share of the parent's median by which
// the metric may worsen. fail_ratio, the ninth metric of the design, is
// failed ÷ attempted of the result line: it is always 0 on a correct
// build, so it cannot carry a relative bound and is not listed here.
//
// The design asked for 10 % on the timings. The sandbox does not allow
// it: a run that falls wholly inside one of the host's slow phases reads
// 1.3-1.7× slower, about one run in fifteen does, and two such runs in a
// set of ten put the set's spread near 20 % (README.md "Calibration").
// Everything derived from time therefore carries the widest bound the
// schema allows; allocation, which repeats to 1 %, carries 5 %.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"sim_mips", "Minst/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

var models = []string{"ref", "soft", "be", "fe", "interp"}

// perLayer are the traced run's metrics, one layer per name prefix.
// README.md says which end-to-end metric each should move, and where.
var perLayer = func() []metricSpec {
	l := func(better, unit string, names ...string) []metricSpec {
		var out []metricSpec
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
		return out
	}
	perModel := func(prefix string) []string {
		var out []string
		for _, m := range models {
			out = append(out, prefix+"."+m)
		}
		return out
	}
	var s []metricSpec
	add := func(m []metricSpec) { s = append(s, m...) }
	add(l("lower", "ns/inst", "x86.decode_ns_per_inst"))
	add(l("higher", "count", "x86.insts_decoded"))
	add(l("lower", "ns/inst", "crack.ns_per_inst"))
	add(l("lower", "uops/inst", "crack.uops_per_inst"))
	add(l("lower", "ns/inst", "bbt.translate_ns_per_inst"))
	add(l("higher", "count", "bbt.blocks"))
	add(l("lower", "allocs/block", "bbt.allocs_per_block"))
	add(l("lower", "ns/inst", "sbt.form_ns_per_inst"))
	add(l("higher", "count", "sbt.superblocks"))
	add(l("higher", "ratio", "sbt.fused_ratio"))
	add(l("lower", "ns/inst", "interp.ns_per_inst"))
	add(l("lower", "ns/inst", "hwassist.xlt_ns_per_inst"))
	add(l("lower", "ratio", "hwassist.complex_ratio"))
	add(l("lower", "ns/uop", "timing.analyze_ns_per_uop", "timing.charge_ns_per_uop"))
	add(l("lower", "ns", "cache.access_ns_hit", "cache.access_ns_miss"))
	add(l("lower", "ratio", "cache.l1d_miss_ratio"))
	add(l("lower", "ns", "bpred.cond_ns"))
	add(l("lower", "ratio", "bpred.mispredict_ratio"))
	add(l("lower", "ms", "codecache.save_ms"))
	add(l("lower", "KiB", "codecache.snapshot_kb"))
	add(l("lower", "us", "codecache.parse_us"))
	add(l("lower", "ns", "codecache.decode_ns_per_translation", "codecache.insert_ns", "codecache.lookup_ns"))
	add(l("lower", "us", "vmm.new_us"))
	add(l("lower", "ns/inst", perModel("vmm.startup_ns_per_instr")...))
	add(l("lower", "ns/inst", perModel("vmm.steady_ns_per_instr")...))
	add(l("lower", "us", "vmm.restore_us.lazy", "vmm.restore_us.eager"))
	add(l("lower", "ratio", "vmm.cores2_over_cores1"))
	add(l("lower", "count/op", "vmm.bbt_translations", "vmm.sbt_translations"))
	add(l("higher", "ratio", "vmm.sbt_coverage", "vmm.jtlb_hit_ratio"))
	add(l("higher", "count/op", "vmm.restored_translations"))
	add(l("lower", "ratio", "vmm.share_translate", "vmm.share_analyze", "vmm.share_other"))
	add(l("lower", "ms", "workload.gen_ms"))
	add(l("higher", "count", "workload.static_insts"))
	add(l("lower", "ms", "experiments.report_cold_ms"))
	add(l("lower", "us", "experiments.report_cached_us", "experiments.report_store_us"))
	add(l("lower", "ms", "experiments.fig3_ms"))
	add(l("higher", "ratio", "experiments.store_hit_ratio"))
	add(l("lower", "KiB", "experiments.store_kb"))
	add(l("lower", "count", "experiments.store_files"))
	add(l("lower", "ratio", "experiments.publish_overhead_ratio"))
	add(l("higher", "ratio", "experiments.grid_speedup"))
	add(l("lower", "us", "jobs.admit_us", "jobs.queue_wait_us"))
	add(l("lower", "ms", "jobs.run_ms_miss"))
	add(l("lower", "us", "jobs.envelope_us", "jobs.result_fetch_us"))
	add(l("higher", "ratio", "jobs.dedupe_ratio"))
	add(l("lower", "count", "jobs.rejected"))
	add(l("lower", "ratio", "obs.metrics_overhead_ratio"))
	add(l("higher", "ratio", "bench.trace_overhead_ratio"))
	return s
}()

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"` // no bound: omitted
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
	return b.String()
}
