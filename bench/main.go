// Command bench is the repository's benchmark: six workloads from cold
// translation to the job service, eight bounded end-to-end metrics plus
// the failure count, and a per-layer trace taken from outside the
// program. README.md in this directory is the manual.
//
//	bash bench/run.sh --workload startup_cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -seed 1 [-trace 1] [-runs 10]   # every workload, one child process each
//	bash bench/run.sh -compare A.json B.json
//	bash bench/run.sh -update-golden
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

type config struct {
	dir      string // the benchmark's source directory (golden.json, out/)
	out      string // dir/out
	tmp      string // scratch for stores, inside out
	workload string
	seed     int64
	seconds  float64
	trace    int
	setups   int
	minOps   int
	runs     int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes   []string // why ops failed
	samples string   // what the percentiles were taken over
}

//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed   int64             `json:"seed"`
	Values map[string]string `json:"values"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.dir, "dir", "bench", "the benchmark's source directory")
	fs.StringVar(&cfg.workload, "workload", "", "run this workload in this process and print its result line (default: every workload, one child process each)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the timed run")
	fs.IntVar(&cfg.trace, "trace", 0, "1: the traced run (per-layer metrics, out/trace.json); 0: the untraced run (end-to-end metrics)")
	fs.IntVar(&cfg.setups, "setups", 3, "times the workload is set up; setup_s is the fastest")
	fs.IntVar(&cfg.minOps, "min-ops", 100, "the timed run goes on until this many ops are done")
	fs.IntVar(&cfg.runs, "runs", 1, "with no -workload: runs per workload, seeds seed..seed+runs-1, all kept in out/results.json")
	compare := fs.Bool("compare", false, "compare two sets of runs: -compare A.json B.json; a comma-separated list of files is one set")
	updateGolden := fs.Bool("update-golden", false, "rewrite golden.json from a seed-1 set-up of every workload")
	spec := fs.Bool("spec", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.out = filepath.Join(cfg.dir, "out")
	cfg.tmp = filepath.Join(cfg.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *spec:
		fmt.Fprint(stdout, benchmarkJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if cfg.seconds <= 0 || cfg.setups < 1 || cfg.runs < 1 || cfg.trace < 0 || cfg.trace > 1 {
		return fail(fmt.Errorf("need -seconds > 0, -setups ≥ 1, -runs ≥ 1, -trace 0 or 1"))
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.tmp)
	switch {
	case *updateGolden:
		if err := writeGolden(cfg); err != nil {
			return fail(err)
		}
		return 0
	case cfg.workload == "":
		if err := runAll(cfg, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	runOne := runWorkload
	if cfg.trace == 1 {
		runOne = runTraced
	}
	res, err := runOne(cfg, w)
	if err != nil {
		return fail(err)
	}
	printResult(stdout, w, cfg, res)
	return 0
}

// golden returns the pinned digests for the seed, nil when the seed has
// none.
func golden(seed int64) (map[string]string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Seed != seed {
		return nil, nil
	}
	return g.Values, nil
}

// runWorkload is the untraced run of one workload in this process: set
// up cfg.setups times (each set-up primes with one round, whose digests
// must repeat from set-up to set-up and, for the golden seed, be the
// pinned ones), then the timed closed loop on the last set-up. setup_s is
// the fastest set-up, like every other timing (measure.go).
func runWorkload(cfg config, w workload) (*result, error) {
	runtime.GOMAXPROCS(workloadCores)
	pinned, err := golden(cfg.seed)
	if err != nil {
		return nil, err
	}
	chk := newChecker(pinned)
	e := &env{seed: cfg.seed, tmp: cfg.tmp}
	res := &result{Metrics: map[string]metric{}}

	var in *instance
	var setupS []float64
	var best fastest
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			in.close()
		}
		// Collect the previous set-up's garbage now, so that peak RSS is
		// not decided by when the collector happens to get to it.
		runtime.GC()
		t0 := time.Now()
		if in, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		prime := runLoop(in, 0, 1, 0, nil, chk, &best)
		setupS = append(setupS, time.Since(t0).Seconds())
		res.Attempted += prime.attempted
		res.Failed += prime.failed
	}
	defer in.close()
	if pinned != nil {
		// Every op of a round has a pinned digest: a key golden.json
		// lacks means the inputs changed and the file was not updated.
		for key := range chk.seen {
			if _, ok := pinned[key]; !ok {
				chk.note("%s: not in golden.json (run -update-golden)", key)
				res.Failed++
			}
		}
	}

	runtime.GC()
	lr := runLoop(in, time.Duration(cfg.seconds*float64(time.Second)), 0, cfg.minOps, nil, chk, &best)
	res.Attempted += lr.attempted
	res.Failed += lr.failed
	res.Correct = res.Failed == 0
	res.notes = chk.notes

	ops, opsPerS, instrsPerS, cpuMSPerOp := best.undisturbed()
	values := map[string]float64{
		"setup_s":         slices.Min(setupS),
		"ops_per_s":       opsPerS,
		"op_ms_p50":       rank(ops, 0.50),
		"op_ms_p90":       rank(ops, 0.90),
		"sim_mips":        instrsPerS / 1e6,
		"cpu_ms_per_op":   cpuMSPerOp,
		"alloc_kb_per_op": float64(lr.allocBytes) / 1024 / float64(max(lr.attempted, 1)),
		"peak_rss_mb":     lr.peakRSSMiB,
	}
	for _, spec := range endToEnd {
		res.Metrics[spec.Name] = metric{values[spec.Name], spec.Unit}
	}
	res.samples = fmt.Sprintf("%d timed ops: %d rounds of %d, the fastest execution of each; %d set-ups",
		lr.attempted, lr.rounds, len(ops), len(setupS))
	return res, nil
}

// printResult prints every metric by name with its unit, then the
// result line.
func printResult(w io.Writer, wl workload, cfg config, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  cores %d  trace %d\n", wl.name, cfg.seed, workloadCores, cfg.trace)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-38s %16.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-38s %16.6f ratio (%d failed of %d attempted)\n", "fail_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	if res.samples != "" {
		fmt.Fprintf(w, "  over %s\n", res.samples)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  FAILED %s\n", n)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// writeGolden sets every workload up once with the golden seed and pins
// the digests of its priming round.
func writeGolden(cfg config) error {
	g := goldenFile{Seed: 1, Values: map[string]string{}}
	for _, w := range workloads() {
		runtime.GOMAXPROCS(workloadCores)
		chk := newChecker(nil)
		in, err := w.setup(&env{seed: g.Seed, tmp: cfg.tmp})
		if err != nil {
			return fmt.Errorf("set up %s: %w", w.name, err)
		}
		lr := runLoop(in, 0, 1, 0, nil, chk, new(fastest))
		in.close()
		if lr.failed > 0 {
			return fmt.Errorf("%s: %d ops failed: %s", w.name, lr.failed, strings.Join(chk.notes, "; "))
		}
		for k, v := range chk.seen {
			g.Values[k] = v
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.dir, "golden.json"), append(data, '\n'), 0o644)
}

// series is one metric over the runs of a results file.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

type workloadResults struct {
	Attempted []int             `json:"attempted"`
	Failed    []int             `json:"failed"`
	Metrics   map[string]series `json:"metrics"`             // end to end, untraced
	PerLayer  map[string]series `json:"per_layer,omitempty"` // traced
}

// resultsFile is out/results.json: every run of every workload.
type resultsFile struct {
	Seed      int64                       `json:"seed"`
	Runs      int                         `json:"runs"`
	Seconds   float64                     `json:"seconds"`
	Go        string                      `json:"go"`
	CPUs      int                         `json:"cpus"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// runAll runs every workload in a child process of its own, so that
// peak RSS, GC state, the process-wide run cache and GOMAXPROCS are per
// workload, and writes out/results.json; with -trace 1 each workload's
// traced run follows its untraced run and out/trace.json holds all six
// traces, one pid each.
func runAll(cfg config, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Seed: cfg.seed, Runs: cfg.runs, Seconds: cfg.seconds,
		Go: runtime.Version(), CPUs: runtime.NumCPU(), Workloads: map[string]*workloadResults{}}
	child := func(w workload, seed int64, trace int) (*result, error) {
		cmd := exec.Command(self, "-dir", cfg.dir, "-workload", w.name,
			"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace),
			"-setups", fmt.Sprint(cfg.setups), "-min-ops", fmt.Sprint(cfg.minOps))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		stdout.Write(out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", w.name, err)
		}
		return &res, nil
	}
	add := func(into map[string]series, res *result) {
		for name, m := range res.Metrics {
			s := into[name]
			s.Unit = m.Unit
			s.Values = append(s.Values, m.Value)
			into[name] = s
		}
	}
	failed := 0
	for run := 0; run < cfg.runs; run++ {
		for _, w := range workloads() {
			wr := file.Workloads[w.name]
			if wr == nil {
				wr = &workloadResults{Metrics: map[string]series{}}
				file.Workloads[w.name] = wr
			}
			res, err := child(w, cfg.seed+int64(run), 0)
			if err != nil {
				return err
			}
			wr.Attempted = append(wr.Attempted, res.Attempted)
			wr.Failed = append(wr.Failed, res.Failed)
			failed += res.Failed
			add(wr.Metrics, res)
			if cfg.trace == 1 {
				if res, err = child(w, cfg.seed+int64(run), 1); err != nil {
					return err
				}
				failed += res.Failed
				if wr.PerLayer == nil {
					wr.PerLayer = map[string]series{}
				}
				add(wr.PerLayer, res)
			}
		}
	}
	if cfg.trace == 1 {
		var all []traceEvent
		for pid, w := range workloads() {
			events, err := readTrace(filepath.Join(cfg.out, "trace."+w.name+".json"))
			if err != nil {
				return err
			}
			for i := range events {
				events[i].PID = pid + 1
			}
			all = append(all, events...)
		}
		if err := writeTrace(filepath.Join(cfg.out, "trace.json"), all); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}
