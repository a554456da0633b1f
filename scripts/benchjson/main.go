// benchjson converts `go test -bench` output into a small stable JSON
// document, validates such documents, and diffs two of them.
//
// Convert (scripts/bench.sh): pipe benchmark output through stdin:
//
//	go test -bench Fig2 -benchmem . | go run ./scripts/benchjson > BENCH_PR4.json
//
// Validate (scripts/ci.sh): -check FILE exits non-zero unless FILE is
// well-formed bench.v1 JSON with at least one benchmark:
//
//	go run ./scripts/benchjson -check BENCH_PR4.json
//
// Diff: -diff OLD.json NEW.json prints a per-benchmark table of
// percentage deltas (ns/op, B/op, allocs/op; negative = improvement).
// With -fail-over PCT it exits non-zero when any benchmark present in
// both files regressed its ns/op by more than PCT percent — the CI
// perf gate. Wall-clock deltas are host-noise-sensitive; gate
// thresholds should leave generous headroom (tens of percent).
//
// Trend: -trend FILE... renders the whole snapshot series (sorted by
// the PR number in each filename) as one markdown table — ns/op per
// snapshot plus the newest snapshot's delta against the series minimum
// and against the median of the prior snapshots:
//
//	go run ./scripts/benchjson -trend BENCH_PR*.json > docs/BENCH_TREND.md
//
// With -fail-over PCT, -trend exits non-zero when some benchmark's
// newest ns/op exceeds the median of its prior snapshots by more than
// PCT percent — a cross-PR drift sentinel that catches slow regressions
// the single-step -diff gate (which resets its baseline every PR)
// would wave through.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// doc is the bench.v1 schema.
type doc struct {
	Schema     string  `json:"schema"`
	Host       host    `json:"host"`
	Benchmarks []bench `json:"benchmarks"`
}

type host struct {
	Go       string `json:"go"`
	OS       string `json:"os"`
	Arch     string `json:"arch"`
	CPUs     int    `json:"cpus"`
	Hostname string `json:"hostname"`
}

type bench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the benchmark's own b.ReportMetric units (ns/inst,
	// ns/uop: host time per unit of simulated work), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	check := flag.String("check", "", "validate this bench.v1 JSON file instead of converting")
	diff := flag.Bool("diff", false, "diff two bench.v1 files given as arguments")
	trend := flag.Bool("trend", false, "render the bench.v1 files given as arguments as a cross-PR markdown trend table")
	failOver := flag.Float64("fail-over", 0, "with -diff (or -trend): exit non-zero if any ns/op regression exceeds this percentage")
	flag.Parse()
	if *check != "" {
		if err := checkFile(*check); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *check, err)
			os.Exit(1)
		}
		return
	}
	if *trend {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -trend needs at least two bench.v1 files")
			os.Exit(2)
		}
		ok, err := trendFiles(os.Stdout, flag.Args(), *failOver)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two files: OLD.json NEW.json")
			os.Exit(2)
		}
		ok, err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *failOver)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	d, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse scans `go test -bench` output for result lines:
//
//	BenchmarkFig2-8   5   238041153 ns/op   18516 B/op   42 allocs/op
//	BenchmarkDecode   200   162601 ns/op   27.17 ns/inst   0 B/op   0 allocs/op
//
// Non-benchmark lines (ok/PASS/goos/...) pass through to stderr so the
// run stays observable when piped.
func parse(r *os.File) (*doc, error) {
	hostname, _ := os.Hostname()
	d := &doc{
		Schema: "bench.v1",
		Host: host{
			Go:       runtime.Version(),
			OS:       runtime.GOOS,
			Arch:     runtime.GOARCH,
			CPUs:     runtime.NumCPU(),
			Hostname: hostname,
		},
		Benchmarks: []bench{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		iters, err1 := strconv.ParseInt(f[1], 10, 64)
		ns, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		b := bench{Name: f[0], Iterations: iters, NsPerOp: ns}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				b.BPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[f[i+1]] = v
			}
		}
		d.Benchmarks = append(d.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(d.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return d, nil
}

// checkFile validates the bench.v1 shape: parseable, right schema tag,
// host metadata present, at least one benchmark with positive ns/op.
func checkFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d doc
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return fmt.Errorf("not valid bench.v1 JSON: %w", err)
	}
	if d.Schema != "bench.v1" {
		return fmt.Errorf("schema = %q, want bench.v1", d.Schema)
	}
	if d.Host.Go == "" || d.Host.OS == "" || d.Host.Arch == "" || d.Host.CPUs <= 0 {
		return fmt.Errorf("host metadata incomplete: %+v", d.Host)
	}
	if len(d.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks recorded")
	}
	for _, b := range d.Benchmarks {
		if b.Name == "" || b.Iterations <= 0 || b.NsPerOp <= 0 {
			return fmt.Errorf("malformed benchmark entry: %+v", b)
		}
	}
	return nil
}

// loadDoc reads and validates one bench.v1 file for diffing.
func loadDoc(path string) (*doc, error) {
	if err := checkFile(path); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// pct formats a relative change as a signed percentage, or "-" when
// the old value is zero (no baseline to compare against).
func pct(oldV, newV float64) string {
	if oldV == 0 {
		if newV == 0 {
			return "="
		}
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
}

// snapLabel derives a snapshot's column label from its filename:
// "BENCH_PR9.json" → "PR9", anything else → the base name without the
// .json extension.
func snapLabel(path string) string {
	base := strings.TrimSuffix(filepath.Base(path), ".json")
	return strings.TrimPrefix(base, "BENCH_")
}

// snapOrder extracts the PR sequence number from a snapshot filename
// for sorting (-1 when there is none; those sort first, in argument
// order).
func snapOrder(path string) int {
	label := snapLabel(path)
	i := len(label)
	for i > 0 && label[i-1] >= '0' && label[i-1] <= '9' {
		i--
	}
	n, err := strconv.Atoi(label[i:])
	if err != nil {
		return -1
	}
	return n
}

// median returns the median of vs (mean of the middle pair for even
// lengths). vs must be non-empty; it is not modified.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// trendFiles renders the snapshot series as a markdown trend table:
// one row per benchmark (union over all snapshots, sorted), one ns/op
// column per snapshot in PR order, then the newest value's delta
// against the series minimum and against the median of the *prior*
// snapshots. Returns ok=false when failOver > 0 and some benchmark
// with at least two data points regressed its newest ns/op more than
// failOver percent over that prior median.
func trendFiles(w io.Writer, paths []string, failOver float64) (bool, error) {
	paths = append([]string(nil), paths...)
	sort.SliceStable(paths, func(i, j int) bool { return snapOrder(paths[i]) < snapOrder(paths[j]) })
	docs := make([]*doc, len(paths))
	for i, p := range paths {
		d, err := loadDoc(p)
		if err != nil {
			return false, fmt.Errorf("%s: %w", p, err)
		}
		docs[i] = d
	}

	series := map[string][]float64{} // name -> ns/op per snapshot (0 = absent)
	var names []string
	for i, d := range docs {
		for _, b := range d.Benchmarks {
			if _, seen := series[b.Name]; !seen {
				series[b.Name] = make([]float64, len(docs))
				names = append(names, b.Name)
			}
			series[b.Name][i] = b.NsPerOp
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# Benchmark trend\n\n")
	fmt.Fprintf(w, "ns/op per committed snapshot (oldest → newest; generated by\n`go run ./scripts/benchjson -trend BENCH_PR*.json`). Δmin compares the\nnewest value against the series best; Δmedian against the median of\nthe prior snapshots — the drift the per-PR diff gate cannot see.\nWall-clock numbers are host-sensitive: compare shapes, not digits.\n\n")
	fmt.Fprintf(w, "| benchmark |")
	for _, p := range paths {
		fmt.Fprintf(w, " %s |", snapLabel(p))
	}
	fmt.Fprintf(w, " Δmin | Δmedian |\n|---|")
	for range paths {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintf(w, "---|---|\n")

	ok := true
	var failures []string
	for _, name := range names {
		vs := series[name]
		fmt.Fprintf(w, "| %s |", name)
		min, last := 0.0, 0.0
		var prior []float64
		for _, v := range vs {
			if v == 0 {
				fmt.Fprintf(w, " – |")
				continue
			}
			fmt.Fprintf(w, " %.0f |", v)
			if last > 0 {
				prior = append(prior, last)
			}
			if min == 0 || v < min {
				min = v
			}
			last = v
		}
		dMin, dMed := "–", "–"
		if last > 0 && min > 0 {
			dMin = pct(min, last)
		}
		if last > 0 && len(prior) > 0 {
			med := median(prior)
			dMed = pct(med, last)
			if failOver > 0 && (last-med)/med*100 > failOver {
				ok = false
				dMed += " **REGRESSION**"
				failures = append(failures, name)
			}
		}
		fmt.Fprintf(w, " %s | %s |\n", dMin, dMed)
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: ns/op drift over %.1f%% vs prior-median: %s\n",
			failOver, strings.Join(failures, ", "))
	}
	return ok, nil
}

// diffFiles prints the per-benchmark delta table between two bench.v1
// documents. It returns ok=false when failOver > 0 and some benchmark
// present in both files regressed its ns/op by more than failOver
// percent. Benchmarks present in only one file are listed but never
// gate.
func diffFiles(w io.Writer, oldPath, newPath string, failOver float64) (bool, error) {
	oldD, err := loadDoc(oldPath)
	if err != nil {
		return false, fmt.Errorf("%s: %w", oldPath, err)
	}
	newD, err := loadDoc(newPath)
	if err != nil {
		return false, fmt.Errorf("%s: %w", newPath, err)
	}
	oldBy := make(map[string]bench, len(oldD.Benchmarks))
	for _, b := range oldD.Benchmarks {
		oldBy[b.Name] = b
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tns/op old\tns/op new\tΔns\tΔB/op\tΔallocs\n")
	ok := true
	matched := make(map[string]bool, len(newD.Benchmarks))
	for _, nb := range newD.Benchmarks {
		ob, found := oldBy[nb.Name]
		if !found {
			fmt.Fprintf(tw, "%s\t-\t%.0f\t(new)\t\t\n", nb.Name, nb.NsPerOp)
			continue
		}
		matched[nb.Name] = true
		dNs := pct(ob.NsPerOp, nb.NsPerOp)
		if failOver > 0 && ob.NsPerOp > 0 &&
			(nb.NsPerOp-ob.NsPerOp)/ob.NsPerOp*100 > failOver {
			ok = false
			dNs += " REGRESSION"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\t%s\t%s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, dNs,
			pct(ob.BPerOp, nb.BPerOp), pct(ob.AllocsPerOp, nb.AllocsPerOp))
	}
	for _, ob := range oldD.Benchmarks {
		if !matched[ob.Name] {
			fmt.Fprintf(tw, "%s\t%.0f\t-\t(gone)\t\t\n", ob.Name, ob.NsPerOp)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if !ok {
		fmt.Fprintf(w, "\nFAIL: ns/op regression over %.1f%% threshold\n", failOver)
	}
	return ok, nil
}
