package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// -compare A.json B.json: A is the base (the parent commit, or the first
// of two sets of runs of one commit), B the change. One row per
// workload and end-to-end metric; the exit code is 1 if any row is
// worse.

// readResults reads one set of runs: a results file, or several joined
// by commas (the A files of an ABBA series), whose runs are pooled.
func readResults(paths string) (*resultsFile, error) {
	var set *resultsFile
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if set == nil {
			set = &f
			continue
		}
		set.Runs += f.Runs
		for name, more := range f.Workloads {
			into := set.Workloads[name]
			if into == nil {
				return nil, fmt.Errorf("%s: workload %s is not in the first file", path, name)
			}
			into.Failed = append(into.Failed, more.Failed...)
			for metric, s := range more.Metrics {
				pooled := into.Metrics[metric]
				pooled.Values = append(pooled.Values, s.Values...)
				into.Metrics[metric] = pooled
			}
		}
	}
	return set, nil
}

// spread is the distance between the first and third quartile as a
// share of the median, the way statistics.quantiles(v, n=4) computes
// quartiles (exclusive method); 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return ratio(q(0.75)-q(0.25), median(s))
}

// verdict judges B against A for one metric. worsening is B's median
// relative to A's, positive when worse. Where the runs' own spread
// exceeds the bound the difference cannot be resolved, unless every run
// of B reads better than every run of A.
func verdict(spec metricSpec, a, b []float64) (worsening float64, v string) {
	ma, mb := median(a), median(b)
	worsening = ratio(mb-ma, ma)
	sign := 1.0
	if spec.Better == "higher" {
		worsening, sign = -worsening, -1
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case max(spread(a), spread(b)) > spec.Bound && !allBetter:
		return worsening, "unresolved"
	case worsening > spec.Bound:
		return worsening, "worse"
	case worsening < -spec.Bound:
		return worsening, "better"
	}
	return worsening, "same"
}

func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%d runs)   B = %s (%d runs)   change = (B−A)/A of the medians, base A\n", pathA, a.Runs, pathB, b.Runs)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "change", "bound", "spread A", "spread B", "verdict")
	for _, wl := range workloads() {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s is missing from one of the files", wl.name)
		}
		for _, spec := range endToEnd {
			va, vb := ra.Metrics[spec.Name].Values, rb.Metrics[spec.Name].Values
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s is missing from one of the files", wl.name, spec.Name)
			}
			_, v := verdict(spec, va, vb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, spec.Name, median(va), median(vb), 100*ratio(median(vb)-median(va), median(va)),
				100*spec.Bound, 100*spread(va), 100*spread(vb), v)
		}
		fa, fb := sumInts(ra.Failed), sumInts(rb.Failed)
		v := "same"
		if fb > fa {
			v, worse = "worse", true
		}
		fmt.Fprintf(w, "%-14s %-16s %14d %14d %9s %7s %8s %8s  %s\n", wl.name, "failed ops", fa, fb, "", "0", "", "", v)
	}
	return worse, nil
}

func sumInts(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}
