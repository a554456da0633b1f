// Observability: attach a metrics recorder and a Chrome trace sink to a
// simulation, print the per-run metric snapshot, aggregate across runs,
// and show the host-time trace of the runs. OBSERVABILITY.md documents
// every metric and event kind shown here.
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"

	codesignvm "codesignvm"
)

func main() {
	// One process-wide observer; its sink receives every lifecycle
	// event, tagged with what emitted it and stamped with host time. A
	// trace sink streams them to disk as Chrome trace-event JSON (open
	// it in ui.perfetto.dev), each run's span on its tag's lane.
	f, err := os.CreateTemp("", "codesignvm-trace-*.json")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	sink := codesignvm.NewTraceSink(f)
	obsv := codesignvm.NewObserver(sink)

	// Simulate two machine models under observation. Each run gets its
	// own recorder (metrics registry) minted from the shared observer.
	prog, err := codesignvm.LoadWorkload("Word", 50)
	if err != nil {
		log.Fatal(err)
	}
	const budget = 5_000_000
	var last *codesignvm.Result
	for _, m := range []codesignvm.Model{codesignvm.VMSoft, codesignvm.VMBE} {
		cfg := codesignvm.DefaultConfig(m)
		tag := fmt.Sprintf("%v/%s", m, prog.Params.Name)
		res, err := codesignvm.RunConfigObserved(cfg, prog, budget, obsv.NewRun(tag))
		if err != nil {
			log.Fatal(err)
		}
		last = res
	}

	// Per-run metrics ride on the Result. Most, vm.bbt.translations
	// included, are mirrored from the run's final stats; the block-size
	// histograms are kept at their sites.
	fmt.Println("== per-run metrics (VM.be/Word) ==")
	last.Metrics.Format(os.Stdout)

	// Aggregate merges every run's snapshot: counters and histogram
	// buckets sum, gauges keep their maximum.
	agg := obsv.Aggregate()
	fmt.Printf("\n== aggregate over %d runs ==\n", obsv.RunCount())
	if m, ok := agg.Get("vm.bbt.translations"); ok {
		fmt.Printf("total BBT translations: %.0f\n", m.Value)
	}
	if m, ok := agg.Get("vm.sbt.promotions"); ok {
		fmt.Printf("total SBT promotions:   %.0f\n", m.Value)
	}

	// The event stream: flush the sink (which closes the JSON document)
	// and show it. Each run is a "run" span, B to E, on its tag's lane;
	// ts is host microseconds since the observer was created.
	if err := sink.Flush(); err != nil {
		log.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== trace (%d events) ==\n", obsv.EventsEmitted())
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fmt.Println(sc.Text())
	}
}
