// startup_curves regenerates the paper's headline figures (Fig. 2 and
// Fig. 8): normalized aggregate-IPC startup curves for all machine
// configurations, printed as CSV suitable for plotting. With -timeline
// it also writes a fine-grained per-run timeline (per-interval IPC and
// instruction mix by translation stage) of every run the figures used,
// as CSV.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	codesignvm "codesignvm"
)

var (
	scale    = flag.Int("scale", 50, "workload scale divisor")
	apps     = flag.String("apps", "Word,Excel,Winzip", "benchmarks to average over")
	csv      = flag.Bool("csv", false, "emit raw CSV instead of tables")
	timeline = flag.String("timeline", "", "also write interval-sampled per-run timelines to this CSV file")
)

func main() {
	flag.Parse()
	opt := codesignvm.Options{Scale: *scale}
	if *apps != "" {
		opt.Apps = strings.Split(*apps, ",")
	}
	var obs *codesignvm.Observer
	if *timeline != "" {
		// Timeline runs key apart from plain ones, so the result cache
		// serves Fig. 8 the Fig. 2 runs it shares, timelines included.
		obs = codesignvm.NewObserver(nil)
		obs.EnableTimeline()
		opt.Obs = obs
	}

	fig2, err := codesignvm.Figure2(opt)
	if err != nil {
		log.Fatal(err)
	}
	fig8, err := codesignvm.Figure8(opt)
	if err != nil {
		log.Fatal(err)
	}

	if *timeline != "" {
		if err := writeTimelines(obs, *timeline); err != nil {
			log.Fatal(err)
		}
	}
	if *csv {
		emitCSV("fig2", fig2)
		emitCSV("fig8", fig8)
		return
	}
	fmt.Print(codesignvm.FormatStartup(fig2, "Fig. 2 — software staged translation startup"))
	fmt.Println()
	fmt.Print(codesignvm.FormatStartup(fig8, "Fig. 8 — startup with hardware assists"))
	fmt.Println("\nReading the curves: the y-axis is cumulative instructions / cycles,")
	fmt.Println("normalized to the reference superscalar's steady-state IPC. VM.fe")
	fmt.Println("tracks Ref almost exactly; VM.be lags briefly; software BBT and")
	fmt.Println("especially interpretation (Fig. 2) pay long startup transients.")
}

func writeTimelines(obs *codesignvm.Observer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runs, err := obs.WriteTimelines(f)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d run timelines to %s\n", runs, path)
	return f.Close()
}

func emitCSV(name string, s *codesignvm.StartupCurves) {
	fmt.Printf("# %s\ncycles", name)
	for _, m := range s.Models {
		fmt.Printf(",%v", m)
	}
	fmt.Println()
	for gi, c := range s.Grid {
		fmt.Printf("%g", c)
		for _, m := range s.Models {
			fmt.Printf(",%.4f", s.Curves[m][gi])
		}
		fmt.Println()
	}
}
