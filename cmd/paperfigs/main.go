// Command paperfigs regenerates every table and figure in the paper's
// evaluation (plus the validation and ablation studies) in text form —
// the reproduction harness. The validate experiment runs the
// discrete-event architecture simulators against the analytic model,
// then the hypercube-embedding, banyan module-assignment and bus
// arbitration ablations behind the model's contention-free assumptions.
//
// Usage:
//
//	paperfigs                 # everything except wall-clock timing
//	paperfigs -only fig7      # one experiment
//	paperfigs -only validate  # simulators vs model, plus the ablations
//	paperfigs -empirical      # include the goroutine timing study (V2)
//	paperfigs -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"optspeed/internal/experiments"
)

func main() {
	var (
		only      = flag.String("only", "", "comma-separated experiment ids (empty = all)")
		empirical = flag.Bool("empirical", false, "include the V2 goroutine timing study")
		list      = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	filter := map[string]bool{}
	if *only != "" {
		valid := map[string]bool{}
		for _, id := range experiments.IDs() {
			valid[id] = true
		}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !valid[id] {
				fmt.Fprintf(os.Stderr, "paperfigs: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			filter[id] = true
		}
	}
	if err := experiments.RunAll(os.Stdout, filter, *empirical); err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
}
