// Command figures regenerates the paper's evaluation artifacts: every
// figure (4-14) and Table II, plus the §IV analytic claims.
//
// Usage:
//
//	figures -exp fig7            # one experiment, full scale
//	figures -exp all -quick      # everything, reduced scale
//	figures -list                # show available experiment ids
//
// Full-scale dissemination figures take a few seconds each; the full
// Table II sweep (2 variants x 4 block periods x 5 seeds of 10,000
// transactions through the whole EOV pipeline) takes several minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fabricgossip/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig4..fig14, table2, analytics) or 'all'")
	seed := flag.Int64("seed", 1, "root random seed")
	quick := flag.Bool("quick", false, "reduced scale for smoke runs")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(harness.ExperimentIDs(), "\n"))
		return
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = harness.ExperimentIDs()
	}
	if err := write(os.Stdout, ids, *seed, *quick); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// write runs the experiments in order and prints each report to w.
func write(w io.Writer, ids []string, seed int64, quick bool) error {
	for _, id := range ids {
		rep, err := harness.RunExperiment(id, seed, quick)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(w, rep)
	}
	return nil
}
