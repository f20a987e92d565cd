// Command scenarios runs the built-in catalog of fault/churn scenarios
// (internal/scenario) against either gossip protocol at any topology —
// single organizations up to thousands of peers, or multi-organization
// networks (the paper's Fig. 1 shape) — printing a deterministic report
// per run.
//
// Usage:
//
//	scenarios -list                                   # show the catalog
//	scenarios -scenario crash-restart -peers 100      # one scenario
//	scenarios -scenario all -peers 1000 -variant both # full sweep at scale
//	scenarios -scenario org-cold-join -peers 1000 -orgs 4   # 4 orgs x 250 peers
//	scenarios -scenario org-partition-heal,org-cold-join -orgs 4 -check
//	scenarios -scenario churn -check                  # run twice, verify determinism
//	scenarios -scenario partition-heal -trace         # print the script events as text
//	scenarios -scenario txload-hotkey-contention -peers 1000 -orgs 4 -check
//	                          # full execute-order-validate pipeline under load
//	scenarios -scenario crash-restart -stats          # registry-backed runtime stats
//	scenarios -scenario churn -trace-jsonl churn.jsonl -metrics-out churn.json
//	                          # structured event trace + metrics snapshot
//	scenarios -scenario churn -variant both -metrics-out m.json
//	                          # several runs: m.churn.original.json, m.churn.enhanced.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fabricgossip/internal/harness"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

// run is the command. It returns the first error instead of exiting, so the
// CPU and heap profiles are written on every path, a failing run included.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("scenarios", flag.ExitOnError)
	name := fs.String("scenario", "all", "scenario name, comma-separated list, or 'all'")
	peers := fs.Int("peers", 100, "total network size across all orgs (up to thousands)")
	orgs := fs.Int("orgs", 1, "organization count (peers must divide evenly)")
	orgSizes := fs.String("org-sizes", "", "explicit per-org peer counts, e.g. 50,30,20 (overrides -peers/-orgs; asymmetric consortiums)")
	variant := fs.String("variant", "enhanced", "protocol: original, enhanced or both")
	seed := fs.Int64("seed", 1, "root random seed")
	consenters := fs.Int("consenters", 0, "ordering-cluster size override: run the scenario with this many Raft consenters (0 keeps the scenario's own size: 1 unless its script sets one; scripts naming a consenter index >= the override are rejected)")
	tail := fs.Duration("tail", 0, "override the scenario's post-injection tail (0 keeps its own; shortening it changes the fingerprint lineage — reduced-duration determinism smokes only)")
	check := fs.Bool("check", false, "run each scenario twice and verify identical fingerprints")
	trace := fs.Bool("trace", false, "print the run's script events (faults, deliveries, elections, catch-ups) as text: a view of the same events -trace-jsonl writes")
	stats := fs.Bool("stats", false, "print runtime statistics (engine, barriers, wire traffic) from the metrics registry; never part of the fingerprint")
	traceJSONL := fs.String("trace-jsonl", "", "collect the structured event trace and write it as JSONL to this file ('-' for stdout; several runs write <stem>.<scenario>.<variant><ext> each); fingerprint-neutral")
	metricsOut := fs.String("metrics-out", "", "write the metrics-registry snapshot as JSON to this file ('-' for stdout; several runs write <stem>.<scenario>.<variant><ext> each)")
	timeseries := fs.Duration("timeseries", 0, "sample every registry instrument at this simulated period (written as JSON to <metrics-out>.series.json, or stdout); extends the event lineage like -tail")
	flightRing := fs.Int("flight", 0, "arm the crash flight recorder with a ring of this many recent events per context")
	flightDir := fs.String("flight-dir", "", "flight-recorder dump directory (default OS temp)")
	list := fs.Bool("list", false, "list scenario names and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2 here

	if *list {
		for _, d := range scenario.Catalog() {
			req := ""
			if d.MinOrgs > 1 {
				req = fmt.Sprintf(" [needs >= %d orgs]", d.MinOrgs)
			}
			fmt.Printf("%-20s %s%s\n", d.Name, d.Description, req)
		}
		return nil
	}

	sizes, err := parseOrgSizes(*orgSizes)
	if err != nil {
		return err
	}
	var names []string
	if *name == "all" {
		for _, d := range scenario.Catalog() {
			if why := skipReason(d, *orgs, sizes); why != "" {
				fmt.Printf("skipping %s: %s\n\n", d.Name, why)
				continue
			}
			names = append(names, d.Name)
		}
	} else {
		for _, n := range strings.Split(*name, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	variants, err := parseVariants(*variant)
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if werr := writeHeapProfile(*memprofile); err == nil {
				err = werr
			}
		}()
	}

	multi := len(names)*len(variants) > 1
	for _, n := range names {
		for _, v := range variants {
			opt := scenario.Options{
				Peers: *peers, Orgs: *orgs, OrgSizes: sizes, Variant: v, Seed: *seed,
				Consenters: *consenters, Tail: *tail,
				Trace: *traceJSONL != "", FlightRing: *flightRing, FlightDir: *flightDir,
				TimeSeries: *timeseries,
			}
			start := time.Now()
			rep, err := scenario.RunNamed(n, opt)
			if err != nil {
				return err
			}
			wall := time.Since(start).Round(time.Millisecond)
			fmt.Println(rep)
			if *stats {
				printStats(rep)
			}
			fmt.Printf("  fingerprint: %s (wall %v)\n", rep.Fingerprint()[:16], wall)
			if err := writeArtifacts(rep, runPath(*traceJSONL, multi, n, v), runPath(*metricsOut, multi, n, v), *timeseries); err != nil {
				return err
			}
			if *check {
				rep2, err := scenario.RunNamed(n, opt)
				if err != nil {
					return err
				}
				if rep.Fingerprint() != rep2.Fingerprint() {
					return fmt.Errorf("scenario %s (%s): repeated run diverged", n, v)
				}
				fmt.Println("  determinism: OK (second run identical)")
			}
			if *trace {
				for _, line := range rep.Trace {
					fmt.Println("  " + line)
				}
			}
			fmt.Println()
		}
	}
	return nil
}

// writeHeapProfile writes the live heap, after a collection, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStats renders the runtime-statistics block from the report's
// metrics-registry snapshot. Everything here is wall-side diagnostics —
// none of it contributes to the fingerprint.
func printStats(rep *scenario.Report) {
	stat := func(name string, labels ...string) float64 {
		v, _ := rep.Obs.Get(name, labels...)
		return v
	}
	fmt.Printf("  engine: %.0f events, peak pending %.0f, heap high-water %.1f MB\n",
		stat("engine_events_total"), stat("peak_pending_events"),
		stat("heap_high_water_bytes")/1e6)
	fmt.Printf("  barriers: %.0f full, %.0f elided (adaptive lookahead)\n",
		stat("barriers_total", "kind", "full"), stat("barriers_total", "kind", "elided"))
	// Wire-level instruments exist only when the run attached the
	// observability plane (-trace-jsonl, -flight or -timeseries).
	if out, ok := rep.Obs.Get("wire_msgs_total", "dir", "out"); ok {
		in, _ := rep.Obs.Get("wire_msgs_total", "dir", "in")
		outB, _ := rep.Obs.Get("wire_bytes_total", "dir", "out")
		fmt.Printf("  wire: %.0f msgs out (%.2f MB), %.0f msgs handled\n", out, outB/1e6, in)
	}
	fmt.Printf("  sync: %.2f MB in %.0f msgs; pool outstanding at end: %.0f data, %.0f push-digest\n",
		stat("state_sync_bytes_total")/1e6, stat("state_sync_msgs_total"),
		stat("pool_outstanding", "pool", "data"), stat("pool_outstanding", "pool", "push_digest"))
	fmt.Printf("  membership: %.0f rumors queued, %.0f sent, %.0f applied; %.0f refutations, %.0f declared dead\n",
		stat("membership_events_total", "kind", "queued"), stat("membership_events_total", "kind", "sent"),
		stat("membership_events_total", "kind", "applied"),
		stat("membership_refutations_total"), stat("membership_dead_declared_total"))
	fmt.Printf("  raft: %.0f entries shipped, %.0f redundant, peak log %.0f entries\n",
		stat("raft_entries_total", "kind", "shipped"), stat("raft_entries_total", "kind", "redundant"),
		stat("raft_log_peak_entries"))
	if ev := stat("trace_events_total"); ev > 0 {
		fmt.Printf("  trace: %.0f structured events\n", ev)
	}
}

// writeArtifacts persists the run's observability outputs: the structured
// event trace as JSONL, the metrics snapshot as JSON, and the time-series
// (next to the metrics file, or on stdout).
func writeArtifacts(rep *scenario.Report, traceJSONL, metricsOut string, timeseries time.Duration) error {
	emit := func(path string, write func(w io.Writer) error) error {
		if path == "-" {
			return write(os.Stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if traceJSONL != "" {
		if err := emit(traceJSONL, func(w io.Writer) error {
			return obs.WriteJSONL(w, rep.Events)
		}); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		if err := emit(metricsOut, rep.Obs.WriteJSON); err != nil {
			return err
		}
	}
	if timeseries > 0 && rep.Series != nil {
		path := "-"
		if metricsOut != "" && metricsOut != "-" {
			path = metricsOut + ".series.json"
		}
		if err := emit(path, rep.Series.WriteJSON); err != nil {
			return err
		}
	}
	if rep.FlightDump != "" {
		fmt.Printf("  flight dump: %s\n", rep.FlightDump)
	}
	return nil
}

// runPath is where one run writes an artifact requested at path: path
// itself for a single run, stdout or no artifact, else
// <stem>.<scenario>.<variant><ext>, so that no run overwrites another's.
func runPath(path string, multi bool, name string, v harness.Variant) string {
	if !multi || path == "" || path == "-" {
		return path
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.%s.%s%s", strings.TrimSuffix(path, ext), name, v, ext)
}

// skipReason says why -scenario all leaves d out, or "" when it runs: the
// entry needs more organizations than the requested topology has — -org-sizes'
// entry count when given, else -orgs. RunNamed would silently bump -orgs (and
// reject a short -org-sizes), which is surprising in a sweep over an explicit
// topology.
func skipReason(d scenario.Def, orgs int, sizes []int) string {
	if len(sizes) > 0 {
		if d.MinOrgs <= len(sizes) {
			return ""
		}
		return fmt.Sprintf("needs >= %d orgs (give -org-sizes %d entries)", d.MinOrgs, d.MinOrgs)
	}
	if d.MinOrgs <= max(orgs, 1) {
		return ""
	}
	return fmt.Sprintf("needs >= %d orgs (run with -orgs %d)", d.MinOrgs, d.MinOrgs)
}

func parseOrgSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("scenarios: bad -org-sizes entry %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

func parseVariants(s string) ([]harness.Variant, error) {
	switch s {
	case "original":
		return []harness.Variant{harness.VariantOriginal}, nil
	case "enhanced":
		return []harness.Variant{harness.VariantEnhanced}, nil
	case "both":
		return []harness.Variant{harness.VariantOriginal, harness.VariantEnhanced}, nil
	}
	return nil, fmt.Errorf("scenarios: unknown variant %q (want original, enhanced or both)", s)
}
