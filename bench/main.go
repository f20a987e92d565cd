// Command bench is the repository's benchmark: seven workloads over the
// simulator and the live TCP runtime, end-to-end metrics measured with
// tracing off, and a traced pass that attributes cost to layers. See
// README.md; BENCHMARK.json at the repository root is its contract.
//
//	go run -C bench . --workload sim-crash-10k --seed 1 --seconds 15 --trace 0
//	go run -C bench . -workload all -trace 1
//	go run -C bench . -compare out/a/results.jsonl out/b/results.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", runSeconds, "time budget of one run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	out := flag.String("out", "out", "directory for results.jsonl and the span files")
	compare := flag.Bool("compare", false, "compare two results.jsonl files given as arguments")
	spec := flag.Bool("spec", false, "print BENCHMARK.json")
	child := flag.Bool("rep", false, "run one untraced repetition and print it as one JSON line (what a timed run starts per repetition)")
	flag.Parse()

	switch {
	case *spec:
		js, err := specJSON()
		if err != nil {
			die(err)
		}
		os.Stdout.Write(js)
	case *compare:
		if flag.NArg() != 2 {
			die(fmt.Errorf("-compare wants two results.jsonl files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			die(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *child:
		// Exit with the parent: it holds the other end of standard input.
		go func() {
			io.Copy(io.Discard, os.Stdin)
			os.Exit(3)
		}()
		w, ok := lookupWorkload(*workload)
		if !ok {
			die(fmt.Errorf("unknown workload %q", *workload))
		}
		l, err := oneRep(w, *seed, false, *out)
		if err != nil {
			die(err)
		}
		line, err := json.Marshal(l)
		if err != nil {
			die(err)
		}
		fmt.Println(string(line))
	default:
		if _, err := buildSpec(); err != nil {
			die(err)
		}
		var run []workloadDef
		if *workload == "all" {
			run = workloads
		} else if w, ok := lookupWorkload(*workload); ok {
			run = []workloadDef{w}
		} else {
			die(fmt.Errorf("unknown workload %q", *workload))
		}
		ok := true
		for _, w := range run {
			rec, err := runOne(w, *seed, *seconds, *trace, *out)
			if err != nil {
				die(err)
			}
			ok = ok && rec.Correct
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload, prints its metrics by name with their units,
// appends the record to <out>/results.jsonl and prints the contract's
// result object as the last line.
func runOne(w workloadDef, seed int64, seconds, trace int, outDir string) (*record, error) {
	var rec *record
	var err error
	if trace == 0 {
		rec, err = runTimed(w, seed, seconds, false, true, outDir)
	} else {
		rec, err = runTraced(w, seed, seconds, false, outDir)
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s seed=%d trace=%d reps=%d dissem_tail=%s over %d samples\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Reps, rec.TailPercentile, rec.Samples)
	for i, l := range rec.PerRep {
		fmt.Printf("  rep %d: setup %.4f s, wall %.4f s, heap/peer %.4g B, p50 %.4f ms, tail %.4f ms\n",
			i, l.SetupS, l.WallS, l.HeapPerPeer, l.P50Ms, l.TailMs)
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("  %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range rec.Failures {
		fmt.Println("  FAILED:", f)
	}
	if err := appendRecord(filepath.Join(outDir, "results.jsonl"), rec); err != nil {
		return nil, err
	}
	line, err := json.Marshal(rec.outcome)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return rec, nil
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// env is where a record was measured.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	e := env{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}
