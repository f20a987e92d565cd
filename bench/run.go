package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rep is what one repetition of a workload measured: one set-up, one timed
// section, the outputs checked.
type rep struct {
	setup time.Duration
	measured

	peers  int
	blocks int
	// samples first-reception latencies gave p50 and tail (tailName says
	// which percentile the sample size supports).
	p50, tail time.Duration
	tailName  string
	samples   int
	// netBytes is every byte that left a NIC during the timed section.
	netBytes uint64

	// attempted and failed count operations (see README, "failed"): each
	// entry of failures explains one or more failed operations.
	attempted int
	failed    int
	failures  []string

	// fingerprint identifies the simulated outcome; same-seed repetitions
	// must agree on it. Empty on the host-timed tcp workloads.
	fingerprint string

	// layer holds this repetition's per-layer counts and timings, by
	// metric name. buildS and chainS split setup for the harness layer.
	layer  map[string]float64
	buildS float64
	chainS float64
	// cost feeds the layer table (sim workloads, traced repetition only).
	cost *costCounts
}

func (r *rep) fail(n int, format string, args ...any) {
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// repFunc runs one repetition; traced turns the observability plane (sim)
// or the span decorators (tcp) on.
type repFunc func(traced bool) (*rep, error)

// workloadDef is one benchmark workload. New generates the inputs from the
// seed and returns the repetition function plus the input shape the layer
// drills imitate. Toy shrinks the workload for the package's smoke tests.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Simulated workloads run on the virtual clock: their SimExact metrics
	// repeat exactly per seed.
	Simulated bool                                                                   `json:"-"`
	New       func(seed int64, toy bool, outDir string) (repFunc, drillShape, error) `json:"-"`
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the contract's result object: the last line a run prints.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as appended to <out>/results.jsonl: the outcome plus
// what -compare and a reader need to place it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	Reps     int    `json:"reps"`
	// PerRep is each repetition as measured, for telling a noisy run from a
	// shifted one.
	PerRep   []repLine `json:"per_rep"`
	Failures []string  `json:"failures,omitempty"`
	// TailPercentile and Samples qualify dissem_tail_ms.
	TailPercentile string `json:"tail_percentile,omitempty"`
	Samples        int    `json:"samples,omitempty"`
	Env            env    `json:"env"`
	outcome
}

// repLine is what a timed run keeps of one repetition: the end-to-end figures
// and the correctness counts. It is also the one line a repetition's own
// process prints (see isolatedRep).
type repLine struct {
	SetupS          float64  `json:"setup_s"`
	WallS           float64  `json:"wall_s"`
	HeapPerPeer     float64  `json:"heap_per_peer"`
	P50Ms           float64  `json:"p50_ms"`
	TailMs          float64  `json:"tail_ms"`
	NetPerPeerBlock float64  `json:"net_per_peer_block"`
	TailName        string   `json:"tail_name"`
	Samples         int      `json:"samples"`
	Attempted       int      `json:"attempted"`
	Failed          int      `json:"failed"`
	Failures        []string `json:"failures,omitempty"`
	Fingerprint     string   `json:"fingerprint,omitempty"`
}

func (r *rep) line() repLine {
	return repLine{
		SetupS: r.setup.Seconds(), WallS: r.wall.Seconds(),
		HeapPerPeer: float64(r.heapPeak) / float64(r.peers),
		P50Ms:       ms(r.p50), TailMs: ms(r.tail),
		NetPerPeerBlock: float64(r.netBytes) / float64(r.peers) / float64(r.blocks),
		TailName:        r.tailName, Samples: r.samples,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Fingerprint: r.fingerprint,
	}
}

// oneRep generates the inputs and runs a single untraced repetition.
func oneRep(w workloadDef, seed int64, toy bool, outDir string) (repLine, error) {
	run, _, err := w.New(seed, toy, outDir)
	if err != nil {
		return repLine{}, err
	}
	r, err := run(false)
	if err != nil {
		return repLine{}, err
	}
	return r.line(), nil
}

// isolatedRep runs one repetition in a process of its own — this program
// again, with -rep — and reads the line it prints. Repetitions that share a
// process are not repetitions of the same thing: wire.blockSizes and
// wire.blockEncs keep every block ever sized, so the heap a repetition starts
// on grew by 180 MB (paper-100) to 320 MB (tcp-paper) per repetition before
// it, and on tcp-paper the eighth repetition's wall time and p95 were 1.4x
// and 2x the first's. The parent only waits while the child runs, so the load
// still comes from one process at a time.
func isolatedRep(w workloadDef, seed int64, outDir string) (repLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return repLine{}, err
	}
	cmd := exec.Command(exe, "-rep", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-out", outDir)
	cmd.Stderr = os.Stderr
	// The child exits when its standard input closes, so it cannot outlive a
	// parent that is killed; Output closes the pipe once the child has ended.
	if _, err := cmd.StdinPipe(); err != nil {
		return repLine{}, err
	}
	out, err := cmd.Output()
	if err != nil {
		return repLine{}, err
	}
	var l repLine
	if err := json.Unmarshal(out, &l); err != nil {
		return repLine{}, fmt.Errorf("repetition printed %q: %w", out, err)
	}
	return l, nil
}

// runTimed is the --trace 0 run: repetitions with tracing off until the time
// budget is spent (at least two, so same-seed determinism is always
// checked), each in its own process when isolate is set. Times (setup_s,
// wall_s and the two latencies, which are host times on the tcp workloads and
// the same on every repetition of a simulated one) are the fastest
// repetition's: interference on a shared box only ever adds time, for tens of
// seconds at a stretch, so the minimum is the least disturbed observation
// where a median would carry the disturbance. Memory and bytes are the median
// over repetitions.
func runTimed(w workloadDef, seed int64, seconds int, toy, isolate bool, outDir string) (*record, error) {
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	var reps []repLine
	var last time.Duration
	for len(reps) < 2 || time.Since(start)+last <= budget {
		t0 := time.Now()
		var l repLine
		var err error
		if isolate {
			l, err = isolatedRep(w, seed, outDir)
		} else {
			l, err = oneRep(w, seed, toy, outDir)
		}
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.Name, len(reps), err)
		}
		reps = append(reps, l)
		last = time.Since(t0)
	}
	rec := newRecord(w, seed, 0, seconds, reps)
	col := func(f func(repLine) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, l := range reps {
			xs[i] = f(l)
		}
		return xs
	}
	values := map[string]float64{
		"setup_s":                  slices.Min(col(func(l repLine) float64 { return l.SetupS })),
		"wall_s":                   slices.Min(col(func(l repLine) float64 { return l.WallS })),
		"heap_peak_bytes_per_peer": median(col(func(l repLine) float64 { return l.HeapPerPeer })),
		"dissem_p50_ms":            slices.Min(col(func(l repLine) float64 { return l.P50Ms })),
		"dissem_tail_ms":           slices.Min(col(func(l repLine) float64 { return l.TailMs })),
		"net_bytes_per_peer_block": median(col(func(l repLine) float64 { return l.NetPerPeerBlock })),
	}
	for _, m := range endToEnd {
		v, ok := values[m.Name]
		if !ok || v <= 0 {
			rec.Correct = false
			rec.Failures = append(rec.Failures, fmt.Sprintf("end-to-end metric %s has no positive value (%v)", m.Name, v))
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return rec, nil
}

// runTraced is the --trace 1 run: one untraced repetition as the reference,
// one traced repetition for the counts and spans, the layer drills, and the
// layer table. Its end-to-end numbers are never reported.
func runTraced(w workloadDef, seed int64, seconds int, toy bool, outDir string) (*record, error) {
	run, shape, err := w.New(seed, toy, outDir)
	if err != nil {
		return nil, err
	}
	plain, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("%s untraced rep: %w", w.Name, err)
	}
	traced, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("%s traced rep: %w", w.Name, err)
	}
	rec := newRecord(w, seed, 1, seconds, []repLine{plain.line(), traced.line()})

	drillTime := 25 * time.Millisecond
	if toy {
		drillTime = time.Millisecond
	}
	if traced.layer["sim.peak_pending"] > 0 {
		shape.pending = int(traced.layer["sim.peak_pending"])
	}
	values := runDrills(shape, seed, drillTime)
	for k, v := range traced.layer {
		values[k] = v
	}
	values["harness.build_s"] = traced.buildS
	values["harness.chain_build_s"] = traced.chainS
	values["obs.trace_overhead_pct"] = 100 * (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
	values["bench.cpu_s"] = plain.cpu.Seconds()
	values["bench.gc_cpu_s"] = plain.gcCPU.Seconds()
	// Both bases follow a collection, so their difference is what the
	// untraced repetition left reachable.
	values["bench.retained_bytes_per_rep"] = max(0, float64(traced.heapBase)-float64(plain.heapBase))
	values["bench.dissem_samples"] = float64(traced.samples)
	values["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	if w.Simulated {
		if e := values["sim.events"]; e > 0 {
			values["sim.ns_per_event"] = float64(plain.wall.Nanoseconds()) / e
		}
		fmt.Print(layerTable(w.Name, traced, shape.members, values))
	}

	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
		rec.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	var stray []string
	for k := range values {
		if !known[k] {
			stray = append(stray, k)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		rec.Correct = false
		rec.Failures = append(rec.Failures, "metrics emitted but not declared: "+strings.Join(stray, " "))
	}
	return rec, nil
}

// newRecord folds the repetitions' correctness into a record: operations
// attempted and failed summed over repetitions, plus the same-seed
// determinism check on the simulated workloads.
func newRecord(w workloadDef, seed int64, trace, seconds int, reps []repLine) *record {
	rec := &record{
		Workload: w.Name, Seed: seed, Trace: trace, Seconds: seconds, Reps: len(reps), PerRep: reps,
		TailPercentile: reps[0].TailName, Samples: reps[0].Samples,
		Env:     currentEnv(),
		outcome: outcome{Metrics: map[string]metricValue{}},
	}
	for i, r := range reps {
		rec.Attempted += r.Attempted
		rec.Failed += r.Failed
		rec.Failures = append(rec.Failures, r.Failures...)
		if w.Simulated && r.Fingerprint != reps[0].Fingerprint {
			// A run that is not a function of its seed voids every
			// simulated number it reports.
			rec.Failed += r.Attempted
			rec.Failures = append(rec.Failures,
				fmt.Sprintf("rep %d fingerprint %.12s differs from rep 0 %.12s on the same seed", i, r.Fingerprint, reps[0].Fingerprint))
		}
	}
	if rec.Failed > rec.Attempted {
		rec.Failed = rec.Attempted
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec
}
