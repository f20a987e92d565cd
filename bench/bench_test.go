package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSON pins BENCHMARK.json to the program: the file lists
// exactly the workloads and metrics the tables in spec.go declare (and
// runTimed/runTraced emit — see TestWorkloadsToy), within the contract's
// limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `go run -C bench . -spec`; regenerate it")
	}
	if len(want) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
}

// TestWorkloadsToy smokes every workload at toy scale through both passes:
// the run is correct, same-seed repetitions agree, every declared metric is
// emitted and nothing undeclared is.
func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			rec, err := runTimed(w, 1, 0, true, false, out)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 || rec.Reps < 2 {
				t.Fatalf("timed run: correct=%v attempted=%d failed=%d reps=%d %v", rec.Correct, rec.Attempted, rec.Failed, rec.Reps, rec.Failures)
			}
			if len(rec.Metrics) != len(endToEnd) {
				t.Fatalf("timed run emitted %d metrics, want %d", len(rec.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := rec.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("end-to-end %s = %+v", m.Name, v)
				}
			}

			rec, err = runTraced(w, 1, 0, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Fatalf("traced run: %v", rec.Failures)
			}
			if len(rec.Metrics) != len(perLayer) {
				t.Fatalf("traced run emitted %d metrics, want %d", len(rec.Metrics), len(perLayer))
			}
			if w.Simulated {
				for _, name := range []string{"sim.events", "transport.sim_msgs", "sim.busy_s", "sim.dispatch_ns"} {
					if rec.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v", name, rec.Metrics[name].Value)
					}
				}
			} else {
				for _, name := range []string{"transport.tcp_send_ns", "gossip.tcp_handle_self_ns", "transport.tcp_frames"} {
					if rec.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v", name, rec.Metrics[name].Value)
					}
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("span file: %v", err)
				}
			}
		})
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v", q1, q3, median(xs))
	}
}

// TestCompare drives -compare over synthetic result files: identical sets
// pass; a median past its bound, a simulated value that differs on the same
// seed, and a higher failed share each fail; a noisy parent is unresolved.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// write renders one results.jsonl: every workload, three seeds, every
	// end-to-end metric at 100 scaled by tweak(workload, metric, seed).
	write := func(name string, failed int, tweak func(w, m string, seed int64) float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			for seed := int64(1); seed <= 3; seed++ {
				rec := &record{Workload: w.Name, Seed: seed, outcome: outcome{
					Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{},
				}}
				for _, m := range endToEnd {
					rec.Metrics[m.Name] = metricValue{Value: 100 * tweak(w.Name, m.Name, seed), Unit: m.Unit}
				}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	same := func(string, string, int64) float64 { return 1 }
	base := write("base.jsonl", 0, same)

	cases := []struct {
		name    string
		other   string
		ok      bool
		verdict string
	}{
		{"identical", write("same.jsonl", 0, same), true, ""},
		{"regressed", write("slow.jsonl", 0, func(w, m string, _ int64) float64 {
			if w == "tcp-small" && m == "wall_s" {
				return 1.3
			}
			return 1
		}), false, "REGRESSED"},
		{"within bound", write("ok.jsonl", 0, func(w, m string, _ int64) float64 {
			if w == "tcp-small" && m == "wall_s" {
				return 1.2
			}
			return 1
		}), true, ""},
		{"drift", write("drift.jsonl", 0, func(w, m string, _ int64) float64 {
			if w == "sim-txload" && m == "dissem_p50_ms" {
				return 1.001
			}
			return 1
		}), false, "drift"},
		{"failed share", write("failed.jsonl", 1, same), false, "REGRESSED"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, c.other)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || (c.verdict != "" && !strings.Contains(out.String(), c.verdict)) {
			t.Errorf("%s: ok=%v want %v, verdict %q\n%s", c.name, ok, c.ok, c.verdict, out.String())
		}
	}

	noisy := write("noisy.jsonl", 0, func(w, m string, seed int64) float64 {
		if w == "tcp-paper" && m == "wall_s" {
			return 1 + 0.4*float64(seed-2)
		}
		return 1
	})
	var out bytes.Buffer
	if ok, err := compareFiles(&out, noisy, base); err != nil || !ok || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy parent: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
