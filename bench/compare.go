package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads the untraced records of a results.jsonl file, grouped
// by workload.
func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// compareFiles applies each end-to-end metric's direction and bound to two
// sets of runs, A the parent and B the change: one row per (workload,
// metric) with both medians and quartiles. A pair is
//
//   - regressed when B's median is worse than A's by more than the bound;
//   - unresolved when A's own spread (quartile distance over median) exceeds
//     the bound, so the comparison cannot tell either way;
//   - drift when a simulated metric differs at all between the two sides on
//     the same seed: simulated numbers are exact per seed, so any change is
//     a change of protocol behaviour and must be deliberate.
//
// It reports false on any regression, drift, or rise in failed operations.
// Unresolved rows are printed but do not fail the comparison by themselves.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-20s %-26s %12s %25s %8s %12s %25s %8s  %s\n",
		"workload", "metric", "A median", "A quartiles", "A spread", "B median", "B quartiles", "change", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-20s missing on one side (%d runs in A, %d in B)\n", wl.Name, len(ra), len(rb))
			ok = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := column(ra, m.Name), column(rb, m.Name)
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case wl.Simulated && m.SimExact && drifted(ra, rb, m.Name):
				verdict, ok = "drift", false
			case worse > m.Bound:
				verdict, ok = "REGRESSED", false
			case (a3-a1)/ma > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-20s %-26s %12.6g %12.6g-%-12.6g %7.2f%% %12.6g %12.6g-%-12.6g %+7.2f%%  %s\n",
				wl.Name, m.Name, ma, a1, a3, 100*(a3-a1)/ma, mb, b1, b3, 100*change, verdict)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		verdict := "ok"
		if fb > fa {
			verdict, ok = "REGRESSED", false
		}
		fmt.Fprintf(w, "%-20s %-26s %12.6g %25s %8s %12.6g %25s %8s  %s\n", wl.Name, "failed_share", fa, "", "", fb, "", "", verdict)
	}
	return ok, nil
}

func column(rs []*record, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// drifted reports whether any seed present on both sides gives the metric
// two different values.
func drifted(ra, rb []*record, metric string) bool {
	bySeed := map[int64]float64{}
	for _, r := range ra {
		bySeed[r.Seed] = r.Metrics[metric].Value
	}
	for _, r := range rb {
		if v, ok := bySeed[r.Seed]; ok && v != r.Metrics[metric].Value {
			return true
		}
	}
	return false
}

func failedShare(rs []*record) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
