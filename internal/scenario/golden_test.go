package scenario

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"fabricgossip/internal/harness"
)

// goldenPath holds the checked-in per-scenario report fingerprints. Each
// line is "<scenario>/<variant>/peers=<n>/seed=<s> <sha256>".
const goldenPath = "testdata/fingerprints.golden"

type goldenCase struct {
	name string
	opt  Options
}

// goldenCases enumerates the full catalog for both protocol variants at a
// fixed small scale (the same runs are deterministic at any scale; 20 peers
// keeps the suite fast). org-mixed-protocols pins a protocol per org, so a
// variant sweep would repeat the same epidemic under two labels — it runs
// once, like in CI.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, d := range Catalog() {
		variants := []harness.Variant{harness.VariantOriginal, harness.VariantEnhanced}
		if d.Name == "org-mixed-protocols" {
			variants = variants[1:]
		}
		for _, v := range variants {
			cases = append(cases, goldenCase{
				name: d.Name,
				opt:  Options{Peers: 20, Seed: 42, Variant: v},
			})
		}
	}
	return cases
}

func goldenKey(name string, opt Options) string {
	return fmt.Sprintf("%s/%s/peers=%d/seed=%d", name, opt.Variant, opt.Peers, opt.Seed)
}

// TestGoldenFingerprints locks the byte-exact output of every catalog
// scenario: any change to the hot path (event pooling, traffic accounting,
// peer sampling) that shifts even one random draw or reorders one event
// moves a fingerprint and fails here. Regenerate deliberately with
//
//	UPDATE_GOLDEN=1 go test ./internal/scenario -run TestGoldenFingerprints
//
// and review the diff like any other behavior change.
func TestGoldenFingerprints(t *testing.T) {
	got := make(map[string]string)
	var keys []string
	for _, c := range goldenCases() {
		key := goldenKey(c.name, c.opt)
		rep, err := RunNamed(c.name, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = rep.Fingerprint()
		keys = append(keys, key)
	}
	sort.Strings(keys)

	if os.Getenv("UPDATE_GOLDEN") != "" {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(keys), goldenPath)
		return
	}

	want, err := readGolden(t)
	if err != nil {
		t.Fatalf("reading %s (regenerate with UPDATE_GOLDEN=1): %v", goldenPath, err)
	}
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate with UPDATE_GOLDEN=1)", k)
			continue
		}
		if got[k] != w {
			t.Errorf("%s: fingerprint drifted\n  golden: %s\n  got:    %s", k, w, got[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: stale golden entry for a case the suite no longer runs", k)
		}
	}
}

func readGolden(t *testing.T) (map[string]string, error) {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("malformed golden line %q", line)
		}
		out[fields[0]] = fields[1]
	}
	return out, sc.Err()
}

// TestGoldenAtOneAndTwoProcs replays the lossy, churning and mixed entries
// at GOMAXPROCS 1 and 2. A scenario's network is on the window coordinator
// and draws its delays inline whatever the number of cores (only a
// single-engine network draws them ahead, see transport.NewSimNetwork), so
// both must reproduce the goldens.
func TestGoldenAtOneAndTwoProcs(t *testing.T) {
	want, err := readGolden(t)
	if err != nil {
		t.Fatalf("reading %s: %v", goldenPath, err)
	}
	names := map[string]bool{"flaky-network": true, "org-flapping-members": true, "org-mixed-protocols": true, "crash-restart": true}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		ran := 0
		for _, c := range goldenCases() {
			if !names[c.name] {
				continue
			}
			key := goldenKey(c.name, c.opt)
			rep, err := RunNamed(c.name, c.opt)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %s: %v", procs, key, err)
			}
			if got := rep.Fingerprint(); got != want[key] {
				t.Errorf("GOMAXPROCS %d, %s: fingerprint %s, golden %s", procs, key, got, want[key])
			}
			ran++
		}
		if ran != 7 {
			t.Fatalf("GOMAXPROCS %d: %d golden cases ran, want 7", procs, ran)
		}
	}
}
