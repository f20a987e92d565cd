package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fabricgossip/internal/scenario"
)

// TestSkipReasonCountsOrgSizes pins which catalog entries -scenario all
// skips: an -org-sizes layout counts its entries as the org count, so four
// sizes run every entry and two skip only the three-org consortium.
func TestSkipReasonCountsOrgSizes(t *testing.T) {
	var multiOrg []string
	for _, d := range scenario.Catalog() {
		if d.MinOrgs > 1 {
			multiOrg = append(multiOrg, d.Name)
		}
	}
	for _, c := range []struct {
		name  string
		orgs  int
		sizes []int
		want  []string
		hint  string
	}{
		{"-orgs 1", 1, nil, multiOrg, "-orgs"},
		{"-orgs 4", 4, nil, nil, ""},
		{"-org-sizes 8,8,8,8", 1, []int{8, 8, 8, 8}, nil, ""},
		{"-org-sizes 8,8", 1, []int{8, 8}, []string{"org-asym-consortium"}, "-org-sizes"},
	} {
		var skipped []string
		for _, d := range scenario.Catalog() {
			why := skipReason(d, c.orgs, c.sizes)
			if why == "" {
				continue
			}
			skipped = append(skipped, d.Name)
			if !strings.Contains(why, c.hint) {
				t.Errorf("%s: %s skipped with %q, want a hint naming %s", c.name, d.Name, why, c.hint)
			}
		}
		if !reflect.DeepEqual(skipped, c.want) {
			t.Errorf("%s: skipped %v, want %v", c.name, skipped, c.want)
		}
	}
}

// A failing run still writes both profiles: the CPU profile of what ran and
// the heap profile at exit.
func TestFailingRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	err := run([]string{"-scenario", "crash-restart,nonexistent", "-peers", "20", "-cpuprofile", cpu, "-memprofile", mem})
	if err == nil || !strings.Contains(err.Error(), "nonexistent") {
		t.Fatalf("run = %v, want the unknown scenario's error", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s after a failing run: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}

// Several runs write one artifact each, named after the run; a single run
// writes the exact path it was given.
func TestArtifactsPerRun(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scenario", "crash-restart,churn", "-peers", "20", "-variant", "both",
		"-metrics-out", filepath.Join(dir, "m.json"), "-trace-jsonl", filepath.Join(dir, "t.jsonl")}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", "churn", "-peers", "20", "-metrics-out", filepath.Join(dir, "one.json")}); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, name := range []string{"crash-restart", "churn"} {
		for _, v := range []string{"original", "enhanced"} {
			want = append(want, "m."+name+"."+v+".json", "t."+name+"."+v+".jsonl")
		}
	}
	want = append(want, "one.json")
	for _, f := range want {
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty artifact", f, err)
		}
	}
	if got, _ := filepath.Glob(filepath.Join(dir, "*")); len(got) != len(want) {
		t.Errorf("wrote %d files, want %d: %v", len(got), len(want), got)
	}
}
