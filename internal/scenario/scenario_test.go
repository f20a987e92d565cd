package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fabricgossip/internal/harness"
)

func TestCatalogHasAtLeastFiveScenarios(t *testing.T) {
	defs := Catalog()
	if len(defs) < 5 {
		t.Fatalf("catalog holds %d scenarios, want >= 5", len(defs))
	}
	for _, d := range defs {
		if d.Name == "" || d.Description == "" || d.Build == nil {
			t.Fatalf("incomplete catalog entry %+v", d)
		}
		orgs := max(1, d.MinOrgs)
		top := Uniform(orgs, 40/orgs)
		if d.Sizes != nil {
			top = Topology{Sizes: d.Sizes(40)}
		}
		sc := d.Build(top)
		if sc.Workload != nil {
			// Transaction-workload entries cut their own chain; the
			// submission window must be scripted.
			if sc.Blocks != 0 {
				t.Fatalf("%s: premade chain next to a workload plane", d.Name)
			}
			hasStart := false
			for _, ev := range sc.Events {
				if _, ok := ev.Action.(StartWorkload); ok {
					hasStart = true
				}
			}
			if !hasStart {
				t.Fatalf("%s: workload scenario never starts its workload", d.Name)
			}
		} else if sc.Blocks <= 0 || sc.BlockInterval <= 0 {
			t.Fatalf("%s: no workload", d.Name)
		}
		if sc.End() <= sc.Warmup {
			t.Fatalf("%s: End() = %v not after warmup", d.Name, sc.End())
		}
	}
}

func TestLookupUnknownScenario(t *testing.T) {
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Fatal("lookup of unknown scenario succeeded")
	}
}

func TestRangeSpec(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, "(none)"},
		{[]int{4}, "4"},
		{[]int{2, 3, 4}, "2..4"},
		{[]int{1, 3, 9}, "(3 peers)"},
	}
	for _, c := range cases {
		if got := rangeSpec(c.in); got != c.want {
			t.Fatalf("rangeSpec(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCrashRestartRecoversEveryPeer(t *testing.T) {
	rep, err := RunNamed("crash-restart", Options{Peers: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksInjected != 10 {
		t.Fatalf("injected %d blocks, want 10", rep.BlocksInjected)
	}
	if rep.Survivors != 30 || rep.CaughtUp != 30 {
		t.Fatalf("caught up %d of %d survivors, want all 30\ntrace:\n%s",
			rep.CaughtUp, rep.Survivors, strings.Join(rep.Trace, "\n"))
	}
	if rep.PendingRecoveries != 0 {
		t.Fatalf("%d pending recoveries", rep.PendingRecoveries)
	}
	// 3 peers crashed after blocks had flowed: each must have recorded a
	// recovery latency.
	if rep.Recoveries.N != 3 {
		t.Fatalf("recorded %d recoveries, want 3\ntrace:\n%s",
			rep.Recoveries.N, strings.Join(rep.Trace, "\n"))
	}
	if rep.Recoveries.Max <= 0 {
		t.Fatal("recovery latency not positive")
	}
	if rep.Overhead < 1.0 {
		t.Fatalf("overhead %.2f below the ideal floor", rep.Overhead)
	}
}

func TestLeaderFailoverRedirectsOrderingService(t *testing.T) {
	rep, err := RunNamed("leader-failover", Options{Peers: 20, Seed: 3, Variant: harness.VariantOriginal})
	if err != nil {
		t.Fatal(err)
	}
	// After the leader crash, deliveries must switch to peer 1.
	var sawFailover bool
	for _, line := range rep.Trace {
		if strings.Contains(line, "-> peer 1") {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Fatalf("ordering service never failed over\ntrace:\n%s", strings.Join(rep.Trace, "\n"))
	}
	if rep.Survivors != 20 || rep.CaughtUp != 20 {
		t.Fatalf("caught up %d of %d survivors\ntrace:\n%s",
			rep.CaughtUp, rep.Survivors, strings.Join(rep.Trace, "\n"))
	}
	// The rejoined ex-leader recorded its catch-up.
	if rep.Recoveries.N != 1 {
		t.Fatalf("recorded %d recoveries, want 1", rep.Recoveries.N)
	}
}

func TestStaggeredJoinWavesCatchUp(t *testing.T) {
	rep, err := RunNamed("staggered-join", Options{Peers: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Survivors != 24 || rep.CaughtUp != 24 {
		t.Fatalf("caught up %d of %d survivors\ntrace:\n%s",
			rep.CaughtUp, rep.Survivors, strings.Join(rep.Trace, "\n"))
	}
	// All 12 initially-down peers joined after blocks flowed: every one
	// must have a recovery sample.
	if rep.Recoveries.N != 12 {
		t.Fatalf("recorded %d recoveries, want 12", rep.Recoveries.N)
	}
}

func TestMembershipTransitionsObserved(t *testing.T) {
	rep, err := RunNamed("crash-restart", Options{Peers: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Every survivor observes the crashed peers dying and rejoining, plus
	// the initial wave of first heartbeats; the exact count is seeded but
	// it must be well above the initial n*(n-1) live observations.
	if rep.Transitions <= 20*19 {
		t.Fatalf("transitions = %d, want > initial view formation (%d)", rep.Transitions, 20*19)
	}
}

func TestRunRejectsOutOfRangeActionPeers(t *testing.T) {
	sc := Scenario{
		Name:          "bad-index",
		Blocks:        2,
		BlockInterval: time.Second,
		Events: []Event{
			{At: time.Second, Action: CrashPeers{Peers: []int{10}}},
		},
	}
	if _, err := Run(sc, Options{Peers: 10}); err == nil {
		t.Fatal("scenario naming peer 10 of 10 accepted")
	}
}

func TestRunRejectsOutOfRangePartitionSplit(t *testing.T) {
	for _, split := range []int{0, 10, 11} {
		sc := Scenario{
			Name:          "bad-split",
			Blocks:        2,
			BlockInterval: time.Second,
			Events: []Event{
				{At: time.Second, Action: PartitionSplit{Split: split}},
			},
		}
		if _, err := Run(sc, Options{Peers: 10}); err == nil {
			t.Fatalf("split %d of 10 peers accepted", split)
		}
	}
}

// Every action that names a peer, an organization, a consenter or a split
// point is range-checked against the topology before anything is built:
// one index past either end of the range fails Run with an error naming
// the unit and its bounds.
func TestRunRejectsOutOfRangeIndices(t *testing.T) {
	// 10 peers in 2 orgs, 3 consenters.
	cases := []struct {
		action func(i int) Action
		unit   string
		lo, hi int
	}{
		{func(i int) Action { return CrashPeers{Peers: []int{0, i}} }, "peer", 0, 10},
		{func(i int) Action { return RestartPeers{Peers: []int{i}} }, "peer", 0, 10},
		{func(i int) Action { return SlowPeers{Peers: []int{i}, Extra: time.Second} }, "peer", 0, 10},
		{func(i int) Action { return PartitionSplit{Split: i} }, "split point", 1, 10},
		{func(i int) Action { return CrashOrg{Org: i} }, "org", 0, 2},
		{func(i int) Action { return RestartOrg{Org: i} }, "org", 0, 2},
		{func(i int) Action { return CrashOrgLeader{Org: i} }, "org", 0, 2},
		{func(i int) Action { return IsolateOrgs{Orgs: []int{0, i}} }, "org", 0, 2},
		{func(i int) Action { return CrashConsenter{Consenter: i} }, "consenter", 0, 3},
		{func(i int) Action { return RestartConsenter{Consenter: i} }, "consenter", 0, 3},
		{func(i int) Action { return IsolateConsenters{Consenters: []int{i}} }, "consenter", 0, 3},
	}
	for _, tc := range cases {
		for _, i := range []int{tc.lo - 1, tc.hi} {
			sc := Scenario{
				Name:          "bad-index",
				Blocks:        2,
				BlockInterval: time.Second,
				Consenters:    3,
				Events:        []Event{{At: time.Second, Action: tc.action(i)}},
			}
			_, err := Run(sc, Options{Peers: 10, Orgs: 2})
			want := fmt.Sprintf("names %s %d, outside [%d, %d)", tc.unit, i, tc.lo, tc.hi)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%q: error %v, want one saying %q", tc.action(i), err, want)
			}
		}
	}
}

func TestRunRejectsAllPeersInitiallyDown(t *testing.T) {
	sc := Scenario{
		Name:          "bad",
		Blocks:        1,
		BlockInterval: time.Second,
		InitialDown:   span(0, 10),
	}
	if _, err := Run(sc, Options{Peers: 10}); err == nil {
		t.Fatal("scenario with every peer initially down accepted")
	}
}

// Peer 0 starting down is legal now that the ordering service streams the
// backlog to whichever leader eventually appears: the org's lowest-id peer
// cold-joins and replays the chain from its own height.
func TestRunAllowsLeaderInInitialDown(t *testing.T) {
	sc := Scenario{
		Name:          "cold-leader",
		Blocks:        4,
		BlockInterval: 300 * time.Millisecond,
		Warmup:        time.Second,
		Tail:          30 * time.Second,
		InitialDown:   []int{0},
		Events: []Event{
			{At: 4 * time.Second, Action: RestartPeers{Peers: []int{0}}},
		},
	}
	rep, err := Run(sc, Options{Peers: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Survivors != 10 || rep.CaughtUp != 10 {
		t.Fatalf("caught up %d of %d survivors\ntrace:\n%s",
			rep.CaughtUp, rep.Survivors, strings.Join(rep.Trace, "\n"))
	}
}

func TestRunRejectsIndivisibleOrgLayout(t *testing.T) {
	sc := Scenario{Name: "bad-split", Blocks: 1, BlockInterval: time.Second}
	if _, err := Run(sc, Options{Peers: 10, Orgs: 3}); err == nil {
		t.Fatal("10 peers across 3 orgs accepted")
	}
}

func TestRunRejectsOutOfRangeOrgActions(t *testing.T) {
	sc := Scenario{
		Name:          "bad-org",
		Blocks:        1,
		BlockInterval: time.Second,
		Events: []Event{
			{At: time.Second, Action: CrashOrg{Org: 2}},
		},
	}
	if _, err := Run(sc, Options{Peers: 10, Orgs: 2}); err == nil {
		t.Fatal("event naming org 2 of 2 accepted")
	}
}

// Scenario-level regression for the recovery-liveness fix: the most
// advanced peer (the leader, first to hold every block) crashes while a
// cold-joined peer is mid-catch-up. The laggard's advertised-height view
// still contains the dead leader at the maximum height; recovery must stop
// targeting it once the membership view expires it, and the laggard must
// converge within the tail.
func TestRecoveryConvergesWhenMostAdvancedPeerCrashes(t *testing.T) {
	sc := Scenario{
		Name:          "crash-most-advanced",
		Blocks:        6,
		BlockInterval: 300 * time.Millisecond,
		Warmup:        time.Second,
		Tail:          40 * time.Second,
		InitialDown:   []int{3},
		Events: []Event{
			// The laggard rejoins after injection finished, learns every
			// peer's height, and before its first recovery round fires the
			// leader — one of its max-height candidates — crashes.
			{At: 4 * time.Second, Action: RestartPeers{Peers: []int{3}}},
			{At: 4500 * time.Millisecond, Action: CrashLeader{}},
		},
	}
	for _, variant := range []harness.Variant{harness.VariantOriginal, harness.VariantEnhanced} {
		rep, err := Run(sc, Options{Peers: 4, Seed: 9, Variant: variant})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Survivors != 3 || rep.CaughtUp != 3 {
			t.Fatalf("%s: caught up %d of %d survivors\ntrace:\n%s",
				variant, rep.CaughtUp, rep.Survivors, strings.Join(rep.Trace, "\n"))
		}
		if rep.PendingRecoveries != 0 {
			t.Fatalf("%s: laggard never converged\ntrace:\n%s",
				variant, strings.Join(rep.Trace, "\n"))
		}
		if rep.Recoveries.N != 1 {
			t.Fatalf("%s: recorded %d recoveries, want 1", variant, rep.Recoveries.N)
		}
	}
}

func TestMultiOrgCatalogEntriesConverge(t *testing.T) {
	for _, name := range []string{"org-partition-heal", "org-leader-failover", "org-cold-join", "org-mixed-protocols"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := RunNamed(name, Options{Peers: 30, Orgs: 3, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Orgs != 3 || len(rep.OrgReports) != 3 {
				t.Fatalf("org breakdown missing: %+v", rep.OrgReports)
			}
			if rep.Survivors != 30 || rep.CaughtUp != 30 {
				t.Fatalf("caught up %d of %d survivors\ntrace:\n%s",
					rep.CaughtUp, rep.Survivors, strings.Join(rep.Trace, "\n"))
			}
			for _, or := range rep.OrgReports {
				if or.Delivered != rep.BlocksInjected {
					t.Fatalf("org %d delivered %d of %d blocks", or.Org, or.Delivered, rep.BlocksInjected)
				}
			}
		})
	}
}

// RunNamed must bump the organization count to a multi-org entry's minimum
// when the caller asks for fewer.
func TestRunNamedBumpsToMinOrgs(t *testing.T) {
	rep, err := RunNamed("org-cold-join", Options{Peers: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orgs != 2 {
		t.Fatalf("orgs = %d, want the entry's minimum of 2", rep.Orgs)
	}
	if rep.Survivors != 20 || rep.CaughtUp != 20 {
		t.Fatalf("caught up %d of %d survivors", rep.CaughtUp, rep.Survivors)
	}
}

func TestMixedProtocolOrgsReportTheirVariants(t *testing.T) {
	rep, err := RunNamed("org-mixed-protocols", Options{Peers: 20, Orgs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrgReports[0].Variant != string(harness.VariantOriginal) ||
		rep.OrgReports[1].Variant != string(harness.VariantEnhanced) {
		t.Fatalf("org variants = %s/%s, want original/enhanced",
			rep.OrgReports[0].Variant, rep.OrgReports[1].Variant)
	}
}

func TestReportStringAndFingerprintStable(t *testing.T) {
	rep, err := RunNamed("slow-links", Options{Peers: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "scenario slow-links") {
		t.Fatalf("report header missing:\n%s", rep)
	}
	if rep.Fingerprint() != rep.Fingerprint() {
		t.Fatal("fingerprint not stable on the same report")
	}
}
