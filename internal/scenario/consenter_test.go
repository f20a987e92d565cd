package scenario

import (
	"strings"
	"testing"
	"time"
)

// The acceptance bar for the ordering cluster: with one of three
// consenters crashed the remaining majority keeps ordering, the workload's
// books balance exactly (every submitted transaction either commits or
// conflicts — nothing is lost in the failover), and every surviving peer
// ends caught up.
func TestConsenterMinorityLossSustainsCommits(t *testing.T) {
	rep, err := RunNamed("consenter-minority-loss", Options{Peers: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consenters != 3 {
		t.Fatalf("consenters = %d, want 3", rep.Consenters)
	}
	w := rep.Workload
	if w == nil {
		t.Fatal("no workload stats")
	}
	if w.Committed == 0 {
		t.Fatal("no transactions committed with a minority of consenters down")
	}
	if w.Submitted != w.Committed+w.Conflicts {
		t.Fatalf("accounting drift: %d submitted != %d committed + %d conflicts",
			w.Submitted, w.Committed, w.Conflicts)
	}
	if rep.CaughtUp != rep.Survivors || rep.PendingRecoveries != 0 {
		t.Fatalf("%d/%d caught up, %d pending — minority loss must not stall delivery",
			rep.CaughtUp, rep.Survivors, rep.PendingRecoveries)
	}
}

// Losing two of three consenters halts ordering outright — the cluster
// must go leaderless for essentially the whole outage window — and the
// heal must elect a leader again and drain the entire backlog: every
// injected block reaches every surviving peer. The seeds cover both cases
// of who leads when the followers crash: when it is the survivor, only
// check-quorum makes it give up the role.
func TestConsenterMajorityLossHaltsThenHeals(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rep, err := RunNamed("consenter-majority-loss-and-heal", Options{Peers: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Crash at ~2.6s, restarts at ~8s: the cluster cannot have a quorum
		// in between, so the leaderless total must cover most of that window.
		if rep.Leaderless < 4*time.Second {
			t.Errorf("seed %d: leaderless %v, want > 4s — the majority loss did not halt ordering", seed, rep.Leaderless)
		}
		if rep.DeliverGap < 4*time.Second {
			t.Errorf("seed %d: deliver gap %v, want > 4s — deliveries continued through the halt", seed, rep.DeliverGap)
		}
		if rep.BlocksInjected != 10 {
			t.Errorf("seed %d: blocks injected = %d, want the full 10 (backlog must drain after the heal)",
				seed, rep.BlocksInjected)
		}
		if rep.CaughtUp != rep.Survivors || rep.PendingRecoveries != 0 {
			t.Errorf("seed %d: %d/%d caught up, %d pending — backlog did not fully resolve",
				seed, rep.CaughtUp, rep.Survivors, rep.PendingRecoveries)
		}
	}
}

// The anchor-probe experiment: does a Raft election masquerade as an
// orderer outage and trip cross-org anchor recovery? Run the
// election-under-txload entry across a handful of seeds twice — once as
// shipped (leader crashed at 4s) and once with the crash removed — and
// compare total anchor-probe counts. The election closes in well under
// the 5s orderer-stall threshold, so it must contribute nothing. Both
// arms DO probe a little — membership heartbeats go to a random fanout,
// so a peer occasionally loses sight of its org leader, briefly believes
// it leads, and (never having been a deliver-stream target) reads its
// stall clock as expired. That flap noise predates the ordering cluster
// and is seed-dependent but election-independent (the two arms' per-seed
// counts fully interleave), so the assertion pins the seed-summed
// difference: a genuine stall misfire would add a probe per org leader
// per 2s anchor tick for the ~22s each run continues past the election —
// tens of probes per seed, far outside the noise band.
func TestConsenterElectionDoesNotTripAnchorRecovery(t *testing.T) {
	def, err := Lookup("consenter-election-under-txload")
	if err != nil {
		t.Fatal(err)
	}
	top := Uniform(2, 10)
	sc := def.Build(top)
	sc.Name = def.Name

	control := withoutConsenterFaults(sc)

	var withProbes, ctrlProbes uint64
	for seed := int64(1); seed <= 5; seed++ {
		opt := Options{Peers: 20, Orgs: 2, Seed: seed}
		withCrash, err := Run(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := Run(control, opt)
		if err != nil {
			t.Fatal(err)
		}
		if withCrash.Elections != 2 {
			t.Fatalf("seed %d with crash: %d elections, want the failover election on top of the initial one",
				seed, withCrash.Elections)
		}
		if ctrl.Elections != 1 {
			t.Fatalf("seed %d control: %d elections, want exactly the initial one", seed, ctrl.Elections)
		}
		if withCrash.Leaderless >= 5*time.Second {
			t.Fatalf("seed %d with crash: leaderless %v reached the orderer-stall threshold — the premise is void",
				seed, withCrash.Leaderless)
		}
		if w := withCrash.Workload; w.Submitted != w.Committed+w.Conflicts {
			t.Fatalf("seed %d: accounting drift across the election: %d != %d + %d",
				seed, w.Submitted, w.Committed, w.Conflicts)
		}
		withProbes += withCrash.AnchorProbes
		ctrlProbes += ctrl.AnchorProbes
	}
	t.Logf("anchor probes over 5 seeds: with election %d, control %d", withProbes, ctrlProbes)
	if withProbes > ctrlProbes+30 {
		t.Fatalf("with election %d probes vs control %d over 5 seeds — the election tripped anchor recovery",
			withProbes, ctrlProbes)
	}
}

// withoutConsenterFaults is the scenario with every action that crashes,
// restarts or partitions a consenter removed: the same cluster and load,
// fault-free on the ordering side.
func withoutConsenterFaults(sc Scenario) Scenario {
	out := sc
	out.Events = nil
	for _, ev := range sc.Events {
		switch ev.Action.(type) {
		case CrashConsenter, RestartConsenter, CrashConsenterLeader, IsolateConsenters, HealPartition:
			continue
		}
		out.Events = append(out.Events, ev)
	}
	return out
}

// replicationWaste reads the run's Raft replication counters from its obs
// snapshot: entries the leaders shipped, and the share of them the
// followers already held.
func replicationWaste(t *testing.T, rep *Report) (shipped, waste float64) {
	t.Helper()
	shipped, ok := rep.Obs.Get("raft_entries_total", "kind", "shipped")
	redundant, ok2 := rep.Obs.Get("raft_entries_total", "kind", "redundant")
	if !ok || !ok2 {
		t.Fatal("no raft_entries_total counters in the obs snapshot")
	}
	if shipped == 0 {
		return 0, 0
	}
	return shipped, redundant / shipped
}

// While no consenter is crashed or partitioned, replication ships each log
// entry to each follower once: on every consenter-* entry's cluster and
// load — LAN and WAN-spread, premade chain and transaction workload — with
// the ordering-side faults taken out of the script, at most 2 % of the
// entries the leader ships are ones the follower already holds.
func TestConsenterReplicationShipsEachEntryOnce(t *testing.T) {
	for _, name := range []string{
		"consenter-minority-loss", "consenter-majority-loss-and-heal",
		"consenter-wan-separated", "consenter-election-under-txload",
	} {
		def, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := withoutConsenterFaults(def.Build(Uniform(2, 10)))
		sc.Name = def.Name
		for seed := int64(1); seed <= 3; seed++ {
			rep, err := Run(sc, Options{Peers: 20, Orgs: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Elections != 1 {
				t.Fatalf("%s seed %d: %d elections on the fault-free script", name, seed, rep.Elections)
			}
			shipped, waste := replicationWaste(t, rep)
			if shipped == 0 {
				t.Fatalf("%s seed %d: nothing was replicated", name, seed)
			}
			if waste > 0.02 {
				t.Errorf("%s seed %d: %.1f%% of %.0f shipped entries were redundant, want <= 2%%",
					name, seed, 100*waste, shipped)
			}
		}
	}
}

// The default ordering service is a one-consenter cluster, not a separate
// mode: leaving Consenters unset and setting it to 1 — on the scenario or
// through the Options override — are the same run, byte for byte, on both
// the premade-chain and the workload path.
func TestDefaultOrderingIsOneConsenter(t *testing.T) {
	for _, name := range []string{"crash-restart", "txload-steady"} {
		def, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Peers: 20, Orgs: def.MinOrgs, Seed: 42}.withDefaults()
		top, err := opt.topology()
		if err != nil {
			t.Fatal(err)
		}
		sc := def.Build(top)
		sc.Name = def.Name
		unset, err := Run(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		if unset.Consenters != 1 || unset.Elections != 1 {
			t.Fatalf("%s: default run reports %d consenters, %d elections, want 1 and 1",
				name, unset.Consenters, unset.Elections)
		}
		explicit := sc
		explicit.Consenters = 1
		viaOpt := opt
		viaOpt.Consenters = 1
		for _, c := range []struct {
			label string
			sc    Scenario
			opt   Options
		}{
			{"Scenario.Consenters=1", explicit, opt},
			{"Options.Consenters=1", sc, viaOpt},
		} {
			rep, err := Run(c.sc, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fingerprint() != unset.Fingerprint() {
				t.Fatalf("%s: %s diverged from the default run", name, c.label)
			}
		}
	}
}

// The consenter fault actions need no special ordering mode: against the
// default single consenter, crashing the leader is a total ordering outage
// and restarting it resumes the chain through a second election.
func TestConsenterActionsOnSingleConsenter(t *testing.T) {
	rep, err := Run(Scenario{
		Name:          "single-consenter-outage",
		Blocks:        8,
		BlockInterval: 500 * time.Millisecond,
		Warmup:        time.Second,
		Tail:          15 * time.Second,
		Events: []Event{
			{At: 2 * time.Second, Action: CrashConsenterLeader{}},
			{At: 4 * time.Second, Action: RestartConsenter{Consenter: 0}},
		},
	}, Options{Peers: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elections != 2 {
		t.Fatalf("%d elections, want the initial one plus the post-restart one", rep.Elections)
	}
	if rep.Leaderless < 2*time.Second {
		t.Fatalf("leaderless %v, want the whole 2s outage", rep.Leaderless)
	}
	if rep.BlocksInjected != 8 || rep.CaughtUp != rep.Survivors {
		t.Fatalf("outage lost blocks: %d injected, %d/%d caught up",
			rep.BlocksInjected, rep.CaughtUp, rep.Survivors)
	}
}

// A cluster-size override too small for a script's consenter indices fails
// up front, and the error names the catalog entry — a batch over the whole
// catalog (cmd/scenarios -scenario all -consenters 1) must say which entry
// rejected the override.
func TestConsenterOverrideErrorNamesScenario(t *testing.T) {
	_, err := RunNamed("consenter-minority-loss", Options{Peers: 20, Seed: 42, Consenters: 1})
	if err == nil {
		t.Fatal("a 1-consenter override of a script that crashes consenter 2 was accepted")
	}
	for _, want := range []string{"consenter-minority-loss", "crash consenter 2", "outside [0, 1)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}
