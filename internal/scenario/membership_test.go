package scenario

import (
	"testing"

	"fabricgossip/internal/wire"
)

// runWithSwim instantiates a catalog entry, optionally strips the SWIM
// membership mechanisms (keeping the measurement sampler), and runs it.
func runWithSwim(t *testing.T, name string, swim bool, opt Options) *Report {
	t.Helper()
	def, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	opt = opt.withDefaults()
	top, err := opt.topology()
	if err != nil {
		t.Fatal(err)
	}
	sc := def.Build(top)
	sc.Name = def.Name
	sc.SwimMembership = swim
	sc.MeasureMembership = true
	rep, err := Run(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestViewConvergenceIsLoadBearing locks the tentpole claim end to end:
// org-view-convergence reaches a near-complete steady-state view only
// through the piggyback + shuffle machinery. The same script with the
// mechanisms disabled — plain fixed-fan-out heartbeats — stays a sparse
// sample, and its leader beliefs never settle.
func TestViewConvergenceIsLoadBearing(t *testing.T) {
	const peers = 150
	opt := Options{Peers: peers, Seed: 42}

	dense := runWithSwim(t, "org-view-convergence", true, opt)
	if dense.ViewSamples == 0 {
		t.Fatal("membership sampler never ran")
	}
	if dense.ViewCompleteness < 0.95 {
		t.Fatalf("SWIM view completeness = %.3f, want >= 0.95", dense.ViewCompleteness)
	}
	if dense.CaughtUp != dense.Survivors {
		t.Fatalf("%d of %d survivors caught up", dense.CaughtUp, dense.Survivors)
	}

	sparse := runWithSwim(t, "org-view-convergence", false, opt)
	if sparse.ViewCompleteness > 0.8 {
		t.Fatalf("baseline view completeness = %.3f: the sparse baseline lost its contrast "+
			"(fan-out heartbeats alone should not densify a %d-peer view)",
			sparse.ViewCompleteness, peers)
	}
	if dense.ViewCompleteness <= sparse.ViewCompleteness {
		t.Fatalf("piggyback+shuffle did not close the gap: %.3f (swim) vs %.3f (sparse)",
			dense.ViewCompleteness, sparse.ViewCompleteness)
	}
	// Leader convergence: the dense view settles and stays settled; the
	// sparse baseline's constant lapse/revive churn keeps perturbing some
	// peer's belief, so its convergence time degenerates toward the run's
	// end.
	if dense.LeaderConvergence >= sparse.LeaderConvergence {
		t.Fatalf("leader convergence %v (swim) not better than %v (sparse)",
			dense.LeaderConvergence, sparse.LeaderConvergence)
	}
}

// TestFlappingMembersSuspicionIsLoadBearing locks the suspicion mechanism:
// under org-flapping-members' packet loss, the SWIM run keeps false deaths
// (and the dead/alive transition churn they cause) far below the legacy
// baseline, while still detecting the genuinely crashed group.
func TestFlappingMembersSuspicionIsLoadBearing(t *testing.T) {
	const peers = 100
	opt := Options{Peers: peers, Seed: 42}

	swim := runWithSwim(t, "org-flapping-members", true, opt)
	if swim.CaughtUp != swim.Survivors {
		t.Fatalf("%d of %d survivors caught up", swim.CaughtUp, swim.Survivors)
	}
	legacy := runWithSwim(t, "org-flapping-members", false, opt)

	// Transition accounting differs structurally between the modes: the
	// SWIM run pays a one-time n^2 join wave as every view grows to the
	// whole organization, plus the scripted crash's genuine dead + rejoin
	// waves; compare the churn beyond that floor. The legacy baseline has
	// no join wave to subtract (its sparse views form and flap around the
	// same small sample).
	k := peers / 50 // the entry's victim count at this scale
	joinWave := peers * (peers - 1)
	crashWave := 2 * k * (peers - k)
	// The genuine crash must actually be declared: suspicion delays
	// death, it must not deny it. At least half the surviving views
	// declaring (and re-admitting) the victims proves the detection leg.
	if swim.Transitions < joinWave+crashWave/2 {
		t.Fatalf("suspicion denied the real crash: %d transitions, want >= %d (join wave %d + half the crash wave %d)",
			swim.Transitions, joinWave+crashWave/2, joinWave, crashWave)
	}
	swimChurn := swim.Transitions - joinWave - crashWave
	if swimChurn < 0 {
		swimChurn = 0
	}
	if legacy.Transitions <= joinWave {
		t.Fatalf("legacy baseline transitions = %d: loss did not induce flapping, "+
			"the scenario lost its contrast", legacy.Transitions)
	}
	if swimChurn*2 >= legacy.Transitions {
		t.Fatalf("suspicion did not suppress flapping: swim churn %d (of %d total) vs legacy %d",
			swimChurn, swim.Transitions, legacy.Transitions)
	}
	if swim.ViewCompleteness < 0.95 {
		t.Fatalf("view completeness under loss = %.3f, want >= 0.95", swim.ViewCompleteness)
	}
}

// TestMeasuredScenariosStayDeterministic runs both membership entries twice
// and demands identical fingerprints: the sampler, the piggyback queue, the
// probe state machine and the shuffle draws must all be deterministic in
// the seed.
func TestMeasuredScenariosStayDeterministic(t *testing.T) {
	for _, name := range []string{"org-view-convergence", "org-flapping-members"} {
		opt := Options{Peers: 60, Seed: 7}
		a, err := RunNamed(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunNamed(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("%s: repeated run diverged", name)
		}
		if a.ViewSamples == 0 {
			t.Fatalf("%s: no view samples in report", name)
		}
	}
}

// TestSamplerCountMatchesMerge checks the sampler's count-based view
// completeness against the merge pass it replaced — kept here as the oracle
// — for every live peer at every sample of org-flapping-members: a lossy
// network, suspects, a genuine crash that views go on believing alive for a
// while, and its rejoin.
func TestSamplerCountMatchesMerge(t *testing.T) {
	def, err := Lookup("org-flapping-members")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Peers: 60, Seed: 5}.withDefaults()
	top, err := opt.topology()
	if err != nil {
		t.Fatal(err)
	}
	sc := def.Build(top)
	sc.Name = def.Name
	top, consenters, err := validate(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := build(sc, opt, top, consenters)
	if err != nil {
		t.Fatal(err)
	}
	r.arm()

	// mergeCount is the parent's sampler: both lists are sorted ascending,
	// so one merge pass counts the intersection.
	mergeCount := func(live, actual []wire.NodeID) int {
		inter, a := 0, 0
		for _, p := range live {
			for a < len(actual) && actual[a] < p {
				a++
			}
			if a < len(actual) && actual[a] == p {
				inter++
				a++
			}
		}
		return inter
	}
	var samples, staleBeliefs, suspects int
	r.samplers = append(r.samplers, r.net.Engine.Every(viewSampleInterval, func() {
		for o := 0; o < top.Orgs(); o++ {
			var actual, crashed []wire.NodeID
			for _, i := range top.OrgSpan(o) {
				if r.net.Crashed(i) {
					crashed = append(crashed, wire.NodeID(i))
				} else {
					actual = append(actual, wire.NodeID(i))
				}
			}
			for _, i := range top.OrgSpan(o) {
				if r.net.Crashed(i) {
					continue
				}
				core := r.net.Cores[i]
				live := core.LivePeers()
				got, want := liveActual(core, crashed), mergeCount(live, actual)
				if got != want {
					t.Fatalf("at %v, peer %d: count-based intersection %d, merge pass %d (live view %d, %d crashed)",
						r.net.Engine.Now(), i, got, want, len(live), len(crashed))
				}
				if core.LiveCount() != len(live) {
					t.Fatalf("at %v, peer %d: LiveCount %d, len(LivePeers) %d", r.net.Engine.Now(), i, core.LiveCount(), len(live))
				}
				samples++
				if got < len(live) {
					staleBeliefs++
				}
				suspects += core.MembershipStats().Suspects
			}
		}
	}))
	r.drive()
	if err := r.drain(); err != nil {
		t.Fatal(err)
	}
	// The comparison must have seen the cases where the two could differ.
	if samples == 0 || staleBeliefs == 0 || suspects == 0 {
		t.Fatalf("%d comparisons, %d with a crashed member still believed alive, %d suspects seen: the run exercised too little",
			samples, staleBeliefs, suspects)
	}
}
