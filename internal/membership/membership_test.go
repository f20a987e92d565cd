package membership

import (
	"testing"
	"time"

	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// legacyView builds a view with every SWIM knob off: the configuration the
// pre-extraction gossip.Membership behavior must survive bit for bit.
func legacyView(self wire.NodeID, expiration time.Duration) *View {
	return New(Config{Self: self, Expiration: expiration}, nil)
}

func TestObserveAndExpire(t *testing.T) {
	v := legacyView(0, sec(3))
	if v.Alive(1, sec(0)) {
		t.Fatal("unseen peer reported alive")
	}
	v.Observe(1, 1, sec(0))
	if !v.Alive(1, sec(3)) {
		t.Fatal("peer dead within the window")
	}
	if v.Alive(1, sec(4)) {
		t.Fatal("peer alive past expiration")
	}
	// A fresh heartbeat revives it.
	v.Observe(1, 2, sec(10))
	if !v.Alive(1, sec(12)) {
		t.Fatal("revived peer not alive")
	}
}

func TestIgnoresStaleHeartbeats(t *testing.T) {
	v := legacyView(0, sec(3))
	v.Observe(1, 5, sec(0))
	// A replayed older heartbeat arriving later must not extend liveness.
	v.Observe(1, 4, sec(2))
	v.Observe(1, 5, sec(2))
	if v.Alive(1, sec(4)) {
		t.Fatal("stale heartbeat extended liveness")
	}
}

func TestSelfAlwaysAlive(t *testing.T) {
	v := legacyView(7, sec(1))
	if !v.Alive(7, sec(100)) {
		t.Fatal("self not alive")
	}
	v.Observe(7, 1, sec(0)) // self-heartbeats are ignored
	live := v.Live(sec(100))
	if len(live) != 1 || live[0] != 7 {
		t.Fatalf("live = %v", live)
	}
}

func TestLeaderIsLowestLiveID(t *testing.T) {
	v := legacyView(5, sec(3))
	v.Observe(2, 1, sec(0))
	v.Observe(8, 1, sec(0))
	if got := v.Leader(sec(1)); got != 2 {
		t.Fatalf("leader = %v, want 2", got)
	}
	// Peer 2 expires: self (5) becomes the lowest live id.
	if got := v.Leader(sec(10)); got != 5 {
		t.Fatalf("leader after expiry = %v, want self (5)", got)
	}
	if !v.IsLeader(sec(10)) {
		t.Fatal("IsLeader disagrees with Leader")
	}
}

func TestLeaderMatchesLiveHead(t *testing.T) {
	// The allocation-free Leader scan must agree with Live's head for any
	// interleaving of observations and lapses.
	v := legacyView(5, sec(3))
	for _, p := range []wire.NodeID{9, 2, 7, 3, 11} {
		v.Observe(p, 1, sec(0))
	}
	v.Observe(2, 2, sec(5)) // only peer 2 refreshed; the rest lapse at 3s
	for _, now := range []time.Duration{sec(1), sec(4), sec(6), sec(9), sec(20)} {
		live := v.Live(now)
		if got := v.Leader(now); got != live[0] {
			t.Fatalf("at %v: Leader = %v, Live = %v", now, got, live)
		}
	}
}

func TestObserveReportsTransition(t *testing.T) {
	v := legacyView(0, sec(3))
	if !v.Observe(1, 1, sec(0)) {
		t.Fatal("first heartbeat not reported as a live transition")
	}
	if v.Observe(1, 2, sec(1)) {
		t.Fatal("refresh heartbeat reported as a transition")
	}
	if v.Observe(1, 2, sec(2)) {
		t.Fatal("stale heartbeat reported as a transition")
	}
	// The sweep flips it dead; the next heartbeat is a transition again.
	dead := v.Sweep(sec(10))
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("Sweep = %v, want [1]", dead)
	}
	if got := v.Sweep(sec(11)); len(got) != 0 {
		t.Fatalf("second Sweep = %v, want none (already dead)", got)
	}
	if !v.Observe(1, 3, sec(12)) {
		t.Fatal("rejoin heartbeat not reported as a transition")
	}
}

func TestSweepReturnsSortedIDs(t *testing.T) {
	v := legacyView(0, sec(1))
	for _, id := range []wire.NodeID{9, 3, 7, 1} {
		v.Observe(id, 1, sec(0))
	}
	dead := v.Sweep(sec(5))
	want := []wire.NodeID{1, 3, 7, 9}
	if len(dead) != len(want) {
		t.Fatalf("Sweep = %v", dead)
	}
	for i := range want {
		if dead[i] != want[i] {
			t.Fatalf("Sweep order = %v, want %v", dead, want)
		}
	}
}

// TestAliveDeadAgreeInLapseWindow is the regression test for the predicate
// split the extraction fixed: the old implementation answered Alive from
// heartbeat timestamps but Dead from the last sweep's state, so in the
// window between a peer's lapse and the next sweep the peer was neither
// alive nor dead — the recovery plane kept targeting a peer the leader
// election had already written off. Both predicates now answer from the
// same definition at every instant, sweep or no sweep.
func TestAliveDeadAgreeInLapseWindow(t *testing.T) {
	v := legacyView(0, sec(3))
	v.Observe(1, 1, sec(0))

	// Inside the expiration window: alive, not dead.
	if !v.Alive(1, sec(2)) || v.Dead(1, sec(2)) {
		t.Fatal("tracked fresh peer must be alive and not dead")
	}

	// Lapsed, no sweep yet: the old code said !Alive && !Dead here.
	if v.Alive(1, sec(5)) {
		t.Fatal("lapsed peer reported alive")
	}
	if !v.Dead(1, sec(5)) {
		t.Fatal("lapsed peer not reported dead before the sweep (the legacy window bug)")
	}

	// The sweep must not change either answer, only emit the transition.
	dead := v.Sweep(sec(5))
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("Sweep = %v, want [1]", dead)
	}
	if v.Alive(1, sec(5)) || !v.Dead(1, sec(5)) {
		t.Fatal("sweep changed the predicate answers")
	}

	// Never-observed peers are neither alive nor dead at any time.
	if v.Alive(9, sec(5)) || v.Dead(9, sec(5)) {
		t.Fatal("never-observed peer must be neither alive nor dead")
	}
}

// --- suspicion lifecycle ---

func swimView(self wire.NodeID) *View {
	return swimViewHost(self, &stubHost{rng: sim.NewRand(1)})
}

func swimViewHost(self wire.NodeID, host Host) *View {
	return New(Config{
		Self:            self,
		Expiration:      sec(3),
		SuspectTimeout:  sec(4),
		PiggybackMax:    8,
		ShuffleInterval: sec(2),
	}, host)
}

// gossiper is the sender of the payloads tests hand to apply directly: a
// member nobody probes.
const gossiper wire.NodeID = 99

// suspect puts peer into the suspect state through the public path: a
// gossiped suspicion at the peer's current incarnation.
func (v *View) suspectForTest(peer wire.NodeID, now time.Duration) {
	v.mu.Lock()
	var seq uint64
	if i, tracked := v.search(peer); tracked {
		seq = v.members[i].seq
	}
	v.mu.Unlock()
	v.apply(gossiper, []wire.MemberEvent{{Peer: peer, Seq: seq, Kind: wire.EventSuspect}}, now, true, false)
}

func TestSilenceAloneDoesNotKillUnderSuspicion(t *testing.T) {
	// The scaling fix behind the suspect state: at n >= 1000 the heartbeat
	// fan-out is a sparse sample, so "I have not heard from X" carries no
	// information — a live peer must stay live through arbitrarily long
	// local silence until somebody's failed probe actually suspects it.
	v := swimView(0)
	v.Observe(1, 1, sec(0))
	for _, now := range []time.Duration{sec(10), sec(100), sec(1000)} {
		if got := v.Sweep(now); len(got) != 0 {
			t.Fatalf("silence killed a live peer at %v: %v", now, got)
		}
		if !v.Alive(1, now) {
			t.Fatalf("silent peer not alive at %v", now)
		}
	}
}

func TestSuspicionDelaysDeath(t *testing.T) {
	v := swimView(0)
	v.Observe(1, 1, sec(0))
	v.suspectForTest(1, sec(4))

	// Suspect: still alive, not dead.
	if !v.Alive(1, sec(4)) || v.Dead(1, sec(4)) {
		t.Fatal("suspect no longer counted alive")
	}
	if s := v.Stats(); s.Suspects != 1 {
		t.Fatalf("Suspects = %d, want 1", s.Suspects)
	}
	if got := v.Sweep(sec(7)); len(got) != 0 {
		t.Fatalf("suspect declared dead before the timeout: %v", got)
	}

	// Suspicion timeout without refutation -> dead.
	dead := v.Sweep(sec(9))
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("suspect not declared dead after timeout: %v", dead)
	}
	if v.Alive(1, sec(9)) || !v.Dead(1, sec(9)) {
		t.Fatal("declared-dead suspect still alive")
	}
}

func TestRefutationClearsSuspicion(t *testing.T) {
	v := swimView(0)
	v.Observe(1, 1, sec(0))
	v.suspectForTest(1, sec(4))

	// A fresher heartbeat refutes the suspicion before the timeout.
	if v.Observe(1, 2, sec(6)) {
		t.Fatal("refutation misreported as a dead-to-live transition")
	}
	if got := v.Sweep(sec(8)); len(got) != 0 {
		t.Fatalf("refuted suspect still declared dead: %v", got)
	}
	if s := v.Stats(); s.Suspects != 0 || s.Live != 1 {
		t.Fatalf("after refutation: %+v", s)
	}

	// An equal-or-older sequence is not a refutation (SWIM's incarnation
	// rule): the suspicion must ride to its timeout.
	v.suspectForTest(1, sec(12))
	v.Observe(1, 2, sec(13))
	if dead := v.Sweep(sec(17)); len(dead) != 1 {
		t.Fatalf("stale heartbeat refuted a fresher suspicion: %v", dead)
	}
}

func TestSuspicionWithoutShufflingFallsBackToLapse(t *testing.T) {
	// With no prober to originate suspicions, heartbeat lapse must: a
	// crashed peer would otherwise stay live forever (and the recovery
	// plane would target it forever) in the suspicion-without-shuffle
	// configuration.
	v := New(Config{
		Self:           0,
		Expiration:     sec(3),
		SuspectTimeout: sec(4),
		PiggybackMax:   8,
	}, nil)
	v.Observe(1, 1, sec(0))
	if got := v.Sweep(sec(4)); len(got) != 0 {
		t.Fatalf("lapse killed immediately despite suspicion: %v", got)
	}
	if s := v.Stats(); s.Suspects != 1 {
		t.Fatalf("lapsed peer not suspected without shuffling: %+v", s)
	}
	if !v.Alive(1, sec(4)) {
		t.Fatal("suspect not counted alive")
	}
	// Refutable before the timeout, dead after it.
	v.Observe(1, 2, sec(5))
	if s := v.Stats(); s.Suspects != 0 || s.Live != 1 {
		t.Fatalf("refutation did not clear the lapse-suspicion: %+v", s)
	}
	v.Sweep(sec(10)) // lapses again -> suspect
	if dead := v.Sweep(sec(15)); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("unrefuted lapse-suspect not declared dead: %v", dead)
	}
}

func TestFailedProbeSuspects(t *testing.T) {
	host := &stubHost{rng: sim.NewRand(1)}
	v := swimViewHost(0, host)
	v.Observe(1, 1, sec(0))

	// Round 1: the shuffle probes peer 1 (the only candidate).
	v.ShuffleTick(sec(2))
	if len(host.msgs) != 1 || host.to[0] != 1 {
		t.Fatalf("probe did not target peer 1: to=%v msgs=%d", host.to, len(host.msgs))
	}
	// No response by round 2: peer 1 becomes a suspect, and the suspicion
	// is queued for piggybacked dissemination.
	v.ShuffleTick(sec(4))
	if s := v.Stats(); s.Suspects != 1 {
		t.Fatalf("failed probe did not suspect: %+v", s)
	}
	if v.rumors.index(1, wire.EventSuspect) < 0 {
		t.Fatal("failed probe queued no suspect rumor")
	}
	// The suspicion times out into a death.
	if dead := v.Sweep(sec(9)); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("suspect from failed probe not declared dead: %v", dead)
	}
}

func TestProbeAckPreventsSuspicion(t *testing.T) {
	host := &stubHost{rng: sim.NewRand(1)}
	v := swimViewHost(0, host)
	v.Observe(1, 1, sec(0))

	v.ShuffleTick(sec(2))
	// The target's response arrives before the next round (which issues a
	// fresh probe of its own).
	if !v.Handle(1, &wire.ShuffleResponse{}, sec(3)) {
		t.Fatal("response not handled")
	}
	v.ShuffleTick(sec(4))
	if s := v.Stats(); s.Suspects != 0 {
		t.Fatalf("acked probe still suspected: %+v", s)
	}

	// A request from the target is equally direct evidence for the probe
	// the second round just issued.
	v.Handle(1, &wire.ShuffleRequest{}, sec(5))
	v.ShuffleTick(sec(6))
	if s := v.Stats(); s.Suspects != 0 {
		t.Fatalf("target's own probe did not count as evidence: %+v", s)
	}

	// So is a piggybacked digest: the target is talking even if its
	// shuffle response was lost.
	v.Handle(1, &wire.MemberEvents{}, sec(7))
	v.ShuffleTick(sec(8))
	if s := v.Stats(); s.Suspects != 0 {
		t.Fatalf("target's digest did not count as evidence: %+v", s)
	}
}

func TestSwimKnobsDefaultSuspectTimeout(t *testing.T) {
	// Shuffle probes and piggybacked events put peers in the suspect
	// state, so enabling either must default SuspectTimeout: a zero
	// timeout would turn one lost shuffle reply into an instant death
	// while the time-based predicates still counted the peer alive.
	for _, cfg := range []Config{
		{Self: 0, Expiration: sec(5), ShuffleInterval: sec(2)},
		{Self: 0, Expiration: sec(5), PiggybackMax: 8},
		{Self: 0, ShuffleInterval: sec(2)}, // no expiration either: floor applies
	} {
		v := New(cfg, &stubHost{rng: sim.NewRand(1)})
		if v.Config().SuspectTimeout <= 0 {
			t.Fatalf("SuspectTimeout not defaulted for %+v", cfg)
		}
	}
	// Legacy stays legacy.
	if legacyView(0, sec(5)).Config().SuspectTimeout != 0 {
		t.Fatal("legacy configuration gained a suspect timeout")
	}
}

func TestUnknownEventKindAboutSelfIsNotAnAccusation(t *testing.T) {
	v := swimView(3)
	v.NoteSelfSeq(5)
	// Unknown forward-compatibility kinds are documented as ignored; they
	// must not trigger incarnation bumps and refutation floods.
	v.apply(gossiper, []wire.MemberEvent{{Peer: 3, Seq: 9, Kind: wire.MemberEventKind(9)}}, sec(1), true, false)
	if v.TakeAccusation() {
		t.Fatal("unknown event kind latched a self-accusation")
	}
}

func TestSuspectEventAgainstSelfLatchesAccusation(t *testing.T) {
	v := swimView(3)
	v.NoteSelfSeq(5)
	v.apply(gossiper, []wire.MemberEvent{{Peer: 3, Seq: 5, Kind: wire.EventSuspect}}, sec(1), true, false)
	if !v.TakeAccusation() {
		t.Fatal("suspicion at the current incarnation not latched")
	}
	if v.TakeAccusation() {
		t.Fatal("accusation not consumed")
	}
	// A stale accusation (below the current incarnation) is ignored.
	v.NoteSelfSeq(9)
	v.apply(gossiper, []wire.MemberEvent{{Peer: 3, Seq: 7, Kind: wire.EventDead}}, sec(2), true, false)
	if v.TakeAccusation() {
		t.Fatal("stale accusation latched")
	}
}

func TestApplyEventLifecycle(t *testing.T) {
	var transitions []string
	v := swimView(0)
	v.OnTransition(func(p wire.NodeID, alive bool) {
		if alive {
			transitions = append(transitions, "live:"+p.String())
		} else {
			transitions = append(transitions, "dead:"+p.String())
		}
	})

	// Alive event about an unknown peer grows the view.
	v.apply(gossiper, []wire.MemberEvent{{Peer: 4, Seq: 10, Kind: wire.EventAlive}}, sec(1), true, false)
	if !v.Alive(4, sec(1)) {
		t.Fatal("alive event did not admit the peer")
	}
	// Dead event at the same incarnation kills it.
	v.apply(gossiper, []wire.MemberEvent{{Peer: 4, Seq: 10, Kind: wire.EventDead}}, sec(2), true, false)
	if !v.Dead(4, sec(2)) {
		t.Fatal("dead event ignored")
	}
	// Alive at the same incarnation must NOT resurrect (dead is final per
	// incarnation); a strictly fresher incarnation must.
	v.apply(gossiper, []wire.MemberEvent{{Peer: 4, Seq: 10, Kind: wire.EventAlive}}, sec(3), true, false)
	if v.Alive(4, sec(3)) {
		t.Fatal("same-incarnation alive resurrected a declared death")
	}
	v.apply(gossiper, []wire.MemberEvent{{Peer: 4, Seq: 11, Kind: wire.EventAlive}}, sec(4), true, false)
	if !v.Alive(4, sec(4)) {
		t.Fatal("fresher incarnation did not rejoin")
	}
	want := []string{"live:n4", "dead:n4", "live:n4"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

// --- shuffle ---

// stubHost records sends for the shuffle/piggyback paths.
type stubHost struct {
	rng  *sim.Rand
	to   []wire.NodeID
	msgs []wire.Message
}

func (h *stubHost) Send(to wire.NodeID, msg wire.Message) {
	h.to = append(h.to, to)
	h.msgs = append(h.msgs, msg)
}

func (h *stubHost) Rand() *sim.Rand { return h.rng }

func TestShuffleExchangeMergesViews(t *testing.T) {
	hostA := &stubHost{rng: sim.NewRand(1)}
	a := New(Config{Self: 0, Expiration: sec(3), SuspectTimeout: sec(5),
		PiggybackMax: 8, ShuffleInterval: sec(1), ShuffleSample: 8}, hostA)
	hostB := &stubHost{rng: sim.NewRand(2)}
	b := New(Config{Self: 1, Expiration: sec(3), SuspectTimeout: sec(5),
		PiggybackMax: 8, ShuffleInterval: sec(1), ShuffleSample: 8}, hostB)

	// A knows peers 2,3; B knows peers 4,5. They know each other.
	a.Observe(1, 1, sec(0))
	a.Observe(2, 1, sec(0))
	a.Observe(3, 1, sec(0))
	b.Observe(0, 1, sec(0))
	b.Observe(4, 1, sec(0))
	b.Observe(5, 1, sec(0))

	a.ShuffleTick(sec(1))
	if len(hostA.msgs) != 1 {
		t.Fatalf("shuffle sent %d messages, want 1", len(hostA.msgs))
	}
	req := hostA.msgs[0].(*wire.ShuffleRequest)
	target := hostA.to[0]
	if target == 0 {
		t.Fatal("shuffled to self")
	}

	// Deliver to B (whatever the target, B processes it), B replies.
	if !b.Handle(0, req, sec(1)) {
		t.Fatal("shuffle request not handled")
	}
	resp, ok := hostB.msgs[len(hostB.msgs)-1].(*wire.ShuffleResponse)
	if !ok {
		t.Fatalf("reply = %T, want ShuffleResponse", hostB.msgs[len(hostB.msgs)-1])
	}
	if !a.Handle(1, resp, sec(1)) {
		t.Fatal("shuffle response not handled")
	}

	// B learned A's peers from the request; A learned B's from the reply.
	for _, p := range []wire.NodeID{2, 3} {
		if !b.Alive(p, sec(1)) {
			t.Fatalf("B did not learn peer %v from the shuffle", p)
		}
	}
	for _, p := range []wire.NodeID{4, 5} {
		if !a.Alive(p, sec(1)) {
			t.Fatalf("A did not learn peer %v from the shuffle", p)
		}
	}
}

func TestLegacyViewClaimsButDropsPayloads(t *testing.T) {
	// A legacy peer in a mixed organization: received membership payloads
	// belong to this subsystem (they must not fall through to a gossip
	// protocol), but their content is dropped — a suspicion applied into
	// a state machine with no configured timeouts would declare an
	// instant death contradicting the time-based predicates.
	host := &stubHost{rng: sim.NewRand(1)}
	v := New(Config{Self: 0, Expiration: sec(3)}, host)
	v.Observe(1, 1, sec(0))
	suspect := &wire.MemberEvents{Events: []wire.MemberEvent{
		{Peer: 1, Seq: 1, Kind: wire.EventSuspect},
	}}
	if !v.Handle(2, suspect, sec(1)) {
		t.Fatal("membership payload not claimed by a legacy view")
	}
	if s := v.Stats(); s.Suspects != 0 || s.Live != 1 {
		t.Fatalf("legacy view applied a dropped payload: %+v", s)
	}
	if dead := v.Sweep(sec(2)); len(dead) != 0 {
		t.Fatalf("dropped suspicion killed a fresh peer: %v", dead)
	}
	if v.Handle(2, &wire.ShuffleRequest{}, sec(1)); len(host.msgs) != 0 {
		t.Fatal("legacy view answered a shuffle")
	}
	if v.Handle(2, &wire.StateInfo{}, sec(1)) {
		t.Fatal("legacy view claimed a non-membership payload")
	}
	if !IsPayload(wire.TypeMemberEvents) || IsPayload(wire.TypeStateInfo) {
		t.Fatal("IsPayload misclassifies")
	}
}

func TestShuffleSkipsEmptyView(t *testing.T) {
	host := &stubHost{rng: sim.NewRand(1)}
	v := New(Config{Self: 0, Expiration: sec(3), ShuffleInterval: sec(1)}, host)
	v.ShuffleTick(sec(1))
	if len(host.msgs) != 0 {
		t.Fatal("empty view shuffled")
	}
}

func TestLiveIntoMatchesLive(t *testing.T) {
	v := legacyView(5, sec(3))
	for _, p := range []wire.NodeID{9, 2, 7} {
		v.Observe(p, 1, sec(0))
	}
	var buf []wire.NodeID
	for _, now := range []time.Duration{sec(0), sec(2), sec(5)} {
		want := v.Live(now)
		buf = v.LiveInto(buf, now)
		if len(buf) != len(want) {
			t.Fatalf("at %v: LiveInto = %v, Live = %v", now, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("at %v: LiveInto = %v, Live = %v", now, buf, want)
			}
		}
	}
}
