package membership

import (
	"testing"
	"testing/quick"
	"time"

	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Property: piggyback retransmission terminates. With no new knowledge
// arriving, a view that keeps sending digests must drain its rumor queue
// completely, and the total number of event entries ever sent is bounded
// by rumors x budget — no event gossips forever.
func TestPropertyPiggybackBudgetsTerminate(t *testing.T) {
	f := func(peers []uint16, budget8 uint8, max8 uint8) bool {
		budget := int(budget8%16) + 1
		max := int(max8%8) + 1
		host := &stubHost{rng: sim.NewRand(1)}
		v := New(Config{
			Self: 0, Expiration: time.Minute,
			SuspectTimeout:  time.Minute,
			PiggybackMax:    max,
			PiggybackBudget: budget,
		}, host)
		// Seed the queue through the public paths: every observation of a
		// new peer queues a join rumor.
		for i, p := range peers {
			v.Observe(wire.NodeID(p)+1, uint64(i)+1, time.Duration(i))
		}
		queued := v.QueuedRumors()
		if queued > len(peers) {
			return false // dedup must never inflate the queue
		}
		// Drain: each send may carry up to max entries and charges each
		// rumor's budget. After ceil(queued/max) * budget sends the queue
		// must be empty, and stay empty forever after.
		bound := (queued/max + 2) * budget
		sent := 0
		for i := 0; i < bound; i++ {
			before := len(host.msgs)
			v.PiggybackOnto(wire.NodeID(1))
			if len(host.msgs) > before {
				sent += len(host.msgs[len(host.msgs)-1].(*wire.MemberEvents).Events)
			}
		}
		if v.QueuedRumors() != 0 {
			return false // budgets did not terminate
		}
		if sent > queued*budget {
			return false // some rumor exceeded its budget
		}
		// Idempotence: with the queue drained, sends carry nothing.
		before := len(host.msgs)
		v.PiggybackOnto(wire.NodeID(1))
		return len(host.msgs) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: applying arbitrary event batches never panics, never lets the
// queue exceed its cap, and drains to empty under repeated piggybacking
// once the event stream stops (termination under churn, not just under a
// static seed).
func TestPropertyApplyThenDrainTerminates(t *testing.T) {
	f := func(peers []uint16, seqs []uint16, kinds []uint8) bool {
		n := len(peers)
		if len(seqs) < n {
			n = len(seqs)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		host := &stubHost{rng: sim.NewRand(1)}
		v := New(Config{
			Self: 0, Expiration: time.Minute,
			SuspectTimeout:  time.Minute,
			PiggybackMax:    4,
			PiggybackBudget: 3,
			QueueCap:        32,
		}, host)
		events := make([]wire.MemberEvent, 0, n)
		for i := 0; i < n; i++ {
			events = append(events, wire.MemberEvent{
				Peer: wire.NodeID(peers[i] % 64),
				Seq:  uint64(seqs[i] % 8),
				Kind: wire.MemberEventKind(kinds[i] % 5), // includes invalid kinds
			})
		}
		v.apply(gossiper, events, time.Second, true, false)
		if v.QueuedRumors() > 32 {
			return false // cap violated
		}
		for i := 0; i < 32*3+1; i++ {
			v.PiggybackOnto(wire.NodeID(1))
		}
		return v.QueuedRumors() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: rumor deduplication keeps at most one queue entry per
// (peer, kind), whatever the event order.
func TestPropertyQueueDedupesByPeerAndKind(t *testing.T) {
	f := func(seqs []uint16) bool {
		host := &stubHost{rng: sim.NewRand(1)}
		v := New(Config{
			Self: 0, Expiration: time.Minute, SuspectTimeout: time.Minute,
			PiggybackMax: 8, PiggybackBudget: 4,
		}, host)
		for i, s := range seqs {
			// All events target peer 7 with alternating kinds.
			kind := wire.EventAlive
			if i%2 == 1 {
				kind = wire.EventSuspect
			}
			v.apply(gossiper, []wire.MemberEvent{{Peer: 7, Seq: uint64(s), Kind: kind}}, time.Second, true, false)
		}
		return v.QueuedRumors() <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
