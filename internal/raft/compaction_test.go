package raft

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/wire"
)

// compactionRun drives one seeded fault schedule against a cluster and
// records what the compaction properties are judged by.
type compactionRun struct {
	t *testing.T
	c *cluster
	// ref is the committed sequence: the longest applied prefix so far,
	// against which every node's apply stream is checked as it happens.
	ref       []string
	proposed  int
	maxExcess int // the largest len(log) - (lastIndex - slowest match) seen
}

// held is how far y's log agrees with the committed sequence: its
// compacted prefix plus every following entry that matches ref. Payloads are
// unique per proposal, so equal data at an index is the same entry.
func (r *compactionRun) held(y *Node) uint64 {
	y.mu.Lock()
	defer y.mu.Unlock()
	h := y.base
	for h < y.lastIndexLocked() && h < uint64(len(r.ref)) && string(y.entryLocked(h+1).Data) == r.ref[h] {
		h++
	}
	return h
}

// checkBound asserts that every log holds at most the entries above the
// slowest node's match plus one append's worth: what is in flight, not
// what the run has committed.
func (r *compactionRun) checkBound(when string) {
	r.t.Helper()
	slowest := ^uint64(0)
	for _, y := range r.c.nodes {
		slowest = min(slowest, r.held(y))
	}
	for i, x := range r.c.nodes {
		x.mu.Lock()
		size, last, maxEntries := len(x.log), x.lastIndexLocked(), maxEntriesPerAppend
		x.mu.Unlock()
		excess := size - int(last-min(last, slowest))
		r.maxExcess = max(r.maxExcess, excess)
		if excess > maxEntries {
			r.t.Fatalf("%s: node %d holds %d entries, %d above the %d past the slowest match %d (cap %d)",
				when, i, size, excess, last-min(last, slowest), slowest, maxEntries)
		}
	}
}

// runCompactionSchedule runs a seeded schedule on an n-node cluster: one
// follower crashed across the first slowRounds fault rounds (a leader crash
// among them), then random crashes, leader crashes and minority partitions,
// each followed by a settle period, with a proposal every 3 ms at whichever
// node leads. The log bound is checked at the end of each settle period:
// while a revived follower catches up it gains a batch per round trip, and
// the others learn the new low-water only with their next append, so
// mid-repair a log briefly holds a few batches more.
func runCompactionSchedule(t *testing.T, n int, seed int64) *compactionRun {
	t.Helper()
	model := netmodel.Model{PropMin: time.Millisecond, PropMax: 10 * time.Millisecond}
	c := newClusterOn(t, n, seed, model)
	r := &compactionRun{t: t, c: c}
	for i, nd := range c.nodes {
		i := i
		nd.OnApply(func(data []byte) {
			c.applied[i] = append(c.applied[i], string(data))
			k := len(c.applied[i])
			switch {
			case k > len(r.ref):
				r.ref = append(r.ref, string(data))
			case r.ref[k-1] != string(data):
				t.Fatalf("node %d applied %q at index %d, committed is %q", i, data, k, r.ref[k-1])
			}
		})
	}
	rng := rand.New(rand.NewSource(seed))
	e := c.engine
	down := make([]bool, n)
	crash := func(i int) {
		if !down[i] {
			down[i] = true
			c.nodes[i].Stop()
			c.net.SetNodeDown(c.nodes[i].cfg.ID, true)
		}
	}
	restart := func(i int) {
		if down[i] {
			down[i] = false
			c.net.SetNodeDown(c.nodes[i].cfg.ID, false)
			c.nodes[i].Start()
		}
	}
	leaderIdx := func() int {
		best, bestTerm := -1, uint64(0)
		for i, nd := range c.nodes {
			if st, term, _, _ := nd.Status(); st == Leader && !down[i] && term >= bestTerm {
				best, bestTerm = i, term
			}
		}
		return best
	}

	stopProposals := false
	var propose func()
	propose = func() {
		if stopProposals {
			return
		}
		if l := leaderIdx(); l >= 0 {
			if c.nodes[l].Propose([]byte(fmt.Sprintf("p%06d", r.proposed))) == nil {
				r.proposed++
			}
		}
		e.After(3*time.Millisecond, propose)
	}
	e.RunUntil(time.Second)
	e.After(0, propose)
	e.RunFor(500 * time.Millisecond)

	// The long-down follower: crashed with a few hundred entries in its
	// log, revived after the first slowRounds rounds.
	const slowRounds = 4
	slow := rng.Intn(n)
	if l := leaderIdx(); slow == l {
		slow = (slow + 1) % n
	}
	crash(slow)
	refAtCrash := len(r.ref)
	e.RunFor(500 * time.Millisecond)

	const rounds = 7

	for round := 0; round < rounds; round++ {
		hold := time.Duration(500+rng.Intn(2000)) * time.Millisecond
		switch kind := rng.Intn(3); {
		case round == 1 || kind == 0:
			// Crash whoever leads (none: a random node).
			i := leaderIdx()
			if i < 0 {
				i = rng.Intn(n)
			}
			crash(i)
			e.RunFor(hold)
			if i != slow || round >= slowRounds {
				restart(i)
			}
		case kind == 1:
			i := rng.Intn(n)
			crash(i)
			e.RunFor(hold)
			if i != slow || round >= slowRounds {
				restart(i)
			}
		default:
			// A minority, possibly holding the leader, is cut off.
			perm := rng.Perm(n)
			cut := perm[:1+rng.Intn((n-1)/2)]
			var minority, majority []wire.NodeID
			for i, nd := range c.nodes {
				in := false
				for _, j := range cut {
					in = in || i == j
				}
				if in {
					minority = append(minority, nd.cfg.ID)
				} else {
					majority = append(majority, nd.cfg.ID)
				}
			}
			c.net.Partition(minority, majority)
			e.RunFor(hold)
			c.net.Heal()
		}
		if round == slowRounds-1 {
			if len(r.ref)-refAtCrash < 1000 {
				t.Fatalf("only %d entries committed while node %d was down; the schedule is too short",
					len(r.ref)-refAtCrash, slow)
			}
			restart(slow)
		}
		e.RunFor(2 * time.Second)
		r.checkBound(fmt.Sprintf("after round %d", round))
	}
	stopProposals = true
	e.RunFor(5 * time.Second)
	return r
}

// Property: compaction at the cluster low-water is safe and bounded. Under
// seeded crash, restart and partition schedules on 3- and 5-node clusters,
// over thousands of proposals:
//   - every node applies the identical sequence, and in the end all of it;
//   - no node is asked for the term of an index it compacted (termAtLocked
//     panics on one);
//   - a follower down across thousands of commits and a leader change
//     catches up by AppendEntries alone (there is nothing else);
//   - once the cluster settles, each log holds at most the entries above
//     the slowest node's match plus maxEntriesPerAppend.
//
// Compacting at commitIndex instead of the low-water fails it: the revived
// follower's missing suffix is gone, and it never catches up.
func TestPropertyCompactionSafety(t *testing.T) {
	for _, n := range []int{3, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatal(p) // termAtLocked on a compacted index
					}
				}()
				r := runCompactionSchedule(t, n, seed)
				if r.proposed < 2000 {
					t.Fatalf("only %d proposals accepted", r.proposed)
				}
				for i := range r.c.nodes {
					if got := len(r.c.applied[i]); got != len(r.ref) {
						t.Fatalf("node %d applied %d of %d committed entries", i, got, len(r.ref))
					}
				}
				var peak int
				for _, nd := range r.c.nodes {
					_, p := nd.LogLength()
					peak = max(peak, p)
				}
				t.Logf("%d proposed, %d committed, peak log %d, largest excess over the slowest match %d",
					r.proposed, len(r.ref), peak, r.maxExcess)
			})
		}
	}
}

// A healthy cluster's log is bounded by what is in flight: 20 000 proposals
// on the LAN delay model leave every node's peak log at a few hundred
// entries (without compaction it would be all 20 000).
func TestLongRunLogStaysBounded(t *testing.T) {
	c, l := electedCluster(t, 3, netmodel.LAN())
	const proposals = 20000
	c.proposeEvery(l, proposals, time.Millisecond)
	c.engine.RunFor(proposals*time.Millisecond + 5*time.Second)
	for i, nd := range c.nodes {
		if got := len(c.applied[i]); got != proposals {
			t.Fatalf("node %d applied %d of %d", i, got, proposals)
		}
		cur, peak := nd.LogLength()
		t.Logf("node %d: log %d entries now, peak %d", i, cur, peak)
		if peak > 300 {
			t.Fatalf("node %d peak log %d entries, want ≤ 300", i, peak)
		}
	}
}
