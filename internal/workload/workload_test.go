package workload

import (
	"fmt"
	"testing"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/wire"
)

// clusterSizes are the ordering-cluster sizes every test runs at: the
// default single consenter and a real quorum.
var clusterSizes = []int{1, 3}

// testPlane builds a 2 orgs x 4 peers network with k consenters, fast
// gossip timers (the scenario runner's), and an installed plane. Peer 0 and
// peer 4 are their organizations' endorsers and leaders.
func testPlane(t *testing.T, k int, cfg Config) (*harness.Network, *Plane) {
	t.Helper()
	return testPlaneOn(t, []harness.OrgSpec{{Peers: 4}, {Peers: 4}}, k, cfg)
}

// testPlaneOn is testPlane over the given organizations.
func testPlaneOn(t *testing.T, orgs []harness.OrgSpec, k int, cfg Config) (*harness.Network, *Plane) {
	t.Helper()
	n, err := harness.NewNetwork(harness.NetworkParams{
		Seed:       7,
		Orgs:       orgs,
		Consenters: k,
	}, harness.WithNetworkGossipTune(func(_ wire.NodeID, c *gossip.Config) {
		c.StateInfoInterval = time.Second
		c.AliveInterval = 2 * time.Second
		c.AliveExpiration = 5 * time.Second
		c.RecoveryInterval = 2 * time.Second
		c.RecoveryBatch = 64
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rate == 0 {
		cfg.Rate = 10
	}
	if cfg.Keys == 0 {
		cfg.Keys = 256
	}
	if cfg.BatchTimeout == 0 {
		cfg.BatchTimeout = 500 * time.Millisecond
	}
	p, err := Install(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.StartAll()
	return n, p
}

// forEachClusterSize runs fn as one subtest per ordering-cluster size.
func forEachClusterSize(t *testing.T, fn func(t *testing.T, k int)) {
	for _, k := range clusterSizes {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { fn(t, k) })
	}
}

func assertClosed(t *testing.T, s Stats) {
	t.Helper()
	if s.Submitted != s.Committed+s.Conflicts {
		t.Fatalf("accounting open: %d submitted != %d committed + %d conflicts",
			s.Submitted, s.Committed, s.Conflicts)
	}
}

// Every submitted transaction resolves as exactly one commit or one
// conflict, and the ordering service saw each exactly once — the
// consenters' dedup window collapses the K-fold client broadcast.
func TestAccountingCloses(t *testing.T) {
	forEachClusterSize(t, func(t *testing.T, k int) {
		n, p := testPlane(t, k, Config{})
		n.Engine.At(time.Second, p.Start)
		n.Engine.At(5*time.Second, p.Stop)
		n.RunUntil(15 * time.Second)
		n.StopAll()

		s := p.Stats()
		if s.Submitted == 0 || s.Committed == 0 {
			t.Fatalf("no load flowed: %+v", s)
		}
		assertClosed(t, s)
		if uint64(s.Submitted) != s.OrderedTx {
			t.Fatalf("%d submitted but %d ordered", s.Submitted, s.OrderedTx)
		}
		if s.BlocksCut == 0 || s.BlocksCut != s.CutBySize+s.CutByTimeout {
			t.Fatalf("block cutting off: %+v", s)
		}
		if s.EndorseErrors != 0 || s.SubmitErrors != 0 || s.CommitErrors != 0 {
			t.Fatalf("fault counters nonzero in a fault-free run: %+v", s)
		}
		if s.Latency.N != s.Committed {
			t.Fatalf("%d latency samples for %d commits", s.Latency.N, s.Committed)
		}
	})
}

// An aggregated organization is one fixed-rate source over at most eight
// endpoints: its offered load is ClientsPerOrg × Rate, Zipf keys included,
// and the books close on it.
func TestAggregatedFixedRateZipfOffersTheRate(t *testing.T) {
	cfg := Config{ClientsPerOrg: 20, Rate: 1, Arrival: ArrivalFixed, ZipfS: 1.5, AggregateClients: true}
	n, p := testPlane(t, 1, cfg)
	n.Engine.At(time.Second, p.Start)
	n.Engine.At(5*time.Second, p.Stop)
	n.RunUntil(15 * time.Second)
	n.StopAll()

	s := p.Stats()
	for _, o := range s.Orgs {
		if eps := len(p.ClientNodes(o.Org)); eps != aggregateEndpoints {
			t.Fatalf("org %d has %d client endpoints, want %d", o.Org, eps, aggregateEndpoints)
		}
		// 20 arrivals/s over the 4 s window; the last one ties with Stop.
		offered := o.Submitted + o.ProposalConflicts + o.EndorseErrors + o.SubmitErrors
		if offered < 79 || offered > 80 {
			t.Fatalf("org %d offered %d transactions, want 80 (20/s for 4 s): %+v", o.Org, offered, o)
		}
	}
	assertClosed(t, s)
}

// A Broadcast no consenter can receive is a client-side submit error, not a
// silently lost transaction: with the whole cluster crashed, or partitioned
// away from every client, nothing is counted as submitted and the books
// still close on what was submitted before the outage.
func TestSubmitErrorsWhenOrderingUnreachable(t *testing.T) {
	outages := map[string]func(n *harness.Network){
		"crashed":     func(n *harness.Network) { n.CrashOrderer() },
		"partitioned": func(n *harness.Network) { n.Net.Partition(nil, n.OrderingNodeIDs()) },
	}
	for name, cut := range outages {
		cut := cut
		t.Run(name, func(t *testing.T) {
			forEachClusterSize(t, func(t *testing.T, k int) {
				n, p := testPlane(t, k, Config{})
				n.Engine.At(time.Second, p.Start)
				var before Stats
				n.Engine.At(3*time.Second, func() {
					before = p.Stats()
					cut(n)
				})
				n.Engine.At(6*time.Second, p.Stop)
				n.RunUntil(15 * time.Second)
				n.StopAll()

				s := p.Stats()
				if before.Submitted == 0 || before.SubmitErrors != 0 {
					t.Fatalf("bad pre-outage state: %+v", before)
				}
				if s.Submitted != before.Submitted {
					t.Fatalf("%d transactions counted as submitted into an unreachable ordering service",
						s.Submitted-before.Submitted)
				}
				if s.SubmitErrors == 0 {
					t.Fatal("no submit errors while no consenter was reachable")
				}
				for _, o := range s.Orgs {
					if o.SubmitErrors == 0 {
						t.Fatalf("org %d saw no submit errors: %+v", o.Org, o)
					}
				}
			})
		})
	}
}

// OnBlockCut fires once per live replica per block: every consenter's
// service cuts the identical block from the identical apply stream, and a
// crashed consenter cuts nothing.
func TestOnBlockCutFiresOncePerLiveReplica(t *testing.T) {
	forEachClusterSize(t, func(t *testing.T, k int) {
		n, p := testPlane(t, k, Config{})
		cuts := make(map[uint64][]int)
		txs := make(map[uint64]int)
		p.OnBlockCut(func(consenter int, num uint64, ntx int) {
			cuts[num] = append(cuts[num], consenter)
			if prev, ok := txs[num]; ok && prev != ntx {
				t.Errorf("block %d: replicas cut %d and %d transactions", num, prev, ntx)
			}
			txs[num] = ntx
		})
		live := k
		down := -1
		if k > 1 {
			// Crash a follower once the initial election has settled.
			n.Engine.At(800*time.Millisecond, func() {
				down = (n.ConsenterLeader() + 1) % k
				n.CrashConsenter(down)
			})
			live = k - 1
		}
		n.Engine.At(time.Second, p.Start)
		n.Engine.At(4*time.Second, p.Stop)
		n.RunUntil(12 * time.Second)
		n.StopAll()

		s := p.Stats()
		if s.BlocksCut == 0 || uint64(len(cuts)) != s.BlocksCut {
			t.Fatalf("hook saw %d distinct blocks, stats report %d", len(cuts), s.BlocksCut)
		}
		for num, by := range cuts {
			if len(by) != live {
				t.Fatalf("block %d cut by consenters %v, want one cut from each of %d live replicas", num, by, live)
			}
			seen := make(map[int]bool)
			for _, c := range by {
				if c < 0 || c >= k || c == down || seen[c] {
					t.Fatalf("block %d cut by consenters %v (down: %d)", num, by, down)
				}
				seen[c] = true
			}
		}
		assertClosed(t, s)
	})
}

// An endorsing peer's restart rebuilds its validation pipeline and its
// endorser over the fresh state database: its organization's clients fail
// endorsement during the outage, then commit again once it has caught up,
// and nothing submitted is left unresolved.
func TestEndorserRestartRebuildsPipeline(t *testing.T) {
	forEachClusterSize(t, func(t *testing.T, k int) {
		n, p := testPlane(t, k, Config{})
		const endorser = 0 // org 0's only endorsing peer
		oldPeer := p.peers[endorser]
		n.Engine.At(time.Second, p.Start)
		n.Engine.At(2*time.Second, func() { n.Crash(endorser) })
		var atRestart Stats
		n.Engine.At(4*time.Second, func() {
			atRestart = p.Stats()
			n.Restart(endorser)
		})
		n.Engine.At(9*time.Second, p.Stop)
		n.RunUntil(20 * time.Second)
		n.StopAll()

		if p.peers[endorser] == oldPeer {
			t.Fatal("restart kept the crashed peer's validation pipeline")
		}
		s := p.Stats()
		if atRestart.Orgs[0].EndorseErrors == 0 {
			t.Fatal("org 0 endorsed through its endorser's outage")
		}
		if s.Orgs[1].EndorseErrors != 0 {
			t.Fatalf("org 1 lost endorsements to org 0's outage: %+v", s.Orgs[1])
		}
		if s.Orgs[0].EndorseErrors != atRestart.Orgs[0].EndorseErrors {
			t.Fatalf("endorsement kept failing after the restart: %d errors at restart, %d at the end",
				atRestart.Orgs[0].EndorseErrors, s.Orgs[0].EndorseErrors)
		}
		if s.Orgs[0].Committed <= atRestart.Orgs[0].Committed {
			t.Fatalf("org 0 committed nothing through the rebuilt pipeline: %d at restart, %d at the end",
				atRestart.Orgs[0].Committed, s.Orgs[0].Committed)
		}
		if s.CommitErrors != 0 {
			t.Fatalf("%d commit errors", s.CommitErrors)
		}
		if got, want := n.Cores[endorser].Height(), s.BlocksCut; got != want {
			t.Fatalf("restarted endorser at height %d, chain has %d blocks", got, want)
		}
		assertClosed(t, s)
	})
}

// Raft's share of the wire is what replication has to cost: on a fault-free
// 3-consenter run every committed entry crosses each of the two
// leader->follower links about once, so RaftAppend bytes stay within 1.5x
// entries x entry size x followers (the slack covers append headers and the
// empty heartbeats). The resend-the-suffix leader this replaced shipped each
// entry some eighty times.
func TestRaftAppendBytesNearOncePerFollower(t *testing.T) {
	orgs := []harness.OrgSpec{{Peers: 10}, {Peers: 10}, {Peers: 10}, {Peers: 10}}
	n, p := testPlaneOn(t, orgs, 3, Config{ClientsPerOrg: 2, Rate: 25})
	n.Engine.At(time.Second, p.Start)
	n.Engine.At(6*time.Second, p.Stop)
	n.RunUntil(10 * time.Second)
	n.StopAll()
	assertClosed(t, p.Stats())

	tv := n.TrafficView()
	entries := n.ConsenterNode(n.ConsenterLeader()).CommitIndex()
	// A log entry is a client envelope: SubmitTx carries the same bytes.
	entrySize := tv.BytesOf(wire.TypeSubmitTx) / tv.CountOf(wire.TypeSubmitTx)
	const followers = 2
	if entries < 500 {
		t.Fatalf("only %d entries committed: the run carried no load", entries)
	}
	got, ideal := tv.BytesOf(wire.TypeRaftAppend), entries*entrySize*followers
	t.Logf("%d entries of ~%d B: RaftAppend %d B in %d msgs, %.2fx the once-per-follower ideal",
		entries, entrySize, got, tv.CountOf(wire.TypeRaftAppend), float64(got)/float64(ideal))
	if got > ideal*3/2 {
		t.Fatalf("RaftAppend carried %d B, more than 1.5x the %d B of shipping each entry once per follower", got, ideal)
	}
}
