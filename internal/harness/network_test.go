package harness

import (
	"testing"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/wire"
)

// fastNetTune speeds up the shared-core timers the way the scenario runner
// does, so catch-up paths resolve within short test horizons.
func fastNetTune(_ wire.NodeID, cfg *gossip.Config) {
	cfg.StateInfoInterval = time.Second
	cfg.AliveInterval = 2 * time.Second
	cfg.AliveExpiration = 5 * time.Second
	cfg.RecoveryInterval = 2 * time.Second
	cfg.RecoveryBatch = 64
}

func buildNetwork(t *testing.T, p NetworkParams, opts ...NetworkOption) *Network {
	t.Helper()
	opts = append([]NetworkOption{WithNetworkGossipTune(fastNetTune)}, opts...)
	n, err := NewNetwork(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func appendChain(n *Network, blocks int, interval time.Duration) {
	for i, b := range BuildChain(blocks, 2, 64, n.Params.Seed) {
		b := b
		n.Engine.At(time.Duration(i)*interval, func() { n.Append(b) })
	}
}

func assertAllCommitted(t *testing.T, n *Network, want uint64) {
	t.Helper()
	for g, c := range n.Cores {
		if n.Crashed(g) {
			continue
		}
		if h := c.Height(); h != want {
			t.Fatalf("org %d peer %d at height %d, want %d", n.OrgOf(g), g, h, want)
		}
	}
}

func TestNetworkDisseminatesWithinEveryOrg(t *testing.T) {
	n := buildNetwork(t, NetworkParams{
		Seed: 5,
		Orgs: []OrgSpec{{Peers: 5}, {Peers: 5}, {Peers: 5}},
	})
	if n.TotalPeers() != 15 {
		t.Fatalf("total peers = %d", n.TotalPeers())
	}
	if n.OrgOf(0) != 0 || n.OrgOf(7) != 1 || n.OrgOf(14) != 2 {
		t.Fatal("global index to org mapping broken")
	}
	n.StartAll()
	appendChain(n, 5, 300*time.Millisecond)
	n.RunUntil(20 * time.Second)
	n.StopAll()
	assertAllCommitted(t, n, 5)
}

func TestNetworkMixedProtocolOrgs(t *testing.T) {
	n := buildNetwork(t, NetworkParams{
		Seed: 9,
		Orgs: []OrgSpec{
			{Peers: 6, Variant: VariantOriginal},
			{Peers: 6, Variant: VariantEnhanced},
		},
	})
	if n.Orgs[0].Variant != VariantOriginal || n.Orgs[1].Variant != VariantEnhanced {
		t.Fatal("per-org variants not resolved")
	}
	n.StartAll()
	appendChain(n, 4, 400*time.Millisecond)
	n.RunUntil(25 * time.Second)
	n.StopAll()
	assertAllCommitted(t, n, 4)
}

// A crashed leader fails the deliver stream over to the next peer of the
// same organization; when the old leader restarts cold it reopens the
// stream at its own (zero) height and the orderer replays the chain.
func TestNetworkLeaderFailoverAndRewind(t *testing.T) {
	var redeliveries int
	n := buildNetwork(t, NetworkParams{
		Seed: 11,
		Orgs: []OrgSpec{{Peers: 4}, {Peers: 4}},
	}, WithDeliverHook(func(_, _ int, _ *ledger.Block, redelivery bool) {
		if redelivery {
			redeliveries++
		}
	}))
	n.StartAll()
	appendChain(n, 6, 300*time.Millisecond)
	// Crash org 1's leader mid-stream; it restarts cold later.
	n.Engine.At(700*time.Millisecond, func() { n.Crash(4) })
	n.Engine.At(6*time.Second, func() { n.Restart(4) })
	n.RunUntil(30 * time.Second)
	n.StopAll()
	assertAllCommitted(t, n, 6)
	if lead := n.OrgLeader(1); lead != 4 {
		t.Fatalf("org 1 leader = %d after restart, want 4", lead)
	}
	if redeliveries == 0 {
		t.Fatal("restarted leader never had the stream replayed from its height")
	}
}

// A whole organization that starts crashed and joins later must catch up
// from block zero through the orderer's deliver stream plus intra-org
// recovery.
func TestNetworkWholeOrgColdJoin(t *testing.T) {
	n := buildNetwork(t, NetworkParams{
		Seed: 13,
		Orgs: []OrgSpec{{Peers: 5}, {Peers: 5}},
	})
	n.StartAll()
	for g := 5; g < 10; g++ {
		n.Crash(g)
	}
	appendChain(n, 6, 300*time.Millisecond)
	n.Engine.At(4*time.Second, func() {
		for g := 5; g < 10; g++ {
			n.Restart(g)
		}
	})
	n.RunUntil(40 * time.Second)
	n.StopAll()
	assertAllCommitted(t, n, 6)
}

// A whole organization that crashes and cold-restarts between two pump
// ticks comes back with the same lowest-id leader; the orderer must still
// notice the session is new and rewind the stream to the leader's empty
// ledger instead of resuming at the old position (which would lose the
// already-streamed prefix forever, since no intra-org peer has it either).
func TestNetworkOrgFlapBetweenPumpTicksRewindsStream(t *testing.T) {
	n := buildNetwork(t, NetworkParams{
		Seed: 17,
		Orgs: []OrgSpec{{Peers: 4}, {Peers: 4}},
	})
	n.StartAll()
	appendChain(n, 4, 300*time.Millisecond)
	n.Engine.At(2500*time.Millisecond, func() {
		for g := 4; g < 8; g++ {
			n.Crash(g)
		}
	})
	// Restart 400 ms later: inside the same 1 s redelivery interval, so no
	// pump tick observed the outage.
	n.Engine.At(2900*time.Millisecond, func() {
		for g := 4; g < 8; g++ {
			n.Restart(g)
		}
	})
	n.RunUntil(30 * time.Second)
	n.StopAll()
	assertAllCommitted(t, n, 4)
}

func TestNetworkRejectsBadSpecs(t *testing.T) {
	if _, err := NewNetwork(NetworkParams{Seed: 1}); err == nil {
		t.Fatal("empty network accepted")
	}
	if _, err := NewNetwork(NetworkParams{Seed: 1, Orgs: []OrgSpec{{Peers: 1}}}); err == nil {
		t.Fatal("single-peer org accepted")
	}
	if _, err := NewNetwork(NetworkParams{Seed: 1, Orgs: []OrgSpec{{Peers: 3, Variant: "bogus"}}}); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// A peer that restarts after a long uptime must be detected as live again
// within a few heartbeat intervals: its fresh core's Alive sequences start
// above the previous incarnation's, so survivors do not discard them as
// replays.
func TestRestartedPeerRejoinsMembershipPromptly(t *testing.T) {
	n := buildNetwork(t, NetworkParams{Seed: 13, Orgs: []OrgSpec{{Peers: 6}}},
		WithNetworkGossipTune(func(_ wire.NodeID, cfg *gossip.Config) {
			cfg.AliveInterval = time.Second
			cfg.AliveExpiration = 3 * time.Second
			cfg.AliveFanout = 5 // broadcast: fast-converging views for the test
		}))
	n.StartAll()
	// Long uptime: the old incarnation racks up ~60 heartbeat sequences.
	n.RunUntil(60 * time.Second)
	if !n.Cores[3].PeerAlive(5) {
		t.Fatal("peer 5 not live before the crash")
	}
	n.Crash(5)
	n.RunUntil(70 * time.Second)
	if n.Cores[3].PeerAlive(5) {
		t.Fatal("crashed peer still in the live view")
	}
	n.Restart(5)
	// Within a few alive intervals — not another 60 s — the rejoin shows.
	n.RunUntil(75 * time.Second)
	if !n.Cores[3].PeerAlive(5) {
		t.Fatal("restarted peer not re-detected within a few heartbeats")
	}
}

// The ordering service delivers to a peer it can reach: with the elected
// leader on the far side of a partition, delivery goes to the orderer-side
// leader instead of silently vanishing into the cut.
func TestDeliverBlockRespectsPartition(t *testing.T) {
	var targets []int
	n := buildNetwork(t, NetworkParams{Seed: 13, Orgs: []OrgSpec{{Peers: 6}}},
		WithDeliverHook(func(_, peer int, _ *ledger.Block, _ bool) { targets = append(targets, peer) }))
	n.StartAll()
	// Crash peers 0-2; the elected leader is now peer 3.
	for g := 0; g < 3; g++ {
		n.Crash(g)
	}
	if n.OrgLeader(0) != 3 {
		t.Fatalf("leader = %d, want 3", n.OrgLeader(0))
	}
	// Peers 2-3 are cut off from the ordering service and from {4, 5}.
	n.Net.Partition(nil, []wire.NodeID{2, 3})
	n.Append(BuildChain(1, 2, 64, 1)[0])
	n.RunUntil(5 * time.Second)
	if len(targets) == 0 || targets[0] != 4 {
		t.Fatalf("delivered to %v, want peer 4 (lowest live peer the orderer reaches)", targets)
	}
	if n.Cores[4].Height() != 1 {
		t.Fatal("reachable peer never received the block")
	}
	// Cut off entirely: nothing is delivered.
	n.Net.Partition(nil, []wire.NodeID{0, 1, 2, 3, 4, 5})
	targets = nil
	n.Append(BuildChain(2, 2, 64, 1)[1])
	n.RunUntil(10 * time.Second)
	if len(targets) != 0 {
		t.Fatalf("delivery into a total cut targeted %v", targets)
	}
}

func TestCrashRestartLifecycle(t *testing.T) {
	n := buildNetwork(t, NetworkParams{Seed: 13, Orgs: []OrgSpec{{Peers: 4}}})
	n.StartAll()
	if n.LiveCount() != 4 || n.Crashed(2) {
		t.Fatal("fresh network in wrong state")
	}
	n.Crash(2)
	n.Crash(2) // idempotent
	if n.LiveCount() != 3 || !n.Crashed(2) {
		t.Fatal("crash not reflected")
	}
	old := n.Cores[2]
	fresh := n.Restart(2)
	if fresh == old {
		t.Fatal("restart did not build a fresh core")
	}
	if n.Restart(2) != fresh {
		t.Fatal("restart of a live peer must be a no-op")
	}
	if n.LiveCount() != 4 {
		t.Fatal("restart not reflected in live count")
	}
}
