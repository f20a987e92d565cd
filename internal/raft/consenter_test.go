package raft

import (
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/order"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// TestOrderingServiceOverRaft integrates the Raft consenter with the block
// cutter: three ordering nodes, transactions submitted at any of them, and
// every node cutting the identical chain of blocks. Broadcasting each
// transaction to all three services, as harness clients do, must still
// order each one once: the order.Consenter contract is exactly-once.
func TestOrderingServiceOverRaft(t *testing.T) {
	for _, tc := range []struct {
		name    string
		targets func(i int) []int // the services transaction i goes to
	}{
		{"round-robin", func(i int) []int { return []int{i % 3} }},
		{"broadcast to every service", func(int) []int { return []int{0, 1, 2} }},
	} {
		t.Run(tc.name, func(t *testing.T) { orderOverRaft(t, tc.targets) })
	}
}

func orderOverRaft(t *testing.T, targets func(i int) []int) {
	engine := sim.NewEngine(11)
	model := netmodel.Model{PropMin: time.Millisecond, PropMax: 2 * time.Millisecond}
	net := transport.NewSimNetwork(engine, model, nil)

	const clusterSize = 3
	ids := make([]wire.NodeID, clusterSize)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	var services []*order.Service
	var cut [][]*ledger.Block
	var consenters []*Consenter
	cut = make([][]*ledger.Block, clusterSize)
	for i := 0; i < clusterSize; i++ {
		ep := net.AddNode()
		node := New(DefaultConfig(ep.ID(), ids), ep, engine, engine.Rand("raft"))
		cons := NewConsenter(node, engine)
		idx := i
		svc := order.NewService(
			order.Config{MaxTxPerBlock: 3, BatchTimeout: 500 * time.Millisecond},
			engine, cons, nil,
			func(b *ledger.Block) { cut[idx] = append(cut[idx], b) },
		)
		services = append(services, svc)
		consenters = append(consenters, cons)
		node.Start()
	}

	mkTx := func(i int) *ledger.Transaction {
		rw := ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte{byte(i)}}}}
		return &ledger.Transaction{
			ID:     ledger.ProposalDigest("c", "cc", rw, []byte{byte(i)}),
			Client: "c", Chaincode: "cc", RWSet: rw, Payload: []byte{byte(i)},
		}
	}

	// Submit 8 transactions, starting before any leader exists (the
	// consenter retries).
	for i := 0; i < 8; i++ {
		i := i
		engine.At(time.Duration(i)*50*time.Millisecond, func() {
			for _, s := range targets(i) {
				_ = services[s].Broadcast(mkTx(i))
			}
		})
	}
	engine.RunUntil(20 * time.Second)

	// All three ordering nodes must have cut identical chains covering
	// all 8 transactions once each.
	for i := 1; i < clusterSize; i++ {
		if len(cut[i]) != len(cut[0]) {
			t.Fatalf("node %d cut %d blocks, node 0 cut %d", i, len(cut[i]), len(cut[0]))
		}
	}
	if len(cut[0]) == 0 {
		t.Fatal("no blocks cut")
	}
	total := 0
	var prev *ledger.Block
	for bi, b := range cut[0] {
		if err := b.VerifyLinkage(prev); err != nil {
			t.Fatalf("linkage at block %d: %v", bi, err)
		}
		prev = b
		total += len(b.Txs)
		for i := 1; i < clusterSize; i++ {
			if cut[i][bi].Hash() != b.Hash() {
				t.Fatalf("node %d block %d differs", i, bi)
			}
		}
	}
	if total != 8 {
		t.Fatalf("ordered %d txs, want 8", total)
	}
	// Consenter accessor sanity.
	if consenters[0].Node() == nil {
		t.Fatal("consenter lost its node")
	}
}

// TestRaftConsenterSurvivesLeaderCrash checks that ordering continues after
// the Raft leader fails: a new leader is elected and later submissions cut
// blocks on the surviving nodes.
func TestRaftConsenterSurvivesLeaderCrash(t *testing.T) {
	engine := sim.NewEngine(13)
	model := netmodel.Model{PropMin: time.Millisecond, PropMax: 2 * time.Millisecond}
	net := transport.NewSimNetwork(engine, model, nil)

	const clusterSize = 3
	ids := make([]wire.NodeID, clusterSize)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	nodes := make([]*Node, clusterSize)
	services := make([]*order.Service, clusterSize)
	cut := make([][]*ledger.Block, clusterSize)
	for i := 0; i < clusterSize; i++ {
		ep := net.AddNode()
		nodes[i] = New(DefaultConfig(ep.ID(), ids), ep, engine, engine.Rand("raft"))
		idx := i
		services[i] = order.NewService(
			order.Config{MaxTxPerBlock: 1, BatchTimeout: time.Second},
			engine, NewConsenter(nodes[i], engine), nil,
			func(b *ledger.Block) { cut[idx] = append(cut[idx], b) },
		)
		nodes[i].Start()
	}
	engine.RunUntil(2 * time.Second)

	var leaderIdx int
	for i, n := range nodes {
		if st, _, _, _ := n.Status(); st == Leader {
			leaderIdx = i
		}
	}
	survivor := (leaderIdx + 1) % clusterSize

	rw := ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte{1}}}}
	tx := &ledger.Transaction{ID: ledger.ProposalDigest("c", "cc", rw, nil), Client: "c", Chaincode: "cc", RWSet: rw}

	net.SetNodeDown(wire.NodeID(leaderIdx), true)
	engine.After(0, func() { _ = services[survivor].Broadcast(tx) })
	engine.RunUntil(engine.Now() + 10*time.Second)

	if len(cut[survivor]) != 1 || len(cut[survivor][0].Txs) != 1 {
		t.Fatalf("survivor cut %d blocks after failover", len(cut[survivor]))
	}
}
