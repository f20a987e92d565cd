// Endtoend: the full execute-order-validate pipeline on one simulated
// network — MSP-certified identities, a client collecting endorsements, a
// three-node Raft ordering cluster cutting and signing blocks, enhanced
// gossip disseminating them to every peer, and MVCC validation committing
// them to the channel's chain, each peer's ledger a height on it.
//
//	go run ./examples/endtoend
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"fabricgossip/internal/chaincode"
	"fabricgossip/internal/client"
	"fabricgossip/internal/endorse"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/msp"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/order"
	"fabricgossip/internal/peer"
	"fabricgossip/internal/raft"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

const (
	nPeers    = 20
	nOrderers = 3
)

func main() {
	engine := sim.NewEngine(2024)
	net := transport.NewSimNetwork(engine, netmodel.LAN(), nil)

	// Membership service provider certifies everyone.
	idRng := rand.New(rand.NewSource(1))
	provider, err := msp.NewProvider(idRng)
	if err != nil {
		log.Fatal(err)
	}
	ordererID, ordererSigner, err := provider.Enroll(msp.RoleOrderer, "ordererOrg", "orderer0", idRng)
	if err != nil {
		log.Fatal(err)
	}
	endorserID, endorserSigner, err := provider.Enroll(msp.RolePeer, "orgA", "peer1", idRng)
	if err != nil {
		log.Fatal(err)
	}
	// One validated chain for the channel; each peer's ledger is a height on it.
	chain := ledger.NewChain(endorse.NewPolicy(1, endorserID).Checker())

	// Peers 0..nPeers-1 run enhanced gossip + validation.
	gossipCfg, err := enhanced.ConfigFor(nPeers, 3, 1e-6, 2)
	if err != nil {
		log.Fatal(err)
	}
	peerIDs := make([]wire.NodeID, nPeers)
	for i := range peerIDs {
		peerIDs[i] = wire.NodeID(i)
	}
	peers := make([]*peer.Peer, nPeers)
	for i := 0; i < nPeers; i++ {
		ep := net.AddNode()
		core := gossip.New(gossip.DefaultConfig(ep.ID(), peerIDs), ep, engine,
			engine.Rand("gossip"), enhanced.New(gossipCfg))
		peers[i] = peer.New(core, chain, engine, peer.Config{
			ValidationPerTx: 5 * time.Millisecond,
			OrdererKey:      ordererID.Key,
		})
		core.Start()
	}

	// Three-node Raft ordering cluster; its nodes occupy ids
	// nPeers..nPeers+2 on the same network. The lead service delivers
	// cut blocks to the organization's leader peer (peer 0).
	raftIDs := make([]wire.NodeID, nOrderers)
	raftEps := make([]*transport.SimEndpoint, nOrderers)
	for i := range raftIDs {
		raftEps[i] = net.AddNode()
		raftIDs[i] = raftEps[i].ID()
	}
	var lead *order.Service
	deliverEp := net.AddNode() // dedicated delivery endpoint of the lead orderer
	for i := 0; i < nOrderers; i++ {
		node := raft.New(raft.DefaultConfig(raftIDs[i], raftIDs), raftEps[i], engine, engine.Rand("raft"))
		deliver := func(*ledger.Block) {} // followers cut but do not deliver
		if i == 0 {
			deliver = func(b *ledger.Block) { _ = deliverEp.Send(0, &wire.DeliverBlock{Block: b}) }
		}
		svc := order.NewService(order.Config{MaxTxPerBlock: 5, BatchTimeout: 400 * time.Millisecond},
			engine, raft.NewConsenter(node, engine), ordererSigner, deliver)
		if i == 0 {
			lead = svc
		}
		node.Start()
	}

	// The endorsing peer simulates chaincodes against its committed state.
	endorser := endorse.NewEndorser(endorserID, endorserSigner, peers[1].State())
	endorser.Install(chaincode.Counter{})

	cl, err := client.New("client0", []*endorse.Endorser{endorser}, lead.Broadcast)
	if err != nil {
		log.Fatal(err)
	}

	// Workload: 30 counter increments across 3 keys, one every 150 ms —
	// fast enough that a few same-key increments race and conflict.
	keys := []string{"alpha", "beta", "gamma"}
	for i := 0; i < 30; i++ {
		key := keys[i%len(keys)]
		engine.At(time.Duration(i)*150*time.Millisecond, func() {
			if _, err := cl.Invoke("counter", []string{"incr", key}, nil); err != nil {
				fmt.Printf("  invoke error: %v\n", err)
			}
		})
	}
	engine.RunUntil(30 * time.Second)

	// Report: every peer holds the same chain; counters reflect the valid
	// increments; invalid ones were MVCC conflicts.
	fmt.Printf("ordering service cut %d blocks\n", lead.Height())
	h := peers[0].Ledger().Height()
	same := true
	for _, p := range peers[1:] {
		same = same && p.Ledger().Height() == h
	}
	fmt.Printf("all %d peers at height %d: %v\n", nPeers, h, same)

	state := peers[1].State()
	var sum uint64
	for _, k := range keys {
		vv, _ := state.Get(k)
		v, _ := chaincode.DecodeUint64(vv.Value)
		fmt.Printf("  counter %-5s = %d\n", k, v)
		sum += v
	}
	st := cl.Stats()
	conflicts := peers[1].Ledger().Conflicts()
	fmt.Printf("submitted %d, committed %d, validation-time conflicts %d\n",
		st.Submitted, sum, conflicts)
	// The Raft consenter is at-least-once: proposals resubmitted across a
	// leader change can appear twice in the ordered stream. Duplicates
	// are harmless — the second copy always fails MVCC validation — but
	// they show up in the conflict count.
	dup := int(sum) + conflicts - st.Submitted
	if dup > 0 {
		fmt.Printf("(%d duplicate ordering(s) from at-least-once resubmission, rejected by MVCC)\n", dup)
	}
	// The example's claims, checked (CI runs it): one chain everywhere, and
	// every submission either raised a counter or was rejected by MVCC.
	if !same || h == 0 {
		log.Fatalf("peers disagree on the chain (or committed nothing): height %d", h)
	}
	if dup < 0 {
		log.Fatalf("counters sum to %d, want submitted %d - conflicts %d", sum, st.Submitted, conflicts)
	}
}
