// Quickstart: disseminate blocks through the paper's enhanced gossip in a
// 25-peer simulated organization, in a few lines of API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"fabricgossip/internal/analysis"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

func main() {
	const nPeers, nBlocks = 25, 20

	// 1. Pick protocol parameters analytically: the paper's primary
	//    configuration — fan-out floor(ln n) = 3 and the TTL that makes
	//    the probability of imperfect dissemination <= 1e-6.
	cfg, err := enhanced.DefaultConfig(nPeers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enhanced gossip: fout=%d TTL=%d (pe = %.2e)\n",
		cfg.Fout, cfg.TTL, analysis.ImperfectProb(nPeers, cfg.Fout, int(cfg.TTL)))

	// 2. Build a simulated LAN and one gossip core per peer.
	engine := sim.NewEngine(42)
	net := transport.NewSimNetwork(engine, netmodel.LAN(), nil)
	peerIDs := make([]wire.NodeID, nPeers)
	for i := range peerIDs {
		peerIDs[i] = wire.NodeID(i)
	}
	rec := metrics.NewLatencyRecorder()
	start := make(map[uint64]time.Duration)
	for i := 0; i < nPeers; i++ {
		ep := net.AddNode()
		core := gossip.New(gossip.DefaultConfig(ep.ID(), peerIDs), ep, engine,
			engine.Rand("gossip"), enhanced.New(cfg))
		self := ep.ID()
		core.OnFirstReception(func(b *ledger.Block, at time.Duration) {
			if self == 0 {
				start[b.Num] = at // leader reception defines t=0
				return
			}
			rec.Record(b.Num, self, at-start[b.Num])
		})
		core.Start()
	}

	// 3. Inject 20 blocks at the leader peer, one every 100 ms, as the
	//    ordering service would.
	orderer := net.AddNode()
	for i, b := range harness.BuildChain(nBlocks, 10, 1000, 42) {
		b := b
		engine.At(time.Duration(i)*100*time.Millisecond, func() {
			_ = orderer.Send(0, &wire.DeliverBlock{Block: b})
		})
	}
	engine.RunUntil(10 * time.Second)

	// 4. Report.
	fmt.Printf("observations: %d blocks x %d peers = %d receptions\n",
		rec.Blocks(), rec.Peers(), rec.Count())
	fmt.Printf("dissemination latency: %v\n", metrics.Summarize(rec.All()))
	// The example's claim, checked (CI runs it): every non-leader peer got
	// every block.
	if want := nBlocks * (nPeers - 1); rec.Count() != want {
		log.Fatalf("%d receptions, want %d: some peer missed a block", rec.Count(), want)
	}
}
