// Multiorg: the paper's Figure 1 deployment shape — one channel spanning
// three organizations — as a thin client of harness.Network. The ordering
// service streams each new block to one leader peer per organization;
// gossip then disseminates it within each organization only (Fabric does
// not gossip data blocks across organizations, paper §III-A). The per-org
// report shows each epidemic running independently, next to the aggregate
// latency distribution and bandwidth-overhead ratio.
//
//	go run ./examples/multiorg
package main

import (
	"fmt"
	"log"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/wire"
)

const (
	orgs        = 3
	peersPerOrg = 15
	blocks      = 30
)

func main() {
	// One recorder per organization plus the network-wide one. A LAN-only
	// network is one shard, so every hook below runs on one goroutine.
	lat := make([]*metrics.LatencyRecorder, orgs)
	total := metrics.NewLatencyRecorder()
	starts := make([]map[uint64]time.Duration, orgs)
	for o := range starts {
		lat[o] = metrics.NewLatencyRecorder()
		starts[o] = make(map[uint64]time.Duration)
	}

	net, err := harness.NewNetwork(harness.NetworkParams{
		Seed:    99,
		Variant: harness.VariantEnhanced,
		Orgs: []harness.OrgSpec{
			{Peers: peersPerOrg}, {Peers: peersPerOrg}, {Peers: peersPerOrg},
		},
	}, harness.WithNetworkCoreHook(func(global int, core *gossip.Core) {
		org := global / peersPerOrg
		core.OnFirstReception(func(b *ledger.Block, at time.Duration) {
			// The first reception inside an org is its leader's copy from
			// the orderer; every other peer measures against it.
			if start, ok := starts[org][b.Num]; ok {
				lat[org].Record(b.Num, wire.NodeID(global), at-start)
				total.Record(b.Num, wire.NodeID(global), at-start)
			} else {
				starts[org][b.Num] = at
			}
		})
	}))
	if err != nil {
		log.Fatal(err)
	}

	net.StartAll()
	chain := harness.BuildChain(blocks, 20, 1500, 99)
	for i, b := range chain {
		b := b
		net.Engine.At(time.Duration(i)*400*time.Millisecond, func() { net.Append(b) })
	}
	net.RunUntil(time.Duration(blocks)*400*time.Millisecond + 10*time.Second)
	net.StopAll()
	traffic := net.TrafficView()

	fmt.Printf("%d organizations x %d peers, %d blocks each:\n", orgs, peersPerOrg, blocks)
	blockBytes := wire.BlockEncodedSize(chain[0])
	for o, rec := range lat {
		if rec.Blocks() != blocks || rec.Peers() != peersPerOrg-1 {
			log.Fatalf("org %d incomplete: %d blocks x %d peers", o, rec.Blocks(), rec.Peers())
		}
		var inBytes uint64
		for _, id := range net.Orgs[o].Peers {
			in, _ := traffic.NodeTotals(id)
			inBytes += in
		}
		fmt.Printf("  org %c: %v, overhead %.2fx ideal\n", 'A'+o,
			metrics.Summarize(rec.All()),
			metrics.OverheadRatio(inBytes, blockBytes, peersPerOrg, blocks))
	}
	fmt.Printf("  aggregate: %v\n", metrics.Summarize(total.All()))
	fmt.Printf("  total traffic %.2f MB across the shared LAN\n",
		float64(traffic.TotalBytes())/1e6)
	fmt.Println("every organization's epidemic ran independently over the shared LAN")
}
