// Endtoend: the full execute-order-validate pipeline on one simulated
// network, as a thin client of harness.Network and the workload plane —
// MSP-certified identities, clients collecting endorsements, a three-node
// Raft ordering cluster cutting and signing blocks, enhanced gossip
// disseminating them to every peer, and MVCC validation committing them to
// the channel's chain, each peer's ledger a height on it.
//
//	go run ./examples/endtoend
package main

import (
	"fmt"
	"log"
	"time"

	"fabricgossip/internal/harness"
	"fabricgossip/internal/workload"
)

const nPeers = 20

func main() {
	net, err := harness.NewNetwork(harness.NetworkParams{
		Seed:       2024,
		Variant:    harness.VariantEnhanced,
		Orgs:       []harness.OrgSpec{{Peers: nPeers}},
		Consenters: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Two clients each send a counter increment every 300 ms over three
	// keys, so a few same-key increments race and conflict.
	plane, err := workload.Install(net, workload.Config{
		ClientsPerOrg: 2,
		Rate:          1 / 0.3,
		Keys:          3,
		MaxTxPerBlock: 5,
		BatchTimeout:  400 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	net.StartAll()
	net.Engine.At(time.Second, plane.Start)
	net.Engine.At(6*time.Second, plane.Stop)
	net.RunUntil(30 * time.Second)
	net.StopAll()

	st := plane.Stats()
	fmt.Printf("3 consenters cut %d blocks (%d by size, %d by timeout), %d transactions\n",
		st.BlocksCut, st.CutBySize, st.CutByTimeout, st.OrderedTx)
	h := net.ChainLength()
	same := h > 0
	for _, c := range net.Cores {
		same = same && c.Height() == uint64(h)
	}
	fmt.Printf("all %d peers at height %d: %v\n", nPeers, h, same)
	fmt.Printf("submitted %d, committed %d, validation-time conflicts %d, commit latency %v\n",
		st.Submitted, st.Committed, st.Conflicts, st.Latency)
	// The example's claims, checked (CI runs it): one chain everywhere, and
	// every submission either committed or was rejected by MVCC, once.
	if !same {
		log.Fatalf("peers disagree on the chain (or committed nothing): height %d", h)
	}
	if st.Submitted == 0 || st.Submitted != st.Committed+st.Conflicts {
		log.Fatalf("submitted %d, want committed %d + conflicts %d", st.Submitted, st.Committed, st.Conflicts)
	}
}
