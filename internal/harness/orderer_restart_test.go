package harness

import (
	"fmt"
	"testing"
	"time"
)

// TestRestartOrdererChainDurability pins the total-outage contract that
// RestartOrderer documents, for a single consenter and for a real quorum:
// a crashed ordering service commits nothing — blocks appended while every
// consenter is down sit in the consenter shims' durable buffers, not on the
// chain — and a restart loses nothing: the consenters rejoin with their
// logs, elect a leader, commit the buffered blocks in order, and the deliver
// streams resume over the full chain, so every organization converges on
// the complete ledger.
func TestRestartOrdererChainDurability(t *testing.T) {
	for _, k := range []int{1, 3} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			n := buildNetwork(t, NetworkParams{
				Seed:       11,
				Orgs:       []OrgSpec{{Peers: 4}, {Peers: 4}},
				Consenters: k,
			})
			n.StartAll()
			// Blocks are appended at 0, 300ms, ..., 1.5s; the cluster
			// crashes at 1s, so four are committed before the outage and
			// two are appended into it.
			appendChain(n, 6, 300*time.Millisecond)
			n.Engine.At(time.Second, func() { n.CrashOrderer() })
			var duringOutage, electionsBefore int
			n.Engine.At(3900*time.Millisecond, func() {
				duringOutage = n.ChainLength()
				electionsBefore, _ = n.ElectionStats()
			})
			n.Engine.At(4*time.Second, func() { n.RestartOrderer() })
			n.RunUntil(25 * time.Second)
			n.StopAll()

			if duringOutage != 4 {
				t.Fatalf("chain length %d during the outage, want the 4 blocks committed before it", duringOutage)
			}
			if n.ConsenterLeader() < 0 {
				t.Fatal("no consenter leads after the restart")
			}
			if after, _ := n.ElectionStats(); after != electionsBefore+1 {
				t.Fatalf("%d elections before the restart, %d after, want exactly one re-election",
					electionsBefore, after)
			}
			if got := n.ChainLength(); got != 6 {
				t.Fatalf("chain length %d after restart, want 6 — blocks appended during the outage must commit", got)
			}
			assertAllCommitted(t, n, 6)
		})
	}
}
