package harness

import (
	"testing"
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
)

// The layout rule: the conservative window width must lower-bound every
// cross-shard delivery latency. Organizations WAN-separated from the
// ordering service each get a shard (plus one for ordering) and the window
// widens by the inter-site delay; on a shared LAN — or under
// ConsenterSpread, where consenters share the organizations' sites and a
// consenter and its host org's peers are one LAN apart — only the LAN
// propagation floor is safe, and the network is one shard.
func TestShardLayoutRule(t *testing.T) {
	floor := netmodel.LAN().PropMin
	if floor <= 0 {
		t.Fatalf("LAN model has no propagation floor (%v); the coordinator's safety argument is void", floor)
	}
	orgs := []OrgSpec{{Peers: 2}, {Peers: 2}, {Peers: 2}}
	wan := 25 * time.Millisecond
	cases := []struct {
		name          string
		p             NetworkParams
		wantShards    int
		wantLookahead time.Duration
	}{
		{"lan-only", NetworkParams{Orgs: orgs}, 1, floor},
		{"wan", NetworkParams{Orgs: orgs, WANDelay: wan}, 4, floor + wan},
		{"wan-clustered", NetworkParams{Orgs: orgs, WANDelay: wan, Consenters: 3}, 4, floor + wan},
		{"wan-consenter-spread", NetworkParams{Orgs: orgs, WANDelay: wan, Consenters: 3, ConsenterSpread: true}, 1, floor},
	}
	for _, c := range cases {
		c.p.Seed = 1
		n, err := NewNetwork(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		se := n.Sharded()
		if se.NumShards() != c.wantShards || se.Lookahead() != c.wantLookahead {
			t.Errorf("%s: %d shards at lookahead %v, want %d at %v",
				c.name, se.NumShards(), se.Lookahead(), c.wantShards, c.wantLookahead)
		}
		if n.Engine != se.Control() {
			t.Errorf("%s: Network.Engine is not the control engine", c.name)
		}
		if n.OrdererEngine() != se.Shard(c.wantShards-1) {
			t.Errorf("%s: ordering service is not on the last shard", c.name)
		}
		// Per-org shards are all distinct from each other and from the
		// ordering shard; the one-shard layout hosts everything together.
		distinct := map[*sim.Engine]bool{n.OrdererEngine(): true}
		for o := range orgs {
			distinct[n.OrgEngine(o)] = true
		}
		if len(distinct) != c.wantShards {
			t.Errorf("%s: orgs and ordering occupy %d engines, want %d", c.name, len(distinct), c.wantShards)
		}
	}
}
