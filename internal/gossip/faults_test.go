package gossip_test

import (
	"testing"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/gossip/original"
	"fabricgossip/internal/wire"
)

func uintID(i int) wire.NodeID { return wire.NodeID(i) }

// Failure injection: gossip must deliver through packet loss, which is the
// whole point of epidemic dissemination ("blockchains are expected to work
// under challenging conditions such as churn, packet loss", paper §I).

func TestEnhancedSurvivesPacketLoss(t *testing.T) {
	const n = 40
	cfg, err := enhanced.ConfigFor(n, 4, 1e-6, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := buildOrg(t, 41, n, enhancedFactory(cfg), func(g *gossip.Config) {
		g.RecoveryInterval = 3 * time.Second
		g.StateInfoInterval = time.Second
	})
	o.net.SetDropRate(0.10) // 10% uniform loss
	blocks := testChain(5)
	for i, b := range blocks {
		b := b
		o.engine.At(time.Duration(i)*500*time.Millisecond, func() { o.coresHandleDeliver(b) })
	}
	// The epidemic's redundancy absorbs most loss; recovery mops up any
	// residue well within this horizon.
	o.engine.RunUntil(60 * time.Second)
	for i := 0; i < n; i++ {
		for _, b := range blocks {
			if _, ok := o.received[i][b.Num]; !ok {
				t.Fatalf("peer %d never received block %d under 10%% loss", i, b.Num)
			}
		}
	}
}

func TestOriginalSurvivesPacketLoss(t *testing.T) {
	const n = 30
	o := buildOrg(t, 43, n, originalFactory(original.DefaultConfig()), func(g *gossip.Config) {
		g.RecoveryInterval = 5 * time.Second
		g.StateInfoInterval = time.Second
	})
	o.net.SetDropRate(0.10)
	blocks := testChain(3)
	for i, b := range blocks {
		b := b
		o.engine.At(time.Duration(i)*time.Second, func() { o.coresHandleDeliver(b) })
	}
	o.engine.RunUntil(60 * time.Second)
	for i := 0; i < n; i++ {
		for _, b := range blocks {
			if _, ok := o.received[i][b.Num]; !ok {
				t.Fatalf("peer %d never received block %d under 10%% loss", i, b.Num)
			}
		}
	}
}

func TestEnhancedSurvivesLinkPartitionWithRecovery(t *testing.T) {
	// Partition one peer away from the others and the orderer during
	// dissemination; after the partition heals, recovery brings it up to
	// date.
	const n = 20
	cfg, err := enhanced.ConfigFor(n, 3, 1e-6, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := buildOrg(t, 47, n, enhancedFactory(cfg), func(g *gossip.Config) {
		g.RecoveryInterval = 2 * time.Second
		g.StateInfoInterval = time.Second
	})
	victim := 9
	o.net.Partition(nil, []wire.NodeID{uintID(victim)})
	blocks := testChain(4)
	for i, b := range blocks {
		b := b
		o.engine.At(time.Duration(i)*300*time.Millisecond, func() { o.coresHandleDeliver(b) })
	}
	o.engine.RunUntil(5 * time.Second)
	if len(o.received[victim]) != 0 {
		t.Fatal("partitioned peer received blocks")
	}
	o.net.Heal()
	o.engine.RunUntil(30 * time.Second)
	for _, b := range blocks {
		if _, ok := o.received[victim][b.Num]; !ok {
			t.Fatalf("healed peer still missing block %d", b.Num)
		}
	}
	// And its commits arrived in order despite the gap.
	for j, num := range o.committed[victim] {
		if num != uint64(j) {
			t.Fatalf("commit order %v", o.committed[victim])
		}
	}
}
