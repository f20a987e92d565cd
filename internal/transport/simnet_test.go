package transport

import (
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

func fixedModel(d time.Duration) netmodel.Model {
	return netmodel.Model{PropMin: d, PropMax: d}
}

func TestSimNetworkDeliversWithModelDelay(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewSimNetwork(e, fixedModel(5*time.Millisecond), nil)
	a, b := n.AddNode(), n.AddNode()
	if a.ID() != 0 || b.ID() != 1 {
		t.Fatalf("ids = %v, %v", a.ID(), b.ID())
	}

	var gotFrom wire.NodeID
	var gotAt time.Duration
	var gotMsg wire.Message
	b.SetHandler(func(from wire.NodeID, msg wire.Message) {
		gotFrom, gotAt, gotMsg = from, e.Now(), msg
	})
	sent := &wire.StateInfo{Height: 7}
	if err := a.Send(b.ID(), sent); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if gotMsg != sent {
		t.Fatal("message not delivered (or copied)")
	}
	if gotFrom != a.ID() {
		t.Fatalf("from = %v, want %v", gotFrom, a.ID())
	}
	if gotAt != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", gotAt)
	}
}

func TestSimNetworkUnknownDestination(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewSimNetwork(e, fixedModel(0), nil)
	a := n.AddNode()
	if err := a.Send(99, &wire.StateInfo{}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
}

func TestSimNetworkNoHandlerNoCrash(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewSimNetwork(e, fixedModel(0), nil)
	a, b := n.AddNode(), n.AddNode()
	_ = b
	if err := a.Send(1, &wire.StateInfo{}); err != nil {
		t.Fatal(err)
	}
	e.Run() // handler nil: message silently discarded
}

func TestSimNetworkLinkFault(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewSimNetwork(e, fixedModel(0), nil)
	a, b := n.AddNode(), n.AddNode()
	count := 0
	b.SetHandler(func(wire.NodeID, wire.Message) { count++ })

	n.SetLinkDown(a.ID(), b.ID(), true)
	_ = a.Send(b.ID(), &wire.StateInfo{})
	e.Run()
	if count != 0 {
		t.Fatal("message crossed a down link")
	}
	n.SetLinkDown(a.ID(), b.ID(), false)
	_ = a.Send(b.ID(), &wire.StateInfo{})
	e.Run()
	if count != 1 {
		t.Fatal("message lost after link restore")
	}
}

func TestSimNetworkNodeDown(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewSimNetwork(e, fixedModel(0), nil)
	a, b, c := n.AddNode(), n.AddNode(), n.AddNode()
	var bGot, cGot int
	b.SetHandler(func(wire.NodeID, wire.Message) { bGot++ })
	c.SetHandler(func(wire.NodeID, wire.Message) { cGot++ })

	n.SetNodeDown(b.ID(), true)
	_ = a.Send(b.ID(), &wire.StateInfo{}) // inbound to down node: dropped
	_ = b.Send(c.ID(), &wire.StateInfo{}) // outbound from down node: dropped
	_ = a.Send(c.ID(), &wire.StateInfo{}) // unrelated: delivered
	e.Run()
	if bGot != 0 || cGot != 1 {
		t.Fatalf("bGot=%d cGot=%d, want 0 and 1", bGot, cGot)
	}
	n.SetNodeDown(b.ID(), false)
	_ = a.Send(b.ID(), &wire.StateInfo{})
	e.Run()
	if bGot != 1 {
		t.Fatal("revived node did not receive")
	}
}

func TestSimNetworkDropRate(t *testing.T) {
	e := sim.NewEngine(42)
	n := NewSimNetwork(e, fixedModel(0), nil)
	a, b := n.AddNode(), n.AddNode()
	got := 0
	b.SetHandler(func(wire.NodeID, wire.Message) { got++ })
	n.SetDropRate(0.5)
	const sent = 2000
	for i := 0; i < sent; i++ {
		_ = a.Send(b.ID(), &wire.StateInfo{})
	}
	e.Run()
	if got < sent/3 || got > 2*sent/3 {
		t.Fatalf("got %d of %d at drop rate 0.5", got, sent)
	}
}

func TestSimNetworkLossExemptTypeAlwaysDelivered(t *testing.T) {
	e := sim.NewEngine(42)
	n := NewSimNetwork(e, fixedModel(0), nil)
	a, b := n.AddNode(), n.AddNode()
	var infos, delivers int
	b.SetHandler(func(_ wire.NodeID, msg wire.Message) {
		switch msg.(type) {
		case *wire.StateInfo:
			infos++
		case *wire.DeliverBlock:
			delivers++
		}
	})
	n.SetDropRate(0.5)
	n.SetLossExempt(wire.TypeDeliverBlock, true)
	for i := 0; i < 200; i++ {
		_ = a.Send(b.ID(), &wire.StateInfo{})
		_ = a.Send(b.ID(), &wire.DeliverBlock{Block: &ledger.Block{Num: uint64(i)}})
	}
	e.Run()
	if delivers != 200 {
		t.Fatalf("exempt type delivered %d of 200", delivers)
	}
	if infos == 200 || infos == 0 {
		t.Fatalf("non-exempt type delivered %d of 200 at drop rate 0.5", infos)
	}
	// Exemption does not bypass a crashed destination.
	n.SetNodeDown(b.ID(), true)
	_ = a.Send(b.ID(), &wire.DeliverBlock{Block: &ledger.Block{Num: 0}})
	e.Run()
	if delivers != 200 {
		t.Fatal("exempt message reached a crashed node")
	}
}

func TestSimNetworkTrafficAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	tr := netmodel.NewTraffic(time.Second)
	n := NewSimNetwork(e, fixedModel(0), tr)
	a, b := n.AddNode(), n.AddNode()
	b.SetHandler(func(wire.NodeID, wire.Message) {})
	msg := &wire.StateInfo{Height: 1}
	_ = a.Send(b.ID(), msg)
	e.Run()
	if tr.CountOf(wire.TypeStateInfo) != 1 {
		t.Fatal("message not accounted")
	}
	if got := tr.TotalBytes(); got != uint64(msg.EncodedSize()) {
		t.Fatalf("accounted %d bytes, want %d", got, msg.EncodedSize())
	}
	// Dropped messages still consume sender bandwidth.
	n.SetLinkDown(a.ID(), b.ID(), true)
	_ = a.Send(b.ID(), msg)
	e.Run()
	if tr.CountOf(wire.TypeStateInfo) != 2 {
		t.Fatal("dropped message not accounted at sender")
	}
}

func TestSimNetworkPartitionAndHeal(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewSimNetwork(e, fixedModel(0), nil)
	eps := make([]*SimEndpoint, 4)
	got := make([]int, 4)
	for i := range eps {
		eps[i] = n.AddNode()
		i := i
		eps[i].SetHandler(func(wire.NodeID, wire.Message) { got[i]++ })
	}
	// Split {0,1} | {2,3}: traffic within a side flows, across is dropped.
	n.Partition([]wire.NodeID{0, 1}, []wire.NodeID{2, 3})
	_ = eps[0].Send(1, &wire.StateInfo{})
	_ = eps[0].Send(2, &wire.StateInfo{})
	_ = eps[3].Send(2, &wire.StateInfo{})
	_ = eps[3].Send(1, &wire.StateInfo{})
	e.Run()
	if got[1] != 1 || got[2] != 1 {
		t.Fatalf("intra-partition traffic lost: got = %v", got)
	}
	if got[0] != 0 || got[3] != 0 {
		t.Fatalf("unexpected deliveries: got = %v", got)
	}
	// Healing leaves a crashed node down.
	n.SetNodeDown(3, true)
	n.Heal()
	_ = eps[0].Send(2, &wire.StateInfo{})
	_ = eps[0].Send(3, &wire.StateInfo{})
	e.Run()
	if got[2] != 2 {
		t.Fatal("healed partition still dropping")
	}
	if got[3] != 0 {
		t.Fatal("heal revived a crashed node")
	}
}

func TestSimNetworkPartitionUnlistedNodesJoinGroupZero(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewSimNetwork(e, fixedModel(0), nil)
	a, b, c := n.AddNode(), n.AddNode(), n.AddNode()
	var aGot, cGot int
	a.SetHandler(func(wire.NodeID, wire.Message) { aGot++ })
	c.SetHandler(func(wire.NodeID, wire.Message) { cGot++ })
	// Only node 1 is exiled; node 2 is unlisted and stays with group 0.
	n.Partition([]wire.NodeID{0}, []wire.NodeID{1})
	_ = c.Send(a.ID(), &wire.StateInfo{}) // unlisted -> group 0: delivered
	_ = b.Send(c.ID(), &wire.StateInfo{}) // group 1 -> group 0: dropped
	e.Run()
	if aGot != 1 || cGot != 0 {
		t.Fatalf("aGot=%d cGot=%d, want 1 and 0", aGot, cGot)
	}
	// A new partition replaces the old one: node 1, unlisted now, is back
	// in group 0 with node 2, and node 0 is exiled.
	n.Partition([]wire.NodeID{2}, []wire.NodeID{0})
	_ = b.Send(c.ID(), &wire.StateInfo{})
	_ = c.Send(a.ID(), &wire.StateInfo{})
	e.Run()
	if aGot != 1 || cGot != 1 {
		t.Fatalf("after re-partition aGot=%d cGot=%d, want 1 and 1", aGot, cGot)
	}
}

func TestSimNetworkLinkAndNodeExtraDelay(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewSimNetwork(e, fixedModel(time.Millisecond), nil)
	a, b := n.AddNode(), n.AddNode()
	var at []time.Duration
	b.SetHandler(func(wire.NodeID, wire.Message) { at = append(at, e.Now()) })

	n.SetLinkExtraDelay(a.ID(), b.ID(), 10*time.Millisecond)
	_ = a.Send(b.ID(), &wire.StateInfo{})
	e.Run()
	if len(at) != 1 || at[0] != 11*time.Millisecond {
		t.Fatalf("link-delayed delivery at %v, want 11ms", at)
	}
	// Node delay stacks on both endpoints and on the link override.
	n.SetNodeExtraDelay(b.ID(), 5*time.Millisecond)
	_ = a.Send(b.ID(), &wire.StateInfo{})
	e.Run()
	if at[1]-at[0] != 16*time.Millisecond {
		t.Fatalf("node+link delay delivered after %v, want 16ms", at[1]-at[0])
	}
	// Clearing both restores the base model.
	n.SetLinkExtraDelay(a.ID(), b.ID(), 0)
	n.SetNodeExtraDelay(b.ID(), 0)
	start := e.Now()
	_ = a.Send(b.ID(), &wire.StateInfo{})
	e.Run()
	if at[2]-start != time.Millisecond {
		t.Fatalf("cleared overrides delivered after %v, want 1ms", at[2]-start)
	}
}

func TestSimNetworkDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := sim.NewEngine(7)
		n := NewSimNetwork(e, netmodel.LAN(), nil)
		a, b := n.AddNode(), n.AddNode()
		var at []time.Duration
		b.SetHandler(func(wire.NodeID, wire.Message) { at = append(at, e.Now()) })
		for i := 0; i < 50; i++ {
			_ = a.Send(b.ID(), &wire.StateInfo{Height: uint64(i)})
		}
		e.Run()
		return at
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, x[i], y[i])
		}
	}
}

// A network on a plain engine is the one-shard case of the coordinated one:
// built from the same seed, both deliver the same messages at the same
// instants — same latency draws, same loss draws, same order. This is what
// keeps harness.Org (the paper experiments) bit-identical while Network runs
// on the coordinator.
func TestPlainAndOneShardNetworksDeliverIdentically(t *testing.T) {
	type delivery struct {
		at       time.Duration
		from, to wire.NodeID
		height   uint64
	}
	drive := func(eng *sim.Engine, n *SimNetwork, run func(time.Duration)) []delivery {
		const nodes = 6
		eps := make([]*SimEndpoint, nodes)
		var got []delivery
		for i := range eps {
			ep := n.AddNode()
			eps[i] = ep
			n.SetNodeSite(ep.ID(), i%2)
			ep.SetHandler(func(from wire.NodeID, msg wire.Message) {
				got = append(got, delivery{eng.Now(), from, ep.ID(), msg.(*wire.StateInfo).Height})
			})
		}
		n.SetSiteDelay(2 * time.Millisecond)
		n.SetDropRate(0.2)
		pick := eng.Rand("pick")
		for i := 0; i < 400; i++ {
			i := i
			eng.At(time.Duration(i)*70*time.Microsecond, func() {
				from, to := pick.Intn(nodes), pick.Intn(nodes)
				_ = eps[from].Send(eps[to].ID(), &wire.StateInfo{Height: uint64(i)})
			})
		}
		run(time.Second)
		return got
	}

	se := sim.NewShardedEngine(5, 1, netmodel.LAN().PropMin)
	coordinated := drive(se.Shard(0), NewShardedSimNetwork(se, netmodel.LAN(), []*netmodel.Traffic{nil}), se.RunUntil)
	plainEng := sim.NewEngine(se.Shard(0).Seed())
	plain := drive(plainEng, NewSimNetwork(plainEng, netmodel.LAN(), nil), func(end time.Duration) { plainEng.RunUntil(end) })

	if len(plain) == 0 || len(plain) == 400 {
		t.Fatalf("%d of 400 messages delivered: the loss draw is not exercised", len(plain))
	}
	if len(plain) != len(coordinated) {
		t.Fatalf("plain delivered %d messages, one-shard coordinated %d", len(plain), len(coordinated))
	}
	for i := range plain {
		if plain[i] != coordinated[i] {
			t.Fatalf("delivery %d differs: plain %+v, coordinated %+v", i, plain[i], coordinated[i])
		}
	}
}
