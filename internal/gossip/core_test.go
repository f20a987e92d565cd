package gossip

import (
	"sync"
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// fakeEndpoint is an in-memory transport.Endpoint capturing sends.
type fakeEndpoint struct {
	id wire.NodeID

	mu      sync.Mutex
	handler func(wire.NodeID, wire.Message)
	sent    []sentMsg
}

type sentMsg struct {
	to  wire.NodeID
	msg wire.Message
}

func (f *fakeEndpoint) ID() wire.NodeID { return f.id }

func (f *fakeEndpoint) Send(to wire.NodeID, msg wire.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, sentMsg{to, msg})
	return nil
}

func (f *fakeEndpoint) SetHandler(h transport.Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handler = h
}

func (f *fakeEndpoint) deliver(from wire.NodeID, msg wire.Message) {
	f.mu.Lock()
	h := f.handler
	f.mu.Unlock()
	h(from, msg)
}

func (f *fakeEndpoint) sends() []sentMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]sentMsg, len(f.sent))
	copy(out, f.sent)
	return out
}

// nullProtocol satisfies Protocol without doing anything.
type nullProtocol struct{ stored []uint64 }

func (*nullProtocol) Start(*Core)                           {}
func (*nullProtocol) Stop()                                 {}
func (*nullProtocol) OnOrdererBlock(*ledger.Block)          {}
func (*nullProtocol) Handle(wire.NodeID, wire.Message) bool { return false }
func (p *nullProtocol) OnBlockStored(b *ledger.Block)       { p.stored = append(p.stored, b.Num) }

func coreFixture(t *testing.T, cfg func(*Config)) (*Core, *fakeEndpoint, *sim.Engine, *nullProtocol) {
	t.Helper()
	e := sim.NewEngine(1)
	ep := &fakeEndpoint{id: 0}
	peers := []wire.NodeID{0, 1, 2, 3, 4}
	c := DefaultConfig(0, peers)
	if cfg != nil {
		cfg(&c)
	}
	proto := &nullProtocol{}
	core := New(c, ep, e, e.Rand("g"), proto)
	return core, ep, e, proto
}

func blockN(num uint64) *ledger.Block {
	rw := ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte{byte(num)}}}}
	tx := &ledger.Transaction{
		ID:     ledger.ProposalDigest("c", "cc", rw, []byte{byte(num)}),
		Client: "c", Chaincode: "cc", RWSet: rw,
	}
	b := &ledger.Block{Num: num, Txs: []*ledger.Transaction{tx}}
	b.DataHash = ledger.ComputeDataHash(b.Txs)
	return b
}

func TestAddBlockInOrderDelivery(t *testing.T) {
	core, _, _, proto := coreFixture(t, nil)
	var committed []uint64
	core.OnCommit(func(b *ledger.Block) { committed = append(committed, b.Num) })

	// Out of order: 2, 0, 1 — commits must come out 0, 1, 2.
	if !core.AddBlock(blockN(2)) || !core.AddBlock(blockN(0)) {
		t.Fatal("new blocks reported as duplicates")
	}
	if len(committed) != 1 || committed[0] != 0 {
		t.Fatalf("committed = %v after blocks 2,0", committed)
	}
	if core.Height() != 1 {
		t.Fatalf("height = %d", core.Height())
	}
	core.AddBlock(blockN(1))
	if len(committed) != 3 {
		t.Fatalf("committed = %v", committed)
	}
	for i, num := range committed {
		if num != uint64(i) {
			t.Fatalf("commit order %v", committed)
		}
	}
	// Duplicates rejected and not re-stored to the protocol.
	if core.AddBlock(blockN(1)) {
		t.Fatal("duplicate accepted")
	}
	if len(proto.stored) != 3 {
		t.Fatalf("protocol saw %d stored blocks, want 3", len(proto.stored))
	}
}

// A body far above the in-order height can only come from outside input: it
// is ignored instead of growing the dense store up to its number.
func TestAddBlockIgnoresBodiesFarAhead(t *testing.T) {
	core, ep, _, _ := coreFixture(t, nil)
	core.AddBlock(blockN(0))
	for _, num := range []uint64{2 + MaxAhead, 1 << 20} {
		ep.deliver(1, &wire.StateResponse{Batch: wire.NewBlockBatch([]*ledger.Block{blockN(num)})})
		if core.HasBlock(num) || len(core.blocks) > 1 {
			t.Fatalf("block %d stored: the store grew to %d entries", num, len(core.blocks))
		}
	}
	if !core.AddBlock(blockN(1 + MaxAhead)) {
		t.Fatal("a block MaxAhead above the height was rejected")
	}
}

func TestServeStateRequestRespectsBatchAndGaps(t *testing.T) {
	core, ep, _, _ := coreFixture(t, func(c *Config) { c.RecoveryBatch = 3 })
	for _, n := range []uint64{0, 1, 2, 3, 4, 6} { // gap at 5
		core.AddBlock(blockN(n))
	}
	// Request [0, 100): capped at batch 3.
	ep.deliver(1, &wire.StateRequest{From: 0, To: 100})
	sent := ep.sends()
	if len(sent) != 1 {
		t.Fatalf("sent %d messages, want 1", len(sent))
	}
	resp := sent[0].msg.(*wire.StateResponse)
	if len(resp.Blocks()) != 3 || resp.Blocks()[0].Num != 0 {
		t.Fatalf("response blocks = %d", len(resp.Blocks()))
	}
	// Request across the gap stops at it.
	ep.deliver(1, &wire.StateRequest{From: 4, To: 7})
	sent = ep.sends()
	resp = sent[1].msg.(*wire.StateResponse)
	if len(resp.Blocks()) != 1 || resp.Blocks()[0].Num != 4 {
		t.Fatalf("gap response = %v", resp.Blocks())
	}
	// Request for blocks we lack entirely: no response at all.
	ep.deliver(1, &wire.StateRequest{From: 10, To: 12})
	if got := len(ep.sends()); got != 2 {
		t.Fatalf("empty-range request answered (%d messages)", got)
	}
}

func TestRecoveryRequestsFromMostAdvancedPeer(t *testing.T) {
	core, ep, e, _ := coreFixture(t, func(c *Config) {
		c.RecoveryInterval = time.Second
		c.StateInfoInterval = 0
		c.AliveInterval = 0
		c.RecoveryBatch = 10
	})
	core.Start()
	defer core.Stop()
	// Peer 3 advertises height 7, peer 2 height 4.
	ep.deliver(3, &wire.StateInfo{Height: 7})
	ep.deliver(2, &wire.StateInfo{Height: 4})
	e.RunUntil(1500 * time.Millisecond)
	var req *wire.StateRequest
	var to wire.NodeID
	for _, s := range ep.sends() {
		if r, ok := s.msg.(*wire.StateRequest); ok {
			req, to = r, s.to
		}
	}
	if req == nil {
		t.Fatal("recovery never fired")
	}
	if to != 3 {
		t.Fatalf("recovery asked peer %v, want the most advanced (3)", to)
	}
	if req.From != 0 || req.To != 7 {
		t.Fatalf("requested [%d, %d), want [0, 7)", req.From, req.To)
	}
}

func TestRecoveryIdleWhenCaughtUp(t *testing.T) {
	core, ep, e, _ := coreFixture(t, func(c *Config) {
		c.RecoveryInterval = time.Second
		c.StateInfoInterval = 0
		c.AliveInterval = 0
	})
	core.Start()
	defer core.Stop()
	core.AddBlock(blockN(0))
	ep.deliver(3, &wire.StateInfo{Height: 1}) // same height
	e.RunUntil(3 * time.Second)
	for _, s := range ep.sends() {
		if _, ok := s.msg.(*wire.StateRequest); ok {
			t.Fatal("recovery fired while caught up")
		}
	}
}

func TestStateInfoAdvertisesInOrderHeight(t *testing.T) {
	core, ep, e, _ := coreFixture(t, func(c *Config) {
		c.StateInfoInterval = time.Second
		c.StateInfoFanout = 2
		c.AliveInterval = 0
		c.RecoveryInterval = 0
	})
	core.Start()
	defer core.Stop()
	core.AddBlock(blockN(0))
	core.AddBlock(blockN(2)) // gap: height stays 1
	e.RunUntil(1100 * time.Millisecond)
	infos := 0
	for _, s := range ep.sends() {
		if si, ok := s.msg.(*wire.StateInfo); ok {
			infos++
			if si.Height != 1 {
				t.Fatalf("advertised height %d, want 1 (gap at 1)", si.Height)
			}
		}
	}
	if infos != 2 {
		t.Fatalf("state info sent to %d peers, want fanout 2", infos)
	}
}

func TestStateResponseFillsGapAndCommits(t *testing.T) {
	core, ep, _, _ := coreFixture(t, nil)
	var committed []uint64
	core.OnCommit(func(b *ledger.Block) { committed = append(committed, b.Num) })
	core.AddBlock(blockN(2))
	ep.deliver(1, &wire.StateResponse{Batch: wire.NewBlockBatch([]*ledger.Block{blockN(0), blockN(1)})})
	if len(committed) != 3 || core.Height() != 3 {
		t.Fatalf("committed %v, height %d", committed, core.Height())
	}
}

func TestRandomPeersNeverIncludesSelfAndClamps(t *testing.T) {
	core, _, _, _ := coreFixture(t, nil)
	for trial := 0; trial < 100; trial++ {
		got := core.RandomPeers(3)
		if len(got) != 3 {
			t.Fatalf("len = %d", len(got))
		}
		seen := map[wire.NodeID]bool{}
		for _, p := range got {
			if p == core.ID() {
				t.Fatal("sampled self")
			}
			if seen[p] {
				t.Fatal("duplicate sample")
			}
			seen[p] = true
		}
	}
	// Asking for more than available clamps to n-1.
	if got := core.RandomPeers(99); len(got) != 4 {
		t.Fatalf("clamped sample = %d, want 4", len(got))
	}
	if got := core.RandomPeers(0); got != nil {
		t.Fatalf("zero sample = %v", got)
	}
}

func TestStoppedCoreIgnoresTraffic(t *testing.T) {
	core, ep, _, _ := coreFixture(t, nil)
	core.Start()
	core.Stop()
	ep.deliver(1, &wire.StateInfo{Height: 9})
	if len(core.PeerHeights()) != 0 {
		t.Fatal("stopped core processed a message")
	}
	if core.AddBlock(blockN(0)) {
		t.Fatal("stopped core stored a block")
	}
}

// TestRealSchedulerPeriodicTimers exercises the live-runtime rearming timer
// path (everyTimer on a non-engine scheduler), which cmd/gossipnet uses.
func TestRealSchedulerPeriodicTimers(t *testing.T) {
	sched := sim.NewRealScheduler()
	defer sched.Close()
	ep := &fakeEndpoint{id: 0}
	cfg := DefaultConfig(0, []wire.NodeID{0, 1, 2})
	cfg.StateInfoInterval = 10 * time.Millisecond
	cfg.StateInfoFanout = 1
	cfg.AliveInterval = 0
	cfg.RecoveryInterval = 0
	core := New(cfg, ep, sched, sim.NewRand(1), &nullProtocol{})
	core.Start()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(ep.sends()) >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	core.Stop()
	if len(ep.sends()) < 3 {
		t.Fatalf("periodic state info fired %d times, want >= 3", len(ep.sends()))
	}
	n := len(ep.sends())
	time.Sleep(50 * time.Millisecond)
	if len(ep.sends()) > n+1 { // one in-flight firing may land post-Stop
		t.Fatal("timers kept firing after Stop")
	}
}
