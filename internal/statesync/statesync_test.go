package statesync

import (
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// stubHost is a scriptable Host for unit-testing the engine in isolation.
type stubHost struct {
	height uint64
	blocks map[uint64]*ledger.Block
	dead   map[wire.NodeID]bool
	leader bool
	now    time.Duration
	rng    *sim.Rand

	sentTo  []wire.NodeID
	sentMsg []wire.Message
	added   []uint64
}

func newStubHost() *stubHost {
	return &stubHost{
		blocks: make(map[uint64]*ledger.Block),
		dead:   make(map[wire.NodeID]bool),
		leader: true,
		rng:    sim.NewRand(1),
	}
}

func (h *stubHost) Height() uint64                 { return h.height }
func (h *stubHost) Block(num uint64) *ledger.Block { return h.blocks[num] }
func (h *stubHost) AddBlock(b *ledger.Block) bool {
	if _, ok := h.blocks[b.Num]; ok {
		return false
	}
	h.blocks[b.Num] = b
	h.added = append(h.added, b.Num)
	return true
}
func (h *stubHost) Send(to wire.NodeID, msg wire.Message) {
	h.sentTo = append(h.sentTo, to)
	h.sentMsg = append(h.sentMsg, msg)
}
func (h *stubHost) PeerDead(p wire.NodeID) bool { return h.dead[p] }
func (h *stubHost) IsLeader() bool              { return h.leader }
func (h *stubHost) Rand() *sim.Rand             { return h.rng }
func (h *stubHost) Now() time.Duration          { return h.now }

func (h *stubHost) lastRequest(t *testing.T) (wire.NodeID, *wire.StateRequest) {
	t.Helper()
	for i := len(h.sentMsg) - 1; i >= 0; i-- {
		if r, ok := h.sentMsg[i].(*wire.StateRequest); ok {
			return h.sentTo[i], r
		}
	}
	t.Fatal("no StateRequest sent")
	return 0, nil
}

func storeBlocks(h *stubHost, nums ...uint64) {
	for _, n := range nums {
		h.blocks[n] = &ledger.Block{Num: n}
	}
}

func TestFetcherTargetsMostAdvancedLivePeer(t *testing.T) {
	h := newStubHost()
	f := NewFetcher(h, Config{Batch: 10})
	f.Observe(3, 7)
	f.Observe(2, 4)
	f.Tick()
	to, req := h.lastRequest(t)
	if to != 3 {
		t.Fatalf("targeted %v, want the most advanced peer 3", to)
	}
	if req.From != 0 || req.To != 7 {
		t.Fatalf("requested [%d, %d), want [0, 7)", req.From, req.To)
	}
}

func TestFetcherBatchCapsRequest(t *testing.T) {
	h := newStubHost()
	f := NewFetcher(h, Config{Batch: 4})
	f.Observe(1, 100)
	f.Tick()
	_, req := h.lastRequest(t)
	if req.From != 0 || req.To != 4 {
		t.Fatalf("requested [%d, %d), want the batch cap [0, 4)", req.From, req.To)
	}
}

// The caught-up steady state must exit on the incrementally tracked upper
// bound without sending or consuming randomness.
func TestFetcherCaughtUpIsSilent(t *testing.T) {
	h := newStubHost()
	f := NewFetcher(h, Config{Batch: 10})
	f.Observe(2, 5)
	h.height = 5
	f.Tick()
	if len(h.sentMsg) != 0 {
		t.Fatalf("caught-up tick sent %d messages", len(h.sentMsg))
	}
}

// A dead peer's height may linger until Forget, but the candidate scan must
// skip it — and tighten the stale upper bound so the steady-state fast path
// recovers once the survivors' maximum is reached.
func TestFetcherSkipsDeadPeersAndTightensBound(t *testing.T) {
	h := newStubHost()
	f := NewFetcher(h, Config{Batch: 10})
	f.Observe(1, 9)
	f.Observe(2, 3)
	h.dead[1] = true
	f.Tick()
	to, req := h.lastRequest(t)
	if to != 2 {
		t.Fatalf("targeted %v, want the live peer 2", to)
	}
	if req.To != 3 {
		t.Fatalf("requested up to %d, want the live maximum 3", req.To)
	}
	if f.maxAdvertised != 9 {
		t.Fatalf("bound = %d after scan, want the true maximum 9 (dead heights still count)", f.maxAdvertised)
	}
	f.Forget(1)
	h.height = 3
	f.Tick() // scan once more: bound tightens to the survivors' maximum
	f.Tick()
	if f.maxAdvertised != 3 {
		t.Fatalf("bound = %d after Forget+scan, want 3", f.maxAdvertised)
	}
}

func TestProviderServesConsecutiveRunRespectingBatch(t *testing.T) {
	h := newStubHost()
	p := NewProvider(h, Config{Batch: 3})
	storeBlocks(h, 0, 1, 2, 3, 4, 6) // gap at 5
	p.Serve(9, &wire.StateRequest{From: 0, To: 100})
	resp := h.sentMsg[0].(*wire.StateResponse)
	if got := len(resp.Blocks()); got != 3 {
		t.Fatalf("served %d blocks, want the batch cap 3", got)
	}
	p.Serve(9, &wire.StateRequest{From: 4, To: 7})
	resp = h.sentMsg[1].(*wire.StateResponse)
	if got := len(resp.Blocks()); got != 1 || resp.Blocks()[0].Num != 4 {
		t.Fatalf("gap response = %d blocks", got)
	}
	// Nothing to serve: silence.
	p.Serve(9, &wire.StateRequest{From: 10, To: 12})
	if len(h.sentMsg) != 2 {
		t.Fatal("empty-range request answered")
	}
}

// A request repeated after the gap that cut its first answer short has
// filled must return the longer run.
func TestProviderRepeatAfterGapFillsReturnsLongerRun(t *testing.T) {
	h := newStubHost()
	p := NewProvider(h, Config{Batch: 8})
	storeBlocks(h, 0, 1, 3)
	p.Serve(7, &wire.StateRequest{From: 0, To: 4})
	if got := len(h.sentMsg[0].(*wire.StateResponse).Blocks()); got != 2 {
		t.Fatalf("first serve = %d blocks, want 2 (gap at 2)", got)
	}
	storeBlocks(h, 2) // the gap fills
	p.Serve(8, &wire.StateRequest{From: 0, To: 4})
	if got := len(h.sentMsg[1].(*wire.StateResponse).Blocks()); got != 4 {
		t.Fatalf("post-fill serve = %d blocks, want 4", got)
	}
	if s := CollectStats(nil, p); s.Served != 2 {
		t.Fatalf("stats = %+v, want 2 served", s)
	}
}

func TestHandleResponseStoresBlocksAndAccounts(t *testing.T) {
	h := newStubHost()
	f := NewFetcher(h, Config{Batch: 8})
	resp := &wire.StateResponse{Batch: wire.NewBlockBatch([]*ledger.Block{{Num: 0}, {Num: 1}})}
	f.HandleResponse(resp)
	if len(h.added) != 2 {
		t.Fatalf("stored %d blocks, want 2", len(h.added))
	}
	s := CollectStats(f, nil)
	if s.ResponsesIn != 1 || s.BlocksIn != 2 || s.BytesIn == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// Anchor probing: only the leader probes, only once the orderer has been
// silent past the stall window, and an unproductive anchor is rotated away
// from while a productive one is kept.
func TestAnchorProbeGatingAndRotation(t *testing.T) {
	h := newStubHost()
	anchors := []wire.NodeID{100, 200}
	f := NewFetcher(h, Config{Batch: 8, Anchors: anchors})

	// Orderer healthy (construction counts as a delivery): no probe.
	h.now = 3 * time.Second
	f.AnchorTick()
	if len(h.sentMsg) != 0 {
		t.Fatal("probed while the orderer was healthy")
	}

	// Not the leader: no probe even when stalled.
	h.now = 6 * time.Second
	h.leader = false
	f.AnchorTick()
	if len(h.sentMsg) != 0 {
		t.Fatal("non-leader probed")
	}

	h.leader = true
	h.height = 2
	f.AnchorTick()
	to, req := h.lastRequest(t)
	if to != 100 {
		t.Fatalf("first probe went to %v, want anchor 100", to)
	}
	if req.From != 2 || req.To != 10 {
		t.Fatalf("probe asked [%d, %d), want [2, 10)", req.From, req.To)
	}

	// No progress by the next tick: rotate to the next anchor.
	h.now = 8 * time.Second
	f.AnchorTick()
	if to, _ := h.lastRequest(t); to != 200 {
		t.Fatalf("stalled probe went to %v, want rotation to anchor 200", to)
	}

	// Progress: stay with the productive anchor.
	h.height = 6
	h.now = 10 * time.Second
	f.AnchorTick()
	if to, _ := h.lastRequest(t); to != 200 {
		t.Fatalf("productive probe went to %v, want to stay on 200", to)
	}

	// A delivery stands probing down again.
	f.NoteDeliver()
	h.now = 12 * time.Second
	before := len(h.sentMsg)
	f.AnchorTick()
	if len(h.sentMsg) != before {
		t.Fatal("probed after the orderer resumed delivering")
	}
	if s := CollectStats(f, nil); s.AnchorProbes != 3 {
		t.Fatalf("AnchorProbes = %d, want 3", s.AnchorProbes)
	}
}

// No anchors configured — the default — must disable the path entirely.
func TestAnchorTickDisabledWithoutAnchors(t *testing.T) {
	h := newStubHost()
	f := NewFetcher(h, Config{Batch: 8})
	h.now = time.Hour
	f.AnchorTick()
	if len(h.sentMsg) != 0 {
		t.Fatal("anchor probe fired with no anchors configured")
	}
}
