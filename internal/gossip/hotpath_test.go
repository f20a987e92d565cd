package gossip

import (
	"strings"
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// sinkEndpoint records outbound messages and drops them.
type sinkEndpoint struct {
	id   wire.NodeID
	to   []wire.NodeID
	sent []wire.Message
}

func (s *sinkEndpoint) ID() wire.NodeID { return s.id }
func (s *sinkEndpoint) Send(to wire.NodeID, m wire.Message) error {
	s.to = append(s.to, to)
	s.sent = append(s.sent, m)
	return nil
}
func (s *sinkEndpoint) SetHandler(transport.Handler) {}

func newTestCore(t *testing.T, self wire.NodeID, n int, tune func(*Config)) (*Core, *sinkEndpoint, *sim.Engine) {
	t.Helper()
	peers := make([]wire.NodeID, n)
	for i := range peers {
		peers[i] = wire.NodeID(i)
	}
	cfg := DefaultConfig(self, peers)
	if tune != nil {
		tune(&cfg)
	}
	ep := &sinkEndpoint{id: self}
	engine := sim.NewEngine(1)
	return New(cfg, ep, engine, engine.Rand("gossip"), noopProtocol{}), ep, engine
}

type noopProtocol struct{}

func (noopProtocol) Start(*Core)                           {}
func (noopProtocol) Stop()                                 {}
func (noopProtocol) OnOrdererBlock(*ledger.Block)          {}
func (noopProtocol) Handle(wire.NodeID, wire.Message) bool { return false }
func (noopProtocol) OnBlockStored(*ledger.Block)           {}

// The core holds one peer-set representation, the id range, so New rejects
// a peer list that is not one — naming the contract — instead of silently
// sampling from something else.
func TestNewRejectsNonContiguousPeers(t *testing.T) {
	for _, peers := range [][]wire.NodeID{{1, 2, 4}, {3, 2, 1}, {}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "contiguous ascending id range") {
					t.Fatalf("peers %v: New did not panic naming the contract (recovered %q)", peers, msg)
				}
			}()
			engine := sim.NewEngine(1)
			New(DefaultConfig(1, peers), &sinkEndpoint{id: 1}, engine, engine.Rand("gossip"), noopProtocol{})
		}()
	}
}

// The range sampler must consume the random stream and produce results
// exactly like the per-call rebuild it replaced, or every checked-in
// fingerprint would move.
func TestRandomPeersMatchesPerCallRebuildReference(t *testing.T) {
	const n = 17
	c, _, _ := newTestCore(t, 5, n, nil)

	// Reference: the pre-optimization algorithm on an identical stream.
	ref := sim.NewEngine(1).Rand("gossip")
	refDraw := func(k int) []wire.NodeID {
		var cand []wire.NodeID
		for i := 0; i < n; i++ {
			if wire.NodeID(i) != 5 {
				cand = append(cand, wire.NodeID(i))
			}
		}
		if k > len(cand) {
			k = len(cand)
		}
		if k <= 0 {
			return nil
		}
		out := make([]wire.NodeID, k)
		for i := 0; i < k; i++ {
			j := i + ref.Intn(len(cand)-i)
			cand[i], cand[j] = cand[j], cand[i]
			out[i] = cand[i]
		}
		return out
	}

	for call := 0; call < 200; call++ {
		k := call % (n + 2) // exercise k == 0 and k > eligible too
		got := c.RandomPeers(k)
		want := refDraw(k)
		if len(got) != len(want) {
			t.Fatalf("call %d (k=%d): got %v, want %v", call, k, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d (k=%d): got %v, want %v", call, k, got, want)
			}
		}
	}
}

// An orderer or observer core lists only remote peers: the sampler must
// then draw from the whole range (no self to skip), matching a slice walk
// on an identical stream.
func TestRandomPeersRangeModeSelfOutsideRange(t *testing.T) {
	const n = 11
	peers := make([]wire.NodeID, n)
	for i := range peers {
		peers[i] = wire.NodeID(10 + i)
	}
	cfg := DefaultConfig(100, peers)
	engine := sim.NewEngine(1)
	c := New(cfg, &sinkEndpoint{id: 100}, engine, engine.Rand("gossip"), noopProtocol{})
	if c.selfInRange || c.nOthers != n {
		t.Fatalf("selfInRange=%v nOthers=%d, want false/%d", c.selfInRange, c.nOthers, n)
	}

	ref := sim.NewEngine(1).Rand("gossip")
	refDraw := func(k int) []wire.NodeID {
		cand := append([]wire.NodeID(nil), peers...)
		if k > len(cand) {
			k = len(cand)
		}
		out := make([]wire.NodeID, k)
		for i := 0; i < k; i++ {
			j := i + ref.Intn(len(cand)-i)
			cand[i], cand[j] = cand[j], cand[i]
			out[i] = cand[i]
		}
		return out
	}
	for call := 0; call < 100; call++ {
		k := 1 + call%n
		got := c.RandomPeers(k)
		want := refDraw(k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d (k=%d): got %v, want %v", call, k, got, want)
			}
		}
	}
}

// Recovery must still fire when the peer that advertised the maximum height
// has died and been pruned: the fetcher's stale upper bound triggers a
// scan, the scan tightens it and targets the best live peer. (The bound's
// tightening itself is asserted in internal/statesync's unit tests; here
// the delegation from the core's membership sweep must hold.)
func TestRecoveryAfterMaxAdvertiserPruned(t *testing.T) {
	c, ep, engine := newTestCore(t, 0, 4, nil)

	// Peer 1 advertises height 5 and is observed live, then expires and is
	// pruned exactly as aliveTick does.
	c.handleMessage(1, &wire.StateInfo{Height: 5})
	c.handleMessage(1, &wire.Alive{Seq: 1})
	engine.RunUntil(c.cfg.AliveExpiration + 3*c.cfg.AliveInterval + time.Second)
	c.aliveTick()
	if !c.PeerDead(1) {
		t.Fatal("peer 1 should have expired")
	}
	if _, ok := c.PeerHeights()[1]; ok {
		t.Fatal("expired peer's height not forgotten by the fetcher")
	}

	// Peer 2 is live at a lower height; recovery must target it.
	c.handleMessage(2, &wire.StateInfo{Height: 3})
	c.handleMessage(2, &wire.Alive{Seq: 1})
	ep.to, ep.sent = nil, nil
	c.fetcher.Tick()

	var req *wire.StateRequest
	var reqTo wire.NodeID
	for i, m := range ep.sent {
		if r, ok := m.(*wire.StateRequest); ok {
			req, reqTo = r, ep.to[i]
		}
	}
	if req == nil {
		t.Fatal("recovery tick sent no StateRequest despite a live peer being ahead")
	}
	if reqTo != 2 {
		t.Fatalf("recovery targeted %v, want live peer 2", reqTo)
	}
	if req.From != 0 || req.To != 3 {
		t.Fatalf("requested [%d, %d), want [0, 3)", req.From, req.To)
	}
}

// Caught-up peers — the steady state — must skip recovery without sending
// anything (and without consuming random values: determinism).
func TestRecoveryTickNoopWhenCaughtUp(t *testing.T) {
	c, ep, _ := newTestCore(t, 0, 4, nil)
	c.fetcher.Tick()
	if len(ep.sent) != 0 {
		t.Fatalf("fresh core sent %d messages from recovery tick, want 0", len(ep.sent))
	}
}

// Every aliveTick must reuse the one zero-filled metadata buffer instead of
// allocating its 256 bytes per heartbeat round.
func TestAliveTickReusesMetaBuffer(t *testing.T) {
	c, ep, _ := newTestCore(t, 0, 4, nil)
	c.aliveTick()
	c.aliveTick()
	var metas [][]byte
	for _, m := range ep.sent {
		if a, ok := m.(*wire.Alive); ok {
			metas = append(metas, a.Meta)
		}
	}
	if len(metas) < 2 {
		t.Fatalf("captured %d Alive messages, want >= 2", len(metas))
	}
	for i, meta := range metas {
		if len(meta) != 256 {
			t.Fatalf("heartbeat %d meta is %d bytes, want 256", i, len(meta))
		}
		if &meta[0] != &metas[0][0] {
			t.Fatalf("heartbeat %d holds a fresh meta buffer; want the shared one", i)
		}
	}
}

// fakeSched captures After calls so a test can fire them by hand with full
// control of the clock.
type fakeSched struct {
	now    time.Duration
	delays []time.Duration
	cbs    []func()
}

func (f *fakeSched) Now() time.Duration { return f.now }
func (f *fakeSched) After(d time.Duration, fn func()) sim.Timer {
	f.delays = append(f.delays, d)
	f.cbs = append(f.cbs, fn)
	return fakeTimer{}
}

type fakeTimer struct{}

func (fakeTimer) Stop() bool { return true }

// The rearming fallback timer must re-arm relative to the previous
// deadline, like sim.Engine.Every: a callback that takes 30ms must shorten
// the next delay by 30ms instead of pushing every subsequent tick later.
func TestRearmingTimerDoesNotAccumulateCallbackDrift(t *testing.T) {
	f := &fakeSched{}
	const interval = time.Second
	everyTimer(f, interval, func() {
		f.now += 30 * time.Millisecond // the callback itself takes 30ms
	})
	if len(f.delays) != 1 || f.delays[0] != interval {
		t.Fatalf("first arm delay %v, want %v", f.delays, interval)
	}

	// Fire tick 1: it runs at its deadline, the callback consumes 30ms.
	f.now = interval
	f.cbs[0]()
	if len(f.delays) != 2 {
		t.Fatalf("tick did not re-arm: %d After calls", len(f.delays))
	}
	if want := interval - 30*time.Millisecond; f.delays[1] != want {
		t.Fatalf("re-arm delay %v, want %v (compensating 30ms of callback time)", f.delays[1], want)
	}

	// Fire tick 2 slightly late on top of callback time: still anchored to
	// the 2*interval grid point.
	f.now = 2*interval + 5*time.Millisecond
	f.cbs[1]()
	if want := interval - 35*time.Millisecond; f.delays[2] != want {
		t.Fatalf("re-arm delay %v, want %v (grid-anchored)", f.delays[2], want)
	}
}

// A schedule that fell multiple intervals behind (process stall, suspend on
// the real-time runtime) must snap to the present and fire one catch-up
// tick, not a burst of every missed one.
func TestRearmingTimerSnapsAfterLongStall(t *testing.T) {
	f := &fakeSched{}
	const interval = time.Second
	everyTimer(f, interval, func() {})

	// The process resumes 10 intervals late.
	f.now = 10 * interval
	f.cbs[0]()
	if len(f.delays) != 2 {
		t.Fatalf("tick did not re-arm: %d After calls", len(f.delays))
	}
	if f.delays[1] != 0 {
		t.Fatalf("post-stall re-arm delay %v, want 0 (snap to now)", f.delays[1])
	}
	// The next tick runs on time; cadence is back to one interval with no
	// further catch-up backlog.
	f.cbs[1]()
	if f.delays[2] != interval {
		t.Fatalf("delay after snap %v, want %v", f.delays[2], interval)
	}
}

// RandomPeersInto with a reused buffer must consume the random stream and
// produce results identically to the allocating RandomPeers — buffer reuse
// is a pure allocation optimization, or every checked-in fingerprint would
// move.
func TestRandomPeersIntoMatchesRandomPeers(t *testing.T) {
	const n = 13
	cInto, _, _ := newTestCore(t, 4, n, nil)
	cRef, _, _ := newTestCore(t, 4, n, nil)
	var buf []wire.NodeID
	for call := 0; call < 200; call++ {
		k := call % (n + 2)
		buf = cInto.RandomPeersInto(k, buf)
		want := cRef.RandomPeers(k)
		if len(buf) != len(want) {
			t.Fatalf("call %d (k=%d): got %v, want %v", call, k, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("call %d (k=%d): got %v, want %v", call, k, buf, want)
			}
		}
	}
}

// BenchmarkRandomPeers measures the sampler at organization scale: k swaps
// plus k undo-swaps, independent of n except for the rng's range.
func BenchmarkRandomPeers(b *testing.B) {
	peers := make([]wire.NodeID, 1000)
	for i := range peers {
		peers[i] = wire.NodeID(i)
	}
	cfg := DefaultConfig(0, peers)
	engine := sim.NewEngine(1)
	c := New(cfg, &sinkEndpoint{}, engine, engine.Rand("gossip"), noopProtocol{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.RandomPeers(4); len(got) != 4 {
			b.Fatal("short sample")
		}
	}
}
