package enhanced

import (
	"strings"
	"testing"
	"time"

	"fabricgossip/internal/analysis"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

type net struct {
	engine  *sim.Engine
	sim     *transport.SimNetwork
	traffic *netmodel.Traffic
	cores   []*gossip.Core
	protos  []*Protocol
	orderer *transport.SimEndpoint
}

func build(t *testing.T, n int, cfg Config, seed int64) *net {
	t.Helper()
	e := sim.NewEngine(seed)
	tr := netmodel.NewTraffic(time.Second)
	w := &net{engine: e, traffic: tr}
	w.sim = transport.NewSimNetwork(e, netmodel.Model{PropMin: time.Millisecond, PropMax: 2 * time.Millisecond}, tr)
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	for i := 0; i < n; i++ {
		ep := w.sim.AddNode()
		p := New(cfg)
		gcfg := gossip.DefaultConfig(ep.ID(), ids)
		gcfg.AliveInterval = 0
		gcfg.StateInfoInterval = 0
		gcfg.RecoveryInterval = 0
		c := gossip.New(gcfg, ep, e, e.Rand("g"), p)
		w.cores = append(w.cores, c)
		w.protos = append(w.protos, p)
	}
	w.orderer = w.sim.AddNode()
	for _, c := range w.cores {
		c.Start()
	}
	return w
}

func block(num uint64) *ledger.Block {
	rw := ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte{byte(num)}}}}
	tx := &ledger.Transaction{
		ID:     ledger.ProposalDigest("c", "cc", rw, []byte{byte(num)}),
		Client: "c", Chaincode: "cc", RWSet: rw, Payload: make([]byte, 512),
	}
	b := &ledger.Block{Num: num, Txs: []*ledger.Transaction{tx}}
	b.DataHash = ledger.ComputeDataHash(b.Txs)
	return b
}

func TestDefaultConfigDerivesPaperParameters(t *testing.T) {
	cfg, err := DefaultConfig(100)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fout != 4 {
		t.Fatalf("fout = %d, want floor(ln 100) = 4", cfg.Fout)
	}
	if cfg.TTL != 9 {
		t.Fatalf("TTL = %d, want 9", cfg.TTL)
	}
	if cfg.FLeaderOut != 1 || !cfg.UseDigests {
		t.Fatalf("cfg = %+v", cfg)
	}
	// Small networks floor the fan-out at 2.
	small, err := DefaultConfig(5)
	if err != nil {
		t.Fatal(err)
	}
	if small.Fout != 2 {
		t.Fatalf("small fout = %d, want 2", small.Fout)
	}
	if New(cfg).Name() != "enhanced" {
		t.Fatal("protocol name wrong")
	}
}

// One 64-bit word tracks a block's counters, so a TTL above 63 is refused
// at construction: an error from ConfigFor (its arguments can be user
// input; pe = 1e-60 at fan-out 2 asks for 96 hops), a panic from New.
func TestTTLAbove63Rejected(t *testing.T) {
	if _, err := ConfigFor(100, 2, 1e-60, 2); err == nil || !strings.Contains(err.Error(), "exceeds the supported maximum") {
		t.Fatalf("ConfigFor with a TTL beyond 63: err = %v", err)
	}
	New(Config{TTL: 63})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Config.TTL 64") {
			t.Fatalf("New(Config{TTL: 64}) did not panic naming the field (recovered %q)", msg)
		}
	}()
	New(Config{TTL: 64})
}

func TestLeaderDelegatesToSingleInitialGossiper(t *testing.T) {
	cfg, _ := ConfigFor(20, 3, 1e-6, 2)
	w := build(t, 20, cfg, 1)
	_ = w.orderer.Send(0, &wire.DeliverBlock{Block: block(0)})
	// The DeliverBlock is in flight for >= 1 ms (PropMin); sample right
	// after the leader's forward but before the initial gossiper (another
	// >= 1 ms hop) can re-forward: exactly one body has left the leader.
	w.engine.RunUntil(2 * time.Millisecond)
	if got := w.traffic.CountOf(wire.TypeData); got != 1 {
		t.Fatalf("leader sent %d bodies, want exactly fleaderout = 1", got)
	}
	w.engine.RunUntil(5 * time.Second)
	for i, c := range w.cores {
		if !c.HasBlock(0) {
			t.Fatalf("peer %d missed the block", i)
		}
	}
}

func TestCounterPairsDriveForwarding(t *testing.T) {
	cfg, _ := ConfigFor(20, 3, 1e-6, 2)
	w := build(t, 20, cfg, 2)
	_ = w.orderer.Send(0, &wire.DeliverBlock{Block: block(0)})
	w.engine.RunUntil(5 * time.Second)
	// Infect-upon-contagion: peers see multiple (block, counter) pairs,
	// not just one — each first pair reception re-forwards.
	multi := 0
	for _, p := range w.protos {
		if p.SeenPairs(0) > 1 {
			multi++
		}
	}
	if multi < 5 {
		t.Fatalf("only %d peers saw multiple counter pairs; epidemic not re-forwarding", multi)
	}
}

func TestTTLBoundsCounters(t *testing.T) {
	cfg, _ := ConfigFor(15, 2, 1e-3, 1)
	w := build(t, 15, cfg, 3)
	_ = w.orderer.Send(0, &wire.DeliverBlock{Block: block(0)})
	w.engine.RunUntil(10 * time.Second)
	for i, p := range w.protos {
		if pairs := p.SeenPairs(0); pairs > int(cfg.TTL)+1 {
			t.Fatalf("peer %d saw %d pairs, exceeds TTL+1 = %d", i, pairs, cfg.TTL+1)
		}
	}
}

func TestBodiesTransmittedNPlusLittleO(t *testing.T) {
	const n = 50
	cfg, _ := ConfigFor(n, 4, 1e-6, 2)
	w := build(t, n, cfg, 4)
	_ = w.orderer.Send(0, &wire.DeliverBlock{Block: block(0)})
	w.engine.RunUntil(5 * time.Second)
	for i, c := range w.cores {
		if !c.HasBlock(0) {
			t.Fatalf("peer %d missed the block", i)
		}
	}
	bodies := int(w.traffic.CountOf(wire.TypeData))
	// n-1 peers need the body once; direct hops (1 + fout + fout^2 = 21)
	// may duplicate. Digest traffic carries the rest.
	if bodies < n-1 || bodies > n+35 {
		t.Fatalf("bodies = %d, want within [n-1, n+o(n)] for n=%d", bodies, n)
	}
	if w.traffic.CountOf(wire.TypePushDigest) == 0 {
		t.Fatal("no digests sent despite UseDigests")
	}
}

func TestNoDigestAblationSendsBodiesEveryHop(t *testing.T) {
	const n = 30
	cfg, _ := ConfigFor(n, 3, 1e-6, 2)
	cfg.UseDigests = false
	w := build(t, n, cfg, 5)
	_ = w.orderer.Send(0, &wire.DeliverBlock{Block: block(0)})
	w.engine.RunUntil(5 * time.Second)
	if w.traffic.CountOf(wire.TypePushDigest) != 0 {
		t.Fatal("digests sent despite ablation")
	}
	// Every first pair reception forwards the body: far more than n.
	bodies := int(w.traffic.CountOf(wire.TypeData))
	if bodies < 2*n {
		t.Fatalf("bodies = %d, expected a blow-up well beyond n = %d", bodies, n)
	}
}

func TestDigestBeforeBodyIsServedOnArrival(t *testing.T) {
	// Direct protocol-level exercise of the pending-serve queue: a peer
	// that offered a block it does not hold yet must serve the body as
	// soon as it arrives.
	e := sim.NewEngine(6)
	tr := netmodel.NewTraffic(time.Second)
	simnet := transport.NewSimNetwork(e, netmodel.Model{PropMin: time.Millisecond, PropMax: time.Millisecond}, tr)
	ids := []wire.NodeID{0, 1}
	cfg, _ := ConfigFor(10, 2, 1e-3, 0) // digests from the first hop
	var protos []*Protocol
	var cores []*gossip.Core
	for i := 0; i < 2; i++ {
		ep := simnet.AddNode()
		p := New(cfg)
		gcfg := gossip.DefaultConfig(ep.ID(), ids)
		gcfg.AliveInterval, gcfg.StateInfoInterval, gcfg.RecoveryInterval = 0, 0, 0
		cores = append(cores, gossip.New(gcfg, ep, e, e.Rand("g"), p))
		protos = append(protos, p)
	}
	for _, c := range cores {
		c.Start()
	}
	b := block(0)
	// Peer 0 learns about the block via a digest (no body) and peer 1
	// requests it from peer 0 before peer 0 has the body.
	e.After(0, func() { protos[0].handleDigest(1, &wire.PushDigest{Offers: []wire.BlockOffer{{Num: 0, Counter: 3}}}) })
	e.After(5*time.Millisecond, func() { protos[0].handleRequest(1, &wire.PushRequest{Nums: []uint64{0}}) })
	e.RunUntil(10 * time.Millisecond)
	if cores[1].HasBlock(0) {
		t.Fatal("body served before it existed")
	}
	// The body arrives at peer 0 (e.g. via the requested fetch): the
	// queued request must now be served to peer 1.
	e.After(0, func() { protos[0].handleData(&wire.Data{Block: b, Counter: 3}) })
	e.RunUntil(time.Second)
	if !cores[1].HasBlock(0) {
		t.Fatal("queued body request never served")
	}
}

// An offer or body far above the tracked window can only come from outside
// input: it is ignored instead of growing the dense per-block state up to its
// number, and no body request goes out for it.
func TestFarAheadOffersAreIgnored(t *testing.T) {
	cfg, _ := ConfigFor(10, 2, 1e-3, 0)
	w := build(t, 2, cfg, 8)
	for _, num := range []uint64{1 + gossip.MaxAhead, 1 << 20} {
		_ = w.orderer.Send(0, &wire.PushDigest{Offers: []wire.BlockOffer{{Num: num, Counter: 1}}})
		_ = w.orderer.Send(0, &wire.Data{Block: block(num), Counter: 1})
	}
	w.engine.RunUntil(time.Second)
	if n := len(w.protos[0].blocks); n != 0 {
		t.Fatalf("per-block state grew to %d slots", n)
	}
	if got := w.traffic.CountOf(wire.TypePushRequest); got != 0 {
		t.Fatalf("%d body requests for far-ahead offers", got)
	}
}

// A body request for a block this peer never offered is outside input: it is
// dropped, not parked until the body arrives, however many numbers it names
// and however far above the peer's height they lie.
func TestRequestsForUnofferedBlocksAreNotParked(t *testing.T) {
	cfg, _ := ConfigFor(10, 2, 1e-3, 0)
	w := build(t, 2, cfg, 9)
	nums := make([]uint64, 0, 10000)
	for num := uint64(0); num < 9999; num++ {
		nums = append(nums, num)
	}
	nums = append(nums, 1e9)
	_ = w.orderer.Send(0, &wire.PushRequest{Nums: nums})
	w.engine.RunUntil(time.Second)
	if n := len(w.protos[0].serves); n != 0 {
		t.Fatalf("%d never-offered blocks have requests parked", n)
	}
	if got := w.traffic.CountOf(wire.TypeData); got != 0 {
		t.Fatalf("%d bodies sent for blocks nobody holds", got)
	}
}

func TestRequestTimeoutAllowsReRequest(t *testing.T) {
	cfg, _ := ConfigFor(10, 2, 1e-3, 0)
	cfg.RequestTimeout = 50 * time.Millisecond
	e := sim.NewEngine(7)
	tr := netmodel.NewTraffic(time.Second)
	simnet := transport.NewSimNetwork(e, netmodel.Model{PropMin: time.Millisecond, PropMax: time.Millisecond}, tr)
	ids := []wire.NodeID{0, 1, 2}
	var protos []*Protocol
	for i := 0; i < 3; i++ {
		ep := simnet.AddNode()
		p := New(cfg)
		gcfg := gossip.DefaultConfig(ep.ID(), ids)
		gcfg.AliveInterval, gcfg.StateInfoInterval, gcfg.RecoveryInterval = 0, 0, 0
		c := gossip.New(gcfg, ep, e, e.Rand("g"), p)
		c.Start()
		protos = append(protos, p)
	}
	// Peer 0 gets an offer from peer 1 (who will never serve it — it has
	// no body either), then a second offer from peer 2 after the timeout.
	// Offer counters equal TTL so no peer re-forwards and the only
	// PushRequests in the network are peer 0's.
	ttl := cfg.TTL
	e.After(0, func() { protos[0].handleDigest(1, &wire.PushDigest{Offers: []wire.BlockOffer{{Num: 0, Counter: ttl}}}) })
	e.After(30*time.Millisecond, func() { // within timeout: no re-request
		protos[0].handleDigest(2, &wire.PushDigest{Offers: []wire.BlockOffer{{Num: 0, Counter: ttl}}})
	})
	e.After(100*time.Millisecond, func() { // past timeout: re-request
		protos[0].handleDigest(2, &wire.PushDigest{Offers: []wire.BlockOffer{{Num: 0, Counter: ttl}}})
	})
	e.RunUntil(time.Second)
	if got := tr.CountOf(wire.TypePushRequest); got != 2 {
		t.Fatalf("requests = %d, want exactly initial + post-timeout re-request", got)
	}
}

func TestPeMatchesMonteCarloAtSmallScale(t *testing.T) {
	// Cross-validation of the analysis with the implementation: at a
	// deliberately small TTL the push phase should fail to reach everyone
	// at roughly the analytic rate.
	const n, fout, ttl = 30, 2, 4
	pe := analysis.ImperfectProb(n, fout, ttl)
	if pe < 0.05 || pe > 0.95 {
		t.Skipf("pe = %g not in a testable band", pe)
	}
	cfg := Config{Fout: fout, TTL: ttl, TTLDirect: 1, FLeaderOut: 1, UseDigests: true, RequestTimeout: 100 * time.Millisecond}
	failures := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		w := build(t, n, cfg, int64(trial)+100)
		_ = w.orderer.Send(0, &wire.DeliverBlock{Block: block(0)})
		w.engine.RunUntil(5 * time.Second)
		for _, c := range w.cores {
			if !c.HasBlock(0) {
				failures++
				break
			}
		}
	}
	rate := float64(failures) / trials
	// The analysis is a conservative upper bound; the observed failure
	// rate must not exceed it by much, and should not be wildly lower
	// (within a factor-ish band given 60 trials).
	if rate > pe*2.0+0.15 {
		t.Fatalf("observed failure rate %.2f far above analytic bound %.2f", rate, pe)
	}
}
