// Package original implements the stock Fabric gossip dissemination the
// paper evaluates as its baseline (§III-A): an infect-and-die push phase
// with a small batching timer, a periodic pull component that fetches
// missed blocks with a Hello → Digest → Request → Response exchange, and
// the shared recovery component (provided by the gossip core).
package original

import (
	"sync"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Config holds the stock protocol's parameters. Defaults mirror Fabric
// v1.2.
type Config struct {
	// Fout is the push fan-out (Fabric PropagatePeerNum, default 3).
	Fout int
	// TPush is the push batching delay: first receptions are buffered and
	// flushed to the same random sample after TPush (Fabric's 10 ms
	// emitter). Zero flushes immediately.
	TPush time.Duration
	// PushBufferCap flushes the buffer early when it holds this many
	// blocks (Fabric's batch size). Zero means no cap.
	PushBufferCap int
	// Fin is the pull fan-out: how many random peers are engaged per pull
	// round (Fabric PullPeerNum, default 3).
	Fin int
	// TPull is the pull period (Fabric PullInterval, default 4 s).
	TPull time.Duration
	// DigestWindow bounds how many recent block numbers a pull digest
	// advertises.
	DigestWindow int
}

// DefaultConfig returns Fabric v1.2 defaults (paper §V-B).
func DefaultConfig() Config {
	return Config{
		Fout:          3,
		TPush:         10 * time.Millisecond,
		PushBufferCap: 10,
		Fin:           3,
		TPull:         4 * time.Second,
		DigestWindow:  100,
	}
}

// Protocol is the infect-and-die + pull disseminator.
type Protocol struct {
	cfg Config

	mu sync.Mutex
	c  *gossip.Core

	// Push state: blocks waiting for the batching timer.
	pushBuf   []*ledger.Block
	pushTimer sim.Timer

	// Pull state.
	pullTimer sim.Timer
	nextNonce uint64
	// pending maps an outstanding nonce to the peer it was sent to. It holds
	// two rounds at most: nonces up to prevRound were issued before the
	// previous round, and pullTick forgets them.
	pending   map[uint64]wire.NodeID
	prevRound uint64
	// requested records when a block body was last requested via pull, to
	// avoid fetching the same body from several responders in one round.
	requested map[uint64]time.Duration

	// pullPeers/pullHellos are pullTick's reusable scratch (a periodic
	// timer never overlaps itself, so the tick owns them exclusively on
	// both runtimes). pushTargets is flushPush's sampling buffer, reused
	// only on the single-threaded simulated runtime — on the TCP runtime
	// concurrent Data handlers can race into flushPush, so it allocates.
	pullPeers   []wire.NodeID
	pullHellos  []hello
	pushTargets []wire.NodeID
	reuse       bool

	stopped bool
}

// hello is one outbound pull opening, staged so sends happen outside mu in
// sampling order.
type hello struct {
	nonce uint64
	to    wire.NodeID
}

// New returns an unstarted protocol instance.
func New(cfg Config) *Protocol {
	return &Protocol{
		cfg:       cfg,
		pending:   make(map[uint64]wire.NodeID),
		requested: make(map[uint64]time.Duration),
	}
}

// Start implements gossip.Protocol.
func (p *Protocol) Start(c *gossip.Core) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.c = c
	p.reuse = c.SingleThreaded()
	if p.cfg.TPull > 0 {
		p.pullTimer = c.Scheduler().After(p.pullDelay(), p.pullTick)
	}
}

// pullDelay randomizes each peer's pull phase so rounds are not
// synchronized across the network (each peer pulls on its own schedule, as
// in Fabric).
func (p *Protocol) pullDelay() time.Duration {
	return time.Duration(p.c.Rand().Int63n(int64(p.cfg.TPull))) + 1
}

// Stop implements gossip.Protocol.
func (p *Protocol) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	if p.pushTimer != nil {
		p.pushTimer.Stop()
	}
	if p.pullTimer != nil {
		p.pullTimer.Stop()
	}
}

// OnOrdererBlock implements gossip.Protocol: the leader peer stores the
// block and becomes the first infected peer.
func (p *Protocol) OnOrdererBlock(b *ledger.Block) {
	if p.c.AddBlock(b) {
		p.enqueuePush(b)
	}
}

// OnBlockStored implements gossip.Protocol. The stock protocol triggers
// pushes only from the push path itself (infect-and-die), so bodies
// arriving by pull or recovery are not re-pushed.
func (p *Protocol) OnBlockStored(*ledger.Block) {}

// Handle implements gossip.Protocol.
func (p *Protocol) Handle(from wire.NodeID, msg wire.Message) bool {
	switch m := msg.(type) {
	case *wire.Data:
		// Infect-and-die: push once upon first infection, then ignore
		// duplicates.
		if p.c.AddBlock(m.Block) {
			p.enqueuePush(m.Block)
		}
	case *wire.PullHello:
		p.servePullHello(from, m)
	case *wire.PullDigest:
		p.handlePullDigest(from, m)
	case *wire.PullRequest:
		p.servePullRequest(from, m)
	case *wire.PullData:
		p.c.AddBlock(m.Block) // no re-push (paper §III-A)
	default:
		return false
	}
	return true
}

// --- push (infect-and-die) ---

// enqueuePush buffers b and arms the batching timer. When the buffer
// flushes, every buffered block goes to the *same* fout random peers —
// exactly the randomness bias the paper's enhanced protocol removes by
// setting tpush = 0.
func (p *Protocol) enqueuePush(b *ledger.Block) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.pushBuf = append(p.pushBuf, b)
	flushNow := p.cfg.TPush <= 0 || (p.cfg.PushBufferCap > 0 && len(p.pushBuf) >= p.cfg.PushBufferCap)
	if !flushNow && p.pushTimer == nil {
		p.pushTimer = p.c.Scheduler().After(p.cfg.TPush, p.flushPush)
	}
	p.mu.Unlock()
	if flushNow {
		p.flushPush()
	}
}

func (p *Protocol) flushPush() {
	p.mu.Lock()
	buf := p.pushBuf
	p.pushBuf = nil
	if p.pushTimer != nil {
		p.pushTimer.Stop()
		p.pushTimer = nil
	}
	p.mu.Unlock()
	if len(buf) == 0 {
		return
	}
	var targets []wire.NodeID
	if p.reuse {
		p.pushTargets = p.c.RandomPeersInto(p.cfg.Fout, p.pushTargets)
		targets = p.pushTargets
	} else {
		targets = p.c.RandomPeers(p.cfg.Fout)
	}
	for _, b := range buf {
		msg := &wire.Data{Block: b}
		for _, t := range targets {
			p.c.Send(t, msg)
		}
	}
}

// --- pull ---

func (p *Protocol) pullTick() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.pullTimer = p.c.Scheduler().After(p.cfg.TPull, p.pullTick)
	// Pull state lasts as long as the round it belongs to. A hello whose
	// responder crashed is never answered, and a digest more than TPull late
	// answers a round that is over: forget nonces issued before the previous
	// round. A held block is never asked about again: forget its request.
	for nonce := range p.pending {
		if nonce <= p.prevRound {
			delete(p.pending, nonce)
		}
	}
	p.prevRound = p.nextNonce
	if len(p.requested) > 0 {
		height := p.c.Height()
		for num := range p.requested {
			if num < height {
				delete(p.requested, num)
			}
		}
	}
	p.pullPeers = p.c.RandomPeersInto(p.cfg.Fin, p.pullPeers)
	// Hellos go out in sampling order (a map here would randomize send
	// order and with it the transport's delay draws, breaking run-to-run
	// determinism).
	hellos := p.pullHellos[:0]
	for _, q := range p.pullPeers {
		p.nextNonce++
		p.pending[p.nextNonce] = q
		hellos = append(hellos, hello{nonce: p.nextNonce, to: q})
	}
	p.pullHellos = hellos
	p.mu.Unlock()
	for _, h := range hellos {
		p.c.Send(h.to, &wire.PullHello{Nonce: h.nonce})
	}
}

// pullProbe bounds how far above its first gap a hello's responder looks
// for blocks received out of order: the gap itself and the 63 numbers above.
const pullProbe = 64

// servePullHello answers with the numbers of recent blocks we hold: the
// consecutive prefix we can serve from DigestWindow below our height, as a
// run, plus any blocks received out of order just above it. Only those
// strays are a list; it is sized once and belongs to the message in flight.
func (p *Protocol) servePullHello(from wire.NodeID, m *wire.PullHello) {
	lo, gap, strays := p.c.HeldRun(uint64(max(p.cfg.DigestWindow, 0)), pullProbe)
	p.c.Send(from, &wire.PullDigest{Nonce: m.Nonce, RunLo: lo, RunHi: gap, Nums: strays})
}

// handlePullDigest requests the advertised bodies we lack and have not
// requested recently.
func (p *Protocol) handlePullDigest(from wire.NodeID, m *wire.PullDigest) {
	p.mu.Lock()
	if q, ok := p.pending[m.Nonce]; !ok || q != from {
		p.mu.Unlock()
		return // unsolicited or stale digest
	}
	delete(p.pending, m.Nonce)
	now := p.c.Scheduler().Now()
	// MissingIn's result is ours, so the per-round filter runs in place over
	// the few numbers we lack instead of over the whole digest.
	missing := p.c.MissingIn(m.RunLo, m.RunHi, m.Nums)
	want := missing[:0]
	for _, num := range missing {
		if last, ok := p.requested[num]; ok && now-last < p.cfg.TPull {
			continue // outstanding request from this round
		}
		p.requested[num] = now
		want = append(want, num)
	}
	p.mu.Unlock()
	if len(want) > 0 {
		p.c.Send(from, &wire.PullRequest{Nonce: m.Nonce, Nums: want})
	}
}

func (p *Protocol) servePullRequest(from wire.NodeID, m *wire.PullRequest) {
	for _, num := range m.Nums {
		if b := p.c.Block(num); b != nil {
			p.c.Send(from, &wire.PullData{Nonce: m.Nonce, Block: b})
		}
	}
}
