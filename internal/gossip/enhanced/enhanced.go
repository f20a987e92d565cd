// Package enhanced implements the paper's contribution (§IV): an
// infect-upon-contagion push phase with a TTL stopping condition chosen for
// a target probability of imperfect dissemination, digests beyond the first
// TTLdirect hops, a randomized initial gossiper that relieves the leader
// peer, immediate forwarding (tpush = 0), and no pull component.
//
// Epidemic state is the *pair* (block number, hop counter): the first
// reception of a pair — by direct Data or by digest offer — forwards the
// pair with an incremented counter to Fout random peers, until the counter
// reaches TTL. Hops whose outgoing counter is at most TTLdirect carry the
// full body; later hops carry a digest answered by a body request.
package enhanced

import (
	"fmt"
	"math"
	"sync"
	"time"

	"fabricgossip/internal/analysis"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/wire"
)

// Config holds the enhanced protocol's parameters.
type Config struct {
	// Fout is the push fan-out. The paper evaluates floor(ln n) = 4 and
	// the more conservative 2.
	Fout int
	// TTL is the stopping counter; pick with analysis.TTLFor (or
	// ConfigFor) so the probability of imperfect dissemination meets the
	// target (9 for fout=4, 19 for fout=2 at n=100, pe=1e-6).
	TTL uint32
	// TTLDirect is the number of initial hops pushed with the full body
	// and no digest (collisions are rare early; paper uses 2 for fout=4,
	// 3 for fout=2). Zero sends digests from the first forwarded hop.
	TTLDirect uint32
	// FLeaderOut is the leader peer's fan-out for the initial delegation
	// (1 in the paper; setting it to Fout reproduces the Figure 10
	// ablation where the leader carries fout times the bandwidth).
	FLeaderOut int
	// UseDigests enables digest-based push beyond TTLDirect. Disabling it
	// reproduces the Figure 11 ablation (full bodies on every hop,
	// ~8 MB/s).
	UseDigests bool
	// RequestTimeout is how long a body request may stay outstanding
	// before a new digest offer triggers a re-request.
	RequestTimeout time.Duration
	// TPush re-enables Fabric's push batching timer for data blocks.
	// The paper sets it to 0: pairs buffered together are forwarded to
	// the SAME random sample, which biases the epidemic's randomness and
	// voids the pe guarantee (§IV, "we also remove the tpush=10ms
	// timer... to ensure unbiased randomness"). Non-zero values exist to
	// reproduce that ablation.
	TPush time.Duration
}

const (
	// maxTTL is the largest stopping counter a configuration may carry: a
	// block's observed counters are one 64-bit word (blockState.seen).
	// Analytic TTLs are single-digit up to a million peers.
	maxTTL = 63
	// retention bounds per-block epidemic state: tracking for blocks more
	// than retention below the in-order ledger height is pruned (their
	// epidemics ended long ago; stragglers fall through to recovery).
	retention = 256
)

// DefaultConfig returns the paper's primary configuration for a network of
// n peers: fout = floor(ln n) (minimum 2), TTL from the analytic lookup at
// pe = 1e-6, TTLdirect = 2, fleaderout = 1.
func DefaultConfig(n int) (Config, error) {
	return ConfigFor(n, max(2, int(math.Log(float64(n)))), 1e-6, 2)
}

// ConfigFor returns a configuration with an explicit fan-out and the TTL
// required for the given pe target on n peers.
func ConfigFor(n, fout int, peTarget float64, ttlDirect uint32) (Config, error) {
	ttl, err := analysis.TTLFor(n, fout, peTarget)
	if err != nil {
		return Config{}, err
	}
	if ttl > maxTTL {
		return Config{}, fmt.Errorf("enhanced: TTL %d for n=%d fout=%d pe=%g exceeds the supported maximum %d",
			ttl, n, fout, peTarget, maxTTL)
	}
	return Config{
		Fout:           fout,
		TTL:            uint32(ttl),
		TTLDirect:      ttlDirect,
		FLeaderOut:     1,
		UseDigests:     true,
		RequestTimeout: 500 * time.Millisecond,
	}, nil
}

// pendingServe is a body request we could not answer yet because we
// ourselves only hold the digest so far.
type pendingServe struct {
	to      wire.NodeID
	counter uint32
}

// blockState is one block's epidemic tracking state, stored dense by block
// number (blocks[i] tracks blockBase+i). Block numbers are small dense
// integers and retention bounds how many stay live, so a flat 24-byte slot
// replaces what used to be an entry in each of four parallel maps — the
// largest remaining heap term across a 10k-peer organization.
type blockState struct {
	// seen is the bitset of observed counters 0..maxTTL: one word covers
	// the whole epidemic.
	seen uint64
	// requested is when we last asked someone for the body, plus 1ns so
	// zero means "never asked".
	requested time.Duration
	// lastOffered is the counter this peer last offered for the block,
	// plus one so zero means "never offered".
	lastOffered uint32
}

// Protocol is the enhanced disseminator.
type Protocol struct {
	cfg Config

	mu sync.Mutex
	c  *gossip.Core

	// blocks is the dense per-block tracking state: blocks[i] tracks block
	// number blockBase+i. pruneBelow advances blockBase and shifts the
	// slice, keeping at most retention (plus in-flight) slots live.
	blocks    []blockState
	blockBase uint64
	// serves queues body requests that arrived before the body; nil until
	// a request outruns its body.
	serves map[uint64][]pendingServe
	// stale resurrects tracking state for stragglers below blockBase, so
	// a pair arriving after its block was pruned still dedupes exactly as
	// the map-based layout did; nil until one arrives.
	stale map[uint64]*blockState

	// pushBuf holds (num, counter) pairs awaiting the TPush flush (only
	// used in the tpush ablation; the paper's configuration forwards
	// immediately).
	pushBuf   []wire.BlockOffer
	pushTimer simTimer

	// sampleBuf is the spread path's reusable fan-out sample and
	// digestSpreads handleDigest's staged new-pair scratch. Both are
	// reused only on the single-threaded simulated runtime (reuse), where
	// message handlers are serialized by the engine; the TCP runtime's
	// concurrent handlers allocate fresh slices instead. Neither is ever
	// part of an outbound message — in-flight messages must not alias
	// reused memory.
	sampleBuf     []wire.NodeID
	digestSpreads []wire.BlockOffer
	reuse         bool

	// dataPool/digestPool recycle outbound envelopes on the simulated
	// runtime: an envelope is drawn with its reference count preset to the
	// fan-out and returns to the free list when the transport terminates
	// its last delivery (see wire.Releasable). This kills the last per-
	// spread heap churn of the push path. The TCP runtime allocates plain
	// envelopes instead — its transport encodes rather than retains them,
	// so there is no release point.
	dataPool   wire.DataPool
	digestPool wire.PushDigestPool

	stopped bool
}

// simTimer narrows sim.Timer for the one optional timer this protocol owns.
type simTimer interface{ Stop() bool }

// New returns an unstarted protocol instance. A TTL above 63 is a
// programming error (ConfigFor never returns one) and panics.
func New(cfg Config) *Protocol {
	if cfg.TTL > maxTTL {
		panic(fmt.Sprintf("enhanced.New: Config.TTL %d exceeds the supported maximum %d", cfg.TTL, maxTTL))
	}
	return &Protocol{cfg: cfg}
}

// state returns block num's tracking slot, creating it if needed, or nil
// for a number more than gossip.MaxAhead above blockBase (outside input:
// the dense slice would grow to it). Callers hold mu; the pointer must not
// outlive the critical section (growing the dense slice moves it).
func (p *Protocol) state(num uint64) *blockState {
	if num < p.blockBase {
		st := p.stale[num]
		if st == nil {
			if p.stale == nil {
				p.stale = make(map[uint64]*blockState)
			}
			st = &blockState{}
			p.stale[num] = st
		}
		return st
	}
	i := num - p.blockBase
	if i > gossip.MaxAhead {
		return nil
	}
	for uint64(len(p.blocks)) <= i {
		p.blocks = append(p.blocks, blockState{})
	}
	return &p.blocks[i]
}

// peek returns block num's tracking slot or nil, without creating one.
// Callers hold mu.
func (p *Protocol) peek(num uint64) *blockState {
	if num < p.blockBase {
		return p.stale[num]
	}
	if i := num - p.blockBase; i < uint64(len(p.blocks)) {
		return &p.blocks[i]
	}
	return nil
}

// Name implements gossip.Protocol.
func (p *Protocol) Name() string { return "enhanced" }

// PoolOutstanding reports the instance's pooled envelopes still checked
// out (body, digest). Both must be zero once the engine drains: the
// transport releases every delivery attempt, so a nonzero residue means a
// send was issued without a matching release. The scenario runner asserts
// this after every catalog run.
func (p *Protocol) PoolOutstanding() (data, digest int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dataPool.Outstanding(), p.digestPool.Outstanding()
}

// Start implements gossip.Protocol.
func (p *Protocol) Start(c *gossip.Core) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.c = c
	p.reuse = c.SingleThreaded()
}

// Stop implements gossip.Protocol.
func (p *Protocol) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	if p.pushTimer != nil {
		p.pushTimer.Stop()
		p.pushTimer = nil
	}
}

// OnOrdererBlock implements gossip.Protocol: the leader stores the block
// and delegates the epidemic's start to FLeaderOut random peers with
// counter 0. With FLeaderOut = 1 the leader's per-block cost is a single
// body transmission, spreading the origin role uniformly across the
// organization (paper §IV, "randomization of the initial gossiper").
func (p *Protocol) OnOrdererBlock(b *ledger.Block) {
	p.c.AddBlock(b)
	p.mu.Lock()
	p.markSeen(b.Num, 0)
	p.mu.Unlock()
	targets := p.sample(p.cfg.FLeaderOut)
	if len(targets) == 0 {
		return
	}
	msg := p.newData(b, 0, len(targets))
	for _, t := range targets {
		p.c.Send(t, msg)
	}
}

// newData returns an outbound body envelope good for refs deliveries:
// pooled on the simulated runtime, freshly allocated on the TCP runtime.
// refs must be fixed before the first send — the transport may release
// mid-loop when a copy drops.
func (p *Protocol) newData(b *ledger.Block, counter uint32, refs int) *wire.Data {
	if p.reuse {
		return p.dataPool.Get(b, counter, refs)
	}
	return &wire.Data{Block: b, Counter: counter}
}

// newDigest is newData for digest envelopes; the caller appends Offers.
func (p *Protocol) newDigest(refs int) *wire.PushDigest {
	if p.reuse {
		return p.digestPool.Get(refs)
	}
	return &wire.PushDigest{}
}

// Handle implements gossip.Protocol.
func (p *Protocol) Handle(from wire.NodeID, msg wire.Message) bool {
	switch m := msg.(type) {
	case *wire.Data:
		p.handleData(m)
	case *wire.PushDigest:
		p.handleDigest(from, m)
	case *wire.PushRequest:
		p.handleRequest(from, m)
	default:
		return false
	}
	return true
}

// OnBlockStored implements gossip.Protocol: bodies arriving by any path
// satisfy queued body requests, and old epidemic state is pruned against
// the advancing ledger height.
func (p *Protocol) OnBlockStored(b *ledger.Block) {
	p.mu.Lock()
	serves := p.serves[b.Num]
	delete(p.serves, b.Num)
	p.mu.Unlock()
	for _, s := range serves {
		p.c.Send(s.to, p.newData(b, s.counter, 1))
	}
	p.pruneBelow(p.c.Height())
}

// pruneBelow drops per-block tracking state for blocks far below the
// in-order height, keeping memory bounded on long-running peers.
func (p *Protocol) pruneBelow(height uint64) {
	if height <= retention {
		return
	}
	floor := height - retention
	p.mu.Lock()
	defer p.mu.Unlock()
	// A queued serve is dropped with its block's tracking state (only an
	// offered block, hence a seen one, has serves queued).
	for num := range p.serves {
		if num < floor {
			delete(p.serves, num)
		}
	}
	if floor > p.blockBase {
		n := floor - p.blockBase
		if n >= uint64(len(p.blocks)) {
			p.blocks = p.blocks[:0]
		} else {
			copy(p.blocks, p.blocks[n:])
			p.blocks = p.blocks[:uint64(len(p.blocks))-n]
		}
		p.blockBase = floor
	}
	for num := range p.stale {
		if num < floor {
			delete(p.stale, num)
		}
	}
}

func (p *Protocol) handleData(m *wire.Data) {
	p.c.AddBlock(m.Block)
	p.mu.Lock()
	first := p.markSeen(m.Block.Num, m.Counter)
	if first {
		p.noteSpread(m.Block.Num, m.Counter)
	}
	p.mu.Unlock()
	if first {
		p.spread(m.Block.Num, m.Counter)
	}
}

// handleDigest takes the protocol's lock once and, inside it, the core's
// once per offer (HasBlock); a spread adds the core's lock once more to draw
// its targets. Nothing else on a digest delivery locks.
func (p *Protocol) handleDigest(from wire.NodeID, m *wire.PushDigest) {
	now := p.c.Scheduler().Now()
	var wantNums []uint64 // becomes the PushRequest payload: never reused
	var spreads []wire.BlockOffer
	p.mu.Lock()
	if p.reuse {
		spreads = p.digestSpreads[:0]
	}
	for _, o := range m.Offers {
		if p.markSeen(o.Num, o.Counter) {
			spreads = append(spreads, o)
			p.noteSpread(o.Num, o.Counter)
		}
		if !p.c.HasBlock(o.Num) {
			st := p.state(o.Num)
			if st != nil && (st.requested == 0 || now-(st.requested-1) >= p.cfg.RequestTimeout) {
				st.requested = now + 1
				wantNums = append(wantNums, o.Num)
			}
		}
	}
	if p.reuse {
		p.digestSpreads = spreads
	}
	p.mu.Unlock()
	if len(wantNums) > 0 {
		p.c.Send(from, &wire.PushRequest{Nums: wantNums})
	}
	// Forwarding a digest needs no body: the epidemic spreads at digest
	// speed while bodies follow on demand (the analysis counts digest
	// receptions).
	for _, o := range spreads {
		p.spread(o.Num, o.Counter)
	}
}

func (p *Protocol) handleRequest(from wire.NodeID, m *wire.PushRequest) {
	for _, num := range m.Nums {
		p.mu.Lock()
		counter := p.cfg.TTL // conservative: do not extend the epidemic
		st := p.peek(num)
		offered := st != nil && st.lastOffered != 0
		if offered {
			counter = st.lastOffered - 1
		}
		b := p.c.Block(num)
		if b == nil {
			// We offered a block whose body has not reached us yet:
			// remember the request and serve it on arrival. A request for
			// a block we never offered is outside input and is dropped,
			// or a peer could grow serves without bound.
			if offered {
				if p.serves == nil {
					p.serves = make(map[uint64][]pendingServe)
				}
				p.serves[num] = append(p.serves[num], pendingServe{to: from, counter: counter})
			}
			p.mu.Unlock()
			continue
		}
		p.mu.Unlock()
		p.c.Send(from, p.newData(b, counter, 1))
	}
}

// markSeen records the pair and reports whether it was new. A counter
// beyond maxTTL can only come off the wire from a peer outside this
// program's configurations; it is ignored. Callers hold mu.
func (p *Protocol) markSeen(num uint64, counter uint32) bool {
	if p.stopped || counter > maxTTL {
		return false
	}
	st := p.state(num)
	bit := uint64(1) << counter
	if st == nil || st.seen&bit != 0 {
		return false
	}
	st.seen |= bit
	return true
}

// digestHop reports whether a hop carrying counter next travels as a digest.
func (p *Protocol) digestHop(next uint32) bool {
	return p.cfg.UseDigests && next > p.cfg.TTLDirect
}

// noteSpread records the counter this peer is about to offer for block num
// when the new pair (num, received) spreads at once as a digest: a body
// request the offer provokes is answered at that counter (handleRequest).
// Callers hold mu — the critical section that found the pair new — so
// forward takes no lock of its own. The tpush ablation records its offers
// at flush time instead (flushSpread).
func (p *Protocol) noteSpread(num uint64, received uint32) {
	if next := received + 1; p.cfg.TPush == 0 && next <= p.cfg.TTL && p.digestHop(next) {
		p.state(num).lastOffered = next + 1
	}
}

// spread forwards pair (num, received counter) to Fout random peers with
// the counter incremented, stopping at TTL. This is the
// infect-upon-contagion step: it runs on *every* first reception of a pair,
// not only the first reception of the block.
//
// In the tpush ablation (TPush > 0) pairs are buffered and flushed
// together to one shared random sample — reproducing the bias the paper
// removes.
func (p *Protocol) spread(num uint64, received uint32) {
	next := received + 1
	if next > p.cfg.TTL {
		return
	}
	if p.cfg.TPush > 0 {
		p.bufferSpread(wire.BlockOffer{Num: num, Counter: next})
		return
	}
	p.forward(wire.BlockOffer{Num: num, Counter: next}, p.sample(p.cfg.Fout))
}

// sample draws the fan-out targets, through the reusable buffer on the
// single-threaded runtime. The result is consumed (sent to) before any
// other sample call, so reuse is safe there; concurrent TCP handlers get a
// fresh slice.
func (p *Protocol) sample(k int) []wire.NodeID {
	if !p.reuse {
		return p.c.RandomPeers(k)
	}
	p.sampleBuf = p.c.RandomPeersInto(k, p.sampleBuf)
	return p.sampleBuf
}

func (p *Protocol) bufferSpread(o wire.BlockOffer) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.pushBuf = append(p.pushBuf, o)
	if p.pushTimer == nil {
		p.pushTimer = p.c.Scheduler().After(p.cfg.TPush, p.flushSpread)
	}
	p.mu.Unlock()
}

func (p *Protocol) flushSpread() {
	p.mu.Lock()
	buf := p.pushBuf
	p.pushBuf = nil
	p.pushTimer = nil
	for _, o := range buf {
		if p.digestHop(o.Counter) {
			p.state(o.Num).lastOffered = o.Counter + 1
		}
	}
	p.mu.Unlock()
	if len(buf) == 0 {
		return
	}
	// The bias: one sample for every buffered pair.
	targets := p.sample(p.cfg.Fout)
	for _, o := range buf {
		p.forward(o, targets)
	}
}

// forward ships one pair to the given targets, directly or as a digest. The
// caller has recorded a digest's offered counter (noteSpread, flushSpread).
func (p *Protocol) forward(o wire.BlockOffer, targets []wire.NodeID) {
	if len(targets) == 0 {
		return
	}
	num, next := o.Num, o.Counter
	if p.digestHop(next) {
		msg := p.newDigest(len(targets))
		msg.Offers = append(msg.Offers, o)
		for _, t := range targets {
			p.c.Send(t, msg)
		}
		return
	}
	// Direct hop: the body is guaranteed present, because counters at or
	// below TTLdirect only ever travel with the body.
	b := p.c.Block(num)
	if b == nil {
		return
	}
	msg := p.newData(b, next, len(targets))
	for _, t := range targets {
		p.c.Send(t, msg)
	}
}
