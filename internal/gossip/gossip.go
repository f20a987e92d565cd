// Package gossip implements the shared infrastructure of Fabric's gossip
// layer (paper §III): the per-peer block buffer with in-order delivery, and
// the membership heartbeats and ledger-height metadata (state info) that
// all peers exchange. The recovery (anti-entropy) component that lets peers
// catch up on missing block ranges lives in internal/statesync; the core
// delegates to its Fetcher/Provider pair through the narrow statesync.Host
// interface it implements.
//
// The two dissemination variants plug into this core as Protocol
// implementations:
//
//   - gossip/original: infect-and-die push + periodic pull (stock Fabric);
//   - gossip/enhanced: the paper's infect-upon-contagion push with TTL,
//     digests, randomized initial gossiper, and no pull.
package gossip

import (
	"sync"
	"sync/atomic"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/membership"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/statesync"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// Protocol is a pluggable dissemination strategy.
type Protocol interface {
	// Start is called once, after the core is wired, so the protocol can
	// arm its timers.
	Start(c *Core)
	// Stop cancels the protocol's timers.
	Stop()
	// OnOrdererBlock is invoked on the leader peer when the ordering
	// service delivers a freshly cut block.
	OnOrdererBlock(b *ledger.Block)
	// Handle processes a dissemination message. It reports whether the
	// message type belonged to this protocol.
	Handle(from wire.NodeID, msg wire.Message) bool
	// OnBlockStored is invoked whenever a block body is stored for the
	// first time, regardless of the path it arrived by (push, pull or
	// recovery), so the protocol can serve queued requests.
	OnBlockStored(b *ledger.Block)
}

// Config parameterizes the shared gossip core. Durations follow Fabric's
// defaults where they exist.
type Config struct {
	// Self is this peer's node id; Peers lists every peer of the
	// organization including Self (gossip operates on a complete graph,
	// paper §III-A). Peers must be a contiguous ascending id range — the
	// harness's dense-id contract, which New enforces.
	Self  wire.NodeID
	Peers []wire.NodeID

	// StateInfoInterval is how often the peer gossips its ledger height;
	// StateInfoFanout is to how many random peers.
	StateInfoInterval time.Duration
	StateInfoFanout   int

	// AliveInterval/AliveFanout parameterize membership heartbeats. They
	// carry no protocol state here but reproduce the background traffic
	// floor of the paper's bandwidth figures.
	AliveInterval time.Duration
	AliveFanout   int
	// AliveExpiration is how long a peer stays in the live view after its
	// last heartbeat. Zero defaults to 3x AliveInterval.
	AliveExpiration time.Duration

	// SuspectTimeout, PiggybackMax, PiggybackBudget, ShuffleInterval and
	// ShuffleSample enable the SWIM-style membership extensions
	// (internal/membership): lapsed peers become refutable suspects
	// instead of dying immediately, membership rumors piggyback on every
	// outgoing gossip message with per-rumor retransmit budgets, and a
	// periodic shuffle exchanges view samples with a random live peer.
	// All zero — the default — reproduces the legacy sparse heartbeat
	// view exactly (no extra messages, no extra random draws).
	SuspectTimeout  time.Duration
	PiggybackMax    int
	PiggybackBudget int
	ShuffleInterval time.Duration
	ShuffleSample   int

	// RecoveryInterval is how often the peer checks whether it is behind
	// the highest advertised ledger and fetches a batch of missing
	// blocks. RecoveryBatch caps the range requested at once. Both feed
	// the statesync engine the core delegates recovery to.
	RecoveryInterval time.Duration
	RecoveryBatch    int

	// AnchorPeers lists remote-organization anchor peers this peer's
	// leader may fetch missing blocks from when the ordering service goes
	// silent (cross-org state transfer through the statesync engine, on
	// its statesync.AnchorInterval and statesync.OrdererStall). Empty — the
	// default — disables the path entirely.
	AnchorPeers []wire.NodeID
}

// DefaultConfig returns the Fabric-default shared parameters for the given
// membership.
func DefaultConfig(self wire.NodeID, peers []wire.NodeID) Config {
	return Config{
		Self:              self,
		Peers:             peers,
		StateInfoInterval: 4 * time.Second,
		StateInfoFanout:   3,
		AliveInterval:     5 * time.Second,
		AliveFanout:       3,
		RecoveryInterval:  10 * time.Second,
		RecoveryBatch:     32,
	}
}

// Core is the per-peer gossip state shared by both protocol variants. All
// exported methods are safe for concurrent use (required by the TCP
// runtime; the simulated runtime is single-threaded anyway).
type Core struct {
	cfg   Config
	ep    transport.Endpoint
	sched sim.Scheduler
	rng   *sim.Rand
	proto Protocol

	mu sync.Mutex
	// blocks is the stored-bodies index, dense by block number (nil =
	// absent): ledger numbers are a contiguous sequence from genesis, so a
	// slice holds the whole store in one pointer per block where a map
	// spent a bucket entry.
	blocks   []*ledger.Block
	height   uint64 // next block needed for in-order delivery
	highest  uint64 // highest block number stored (valid if hasAny)
	hasAny   bool
	aliveSeq uint64
	timers   []sim.Timer
	started  bool
	// stopped is written under mu but read without it by handleMessage,
	// which runs on every delivery.
	stopped atomic.Bool

	// view is the membership plane (internal/membership): the live/dead
	// state machine behind LivePeers, LeaderPeer and the statesync dead
	// filter, plus — when configured — the SWIM piggyback/suspicion/
	// shuffle machinery. It locks internally and is called with mu
	// released.
	view *membership.View
	// shuffleRng is the membership plane's own random stream, seeded from
	// the core stream once at construction (and only when shuffling is
	// enabled, so legacy configurations consume the shared stream
	// identically). The shuffle timer is its sole user: sharing c.rng
	// would race it against the other periodic ticks on the wall-clock
	// runtime, where timer callbacks run on separate goroutines under
	// different locks.
	shuffleRng *sim.Rand

	// fetcher/provider form the statesync engine the core delegates the
	// recovery plane to: the fetcher owns the advertised-heights view,
	// request targeting and anchor probing; the provider serves requests
	// from cached block batches. Both are called only with mu released
	// (they lock internally and call back into the core's accessors).
	fetcher  *statesync.Fetcher
	provider *statesync.Provider

	// cfg.Peers is a contiguous ascending id range [rangeLo, rangeHi] (the
	// contract New enforces). The member check is then a pair of comparisons
	// and peer sampling draws against a virtual candidate list, so the core
	// holds no O(org-size) state at all — the term that dominated the heap
	// at 10k-peer organizations. The member check matters because
	// membership digests ride exclusively on intra-org traffic: cross-org
	// sends exist (anchor-recovery statesync probes and their replies), and
	// a digest attached to one would plant this organization's members in
	// the remote organization's view — corrupting its leader election with
	// foreign lower ids.
	rangeLo     wire.NodeID
	rangeHi     wire.NodeID
	selfInRange bool
	nOthers     int
	// ovIdx/ovVal are the sampling overlay: the ≤k positions of the virtual
	// candidate list displaced mid-draw by the partial Fisher-Yates walk
	// (see RandomPeersInto). Cleared after every draw; capacity is retained
	// so steady-state draws allocate nothing. Guarded by mu.
	ovIdx []int
	ovVal []wire.NodeID

	// stateInfoPeers/alivePeers are the periodic ticks' reusable sampling
	// buffers: each is owned exclusively by its tick (periodic timers never
	// overlap themselves on either runtime), so the steady-state tick path
	// allocates nothing for peer sampling.
	stateInfoPeers []wire.NodeID
	alivePeers     []wire.NodeID

	onFirstReception func(b *ledger.Block, at time.Duration)
	onCommit         []func(b *ledger.Block)
	onPeerState      func(peer wire.NodeID, alive bool, at time.Duration)
}

// New creates a gossip core. The protocol is attached but not started;
// call Start.
func New(cfg Config, ep transport.Endpoint, sched sim.Scheduler, rng *sim.Rand, proto Protocol) *Core {
	expiration := cfg.AliveExpiration
	if expiration == 0 {
		expiration = 3 * cfg.AliveInterval
	}
	c := &Core{
		cfg:   cfg,
		ep:    ep,
		sched: sched,
		rng:   rng,
		proto: proto,
		// Seed the heartbeat sequence from boot time so a restarted
		// peer's fresh core emits sequences above anything its previous
		// incarnation sent — otherwise other peers' anti-replay check
		// would discard the rejoined peer's heartbeats as stale until it
		// out-counted its pre-crash uptime (Fabric ships a boot timestamp
		// in AliveMessage for the same reason).
		aliveSeq: uint64(sched.Now() / time.Millisecond),
	}
	if cfg.ShuffleInterval > 0 {
		c.shuffleRng = sim.NewRand(rng.Int63())
	}
	c.view = membership.New(membership.Config{
		Self:            cfg.Self,
		Expiration:      expiration,
		SuspectTimeout:  cfg.SuspectTimeout,
		PiggybackMax:    cfg.PiggybackMax,
		PiggybackBudget: cfg.PiggybackBudget,
		ShuffleInterval: cfg.ShuffleInterval,
		ShuffleSample:   cfg.ShuffleSample,
	}, (*memberHost)(c))
	c.view.NoteSelfSeq(c.aliveSeq)
	// Transitions caused by piggybacked or shuffled events feed the same
	// paths as direct heartbeat transitions: deaths drop the peer's
	// advertised height from the recovery plane, and both directions reach
	// the measurement hook.
	c.view.OnTransition(func(p wire.NodeID, alive bool) {
		if !alive {
			c.fetcher.Forget(p)
		}
		if fn := c.onPeerState; fn != nil {
			fn(p, alive, c.sched.Now())
		}
	})
	contiguous := len(cfg.Peers) > 0
	for i, p := range cfg.Peers {
		contiguous = contiguous && p == cfg.Peers[0]+wire.NodeID(i)
	}
	if !contiguous {
		panic("gossip.New: Config.Peers must be a non-empty contiguous ascending id range (the harness's dense-id contract)")
	}
	c.rangeLo = cfg.Peers[0]
	c.rangeHi = cfg.Peers[len(cfg.Peers)-1]
	// An orderer or observer core lists only remote peers, so self may be
	// absent from cfg.Peers; the candidate count then equals the whole range.
	c.selfInRange = cfg.Self >= c.rangeLo && cfg.Self <= c.rangeHi
	c.nOthers = len(cfg.Peers)
	if c.selfInRange {
		c.nOthers--
	}
	ssCfg := statesync.Config{Batch: cfg.RecoveryBatch, Anchors: cfg.AnchorPeers}
	c.fetcher = statesync.NewFetcher(c, ssCfg)
	c.provider = statesync.NewProvider(c, ssCfg)
	ep.SetHandler(c.handleMessage)
	return c
}

// OnFirstReception installs the hook invoked the first time any block body
// is stored (used by the harness to measure dissemination latency). Must be
// set before Start.
func (c *Core) OnFirstReception(fn func(b *ledger.Block, at time.Duration)) {
	c.onFirstReception = fn
}

// OnCommit appends an in-order delivery hook: blocks are handed to each
// registered hook in strictly increasing order with no gaps (the peer
// package validates and commits from here). Hooks run in registration
// order. Must be set before Start.
func (c *Core) OnCommit(fn func(b *ledger.Block)) { c.onCommit = append(c.onCommit, fn) }

// OnPeerStateChange installs the membership transition hook: it fires when
// a peer's heartbeat makes it newly live and when the periodic sweep
// (piggybacked on the alive ticker) expires it. Scenario runners use it to
// observe failure-detection and rejoin latency. Must be set before Start.
func (c *Core) OnPeerStateChange(fn func(peer wire.NodeID, alive bool, at time.Duration)) {
	c.onPeerState = fn
}

// ID returns this peer's node id.
func (c *Core) ID() wire.NodeID { return c.cfg.Self }

// Scheduler returns the core's scheduler, for protocols to arm timers.
func (c *Core) Scheduler() sim.Scheduler { return c.sched }

// Rand returns the core's random stream.
func (c *Core) Rand() *sim.Rand { return c.rng }

// Proto returns the dissemination protocol instance the core runs, for
// audits that reach through the core (e.g. the scenario runner's pooled-
// envelope leak check).
func (c *Core) Proto() Protocol { return c.proto }

// Start arms the periodic state-info, alive and recovery timers and starts
// the protocol.
func (c *Core) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	if c.cfg.StateInfoInterval > 0 {
		c.timers = append(c.timers, everyTimer(c.sched, c.cfg.StateInfoInterval, c.stateInfoTick))
	}
	if c.cfg.AliveInterval > 0 {
		c.timers = append(c.timers, everyTimer(c.sched, c.cfg.AliveInterval, c.aliveTick))
	}
	if c.cfg.RecoveryInterval > 0 {
		c.timers = append(c.timers, everyTimer(c.sched, c.cfg.RecoveryInterval, c.fetcher.Tick))
	}
	if len(c.cfg.AnchorPeers) > 0 {
		c.timers = append(c.timers, everyTimer(c.sched, statesync.AnchorInterval, c.fetcher.AnchorTick))
	}
	if c.cfg.ShuffleInterval > 0 {
		c.timers = append(c.timers, everyTimer(c.sched, c.cfg.ShuffleInterval, c.shuffleTick))
	}
	c.mu.Unlock()
	c.proto.Start(c)
}

// Stop cancels all timers (core and protocol).
func (c *Core) Stop() {
	c.mu.Lock()
	c.stopped.Store(true)
	timers := c.timers
	c.timers = nil
	c.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	c.proto.Stop()
}

// everyTimer emulates sim.Engine.Every on any Scheduler so the core works
// on both runtimes.
func everyTimer(sched sim.Scheduler, interval time.Duration, fn func()) sim.Timer {
	if e, ok := sched.(*sim.Engine); ok {
		return e.Every(interval, fn)
	}
	p := &rearming{sched: sched, interval: interval, fn: fn, deadline: sched.Now()}
	p.arm()
	return p
}

// rearming is a fixed-rate periodic timer for schedulers without a native
// Every. Each tick re-arms relative to the previous deadline — not the
// instant the callback returned — matching sim.Engine.Every's contract: on
// RealScheduler the callback's own run time must not accumulate as drift
// across ticks.
type rearming struct {
	sched    sim.Scheduler
	interval time.Duration
	fn       func()

	mu       sync.Mutex
	cur      sim.Timer
	deadline time.Duration
	stopped  bool
}

func (p *rearming) arm() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.deadline += p.interval
	// A callback that overran part of the interval yields a shortened
	// delay, keeping ticks on the original grid. But if the schedule fell
	// more than one whole interval behind (process stall, suspend), snap
	// to now instead of firing a catch-up burst of every missed tick.
	now := p.sched.Now()
	if p.deadline+p.interval < now {
		p.deadline = now
	}
	p.cur = p.sched.After(p.deadline-now, func() {
		p.fn()
		p.arm()
	})
}

func (p *rearming) Stop() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return false
	}
	p.stopped = true
	if p.cur != nil {
		p.cur.Stop()
	}
	return true
}

// Send transmits a message to another peer. Errors are dropped: gossip is
// loss-tolerant by design and a failed send is equivalent to a lost packet.
// With piggybacked membership dissemination enabled, every ordinary send
// to a member of this organization also carries a bounded digest of queued
// membership rumors to the same destination (a separate MemberEvents
// message on the same link, so the frozen encodings of existing message
// types never change). Cross-org destinations — anchor-recovery statesync
// traffic — never carry digests: membership is per-organization.
func (c *Core) Send(to wire.NodeID, msg wire.Message) {
	_ = c.ep.Send(to, msg)
	if c.cfg.PiggybackMax <= 0 {
		return // piggybacking disabled
	}
	if membership.IsPayload(msg.Type()) {
		return // membership payloads must not piggyback onto themselves
	}
	if c.isMember(to) {
		c.view.PiggybackOnto(to)
	}
}

// isMember reports whether p belongs to this organization's peer range.
func (c *Core) isMember(p wire.NodeID) bool {
	return p >= c.rangeLo && p <= c.rangeHi
}

// aliveMeta pads every heartbeat to a realistic encoded size. It is shared
// across every core: heartbeat padding is read-only on both runtimes (the
// sim path shares the message value, the TCP path marshals it), so there
// is no reason for each of 100k cores to hold its own copy.
var aliveMeta = make([]byte, 256)

// memberHost adapts Core to membership.Host: membership payloads go
// straight to the endpoint (bypassing the piggybacking Send) and share the
// core's deterministic random stream.
type memberHost Core

func (h *memberHost) Send(to wire.NodeID, msg wire.Message) { _ = h.ep.Send(to, msg) }

func (h *memberHost) Rand() *sim.Rand { return h.shuffleRng }

// RandomPeers samples k distinct peers uniformly, never including self.
// If fewer than k eligible peers exist, all of them are returned. The
// result is freshly allocated; hot paths use RandomPeersInto with a
// per-call-site buffer instead.
func (c *Core) RandomPeers(k int) []wire.NodeID { return c.RandomPeersInto(k, nil) }

// SingleThreaded reports whether the core runs on the discrete-event
// engine, whose callbacks are serialized by construction. Protocols use it
// to decide whether per-instance scratch buffers are safe to reuse across
// message handlers (on the TCP runtime handlers can run concurrently, so
// they must allocate instead).
func (c *Core) SingleThreaded() bool {
	_, ok := c.sched.(*sim.Engine)
	return ok
}

// RandomPeersInto is RandomPeers sampling into buf's backing array (grown
// if needed), so a periodic tick can reuse one buffer across rounds and
// keep the per-tick path allocation-free. The random draws are identical to
// RandomPeers — buffer reuse never shifts the stream. The caller owns buf
// exclusively: the returned slice aliases it and is valid until the owner's
// next call.
//
// This sits on the push hot path. A draw is a k-step partial Fisher-Yates
// walk over the canonical candidate list (the peer range minus self), which
// is never materialized: position pos maps to id rangeLo+pos (skipping
// self), and the ≤k positions a draw displaces live in a small overlay that
// is cleared afterwards, so every call — and therefore the whole run —
// consumes random values exactly as a per-call rebuild of the list would.
func (c *Core) RandomPeersInto(k int, buf []wire.NodeID) []wire.NodeID {
	n := c.nOthers
	if k > n {
		k = n
	}
	if k <= 0 {
		return buf[:0] // nil buf stays nil: RandomPeers(0) == nil
	}
	out := buf
	if cap(out) < k {
		out = make([]wire.NodeID, k)
	} else {
		out = out[:k]
	}
	c.mu.Lock()
	for i := 0; i < k; i++ {
		j := i + c.rng.Intn(n-i)
		out[i] = c.overlayGet(j)
		if j != i {
			// The swap's only observable half: position j now holds what
			// position i held (position i itself is never read again this
			// draw, and the undo is the overlay reset).
			c.overlaySet(j, c.overlayGet(i))
		}
	}
	c.ovIdx = c.ovIdx[:0]
	c.ovVal = c.ovVal[:0]
	c.mu.Unlock()
	return out
}

// overlayGet reads position pos of the virtual candidate list: a displaced
// value from the overlay if the current draw moved one there, else the
// canonical id at that position. The overlay holds at most fanout-many
// entries, so the linear probe beats any map. Caller holds mu.
func (c *Core) overlayGet(pos int) wire.NodeID {
	for i, idx := range c.ovIdx {
		if idx == pos {
			return c.ovVal[i]
		}
	}
	p := c.rangeLo + wire.NodeID(pos)
	if c.selfInRange && p >= c.cfg.Self {
		p++
	}
	return p
}

// overlaySet records that position pos of the virtual candidate list holds
// val for the remainder of the current draw. Caller holds mu.
func (c *Core) overlaySet(pos int, val wire.NodeID) {
	for i, idx := range c.ovIdx {
		if idx == pos {
			c.ovVal[i] = val
			return
		}
	}
	c.ovIdx = append(c.ovIdx, pos)
	c.ovVal = append(c.ovVal, val)
}

// blockLocked returns the stored body of block num, or nil. Caller holds
// mu.
func (c *Core) blockLocked(num uint64) *ledger.Block {
	if num < uint64(len(c.blocks)) {
		return c.blocks[num]
	}
	return nil
}

// HasBlock reports whether the body of block num is stored.
func (c *Core) HasBlock(num uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blockLocked(num) != nil
}

// HeldRun answers a pull hello in one critical section. The stored block
// numbers it names are the run [lo, gap) — from window below the in-order
// height (from 0 when window is 0 or the ledger is shorter) up to the first
// gap, which is the height — and strays, the stored numbers among the
// probe-1 above that gap (blocks received out of order), ascending. The run
// is stored by the in-order-prefix invariant, so only the strays are
// probed: counted first, then written into one exactly-sized slice, nil
// when there are none. Being one read of the store, the answer is a
// consistent snapshot even while AddBlock runs on other goroutines. The
// caller owns strays.
func (c *Core) HeldRun(window, probe uint64) (lo, gap uint64, strays []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gap = c.height
	if window > 0 && gap > window {
		lo = gap - window
	}
	end := min(gap+probe, uint64(len(c.blocks)))
	n := 0
	for num := gap + 1; num < end; num++ {
		if c.blocks[num] != nil {
			n++
		}
	}
	if n == 0 {
		return lo, gap, nil
	}
	strays = make([]uint64, 0, n)
	for num := gap + 1; num < end; num++ {
		if c.blocks[num] != nil {
			strays = append(strays, num)
		}
	}
	return lo, gap, strays
}

// MissingIn returns the numbers a pull digest names — the run [lo, hi),
// then strays — whose body is not stored, in that order, read in one
// critical section. Of the run only [max(lo, height), hi) is probed:
// [0, height) is stored by the in-order-prefix invariant. The result — nil
// when nothing is missing, the usual answer — is the caller's to modify.
func (c *Core) MissingIn(lo, hi uint64, strays []uint64) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var missing []uint64
	for num := max(lo, c.height); num < hi; num++ {
		if c.blockLocked(num) == nil {
			missing = append(missing, num)
		}
	}
	for _, num := range strays {
		if c.blockLocked(num) == nil {
			missing = append(missing, num)
		}
	}
	return missing
}

// Block returns the stored body of block num, or nil.
func (c *Core) Block(num uint64) *ledger.Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blockLocked(num)
}

// Height returns the in-order ledger height (next needed block number).
func (c *Core) Height() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.height
}

// MaxAhead is how far above the in-order height a block number may lie
// and still be tracked. Per-block state is dense up to the highest number
// held, so a frame from outside naming block 2^40 would otherwise make the
// peer allocate terabytes; no run is ever this far behind.
const MaxAhead = 1 << 16

// AddBlock stores a block body. It returns true if the body is new. First
// receptions fire the OnFirstReception hook; completed prefixes are handed
// to OnCommit in order. The protocol's OnBlockStored runs for new bodies.
// A body more than MaxAhead above the in-order height is ignored.
func (c *Core) AddBlock(b *ledger.Block) bool {
	c.mu.Lock()
	if c.stopped.Load() || b.Num > c.height+MaxAhead || c.blockLocked(b.Num) != nil {
		c.mu.Unlock()
		return false
	}
	for uint64(len(c.blocks)) <= b.Num {
		c.blocks = append(c.blocks, nil)
	}
	c.blocks[b.Num] = b
	if !c.hasAny || b.Num > c.highest {
		c.highest = b.Num
		c.hasAny = true
	}
	var commits []*ledger.Block
	for {
		nb := c.blockLocked(c.height)
		if nb == nil {
			break
		}
		commits = append(commits, nb)
		c.height++
	}
	first := c.onFirstReception
	commitFns := c.onCommit
	now := c.sched.Now()
	c.mu.Unlock()

	if first != nil {
		first(b, now)
	}
	for _, cb := range commits {
		for _, fn := range commitFns {
			fn(cb)
		}
	}
	c.proto.OnBlockStored(b)
	return true
}

// handleMessage dispatches inbound messages: shared types here, everything
// else to the protocol.
func (c *Core) handleMessage(from wire.NodeID, msg wire.Message) {
	if c.stopped.Load() {
		return
	}
	switch m := msg.(type) {
	case *wire.StateInfo:
		c.fetcher.Observe(from, m.Height)
	case *wire.StateRequest:
		c.provider.Serve(from, m)
	case *wire.StateResponse:
		c.fetcher.HandleResponse(m)
	case *wire.Alive:
		now := c.sched.Now()
		becameLive := c.view.Observe(from, m.Seq, now)
		if becameLive {
			if fn := c.onPeerState; fn != nil {
				fn(from, true, now)
			}
		}
	case *wire.DeliverBlock:
		// Ordering service -> leader peer. The fetcher notes the delivery
		// so anchor probing stands down while the orderer is healthy.
		c.fetcher.NoteDeliver()
		c.proto.OnOrdererBlock(m.Block)
	default:
		// The membership plane claims its payload types itself, so the
		// type list lives in exactly one place (View.Handle).
		if c.view.Handle(from, msg, c.sched.Now()) {
			c.refuteIfAccused()
			return
		}
		c.proto.Handle(from, msg)
	}
}

// --- periodic components ---

func (c *Core) stateInfoTick() {
	c.mu.Lock()
	h := c.height
	c.mu.Unlock()
	msg := &wire.StateInfo{Height: h}
	c.stateInfoPeers = c.RandomPeersInto(c.cfg.StateInfoFanout, c.stateInfoPeers)
	for _, p := range c.stateInfoPeers {
		c.Send(p, msg)
	}
}

func (c *Core) aliveTick() {
	now := c.sched.Now()
	c.mu.Lock()
	c.aliveSeq++
	seq := c.aliveSeq
	fn := c.onPeerState
	c.mu.Unlock()
	c.view.NoteSelfSeq(seq)
	dead := c.view.Sweep(now)
	// Drop dead peers' advertised heights: recovery must not keep targeting
	// a crashed peer (its requests would vanish and catch-up would stall a
	// full RecoveryInterval per round), and a stale maximum would also pin
	// the view if the peer later rejoins with an empty ledger.
	for _, p := range dead {
		c.fetcher.Forget(p)
	}
	if fn != nil {
		for _, p := range dead {
			fn(p, false, now)
		}
	}
	// The heartbeat padding is the shared zero buffer: Alive messages are
	// read-only on every delivery path, so no tick needs a fresh allocation.
	msg := &wire.Alive{Seq: seq, Meta: aliveMeta}
	c.alivePeers = c.RandomPeersInto(c.cfg.AliveFanout, c.alivePeers)
	for _, p := range c.alivePeers {
		c.Send(p, msg)
	}
}

// shuffleTick runs one membership view-shuffle round (SWIM extensions
// only; the timer is armed only when ShuffleInterval is set).
func (c *Core) shuffleTick() {
	c.view.ShuffleTick(c.sched.Now())
}

// refuteIfAccused answers a suspect/dead claim about this peer: SWIM's
// refutation bumps the heartbeat sequence (the incarnation number), queues
// an alive rumor at the new sequence, and heartbeats immediately so direct
// observers refresh too — without waiting for the next alive tick, which
// could lose the race against everyone's suspicion timeout.
func (c *Core) refuteIfAccused() {
	if !c.view.TakeAccusation() {
		return
	}
	c.mu.Lock()
	c.aliveSeq++
	seq := c.aliveSeq
	c.mu.Unlock()
	c.view.QueueSelfAlive(seq)
	msg := &wire.Alive{Seq: seq, Meta: aliveMeta}
	for _, p := range c.RandomPeers(c.cfg.AliveFanout) {
		c.Send(p, msg)
	}
}

// LivePeers returns the ids of peers currently believed alive (including
// self), from the membership view.
func (c *Core) LivePeers() []wire.NodeID {
	return c.view.Live(c.sched.Now())
}

// LiveCount is len(LivePeers()) without building the list, for callers
// sampling every view periodically.
func (c *Core) LiveCount() int { return c.view.LiveCount(c.sched.Now()) }

// PeerAlive reports whether the membership view believes the peer alive
// (self always is): the exact complement of PeerDead over observed peers.
func (c *Core) PeerAlive(p wire.NodeID) bool {
	return c.view.Alive(p, c.sched.Now())
}

// LeaderPeer returns the organization's dynamic-election leader: the
// lowest-id peer currently believed alive.
func (c *Core) LeaderPeer() wire.NodeID {
	return c.view.Leader(c.sched.Now())
}

// IsLeader reports whether this peer currently believes it leads the
// organization. It is part of the statesync.Host interface: anchor probing
// is a leader duty.
func (c *Core) IsLeader() bool { return c.view.IsLeader(c.sched.Now()) }

// PeerDead reports whether the membership view considers the peer dead
// (statesync.Host: the fetcher's candidate filter). It answers from the
// same predicate as LivePeers/LeaderPeer — a peer is dead exactly when it
// was observed once and is no longer alive.
func (c *Core) PeerDead(p wire.NodeID) bool {
	return c.view.Dead(p, c.sched.Now())
}

// MembershipStats snapshots the membership view's counters (tracked peers
// by state, rumor-queue depth, piggyback and refutation counts).
func (c *Core) MembershipStats() membership.Stats { return c.view.Stats() }

// Now returns the scheduler's current time (statesync.Host).
func (c *Core) Now() time.Duration { return c.sched.Now() }

// PeerHeights returns a copy of the advertised heights view, owned by the
// statesync fetcher.
func (c *Core) PeerHeights() map[wire.NodeID]uint64 { return c.fetcher.Heights() }

// StateSyncStats snapshots the statesync engine's counters (bytes and
// blocks fetched, responses served, anchor probes).
func (c *Core) StateSyncStats() statesync.Stats {
	return statesync.CollectStats(c.fetcher, c.provider)
}
