// Package statesync is the recovery (anti-entropy) plane of the gossip
// layer, carved out of the core so both dissemination protocols share one
// engine: a Fetcher that owns request targeting, batch sizing and the
// in-flight/backoff state of catch-up, and a Provider that serves block
// ranges as batches of the encodings cached on the blocks themselves
// (paper §III-A, "recovery").
//
// The pair talks to its peer through the narrow Host interface — ledger
// height and block access, message sending, the membership view's dead
// predicate and the peer's deterministic random stream — so the engine runs
// identically under gossip.Core on the simulated and TCP runtimes, and unit
// tests can drive it with a stub host.
//
// Beyond the intra-organization catch-up the paper describes, the Fetcher
// implements cross-organization state transfer through anchor peers: when
// the ordering service has been silent past a stall threshold, the
// organization's leader probes remote organizations' anchor peers for the
// blocks it is missing — Fabric's deliver-service fallback that lets an
// org-wide outage recover even with the orderer down. Anchor probing is off
// unless anchors are configured, so default deployments behave exactly as
// before.
package statesync

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Host is the narrow view of a peer the state-sync engine needs. gossip.Core
// implements it; all methods must be safe to call without external locking.
type Host interface {
	// Height returns the in-order ledger height (next needed block).
	Height() uint64
	// Block returns the stored body of block num, or nil.
	Block(num uint64) *ledger.Block
	// AddBlock stores a fetched block body, reporting whether it was new.
	AddBlock(b *ledger.Block) bool
	// Send transmits a message to another peer (loss-tolerant).
	Send(to wire.NodeID, msg wire.Message)
	// PeerDead reports whether the membership view has explicitly marked
	// the peer dead (observed live once, heartbeats since lapsed).
	PeerDead(p wire.NodeID) bool
	// IsLeader reports whether this peer currently believes it leads its
	// organization (anchor probing is a leader duty).
	IsLeader() bool
	// Rand returns the peer's deterministic random stream.
	Rand() *sim.Rand
	// Now returns the current virtual (or wall) time.
	Now() time.Duration
}

// Config parameterizes one peer's state-sync engine.
type Config struct {
	// Batch caps how many consecutive blocks one request fetches and one
	// response serves (gossip.Config.RecoveryBatch). An anchor probe asks
	// for exactly one batch, so it must be positive when Anchors are set.
	Batch int

	// Anchors lists remote-organization anchor peers this peer's leader may
	// fetch from when the ordering service goes silent. Empty disables
	// cross-org transfer entirely.
	Anchors []wire.NodeID
}

const (
	// OrdererStall is how long without an ordering-service delivery before
	// the leader considers the orderer unreachable and starts probing
	// anchors.
	OrdererStall = 5 * time.Second
	// AnchorInterval is how often the leader runs an anchor probe round
	// (AnchorTick) while the orderer is silent.
	AnchorInterval = 2 * time.Second
)

// Stats is a point-in-time snapshot of one peer's state-sync counters, for
// metrics attribution and tests.
type Stats struct {
	// ResponsesIn / BlocksIn / BytesIn count StateResponse messages, the
	// blocks they carried and their encoded bytes, as received.
	ResponsesIn uint64
	BlocksIn    uint64
	BytesIn     uint64
	// AnchorProbes counts cross-org StateRequests sent to anchor peers.
	AnchorProbes uint64
	// Served counts responses sent by the Provider.
	Served uint64
}

// --- Fetcher ---

// Fetcher drives catch-up: it tracks every peer's advertised ledger height,
// detects when this peer is behind, targets the request (the most advanced
// live peer, ties broken by the deterministic random stream) and sizes the
// batch. When anchors are configured it also runs the cross-org fallback.
type Fetcher struct {
	host Host
	cfg  Config

	mu sync.Mutex
	// peers/heights are the advertised-heights view, stored densely:
	// peers is sorted ascending and heights is parallel to it — two words
	// per advertising peer instead of a map entry, and the candidate scan
	// walks ascending ids natively (no sort before the deterministic
	// random pick). Heights are only ever positive: Observe stores a
	// height strictly above the previous one, and the zero default never
	// inserts.
	peers   []wire.NodeID
	heights []uint64
	// maxAdvertised is an upper bound on every tracked height, raised on
	// Observe and tightened during scans: the caught-up steady state —
	// the overwhelming majority of ticks — exits on it without scanning.
	maxAdvertised uint64

	// Anchor in-flight/backoff state: lastDeliver is the most recent
	// ordering-service delivery (seeded with the construction time so a
	// fresh peer waits a full stall window before probing); cursor is the
	// round-robin anchor position, advanced whenever a probe yielded no
	// progress by the next tick (the backoff: an unresponsive or equally
	// stale anchor is rotated away from); probeHeight is the ledger height
	// when the previous probe went out.
	lastDeliver time.Duration
	cursor      int
	probeHeight uint64
	probed      bool

	responsesIn  uint64
	blocksIn     uint64
	bytesIn      uint64
	anchorProbes uint64
}

// NewFetcher builds a fetcher for the host. The orderer is considered
// healthy as of construction time.
func NewFetcher(host Host, cfg Config) *Fetcher {
	return &Fetcher{
		host:        host,
		cfg:         cfg,
		lastDeliver: host.Now(),
	}
}

// Observe records a peer's advertised ledger height (from StateInfo).
// Heights only ever rise; stale advertisements are ignored.
func (f *Fetcher) Observe(from wire.NodeID, height uint64) {
	f.mu.Lock()
	i, found := slices.BinarySearch(f.peers, from)
	switch {
	case found && height > f.heights[i]:
		f.heights[i] = height
	case !found && height > 0:
		f.peers = slices.Insert(f.peers, i, from)
		f.heights = slices.Insert(f.heights, i, height)
	default:
		f.mu.Unlock()
		return
	}
	if height > f.maxAdvertised {
		f.maxAdvertised = height
	}
	f.mu.Unlock()
}

// Forget drops a peer's advertised height: recovery must not keep targeting
// a peer the membership view expired (its requests would vanish and
// catch-up would stall a full tick per round), and a stale maximum would
// also pin the view if the peer later rejoins with an empty ledger. The
// upper bound is not lowered here; the next scan tightens it.
func (f *Fetcher) Forget(p wire.NodeID) {
	f.mu.Lock()
	if i, found := slices.BinarySearch(f.peers, p); found {
		f.peers = slices.Delete(f.peers, i, i+1)
		f.heights = slices.Delete(f.heights, i, i+1)
	}
	f.mu.Unlock()
}

// Heights returns a copy of the advertised-heights view.
func (f *Fetcher) Heights() map[wire.NodeID]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[wire.NodeID]uint64, len(f.peers))
	for i, p := range f.peers {
		out[p] = f.heights[i]
	}
	return out
}

// NoteDeliver records an ordering-service delivery: the orderer is alive,
// so anchor probing stands down.
func (f *Fetcher) NoteDeliver() {
	now := f.host.Now()
	f.mu.Lock()
	f.lastDeliver = now
	f.mu.Unlock()
}

// Tick runs one intra-organization recovery round: if this peer's ledger is
// behind the highest advertised height, it requests the consecutive missing
// blocks from one of the most advanced live peers.
//
// The caught-up steady state exits on the incrementally tracked
// maxAdvertised bound without scanning the heights map at all; the O(n)
// candidate scan runs only while actually behind. maxAdvertised is an
// over-approximation (Forget does not lower it until the next scan tightens
// it), which can cost a redundant scan but never changes which request is
// sent: the scan recomputes the true maximum and candidate set exactly.
func (f *Fetcher) Tick() {
	myH := f.host.Height()
	f.mu.Lock()
	if f.maxAdvertised <= myH {
		f.mu.Unlock()
		return
	}
	var bestH uint64
	var maxSeen uint64
	candidates := make([]wire.NodeID, 0, 4)
	for i, p := range f.peers {
		h := f.heights[i]
		if h > maxSeen {
			maxSeen = h
		}
		// Skip peers the membership view has marked dead: their heights may
		// linger (a StateInfo can arrive after the expiration sweep pruned
		// the entry) but a request to them can never be answered. Peers the
		// sparse heartbeat sample never observed stay eligible — at large n
		// most of the organization is in that state.
		if f.host.PeerDead(p) {
			continue
		}
		if h > bestH {
			bestH = h
			candidates = candidates[:0]
		}
		if h == bestH && h > 0 {
			candidates = append(candidates, p)
		}
	}
	f.maxAdvertised = maxSeen
	batch := uint64(f.cfg.Batch)
	if bestH <= myH || len(candidates) == 0 {
		f.mu.Unlock()
		return
	}
	// The scan walks peers in ascending id order, so candidates are already
	// in the canonical order the deterministic random pick requires. The
	// draw stays under mu: the host's rng is not thread-safe and on the TCP
	// runtime the periodic ticks fire on separate goroutines.
	best := candidates[f.host.Rand().Intn(len(candidates))]
	f.mu.Unlock()

	to := bestH
	if batch > 0 && to > myH+batch {
		to = myH + batch
	}
	f.host.Send(best, &wire.StateRequest{From: myH, To: to})
}

// AnchorTick runs one cross-organization probe round. Only the
// organization's current leader probes, and only once the ordering service
// has been silent past the stall threshold; a probe asks the current anchor
// for the next batch above this peer's own height (the anchor serves
// whatever consecutive run it holds). If the previous probe produced no
// ledger progress by this tick, the cursor rotates to the next anchor —
// the backoff that walks away from crashed or equally stale anchors.
func (f *Fetcher) AnchorTick() {
	if len(f.cfg.Anchors) == 0 || !f.host.IsLeader() {
		return
	}
	now := f.host.Now()
	myH := f.host.Height()
	f.mu.Lock()
	if now-f.lastDeliver < OrdererStall {
		f.mu.Unlock()
		return
	}
	if f.probed && myH <= f.probeHeight {
		f.cursor = (f.cursor + 1) % len(f.cfg.Anchors)
	}
	f.probed = true
	f.probeHeight = myH
	target := f.cfg.Anchors[f.cursor]
	f.anchorProbes++
	f.mu.Unlock()

	f.host.Send(target, &wire.StateRequest{From: myH, To: myH + uint64(f.cfg.Batch)})
}

// HandleResponse stores a response's blocks and accounts the transfer.
func (f *Fetcher) HandleResponse(m *wire.StateResponse) {
	blocks := m.Blocks()
	f.mu.Lock()
	f.responsesIn++
	f.blocksIn += uint64(len(blocks))
	f.bytesIn += uint64(m.EncodedSize())
	f.mu.Unlock()
	for _, b := range blocks {
		f.host.AddBlock(b)
	}
}

// --- Provider ---

// Provider serves StateRequests from the host's block store. A response
// owns no bytes: its batch references the encoding cached on each block, so
// building one per request costs a slice of block pointers.
type Provider struct {
	host   Host
	cfg    Config
	served atomic.Uint64
}

// NewProvider builds a provider over the host's block store.
func NewProvider(host Host, cfg Config) *Provider {
	return &Provider{host: host, cfg: cfg}
}

// Serve answers one StateRequest: the consecutive run of stored blocks in
// [req.From, req.To), capped at the configured batch, or nothing if the
// first block is missing (only consecutive runs are useful to the
// requester).
func (p *Provider) Serve(from wire.NodeID, req *wire.StateRequest) {
	limit := req.To
	if max := req.From + uint64(p.cfg.Batch); p.cfg.Batch > 0 && limit > max {
		limit = max
	}
	var blocks []*ledger.Block
	for num := req.From; num < limit; num++ {
		b := p.host.Block(num)
		if b == nil {
			break
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		return
	}
	p.served.Add(1)
	p.host.Send(from, &wire.StateResponse{Batch: wire.NewBlockBatch(blocks)})
}

// --- stats ---

// CollectStats merges both halves' counters into one snapshot.
func CollectStats(f *Fetcher, p *Provider) Stats {
	var s Stats
	if f != nil {
		f.mu.Lock()
		s.ResponsesIn = f.responsesIn
		s.BlocksIn = f.blocksIn
		s.BytesIn = f.bytesIn
		s.AnchorProbes = f.anchorProbes
		f.mu.Unlock()
	}
	if p != nil {
		s.Served = p.served.Load()
	}
	return s
}
