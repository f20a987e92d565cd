package raft

import (
	"crypto/sha256"
	"sync"
	"time"

	"fabricgossip/internal/crypto"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Consenter adapts a Raft node to the ordering service's Consenter
// interface with reliable submission and exactly-once delivery:
//
//   - Every submitted payload is buffered until it is observed in the
//     committed stream. Node.Propose on a non-leader forwards to the known
//     leader, but during an election there is no leader to forward to
//     (ErrNotLeader) and a forward racing a leadership change can land on a
//     node that must drop it — so the buffer, not the caller, owns
//     redelivery: pending payloads are re-proposed the moment a leader
//     becomes known (Node.OnLeaderChange) and again on a periodic sweep
//     (covering a leader that crashed after accepting but before
//     committing), until they commit — a dropped harness block would wedge
//     the chain, and workload accounting requires every accepted envelope
//     to resolve.
//   - Re-proposal can place a payload in the log twice, so delivery runs
//     through a window of the last dedupWindow applied payloads and a copy
//     seen there is suppressed. Distinct submissions must therefore differ
//     in bytes (a client nonce, a block number): an identical
//     re-submission inside the window is delivered once. The window is
//     driven purely by the (identical) apply stream, so every consenter in
//     the cluster suppresses the same duplicates and cuts the same blocks.
//
// Retry scanning and re-proposal follow submission order, keeping the
// shim's behavior a pure function of the schedule — a requirement on the
// deterministic sim engine.
type Consenter struct {
	node  *Node
	sched sim.Scheduler

	mu       sync.Mutex
	commitFn func(data []byte)
	// pending maps payload -> last proposal time; order keeps the pending
	// keys in submission order (entries whose key has left the map are
	// skipped and compacted on sweep).
	pending  map[string]time.Duration
	order    []string
	sweeping bool
	stopped  bool

	// seen is the exactly-once window over applied payloads: a FIFO set of
	// the last window payloads, keyed by SHA-256 digest so the window
	// holds 32 bytes per payload rather than a copy of it. seenQ is the
	// insertion ring (evicted oldest-first at seenNext once full). window
	// is dedupWindow; only the package's tests shrink it.
	seen     map[crypto.Digest]struct{}
	seenQ    []crypto.Digest
	seenNext int
	window   int
}

const (
	// sweepInterval is how often unacknowledged payloads are re-proposed.
	sweepInterval = 250 * time.Millisecond
	// dedupWindow is how many applied payloads the exactly-once window
	// remembers: far more than a shim re-proposes across an election.
	dedupWindow = 4096
)

// NewConsenter wraps a node. OnCommit must be called (by the ordering
// service) before Submit.
func NewConsenter(node *Node, sched sim.Scheduler) *Consenter {
	c := &Consenter{
		node:    node,
		sched:   sched,
		pending: make(map[string]time.Duration),
		seen:    make(map[crypto.Digest]struct{}),
		window:  dedupWindow,
	}
	node.OnLeaderChange(func(_ wire.NodeID, known bool) {
		if known {
			c.flush()
		}
	})
	return c
}

// Node returns the wrapped Raft node.
func (c *Consenter) Node() *Node { return c.node }

// Stop halts the retry sweep.
func (c *Consenter) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
}

// OnCommit implements order.Consenter. Committed entries are delivered in
// log order, exactly once across the window.
func (c *Consenter) OnCommit(fn func(data []byte)) {
	c.mu.Lock()
	c.commitFn = fn
	c.mu.Unlock()
	c.node.OnApply(func(data []byte) {
		c.mu.Lock()
		delete(c.pending, string(data))
		if !c.firstSightLocked(sha256.Sum256(data)) {
			c.mu.Unlock()
			return // a re-proposed copy: already delivered downstream
		}
		cb := c.commitFn
		c.mu.Unlock()
		if cb != nil {
			cb(data)
		}
	})
}

// firstSightLocked enters d into the exactly-once window and reports
// whether it was new there, evicting the oldest digest once the window
// is full.
func (c *Consenter) firstSightLocked(d crypto.Digest) bool {
	if _, dup := c.seen[d]; dup {
		return false
	}
	if len(c.seenQ) < c.window {
		c.seenQ = append(c.seenQ, d)
	} else {
		delete(c.seen, c.seenQ[c.seenNext])
		c.seenQ[c.seenNext] = d
		c.seenNext = (c.seenNext + 1) % len(c.seenQ)
	}
	c.seen[d] = struct{}{}
	return true
}

// Submit implements order.Consenter.
func (c *Consenter) Submit(data []byte) error {
	key := string(data)
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil
	}
	if _, exists := c.pending[key]; !exists {
		c.order = append(c.order, key)
	}
	c.pending[key] = c.sched.Now()
	if !c.sweeping {
		c.sweeping = true
		c.armSweepLocked()
	}
	c.mu.Unlock()
	// Best-effort immediate proposal; flush-on-leader and the sweep cover
	// elections and crashed leaders.
	_ = c.node.Propose(data)
	return nil
}

// flush re-proposes every pending payload in submission order — called the
// moment a leader becomes known, so envelopes buffered through an election
// reach the new leader without waiting out a sweep interval.
func (c *Consenter) flush() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	now := c.sched.Now()
	retry := c.collectPendingLocked(now, false)
	c.mu.Unlock()
	for _, data := range retry {
		_ = c.node.Propose(data)
	}
}

func (c *Consenter) armSweepLocked() {
	c.sched.After(sweepInterval, c.sweep)
}

func (c *Consenter) sweep() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	now := c.sched.Now()
	retry := c.collectPendingLocked(now, true)
	if len(c.pending) > 0 {
		c.armSweepLocked()
	} else {
		c.sweeping = false
	}
	c.mu.Unlock()
	for _, data := range retry {
		_ = c.node.Propose(data)
	}
}

// collectPendingLocked walks the submission-ordered pending queue,
// compacting entries that have committed and returning the payloads due
// for re-proposal. Age gating applies on sweeps only: a flush re-proposes
// everything — its trigger (a new leader) is exactly the moment in-flight
// proposals may have died.
func (c *Consenter) collectPendingLocked(now time.Duration, ageGate bool) [][]byte {
	var retry [][]byte
	kept := c.order[:0]
	for _, key := range c.order {
		at, ok := c.pending[key]
		if !ok {
			continue // committed since: compact
		}
		if ageGate && now-at < sweepInterval {
			kept = append(kept, key)
			continue // freshly proposed: give the in-flight copy time
		}
		// Re-proposing resets the age so a slow-but-successful commit is
		// not re-proposed again on the very next sweep.
		c.pending[key] = now
		retry = append(retry, []byte(key))
		kept = append(kept, key)
	}
	c.order = kept
	return retry
}
