// Package peer assembles a full Fabric peer: gossip delivery feeds a
// sequential validation pipeline that models the measured validation
// latency (≈50 ms per transaction in the paper's deployment, §V-D) and
// commits blocks to the peer's ledger — its height on the network's one
// validated chain, which checks endorsement policies and MVCC read sets.
// Endorsing peers additionally expose the committed state to an Endorser.
package peer

import (
	"sync"
	"time"

	"fabricgossip/internal/crypto"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
)

// Config parameterizes the peer's validation pipeline.
type Config struct {
	// ValidationPerTx is the modelled validation cost per transaction.
	// The paper measured ≈50 ms/tx on its testbed; new blocks are only
	// usable by the peer (including for endorsement) after validation.
	ValidationPerTx time.Duration
	// OrdererKey, when set, verifies every block's ordering-service
	// signature before validation; blocks failing it are dropped.
	OrdererKey crypto.PublicKey
}

// Peer is one validating peer.
type Peer struct {
	cfg   Config
	core  *gossip.Core
	led   *ledger.Ledger
	sched sim.Scheduler

	mu           sync.Mutex
	queue        []*ledger.Block
	busy         bool
	onCommit     func(*ledger.Block, ledger.CommitResult)
	dropped      uint64
	commitErrors uint64
}

// Stats is a snapshot of the peer's validation-pipeline counters.
type Stats struct {
	// Committed is the number of blocks committed to the peer's ledger.
	Committed uint64
	// CommitErrors counts blocks the ledger rejected at commit time (a
	// hash-chain mismatch, an out-of-order block number, or a block that
	// differs from the chain's block at that height). Each one drops the
	// block and all its transactions.
	CommitErrors uint64
	// Dropped counts blocks that failed orderer-signature verification.
	Dropped uint64
}

// New wires a peer on top of a gossip core, with a ledger at height 0 on
// the network's chain. The peer takes over the core's OnCommit hook.
func New(core *gossip.Core, chain *ledger.Chain, sched sim.Scheduler, cfg Config) *Peer {
	p := &Peer{
		cfg:   cfg,
		core:  core,
		led:   chain.NewLedger(),
		sched: sched,
	}
	core.OnCommit(p.enqueue)
	return p
}

// Ledger returns the peer's ledger.
func (p *Peer) Ledger() *ledger.Ledger { return p.led }

// State returns the peer's view of the committed state, at its ledger's
// height (what an endorser simulates against).
func (p *Peer) State() *ledger.StateDB { return p.led.State() }

// Gossip returns the underlying gossip core.
func (p *Peer) Gossip() *gossip.Core { return p.core }

// OnCommitResult installs a hook invoked after every block commit with the
// committed block and its per-transaction validation outcome.
func (p *Peer) OnCommitResult(fn func(*ledger.Block, ledger.CommitResult)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onCommit = fn
}

// Stats returns a snapshot of the pipeline counters.
func (p *Peer) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Committed:    p.led.Height(),
		CommitErrors: p.commitErrors,
		Dropped:      p.dropped,
	}
}

// enqueue receives in-order blocks from gossip and drives the sequential
// validation pipeline: each block occupies the validator for
// ValidationPerTx * NumTxs() before committing, and the next block starts
// only after the previous one committed (validation is single-threaded per
// peer, as in Fabric v1.2). The ledger hears of the block on arrival, so its
// endorsement signatures are checked while it waits.
func (p *Peer) enqueue(b *ledger.Block) {
	if len(p.cfg.OrdererKey) > 0 {
		if crypto.Verify(p.cfg.OrdererKey, b.HeaderBytes(), b.Sig) != nil {
			p.mu.Lock()
			p.dropped++
			p.mu.Unlock()
			return
		}
	}
	p.led.Prepare(b)
	p.mu.Lock()
	p.queue = append(p.queue, b)
	start := !p.busy
	if start {
		p.busy = true
	}
	p.mu.Unlock()
	if start {
		p.validateNext()
	}
}

func (p *Peer) validateNext() {
	p.mu.Lock()
	if len(p.queue) == 0 {
		p.busy = false
		p.mu.Unlock()
		return
	}
	b := p.queue[0]
	p.queue = p.queue[1:]
	p.mu.Unlock()

	delay := time.Duration(b.NumTxs()) * p.cfg.ValidationPerTx
	p.sched.After(delay, func() {
		res, err := p.led.Commit(b)
		if err != nil {
			// The block (and every transaction in it) is lost to this
			// peer; surface it instead of failing silently.
			p.mu.Lock()
			p.commitErrors++
			p.mu.Unlock()
			p.validateNext()
			return
		}
		p.mu.Lock()
		fn := p.onCommit
		p.mu.Unlock()
		if fn != nil {
			fn(b, res)
		}
		p.validateNext()
	})
}
