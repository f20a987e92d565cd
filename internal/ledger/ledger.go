package ledger

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CommitResult reports what happened when a block was committed. The chain
// records one per block and hands the same value to every ledger that
// commits the block, so Codes is shared and must not be written.
type CommitResult struct {
	BlockNum uint64
	Codes    []ValidationCode
	// Valid and Invalid count the transactions by outcome.
	Valid   int
	Invalid int
}

// Chain is one channel's validated chain, as a Fabric channel is one chain
// however many peers hold it: the block store, the state database at its
// head, one recorded result per block and the endorsement policy. Each
// block is validated and its writes applied once, by whichever ledger
// reaches it first; the chain is hash-linked and validation deterministic,
// so every other ledger's commit of that block would compute the same.
// It is safe for concurrent use (organizations on different shards commit
// through one chain).
//
// Validation is split as Fabric's committer splits it. The policy pass
// (endorsement signatures) starts when a ledger is told a block has arrived
// (Prepare) and runs in the background while the block waits its turn; the
// commit then runs only the sequential MVCC pass over those verdicts.
type Chain struct {
	mu      sync.Mutex
	store   *BlockStore
	state   *StateDB
	results []CommitResult
	policy  PolicyChecker
	// ahead holds the policy passes Prepare started, keyed by block
	// identity: a divergent block, or a content-equal copy, at some height
	// never lends its verdicts to the chain's block there. An entry leaves
	// when its block commits at the head or the head passes its number.
	ahead map[*Block]*verdicts
}

// verdicts is one block's policy pass running in the background: codes
// belongs to the pass until done is closed.
type verdicts struct {
	done  chan struct{}
	codes []ValidationCode
}

// NewChain returns an empty chain validating endorsements with policy (nil
// policy skips endorsement checks).
func NewChain(policy PolicyChecker) *Chain {
	return &Chain{store: NewBlockStore(), state: NewStateDB(), policy: policy}
}

// prepare starts b's policy pass in the background, unless there is no
// policy, the chain has already validated block b.Num, or a pass for b is
// under way. The pass's goroutine ends when the pass does; the head commit
// waits for it, and nobody does once its entry is pruned.
func (c *Chain) prepare(b *Block) {
	if c.policy == nil || b.NumTxs() == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b.Num < c.store.Height() || c.ahead[b] != nil {
		return
	}
	if c.ahead == nil {
		c.ahead = make(map[*Block]*verdicts)
	}
	v := &verdicts{done: make(chan struct{}), codes: make([]ValidationCode, b.NumTxs())}
	c.ahead[b] = v
	go func() {
		checkPolicy(v.codes, b.Transactions(), c.policy)
		close(v.done)
	}()
}

// policyPass returns b's policy-pass codes: those of the pass prepare
// started for this very block, waiting for it if need be, else a pass run
// now. Callers hold c.mu, and the wait keeps it, as validating did: the
// head commit stays one step no other ledger can interleave with, and a
// pass takes no lock of the chain's, so it always ends.
func (c *Chain) policyPass(b *Block) []ValidationCode {
	if v := c.ahead[b]; v != nil {
		delete(c.ahead, b)
		<-v.done
		return v.codes
	}
	txs := b.Transactions()
	codes := make([]ValidationCode, len(txs))
	checkPolicy(codes, txs, c.policy)
	return codes
}

// commit validates and applies b at the chain's height, or checks that b is
// the chain's block b.Num and returns the result recorded for it. Callers
// hold c.mu.
func (c *Chain) commit(b *Block) (CommitResult, error) {
	if b.Num < c.store.Height() {
		if err := c.holds(b); err != nil {
			return CommitResult{}, err
		}
		return c.results[b.Num], nil
	}
	codes := c.policyPass(b)
	checkMVCC(codes, c.state, b)
	if err := c.store.Append(b); err != nil {
		return CommitResult{}, err
	}
	for pb := range c.ahead {
		if pb.Num <= b.Num {
			delete(c.ahead, pb) // a block the chain will never take
		}
	}
	res := CommitResult{BlockNum: b.Num, Codes: codes}
	var txNums []uint32
	var writeSets []RWSet
	txs := b.Transactions()
	for i, code := range codes {
		if code == CodeValid {
			res.Valid++
			txNums = append(txNums, uint32(i))
			writeSets = append(writeSets, txs[i].RWSet)
		} else {
			res.Invalid++
		}
	}
	c.state.ApplyBlockWrites(b.Num, txNums, writeSets)
	c.results = append(c.results, res)
	return res, nil
}

// holds reports whether b is the chain's block b.Num: the same block, or
// one that links to the chain's previous block and hashes equal — consenter
// replicas cut equal blocks at different addresses. Anything else would
// fork the chain: no two ledgers commit different blocks at one height.
func (c *Chain) holds(b *Block) error {
	have, _ := c.store.Get(b.Num)
	if b == have {
		return nil
	}
	var prev *Block
	if b.Num > 0 {
		prev, _ = c.store.Get(b.Num - 1)
	}
	if err := b.VerifyLinkage(prev); err != nil {
		return err
	}
	if b.Hash() != have.Hash() {
		return fmt.Errorf("ledger: block %d differs from the chain's block %d", b.Num, b.Num)
	}
	return nil
}

// Ledger is one peer's ledger: a height on a Chain. Blocks below the
// height are committed, and State reads the state as of that height. It is
// safe for concurrent use.
type Ledger struct {
	chain  *Chain
	height atomic.Uint64
	view   StateDB
}

// NewLedger returns a ledger at height 0 on the chain.
func (c *Chain) NewLedger() *Ledger {
	l := &Ledger{chain: c}
	l.view = StateDB{h: c.state.h, below: &l.height}
	return l
}

// NewLedger returns an empty standalone ledger — a new chain with one
// ledger on it — validating endorsements with policy (nil policy skips
// endorsement checks).
func NewLedger(policy PolicyChecker) *Ledger { return NewChain(policy).NewLedger() }

// Height returns the number of committed blocks.
func (l *Ledger) Height() uint64 { return l.height.Load() }

// State returns the ledger's view of the state database: the state after
// its committed blocks. Reads are safe at any time; writes are owned by
// Commit.
func (l *Ledger) State() *StateDB { return &l.view }

// Results returns a copy of the chain's recorded results for the ledger's
// committed blocks, in block order.
func (l *Ledger) Results() []CommitResult {
	l.chain.mu.Lock()
	defer l.chain.mu.Unlock()
	return append([]CommitResult(nil), l.chain.results[:l.height.Load()]...)
}

// Conflicts returns the number of invalidated transactions in the ledger's
// committed blocks.
func (l *Ledger) Conflicts() int {
	n := 0
	for _, r := range l.Results() {
		n += r.Invalid
	}
	return n
}

// Prepare tells the ledger that b has arrived and will be committed. If the
// chain has not yet validated block b.Num, b's policy pass starts in the
// background, so the commit finds its endorsement verdicts ready and runs
// only the MVCC pass. It changes no outcome: a verdict is a pure function of
// the transaction and the chain's policy, and a commit uses only the
// verdicts of the very block it is handed.
func (l *Ledger) Prepare(b *Block) { l.chain.prepare(b) }

// Commit commits b, which must be the ledger's next block; out-of-order
// commits return an error (gossip buffers and reorders ahead of this
// call). The first ledger to reach b validates it, appends it to the chain
// and applies the write sets of its valid transactions; the others get the
// recorded result, provided b is the chain's block at that height.
func (l *Ledger) Commit(b *Block) (CommitResult, error) {
	l.chain.mu.Lock()
	defer l.chain.mu.Unlock()
	if want := l.height.Load(); b.Num != want {
		return CommitResult{}, fmt.Errorf("ledger: commit out of order: got block %d, want %d", b.Num, want)
	}
	res, err := l.chain.commit(b)
	if err == nil {
		l.height.Add(1)
	}
	return res, err
}
