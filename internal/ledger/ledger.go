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
type Chain struct {
	mu      sync.Mutex
	store   *BlockStore
	state   *StateDB
	results []CommitResult
	policy  PolicyChecker
}

// NewChain returns an empty chain validating endorsements with policy (nil
// policy skips endorsement checks).
func NewChain(policy PolicyChecker) *Chain {
	return &Chain{store: NewBlockStore(), state: NewStateDB(), policy: policy}
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
	codes := ValidateBlock(c.state, b, c.policy)
	if err := c.store.Append(b); err != nil {
		return CommitResult{}, err
	}
	res := CommitResult{BlockNum: b.Num, Codes: codes}
	var txNums []uint32
	var writeSets []RWSet
	for i, code := range codes {
		if code == CodeValid {
			res.Valid++
			txNums = append(txNums, uint32(i))
			writeSets = append(writeSets, b.Txs[i].RWSet)
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
