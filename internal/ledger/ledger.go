package ledger

import (
	"fmt"
	"sync"
)

// CommitResult reports what happened when a block was committed.
type CommitResult struct {
	BlockNum uint64
	Codes    []ValidationCode
	// Valid and Invalid count the transactions by outcome.
	Valid   int
	Invalid int
}

// Ledger combines the block store and the state database into the peer's
// local copy of the chain: blocks are validated, appended, and the write
// sets of valid transactions applied atomically. It is safe for concurrent
// use.
type Ledger struct {
	mu     sync.Mutex
	store  *BlockStore
	state  *StateDB
	policy PolicyChecker
}

// NewLedger returns an empty ledger validating endorsements with policy
// (nil policy skips endorsement checks).
func NewLedger(policy PolicyChecker) *Ledger {
	return &Ledger{
		store:  NewBlockStore(),
		state:  NewStateDB(),
		policy: policy,
	}
}

// Height returns the number of committed blocks.
func (l *Ledger) Height() uint64 { return l.store.Height() }

// State returns the ledger's state database. Reads are safe at any time;
// writes are owned by Commit.
func (l *Ledger) State() *StateDB { return l.state }

// Commit validates b, appends it to the chain and applies the write sets of
// its valid transactions. Blocks must arrive in order; out-of-order commits
// return an error (gossip buffers and reorders ahead of this call).
func (l *Ledger) Commit(b *Block) (CommitResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if want := l.store.Height(); b.Num != want {
		return CommitResult{}, fmt.Errorf("ledger: commit out of order: got block %d, want %d", b.Num, want)
	}
	codes := ValidateBlock(l.state, b, l.policy)
	if err := l.store.Append(b); err != nil {
		return CommitResult{}, err
	}
	res := CommitResult{BlockNum: b.Num, Codes: codes}
	var txNums []uint32
	var writeSets []RWSet
	for i, c := range codes {
		if c == CodeValid {
			res.Valid++
			txNums = append(txNums, uint32(i))
			writeSets = append(writeSets, b.Txs[i].RWSet)
		} else {
			res.Invalid++
		}
	}
	l.state.ApplyBlockWrites(b.Num, txNums, writeSets)
	return res, nil
}
