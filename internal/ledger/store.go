package ledger

import (
	"fmt"
	"sync"
)

// BlockStore is the append-only, hash-verified chain of blocks a peer
// maintains. It is safe for concurrent use.
type BlockStore struct {
	mu     sync.RWMutex
	blocks []*Block
}

// NewBlockStore returns an empty store.
func NewBlockStore() *BlockStore { return &BlockStore{} }

// Height returns the number of stored blocks; the next expected block
// number equals the height.
func (s *BlockStore) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.blocks))
}

// Append verifies linkage and adds b to the chain.
func (s *BlockStore) Append(b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var prev *Block
	if n := len(s.blocks); n > 0 {
		prev = s.blocks[n-1]
	}
	if err := b.VerifyLinkage(prev); err != nil {
		return err
	}
	s.blocks = append(s.blocks, b)
	return nil
}

// Get returns block num.
func (s *BlockStore) Get(num uint64) (*Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if num >= uint64(len(s.blocks)) {
		return nil, fmt.Errorf("ledger: block %d not stored (height %d)", num, len(s.blocks))
	}
	return s.blocks[num], nil
}
