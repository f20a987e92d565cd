package enhanced

import "math/bits"

// Diagnostic readers of the protocol's tracking state, for this package's
// tests only.

// TrackedBlocks reports how many blocks have live epidemic state.
func (p *Protocol) TrackedBlocks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.blocks {
		if p.blocks[i].seen != 0 {
			n++
		}
	}
	for _, st := range p.stale {
		if st.seen != 0 {
			n++
		}
	}
	return n
}

// SeenPairs returns how many (block, counter) pairs have been observed for
// block num.
func (p *Protocol) SeenPairs(num uint64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.peek(num); st != nil {
		return bits.OnesCount64(st.seen)
	}
	return 0
}
