package scenario

import (
	"fmt"

	"fabricgossip/internal/crypto"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/workload"
)

// The safety rules every run is checked against (README "Safety rules").
// Gossip, statesync and the ordering cluster provide to the ledgers: (1) each
// org's chain, committed by every member in order from height 0 (again
// after a restart), one block per height, each linking to the one below;
// (2) one chain across orgs; (3) at most one Raft leader per term; (4)
// books that close: Submitted == Committed + Conflicts + InFlight, no
// commit errors. The checker requires the runner's hooks: each peer's
// commit (rule 1, on the peer's shard), the consenters' role changes (rule
// 3, on the ordering engine) and, at report time, the orgs' chains and the
// workload counters (rules 2 and 4: in WAN layouts each org has its own
// shard). It draws nothing, schedules nothing and is O(1) per commit.
const (
	ruleHeight = "commit height"
	ruleBlock  = "one block per height"
	ruleLink   = "hash link"
	ruleAgree  = "cross-org agreement"
	ruleLeader = "one leader per term"
	ruleBooks  = "books close"
	rulePool   = "pool drain"
)

type checker struct {
	height  []uint64 // per peer: the next height it commits
	orgs    []orgChain
	leaders map[uint64]int // term -> consenter
	// broken holds the first rule broken per writer, so no two goroutines
	// share one: each org's shard, then ordSlot (the ordering engine), then
	// endSlot (report time and the pool audit).
	broken           []string
	ordSlot, endSlot int
}

// orgChain is the chain an org's members committed. Replicas cut identical
// blocks as distinct objects, so a commit compares pointers and hashes only
// on a mismatch; each height is hashed once.
type orgChain struct {
	blocks []*ledger.Block
	hashes []crypto.Digest
}

func newChecker(peers, orgs int) *checker {
	return &checker{
		height: make([]uint64, peers), orgs: make([]orgChain, orgs), leaders: make(map[uint64]int),
		broken: make([]string, orgs+2), ordSlot: orgs, endSlot: orgs + 1,
	}
}

func (c *checker) flag(slot int, rule, format string, args ...any) {
	if c.broken[slot] == "" {
		c.broken[slot] = fmt.Sprintf("safety rule %q: ", rule) + fmt.Sprintf(format, args...)
	}
}

// commit checks rule 1 when peer i of org commits b.
func (c *checker) commit(i, org int, b *ledger.Block) {
	h := c.height[i]
	c.height[i] = b.Num + 1
	if b.Num != h {
		c.flag(org, ruleHeight, "peer %d committed block %d at height %d", i, b.Num, h)
		return
	}
	oc := &c.orgs[org] // the peer committed 0..h-1, so oc reaches h-1
	if h < uint64(len(oc.blocks)) {
		if oc.blocks[h] != b && b.Hash() != oc.hashes[h] {
			c.flag(org, ruleBlock, "peer %d committed a block at height %d other than org %d's", i, h, org)
		}
		return
	}
	var prev crypto.Digest // the genesis block links to nothing
	if h > 0 {
		prev = oc.hashes[h-1]
	}
	if b.PrevHash != prev {
		c.flag(org, ruleLink, "org %d's block %d (from peer %d) does not link to its block %d", org, h, i, h-1)
	}
	oc.blocks, oc.hashes = append(oc.blocks, b), append(oc.hashes, b.Hash())
}

// elected checks rule 3 when consenter becomes leader of term.
func (c *checker) elected(consenter int, term uint64) {
	if prev, ok := c.leaders[term]; !ok {
		c.leaders[term] = consenter
	} else if prev != consenter {
		c.flag(c.ordSlot, ruleLeader, "consenters %d and %d both led term %d", prev, consenter, term)
	}
}

// settle checks rules 2 and, given the workload counters w, 4.
func (c *checker) settle(w *workload.Stats) {
	ref := 0 // the longest chain
	for o := range c.orgs {
		if len(c.orgs[o].hashes) > len(c.orgs[ref].hashes) {
			ref = o
		}
	}
	for o := range c.orgs {
		for h, d := range c.orgs[o].hashes {
			if d != c.orgs[ref].hashes[h] {
				c.flag(c.endSlot, ruleAgree, "orgs %d and %d committed different blocks at height %d", ref, o, h)
				break
			}
		}
	}
	if w == nil {
		return
	}
	if w.Submitted != w.Committed+w.Conflicts+w.InFlight {
		c.flag(c.endSlot, ruleBooks, "%d submitted != %d committed + %d conflicts + %d in flight",
			w.Submitted, w.Committed, w.Conflicts, w.InFlight)
	} else if w.CommitErrors != 0 {
		c.flag(c.endSlot, ruleBooks, "%d blocks rejected at commit", w.CommitErrors)
	}
}
