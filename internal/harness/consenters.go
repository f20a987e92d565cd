package harness

import (
	"fmt"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/raft"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// clusterEntryBlock prefixes Raft log entries that carry a harness-injected
// (premade) block through the replicated ordering service. The ordering
// workload's own entry kinds (transaction and TTC marker, internal/order)
// use 1 and 2; 3 keeps the streams demuxable on one log.
const clusterEntryBlock = 3

// consenterCluster is the replicated ordering service: K Raft nodes on the
// ordering shard's engine, each fronted by a raft.Consenter shim that owns reliable
// submission (buffer through elections, re-propose to new leaders) and
// exactly-once apply delivery. The chain every organization sees is the
// committed log's block stream; only the current Raft leader serves deliver
// streams (deliverSource), so a leadership change silently redirects every
// org's session to the new leader with a rewind — the same machinery that
// handles org-side leader failover.
//
// Peers' stall detection follows for free: statesync keys its
// orderer-stall clock to DeliverBlock receipt, which is exactly the
// current leader's silence — an election longer than
// statesync.OrdererStall trips anchor probing, a shorter one does not.
type consenterCluster struct {
	eps   []*transport.SimEndpoint
	nodes []*raft.Node
	shims []*raft.Consenter
	down  []bool

	// height is, per consenter, the contiguous count of chain blocks it
	// has applied — the prefix a leader may serve. seen buffers block
	// numbers applied out of order (possible when entries for block k+1
	// commit before a re-proposed block k).
	height []int
	seen   []map[uint64]bool
	// stream receives non-block committed entries (the transaction
	// workload's envelopes and TTC markers) per consenter.
	stream []func(data []byte)

	// blockByNum registers each block at first apply (any consenter) so
	// the shared chain can extend in order even when applies arrive out
	// of block order.
	blockByNum map[uint64]*ledger.Block

	// leader is the consenter index currently believed to lead (-1
	// during elections and quorum loss). Election metrics: count of
	// leader emergences and total leaderless time (leaderLostAt marks
	// the open window's start while leader < 0).
	leader          int
	electionCount   int
	leaderlessTotal time.Duration
	leaderLostAt    time.Duration

	started bool
}

// WithConsenterHook installs f to observe consenter role changes (election
// winners, step-downs) for tracing.
func WithConsenterHook(f func(consenter int, s raft.State, term uint64)) NetworkOption {
	return func(n *Network) { n.onConsenter = f }
}

// buildCluster provisions the consenter endpoints and Raft nodes. Endpoint
// ids follow the peers (dense), so traffic accounting and partition groups
// stay index-stable.
func (n *Network) buildCluster(k int) {
	c := &consenterCluster{
		blockByNum: make(map[uint64]*ledger.Block),
		leader:     -1,
	}
	n.cluster = c
	ids := make([]wire.NodeID, k)
	c.eps = make([]*transport.SimEndpoint, k)
	for i := 0; i < k; i++ {
		c.eps[i] = n.Net.AddNode()
		ids[i] = c.eps[i].ID()
		n.Net.SetNodeShard(ids[i], n.ordShard)
	}
	c.nodes = make([]*raft.Node, k)
	c.shims = make([]*raft.Consenter, k)
	c.down = make([]bool, k)
	c.height = make([]int, k)
	c.seen = make([]map[uint64]bool, k)
	c.stream = make([]func([]byte), k)
	eng := n.OrdererEngine()
	for i := 0; i < k; i++ {
		i := i
		node := raft.New(raft.DefaultConfig(ids[i], ids), c.eps[i], eng,
			eng.Rand(fmt.Sprintf("raft/consenter%d", i)))
		// Clients broadcast each envelope to every live consenter
		// (SubmitTargets), so the log carries duplicates by design; the
		// shim delivers each payload once. Harness payloads are
		// content-unique (blocks by number, workload transactions by
		// client nonce), as the shim requires.
		shim := raft.NewConsenter(node, eng)
		node.OnStateChange(func(s raft.State, term uint64) {
			n.onConsenterState(i, s, term)
		})
		shim.OnCommit(func(data []byte) {
			n.onClusterCommit(i, data)
		})
		// The consenter endpoint demuxes: client submissions peel off to
		// the ordering workload, everything else is Raft traffic.
		c.eps[i].SetHandler(func(from wire.NodeID, msg wire.Message) {
			if st, ok := msg.(*wire.SubmitTx); ok {
				if n.onSubmitTx != nil {
					n.onSubmitTx(i, st.Tx)
				}
				return
			}
			node.Handle(from, msg)
		})
		c.nodes[i] = node
		c.shims[i] = shim
		c.seen[i] = make(map[uint64]bool)
	}
}

// onConsenterState tracks cluster leadership from each node's role
// transitions: a new leader redirects every organization's deliver session
// (forcing the rewind path) and closes the leaderless window; the current
// leader stepping down opens one.
func (n *Network) onConsenterState(i int, s raft.State, term uint64) {
	c := n.cluster
	if n.onConsenter != nil {
		n.onConsenter(i, s, term)
	}
	switch {
	case s == raft.Leader:
		if c.leader == i {
			return
		}
		c.electionCount++
		if c.leader < 0 {
			c.leaderlessTotal += n.OrdererEngine().Now() - c.leaderLostAt
		}
		c.leader = i
		n.resetDeliverSessions()
		n.requestPump()
	case c.leader == i:
		// The serving leader lost its role (higher term observed, or a
		// restart demotion): deliver streams go silent until a successor.
		c.leader = -1
		c.leaderLostAt = n.OrdererEngine().Now()
		n.resetDeliverSessions()
	}
}

// resetDeliverSessions forces every organization's next pump through the
// rewind path — the deliver stream reattaches at the (possibly new)
// leader's height.
func (n *Network) resetDeliverSessions() {
	for org := range n.lastLead {
		n.lastLead[org] = -1
	}
}

// onClusterCommit consumes consenter i's committed log stream: premade
// block entries feed the shared chain, anything else is the transaction
// workload's total-order stream.
func (n *Network) onClusterCommit(i int, data []byte) {
	if len(data) > 0 && data[0] == clusterEntryBlock {
		if b, ok := decodeBlockEntry(data); ok {
			n.OfferBlock(i, b)
		}
		return
	}
	if fn := n.cluster.stream[i]; fn != nil {
		fn(data)
	}
}

// OfferBlock records that consenter i holds block b — a premade block
// applied from the Raft log, or one its ordering service cut from the
// transaction workload's apply stream: the block registers for the shared
// chain (first applier or cutter wins; every consenter applies identical
// bytes and cuts identical blocks) and i's contiguous height, which gates
// what i may serve as leader, advances. A leader gaining height pumps
// immediately — block commit and block delivery stay one event apart.
func (n *Network) OfferBlock(i int, b *ledger.Block) {
	c := n.cluster
	if _, ok := c.blockByNum[b.Num]; !ok {
		c.blockByNum[b.Num] = b
	}
	for {
		nb, ok := c.blockByNum[uint64(len(n.chain))]
		if !ok {
			break
		}
		n.chain = append(n.chain, nb)
	}
	num := int(b.Num)
	if num >= c.height[i] {
		c.seen[i][b.Num] = true
		for c.seen[i][uint64(c.height[i])] {
			delete(c.seen[i], uint64(c.height[i]))
			c.height[i]++
		}
	}
	if i == c.leader {
		n.requestPump()
	}
}

// Consenters returns the ordering cluster's size.
func (n *Network) Consenters() int { return len(n.cluster.nodes) }

// ConsenterID returns consenter i's transport id.
func (n *Network) ConsenterID(i int) wire.NodeID { return n.cluster.eps[i].ID() }

// ConsenterNode exposes consenter i's Raft node (tests and diagnostics).
func (n *Network) ConsenterNode(i int) *raft.Node { return n.cluster.nodes[i] }

// ConsenterLeader returns the index of the consenter currently believed to
// lead, or -1 during elections and quorum loss.
func (n *Network) ConsenterLeader() int { return n.cluster.leader }

// OrderingNodeIDs returns every consenter's transport id, for callers
// building partition groups.
func (n *Network) OrderingNodeIDs() []wire.NodeID {
	ids := make([]wire.NodeID, len(n.cluster.eps))
	for i, ep := range n.cluster.eps {
		ids[i] = ep.ID()
	}
	return ids
}

// CrashConsenter fails one consenter: its Raft node stops voting and
// appending, and the network silences its endpoint. Its shim's pending
// buffer survives — it models the consenter's durable queue of accepted-
// but-unordered envelopes, replayed after restart — and so does its log
// (raft.Node models a durable WAL). If the crashed consenter was the
// leader, every deliver stream dies until the survivors elect. No-op if
// already crashed.
func (n *Network) CrashConsenter(i int) {
	c := n.cluster
	if c.down[i] {
		return
	}
	c.down[i] = true
	c.nodes[i].Stop()
	n.Net.SetNodeDown(c.eps[i].ID(), true)
	if c.leader == i {
		c.leader = -1
		c.leaderLostAt = n.OrdererEngine().Now()
		n.resetDeliverSessions()
	}
}

// RestartConsenter revives a crashed consenter: it rejoins as a follower
// and the cluster leader catches it up by Raft log replay (AppendEntries
// suffix repair from its durable log) — not from fresh state. No-op if not
// crashed.
func (n *Network) RestartConsenter(i int) {
	c := n.cluster
	if !c.down[i] {
		return
	}
	c.down[i] = false
	n.Net.SetNodeDown(c.eps[i].ID(), false)
	c.nodes[i].Start()
}

// SubmitTargets returns the ordering endpoints a client at from should
// currently submit to: every live reachable consenter. Submitting to all
// of them models client failover without modelling client retry timers: an
// envelope survives any fault that leaves one receiving consenter alive,
// and the shims' exactly-once apply window collapses the duplicate
// proposals. Empty means the ordering service is unreachable.
func (n *Network) SubmitTargets(from wire.NodeID) []wire.NodeID {
	var out []wire.NodeID
	for i, ep := range n.cluster.eps {
		if !n.cluster.down[i] && n.Net.Reachable(from, ep.ID()) {
			out = append(out, ep.ID())
		}
	}
	return out
}

// SetSubmitHandler installs the ordering workload's transaction intake:
// fn runs for each SubmitTx arriving at consenter i's endpoint.
func (n *Network) SetSubmitHandler(fn func(consenter int, tx *ledger.Transaction)) {
	n.onSubmitTx = fn
}

// SetConsenterStream installs consenter i's consumer for non-block
// committed entries — the ordering service instance hosted on i reads its
// total order from here.
func (n *Network) SetConsenterStream(i int, fn func(data []byte)) {
	n.cluster.stream[i] = fn
}

// SubmitEntry submits an opaque ordering entry through consenter i's
// reliable shim (order.Consenter's Submit, routed via Raft).
func (n *Network) SubmitEntry(i int, data []byte) error {
	return n.cluster.shims[i].Submit(data)
}

// ElectionStats reports the ordering cluster's election count and total
// leaderless time (a still-open leaderless window counts up to now).
func (n *Network) ElectionStats() (count int, leaderless time.Duration) {
	c := n.cluster
	leaderless = c.leaderlessTotal
	if c.leader < 0 {
		leaderless += n.OrdererEngine().Now() - c.leaderLostAt
	}
	return c.electionCount, leaderless
}

// MaxDeliverGap returns the widest gap between consecutive first-time
// block deliveries observed by any organization — how long the ordering
// service went dark from the peers' perspective.
func (n *Network) MaxDeliverGap() time.Duration {
	var max time.Duration
	for _, g := range n.maxDeliverGap {
		if g > max {
			max = g
		}
	}
	return max
}

// encodeBlockEntry wraps a premade block as a Raft log entry.
func encodeBlockEntry(b *ledger.Block) []byte {
	msg := &wire.DeliverBlock{Block: b}
	data := make([]byte, 1, 1+msg.EncodedSize())
	data[0] = clusterEntryBlock
	return wire.AppendMarshal(data, msg)
}

// decodeBlockEntry unwraps encodeBlockEntry's framing.
func decodeBlockEntry(data []byte) (*ledger.Block, bool) {
	msg, err := wire.Unmarshal(data[1:])
	if err != nil {
		return nil, false
	}
	db, ok := msg.(*wire.DeliverBlock)
	if !ok || db.Block == nil {
		return nil, false
	}
	return db.Block, true
}
