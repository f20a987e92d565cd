package transport

import (
	"fmt"
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// SimNetwork is the discrete-event implementation of the transport. Every
// node lives on one shard: an engine with its own clock, "transport" random
// stream, traffic accountant and wire observer. A send runs on the sender's
// shard — so it must be issued from that engine's callbacks — and a delivery
// to another shard detours through the coordinator's inboxes, becoming
// visible at the next window barrier. A network built on a plain sim.Engine
// (NewSimNetwork) is the one-shard case: every node is on shard 0 and no
// coordinator is ever consulted.
type SimNetwork struct {
	model netmodel.Model
	// shards is indexed by shard. coord routes cross-shard deliveries and is
	// nil for a one-shard network, which has none.
	shards []simShard
	coord  *sim.ShardedEngine

	// nodes is indexed by NodeID. It and the fault state below are written
	// only from control code — between runs, or at window barriers with
	// every shard quiescent — and read concurrently during windows, which is
	// safe without locks.
	nodes []simNode
	// downLink and linkExtra are the per-link faults (cut links, slow
	// links), keyed by (from, to); the length checks keep a fault-free send
	// off the map lookups.
	downLink  map[[2]wire.NodeID]bool
	linkExtra map[[2]wire.NodeID]time.Duration
	dropRate  float64
	// siteDelay is the extra one-way latency a message crossing a WAN site
	// boundary pays: an O(1) compare of the endpoints' sites per send
	// instead of the O(n^2) link override map a full WAN mesh would need.
	siteDelay time.Duration
	// lossExempt message types skip the uniform drop rate: they model
	// reliable streams (e.g. the ordering service's delivery gRPC) whose
	// retransmissions mask transient loss. Partitions and crashed nodes
	// still cut them.
	lossExempt map[wire.MsgType]bool

	// deliverFn is the deliver method bound once at construction so that
	// per-message scheduling through sim.Engine.AfterMsg captures nothing.
	deliverFn sim.DeliveryHandler
}

// simNode is one node's dense record: its endpoint, the shard it runs on,
// its WAN site, and its node faults.
type simNode struct {
	ep *SimEndpoint
	// extra is latency added to every message entering or leaving the node
	// (a straggler host or a WAN-attached peer).
	extra time.Duration
	shard int32 // -1 = unassigned
	site  int32 // default 0
	// group is the node's partition group: messages between different
	// groups are dropped. Every node is in group 0 when no partition is
	// active.
	group int32
	down  bool // crashed: every inbound and outbound message is dropped
}

// simShard is one shard's send-side state, touched only by that shard's
// engine goroutine. traffic and wobs may be nil to skip accounting and
// observation.
type simShard struct {
	eng     *sim.Engine
	rng     *sim.Rand
	traffic *netmodel.Traffic
	wobs    *WireObs
}

// NewSimNetwork creates a simulated network on one engine. traffic may be
// nil to skip accounting.
func NewSimNetwork(engine *sim.Engine, model netmodel.Model, traffic *netmodel.Traffic) *SimNetwork {
	return newSimNetwork(model, nil, []*sim.Engine{engine}, []*netmodel.Traffic{traffic})
}

// NewShardedSimNetwork creates a simulated network over the coordinator's
// shard engines, with one traffic accountant per shard (merged by the caller
// for reporting; entries may be nil). With more than one shard every node
// must be assigned one with SetNodeShard before it sends or receives.
func NewShardedSimNetwork(se *sim.ShardedEngine, model netmodel.Model, traffics []*netmodel.Traffic) *SimNetwork {
	if len(traffics) != se.NumShards() {
		panic(fmt.Sprintf("transport: %d traffic accountants for %d shards", len(traffics), se.NumShards()))
	}
	engines := make([]*sim.Engine, se.NumShards())
	for i := range engines {
		engines[i] = se.Shard(i)
	}
	return newSimNetwork(model, se, engines, traffics)
}

func newSimNetwork(model netmodel.Model, coord *sim.ShardedEngine, engines []*sim.Engine, traffics []*netmodel.Traffic) *SimNetwork {
	n := &SimNetwork{
		model:     model,
		coord:     coord,
		shards:    make([]simShard, len(engines)),
		downLink:  make(map[[2]wire.NodeID]bool),
		linkExtra: make(map[[2]wire.NodeID]time.Duration),
	}
	for i, eng := range engines {
		n.shards[i] = simShard{eng: eng, rng: eng.Rand("transport"), traffic: traffics[i]}
	}
	n.deliverFn = n.deliver
	return n
}

// AddNode attaches a new endpoint and returns it. IDs are assigned densely
// from 0 in creation order. On a one-shard network the node is on shard 0;
// otherwise it starts unassigned (SetNodeShard).
func (n *SimNetwork) AddNode() *SimEndpoint {
	ep := &SimEndpoint{net: n, id: wire.NodeID(len(n.nodes))}
	shard := int32(-1)
	if len(n.shards) == 1 {
		shard = 0
	}
	n.nodes = append(n.nodes, simNode{ep: ep, shard: shard})
	return ep
}

// SetObs attaches one wire observer per shard (entries may be nil).
func (n *SimNetwork) SetObs(wobs []*WireObs) {
	if len(wobs) != len(n.shards) {
		panic(fmt.Sprintf("transport: %d wire observers for %d shards", len(wobs), len(n.shards)))
	}
	for i := range n.shards {
		n.shards[i].wobs = wobs[i]
	}
}

// SetNodeShard assigns the node to a shard.
func (n *SimNetwork) SetNodeShard(id wire.NodeID, shard int) {
	n.nodes[id].shard = int32(shard)
}

// shardOfNode returns the node's shard. Sends from or to an unassigned node
// panic: silently guessing a shard would let a message bypass the
// conservative synchronization.
func (n *SimNetwork) shardOfNode(id wire.NodeID) int {
	if s := n.nodes[id].shard; s >= 0 {
		return int(s)
	}
	panic(fmt.Sprintf("transport: node %v has no shard assignment", id))
}

// SetLinkDown cuts (or restores) the directed link from -> to.
func (n *SimNetwork) SetLinkDown(from, to wire.NodeID, down bool) {
	if down {
		n.downLink[[2]wire.NodeID{from, to}] = true
	} else {
		delete(n.downLink, [2]wire.NodeID{from, to})
	}
}

// SetNodeDown crashes (or revives) a node: all its inbound and outbound
// messages are dropped.
func (n *SimNetwork) SetNodeDown(id wire.NodeID, down bool) {
	n.nodes[id].down = down
}

// SetDropRate installs a uniform message loss probability in [0, 1).
func (n *SimNetwork) SetDropRate(p float64) { n.dropRate = p }

// SetLossExempt marks (or unmarks) a message type as exempt from the
// uniform drop rate, modelling a reliable transport underneath it. Node
// crashes, link cuts and partitions still drop exempt messages.
func (n *SimNetwork) SetLossExempt(mt wire.MsgType, exempt bool) {
	if n.lossExempt == nil {
		n.lossExempt = make(map[wire.MsgType]bool)
	}
	n.lossExempt[mt] = exempt
}

// Partition splits the network: each listed group can only talk within
// itself. Nodes absent from every group join group 0. A nil or single-group
// argument heals any active partition.
func (n *SimNetwork) Partition(groups ...[]wire.NodeID) {
	n.Heal()
	if len(groups) <= 1 {
		return
	}
	for g, ids := range groups {
		for _, id := range ids {
			n.nodes[id].group = int32(g)
		}
	}
}

// Heal removes any active partition. Link/node down states and latency
// overrides are independent and stay in place.
func (n *SimNetwork) Heal() {
	for i := range n.nodes {
		n.nodes[i].group = 0
	}
}

// SetLinkExtraDelay adds d of one-way latency to the directed link
// from -> to, on top of the network model. d <= 0 removes the override.
func (n *SimNetwork) SetLinkExtraDelay(from, to wire.NodeID, d time.Duration) {
	if d <= 0 {
		delete(n.linkExtra, [2]wire.NodeID{from, to})
	} else {
		n.linkExtra[[2]wire.NodeID{from, to}] = d
	}
}

// SetNodeExtraDelay adds d of one-way latency to every message entering or
// leaving the node (a straggler host or a WAN-attached peer). d <= 0
// removes the override.
func (n *SimNetwork) SetNodeExtraDelay(id wire.NodeID, d time.Duration) {
	n.nodes[id].extra = max(d, 0)
}

// SetNodeSite assigns the node to a WAN site. Nodes default to site 0;
// messages between different sites pay the SetSiteDelay latency.
func (n *SimNetwork) SetNodeSite(id wire.NodeID, site int) {
	n.nodes[id].site = int32(site)
}

// SetSiteDelay sets the extra one-way latency every message crossing a
// site boundary pays. d <= 0 disables site-based delays.
func (n *SimNetwork) SetSiteDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.siteDelay = d
}

// Reachable reports whether a message from -> to would currently be
// delivered, ignoring probabilistic loss: the destination exists, neither
// endpoint is down, the link is up and no partition separates them.
func (n *SimNetwork) Reachable(from, to wire.NodeID) bool {
	if int(to) >= len(n.nodes) {
		return false
	}
	a, b := &n.nodes[from], &n.nodes[to]
	if a.down || b.down || a.group != b.group {
		return false
	}
	return len(n.downLink) == 0 || !n.downLink[[2]wire.NodeID{from, to}]
}

// send accounts, filters and schedules one message on the sender's shard:
// its engine provides the clock and randomness, and a delivery to another
// shard detours through the coordinator so it becomes visible only at a
// window barrier (the network model is the same either way, so a cross-shard
// hop costs the same simulated latency). The steady-state path is
// allocation-free: delivery goes through the engine's pooled AfterMsg
// events via the pre-bound deliverFn, and the common fault-free,
// no-overrides case skips every fault and latency-override map lookup.
func (n *SimNetwork) send(from, to wire.NodeID, msg wire.Message) error {
	src := n.shardOfNode(from)
	sh := &n.shards[src]
	if int(to) >= len(n.nodes) {
		releaseMsg(msg)
		return fmt.Errorf("transport: unknown destination %v", to)
	}
	size := msg.EncodedSize()
	// Bytes leave the sender's NIC whether or not they arrive.
	if sh.traffic != nil {
		sh.traffic.Record(from, to, msg.Type(), size, sh.eng.Now())
	}
	if sh.wobs != nil {
		sh.wobs.Sent(sh.eng.Now(), from, to, msg.Type(), size)
	}
	if !n.Reachable(from, to) {
		releaseMsg(msg)
		return nil // silently lost: crashed endpoint, cut link or partition
	}
	if n.dropRate > 0 && !n.lossExempt[msg.Type()] && sh.rng.Float64() < n.dropRate {
		releaseMsg(msg)
		return nil
	}
	delay := n.model.Delay(sh.rng, size)
	if len(n.linkExtra) > 0 {
		delay += n.linkExtra[[2]wire.NodeID{from, to}]
	}
	a, b := &n.nodes[from], &n.nodes[to]
	delay += a.extra + b.extra
	if a.site != b.site {
		delay += n.siteDelay
	}
	if dst := n.shardOfNode(to); dst != src {
		n.coord.SendCross(src, dst, sh.eng.Now()+delay, n.deliverFn, uint64(from), uint64(to), msg)
	} else {
		sh.eng.AfterMsg(delay, n.deliverFn, uint64(from), uint64(to), msg)
	}
	return nil
}

// deliver is the AfterMsg handler behind every in-flight message. Fault
// state is checked at fire time, exactly as the per-message closure used
// to: a node crashed while the message was in flight still swallows it.
// Delivery is a terminal point for pooled envelopes, handled or not.
func (n *SimNetwork) deliver(from, to uint64, msg any) {
	dst := &n.nodes[to]
	m := msg.(wire.Message)
	if h := dst.ep.handler; h != nil && !dst.down {
		// The receive lands on the receiver's shard, on whose engine
		// goroutine this handler is already running.
		if sh := &n.shards[dst.shard]; sh.wobs != nil {
			sh.wobs.Received(sh.eng.Now(), wire.NodeID(from), wire.NodeID(to), m.Type(), m.EncodedSize())
		}
		h(wire.NodeID(from), m)
	}
	releaseMsg(m)
}

// releaseMsg returns a pooled envelope to its free list at a terminal point
// of one delivery attempt: dropped at send, swallowed at a downed receiver,
// or fully handled. Non-pooled messages are untouched.
func releaseMsg(msg wire.Message) {
	if r, ok := msg.(wire.Releasable); ok {
		r.Release()
	}
}

// SimEndpoint implements Endpoint on a SimNetwork.
type SimEndpoint struct {
	net     *SimNetwork
	id      wire.NodeID
	handler Handler
}

// ID implements Endpoint.
func (ep *SimEndpoint) ID() wire.NodeID { return ep.id }

// SetHandler implements Endpoint.
func (ep *SimEndpoint) SetHandler(h Handler) { ep.handler = h }

// Send implements Endpoint.
func (ep *SimEndpoint) Send(to wire.NodeID, msg wire.Message) error {
	return ep.net.send(ep.id, to, msg)
}
