package harness

import (
	"fmt"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/gossip/original"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/raft"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// OrgSpec describes one organization of a multi-org Network.
type OrgSpec struct {
	// Peers is the organization's size (at least 2).
	Peers int
	// Variant optionally overrides the network-wide protocol for this
	// organization; empty inherits NetworkParams.Variant. Mixed networks
	// (some orgs original, some enhanced) are a first-class configuration.
	Variant Variant
}

// Deployment parameters with one value in use, hence not NetworkParams
// fields.
const (
	// redeliverInterval is how often the ordering service retries streaming
	// undelivered blocks to each organization's current leader. Real
	// orderers serve a reliable deliver stream per leader; the retry models
	// the stream resuming after partitions and failovers.
	redeliverInterval = time.Second
	// redeliverBatch caps how many backlogged blocks one retry streams to
	// an organization, pacing deep catch-ups.
	redeliverBatch = 32
	// enhancedFout and enhancedTTLDirect are the paper's fout=4,
	// TTLdirect=2; each enhanced organization's TTL follows from its size
	// via enhanced.ConfigFor.
	enhancedFout      = 4
	enhancedTTLDirect = 2
	// anchorsPerOrg is how many anchor peers each organization publishes
	// (capped at the organization's size).
	anchorsPerOrg = 1
)

// NetworkParams configures a multi-organization network: the paper's
// Figure 1 deployment shape, one channel spanning several organizations.
type NetworkParams struct {
	Seed int64
	// Variant is the default protocol for organizations without an
	// override. Empty defaults to VariantEnhanced.
	Variant Variant
	Orgs    []OrgSpec
	// Bucket and TrafficTotals are read by nothing: a Network's traffic
	// accountants keep running totals per node and no bucket series (only
	// the paper experiments' Org plots bandwidth over time). Declared until
	// bench/ stops setting them.
	Bucket        time.Duration
	TrafficTotals bool

	// AnchorRecovery enables cross-organization state transfer: each
	// organization designates its lowest-indexed peer as its anchor peer
	// (Fabric's channel-config anchors, anchorsPerOrg), and every peer is
	// configured with the *other* organizations' anchors so its leader can
	// fetch missing blocks from them when the ordering service goes
	// silent. Off by default: single-org networks and orderer-only
	// recovery behave exactly as before.
	AnchorRecovery bool

	// WANDelay, when positive, separates every organization — and the
	// ordering service — onto its own WAN site: messages between nodes of
	// different organizations (or between the orderer and any peer) pay
	// this much extra one-way latency on top of the LAN model, via the
	// transport's O(1)-per-send site assignment. Intra-org traffic stays
	// on the LAN.
	WANDelay time.Duration

	// Consenters is the size of the Raft cluster that is the ordering
	// service (default 1: a single orderer is a cluster whose quorum is
	// itself, committing without a round trip). The chain is replicated
	// through the Raft log (each consenter appends it by applying the same
	// committed entries) and only the current Raft leader serves deliver
	// streams to org leader peers, rewinding each stream on leadership
	// change via the deliver-rewind machinery. Orderer-stall anchor
	// recovery keys on DeliverBlock receipt, which is exactly leader
	// silence.
	Consenters int
	// ConsenterSpread, with WANDelay, scatters consenters round-robin
	// across the organizations' WAN sites instead of co-locating them all
	// on the ordering site — the WAN-separated consenter deployment.
	ConsenterSpread bool

	// Sharded is read by nothing: the shard layout follows from WANDelay
	// and ConsenterSpread (shardLayout). Declared until bench/ stops
	// setting it.
	Sharded bool
	// FixedLookahead disables the window coordinator's adaptive barrier
	// elision, forcing the full ceremony at every window edge. Adaptive
	// and fixed runs are byte-identical — elision only skips edges whose
	// ceremony would have executed nothing — so the knob exists for the
	// equivalence property test and for debugging.
	FixedLookahead bool
}

func (p NetworkParams) withDefaults() NetworkParams {
	if p.Variant == "" {
		p.Variant = VariantEnhanced
	}
	if p.Consenters == 0 {
		p.Consenters = 1
	}
	return p
}

// shardLayout derives how the simulation is partitioned across the window
// coordinator's shard engines, and the coordinator's conservative window
// width: a lower bound on the simulated latency of every cross-shard
// message. Organizations are isolated gossip domains whose only cross-org
// traffic is ordering delivery, client submission and anchor/statesync
// recovery, so when WANDelay puts every organization and the ordering
// service on its own site, each gets its own shard and every cross-shard
// message pays the LAN model's minimum propagation delay (Model.Delay starts
// there and only adds) plus the WAN hop. Anything else — a shared LAN, or
// ConsenterSpread co-locating each consenter with one organization's site —
// leaves some pair on the LAN floor, where a window holds an event or two
// per shard and the goroutine hand-off costs more than it overlaps: that
// network is one shard. Per-link and per-node extra delays only ever add
// latency, so they never lower the bound.
func (p NetworkParams) shardLayout() (orgShard []int, ordShard int, lookahead time.Duration) {
	orgShard = make([]int, len(p.Orgs))
	lookahead = netmodel.LAN().PropMin
	if p.WANDelay > 0 && !p.ConsenterSpread {
		for o := range orgShard {
			orgShard[o] = o
		}
		return orgShard, len(p.Orgs), lookahead + p.WANDelay
	}
	return orgShard, 0, lookahead
}

// OrgDomain is one organization inside a Network: a contiguous range of
// global peer indices forming an isolated gossip domain (Fabric does not
// gossip data blocks across organizations, paper §III-A).
type OrgDomain struct {
	Index   int
	Variant Variant
	// Lo and Hi bound the organization's global peer indices: [Lo, Hi).
	Lo, Hi int
	// Peers lists the organization's node ids (global and dense).
	Peers []wire.NodeID

	enhanced enhanced.Config
	original original.Config
}

// Size returns the organization's peer count.
func (d *OrgDomain) Size() int { return d.Hi - d.Lo }

// Network is a simulated multi-organization blockchain network: N orgs of
// M peers each over one shared LAN model, plus an ordering service that
// tracks every organization's dynamic leader and streams each cut block to
// one leader peer per organization. Gossip dissemination stays within each
// organization; the ordering service is the only cross-organization path,
// exactly the paper's deployment shape. It always runs on the window
// coordinator (sim.ShardedEngine); shardLayout decides how many shards.
//
// It generalizes Org: global peer indices are dense across organizations
// (org 0 owns [0, M0), org 1 owns [M0, M0+M1), ...), the consenter
// endpoints follow the last peer, and the fault surface (Crash, Restart,
// partitions via Net) operates on global indices.
type Network struct {
	Params NetworkParams
	// Engine is the control-plane scheduler only: the coordinator's control
	// engine, whose events (fault actions, block injections, the redelivery
	// pump, samplers) fire at window barriers with every shard quiescent.
	// Peers and consenters run on the shard engines (OrgEngine,
	// OrdererEngine), which only RunUntil drives — running Engine directly
	// executes control events and nothing else.
	Engine *sim.Engine
	Net    *transport.SimNetwork
	Orgs   []*OrgDomain
	// Cores is indexed by global peer index.
	Cores []*gossip.Core

	tune        func(self wire.NodeID, cfg *gossip.Config)
	onCore      []func(global int, c *gossip.Core)
	onDeliver   func(org, peer int, b *ledger.Block, redelivery bool)
	onSubmitTx  func(consenter int, tx *ledger.Transaction)
	onConsenter func(consenter int, s raft.State, term uint64)

	eps     []*transport.SimEndpoint
	crashed []bool
	orgOf   []int // global peer index -> org index

	// Ordering-service state: the cut chain plus, per organization, the
	// next chain position to stream, the last leader streamed to, and the
	// delivery high-water mark (for redelivery detection).
	chain     []*ledger.Block
	nextIdx   []int
	lastLead  []int
	highWater []int
	pump      sim.Timer

	// cluster is the replicated ordering service.
	cluster *consenterCluster

	// se is the window coordinator driving the run; orgShard and ordShard
	// are the layout (shardLayout): which shard each organization's peers
	// and the ordering service (raft nodes, order services) run on.
	// pumpWanted coalesces mid-window pump requests (a consenter committing
	// a block cannot touch other shards' peers until the next barrier).
	se            *sim.ShardedEngine
	orgShard      []int
	ordShard      int
	shardTraffics []*netmodel.Traffic
	pumpWanted    bool

	// Per-org deliver-gap tracking: time of the last first-time delivery
	// and the widest observed gap between consecutive ones — the ordering
	// outage as an org experiences it (elections, crashes, partitions).
	lastDeliverAt []time.Duration
	maxDeliverGap []time.Duration
}

// NetworkOption tweaks network construction.
type NetworkOption func(*Network)

// WithNetworkGossipTune adjusts each peer's shared gossip configuration
// before its core is built, at construction and again on Restart.
func WithNetworkGossipTune(f func(self wire.NodeID, cfg *gossip.Config)) NetworkOption {
	return func(n *Network) { n.tune = f }
}

// WithNetworkCoreHook installs f to run for every core before it starts —
// at construction and for each core recreated by Restart — so measurement
// hooks survive peer churn. The first argument is the global peer index.
// Hooks run in registration order.
func WithNetworkCoreHook(f func(global int, c *gossip.Core)) NetworkOption {
	return func(n *Network) { n.onCore = append(n.onCore, f) }
}

// AddCoreHook registers a core hook after construction: it runs for every
// core recreated by Restart from now on (existing cores are not revisited —
// the caller can walk Cores itself). Subsystems layered on top of a built
// Network (e.g. the workload plane's per-peer validation pipelines) use it
// to survive peer churn.
func (n *Network) AddCoreHook(f func(global int, c *gossip.Core)) {
	n.onCore = append(n.onCore, f)
}

// WithDeliverHook installs f to observe every block the ordering service
// streams into an organization: org and peer identify the targeted leader,
// redelivery reports whether the block had already been streamed to this
// organization before (leader failover or catch-up replays).
func WithDeliverHook(f func(org, peer int, b *ledger.Block, redelivery bool)) NetworkOption {
	return func(n *Network) { n.onDeliver = f }
}

// NewNetwork builds (but does not start) a multi-organization network over
// the calibrated LAN model.
func NewNetwork(p NetworkParams, opts ...NetworkOption) (*Network, error) {
	p = p.withDefaults()
	if len(p.Orgs) == 0 {
		return nil, fmt.Errorf("harness: network needs at least one organization")
	}
	n := &Network{Params: p}
	var lookahead time.Duration
	n.orgShard, n.ordShard, lookahead = p.shardLayout()
	n.se = sim.NewShardedEngine(p.Seed, n.ordShard+1, lookahead)
	n.se.SetAdaptive(!p.FixedLookahead)
	n.se.OnBarrier(n.drainPump)
	n.Engine = n.se.Control()
	for _, opt := range opts {
		opt(n)
	}
	// An organization with a shard to itself gets an accountant covering
	// only its id range (peers get dense ids in org creation order), so
	// dense tables scale with the org, not the network. The ordering
	// service's shard keeps the full window: consenter ids land after
	// every peer.
	n.shardTraffics = make([]*netmodel.Traffic, n.se.NumShards())
	base := 0
	for o, spec := range p.Orgs {
		if n.orgShard[o] != n.ordShard {
			n.shardTraffics[n.orgShard[o]] = netmodel.NewSimTrafficWindow(wire.NodeID(base), spec.Peers)
		}
		base += spec.Peers
	}
	n.shardTraffics[n.ordShard] = netmodel.NewSimTraffic(0)
	n.Net = transport.NewShardedSimNetwork(n.se, netmodel.LAN(), n.shardTraffics)
	// The ordering service delivers over a reliable stream: uniform loss
	// must not swallow a block before it enters an organization.
	n.Net.SetLossExempt(wire.TypeDeliverBlock, true)

	lo := 0
	for i, spec := range p.Orgs {
		if spec.Peers < 2 {
			return nil, fmt.Errorf("harness: org %d needs at least 2 peers, got %d", i, spec.Peers)
		}
		variant := spec.Variant
		if variant == "" {
			variant = p.Variant
		}
		if variant != VariantOriginal && variant != VariantEnhanced {
			return nil, fmt.Errorf("harness: org %d: unknown variant %q", i, variant)
		}
		d := &OrgDomain{
			Index:    i,
			Variant:  variant,
			Lo:       lo,
			Hi:       lo + spec.Peers,
			original: original.DefaultConfig(),
		}
		if variant == VariantEnhanced {
			cfg, err := enhanced.ConfigFor(spec.Peers, enhancedFout, 1e-6, enhancedTTLDirect)
			if err != nil {
				return nil, fmt.Errorf("harness: org %d: %w", i, err)
			}
			d.enhanced = cfg
		}
		d.Peers = make([]wire.NodeID, spec.Peers)
		for j := range d.Peers {
			d.Peers[j] = wire.NodeID(lo + j)
		}
		n.Orgs = append(n.Orgs, d)
		lo += spec.Peers
	}
	total := lo
	n.Cores = make([]*gossip.Core, total)
	n.eps = make([]*transport.SimEndpoint, total)
	n.crashed = make([]bool, total)
	n.orgOf = make([]int, total)
	for _, d := range n.Orgs {
		for g := d.Lo; g < d.Hi; g++ {
			n.orgOf[g] = d.Index
			n.eps[g] = n.Net.AddNode()
			n.Net.SetNodeShard(n.eps[g].ID(), n.orgShard[d.Index])
			n.Cores[g] = n.buildCore(g)
		}
	}
	n.buildCluster(p.Consenters)
	if p.WANDelay > 0 {
		n.applyWAN(p.WANDelay)
	}
	n.nextIdx = make([]int, len(n.Orgs))
	n.highWater = make([]int, len(n.Orgs))
	n.lastLead = make([]int, len(n.Orgs))
	n.lastDeliverAt = make([]time.Duration, len(n.Orgs))
	n.maxDeliverGap = make([]time.Duration, len(n.Orgs))
	for i := range n.lastLead {
		n.lastLead[i] = -1
		n.lastDeliverAt[i] = -1
	}
	return n, nil
}

// buildCore constructs a fresh core (and protocol instance) for the peer at
// the given global index and runs the core hook. The peer's member list is
// its organization only — each organization is an isolated gossip domain.
func (n *Network) buildCore(global int) *gossip.Core {
	d := n.Orgs[n.orgOf[global]]
	ep := n.eps[global]
	cfg := gossip.DefaultConfig(ep.ID(), d.Peers)
	if n.Params.AnchorRecovery {
		cfg.AnchorPeers = n.remoteAnchors(d.Index)
	}
	if n.tune != nil {
		n.tune(ep.ID(), &cfg)
	}
	var proto gossip.Protocol
	switch d.Variant {
	case VariantOriginal:
		proto = original.New(d.original)
	default:
		proto = enhanced.New(d.enhanced)
	}
	// Each org's cores run on the org's shard engine, drawing from the
	// shard's own "gossip" stream.
	eng := n.OrgEngine(d.Index)
	core := gossip.New(cfg, ep, eng, eng.Rand("gossip"), proto)
	for _, hook := range n.onCore {
		hook(global, core)
	}
	return core
}

// OrgAnchors returns an organization's published anchor peers: its
// anchorsPerOrg lowest-indexed members (Fabric designates anchors in the
// channel configuration; the lowest indices are this harness's stable
// choice).
func (n *Network) OrgAnchors(org int) []wire.NodeID {
	d := n.Orgs[org]
	return d.Peers[:min(anchorsPerOrg, len(d.Peers))]
}

// remoteAnchors collects every other organization's anchor peers, in org
// order — the cross-org fetch targets for a member of org.
func (n *Network) remoteAnchors(org int) []wire.NodeID {
	var out []wire.NodeID
	for o := range n.Orgs {
		if o == org {
			continue
		}
		out = append(out, n.OrgAnchors(o)...)
	}
	return out
}

// applyWAN assigns every organization — and the ordering service, unless
// ConsenterSpread scatters it over the organizations' sites — its own WAN
// site on the transport, so any message crossing a site boundary pays the
// delay. Site assignment is O(N); the per-message cost is one array
// compare, so intra-org LAN traffic keeps its fast path even at
// thousand-peer scale (a per-link override mesh would be O(N^2) map
// entries probed on every send).
func (n *Network) applyWAN(d time.Duration) {
	for g := range n.Cores {
		n.Net.SetNodeSite(wire.NodeID(g), n.orgOf[g])
	}
	for i, ep := range n.cluster.eps {
		site := len(n.Orgs)
		if n.Params.ConsenterSpread {
			site = i % len(n.Orgs)
		}
		n.Net.SetNodeSite(ep.ID(), site)
	}
	n.Net.SetSiteDelay(d)
}

// TotalPeers returns the peer count across all organizations.
func (n *Network) TotalPeers() int { return len(n.Cores) }

// OrgOf returns the organization index owning the given global peer index.
func (n *Network) OrgOf(global int) int { return n.orgOf[global] }

// Sharded returns the window coordinator driving the run.
func (n *Network) Sharded() *sim.ShardedEngine { return n.se }

// OrgEngine returns the shard engine the organization's peers run on.
func (n *Network) OrgEngine(org int) *sim.Engine { return n.se.Shard(n.orgShard[org]) }

// EngineFor returns the engine the peer at the given global index runs on.
func (n *Network) EngineFor(global int) *sim.Engine {
	return n.OrgEngine(n.orgOf[global])
}

// OrdererEngine returns the shard engine the ordering service runs on.
func (n *Network) OrdererEngine() *sim.Engine { return n.se.Shard(n.ordShard) }

// RunUntil drives the simulation to time t through the coordinator's
// lock-step windows.
func (n *Network) RunUntil(t time.Duration) { n.se.RunUntil(t) }

// ExecutedEvents returns the total simulation events run across all engines.
func (n *Network) ExecutedEvents() uint64 { return n.se.Executed() }

// PeakPending returns the event queues' high-water mark: the largest single
// engine's.
func (n *Network) PeakPending() int { return n.se.PeakPending() }

// TrafficView returns the network-wide traffic accounting so far: the
// per-shard accountants merged into a fresh one. Call it between RunUntil
// calls, when no shard is recording.
func (n *Network) TrafficView() *netmodel.Traffic {
	t := netmodel.NewSimTraffic(0)
	for _, st := range n.shardTraffics {
		t.Merge(st)
	}
	return t
}

// AddClientNode attaches a workload client endpoint homed in the given
// organization: it joins the org's WAN site (when sites are active) and the
// org's shard, so client traffic to the ordering service crosses exactly the
// boundaries the org's peers' does.
func (n *Network) AddClientNode(org int) *transport.SimEndpoint {
	ep := n.Net.AddNode()
	if n.Params.WANDelay > 0 {
		n.Net.SetNodeSite(ep.ID(), org)
	}
	n.Net.SetNodeShard(ep.ID(), n.orgShard[org])
	return ep
}

// requestPump triggers ordering redelivery. A pump touches every
// organization's leader state, so mid-window requests (a consenter applying
// a committed block, an election resolving) coalesce into one pump at the
// next barrier, where all shards are quiescent.
func (n *Network) requestPump() {
	n.pumpWanted = true
	// The flush hook must not be elided by an adaptive coordinator.
	n.se.RequestBarrier()
}

// drainPump is the coordinator barrier hook behind requestPump.
func (n *Network) drainPump() {
	if n.pumpWanted {
		n.pumpWanted = false
		n.pumpAll()
	}
}

// StartAll starts every peer's core and the consenter cluster, and arms the
// ordering service's redelivery timer.
func (n *Network) StartAll() {
	for _, c := range n.Cores {
		c.Start()
	}
	if !n.cluster.started {
		n.cluster.started = true
		for _, node := range n.cluster.nodes {
			node.Start()
		}
	}
	if n.pump == nil {
		n.pump = n.Engine.Every(redeliverInterval, n.pumpAll)
	}
}

// StopAll stops every non-crashed peer's core and the ordering service.
func (n *Network) StopAll() {
	for g, c := range n.Cores {
		if !n.crashed[g] {
			c.Stop()
		}
	}
	for i, node := range n.cluster.nodes {
		if !n.cluster.down[i] {
			node.Stop()
		}
		n.cluster.shims[i].Stop()
	}
	if n.pump != nil {
		n.pump.Stop()
		n.pump = nil
	}
}

// Crash fails the peer at the given global index: its core stops and the
// network silences its endpoint. No-op if already crashed.
func (n *Network) Crash(global int) {
	if n.crashed[global] {
		return
	}
	n.crashed[global] = true
	n.Cores[global].Stop()
	n.Net.SetNodeDown(wire.NodeID(global), true)
	// Any deliver session to this peer is gone with it.
	if org := n.orgOf[global]; n.lastLead[org] == global {
		n.lastLead[org] = -1
	}
}

// Restart revives a crashed peer with a fresh core and empty block store —
// the rejoin-with-catchup path. No-op (returning the current core) if the
// peer is not crashed.
func (n *Network) Restart(global int) *gossip.Core {
	if !n.crashed[global] {
		return n.Cores[global]
	}
	n.crashed[global] = false
	n.Net.SetNodeDown(wire.NodeID(global), false)
	core := n.buildCore(global)
	n.Cores[global] = core
	core.Start()
	return core
}

// Crashed reports whether the peer at the given global index is crashed.
func (n *Network) Crashed(global int) bool { return n.crashed[global] }

// Delivered returns how many blocks the ordering service has streamed into
// an organization. The deliver stream sends the chain in order, so these are
// always the chain's first Delivered blocks; redeliveries do not count.
func (n *Network) Delivered(org int) int { return n.highWater[org] }

// CrashOrderer fails the whole ordering service: every consenter crashes (a
// total ordering outage — use CrashConsenter for partial faults). Every
// organization's deliver stream dies with it, and no blocks reach any
// leader until RestartOrderer. With AnchorRecovery enabled, organizations
// that fall behind can still catch up through remote anchor peers — the
// paper-external scenario this harness models after Fabric's deliver
// fallback.
func (n *Network) CrashOrderer() {
	for i := range n.cluster.nodes {
		n.CrashConsenter(i)
	}
}

// RestartOrderer revives a crashed ordering service: every consenter
// restarts and rejoins by Raft log replay — term, vote, and log are
// modelled durable; only role is volatile (see raft.Node.Stop) — and blocks
// appended during the outage, held in the shims' durable buffers, commit
// once a leader re-emerges (TestRestartOrdererChainDurability pins this).
func (n *Network) RestartOrderer() {
	for i := range n.cluster.nodes {
		n.RestartConsenter(i)
	}
}

// LiveCount returns the number of non-crashed peers across the network.
func (n *Network) LiveCount() int {
	live := 0
	for _, down := range n.crashed {
		if !down {
			live++
		}
	}
	return live
}

// OrgLeader returns the global index of the organization's current leader:
// the lowest-id non-crashed peer (the convergence point of Fabric's dynamic
// leader election). Returns -1 if the whole organization is crashed.
func (n *Network) OrgLeader(org int) int {
	d := n.Orgs[org]
	for g := d.Lo; g < d.Hi; g++ {
		if !n.crashed[g] {
			return g
		}
	}
	return -1
}

// Append hands a premade block to the ordering service. The block is an
// ordering input, not an ordering output: it is submitted through every
// consenter's Raft shim and joins the chain only when the replicated log
// commits it (the shims retry through elections forever, so an injected
// block may be delayed by a leaderless window but never lost while a quorum
// eventually exists). Blocks must be appended in increasing, gap-free order.
func (n *Network) Append(b *ledger.Block) {
	data := encodeBlockEntry(b)
	for _, shim := range n.cluster.shims {
		_ = shim.Submit(data) // buffers and retries; never fails
	}
}

// ChainLength returns how many blocks the ordering service has committed.
func (n *Network) ChainLength() int { return len(n.chain) }

func (n *Network) pumpAll() {
	for org := range n.Orgs {
		n.pumpOrg(org)
	}
}

// deliverSource returns the endpoint currently serving deliver streams and
// how much chain prefix it may serve: the current Raft leader over the
// prefix it has itself applied (a freshly elected leader mid-replay must not
// stream blocks it has not reached). A nil endpoint means the ordering
// service is silent: no consenter currently leads (crashed, election in
// progress, quorum lost).
func (n *Network) deliverSource() (*transport.SimEndpoint, int) {
	l := n.cluster.leader
	if l < 0 || n.cluster.down[l] {
		return nil, 0
	}
	limit := n.cluster.height[l]
	if limit > len(n.chain) {
		limit = len(n.chain)
	}
	return n.cluster.eps[l], limit
}

// pumpOrg advances one organization's deliver stream: it streams the
// undelivered chain suffix to the lowest-id live peer the serving endpoint
// can currently reach (a partition can leave the elected leader on the far
// side, in which case the orderer serves the leader of its own side). When
// the stream target changes — failover to another peer, a restarted leader
// reopening its session, or a consenter leadership change resetting every
// session — the stream rewinds to the new leader's own
// ledger height, exactly how Fabric leaders pull blocks from the ordering
// service starting at their current height.
func (n *Network) pumpOrg(org int) {
	src, limit := n.deliverSource()
	if src == nil {
		n.lastLead[org] = -1
		return
	}
	d := n.Orgs[org]
	target := -1
	for g := d.Lo; g < d.Hi; g++ {
		if !n.crashed[g] && n.Net.Reachable(src.ID(), wire.NodeID(g)) {
			target = g
			break
		}
	}
	if target < 0 {
		n.lastLead[org] = -1
		return
	}
	if n.lastLead[org] != target {
		n.lastLead[org] = target
		h := n.Cores[target].Height()
		pos := n.nextIdx[org]
		for pos > 0 && n.chain[pos-1].Num >= h {
			pos--
		}
		n.nextIdx[org] = pos
	}
	for sent := 0; n.nextIdx[org] < limit && sent < redeliverBatch; sent++ {
		b := n.chain[n.nextIdx[org]]
		redelivery := n.nextIdx[org] < n.highWater[org]
		_ = src.Send(wire.NodeID(target), &wire.DeliverBlock{Block: b})
		n.nextIdx[org]++
		if n.nextIdx[org] > n.highWater[org] {
			n.highWater[org] = n.nextIdx[org]
			now := n.Engine.Now()
			if last := n.lastDeliverAt[org]; last >= 0 {
				if gap := now - last; gap > n.maxDeliverGap[org] {
					n.maxDeliverGap[org] = gap
				}
			}
			n.lastDeliverAt[org] = now
		}
		if n.onDeliver != nil {
			n.onDeliver(org, target, b, redelivery)
		}
	}
}
