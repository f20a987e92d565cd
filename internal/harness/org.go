package harness

import (
	"fmt"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/gossip/original"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// Org is a simulated organization: one gossip core per peer over a
// simulated network on a plain sim.Engine, plus an ordering-service endpoint
// that delivers cut blocks to the organization's leader peer. It is the
// substrate of the paper's dissemination experiments (RunDissemination);
// the fault-scenario runner (internal/scenario) is built on Network.
type Org struct {
	Params  Params
	Engine  *sim.Engine
	Net     *transport.SimNetwork
	Traffic *netmodel.Traffic
	Peers   []wire.NodeID
	Cores   []*gossip.Core
	Orderer *transport.SimEndpoint

	tune    func(self wire.NodeID, cfg *gossip.Config)
	onCore  func(i int, c *gossip.Core)
	eps     []*transport.SimEndpoint
	crashed []bool
}

// OrgOption tweaks organization construction.
type OrgOption func(*Org)

// WithGossipTune adjusts each peer's shared gossip configuration (timer
// intervals, fanouts) before the core is built. It also applies to the
// fresh core a Restart creates.
func WithGossipTune(f func(self wire.NodeID, cfg *gossip.Config)) OrgOption {
	return func(o *Org) { o.tune = f }
}

// WithCoreHook installs f to run for every core before it starts — at
// construction and again for each core recreated by Restart — so
// measurement hooks (OnFirstReception, OnCommit, OnPeerStateChange) survive
// peer churn.
func WithCoreHook(f func(i int, c *gossip.Core)) OrgOption {
	return func(o *Org) { o.onCore = f }
}

// NewOrg builds (but does not start) an organization of p.NumPeers peers
// over the calibrated LAN model. Peer ids are 0..NumPeers-1; the orderer
// endpoint is the last node so ids match the historical layout of
// RunDissemination.
func NewOrg(p Params, opts ...OrgOption) (*Org, error) {
	if p.NumPeers < 2 {
		return nil, fmt.Errorf("harness: need at least 2 peers, got %d", p.NumPeers)
	}
	if p.Variant != VariantOriginal && p.Variant != VariantEnhanced {
		return nil, fmt.Errorf("harness: unknown variant %q", p.Variant)
	}
	o := &Org{
		Params:  p,
		Engine:  sim.NewEngine(p.Seed),
		crashed: make([]bool, p.NumPeers),
	}
	for _, opt := range opts {
		opt(o)
	}
	o.Traffic = netmodel.NewSimTraffic(p.Bucket)
	o.Net = transport.NewSimNetwork(o.Engine, netmodel.LAN(), o.Traffic)
	o.Peers = make([]wire.NodeID, p.NumPeers)
	for i := range o.Peers {
		o.Peers[i] = wire.NodeID(i)
	}
	o.Cores = make([]*gossip.Core, p.NumPeers)
	o.eps = make([]*transport.SimEndpoint, p.NumPeers)
	for i := 0; i < p.NumPeers; i++ {
		o.eps[i] = o.Net.AddNode()
		o.Cores[i] = o.buildCore(i)
	}
	o.Orderer = o.Net.AddNode()
	return o, nil
}

// buildCore constructs a fresh core (and protocol instance) for peer i on
// its existing endpoint and runs the core hook.
func (o *Org) buildCore(i int) *gossip.Core {
	ep := o.eps[i]
	cfg := gossip.DefaultConfig(ep.ID(), o.Peers)
	if o.tune != nil {
		o.tune(ep.ID(), &cfg)
	}
	core := gossip.New(cfg, ep, o.Engine, o.Engine.Rand("gossip"), o.newProtocol())
	if o.onCore != nil {
		o.onCore(i, core)
	}
	return core
}

func (o *Org) newProtocol() gossip.Protocol {
	switch o.Params.Variant {
	case VariantOriginal:
		return original.New(o.Params.Original)
	default:
		return enhanced.New(o.Params.Enhanced)
	}
}

// StartAll starts every peer's core.
func (o *Org) StartAll() {
	for _, c := range o.Cores {
		c.Start()
	}
}

// StopAll stops every non-crashed peer's core.
func (o *Org) StopAll() {
	for i, c := range o.Cores {
		if !o.crashed[i] {
			c.Stop()
		}
	}
}

// Crash fails peer i: its core stops (all timers cancelled, messages
// ignored) and the network silences its endpoint. No-op if already crashed.
func (o *Org) Crash(i int) {
	if o.crashed[i] {
		return
	}
	o.crashed[i] = true
	o.Cores[i].Stop()
	o.Net.SetNodeDown(wire.NodeID(i), true)
}

// Restart revives a crashed peer with a fresh core and empty block store —
// the rejoin-with-catchup path: the peer must learn the current height from
// state info and close the gap through the recovery component. The new core
// is started and returned. No-op (returning the current core) if the peer
// is not crashed.
func (o *Org) Restart(i int) *gossip.Core {
	if !o.crashed[i] {
		return o.Cores[i]
	}
	o.crashed[i] = false
	o.Net.SetNodeDown(wire.NodeID(i), false)
	core := o.buildCore(i)
	o.Cores[i] = core
	core.Start()
	return core
}

// Crashed reports whether peer i is currently crashed.
func (o *Org) Crashed(i int) bool { return o.crashed[i] }

// LiveCount returns the number of non-crashed peers.
func (o *Org) LiveCount() int {
	n := 0
	for _, down := range o.crashed {
		if !down {
			n++
		}
	}
	return n
}

// Leader returns the index of the lowest-id non-crashed peer (the
// convergence point of Fabric's dynamic leader election, matching
// membership.View.Leader). Returns -1 if every peer is crashed.
func (o *Org) Leader() int {
	for i, down := range o.crashed {
		if !down {
			return i
		}
	}
	return -1
}

// DeliverBlock sends b from the ordering service to the lowest-id live
// peer the orderer can currently reach — a partition can leave the elected
// leader on the far side, in which case the orderer feeds the leader of
// its own side, exactly as a real ordering service keeps serving whichever
// peers still hold a connection. Reports the index it targeted, or -1 if
// no live peer is reachable (the block is dropped).
func (o *Org) DeliverBlock(b *ledger.Block) int {
	for i, down := range o.crashed {
		if !down && o.Net.Reachable(o.Orderer.ID(), wire.NodeID(i)) {
			_ = o.Orderer.Send(wire.NodeID(i), &wire.DeliverBlock{Block: b})
			return i
		}
	}
	return -1
}
