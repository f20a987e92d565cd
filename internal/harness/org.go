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
// substrate of the paper's experiments (RunDissemination,
// RunConflictExperiment) and is fault-free by design: every peer stays up,
// peer 0 leads, nothing partitions. Crashes, restarts, leader failover and
// everything else the fault-scenario runner (internal/scenario) scripts
// live on Network.
type Org struct {
	Params  Params
	Engine  *sim.Engine
	Net     *transport.SimNetwork
	Traffic *netmodel.Traffic
	Peers   []wire.NodeID
	Cores   []*gossip.Core
	Orderer *transport.SimEndpoint

	onCore func(i int, c *gossip.Core)
}

// OrgOption tweaks organization construction.
type OrgOption func(*Org)

// WithCoreHook installs f to run for every core before it starts, so the
// caller can attach measurement hooks (OnFirstReception, OnCommit) or wrap
// the core in a committing peer.
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
	o := &Org{Params: p, Engine: sim.NewEngine(p.Seed)}
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
	for i := range o.Cores {
		o.Cores[i] = o.buildCore(i, o.Net.AddNode())
	}
	o.Orderer = o.Net.AddNode()
	return o, nil
}

// buildCore constructs peer i's core (and protocol instance) on its
// endpoint and runs the core hook.
func (o *Org) buildCore(i int, ep *transport.SimEndpoint) *gossip.Core {
	var proto gossip.Protocol
	switch o.Params.Variant {
	case VariantOriginal:
		proto = original.New(o.Params.Original)
	default:
		proto = enhanced.New(o.Params.Enhanced)
	}
	core := gossip.New(gossip.DefaultConfig(ep.ID(), o.Peers), ep, o.Engine, o.Engine.Rand("gossip"), proto)
	if o.onCore != nil {
		o.onCore(i, core)
	}
	return core
}

// StartAll starts every peer's core.
func (o *Org) StartAll() {
	for _, c := range o.Cores {
		c.Start()
	}
}

// StopAll stops every peer's core.
func (o *Org) StopAll() {
	for _, c := range o.Cores {
		c.Stop()
	}
}

// DeliverBlock sends b from the ordering service to the organization's
// leader, peer 0, and reports that index (the signature bench/ compiles
// against; with no faults the target never varies).
func (o *Org) DeliverBlock(b *ledger.Block) int {
	_ = o.Orderer.Send(o.Peers[0], &wire.DeliverBlock{Block: b})
	return 0
}
