// Package scenario is a declarative, deterministic runner for large-scale
// fault and churn experiments against both gossip protocols. A Scenario is
// a timed script of fault actions — peer crashes and restarts (rejoining
// peers catch up through the recovery component), network partitions and
// heals, slow links, leader failover, packet loss, and staggered joins —
// executed on the discrete-event engine, so the same seed reproduces the
// same run byte for byte at any scale, including thousand-peer networks.
//
// Scenarios run on a multi-organization harness.Network (the paper's
// Figure 1 shape): a Topology of N organizations times M peers, each
// organization an isolated gossip domain with its own protocol choice and
// dynamic leader, fed by one ordering service. Actions address peers by
// global index or whole organizations (CrashOrg, RestartOrg,
// CrashOrgLeader, IsolateOrgs), and reports carry per-organization
// summaries next to the aggregate. The single-organization catalog entries
// are the Orgs=1 special case.
//
// The built-in catalog (see Catalog) covers the fault classes the paper's
// evaluation leaves out (§V runs a single fault-free organization); the
// runner reports per-scenario recovery latency, bandwidth overhead and the
// ordering invariants every surviving peer must keep.
package scenario

import (
	"fmt"
	"time"

	"fabricgossip/internal/harness"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/wire"
	"fabricgossip/internal/workload"
)

// Scenario is a declarative fault experiment: a dissemination workload plus
// a script of timed fault events. Times are absolute virtual times from the
// start of the run.
type Scenario struct {
	Name        string
	Description string

	// Blocks blocks are injected at the current leader every
	// BlockInterval, starting at Warmup (which gives membership heartbeats
	// time to form the initial view).
	Blocks        int
	BlockInterval time.Duration
	Warmup        time.Duration
	// Tail is how long the run continues after the last injection —
	// the window in which recovery must close every gap.
	Tail time.Duration

	// InitialDown lists peers (global indices) that start crashed and join
	// later via a Restart event — staggered-join and whole-org cold-join
	// scenarios. The ordering service streams the backlog to whichever
	// leader eventually appears, so even an organization's lowest-id peer
	// may start down.
	InitialDown []int

	// OrgVariants optionally pins a protocol per organization (index =
	// org), overriding the run's variant — mixed original/enhanced
	// networks. Entries beyond the topology's org count are ignored;
	// missing entries inherit the run's variant.
	OrgVariants []harness.Variant

	// AnchorRecovery enables cross-organization state transfer through
	// anchor peers (harness.NetworkParams.AnchorRecovery): when the
	// ordering service goes silent, an organization's leader fetches
	// missing blocks from remote orgs' anchors. Off by default, so
	// pre-existing scripts are unaffected.
	AnchorRecovery bool
	// SwimMembership enables the SWIM-style membership extensions on
	// every peer (internal/membership): piggybacked event dissemination,
	// suspicion with refutation, and periodic view shuffling, at the
	// runner's default knobs. Off by default, so pre-existing scripts run
	// byte-identically.
	SwimMembership bool
	// MeasureMembership samples every live peer's membership view twice a
	// second (after Warmup) and reports view completeness and
	// leader-convergence time. It is independent of SwimMembership so the
	// same script can be measured with the mechanisms disabled — the
	// sparse-baseline comparison the load-bearing tests rely on. Off by
	// default (the sampling perturbs nothing, but its engine events would
	// move pre-existing fingerprints).
	MeasureMembership bool
	// WANDelay separates each organization (and the ordering service)
	// onto its own WAN site with this much extra one-way inter-site
	// latency. Zero keeps the single shared LAN.
	WANDelay time.Duration

	// Consenters is the size of the Raft cluster that is the ordering
	// service (harness.NetworkParams.Consenters; default 1). Leader
	// elections, minority loss and WAN-separated consenters are scripted
	// via the consenter actions below; every report carries the
	// ordering-cluster section (election count, leaderless time, deliver
	// gap, anchor probes). Options.Consenters overrides it per run.
	Consenters int
	// ConsenterSpread, with WANDelay, scatters the consenters across the
	// organizations' WAN sites instead of one shared ordering site.
	ConsenterSpread bool

	// Sharded is read by nothing: the shard layout follows from WANDelay
	// and ConsenterSpread (harness.NetworkParams). Declared until bench/
	// stops copying it.
	Sharded bool

	// Workload, when set, installs the transaction workload plane
	// (internal/workload): client populations drive endorsed transactions
	// through the full execute-order-validate pipeline, with blocks cut by
	// a real ordering service instead of the premade chain — so Blocks
	// must be 0. The submission window is scripted with StartWorkload and
	// StopWorkload events. Nil (the default) keeps the premade-chain
	// dissemination workload, byte-identical to before.
	Workload *workload.Config

	Events []Event
}

// End returns the virtual time the run finishes: the later of the last
// injection and the last event, plus Tail.
func (s Scenario) End() time.Duration {
	end := s.Warmup
	if s.Blocks > 0 {
		end += time.Duration(s.Blocks-1) * s.BlockInterval
	}
	for _, ev := range s.Events {
		if ev.At > end {
			end = ev.At
		}
	}
	return end + s.Tail
}

// Event schedules one fault action at an absolute virtual time.
type Event struct {
	At     time.Duration
	Action Action
}

// Action is one scripted fault operation. Implementations mutate the
// running organization through the runner.
type Action interface {
	apply(r *runner)
	// String describes the action for the run trace.
	String() string
}

// CrashPeers fails the listed peers: their cores stop and the network
// silences their endpoints.
type CrashPeers struct{ Peers []int }

func (a CrashPeers) apply(r *runner) {
	for _, i := range a.Peers {
		r.crash(i)
	}
}

func (a CrashPeers) String() string { return "crash peers " + rangeSpec(a.Peers) }

// CrashLeader fails organization 0's current leader (the lowest-id live
// peer, which is where the ordering service delivers); subsequent blocks go
// to the next live peer — the leader-failover path. For other organizations
// use CrashOrgLeader.
type CrashLeader struct{}

func (a CrashLeader) apply(r *runner) {
	if leader := r.net.OrgLeader(0); leader >= 0 {
		r.crash(leader)
	}
}

func (a CrashLeader) String() string { return "crash leader" }

// CrashOrg fails every live peer of one organization at once — a site-wide
// outage of a single member of the consortium.
type CrashOrg struct{ Org int }

func (a CrashOrg) apply(r *runner) {
	for _, i := range r.top.OrgSpan(a.Org) {
		r.crash(i)
	}
}

func (a CrashOrg) String() string { return fmt.Sprintf("crash org %d", a.Org) }

// RestartOrg revives every crashed peer of one organization with fresh
// cores and empty block stores: the whole-org cold-join path, caught up by
// the ordering service's deliver stream plus intra-org recovery.
type RestartOrg struct{ Org int }

func (a RestartOrg) apply(r *runner) {
	for _, i := range r.top.OrgSpan(a.Org) {
		if r.net.Crashed(i) {
			r.restart(i)
		}
	}
}

func (a RestartOrg) String() string { return fmt.Sprintf("restart org %d", a.Org) }

// CrashOrgLeader fails the named organization's current leader; the
// ordering service fails its deliver stream over to the organization's next
// live peer while other organizations disseminate undisturbed.
type CrashOrgLeader struct{ Org int }

func (a CrashOrgLeader) apply(r *runner) {
	if leader := r.net.OrgLeader(a.Org); leader >= 0 {
		r.crash(leader)
	}
}

func (a CrashOrgLeader) String() string { return fmt.Sprintf("crash leader of org %d", a.Org) }

// IsolateOrgs partitions the network so each listed organization can only
// talk within itself; everyone else (remaining organizations plus the
// ordering service) stays connected. Heal with HealPartition. The ordering
// service re-streams the missed backlog once the partition heals.
type IsolateOrgs struct{ Orgs []int }

func (a IsolateOrgs) apply(r *runner) { r.isolateOrgs(a.Orgs) }

func (a IsolateOrgs) String() string {
	return fmt.Sprintf("isolate orgs %v", a.Orgs)
}

// CrashOrderer fails the ordering service itself: every organization's
// deliver stream dies and no new blocks enter any organization until
// RestartOrderer. Combined with an org-wide crash, this is the outage the
// anchor-peer recovery path exists for — without AnchorRecovery the downed
// organization can never catch up.
type CrashOrderer struct{}

func (a CrashOrderer) apply(r *runner) { r.net.CrashOrderer() }

func (a CrashOrderer) String() string { return "crash orderer" }

// RestartOrderer revives a crashed ordering service; once a consenter
// leads again the durable chain resumes streaming to each organization's
// current leader.
type RestartOrderer struct{}

func (a RestartOrderer) apply(r *runner) { r.net.RestartOrderer() }

func (a RestartOrderer) String() string { return "restart orderer" }

// CrashConsenter fails one ordering-cluster consenter: its Raft node stops
// and its endpoint goes silent. Crashing a minority leaves ordering live (after an election
// if the leader died); crashing a majority halts ordering entirely until
// enough consenters restart.
type CrashConsenter struct{ Consenter int }

func (a CrashConsenter) apply(r *runner) { r.net.CrashConsenter(a.Consenter) }

func (a CrashConsenter) String() string { return fmt.Sprintf("crash consenter %d", a.Consenter) }

// RestartConsenter revives a crashed consenter: it rejoins as a follower
// and catches up by Raft log replay from its durable log.
type RestartConsenter struct{ Consenter int }

func (a RestartConsenter) apply(r *runner) { r.net.RestartConsenter(a.Consenter) }

func (a RestartConsenter) String() string { return fmt.Sprintf("restart consenter %d", a.Consenter) }

// CrashConsenterLeader fails whichever consenter currently leads the
// ordering cluster — the forced-election fault. No-op while no consenter
// leads (already mid-election).
type CrashConsenterLeader struct{}

func (a CrashConsenterLeader) apply(r *runner) {
	if l := r.net.ConsenterLeader(); l >= 0 {
		r.emit(r.ctl(), obs.Event{At: r.net.Engine.Now(), Kind: obs.EvFaultTarget, Node: int32(l), Peer: -1})
		r.net.CrashConsenter(l)
	}
}

func (a CrashConsenterLeader) String() string { return "crash consenter leader" }

// IsolateConsenters partitions the listed consenters (together, as one
// group) from the rest of the network: peers, clients and the remaining
// consenters stay connected. Isolating a minority forces the majority side
// to re-elect if the leader was cut off; heal with HealPartition.
type IsolateConsenters struct{ Consenters []int }

func (a IsolateConsenters) apply(r *runner) { r.isolateConsenters(a.Consenters) }

func (a IsolateConsenters) String() string {
	return fmt.Sprintf("isolate consenters %v", a.Consenters)
}

// RestartPeers revives the listed peers with fresh cores and empty block
// stores: the rejoin-with-catchup path through state info + recovery.
type RestartPeers struct{ Peers []int }

func (a RestartPeers) apply(r *runner) {
	for _, i := range a.Peers {
		r.restart(i)
	}
}

func (a RestartPeers) String() string { return "restart peers " + rangeSpec(a.Peers) }

// RestartAll revives every crashed peer.
type RestartAll struct{}

func (a RestartAll) apply(r *runner) {
	for i := 0; i < r.net.TotalPeers(); i++ {
		if r.net.Crashed(i) {
			r.restart(i)
		}
	}
}

func (a RestartAll) String() string { return "restart all crashed peers" }

// PartitionSplit cuts the network in two: peers with index < Split on one
// side, the rest on the other. The ordering service stays with the first
// side (it keeps feeding whichever leader it can reach there).
type PartitionSplit struct{ Split int }

func (a PartitionSplit) apply(r *runner) { r.partition(a.Split) }

func (a PartitionSplit) String() string {
	return fmt.Sprintf("partition at peer %d", a.Split)
}

// HealPartition removes the active partition.
type HealPartition struct{}

func (a HealPartition) apply(r *runner) { r.net.Net.Heal() }

func (a HealPartition) String() string { return "heal partition" }

// SlowPeers adds Extra one-way latency to every message entering or leaving
// the listed peers (straggler hosts, WAN-attached org members). Extra <= 0
// clears the override.
type SlowPeers struct {
	Peers []int
	Extra time.Duration
}

func (a SlowPeers) apply(r *runner) {
	for _, i := range a.Peers {
		r.net.Net.SetNodeExtraDelay(wire.NodeID(i), a.Extra)
	}
}

func (a SlowPeers) String() string {
	if a.Extra <= 0 {
		return "clear slow peers " + rangeSpec(a.Peers)
	}
	return fmt.Sprintf("slow peers %s by %v", rangeSpec(a.Peers), a.Extra)
}

// PacketLoss sets the network-wide uniform message loss probability.
type PacketLoss struct{ Rate float64 }

func (a PacketLoss) apply(r *runner) { r.net.Net.SetDropRate(a.Rate) }

func (a PacketLoss) String() string {
	return fmt.Sprintf("packet loss %.0f%%", a.Rate*100)
}

// StartWorkload opens the workload plane's submission window: every client
// begins its arrival process. Requires Scenario.Workload.
type StartWorkload struct{}

func (a StartWorkload) apply(r *runner) { r.plane.Start() }

func (a StartWorkload) String() string { return "start workload" }

// StopWorkload closes the submission window: no new transactions are
// submitted, in-flight ones still resolve and count. Requires
// Scenario.Workload.
type StopWorkload struct{}

func (a StopWorkload) apply(r *runner) { r.plane.Stop() }

func (a StopWorkload) String() string { return "stop workload" }

// rangeSpec compactly formats a peer index list: contiguous ascending runs
// print as "a..b", anything else as an explicit count.
func rangeSpec(peers []int) string {
	switch len(peers) {
	case 0:
		return "(none)"
	case 1:
		return fmt.Sprintf("%d", peers[0])
	}
	contiguous := true
	for i := 1; i < len(peers); i++ {
		if peers[i] != peers[i-1]+1 {
			contiguous = false
			break
		}
	}
	if contiguous {
		return fmt.Sprintf("%d..%d", peers[0], peers[len(peers)-1])
	}
	return fmt.Sprintf("(%d peers)", len(peers))
}

// span returns [lo, hi) as an index list.
func span(lo, hi int) []int {
	if hi <= lo {
		return nil
	}
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
