// Package raft implements the crash-fault-tolerant replicated log backing
// the ordering service: leader election, log replication and commit, per
// the Raft protocol (Ongaro & Ousterhout). It substitutes for the paper's
// Kafka/ZooKeeper CFT ordering cluster (see DESIGN.md) — Fabric itself made
// the same substitution in v1.4.1.
//
// The implementation covers the consensus core used by the ordering
// service: elections with randomized timeouts, AppendEntries consistency
// repair, majority commit, check-quorum leader step-down, and exactly-once
// in-order application. Log compaction and membership changes are out of
// scope (the ordering cluster is static, as in the paper's deployment).
package raft

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// State is a Raft role.
type State uint8

// Raft roles.
const (
	Follower State = iota + 1
	Candidate
	Leader
)

// String returns the role name.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config parameterizes a Raft node.
type Config struct {
	// ID is this node; Peers lists the whole cluster including ID.
	ID    wire.NodeID
	Peers []wire.NodeID
	// ElectionTimeoutMin/Max bound the randomized election timeout.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// HeartbeatInterval is the leader's idle AppendEntries period. It
	// must be well below the election timeout.
	HeartbeatInterval time.Duration
	// MaxEntriesPerAppend bounds the entries shipped per AppendEntries.
	MaxEntriesPerAppend int
}

// DefaultConfig returns LAN-appropriate timing for the given cluster.
func DefaultConfig(id wire.NodeID, peers []wire.NodeID) Config {
	return Config{
		ID:                  id,
		Peers:               peers,
		ElectionTimeoutMin:  150 * time.Millisecond,
		ElectionTimeoutMax:  300 * time.Millisecond,
		HeartbeatInterval:   50 * time.Millisecond,
		MaxEntriesPerAppend: 64,
	}
}

// ErrNotLeader is returned by Propose on a non-leader that knows no leader
// to forward to.
var ErrNotLeader = errors.New("raft: not the leader")

// Node is one Raft participant.
type Node struct {
	cfg   Config
	ep    transport.Endpoint
	sched sim.Scheduler
	rng   *sim.Rand

	mu       sync.Mutex
	state    State
	term     uint64
	votedFor wire.NodeID
	voted    bool
	leader   wire.NodeID
	hasLead  bool
	// log is 0-indexed internally; Raft indices are 1-based (index 0 is
	// the empty prefix with term 0).
	log         []wire.RaftEntry
	commitIndex uint64
	lastApplied uint64
	votes       map[wire.NodeID]bool
	nextIndex   map[wire.NodeID]uint64
	matchIndex  map[wire.NodeID]uint64
	// inflight marks followers with an unanswered AppendEntries. Proposal
	// and response-driven sends skip those followers, so replication keeps
	// at most one append in flight per follower (each response triggers at
	// most one resend to its sender); without the bound a saturated
	// cluster's append/response traffic feeds on itself and the message
	// population grows without limit. The heartbeat path overrides the
	// bound, so a lost append or response wedges a follower for at most
	// one heartbeat interval.
	inflight map[wire.NodeID]bool
	// lastAck is when each follower last answered an AppendEntries of this
	// leadership (its start, until the first answer): the evidence behind
	// check-quorum.
	lastAck map[wire.NodeID]time.Duration

	electionTimer  sim.Timer
	heartbeatTimer sim.Timer
	stopped        bool

	applyFn func(data []byte)
	// onStateChange is a test/diagnostic hook.
	onStateChange func(State, uint64)
	// onAppend observes log growth: it runs after entries land in the
	// log (leader accept or follower replication), outside the node's
	// lock, with the last appended index and the node's current term.
	onAppend func(index, term uint64)
	// onLeaderChange observes this node's leader view; notifications are
	// delivered asynchronously (After(0)) so the hook may call back into
	// the node (e.g. to flush buffered proposals to a new leader).
	onLeaderChange func(leader wire.NodeID, known bool)
	notifiedLeader wire.NodeID
	notifiedKnown  bool
}

// New creates a node and installs its message handler on the endpoint. The
// node is passive until Start.
func New(cfg Config, ep transport.Endpoint, sched sim.Scheduler, rng *sim.Rand) *Node {
	n := &Node{
		cfg:        cfg,
		ep:         ep,
		sched:      sched,
		rng:        rng,
		state:      Follower,
		votes:      make(map[wire.NodeID]bool),
		nextIndex:  make(map[wire.NodeID]uint64),
		matchIndex: make(map[wire.NodeID]uint64),
		inflight:   make(map[wire.NodeID]bool),
		lastAck:    make(map[wire.NodeID]time.Duration),
	}
	ep.SetHandler(n.handle)
	return n
}

// OnApply installs the committed-entry callback: entries are delivered in
// log order, exactly once per node. Must be set before Start.
func (n *Node) OnApply(fn func(data []byte)) { n.applyFn = fn }

// OnStateChange installs a hook observing role transitions.
func (n *Node) OnStateChange(fn func(State, uint64)) { n.onStateChange = fn }

// OnAppend installs a hook observing log appends (leader accepts and
// follower replication). The hook must not call back into the node.
func (n *Node) OnAppend(fn func(index, term uint64)) { n.onAppend = fn }

// OnLeaderChange installs a hook observing this node's view of the current
// leader: (leader, true) when one is known, (0, false) in leaderless
// windows. Notifications are asynchronous, so the hook may Propose.
func (n *Node) OnLeaderChange(fn func(leader wire.NodeID, known bool)) { n.onLeaderChange = fn }

// Start arms the election timeout. Calling it on a stopped node restarts
// it: Raft roles are volatile, so a restarted node — even an ex-leader —
// rejoins as a follower, keeping its (modelled-durable) term, vote and log.
// The cluster's leader then repairs it by replaying the missed log suffix
// through ordinary AppendEntries.
func (n *Node) Start() {
	n.mu.Lock()
	n.stopped = false
	demoted := n.state != Follower
	if demoted {
		n.state = Follower
	}
	n.hasLead = false
	if n.heartbeatTimer != nil {
		n.heartbeatTimer.Stop()
		n.heartbeatTimer = nil
	}
	n.resetElectionTimerLocked()
	n.noteLeaderLocked()
	term := n.term
	n.mu.Unlock()
	if demoted && n.onStateChange != nil {
		n.onStateChange(Follower, term)
	}
}

// Stop halts all timers and silences the node until the next Start: a
// stopped node neither sends nor reacts to messages (the harness pairs it
// with silencing the endpoint). In-memory term, vote and log survive —
// modelling a crashed orderer whose WAL is durable. Wiping them instead
// would let a restarted node double-vote in a term and break election
// safety.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopped = true
	if n.electionTimer != nil {
		n.electionTimer.Stop()
	}
	if n.heartbeatTimer != nil {
		n.heartbeatTimer.Stop()
	}
}

// Status reports the node's current role, term and leader view.
func (n *Node) Status() (state State, term uint64, leader wire.NodeID, known bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state, n.term, n.leader, n.hasLead
}

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

// Propose appends data to the replicated log. On the leader it is accepted
// locally; on a follower it is forwarded to the known leader. It returns
// ErrNotLeader when no leader is known yet — callers retry.
func (n *Node) Propose(data []byte) error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return errors.New("raft: node stopped")
	}
	if n.state == Leader {
		n.log = append(n.log, wire.RaftEntry{Term: n.term, Data: data})
		n.matchIndex[n.cfg.ID] = n.lastIndexLocked()
		appended, term := n.lastIndexLocked(), n.term
		// A single-node cluster commits immediately.
		n.advanceCommitLocked()
		apply := n.collectApplyLocked()
		n.mu.Unlock()
		if n.onAppend != nil {
			n.onAppend(appended, term)
		}
		n.runApplies(apply)
		n.broadcastAppends(false)
		return nil
	}
	leader, known := n.leader, n.hasLead
	n.mu.Unlock()
	if !known {
		return ErrNotLeader
	}
	n.send(leader, &wire.RaftForward{Data: data})
	return nil
}

// --- helpers (index math; callers hold mu) ---

func (n *Node) lastIndexLocked() uint64 { return uint64(len(n.log)) }

func (n *Node) termAtLocked(index uint64) uint64 {
	if index == 0 {
		return 0
	}
	if index > uint64(len(n.log)) {
		return 0
	}
	return n.log[index-1].Term
}

func (n *Node) majority() int { return len(n.cfg.Peers)/2 + 1 }

func (n *Node) send(to wire.NodeID, msg wire.Message) {
	if to == n.cfg.ID {
		return
	}
	_ = n.ep.Send(to, msg)
}

// --- role transitions (callers hold mu) ---

// noteLeaderLocked schedules an OnLeaderChange notification if the
// (leader, known) view moved since the last one. Asynchronous delivery
// keeps the hook free to call back into the node.
func (n *Node) noteLeaderLocked() {
	if n.onLeaderChange == nil {
		return
	}
	if n.hasLead == n.notifiedKnown && (!n.hasLead || n.leader == n.notifiedLeader) {
		return
	}
	n.notifiedKnown, n.notifiedLeader = n.hasLead, n.leader
	leader, known := n.leader, n.hasLead
	n.sched.After(0, func() { n.onLeaderChange(leader, known) })
}

func (n *Node) becomeFollowerLocked(term uint64) {
	prev := n.state
	n.state = Follower
	if term > n.term {
		n.term = term
		n.voted = false
		// The old leader pointer belongs to a stale term: forwarding
		// proposals to it would silently drop them mid-election.
		n.hasLead = false
		n.noteLeaderLocked()
	}
	if n.heartbeatTimer != nil {
		n.heartbeatTimer.Stop()
		n.heartbeatTimer = nil
	}
	n.resetElectionTimerLocked()
	if prev != Follower && n.onStateChange != nil {
		n.onStateChange(Follower, n.term)
	}
}

func (n *Node) resetElectionTimerLocked() {
	if n.stopped {
		return
	}
	if n.electionTimer != nil {
		n.electionTimer.Stop()
	}
	spread := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	d := n.cfg.ElectionTimeoutMin
	if spread > 0 {
		d += time.Duration(n.rng.Int63n(int64(spread)))
	}
	n.electionTimer = n.sched.After(d, n.electionTimeout)
}

func (n *Node) electionTimeout() {
	n.mu.Lock()
	if n.stopped || n.state == Leader {
		n.mu.Unlock()
		return
	}
	// Become candidate.
	n.state = Candidate
	n.term++
	n.voted = true
	n.votedFor = n.cfg.ID
	n.hasLead = false
	n.noteLeaderLocked()
	n.votes = map[wire.NodeID]bool{n.cfg.ID: true}
	term := n.term
	lastIdx := n.lastIndexLocked()
	lastTerm := n.termAtLocked(lastIdx)
	n.resetElectionTimerLocked()
	if n.onStateChange != nil {
		n.onStateChange(Candidate, term)
	}
	peers := n.cfg.Peers
	n.mu.Unlock()

	req := &wire.RaftVoteRequest{
		Term:         term,
		Candidate:    n.cfg.ID,
		LastLogIndex: lastIdx,
		LastLogTerm:  lastTerm,
	}
	for _, p := range peers {
		n.send(p, req)
	}
	// Single-node cluster: immediate leadership.
	n.mu.Lock()
	if n.state == Candidate && len(n.votes) >= n.majority() {
		n.becomeLeaderLocked()
	}
	n.mu.Unlock()
}

func (n *Node) becomeLeaderLocked() {
	n.state = Leader
	n.leader = n.cfg.ID
	n.hasLead = true
	n.noteLeaderLocked()
	last := n.lastIndexLocked()
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = last + 1
		n.matchIndex[p] = 0
		delete(n.inflight, p)
		n.lastAck[p] = n.sched.Now()
	}
	n.matchIndex[n.cfg.ID] = last
	if n.electionTimer != nil {
		n.electionTimer.Stop()
		n.electionTimer = nil
	}
	if n.onStateChange != nil {
		n.onStateChange(Leader, n.term)
	}
	n.armHeartbeatLocked()
	// Send the initial empty heartbeats asynchronously.
	n.sched.After(0, func() { n.broadcastAppends(true) })
}

func (n *Node) armHeartbeatLocked() {
	if n.stopped {
		return
	}
	n.heartbeatTimer = n.sched.After(n.cfg.HeartbeatInterval, func() {
		n.mu.Lock()
		if n.stopped || n.state != Leader {
			n.mu.Unlock()
			return
		}
		if !n.quorumActiveLocked() {
			// Check-quorum: a leader cut off from a majority can commit
			// nothing, so it stops claiming the role (and stops pointing
			// proposers at itself) instead of leading a halted cluster.
			n.hasLead = false
			n.noteLeaderLocked()
			n.becomeFollowerLocked(n.term)
			n.mu.Unlock()
			return
		}
		n.armHeartbeatLocked()
		n.mu.Unlock()
		n.broadcastAppends(true)
	})
}

// quorumActiveLocked reports whether a majority of the cluster (this node
// included) has answered the leader within the last election timeout.
func (n *Node) quorumActiveLocked() bool {
	now := n.sched.Now()
	active := 0
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID || now-n.lastAck[p] <= n.cfg.ElectionTimeoutMin {
			active++
		}
	}
	return active >= n.majority()
}

// broadcastAppends ships log suffixes (or heartbeats) to all followers.
// Followers with an append already in flight are skipped unless force is
// set (the heartbeat and leader-emergence paths force, so a lost message
// never wedges a follower past one heartbeat interval).
func (n *Node) broadcastAppends(force bool) {
	n.mu.Lock()
	if n.state != Leader || n.stopped {
		n.mu.Unlock()
		return
	}
	type out struct {
		to  wire.NodeID
		msg *wire.RaftAppend
	}
	var outs []out
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		if !force && n.inflight[p] {
			continue
		}
		n.inflight[p] = true
		outs = append(outs, out{p, n.buildAppendLocked(p)})
	}
	n.mu.Unlock()
	for _, o := range outs {
		n.send(o.to, o.msg)
	}
}

// sendAppend ships one log suffix (or heartbeat) to a single follower,
// marking its in-flight slot. The append-response path uses it so each
// response triggers at most one resend, to its own sender.
func (n *Node) sendAppend(p wire.NodeID) {
	n.mu.Lock()
	if n.state != Leader || n.stopped {
		n.mu.Unlock()
		return
	}
	n.inflight[p] = true
	msg := n.buildAppendLocked(p)
	n.mu.Unlock()
	n.send(p, msg)
}

func (n *Node) buildAppendLocked(p wire.NodeID) *wire.RaftAppend {
	next := n.nextIndex[p]
	if next == 0 {
		next = 1
	}
	prevIdx := next - 1
	entries := make([]wire.RaftEntry, 0)
	for idx := next; idx <= n.lastIndexLocked() && len(entries) < n.cfg.MaxEntriesPerAppend; idx++ {
		entries = append(entries, n.log[idx-1])
	}
	return &wire.RaftAppend{
		Term:         n.term,
		Leader:       n.cfg.ID,
		PrevLogIndex: prevIdx,
		PrevLogTerm:  n.termAtLocked(prevIdx),
		Entries:      entries,
		LeaderCommit: n.commitIndex,
	}
}

// --- message handling ---

// Handle feeds one incoming message into the node. New installs it as the
// endpoint's handler; hosts that multiplex the endpoint (the harness's
// consenter endpoints also accept client Broadcast traffic) demux and call
// it directly.
func (n *Node) Handle(from wire.NodeID, msg wire.Message) { n.handle(from, msg) }

func (n *Node) handle(from wire.NodeID, msg wire.Message) {
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if stopped {
		return // a crashed node must not vote, append or respond
	}
	switch m := msg.(type) {
	case *wire.RaftVoteRequest:
		n.handleVoteRequest(from, m)
	case *wire.RaftVoteResponse:
		n.handleVoteResponse(from, m)
	case *wire.RaftAppend:
		n.handleAppend(from, m)
	case *wire.RaftAppendResponse:
		n.handleAppendResponse(from, m)
	case *wire.RaftForward:
		_ = n.Propose(m.Data)
	}
}

func (n *Node) handleVoteRequest(from wire.NodeID, m *wire.RaftVoteRequest) {
	n.mu.Lock()
	if m.Term > n.term {
		n.becomeFollowerLocked(m.Term)
	}
	grant := false
	if m.Term == n.term && (!n.voted || n.votedFor == m.Candidate) {
		// Candidate's log must be at least as up-to-date as ours.
		lastIdx := n.lastIndexLocked()
		lastTerm := n.termAtLocked(lastIdx)
		upToDate := m.LastLogTerm > lastTerm ||
			(m.LastLogTerm == lastTerm && m.LastLogIndex >= lastIdx)
		if upToDate {
			grant = true
			n.voted = true
			n.votedFor = m.Candidate
			n.resetElectionTimerLocked()
		}
	}
	term := n.term
	n.mu.Unlock()
	n.send(from, &wire.RaftVoteResponse{Term: term, Granted: grant})
}

func (n *Node) handleVoteResponse(from wire.NodeID, m *wire.RaftVoteResponse) {
	n.mu.Lock()
	if m.Term > n.term {
		n.becomeFollowerLocked(m.Term)
		n.mu.Unlock()
		return
	}
	if n.state != Candidate || m.Term < n.term || !m.Granted {
		n.mu.Unlock()
		return
	}
	n.votes[from] = true
	if len(n.votes) >= n.majority() {
		n.becomeLeaderLocked()
	}
	n.mu.Unlock()
}

func (n *Node) handleAppend(from wire.NodeID, m *wire.RaftAppend) {
	n.mu.Lock()
	if m.Term < n.term {
		term := n.term
		n.mu.Unlock()
		n.send(from, &wire.RaftAppendResponse{Term: term, Success: false, MatchIndex: 0})
		return
	}
	if m.Term > n.term || n.state != Follower {
		n.becomeFollowerLocked(m.Term)
	} else {
		n.resetElectionTimerLocked()
	}
	n.leader = m.Leader
	n.hasLead = true
	n.noteLeaderLocked()

	// Consistency check.
	if m.PrevLogIndex > n.lastIndexLocked() || n.termAtLocked(m.PrevLogIndex) != m.PrevLogTerm {
		// Hint the leader to back up to our log end (or below the
		// conflicting prefix).
		hint := n.lastIndexLocked()
		if m.PrevLogIndex <= hint {
			hint = m.PrevLogIndex - 1
		}
		term := n.term
		n.mu.Unlock()
		n.send(from, &wire.RaftAppendResponse{Term: term, Success: false, MatchIndex: hint})
		return
	}
	// Append entries, truncating on conflict.
	idx := m.PrevLogIndex
	grew := false
	for _, e := range m.Entries {
		idx++
		if idx <= n.lastIndexLocked() {
			if n.log[idx-1].Term == e.Term {
				continue // already have it
			}
			n.log = n.log[:idx-1] // conflict: truncate suffix
		}
		n.log = append(n.log, e)
		grew = true
	}
	match := m.PrevLogIndex + uint64(len(m.Entries))
	if m.LeaderCommit > n.commitIndex {
		c := m.LeaderCommit
		if last := n.lastIndexLocked(); c > last {
			c = last
		}
		n.commitIndex = c
	}
	term := n.term
	appended := n.lastIndexLocked()
	apply := n.collectApplyLocked()
	n.mu.Unlock()

	if grew && n.onAppend != nil {
		n.onAppend(appended, term)
	}
	n.runApplies(apply)
	n.send(from, &wire.RaftAppendResponse{Term: term, Success: true, MatchIndex: match})
}

func (n *Node) handleAppendResponse(from wire.NodeID, m *wire.RaftAppendResponse) {
	n.mu.Lock()
	delete(n.inflight, from)
	if m.Term > n.term {
		n.becomeFollowerLocked(m.Term)
		n.mu.Unlock()
		return
	}
	if n.state != Leader || m.Term < n.term {
		n.mu.Unlock()
		return
	}
	n.lastAck[from] = n.sched.Now()
	resend := false
	if m.Success {
		if m.MatchIndex > n.matchIndex[from] {
			n.matchIndex[from] = m.MatchIndex
		}
		n.nextIndex[from] = m.MatchIndex + 1
		n.advanceCommitLocked()
		resend = n.nextIndex[from] <= n.lastIndexLocked()
	} else {
		next := m.MatchIndex + 1
		if next < 1 {
			next = 1
		}
		if next < n.nextIndex[from] {
			n.nextIndex[from] = next
		} else if n.nextIndex[from] > 1 {
			n.nextIndex[from]--
		}
		resend = true
	}
	apply := n.collectApplyLocked()
	n.mu.Unlock()

	n.runApplies(apply)
	if resend {
		n.sendAppend(from)
	}
}

// advanceCommitLocked moves commitIndex to the highest majority-replicated
// index of the current term (Raft's commit rule).
func (n *Node) advanceCommitLocked() {
	for idx := n.lastIndexLocked(); idx > n.commitIndex; idx-- {
		if n.termAtLocked(idx) != n.term {
			break // only current-term entries commit by counting
		}
		count := 0
		for _, p := range n.cfg.Peers {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if count >= n.majority() {
			n.commitIndex = idx
			break
		}
	}
}

// collectApplyLocked returns the newly committed entries to apply.
func (n *Node) collectApplyLocked() []wire.RaftEntry {
	if n.applyFn == nil || n.lastApplied >= n.commitIndex {
		return nil
	}
	out := make([]wire.RaftEntry, 0, n.commitIndex-n.lastApplied)
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		out = append(out, n.log[n.lastApplied-1])
	}
	return out
}

func (n *Node) runApplies(entries []wire.RaftEntry) {
	for _, e := range entries {
		n.applyFn(e.Data)
	}
}
