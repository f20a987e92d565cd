// Package raft implements the crash-fault-tolerant replicated log backing
// the ordering service: leader election, log replication and commit, per
// the Raft protocol (Ongaro & Ousterhout). It substitutes for the paper's
// Kafka/ZooKeeper CFT ordering cluster — Fabric itself made the same
// substitution in v1.4.1.
//
// The implementation covers the consensus core used by the ordering
// service: elections with randomized timeouts, AppendEntries consistency
// repair, majority commit, check-quorum leader step-down, exactly-once
// in-order application and log compaction. Membership changes are out of
// scope (the ordering cluster is static, as in the paper's deployment).
//
// Compaction needs no snapshot. Every append carries the leader's low-water
// mark, its lowest match over all followers, and every node drops the
// entries at or below min(low-water, its applied index). Those entries are
// committed and held by every node of the cluster, so no leader, present or
// future, will ever have to ship them. A follower that has not answered the
// current leader counts as match 0, and a crashed one keeps its last match,
// so either pins the log until it is repaired by ordinary AppendEntries.
//
// Replication ships each log index to each follower once: the leader keeps
// one progress record per follower (see progress) and sends nothing the
// follower is known to hold or has already been sent.
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

// Config names a Raft node and its cluster.
type Config struct {
	// ID is this node; Peers lists the whole cluster including ID.
	ID    wire.NodeID
	Peers []wire.NodeID
}

// DefaultConfig returns the config of node id in the cluster peers.
func DefaultConfig(id wire.NodeID, peers []wire.NodeID) Config {
	return Config{ID: id, Peers: peers}
}

// Raft timing is the Raft paper's LAN profile (Ongaro & Ousterhout, USENIX
// ATC 2014): election timeouts drawn from [electionTimeoutMin,
// electionTimeoutMax), a heartbeat well below them, and at most
// maxEntriesPerAppend entries shipped per AppendEntries.
const (
	electionTimeoutMin  = 150 * time.Millisecond
	electionTimeoutMax  = 300 * time.Millisecond
	heartbeatInterval   = 50 * time.Millisecond
	maxEntriesPerAppend = 64
)

// ErrNotLeader is returned by Propose on a non-leader that knows no leader
// to forward to.
var ErrNotLeader = errors.New("raft: not the leader")

// progress is what the leader knows about one follower's log, kept in the
// etcd "replicate" style so that every index crosses the link once:
//
//   - next advances when entries are sent, not when they are acknowledged,
//     so nothing already on the wire is shipped again;
//   - an answer only ever moves match and next forward (answers reorder in
//     flight), and a reject — the follower's hint — is the one thing that
//     moves next back, never below match+1;
//   - at most one entries-bearing append is outstanding: proposals that
//     arrive meanwhile leave as one batch on its answer, which also bounds
//     the append/response population of a saturated cluster;
//   - while it is outstanding, heartbeats are empty appends anchored at
//     match: they always pass the follower's consistency check, carry the
//     commit index and feed check-quorum, and their answers (MatchIndex ==
//     match) change nothing here;
//   - an append unanswered for electionTimeoutMin — the silence check-quorum
//     counts as absence — is written off, not re-sent: the next append is
//     anchored at next-1 again, and the follower's verdict on it (success if
//     only the answer was lost, else a hint) says exactly what to re-ship.
type progress struct {
	// match is the highest index known replicated on the follower; next
	// is the first index not yet sent to it. next > match always.
	match, next uint64
	// pendingUntil is when the outstanding entries-bearing append is
	// written off; zero once it is answered.
	pendingUntil time.Duration
	// lastAck is when the follower last answered an append of this
	// leadership (its start, until the first answer): the evidence behind
	// check-quorum.
	lastAck time.Duration
}

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
	// log holds Raft indices base+1 .. base+len(log). Raft indices are
	// 1-based; everything at or below base is compacted, and baseTerm is
	// base's term (index 0 is the empty prefix with term 0).
	log            []wire.RaftEntry
	base, baseTerm uint64
	// dead counts the compacted entries still in log's backing array;
	// peakLog is the longest the log has been.
	dead, peakLog int
	commitIndex   uint64
	lastApplied   uint64
	votes         map[wire.NodeID]bool
	// progress is the leader's replication state, one record per follower,
	// rebuilt at every election win.
	progress map[wire.NodeID]*progress
	// shipped counts the entries this node has put on the wire as leader;
	// redundant counts the received entries this node already held.
	shipped, redundant uint64

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
		cfg:   cfg,
		ep:    ep,
		sched: sched,
		rng:   rng,
		state: Follower,
		votes: make(map[wire.NodeID]bool),
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

// Replication reports how many log entries this node has put on the wire
// as leader, and how many of the entries it received it already held — the
// waste a replication discipline is judged by.
func (n *Node) Replication() (shipped, redundant uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.shipped, n.redundant
}

// LogLength reports how many entries the log holds now and the most it has
// held: with compaction, a figure bounded by what is in flight (or by a
// crashed node's lag), not by run length.
func (n *Node) LogLength() (current, peak int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.log), n.peakLog
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
		n.peakLog = max(n.peakLog, len(n.log))
		appended, term := n.lastIndexLocked(), n.term
		// A single-node cluster commits immediately.
		n.advanceCommitLocked()
		apply := n.collectApplyLocked()
		n.compactLocked(n.lowWaterLocked())
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

func (n *Node) lastIndexLocked() uint64 { return n.base + uint64(len(n.log)) }

// entryLocked returns the entry at index, which must lie above base.
func (n *Node) entryLocked(index uint64) wire.RaftEntry { return n.log[index-n.base-1] }

// termAtLocked returns index's term, 0 past the log's end. Asking for a
// compacted index is a broken invariant: no rule may need one.
func (n *Node) termAtLocked(index uint64) uint64 {
	switch {
	case index == n.base:
		return n.baseTerm
	case index < n.base:
		panic(fmt.Sprintf("raft: node %d asked for the term of compacted index %d (base %d)",
			n.cfg.ID, index, n.base))
	case index > n.lastIndexLocked():
		return 0
	}
	return n.entryLocked(index).Term
}

// lowWaterLocked is the leader's lowest match over its followers: the
// prefix every node holds (the whole log on a one-node cluster). A follower
// that has not answered this leadership counts as 0 and a crashed one keeps
// its last match, so either pins the log.
func (n *Node) lowWaterLocked() uint64 {
	low := n.lastIndexLocked()
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			low = min(low, n.progress[p].match)
		}
	}
	return low
}

// compactLocked drops the entries at or below min(lowWater, lastApplied),
// which every node holds and this one has applied. Appends in flight alias
// the log's backing array, so entries are never cleared in place: the live
// suffix moves to a fresh array once at least half of the old one is dead
// (and at least an append's worth, so that a log emptied by every apply, as
// on a one-node cluster, is not re-allocated per entry).
func (n *Node) compactLocked(lowWater uint64) {
	to := min(lowWater, n.lastApplied)
	if to <= n.base {
		return
	}
	n.baseTerm = n.termAtLocked(to)
	drop := int(to - n.base)
	n.log, n.base, n.dead = n.log[drop:], to, n.dead+drop
	if n.dead >= len(n.log) && n.dead >= maxEntriesPerAppend {
		n.log, n.dead = append([]wire.RaftEntry(nil), n.log...), 0
	}
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
	d := electionTimeoutMin + time.Duration(n.rng.Int63n(int64(electionTimeoutMax-electionTimeoutMin)))
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
	// Fresh records: match is unknown until the follower answers the
	// first append, which probes at the end of this leader's log.
	n.progress = make(map[wire.NodeID]*progress, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			n.progress[p] = &progress{next: n.lastIndexLocked() + 1, lastAck: n.sched.Now()}
		}
	}
	if n.electionTimer != nil {
		n.electionTimer.Stop()
		n.electionTimer = nil
	}
	if n.onStateChange != nil {
		n.onStateChange(Leader, n.term)
	}
	n.armHeartbeatLocked()
	// Send the initial empty appends asynchronously.
	n.sched.After(0, func() { n.broadcastAppends(true) })
}

func (n *Node) armHeartbeatLocked() {
	if n.stopped {
		return
	}
	n.heartbeatTimer = n.sched.After(heartbeatInterval, func() {
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
		if p == n.cfg.ID || now-n.progress[p].lastAck <= electionTimeoutMin {
			active++
		}
	}
	return active >= n.majority()
}

// broadcastAppends sends every follower the append it is due: the entries
// it has not been sent yet if nothing is outstanding to it, and on a
// heartbeat an empty append to everyone else, so that each follower hears
// from the leader (and the leader from it) once per heartbeatInterval.
func (n *Node) broadcastAppends(heartbeat bool) {
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
		if msg := n.nextAppendLocked(n.progress[p], heartbeat); msg != nil {
			outs = append(outs, out{p, msg})
		}
	}
	n.mu.Unlock()
	for _, o := range outs {
		n.send(o.to, o.msg)
	}
}

// nextAppendLocked builds the append the follower is due, or nil if it is
// due none. With entries outstanding that is nothing, or on a heartbeat the
// empty append anchored at match; otherwise it is the unsent suffix from
// next (up to maxEntriesPerAppend), and shipping it advances next. An idle
// follower's heartbeat is that same append with no entries, anchored at
// next-1 — which is also how a new leader probes for match.
func (n *Node) nextAppendLocked(pr *progress, heartbeat bool) *wire.RaftAppend {
	now := n.sched.Now()
	prev, last := pr.next-1, n.lastIndexLocked()
	if now < pr.pendingUntil {
		prev, last = pr.match, pr.match
	}
	// Every node holds the compacted prefix, so an append that would
	// reach below base is anchored there.
	prev = max(prev, n.base)
	last = max(last, prev)
	if last == prev && !heartbeat {
		return nil
	}
	last = min(last, prev+uint64(maxEntriesPerAppend))
	if last > prev {
		pr.next = last + 1
		pr.pendingUntil = now + electionTimeoutMin
		n.shipped += last - prev
	}
	return &wire.RaftAppend{
		Term:         n.term,
		Leader:       n.cfg.ID,
		PrevLogIndex: prev,
		PrevLogTerm:  n.termAtLocked(prev),
		// The log's backing array is shared with the message: entries are
		// never overwritten in place (see handleAppend's truncation and
		// compactLocked).
		Entries:      n.log[prev-n.base : last-n.base : last-n.base],
		LeaderCommit: n.commitIndex,
		LowWater:     n.lowWaterLocked(),
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

	// Consistency check. The compacted prefix is committed, so it matches
	// any leader's log.
	if m.PrevLogIndex > n.lastIndexLocked() ||
		m.PrevLogIndex >= n.base && n.termAtLocked(m.PrevLogIndex) != m.PrevLogTerm {
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
			if idx <= n.base || n.entryLocked(idx).Term == e.Term {
				n.redundant++
				continue // already have it
			}
			// Conflict: truncate the suffix. Capping the slice makes the
			// append below copy rather than overwrite, because appends in
			// flight from this node's own leadership alias the old array.
			keep := idx - n.base - 1
			n.log = n.log[:keep:keep]
		}
		n.log = append(n.log, e)
		grew = true
	}
	n.peakLog = max(n.peakLog, len(n.log))
	// Only the prefix this append vouches for may commit: what lies past
	// it (an empty heartbeat is anchored well below the log's end) can be
	// an old leader's suffix that no append has overwritten yet.
	match := m.PrevLogIndex + uint64(len(m.Entries))
	if c := min(m.LeaderCommit, match); c > n.commitIndex {
		n.commitIndex = c
	}
	term := n.term
	appended := n.lastIndexLocked()
	apply := n.collectApplyLocked()
	n.compactLocked(m.LowWater)
	n.mu.Unlock()

	if grew && n.onAppend != nil {
		n.onAppend(appended, term)
	}
	n.runApplies(apply)
	n.send(from, &wire.RaftAppendResponse{Term: term, Success: true, MatchIndex: match})
}

func (n *Node) handleAppendResponse(from wire.NodeID, m *wire.RaftAppendResponse) {
	n.mu.Lock()
	if m.Term > n.term {
		n.becomeFollowerLocked(m.Term)
		n.mu.Unlock()
		return
	}
	pr := n.progress[from]
	if n.state != Leader || m.Term < n.term || pr == nil {
		n.mu.Unlock()
		return
	}
	pr.lastAck = n.sched.Now()
	if m.Success {
		if m.MatchIndex > pr.match {
			pr.match = m.MatchIndex
			pr.next = max(pr.next, pr.match+1)
			n.advanceCommitLocked()
		}
		if pr.match+1 == pr.next {
			pr.pendingUntil = 0
		}
	} else if m.MatchIndex+1 < pr.next {
		// The follower's log ends (or diverges) below what was sent: back
		// up to its hint. A hint at or past next answers an append that
		// an earlier reject has already corrected for.
		pr.next = max(m.MatchIndex, pr.match) + 1
		pr.pendingUntil = 0
	}
	msg := n.nextAppendLocked(pr, false)
	apply := n.collectApplyLocked()
	n.compactLocked(n.lowWaterLocked())
	n.mu.Unlock()

	n.runApplies(apply)
	if msg != nil {
		n.send(from, msg)
	}
}

// advanceCommitLocked moves commitIndex to the highest majority-replicated
// index of the current term (Raft's commit rule).
func (n *Node) advanceCommitLocked() {
	for idx := n.lastIndexLocked(); idx > n.commitIndex; idx-- {
		if n.termAtLocked(idx) != n.term {
			break // only current-term entries commit by counting
		}
		count := 1 // this node
		for _, pr := range n.progress {
			if pr.match >= idx {
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
		out = append(out, n.entryLocked(n.lastApplied))
	}
	return out
}

func (n *Node) runApplies(entries []wire.RaftEntry) {
	for _, e := range entries {
		n.applyFn(e.Data)
	}
}
