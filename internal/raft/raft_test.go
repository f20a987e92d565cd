package raft

import (
	"testing"
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

type cluster struct {
	engine  *sim.Engine
	net     *transport.SimNetwork
	nodes   []*Node
	applied [][]string
	// onSend sees every message a node hands to its endpoint and may drop
	// it; onRecv sees every message just before its handler runs.
	onSend func(from, to wire.NodeID, msg wire.Message) (drop bool)
	onRecv func(from, to wire.NodeID, msg wire.Message)
}

// tap is the endpoint the cluster's nodes run on: the simulated one, with
// the cluster's hooks on both directions.
type tap struct {
	transport.Endpoint
	c *cluster
}

func (tp tap) Send(to wire.NodeID, msg wire.Message) error {
	if tp.c.onSend != nil && tp.c.onSend(tp.ID(), to, msg) {
		return nil
	}
	return tp.Endpoint.Send(to, msg)
}

func (tp tap) SetHandler(h transport.Handler) {
	tp.Endpoint.SetHandler(func(from wire.NodeID, msg wire.Message) {
		if tp.c.onRecv != nil {
			tp.c.onRecv(from, tp.ID(), msg)
		}
		h(from, msg)
	})
}

// testModel is a quiet LAN: 1-3 ms one way, so messages sent within 2 ms of
// each other can reorder.
var testModel = netmodel.Model{PropMin: time.Millisecond, PropMax: 3 * time.Millisecond}

func newCluster(t *testing.T, n int, seed int64) *cluster {
	return newClusterOn(t, n, seed, testModel)
}

func newClusterOn(t *testing.T, n int, seed int64, model netmodel.Model) *cluster {
	t.Helper()
	c := &cluster{engine: sim.NewEngine(seed)}
	c.net = transport.NewSimNetwork(c.engine, model, nil)
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	c.applied = make([][]string, n)
	for i := 0; i < n; i++ {
		ep := tap{c.net.AddNode(), c}
		node := New(DefaultConfig(ep.ID(), ids), ep, c.engine, c.engine.Rand("raft"))
		idx := i
		node.OnApply(func(data []byte) {
			c.applied[idx] = append(c.applied[idx], string(data))
		})
		c.nodes = append(c.nodes, node)
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	return c
}

func (c *cluster) leader() *Node {
	for _, n := range c.nodes {
		if st, _, _, _ := n.Status(); st == Leader {
			return n
		}
	}
	return nil
}

func (c *cluster) leaders() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if st, _, _, _ := n.Status(); st == Leader {
			out = append(out, n)
		}
	}
	return out
}

func TestElectsExactlyOneLeader(t *testing.T) {
	c := newCluster(t, 5, 1)
	c.engine.RunUntil(2 * time.Second)
	leaders := c.leaders()
	if len(leaders) != 1 {
		t.Fatalf("got %d leaders, want 1", len(leaders))
	}
	// Every node knows the same leader.
	_, _, want, _ := leaders[0].Status()
	for i, n := range c.nodes {
		_, _, got, known := n.Status()
		if !known || got != want {
			t.Fatalf("node %d leader view = %v (known=%v), want %v", i, got, known, want)
		}
	}
}

func TestSingleNodeClusterLeadsAndCommits(t *testing.T) {
	c := newCluster(t, 1, 2)
	c.engine.RunUntil(time.Second)
	l := c.leader()
	if l == nil {
		t.Fatal("single node did not become leader")
	}
	for i := 0; i < 5; i++ {
		if err := l.Propose([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.engine.RunUntil(2 * time.Second)
	if got := c.applied[0]; len(got) != 5 {
		t.Fatalf("applied %d entries, want 5", len(got))
	}
}

func TestReplicatesInOrderToAllNodes(t *testing.T) {
	c := newCluster(t, 3, 3)
	c.engine.RunUntil(time.Second)
	l := c.leader()
	if l == nil {
		t.Fatal("no leader")
	}
	want := []string{"tx1", "tx2", "tx3", "tx4", "tx5"}
	for _, w := range want {
		w := w
		c.engine.After(0, func() { _ = l.Propose([]byte(w)) })
		c.engine.RunFor(20 * time.Millisecond)
	}
	c.engine.RunUntil(c.engine.Now() + 2*time.Second)
	for i, got := range c.applied {
		if len(got) != len(want) {
			t.Fatalf("node %d applied %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d order %v, want %v", i, got, want)
			}
		}
	}
}

func TestForwardingFromFollower(t *testing.T) {
	c := newCluster(t, 3, 4)
	c.engine.RunUntil(time.Second)
	var follower *Node
	for _, n := range c.nodes {
		if st, _, _, _ := n.Status(); st == Follower {
			follower = n
			break
		}
	}
	if follower == nil {
		t.Fatal("no follower")
	}
	c.engine.After(0, func() {
		if err := follower.Propose([]byte("via-follower")); err != nil {
			t.Errorf("follower propose: %v", err)
		}
	})
	c.engine.RunUntil(c.engine.Now() + 2*time.Second)
	for i, got := range c.applied {
		if len(got) != 1 || got[0] != "via-follower" {
			t.Fatalf("node %d applied %v", i, got)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 5, 5)
	c.engine.RunUntil(2 * time.Second)
	old := c.leader()
	if old == nil {
		t.Fatal("no initial leader")
	}
	c.engine.After(0, func() { _ = old.Propose([]byte("before-crash")) })
	c.engine.RunUntil(c.engine.Now() + time.Second)

	// Crash the leader.
	c.net.SetNodeDown(old.cfg.ID, true)
	c.engine.RunUntil(c.engine.Now() + 3*time.Second)
	var newLeader *Node
	for _, n := range c.nodes {
		if n == old {
			continue
		}
		if st, _, _, _ := n.Status(); st == Leader {
			newLeader = n
		}
	}
	if newLeader == nil {
		t.Fatal("no new leader elected after crash")
	}
	c.engine.After(0, func() { _ = newLeader.Propose([]byte("after-crash")) })
	c.engine.RunUntil(c.engine.Now() + 2*time.Second)

	for i, n := range c.nodes {
		if n == old {
			continue
		}
		got := c.applied[i]
		if len(got) != 2 || got[0] != "before-crash" || got[1] != "after-crash" {
			t.Fatalf("node %d applied %v", i, got)
		}
	}
}

// Check-quorum: a leader that loses contact with a majority cannot commit,
// so it must give up the role within about an election timeout instead of
// reporting itself leader of a halted cluster — and the cluster must elect
// again once the majority is back.
func TestLeaderWithoutQuorumStepsDown(t *testing.T) {
	c := newCluster(t, 3, 6)
	c.engine.RunUntil(2 * time.Second)
	old := c.leader()
	if old == nil {
		t.Fatal("no initial leader")
	}
	for _, n := range c.nodes {
		if n != old {
			c.net.SetNodeDown(n.cfg.ID, true)
		}
	}
	c.engine.RunFor(electionTimeoutMin + 2*heartbeatInterval)
	if st, _, _, known := old.Status(); st == Leader || known {
		t.Fatalf("cut-off leader is still %v (leader known: %v) after an election timeout", st, known)
	}
	c.engine.RunFor(3 * time.Second)
	if l := c.leader(); l != nil {
		t.Fatalf("node %v leads without a quorum", l.cfg.ID)
	}
	for _, n := range c.nodes {
		c.net.SetNodeDown(n.cfg.ID, false)
	}
	c.engine.RunFor(3 * time.Second)
	if len(c.leaders()) != 1 {
		t.Fatalf("%d leaders after the majority returned, want 1", len(c.leaders()))
	}
}

func TestCrashedFollowerCatchesUpOnRevival(t *testing.T) {
	c := newCluster(t, 3, 6)
	c.engine.RunUntil(time.Second)
	l := c.leader()
	if l == nil {
		t.Fatal("no leader")
	}
	// Identify a follower and crash it.
	var down *Node
	var downIdx int
	for i, n := range c.nodes {
		if n != l {
			down = n
			downIdx = i
			break
		}
	}
	c.net.SetNodeDown(down.cfg.ID, true)
	for i := 0; i < 5; i++ {
		i := i
		c.engine.After(0, func() { _ = l.Propose([]byte{byte('a' + i)}) })
		c.engine.RunFor(20 * time.Millisecond)
	}
	c.engine.RunUntil(c.engine.Now() + time.Second)
	if len(c.applied[downIdx]) != 0 {
		t.Fatal("down node applied entries")
	}
	// Revive: leader repair brings it up to date. The revived node may
	// first trigger an election (its timer fired while isolated), which
	// the protocol absorbs.
	c.net.SetNodeDown(down.cfg.ID, false)
	c.engine.RunUntil(c.engine.Now() + 5*time.Second)
	if got := c.applied[downIdx]; len(got) != 5 {
		t.Fatalf("revived node applied %v, want 5 entries", got)
	}
	for i, v := range c.applied[downIdx] {
		if v != string(byte('a'+i)) {
			t.Fatalf("revived node order wrong: %v", c.applied[downIdx])
		}
	}
	// Catch-up is hint back-off, not a blind replay: whoever leads now was
	// told where the revived log ends and shipped it only what it lacked.
	if _, redundant := down.Replication(); redundant != 0 {
		t.Fatalf("revived node was sent %d entries it already held", redundant)
	}
}

func TestNoEntryAppliedTwice(t *testing.T) {
	c := newCluster(t, 3, 7)
	c.engine.RunUntil(time.Second)
	l := c.leader()
	if l == nil {
		t.Fatal("no leader")
	}
	for i := 0; i < 20; i++ {
		i := i
		c.engine.After(0, func() { _ = l.Propose([]byte{byte(i)}) })
		c.engine.RunFor(5 * time.Millisecond)
	}
	c.engine.RunUntil(c.engine.Now() + 3*time.Second)
	for idx, got := range c.applied {
		seen := map[string]bool{}
		for _, v := range got {
			if seen[v] {
				t.Fatalf("node %d applied %q twice", idx, v)
			}
			seen[v] = true
		}
		if len(got) != 20 {
			t.Fatalf("node %d applied %d entries, want 20", idx, len(got))
		}
	}
}

func TestDeterministicElections(t *testing.T) {
	run := func() (wire.NodeID, uint64) {
		c := newCluster(t, 5, 42)
		c.engine.RunUntil(2 * time.Second)
		l := c.leader()
		if l == nil {
			t.Fatal("no leader")
		}
		_, term, _, _ := l.Status()
		return l.cfg.ID, term
	}
	id1, t1 := run()
	id2, t2 := run()
	if id1 != id2 || t1 != t2 {
		t.Fatalf("elections diverge: (%v, %d) vs (%v, %d)", id1, t1, id2, t2)
	}
}

func TestStateString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Error("state names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state name empty")
	}
}

// --- replication discipline: Raft Figure 2's leader state (nextIndex,
// matchIndex) as invariants over the wire ---

// watch records what crosses the links of a cluster led by l and checks, at
// every message, the invariants that hold on any run: at most one
// entries-bearing append outstanding per follower, anything sent meanwhile
// is an empty append anchored at match, next > match, and match never
// decreases. lossFree adds that next never decreases either (only a reject
// may move it back, and a loss-free run draws none).
type watch struct {
	// receipts counts, per follower, how often each index arrived.
	receipts map[wire.NodeID]map[uint64]int
	// overlapped counts the empty appends sent while entries were
	// outstanding to the same follower.
	overlapped int
}

func watchReplication(t *testing.T, c *cluster, l *Node, lossFree bool) *watch {
	t.Helper()
	w := &watch{receipts: make(map[wire.NodeID]map[uint64]int)}
	// outstanding[f] is the last index of the entries-bearing append to f
	// that no success has covered yet (0: none); the leader writes it off
	// after electionTimeoutMin, and so does the watch.
	outstanding := make(map[wire.NodeID]uint64)
	sentAt := make(map[wire.NodeID]time.Duration)
	type mark struct{ match, next uint64 }
	seen := make(map[wire.NodeID]mark)
	checkProgress := func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.state != Leader {
			return
		}
		for f, pr := range l.progress {
			if pr.next <= pr.match {
				t.Errorf("follower %v: next %d <= match %d", f, pr.next, pr.match)
			}
			if pr.match < seen[f].match {
				t.Errorf("follower %v: match fell %d -> %d", f, seen[f].match, pr.match)
			}
			if lossFree && pr.next < seen[f].next {
				t.Errorf("follower %v: next fell %d -> %d on a loss-free run", f, seen[f].next, pr.next)
			}
			seen[f] = mark{pr.match, pr.next}
		}
	}
	c.onSend = func(from, to wire.NodeID, msg wire.Message) bool {
		if m, ok := msg.(*wire.RaftAppend); ok && from == l.cfg.ID {
			checkProgress()
			if c.engine.Now()-sentAt[to] >= electionTimeoutMin {
				outstanding[to] = 0
			}
			switch hi := m.PrevLogIndex + uint64(len(m.Entries)); {
			case len(m.Entries) > 0 && outstanding[to] != 0:
				t.Errorf("entries %d..%d sent to %v while the append up to %d is outstanding",
					m.PrevLogIndex+1, hi, to, outstanding[to])
			case len(m.Entries) > 0:
				outstanding[to], sentAt[to] = hi, c.engine.Now()
			case outstanding[to] != 0:
				w.overlapped++
				if m.PrevLogIndex != seen[to].match {
					t.Errorf("heartbeat to %v over an outstanding append anchored at %d, match is %d",
						to, m.PrevLogIndex, seen[to].match)
				}
			}
		}
		return false
	}
	c.onRecv = func(from, to wire.NodeID, msg wire.Message) {
		switch m := msg.(type) {
		case *wire.RaftAppend:
			if w.receipts[to] == nil {
				w.receipts[to] = make(map[uint64]int)
			}
			for i := range m.Entries {
				w.receipts[to][m.PrevLogIndex+1+uint64(i)]++
			}
		case *wire.RaftAppendResponse:
			if to == l.cfg.ID {
				checkProgress()
				if m.Success && m.MatchIndex >= outstanding[from] {
					outstanding[from] = 0
				}
			}
		}
	}
	return w
}

// electedCluster runs a fresh 3-node cluster until it has a leader.
func electedCluster(t *testing.T, seed int64, model netmodel.Model) (*cluster, *Node) {
	t.Helper()
	c := newClusterOn(t, 3, seed, model)
	c.engine.RunUntil(2 * time.Second)
	l := c.leader()
	if l == nil {
		t.Fatal("no leader")
	}
	return c, l
}

func (c *cluster) followersOf(l *Node) []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if n != l {
			out = append(out, n)
		}
	}
	return out
}

// proposeEvery schedules count proposals at the leader, one per interval.
func (c *cluster) proposeEvery(l *Node, count int, interval time.Duration) {
	for i := 0; i < count; i++ {
		i := i
		c.engine.After(time.Duration(i)*interval, func() { _ = l.Propose([]byte{byte(i), byte(i >> 8)}) })
	}
}

// On a loss-free run every index crosses every leader->follower link exactly
// once, however the network reorders — on the harness's own delay model,
// whose per-message lognormal jitter reorders appends, heartbeats and their
// answers constantly — and what the wire shows is what the counters say.
func TestEachIndexCrossesEachLinkOnce(t *testing.T) {
	c, l := electedCluster(t, 11, netmodel.LAN())
	w := watchReplication(t, c, l, true)
	const proposals = 1000
	c.proposeEvery(l, proposals, time.Millisecond)
	c.engine.RunFor(3 * time.Second)

	for _, f := range c.followersOf(l) {
		got := w.receipts[f.cfg.ID]
		for idx := uint64(1); idx <= proposals; idx++ {
			if got[idx] != 1 {
				t.Fatalf("follower %v received index %d %d times, want once", f.cfg.ID, idx, got[idx])
			}
		}
		if _, redundant := f.Replication(); redundant != 0 {
			t.Errorf("follower %v counted %d redundant entries", f.cfg.ID, redundant)
		}
	}
	if shipped, _ := l.Replication(); shipped != 2*proposals {
		t.Errorf("leader shipped %d entries, want %d (each index once per follower)", shipped, 2*proposals)
	}
	for i, got := range c.applied {
		if len(got) != proposals {
			t.Errorf("node %d applied %d entries, want %d", i, len(got), proposals)
		}
	}
	if w.overlapped == 0 {
		t.Error("no heartbeat overlapped an outstanding append: the run did not exercise the empty-heartbeat rule")
	}
}

// A follower 40 ms away keeps every entries-bearing append outstanding
// across a heartbeat tick: each overlapping heartbeat must be the empty
// append anchored at match (watchReplication checks the anchor and that no
// entries ride along), and the follower still gets every index once.
func TestHeartbeatOverOutstandingAppendIsEmpty(t *testing.T) {
	c, l := electedCluster(t, 12, testModel)
	far := c.followersOf(l)[0]
	c.net.SetNodeExtraDelay(far.cfg.ID, 40*time.Millisecond)
	w := watchReplication(t, c, l, true)
	c.proposeEvery(l, 100, 10*time.Millisecond)
	c.engine.RunFor(2 * time.Second)

	if w.overlapped < 10 {
		t.Fatalf("only %d heartbeats overlapped an outstanding append, want one per tick of the loaded second", w.overlapped)
	}
	for idx := uint64(1); idx <= 100; idx++ {
		if n := w.receipts[far.cfg.ID][idx]; n != 1 {
			t.Fatalf("far follower received index %d %d times, want once", idx, n)
		}
	}
}

// Answers that arrive late — a success for an older append, a heartbeat's
// answer, a reject the leader has already corrected for — move nothing
// backwards, with or without an append outstanding.
func TestLateAnswersDoNotRegressProgress(t *testing.T) {
	c, l := electedCluster(t, 13, testModel)
	c.proposeEvery(l, 10, time.Millisecond)
	c.engine.RunFor(time.Second)
	f := c.followersOf(l)[0].cfg.ID
	_, term, _, _ := l.Status()
	late := []*wire.RaftAppendResponse{
		{Term: term, Success: true, MatchIndex: 3},
		{Term: term, Success: true, MatchIndex: 0},
		{Term: term, Success: false, MatchIndex: 2},
		{Term: term, Success: false, MatchIndex: 10},
	}
	check := func(match, next uint64, pending bool) {
		t.Helper()
		l.mu.Lock()
		defer l.mu.Unlock()
		pr := l.progress[f]
		if pr.match != match || pr.next != next || (pr.pendingUntil != 0) != pending {
			t.Fatalf("progress = {match %d, next %d, pending until %v}, want {%d, %d, pending %v}",
				pr.match, pr.next, pr.pendingUntil, match, next, pending)
		}
	}
	check(10, 11, false)
	for _, m := range late {
		l.Handle(f, m)
		check(10, 11, false)
	}
	// The same answers while entries 11..12 are on the wire.
	c.net.SetNodeDown(f, true)
	_ = l.Propose([]byte("x"))
	_ = l.Propose([]byte("y"))
	check(10, 12, true) // "y" waits for the answer to "x"
	for _, m := range late[:2] {
		l.Handle(f, m)
		check(10, 12, true)
	}
	// "x" is written off and "y" leaves anchored behind it; when the answer
	// to "x" turns up after all, it advances match and leaves "y" alone.
	c.engine.RunFor(electionTimeoutMin + heartbeatInterval)
	check(10, 13, true)
	before, _ := l.Replication()
	l.Handle(f, &wire.RaftAppendResponse{Term: term, Success: true, MatchIndex: 11})
	check(11, 13, true)
	if after, _ := l.Replication(); after != before {
		t.Fatalf("the late answer made the leader ship %d more entries", after-before)
	}
}

// dropFirst makes the network lose the first message pred accepts, on top
// of whatever hook is already installed, and reports when that happened
// (negative until it has).
func (c *cluster) dropFirst(pred func(from, to wire.NodeID, msg wire.Message) bool) *time.Duration {
	at := time.Duration(-1)
	inner := c.onSend
	c.onSend = func(from, to wire.NodeID, msg wire.Message) bool {
		drop := inner != nil && inner(from, to, msg)
		if at < 0 && pred(from, to, msg) {
			at = c.engine.Now()
			return true
		}
		return drop
	}
	return &at
}

// lossBound is how long a lost append or answer may go unrepaired: the
// append is written off after electionTimeoutMin, the next heartbeat (or
// proposal) probes at next-1, and the follower's verdict and the re-shipped
// entries each cross the link once more.
func lossBound(oneWay time.Duration) time.Duration {
	return electionTimeoutMin + heartbeatInterval + 3*oneWay
}

// A dropped append is repaired within lossBound by hint back-off — the
// follower gets the index exactly once — and until it is written off the
// follower hears only empty heartbeats.
func TestDroppedAppendIsRepaired(t *testing.T) {
	c, l := electedCluster(t, 14, testModel)
	victim := c.followersOf(l)[0]
	w := watchReplication(t, c, l, false)
	droppedAt := c.dropFirst(func(_, to wire.NodeID, msg wire.Message) bool {
		m, ok := msg.(*wire.RaftAppend)
		return ok && to == victim.cfg.ID && len(m.Entries) > 0
	})
	_ = l.Propose([]byte("lost-once"))
	c.engine.RunFor(electionTimeoutMin - time.Millisecond)
	if *droppedAt < 0 || len(w.receipts[victim.cfg.ID]) != 0 {
		t.Fatalf("dropped at %v, victim received %v before the append was written off", *droppedAt, w.receipts[victim.cfg.ID])
	}
	c.engine.RunUntil(*droppedAt + lossBound(3*time.Millisecond))
	if n := w.receipts[victim.cfg.ID][1]; n != 1 {
		t.Fatalf("victim received index 1 %d times within the loss bound, want once", n)
	}
	c.engine.RunFor(time.Second)
	for i, got := range c.applied {
		if len(got) != 1 {
			t.Fatalf("node %d applied %v", i, got)
		}
	}
}

// A dropped answer is repaired within lossBound without re-shipping
// anything: the probe at next-1 succeeds and match catches up.
func TestDroppedAnswerIsRepairedWithoutReshipping(t *testing.T) {
	c, l := electedCluster(t, 15, testModel)
	victim := c.followersOf(l)[0]
	w := watchReplication(t, c, l, true)
	droppedAt := c.dropFirst(func(from, _ wire.NodeID, msg wire.Message) bool {
		m, ok := msg.(*wire.RaftAppendResponse)
		return ok && from == victim.cfg.ID && m.Success && m.MatchIndex == 1
	})
	_ = l.Propose([]byte("acked-twice"))
	c.engine.RunFor(20 * time.Millisecond)
	if *droppedAt < 0 {
		t.Fatal("the victim's answer was not dropped")
	}
	c.engine.RunUntil(*droppedAt + lossBound(3*time.Millisecond))
	l.mu.Lock()
	match := l.progress[victim.cfg.ID].match
	l.mu.Unlock()
	if match != 1 {
		t.Fatalf("leader's match for the victim is %d within the loss bound, want 1", match)
	}
	if n := w.receipts[victim.cfg.ID][1]; n != 1 {
		t.Fatalf("victim received index 1 %d times, want once (a lost answer re-ships nothing)", n)
	}
	if shipped, _ := l.Replication(); shipped != 2 {
		t.Fatalf("leader shipped %d entries, want 2", shipped)
	}
}

// Figure 2, AppendEntries step 5: a follower commits no further than the
// last entry the append itself vouches for. An empty heartbeat anchored
// below a stale suffix (left by an old leader, not yet overwritten) must not
// commit that suffix, however high LeaderCommit is.
func TestFollowerCommitsOnlyTheVouchedPrefix(t *testing.T) {
	c := newCluster(t, 3, 16)
	f := c.nodes[0]
	f.mu.Lock()
	f.term = 1
	f.log = []wire.RaftEntry{{Term: 1, Data: []byte("a")}, {Term: 1, Data: []byte("stale-b")}, {Term: 1, Data: []byte("stale-c")}}
	f.mu.Unlock()
	f.Handle(1, &wire.RaftAppend{Term: 2, Leader: 1, PrevLogIndex: 1, PrevLogTerm: 1, LeaderCommit: 3})
	if got := f.CommitIndex(); got != 1 {
		t.Fatalf("commit index %d after an empty append anchored at 1, want 1", got)
	}
	if got := c.applied[0]; len(got) != 1 || got[0] != "a" {
		t.Fatalf("applied %v, want only the vouched prefix [a]", got)
	}
}

// An append's Entries alias the sender's log. When the sender later loses
// leadership and a new leader overwrites its suffix, the message — still in
// flight in the simulator, which passes pointers — must keep its content.
func TestInFlightAppendSurvivesLogTruncation(t *testing.T) {
	c, l := electedCluster(t, 17, testModel)
	// Entries never arrive, so the log below stays the leader's alone;
	// heartbeats do, so it keeps its quorum.
	var sent *wire.RaftAppend
	c.onSend = func(_, _ wire.NodeID, msg wire.Message) bool {
		m, ok := msg.(*wire.RaftAppend)
		if ok && len(m.Entries) == 2 {
			sent = m // "b" and "c", which wait out the unanswered append of "a"
		}
		return ok && len(m.Entries) > 0
	}
	for _, v := range []string{"a", "b", "c"} {
		_ = l.Propose([]byte(v))
	}
	c.engine.RunFor(electionTimeoutMin + heartbeatInterval)
	if sent == nil {
		t.Fatal("no two-entry append was built")
	}
	_, term, _, _ := l.Status()
	other := c.followersOf(l)[0].cfg.ID
	l.Handle(other, &wire.RaftAppend{Term: term + 1, Leader: other, PrevLogIndex: 1, PrevLogTerm: term,
		Entries: []wire.RaftEntry{{Term: term + 1, Data: []byte("B")}, {Term: term + 1, Data: []byte("C")}}})
	for i, want := range []string{"b", "c"} {
		if e := sent.Entries[i]; string(e.Data) != want || e.Term != term {
			t.Fatalf("in-flight entry %d is now {term %d, %q}, want {term %d, %q}", i, e.Term, e.Data, term, want)
		}
	}
}
