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
}

func newCluster(t *testing.T, n int, seed int64) *cluster {
	t.Helper()
	c := &cluster{engine: sim.NewEngine(seed)}
	model := netmodel.Model{PropMin: time.Millisecond, PropMax: 3 * time.Millisecond}
	c.net = transport.NewSimNetwork(c.engine, model, nil)
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	c.applied = make([][]string, n)
	for i := 0; i < n; i++ {
		ep := c.net.AddNode()
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
	cfg := old.cfg
	c.engine.RunFor(cfg.ElectionTimeoutMin + 2*cfg.HeartbeatInterval)
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
