package raft

import (
	"fmt"
	"testing"
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// TestConsenterSubmitAcrossForcedElection is the regression test for the
// non-leader Propose path: envelopes submitted while the cluster is
// mid-election (the old leader crashed, no new leader known — Node.Propose
// returns ErrNotLeader and a raw forward would be dropped) must neither be
// lost nor double-ordered. The Consenter buffers them and re-proposes on
// the new leader's emergence; the dedup window suppresses the duplicate
// log entries that at-least-once re-proposal can create.
func TestConsenterSubmitAcrossForcedElection(t *testing.T) {
	engine := sim.NewEngine(29)
	model := netmodel.Model{PropMin: time.Millisecond, PropMax: 2 * time.Millisecond}
	net := transport.NewSimNetwork(engine, model, nil)

	const clusterSize = 3
	ids := make([]wire.NodeID, clusterSize)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	nodes := make([]*Node, clusterSize)
	shims := make([]*Consenter, clusterSize)
	delivered := make([][]string, clusterSize)
	for i := 0; i < clusterSize; i++ {
		ep := net.AddNode()
		nodes[i] = New(DefaultConfig(ep.ID(), ids), ep, engine, engine.Rand("raft"))
		shims[i] = NewConsenter(nodes[i], engine)
		idx := i
		shims[i].OnCommit(func(data []byte) {
			delivered[idx] = append(delivered[idx], string(data))
		})
		nodes[i].Start()
	}
	engine.RunUntil(2 * time.Second)

	leaderIdx := -1
	for i, n := range nodes {
		if st, _, _, _ := n.Status(); st == Leader {
			leaderIdx = i
		}
	}
	if leaderIdx < 0 {
		t.Fatal("no leader elected before the fault")
	}
	survivor := (leaderIdx + 1) % clusterSize

	// Crash the leader, then fire a burst of submissions at a survivor
	// while the election it forces is still running: the first few land in
	// the leaderless window (ErrNotLeader territory), the rest straddle
	// the new leader's first heartbeats.
	const burst = 8
	crashAt := engine.Now()
	engine.At(crashAt, func() {
		nodes[leaderIdx].Stop()
		net.SetNodeDown(wire.NodeID(leaderIdx), true)
	})
	for i := 0; i < burst; i++ {
		payload := fmt.Sprintf("env-%02d", i)
		engine.At(crashAt+time.Duration(i)*30*time.Millisecond, func() {
			_ = shims[survivor].Submit([]byte(payload))
		})
	}
	engine.RunUntil(engine.Now() + 15*time.Second)

	// Every surviving consenter must deliver all envelopes exactly once,
	// in the same total order.
	for i := 0; i < clusterSize; i++ {
		if i == leaderIdx {
			continue
		}
		counts := make(map[string]int)
		for _, d := range delivered[i] {
			counts[d]++
		}
		for j := 0; j < burst; j++ {
			key := fmt.Sprintf("env-%02d", j)
			switch counts[key] {
			case 0:
				t.Errorf("node %d lost envelope %s across the election", i, key)
			case 1:
			default:
				t.Errorf("node %d double-ordered envelope %s (%d times)", i, key, counts[key])
			}
		}
		if len(delivered[i]) != len(delivered[survivor]) {
			t.Errorf("node %d delivered %d entries, survivor delivered %d",
				i, len(delivered[i]), len(delivered[survivor]))
		}
		for k := range delivered[i] {
			if delivered[i][k] != delivered[survivor][k] {
				t.Fatalf("nodes %d and %d diverge at %d: %q vs %q",
					i, survivor, k, delivered[i][k], delivered[survivor][k])
			}
		}
	}
}

// TestConsenterRestartRejoinsByLogReplay covers the consenter-mode restart
// semantics: a stopped node keeps its (modelled-durable) log, and Start
// rejoins it as a follower that the leader catches up via AppendEntries
// suffix replay — not a fresh state.
func TestConsenterRestartRejoinsByLogReplay(t *testing.T) {
	engine := sim.NewEngine(31)
	model := netmodel.Model{PropMin: time.Millisecond, PropMax: 2 * time.Millisecond}
	net := transport.NewSimNetwork(engine, model, nil)

	const clusterSize = 3
	ids := make([]wire.NodeID, clusterSize)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	nodes := make([]*Node, clusterSize)
	shims := make([]*Consenter, clusterSize)
	delivered := make([][]string, clusterSize)
	for i := 0; i < clusterSize; i++ {
		ep := net.AddNode()
		nodes[i] = New(DefaultConfig(ep.ID(), ids), ep, engine, engine.Rand("raft"))
		shims[i] = NewConsenter(nodes[i], engine)
		idx := i
		shims[i].OnCommit(func(data []byte) {
			delivered[idx] = append(delivered[idx], string(data))
		})
		nodes[i].Start()
	}
	engine.RunUntil(2 * time.Second)

	var victim int // crash a follower so ordering continues while it is down
	for i, n := range nodes {
		if st, _, _, _ := n.Status(); st != Leader {
			victim = i
			break
		}
	}
	nodes[victim].Stop()
	net.SetNodeDown(wire.NodeID(victim), true)

	alive := (victim + 1) % clusterSize
	for i := 0; i < 6; i++ {
		payload := fmt.Sprintf("dur-%02d", i)
		engine.At(engine.Now()+time.Duration(i)*100*time.Millisecond, func() {
			_ = shims[alive].Submit([]byte(payload))
		})
	}
	engine.RunUntil(engine.Now() + 5*time.Second)
	if len(delivered[victim]) != 0 {
		t.Fatalf("crashed node delivered %d entries while down", len(delivered[victim]))
	}
	before := nodes[victim].CommitIndex()

	// Restart: the node must catch up from where its log left off.
	net.SetNodeDown(wire.NodeID(victim), false)
	nodes[victim].Start()
	engine.RunUntil(engine.Now() + 5*time.Second)

	if nodes[victim].CommitIndex() <= before {
		t.Fatalf("restarted node did not advance past its pre-crash commit index %d", before)
	}
	if len(delivered[victim]) != len(delivered[alive]) {
		t.Fatalf("restarted node replayed %d entries, cluster has %d",
			len(delivered[victim]), len(delivered[alive]))
	}
	for k := range delivered[victim] {
		if delivered[victim][k] != delivered[alive][k] {
			t.Fatalf("replayed log diverges at %d: %q vs %q",
				k, delivered[victim][k], delivered[alive][k])
		}
	}
}
