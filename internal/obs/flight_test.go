package obs

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFlightDumpOnInjectedViolation simulates the lookahead-violation
// wiring: rings fill during a "run", an invariant breach fires the shard
// dump, and the artifact holds exactly the offending shard's last N
// events.
func TestFlightDumpOnInjectedViolation(t *testing.T) {
	tr := NewTracer(3, 8)
	rec := NewFlightRecorder(tr, 8, t.TempDir())
	for i := 0; i < 100; i++ {
		tr.Shards[1].Emit(Event{At: time.Duration(i), Kind: EvGossipSend, Node: 1, Peer: 2, Num: uint64(i)})
		tr.Shards[0].Emit(Event{At: time.Duration(i), Kind: EvGossipRecv, Node: 3, Peer: 4, Num: uint64(i)})
	}

	// The hook the runner installs via sim.ShardedEngine.SetViolationHook:
	// dump the offending shard, then let the panic, which names the dump,
	// propagate.
	violated := func(src int, msg string) {
		if _, err := rec.DumpShard(src, msg); err != nil {
			t.Fatalf("dump: %v", err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the injected violation to panic")
			}
		}()
		violated(1, "cross-shard delivery violates window horizon")
		panic("sim: cross-shard delivery violates window horizon")
	}()

	path := rec.Path()
	if path == "" {
		t.Fatal("no dump path recorded")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "violates window horizon") {
		t.Fatalf("dump missing reason:\n%s", out)
	}
	if !strings.Contains(out, "-- context 1: last 8 of 100 events") {
		t.Fatalf("dump missing offending-shard header:\n%s", out)
	}
	if strings.Contains(out, "-- context 0") {
		t.Fatalf("shard dump leaked other contexts:\n%s", out)
	}
	// The last 8 events of shard 1 are nums 92..99, in order.
	for n := 92; n <= 99; n++ {
		if !strings.Contains(out, `"num":`+strconv.Itoa(n)) {
			t.Fatalf("dump missing event %d:\n%s", n, out)
		}
	}
	if strings.Contains(out, `"num":91,`) {
		t.Fatalf("dump holds evicted event 91:\n%s", out)
	}
}

// TestFlightDumpAllShards pins the quiescent full dump (post-run audits).
func TestFlightDumpAllShards(t *testing.T) {
	tr := NewTracer(2, 4)
	rec := NewFlightRecorder(tr, 4, t.TempDir())
	tr.Shards[0].Emit(Event{Kind: EvBlockCut, Num: 1})
	tr.Shards[1].Emit(Event{Kind: EvBlockCommit, Num: 1})
	path, err := rec.Dump("pool leak")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"pool leak", "-- context 0", "-- context 1", "block_cut", "block_commit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}
