package transport

import (
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// fastModel keeps delivery delays tiny so benchmarks and allocation probes
// drain the queue with short RunFor windows.
func fastModel() netmodel.Model {
	return netmodel.Model{PropMin: time.Microsecond, PropMax: 2 * time.Microsecond}
}

// A node that crashes while a message is in flight must swallow it: the
// pooled delivery path checks fault state at fire time, like the per-message
// closure it replaced.
func TestSimNetworkCrashWhileInFlightSwallowsDelivery(t *testing.T) {
	engine := sim.NewEngine(1)
	net := NewSimNetwork(engine, fastModel(), nil)
	src := net.AddNode()
	dst := net.AddNode()
	delivered := 0
	dst.SetHandler(func(wire.NodeID, wire.Message) { delivered++ })

	if err := src.Send(dst.ID(), &wire.StateInfo{Height: 1}); err != nil {
		t.Fatal(err)
	}
	net.SetNodeDown(dst.ID(), true) // crash after send, before delivery
	engine.RunFor(time.Second)
	if delivered != 0 {
		t.Fatalf("crashed node handled %d messages, want 0", delivered)
	}

	net.SetNodeDown(dst.ID(), false)
	if err := src.Send(dst.ID(), &wire.StateInfo{Height: 2}); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(time.Second)
	if delivered != 1 {
		t.Fatalf("revived node handled %d messages, want 1", delivered)
	}
}

// oneOfEachType returns a populated message of every wire type.
func oneOfEachType() []wire.Message {
	tx := &ledger.Transaction{
		Client: "client-0", Chaincode: "cc",
		RWSet: ledger.RWSet{
			Reads:  []ledger.KVRead{{Key: "k", Version: ledger.Version{BlockNum: 3, TxNum: 1}}},
			Writes: []ledger.KVWrite{{Key: "k", Value: []byte{1, 2}}},
		},
		Endorsements: []ledger.Endorsement{{Org: "orgA", Name: "peer0", Sig: make([]byte, 64)}},
		Payload:      make([]byte, 300),
	}
	blk := &ledger.Block{Num: 4, Txs: []*ledger.Transaction{tx, tx}, Sig: make([]byte, 64)}
	events := []wire.MemberEvent{{Peer: 3, Seq: 1 << 40, Kind: wire.EventAlive}, {Peer: 200, Seq: 9, Kind: wire.EventDead}}
	return []wire.Message{
		&wire.Data{Block: blk, Counter: 2},
		&wire.PushDigest{Offers: []wire.BlockOffer{{Num: 300, Counter: 5}}},
		&wire.PushRequest{Nums: []uint64{300, 301}},
		&wire.PullHello{Nonce: 1 << 33},
		&wire.PullDigest{Nonce: 7, Nums: []uint64{1, 2, 200}},
		&wire.PullRequest{Nonce: 7, Nums: []uint64{200}},
		&wire.PullData{Nonce: 7, Block: blk},
		&wire.StateInfo{Height: 7},
		&wire.StateRequest{From: 10, To: 42},
		&wire.StateResponse{Batch: wire.NewBlockBatch([]*ledger.Block{blk, blk})},
		&wire.Alive{Seq: 99, Meta: make([]byte, 256)},
		&wire.RaftVoteRequest{Term: 3, Candidate: 2, LastLogIndex: 1000, LastLogTerm: 3},
		&wire.RaftVoteResponse{Term: 3, Granted: true},
		&wire.RaftAppend{Term: 3, Leader: 1, PrevLogIndex: 9, PrevLogTerm: 2,
			Entries: []wire.RaftEntry{{Term: 3, Data: make([]byte, 200)}, {Term: 3}}, LeaderCommit: 8},
		&wire.RaftAppendResponse{Term: 3, Success: true, MatchIndex: 130},
		&wire.RaftForward{Data: make([]byte, 150)},
		&wire.SubmitTx{Tx: tx},
		&wire.DeliverBlock{Block: blk},
		&wire.MemberEvents{Events: events},
		&wire.ShuffleRequest{Entries: events},
		&wire.ShuffleResponse{Entries: events[:1]},
	}
}

// The steady-state send-and-deliver cycle must not allocate for any message
// type: pooled engine events, no capturing closure, dense traffic
// accounting, and an EncodedSize that is arithmetic — it runs at the send
// and again, with a wire observer attached, at the delivery.
func TestSimNetworkSendSteadyStateAllocationFree(t *testing.T) {
	msgs := oneOfEachType()
	seen := map[wire.MsgType]bool{}
	for _, m := range msgs {
		seen[m.Type()] = true
	}
	if len(seen) != wire.NumMsgTypes-1 {
		t.Fatalf("%d message types probed, want all %d", len(seen), wire.NumMsgTypes-1)
	}
	for _, msg := range msgs {
		t.Run(msg.Type().String(), func(t *testing.T) {
			if got, want := msg.EncodedSize(), len(wire.Marshal(msg)); got != want {
				t.Fatalf("EncodedSize = %d, len(Marshal) = %d", got, want)
			}
			engine := sim.NewEngine(1)
			tr := netmodel.NewSimTraffic(time.Hour) // one bucket for the whole probe
			net := NewSimNetwork(engine, fastModel(), tr)
			net.SetObs([]*WireObs{NewWireObs(obs.NewRegistry(), nil)})
			src := net.AddNode()
			dst := net.AddNode()
			delivered := 0
			dst.SetHandler(func(wire.NodeID, wire.Message) { delivered++ })
			cycle := func() {
				_ = src.Send(dst.ID(), msg)
				engine.RunFor(10 * time.Microsecond)
			}
			for i := 0; i < 200; i++ {
				cycle() // warm the event pool, queue capacity and traffic slots
			}
			if allocs := testing.AllocsPerRun(2000, cycle); allocs != 0 {
				t.Fatalf("steady-state send+deliver allocates %.1f objects/op, want 0", allocs)
			}
			if delivered < 2200 {
				t.Fatalf("%d deliveries, want every send delivered", delivered)
			}
		})
	}
}

// BenchmarkSimNetworkSend measures the full per-message transport path at
// steady state: traffic accounting, reachability and loss checks, delay
// draw, pooled scheduling and dispatch. Must report 0 allocs/op.
func BenchmarkSimNetworkSend(b *testing.B) {
	engine := sim.NewEngine(1)
	tr := netmodel.NewSimTraffic(10 * time.Second)
	net := NewSimNetwork(engine, netmodel.LAN(), tr)
	const n = 100
	eps := make([]*SimEndpoint, n)
	for i := range eps {
		eps[i] = net.AddNode()
		eps[i].SetHandler(func(wire.NodeID, wire.Message) {})
	}
	msg := &wire.StateInfo{Height: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eps[i%n].Send(eps[(i+1)%n].ID(), msg)
		if i%64 == 63 {
			engine.RunFor(time.Millisecond)
		}
	}
}
