package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fabricgossip/internal/chaincode"
	"fabricgossip/internal/crypto"
	"fabricgossip/internal/endorse"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/membership"
	"fabricgossip/internal/msp"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/order"
	"fabricgossip/internal/raft"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/statesync"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// drillShape is what the layer drills imitate of a workload: its block
// shape, the size of one organization's membership view, and the depth of
// the event queue its dispatches run at.
type drillShape struct {
	txPerBlock int
	payload    int
	members    int
	pending    int
}

// Layer drills time each layer's public functions from outside, on inputs
// shaped like the workload's: ns/op is the minimum of three timed loops of
// at least d each, allocs/op comes from testing.AllocsPerRun. They give the
// unit costs the layer table multiplies the run's counts by.

// nsPerOp returns the cost of one fn call.
func nsPerOp(d time.Duration, fn func()) float64 {
	const batch = 32 // amortizes the clock read over cheap operations
	best := math.MaxFloat64
	for s := 0; s < 3; s++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < d {
			for i := 0; i < batch; i++ {
				fn()
			}
			n += batch
		}
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return best
}

// fastLAN keeps drill clocks short: deliveries land within microseconds, so
// a RunFor of 10 us drains everything a cycle sent.
var fastLAN = netmodel.Model{PropMin: time.Microsecond, PropMax: 2 * time.Microsecond}

const drillDrain = 10 * time.Microsecond

// runDrills runs every drill and returns the values by metric name.
func runDrills(shape drillShape, seed int64, d time.Duration) map[string]float64 {
	v := map[string]float64{}
	block := harness.BuildChain(1, shape.txPerBlock, shape.payload, seed)[0]
	drillSim(v, shape, d)
	drillTransport(v, shape, d)
	drillNetmodel(v, seed, d)
	drillWire(v, block, d)
	drillGossip(v, shape, seed, d)
	drillMembership(v, shape, seed, d)
	drillStatesync(v, shape, seed, d)
	drillLedger(v, shape, seed, d)
	drillCrypto(v, block, seed, d)
	drillEndorse(v, seed, d)
	drillOrder(v, shape, block, d)
	drillRaft(v, d)
	drillTCPSend(v, block)
	return v
}

// holdDelays are the reschedule delays of the hold-model drills: a fixed
// pseudo-random cycle, so drawing one costs an array load.
var holdDelays = func() (d [1024]time.Duration) {
	rng := sim.NewRand(1)
	for i := range d {
		d[i] = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
	}
	return d
}()

// drillSim times one engine dispatch in the hold model: the queue stays at
// the workload's peak depth, each Step pops the earliest delivery and its
// handler schedules a new one at a random later time — the pop and push
// sift costs the run pays at that depth.
func drillSim(v map[string]float64, shape drillShape, d time.Duration) {
	e := sim.NewEngine(1)
	var msg any = &wire.StateInfo{Height: 1}
	var k int
	var hold sim.DeliveryHandler
	hold = func(from, to uint64, m any) {
		k++
		e.AfterMsg(holdDelays[k%len(holdDelays)], hold, from, to, m)
	}
	for i := 0; i < shape.pending; i++ {
		hold(0, 1, msg)
	}
	op := func() { e.Step() }
	v["sim.dispatch_ns"] = nsPerOp(d, op)
	v["sim.dispatch_allocs"] = testing.AllocsPerRun(200, op)
}

// drillTransport times one simulated message in the same hold model: every
// delivery's handler sends the next message, so a Step is one delivery plus
// one SimEndpoint.Send (delay draw, traffic record, schedule) under the
// calibrated LAN model with totals-only accounting, as scenario runs use.
func drillTransport(v map[string]float64, shape drillShape, d time.Duration) {
	engine := sim.NewEngine(1)
	net := transport.NewSimNetwork(engine, netmodel.LAN(), netmodel.NewSimTraffic(time.Second).TotalsOnly())
	src, dst := net.AddNode(), net.AddNode()
	msg := &wire.StateInfo{Height: 1}
	dst.SetHandler(func(wire.NodeID, wire.Message) { _ = src.Send(dst.ID(), msg) })
	for i := 0; i < shape.pending; i++ {
		_ = src.Send(dst.ID(), msg)
	}
	op := func() { engine.Step() }
	v["transport.sim_send_ns"] = nsPerOp(d, op)
	v["transport.sim_send_allocs"] = testing.AllocsPerRun(200, op)
}

func drillNetmodel(v map[string]float64, seed int64, d time.Duration) {
	m := netmodel.LAN()
	rng := sim.NewRand(seed)
	v["netmodel.delay_ns"] = nsPerOp(d, func() { m.Delay(rng, 300) })
	tr := netmodel.NewSimTraffic(time.Second).TotalsOnly()
	v["netmodel.record_ns"] = nsPerOp(d, func() { tr.Record(1, 2, wire.TypeStateInfo, 100, time.Second) })
}

// drillWire encodes and decodes the workload's block as a Data message (the
// tcp path; the simulator only asks for sizes, timed on the two commonest
// small messages).
func drillWire(v map[string]float64, block *ledger.Block, d time.Duration) {
	msg := &wire.Data{Block: block, Counter: 3}
	enc := wire.Marshal(msg)
	kb := float64(len(enc)) / 1024
	v["wire.marshal_ns_per_kb"] = nsPerOp(d, func() { wire.Marshal(msg) }) / kb
	v["wire.marshal_allocs"] = testing.AllocsPerRun(50, func() { wire.Marshal(msg) })
	v["wire.unmarshal_ns_per_kb"] = nsPerOp(d, func() {
		if _, err := wire.Unmarshal(enc); err != nil {
			panic(err)
		}
	}) / kb
	digest := &wire.PushDigest{Offers: []wire.BlockOffer{{Num: 7, Counter: 4}}}
	alive := &wire.Alive{Seq: 12345, Meta: make([]byte, 256)}
	v["wire.size_ns"] = nsPerOp(d, func() {
		_ = digest.EncodedSize()
		_ = alive.EncodedSize()
	}) / 2
}

// drillGossip times the enhanced digest handler's self time: a core in a
// shape.members-peer organization receives push digests for blocks it
// holds, one in fout a first-seen (block, counter) pair that it forwards to
// fout random peers — the steady-state mix of a saturated epidemic level.
// The cycle's transport cost (one inbound and on average one forwarded
// message per digest) is subtracted: the same send to a no-op handler.
func drillGossip(v map[string]float64, shape drillShape, seed int64, d time.Duration) {
	n := max(shape.members, 8)
	cfg, err := enhanced.ConfigFor(n, 4, 1e-6, 2)
	if err != nil {
		panic(err)
	}
	engine := sim.NewEngine(seed)
	net := transport.NewSimNetwork(engine, fastLAN, netmodel.NewSimTraffic(time.Second).TotalsOnly())
	eps := make([]*transport.SimEndpoint, n)
	ids := make([]wire.NodeID, n)
	for i := range eps {
		eps[i] = net.AddNode()
		eps[i].SetHandler(func(wire.NodeID, wire.Message) {})
		ids[i] = eps[i].ID()
	}
	gcfg := gossip.DefaultConfig(ids[0], ids)
	gcfg.StateInfoInterval, gcfg.AliveInterval, gcfg.RecoveryInterval = 0, 0, 0
	core := gossip.New(gcfg, eps[0], engine, engine.Rand("gossip"), enhanced.New(cfg))
	core.Start()
	const held = 1 << 14
	for _, b := range harness.BuildChain(held, 1, 16, seed) {
		core.AddBlock(b)
	}
	engine.RunFor(time.Second) // drain the stores' own spreading
	// Fresh pairs come from counters above TTLdirect, which travel as
	// digests; each (block, counter) is first-seen exactly once.
	levels := uint64(cfg.TTL - cfg.TTLDirect - 1)
	var i, fresh uint64
	msg := &wire.PushDigest{Offers: make([]wire.BlockOffer, 1)}
	op := func() {
		if i%uint64(cfg.Fout) == 0 {
			msg.Offers[0] = wire.BlockOffer{Num: (fresh / levels) % held, Counter: cfg.TTLDirect + 1 + uint32(fresh%levels)}
			fresh++
		}
		i++
		_ = eps[1].Send(ids[0], msg)
		engine.RunFor(drillDrain)
	}
	baseline := nsPerOp(d, func() {
		_ = eps[1].Send(ids[2], msg)
		engine.RunFor(drillDrain)
	})
	v["gossip.handle_ns"] = max(0, nsPerOp(d, op)-2*baseline)
	core.Stop()
}

// stubHost is the peer a membership view or a statesync engine sees in a
// drill: sends vanish, the block store is a slice.
type stubHost struct {
	rng    *sim.Rand
	blocks []*ledger.Block
}

func (h *stubHost) Send(wire.NodeID, wire.Message) {}
func (h *stubHost) Rand() *sim.Rand                { return h.rng }
func (h *stubHost) Height() uint64                 { return uint64(len(h.blocks)) }
func (h *stubHost) AddBlock(*ledger.Block) bool    { return false }
func (h *stubHost) PeerDead(wire.NodeID) bool      { return false }
func (h *stubHost) IsLeader() bool                 { return false }
func (h *stubHost) Now() time.Duration             { return time.Second }
func (h *stubHost) Block(num uint64) *ledger.Block {
	if num < uint64(len(h.blocks)) {
		return h.blocks[num]
	}
	return nil
}

// swimConfig is the scenario runner's SWIM tuning.
func swimConfig(self int) membership.Config {
	return membership.Config{
		Self: wire.NodeID(self), Expiration: 5 * time.Second, SuspectTimeout: 10 * time.Second,
		PiggybackMax: digestEvents, PiggybackBudget: 4,
		ShuffleInterval: 2 * time.Second, ShuffleSample: shuffleSample,
	}
}

// swimView returns self's view, warmed with a heartbeat from every other
// member of a members-peer organization.
func swimView(self, members int, host membership.Host) *membership.View {
	v := membership.New(swimConfig(self), host)
	for i := 0; i < members; i++ {
		if i != self {
			v.Observe(wire.NodeID(i), 1, 0)
		}
	}
	return v
}

const (
	shuffleSample = 256 // entries per shuffle message (the runner's knob)
	digestEvents  = 32  // events per piggybacked digest (PiggybackMax)
)

// memberEntries is a membership payload of n entries about peers 1..n.
func memberEntries(n, members int) []wire.MemberEvent {
	entries := make([]wire.MemberEvent, min(n, members-1))
	for i := range entries {
		entries[i] = wire.MemberEvent{Peer: wire.NodeID(1 + i), Seq: 1, Kind: wire.EventAlive}
	}
	return entries
}

// drillMembership times the view operations over a whole organization's
// views in rotation — members views of members entries each — because a
// shard sweeps that working set between two visits to the same view, and a
// single hot view measures cache hits the run never gets. Payload entries
// carry fresher sequences every time, the state-changing path of a view that
// is still converging.
func drillMembership(v map[string]float64, shape drillShape, seed int64, d time.Duration) {
	host := &stubHost{rng: sim.NewRand(seed)}
	members := max(shape.members, 3)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	views := make([]*membership.View, members)
	for i := range views {
		views[i] = swimView(i, members, host)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	v["membership.view_bytes"] = math.Max(0, float64(after.HeapAlloc)-float64(before.HeapAlloc)) / float64(members)

	// Drain the warm-up's join rumors so the first loops run a quiet queue.
	for _, view := range views {
		for view.QueuedRumors() > 0 {
			view.PiggybackOnto(1)
		}
	}
	now := time.Second
	var seq uint64 = 1
	var k int
	next := func() *membership.View {
		k++
		seq++
		return views[k%members]
	}
	v["membership.observe_ns"] = nsPerOp(d, func() {
		view := next()
		view.Observe(wire.NodeID((k/members+1+k%members)%members), seq, now)
	})
	v["membership.tick_ns"] = nsPerOp(d, func() {
		view := next()
		view.Sweep(now)
		view.PiggybackOnto(1)
		view.ShuffleTick(now)
	})
	handle := func(msg wire.Message, entries []wire.MemberEvent) func() {
		return func() {
			view := next()
			for i := range entries {
				entries[i].Seq = seq
			}
			view.Handle(1, msg, now)
		}
	}
	shuffle := &wire.ShuffleRequest{Entries: memberEntries(shuffleSample, members)}
	v["membership.handle_ns"] = nsPerOp(d, handle(shuffle, shuffle.Entries))
	digest := &wire.MemberEvents{Events: memberEntries(digestEvents, members)}
	v["membership.digest_ns"] = nsPerOp(d, handle(digest, digest.Events))

	// A join is a view learning a peer it did not track: a sorted insert
	// into every parallel slice plus a queued rumor. Views grow from empty
	// to the whole organization in a shuffled order, digest by digest, so
	// the figure averages over every view size the convergence passes.
	order := host.rng.Perm(members - 1)
	joins := &wire.MemberEvents{Events: make([]wire.MemberEvent, min(digestEvents, members-1))}
	var view *membership.View
	pos := len(order)
	v["membership.join_ns"] = nsPerOp(d, func() {
		if pos+len(joins.Events) > len(order) {
			view, pos = membership.New(swimConfig(0), host), 0
		}
		for i := range joins.Events {
			joins.Events[i] = wire.MemberEvent{Peer: wire.NodeID(1 + order[pos+i]), Seq: 1, Kind: wire.EventAlive}
		}
		pos += len(joins.Events)
		view.Handle(1, joins, now)
	}) / float64(len(joins.Events))
}

// drillStatesync times Provider.Serve answering a full-batch request from
// its frozen-batch cache (the steady state of a recovery wave) and
// Fetcher.Observe taking a state-info height.
func drillStatesync(v map[string]float64, shape drillShape, seed int64, d time.Duration) {
	const batch = 32
	host := &stubHost{rng: sim.NewRand(seed), blocks: harness.BuildChain(batch, shape.txPerBlock, shape.payload, seed)}
	cfg := statesync.Config{Batch: batch}
	p := statesync.NewProvider(host, cfg)
	req := &wire.StateRequest{From: 0, To: batch}
	serve := func() { p.Serve(1, req) }
	serve() // build, freeze and cache the batch
	v["statesync.serve_ns"] = nsPerOp(d, serve)
	v["statesync.serve_allocs"] = testing.AllocsPerRun(200, serve)

	f := statesync.NewFetcher(host, cfg)
	members := max(shape.members, 3)
	var k int
	var height uint64
	v["statesync.observe_ns"] = nsPerOp(d, func() {
		k = 1 + (k+1)%(members-1)
		if k == 1 {
			height++
		}
		f.Observe(wire.NodeID(k), height)
	})
}

// drillLedger commits and validates a chain of workload-shaped blocks on a
// fresh ledger without a policy checker: MVCC validation, append and state
// apply only (the endorsement check is the endorse and crypto drills').
func drillLedger(v map[string]float64, shape drillShape, seed int64, d time.Duration) {
	const nBlocks = 32
	chain := harness.BuildChain(nBlocks, shape.txPerBlock, shape.payload, seed)
	txs := float64(nBlocks * shape.txPerBlock)
	commitAll := func() {
		led := ledger.NewLedger(nil)
		for _, b := range chain {
			if _, err := led.Commit(b); err != nil {
				panic(err)
			}
		}
	}
	v["ledger.commit_ns_per_tx"] = nsPerOp(d/32, commitAll) / txs
	v["ledger.commit_allocs_per_tx"] = testing.AllocsPerRun(3, commitAll) / txs
	state := ledger.NewStateDB()
	v["ledger.validate_ns_per_tx"] = nsPerOp(d/32, func() {
		for _, b := range chain {
			ledger.ValidateBlock(state, b, nil)
		}
	}) / txs
}

func drillCrypto(v map[string]float64, block *ledger.Block, seed int64, d time.Duration) {
	signer, err := crypto.NewSigner(rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	digest := crypto.Hash([]byte("bench"))
	sig := signer.Sign(digest[:])
	v["crypto.sign_ns"] = nsPerOp(d, func() { signer.Sign(digest[:]) })
	v["crypto.verify_ns"] = nsPerOp(d, func() {
		if crypto.Verify(signer.Public(), digest[:], sig) != nil {
			panic("bench: signature does not verify")
		}
	})
	payload := block.Txs[0].Payload
	v["crypto.hash_ns_per_kb"] = nsPerOp(d, func() { crypto.Hash(payload) }) / (float64(len(payload)) / 1024)
}

// drillEndorse times what sim-txload's endorsing peers and validators do
// per transaction: Endorser.Endorse of a counter increment, and the policy
// checker on a verdict-cache hit and on a miss (txEndorsersPerOrg
// signatures to verify).
func drillEndorse(v map[string]float64, seed int64, d time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	provider, err := msp.NewProvider(rng)
	if err != nil {
		panic(err)
	}
	var ids []*msp.Identity
	var endorsers []*endorse.Endorser
	for i := 0; i < txEndorsersPerOrg; i++ {
		id, signer, err := provider.Enroll(msp.RolePeer, "org0", fmt.Sprintf("peer%d", i), rng)
		if err != nil {
			panic(err)
		}
		e := endorse.NewEndorser(id, signer, ledger.NewStateDB())
		e.Install(chaincode.Counter{})
		ids, endorsers = append(ids, id), append(endorsers, e)
	}
	args := []string{"incr", "key-17"}
	nonce := make([]byte, 8)
	v["endorse.endorse_ns"] = nsPerOp(d, func() {
		if _, err := endorsers[0].Endorse("client", "counter", args, nonce); err != nil {
			panic(err)
		}
	})

	assemble := func(n byte) *ledger.Transaction {
		var rs []*endorse.Response
		for _, e := range endorsers {
			r, err := e.Endorse("client", "counter", args, []byte{n})
			if err != nil {
				panic(err)
			}
			rs = append(rs, r)
		}
		tx, err := endorse.AssembleTransaction("client", "counter", []byte{n}, rs)
		if err != nil {
			panic(err)
		}
		return tx
	}
	policy := endorse.NewPolicy(1, ids...)
	a, b := assemble(1), assemble(2)
	hit := policy.Checker()
	check := func(c ledger.PolicyChecker, tx *ledger.Transaction) {
		if err := c(tx); err != nil {
			panic(err)
		}
	}
	check(hit, a)
	v["endorse.check_hit_ns"] = nsPerOp(d, func() { check(hit, a) })
	// A one-entry cache alternating two transactions misses every time.
	miss := policy.CheckerN(1)
	v["endorse.check_miss_ns"] = nsPerOp(d, func() { check(miss, a); check(miss, b) }) / 2
}

// drillOrder times Service.Broadcast through a zero-delay solo consenter
// into the block cutter at the workload's block size.
func drillOrder(v map[string]float64, shape drillShape, block *ledger.Block, d time.Duration) {
	engine := sim.NewEngine(1)
	svc := order.NewService(order.Config{MaxTxPerBlock: shape.txPerBlock, BatchTimeout: time.Second},
		engine, order.NewSolo(engine, 0), nil, func(*ledger.Block) {})
	var i int
	v["order.broadcast_ns"] = nsPerOp(d, func() {
		if err := svc.Broadcast(block.Txs[i%len(block.Txs)]); err != nil {
			panic(err)
		}
		i++
		engine.RunFor(time.Microsecond)
	})
}

// drillRaft times one entry through a three-node cluster on a sim.Engine,
// Consenter.Submit to the leader's OnCommit, in host time. The figure
// includes the engine and simnet work of the entry's append round.
func drillRaft(v map[string]float64, d time.Duration) {
	engine := sim.NewEngine(1)
	net := transport.NewSimNetwork(engine, netmodel.Model{PropMin: 200 * time.Microsecond, PropMax: 500 * time.Microsecond}, nil)
	ids := []wire.NodeID{0, 1, 2}
	var cons []*raft.Consenter
	committed := 0
	for i := range ids {
		node := raft.New(raft.DefaultConfig(ids[i], ids), net.AddNode(), engine, engine.Rand("raft"))
		c := raft.NewConsenter(node, engine)
		if i == 0 {
			c.OnCommit(func([]byte) { committed++ })
		} else {
			c.OnCommit(func([]byte) {})
		}
		node.Start()
		cons = append(cons, c)
	}
	engine.RunFor(2 * time.Second) // elect
	var n uint64
	buf := make([]byte, 0, 32)
	v["raft.commit_ns"] = nsPerOp(d, func() {
		n++
		_ = cons[0].Submit(fmt.Appendf(buf[:0], "entry-%d", n))
		engine.RunFor(2 * time.Millisecond)
	})
	if committed == 0 {
		panic("bench: raft drill committed nothing")
	}
	for _, c := range cons {
		c.Stop()
		c.Node().Stop()
	}
}

// drillTCPSend counts the allocations of one TCPEndpoint.Send of the
// workload's block over loopback, receive side included (the reader
// goroutine's frame buffer and decoded message are part of what one message
// costs the process).
func drillTCPSend(v map[string]float64, block *ledger.Block) {
	book := transport.StaticAddressBook{}
	src, err := transport.ListenTCP(0, "127.0.0.1:0", book, nil)
	if err != nil {
		panic(err)
	}
	defer src.Close()
	dst, err := transport.ListenTCP(1, "127.0.0.1:0", book, nil)
	if err != nil {
		panic(err)
	}
	defer dst.Close()
	book[0], book[1] = src.Addr(), dst.Addr()
	got := make(chan struct{}, 1) // one message in flight at a time
	dst.SetHandler(func(wire.NodeID, wire.Message) { got <- struct{}{} })
	msg := &wire.Data{Block: block, Counter: 3}
	v["transport.tcp_send_allocs"] = testing.AllocsPerRun(50, func() {
		if err := src.Send(1, msg); err != nil {
			panic(err)
		}
		<-got
	})
}
