package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// tcpPeers is the live organization's size: 8 peers plus one ordering
// endpoint, all in this process on 127.0.0.1.
const tcpPeers = 8

// tcpDeadline bounds the wait for one block to reach every peer; a pair
// still missing after it counts as failed.
const tcpDeadline = 30 * time.Second

// tcpShape sizes a live-runtime workload: the block shape, the warm-up
// blocks that absorb lazy dials (set-up, not timed), and the timed blocks.
type tcpShape struct {
	txPerBlock, payload int
	warm, timed         int
}

// newTCP is the live runtime in a closed loop with window 1: one generator
// goroutine on one connection sends block i+1 to the leader once block i
// has reached all peers. (An open loop was probed and rejected: with the
// generator sleeping in the same 2-core process it ran 20-25 ms late and p95
// swung 2.3 to 6.1 ms between identical runs.)
func newTCP(name string, full tcpShape) func(int64, bool, string) (repFunc, drillShape, error) {
	return func(seed int64, toy bool, outDir string) (repFunc, drillShape, error) {
		s := full
		if toy {
			s.warm, s.timed = 10, 40
		}
		// The chain is the generated input; the program sees only blocks.
		chain := harness.BuildChain(s.warm+s.timed, s.txPerBlock, s.payload, seed)
		shape := drillShape{txPerBlock: s.txPerBlock, payload: s.payload, members: tcpPeers, pending: 1024}
		spanFile := filepath.Join(outDir, "trace-"+name+".json")
		return func(traced bool) (*rep, error) { return tcpRep(s, chain, seed, traced, spanFile) }, shape, nil
	}
}

// tcpNet is one repetition's live organization.
type tcpNet struct {
	sched   *sim.RealScheduler
	traffic *netmodel.Traffic
	eps     []*transport.TCPEndpoint
	orderer *transport.TCPEndpoint
	cores   []*gossip.Core
	spans   []*spanLog // per peer; nil unless traced

	// Per block: when the generator sent it, how many peers still lack it,
	// and each peer's first-reception delay (slot peer). Each slot has one
	// writer — the reader goroutine that stored the block on that peer —
	// and is read only after the endpoints are closed.
	sentAt    []time.Time
	remaining []atomic.Int32
	recvAfter []time.Duration
	commits   []atomic.Int64
	done      chan uint64
}

func (n *tcpNet) close() {
	for _, c := range n.cores {
		c.Stop()
	}
	for _, ep := range n.eps {
		_ = ep.Close()
	}
	if n.orderer != nil {
		_ = n.orderer.Close()
	}
	n.sched.Close()
}

func startTCP(nBlocks int, seed int64, traced bool) (*tcpNet, error) {
	cfg, err := enhanced.ConfigFor(tcpPeers, 3, 1e-6, 2)
	if err != nil {
		return nil, err
	}
	n := &tcpNet{
		sched:     sim.NewRealScheduler(),
		traffic:   netmodel.NewTraffic(time.Hour).TotalsOnly(),
		sentAt:    make([]time.Time, nBlocks),
		remaining: make([]atomic.Int32, nBlocks),
		recvAfter: make([]time.Duration, nBlocks*tcpPeers),
		commits:   make([]atomic.Int64, tcpPeers),
		// One slot per block: each block completes once, so a completion
		// arriving after its deadline never blocks a reader goroutine.
		done: make(chan uint64, nBlocks),
	}
	for i := range n.remaining {
		n.remaining[i].Store(tcpPeers)
	}
	book := transport.StaticAddressBook{}
	ids := make([]wire.NodeID, tcpPeers)
	for i := range ids {
		ids[i] = wire.NodeID(i)
		ep, err := transport.ListenTCP(ids[i], "127.0.0.1:0", book, n.traffic)
		if err != nil {
			n.close()
			return nil, err
		}
		n.eps = append(n.eps, ep)
		book[ids[i]] = ep.Addr()
	}
	if n.orderer, err = transport.ListenTCP(wire.NodeID(tcpPeers), "127.0.0.1:0", book, n.traffic); err != nil {
		n.close()
		return nil, err
	}
	book[wire.NodeID(tcpPeers)] = n.orderer.Addr()

	for i := range ids {
		i := i
		var ep transport.Endpoint = n.eps[i]
		if traced {
			log := &spanLog{peer: i}
			n.spans = append(n.spans, log)
			ep = &spanEndpoint{Endpoint: ep, log: log}
		}
		core := gossip.New(gossip.DefaultConfig(ids[i], ids), ep, n.sched,
			sim.NewRand(sim.StreamSeed(seed, fmt.Sprintf("tcp/peer%d", i))), enhanced.New(cfg))
		core.OnFirstReception(func(b *ledger.Block, _ time.Duration) {
			n.recvAfter[int(b.Num)*tcpPeers+i] = time.Since(n.sentAt[b.Num])
			if n.remaining[b.Num].Add(-1) == 0 {
				n.done <- b.Num
			}
		})
		core.OnCommit(func(*ledger.Block) { n.commits[i].Add(1) })
		n.cores = append(n.cores, core)
		core.Start()
	}
	return n, nil
}

// send delivers one block to the leader and waits until every peer holds it
// or the deadline passes.
func (n *tcpNet) send(b *ledger.Block) error {
	n.sentAt[b.Num] = time.Now()
	if err := n.orderer.Send(0, &wire.DeliverBlock{Block: b}); err != nil {
		return err
	}
	deadline := time.After(tcpDeadline)
	for {
		select {
		case num := <-n.done:
			if num == b.Num { // else a block that completed after its deadline
				return nil
			}
		case <-deadline:
			return fmt.Errorf("block %d reached %d of %d peers within %v",
				b.Num, tcpPeers-int(n.remaining[b.Num].Load()), tcpPeers, tcpDeadline)
		}
	}
}

func tcpRep(s tcpShape, chain []*ledger.Block, seed int64, traced bool, spanFile string) (*rep, error) {
	r := &rep{peers: tcpPeers, blocks: s.timed, attempted: s.timed * tcpPeers, layer: map[string]float64{}}
	t0 := time.Now()
	net, err := startTCP(len(chain), seed, traced)
	if err != nil {
		return nil, err
	}
	defer net.close()
	for _, b := range chain[:s.warm] {
		if err := net.send(b); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	r.setup = time.Since(t0)
	r.buildS = r.setup.Seconds()

	bytes0 := net.traffic.TotalBytes()
	frames0 := tcpFrames(net.traffic)
	for _, log := range net.spans {
		log.reset()
	}
	var sendErr error
	r.measured = measure(func() {
		for _, b := range chain[s.warm:] {
			if err := net.send(b); err != nil {
				// One stall costs the whole deadline; the blocks not sent
				// count as missing pairs below.
				sendErr = err
				return
			}
		}
	})
	r.netBytes = net.traffic.TotalBytes() - bytes0
	frames := tcpFrames(net.traffic) - frames0
	net.close() // waits for every reader goroutine: the slots are now quiet

	// Check the outputs: every timed (block, peer) pair received, and every
	// peer committed the whole chain in order.
	var lat, full []time.Duration
	missing := 0
	for _, b := range chain[s.warm:] {
		var slowest time.Duration
		for p := 0; p < tcpPeers; p++ {
			d := net.recvAfter[int(b.Num)*tcpPeers+p]
			if d == 0 {
				missing++
				continue
			}
			lat = append(lat, d)
			slowest = max(slowest, d)
		}
		full = append(full, slowest)
	}
	if missing > 0 {
		r.fail(missing, "%d of %d (block, peer) pairs never received (first error: %v)", missing, r.attempted, sendErr)
	}
	for p := range net.commits {
		if got := net.commits[p].Load(); got != int64(len(chain)) {
			r.fail(1, "peer %d committed %d of %d blocks in order", p, got, len(chain))
		}
	}
	recv := metrics.SummarizeSamples(lat)
	r.samples, r.p50 = recv.N, recv.P50
	r.tail, r.tailName = recv.P95, "p95"

	l := r.layer
	l["transport.tcp_blocks_per_s"] = float64(s.timed) / r.wall.Seconds()
	l["transport.tcp_frames"] = float64(frames)
	l["transport.tcp_bytes"] = float64(r.netBytes)
	l["gossip.full_dissem_p50_us"] = float64(metrics.SummarizeSamples(full).P50) / 1e3
	l["gossip.recv_p99_us"] = float64(recv.P99) / 1e3
	l["gossip.commits"] = float64(s.timed * tcpPeers)
	if traced {
		spans := collectSpans(net.spans)
		spanMetrics(l, spans)
		if err := writeSpans(spanFile, spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func tcpFrames(t *netmodel.Traffic) (n uint64) {
	for _, cb := range t.Breakdown() {
		n += cb[0]
	}
	return n
}

// --- spans: recorded from the benchmark's side of the layer boundaries ---

// span is one timed call across a layer boundary. Times are nanoseconds
// since the peer's log was last reset; Block is the block the message
// carried or offered (-1 for membership and state traffic) — the identifier
// spans of one dissemination share. Parent indexes the enclosing
// gossip.handle span in the written file, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Peer   int    `json:"peer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Block  int64  `json:"block"`
	Parent int    `json:"parent"`
	Err    bool   `json:"err,omitempty"`
}

// spanLog is one peer's span buffer, kept in memory until the run ends.
type spanLog struct {
	peer int
	mu   sync.Mutex
	t0   time.Time
	s    []span
}

func (l *spanLog) reset() {
	l.mu.Lock()
	l.t0, l.s = time.Now(), l.s[:0]
	l.mu.Unlock()
}

func (l *spanLog) add(name string, start, end time.Time, msg wire.Message, failed bool) {
	l.mu.Lock()
	l.s = append(l.s, span{
		Name: name, Peer: l.peer, Block: blockOf(msg), Parent: -1, Err: failed,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
	l.mu.Unlock()
}

// blockOf names the block a message is about.
func blockOf(msg wire.Message) int64 {
	switch m := msg.(type) {
	case *wire.Data:
		return int64(m.Block.Num)
	case *wire.DeliverBlock:
		return int64(m.Block.Num)
	case *wire.PushDigest:
		if len(m.Offers) > 0 {
			return int64(m.Offers[0].Num)
		}
	case *wire.PushRequest:
		if len(m.Nums) > 0 {
			return int64(m.Nums[0])
		}
	}
	return -1
}

// spanEndpoint decorates the transport.Endpoint handed to gossip.New: a
// transport.send span around every Send, a gossip.handle span around every
// call of the installed handler.
type spanEndpoint struct {
	transport.Endpoint
	log *spanLog
}

func (e *spanEndpoint) Send(to wire.NodeID, msg wire.Message) error {
	start := time.Now()
	err := e.Endpoint.Send(to, msg)
	e.log.add("transport.send", start, time.Now(), msg, err != nil)
	return err
}

func (e *spanEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(from wire.NodeID, msg wire.Message) {
		start := time.Now()
		h(from, msg)
		e.log.add("gossip.handle", start, time.Now(), msg, false)
	})
}

// collectSpans merges the peers' logs and links each transport.send to the
// gossip.handle span on the same peer that encloses it in time. Handlers
// send synchronously, so enclosure identifies the cause except when two
// handlers of one peer overlap on different connections; the innermost
// (latest-started) enclosing handler is taken then.
func collectSpans(logs []*spanLog) []span {
	var all []span
	for _, l := range logs {
		base := len(all)
		all = append(all, l.s...)
		mine := all[base:]
		sort.Slice(mine, func(i, j int) bool { return mine[i].Start < mine[j].Start })
		var open []int // indexes of handle spans that may still enclose
		for i := range mine {
			keep := open[:0]
			for _, h := range open {
				if mine[h].End >= mine[i].Start {
					keep = append(keep, h)
				}
			}
			open = keep
			if mine[i].Name == "gossip.handle" {
				open = append(open, i)
				continue
			}
			for k := len(open) - 1; k >= 0; k-- {
				if mine[open[k]].End >= mine[i].End {
					mine[i].Parent = base + open[k]
					break
				}
			}
		}
	}
	return all
}

// spanMetrics reduces the spans to the tcp transport and gossip layer
// figures. A handler's self time is its span minus its child sends.
func spanMetrics(l map[string]float64, spans []span) {
	var sends []time.Duration
	var sendSum, handleSum float64
	var handles, errs int
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Name != "transport.send" {
			continue
		}
		d := s.End - s.Start
		sends = append(sends, time.Duration(d))
		sendSum += float64(d)
		if s.Err {
			errs++
		}
		if s.Parent >= 0 {
			child[s.Parent] += d
		}
	}
	for i, s := range spans {
		if s.Name == "gossip.handle" {
			handles++
			handleSum += float64(s.End - s.Start - child[i])
		}
	}
	if len(sends) > 0 {
		l["transport.tcp_send_ns"] = sendSum / float64(len(sends))
		l["transport.tcp_send_p99_ns"] = float64(metrics.SummarizeSamples(sends).P99)
	}
	l["transport.tcp_send_errors"] = float64(errs)
	if handles > 0 {
		l["gossip.tcp_handle_self_ns"] = handleSum / float64(handles)
	}
	l["obs.trace_events"] = float64(len(spans))
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
