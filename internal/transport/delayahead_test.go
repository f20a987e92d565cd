package transport

import (
	"testing"
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// With the lookahead on, every message is delivered exactly Model.Delay
// after its send, drawn from a fresh "transport" stream of the same seed in
// send order: the buffered Base values plus the size term are the inline
// sum. The sends cross more than three buffer boundaries, with the
// shortened test buffers and with the real ones.
func TestDelayAheadMatchesModelDelay(t *testing.T) {
	model := netmodel.LAN()
	payload := make([]byte, 200_000)
	for _, aheadLen := range []int{37, delayAheadLen} {
		const seed = 11
		eng := sim.NewEngine(seed)
		n := NewSimNetwork(eng, model, nil)
		n.aheadLen = aheadLen
		a, b := n.AddNode(), n.AddNode()
		sends := 3*aheadLen + aheadLen/2 + 1
		index := make(map[*wire.RaftForward]int, sends)
		got := make([]time.Duration, sends)
		b.SetHandler(func(_ wire.NodeID, m wire.Message) { got[index[m.(*wire.RaftForward)]] = eng.Now() })

		fresh := sim.NewRand(sim.StreamSeed(seed, "transport"))
		want := make([]time.Duration, sends)
		for i := range sends {
			msg := &wire.RaftForward{Data: payload[:(i*7919)%len(payload)]}
			index[msg] = i
			want[i] = model.Delay(fresh, msg.EncodedSize())
			if err := a.Send(b.ID(), msg); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()

		if ah := n.shards[0].ahead; ah == nil || ah.read+ah.pos != sends {
			t.Fatalf("buffers of %d: the lookahead did not serve all %d sends", aheadLen, sends)
		}
		for i := range sends {
			if got[i] != want[i] {
				t.Fatalf("buffers of %d: send %d delivered after %v, Model.Delay draws %v", aheadLen, i, got[i], want[i])
			}
		}
	}
}

// SetDropRate(0.2) turns the lookahead off at any point of its buffers —
// before the first draw, mid-buffer, exactly on a boundary, after two
// buffers — and the run goes on exactly as one that drew inline from the
// start: same deliveries, same instants, same drops.
func TestDelayAheadSwitchesInlineOnLoss(t *testing.T) {
	type delivery struct {
		at       time.Duration
		from, to wire.NodeID
	}
	const (
		aheadLen = 64
		nodes    = 6
		sends    = 600
	)
	drive := func(aheadLen, lossAt int) []delivery {
		eng := sim.NewEngine(3)
		n := NewSimNetwork(eng, netmodel.LAN(), nil)
		n.aheadLen = aheadLen
		eps := make([]*SimEndpoint, nodes)
		var got []delivery
		for i := range eps {
			ep := n.AddNode()
			eps[i] = ep
			ep.SetHandler(func(from wire.NodeID, _ wire.Message) {
				got = append(got, delivery{eng.Now(), from, ep.ID()})
			})
		}
		pick := eng.Rand("pick")
		for i := range sends {
			eng.At(time.Duration(i)*70*time.Microsecond, func() {
				if i == lossAt {
					if started := n.shards[0].ahead != nil; started != (aheadLen > 0 && i > 0) {
						t.Fatalf("loss at send %d: lookahead started = %v", i, started)
					}
					n.SetDropRate(0.2)
				}
				from, to := pick.Intn(nodes), pick.Intn(nodes)
				_ = eps[from].Send(eps[to].ID(), &wire.StateInfo{Height: uint64(i)})
			})
		}
		eng.Run()
		if n.aheadLen != 0 || n.shards[0].ahead != nil {
			t.Fatalf("loss at send %d: the lookahead is still on", lossAt)
		}
		return got
	}
	for _, lossAt := range []int{0, aheadLen / 2, aheadLen, 2*aheadLen + 3} {
		inline, ahead := drive(0, lossAt), drive(aheadLen, lossAt)
		if len(inline) == sends || len(inline) < sends/2 {
			t.Fatalf("loss at send %d: %d of %d delivered, the loss draw is not exercised", lossAt, len(inline), sends)
		}
		if len(ahead) != len(inline) {
			t.Fatalf("loss at send %d: %d deliveries with the lookahead, %d inline", lossAt, len(ahead), len(inline))
		}
		for i := range inline {
			if ahead[i] != inline[i] {
				t.Fatalf("loss at send %d: delivery %d is %+v with the lookahead, %+v inline", lossAt, i, ahead[i], inline[i])
			}
		}
	}
}

// A refill reuses its buffer and starts its goroutine from a pre-bound
// func, so sends through many refills allocate nothing at all (not just
// nothing on average, which is all AllocsPerRun's rounding would show).
func TestDelayAheadRefillAllocationFree(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewSimNetwork(eng, fastModel(), netmodel.NewSimTraffic(time.Hour))
	n.aheadLen = 16
	src, dst := n.AddNode(), n.AddNode()
	dst.SetHandler(func(wire.NodeID, wire.Message) {})
	msg := &wire.StateInfo{Height: 1}
	cycles := func() {
		for range 2000 { // 125 refills
			_ = src.Send(dst.ID(), msg)
			eng.RunFor(10 * time.Microsecond)
		}
	}
	cycles() // warm the event pool, the queue and the goroutine free list
	if allocs := testing.AllocsPerRun(1, cycles); allocs != 0 {
		t.Fatalf("2000 sends through 125 refills allocate %.0f objects, want 0", allocs)
	}
}
