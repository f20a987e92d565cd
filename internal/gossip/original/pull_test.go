package original

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// TestPullTranscriptPinned is a characterisation test in the style of
// membership's TestViewTranscriptPinned: 20 peers on the stock protocol with
// a 10 % drop rate, one peer cut off for two seconds and one block the
// orderer withholds until 125 others are out (so every store has a gap with
// more than a probe's worth of strays above it), hashing every PullDigest
// and PullRequest — sender, destination, nonce and numbers — in send order.
// The hash was recorded while a hello was still answered by one locked probe
// of the store per number, so it pins what a pull round says independently
// of how the store is read. The catalog goldens cover the same only through fingerprints of
// latencies and byte counts.
func TestPullTranscriptPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TPull = time.Second
	w := build(t, 20, cfg, 11)
	w.sim.SetDropRate(0.10)
	w.sim.SetLossExempt(wire.TypeDeliverBlock, true)

	h := sha256.New()
	var digests, requests, nums int
	record := func(kind byte, from, to wire.NodeID, nonce uint64, ns []uint64) {
		var buf [8]byte
		for _, v := range append([]uint64{uint64(kind), uint64(from), uint64(to), nonce, uint64(len(ns))}, ns...) {
			binary.BigEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		nums += len(ns)
	}
	w.tap = func(from, to wire.NodeID, msg wire.Message) {
		switch m := msg.(type) {
		case *wire.PullDigest:
			digests++
			record('D', from, to, m.Nonce, digestNums(m))
		case *wire.PullRequest:
			requests++
			record('R', from, to, m.Nonce, m.Nums)
		}
	}

	const blocks, withheld = 150, 40
	for i := 0; i < blocks; i++ {
		at := time.Duration(i) * 40 * time.Millisecond
		if i == withheld {
			at = 5 * time.Second
		}
		b := block(uint64(i))
		w.engine.At(at, func() { _ = w.orderer.Send(0, &wire.DeliverBlock{Block: b}) })
	}
	w.engine.At(2*time.Second, func() { w.sim.SetNodeDown(7, true) })
	w.engine.At(4*time.Second, func() { w.sim.SetNodeDown(7, false) })
	w.engine.RunUntil(20 * time.Second)

	if digests < 500 || requests < 100 {
		t.Fatalf("only %d digests and %d requests: the script no longer exercises pull", digests, requests)
	}
	const want = "feec9d0f8f539929f86c79f33d2f3ba6a4adf133c3ef2fecdd3243fd070b7330"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("pull transcript hash = %s, want %s (%d digests, %d requests, %d numbers)", got, want, digests, requests, nums)
	}
}

// TestPullStateIsBounded: the bookkeeping of a pull round must not outlive
// the round. A hello whose responder never answers used to leave its nonce
// in pending for the life of the peer, and requested kept one entry per
// block number ever pulled.
func TestPullStateIsBounded(t *testing.T) {
	t.Run("pending", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.TPull = time.Second
		w := build(t, 2, cfg, 21)
		w.sim.SetNodeDown(1, true) // the only responder
		w.engine.RunUntil(50 * cfg.TPull)
		if hellos := w.traffic.CountOf(wire.TypePullHello); hellos < 90 {
			t.Fatalf("%d hellos in 50 rounds of 2 peers", hellos)
		}
		if got := len(w.protos[0].pending); got > 2*cfg.Fin {
			t.Fatalf("%d nonces pending after 50 unanswered rounds, want <= %d", got, 2*cfg.Fin)
		}
	})
	t.Run("requested", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Fout = 0 // only the leader holds a block until someone pulls it
		cfg.TPull = 500 * time.Millisecond
		w := build(t, 6, cfg, 22)
		const blocks = 200
		for i := 0; i < blocks; i++ {
			b := block(uint64(i))
			w.engine.At(time.Duration(i)*20*time.Millisecond, func() { _ = w.orderer.Send(0, &wire.DeliverBlock{Block: b}) })
		}
		w.engine.RunUntil(15 * time.Second)
		if pulled := w.traffic.CountOf(wire.TypePullData); pulled < 5*blocks {
			t.Fatalf("%d blocks pulled, want every block at every peer", pulled)
		}
		for i, p := range w.protos {
			outstanding := blocks - int(w.cores[i].Height())
			if got := len(p.requested); got > outstanding {
				t.Errorf("peer %d remembers %d requested numbers with %d blocks outstanding", i, got, outstanding)
			}
		}
	})
}

// digestNums is the list a digest stands for: its run, then its strays.
func digestNums(m *wire.PullDigest) []uint64 {
	var nums []uint64
	for num := m.RunLo; num < m.RunHi; num++ {
		nums = append(nums, num)
	}
	return append(nums, m.Nums...)
}

// digestCheck is an endpoint that checks every pull message a core sends:
// numbers ascending with no duplicates, and a digest advertising only blocks
// the test has added or is adding.
type digestCheck struct {
	t     *testing.T
	added func(num uint64) bool

	digests atomic.Int64
}

func (*digestCheck) ID() wire.NodeID              { return 0 }
func (*digestCheck) SetHandler(transport.Handler) {}

func (e *digestCheck) Send(_ wire.NodeID, msg wire.Message) error {
	var nums []uint64
	digest := false
	switch m := msg.(type) {
	case *wire.PullDigest:
		nums, digest = digestNums(m), true
		e.digests.Add(1)
	case *wire.PullRequest:
		nums = m.Nums
	}
	for i, num := range nums {
		if i > 0 && nums[i-1] >= num {
			e.t.Errorf("%T numbers not strictly ascending: %d then %d", msg, nums[i-1], num)
		}
		if digest && !e.added(num) {
			e.t.Errorf("digest advertises block %d, which nobody stores", num)
		}
	}
	return nil
}

// TestPullHandlersAgainstConcurrentAddBlock runs the two store-reading pull
// handlers from two goroutines while a third stores blocks out of order, as
// reader goroutines do on the TCP runtime (run under -race in CI).
func TestPullHandlersAgainstConcurrentAddBlock(t *testing.T) {
	const blocks = 2000
	adding := make([]atomic.Bool, blocks) // set just before the AddBlock call
	ep := &digestCheck{t: t, added: func(num uint64) bool { return num < blocks && adding[num].Load() }}
	sched := sim.NewRealScheduler()
	defer sched.Close()
	cfg := DefaultConfig()
	cfg.TPull = 0 // no timers: the test is the only caller
	p := New(cfg)
	gcfg := gossip.DefaultConfig(0, []wire.NodeID{0, 1})
	gcfg.AliveInterval, gcfg.StateInfoInterval, gcfg.RecoveryInterval = 0, 0, 0
	c := gossip.New(gcfg, ep, sched, sim.NewRand(1), p)
	c.Start()
	defer c.Stop()

	// Locally shuffled order: strays land above a moving gap.
	order := make([]uint64, 0, blocks)
	rng := sim.NewRand(2)
	for base := 0; base < blocks; base += 8 {
		for _, j := range rng.Perm(8) {
			order = append(order, uint64(base+j))
		}
	}
	// A digest naming every number and a few beyond: a run, then strays.
	beyond := []uint64{blocks, blocks + 3, blocks + 9}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := uint64(0); g < 2; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for nonce := g << 32; ; nonce++ {
				select {
				case <-done:
					return
				default:
				}
				p.servePullHello(1, &wire.PullHello{Nonce: nonce})
				p.mu.Lock()
				p.pending[nonce] = 1
				p.mu.Unlock()
				p.handlePullDigest(1, &wire.PullDigest{Nonce: nonce, RunLo: 0, RunHi: blocks, Nums: beyond})
			}
		}(g)
	}
	for i, num := range order {
		adding[num].Store(true)
		c.AddBlock(block(num))
		if i%8 == 3 {
			// Mid-group, with strays above a gap: let a digest be served
			// before the store moves on.
			for seen := ep.digests.Load(); ep.digests.Load() == seen; {
				runtime.Gosched()
			}
		}
	}
	close(done)
	wg.Wait()
}
