package harness

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"fabricgossip/internal/wire"
)

// buffered counts the finished blocks waiting in the stream.
func buffered(s *chainStream) (n int) {
	for _, l := range s.lanes {
		n += len(l)
	}
	return n
}

// The stream RunDissemination consumes is BuildChain's chain block for block
// — at any parallelism, with any number of hashers, whether the consumer
// waits for the builder or the builder finishes long before the consumer
// starts. BuildChain itself is pinned by TestBuildChainPinned.
func TestStreamChainMatchesBuildChain(t *testing.T) {
	const n = 48
	for _, seed := range []int64{1, 7} {
		var want [][]byte
		for _, b := range BuildChain(n, 50, 3000, seed) {
			want = append(want, wire.Marshal(&wire.Data{Block: b}))
		}
		for _, procs := range []int{1, 4} {
			for _, hashers := range []int{0, 3} {
				for _, slowConsumer := range []bool{false, true} {
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						s := streamChain(n, 50, 3000, seed, hashers)
						defer s.Close()
						for slowConsumer && buffered(s) < n {
							time.Sleep(time.Millisecond)
						}
						for i := range want {
							b := s.Next()
							if b == nil {
								t.Fatalf("seed %d procs %d hashers %d slow %v: stream ended at block %d", seed, procs, hashers, slowConsumer, i)
							}
							if got := wire.Marshal(&wire.Data{Block: b}); !bytes.Equal(got, want[i]) {
								t.Fatalf("seed %d procs %d hashers %d slow %v: block %d differs from BuildChain's", seed, procs, hashers, slowConsumer, i)
							}
						}
						if b := s.Next(); b != nil {
							t.Fatalf("seed %d procs %d hashers %d: block %d past the chain's end", seed, procs, hashers, b.Num)
						}
					}()
				}
			}
		}
	}
}

// Close abandons the rest of the chain: the builder stops drawing and
// hashing instead of finishing a chain nobody will read.
func TestStreamChainCloseStopsTheBuilder(t *testing.T) {
	const n = 100_000
	for _, hashers := range []int{0, 2} {
		s := streamChain(n, 1, 16, 1, hashers)
		if s.Next() == nil {
			t.Fatal("no first block")
		}
		s.Close()
		if built := 1 + buffered(s); built >= n {
			t.Fatalf("hashers %d: all %d blocks built after Close", hashers, built)
		}
	}
}

// RunDissemination starts its chain builder before it builds the
// organization; every return — normal or error — must leave no goroutine
// behind.
func TestRunDisseminationLeavesNoGoroutine(t *testing.T) {
	ok := smallParams(VariantEnhanced, 3)
	for _, tc := range []struct {
		name    string
		edit    func(*Params)
		wantErr bool
	}{
		{"normal", func(*Params) {}, false},
		{"one peer", func(p *Params) { p.NumPeers = 1 }, true},
		{"no blocks", func(p *Params) { p.NumBlocks = 0 }, true},
		{"no bandwidth bucket", func(p *Params) { p.Bucket = 0 }, true},
		{"unknown variant", func(p *Params) { p.Variant = "flooding" }, true},
		{"unknown variant, builder stopped mid-chain", func(p *Params) {
			p.Variant = "flooding"
			p.NumBlocks, p.TxPerBlock, p.TxPayload = 20000, 4, 64
		}, true},
	} {
		before := runtime.NumGoroutine()
		p := ok
		tc.edit(&p)
		res, err := RunDissemination(p)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if err == nil && res.WallBlocks != p.NumBlocks {
			t.Fatalf("%s: %d of %d blocks disseminated", tc.name, res.WallBlocks, p.NumBlocks)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("%s: %d goroutines after the run, %d before", tc.name, got, before)
		}
	}
}

// The bandwidth figures' "regular peer" is a non-leader peer for every
// seed: a negative seed once made it node 4 294 967 294, whose bandwidth
// series is empty.
func TestRegularPeerIsANonLeaderPeer(t *testing.T) {
	for seed, want := range map[int64]wire.NodeID{-7: 93, -1: 99, 0: 1, 1: 2, 98: 99, 99: 1} {
		if got := regularPeer(seed, 100); got != want {
			t.Errorf("seed %d: regular peer %v, want %v", seed, got, want)
		}
	}
	p := smallParams(VariantEnhanced, -7)
	p.BackgroundBytesPerSec = 400_000
	res, err := RunDissemination(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RegularID < 1 || int(res.RegularID) >= p.NumPeers {
		t.Fatalf("regular peer %v outside 1..%d", res.RegularID, p.NumPeers-1)
	}
	if avg := res.Traffic.NodeAverage(res.RegularID, res.NumBuckets); avg <= 0 {
		t.Fatalf("regular peer %v averaged %.3f MB/s", res.RegularID, avg)
	}
}
