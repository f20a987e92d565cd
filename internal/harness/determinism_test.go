package harness

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fabricgossip/internal/metrics"
	"fabricgossip/internal/wire"
)

// resultDigest serializes everything a DisseminationResult measured into a
// canonical string: every latency quantile per view, traffic totals and
// per-type counts, and the headline counters. Two runs of the same seed
// must produce identical digests.
func resultDigest(res *DisseminationResult) string {
	all := res.Latencies.All()
	s := fmt.Sprintf("count=%d peers=%d blocks=%d body=%d recov=%d wall=%d bytes=%d\n",
		res.Latencies.Count(), res.Latencies.Peers(), res.Latencies.Blocks(),
		res.BodyTransmissions, res.RecoveryServed, res.WallBlocks, res.Traffic.TotalBytes())
	for p := 0.05; p <= 1.0; p += 0.05 {
		s += fmt.Sprintf("q%.2f=%v\n", p, all.Quantile(p))
	}
	for mt := wire.TypeData; mt <= wire.TypeDeliverBlock; mt++ {
		s += fmt.Sprintf("%v=%d/%d\n", mt, res.Traffic.CountOf(mt), res.Traffic.BytesOf(mt))
	}
	s += metrics.Summarize(all).String()
	return s
}

func smallParams(v Variant, seed int64) Params {
	p := QuickScale(DefaultParams(v, seed), 20, 6)
	p.BlockInterval = 300 * time.Millisecond
	p.Tail = 10 * time.Second
	p.BackgroundBytesPerSec = 0
	return p
}

// The determinism property at the harness level: repeated RunDissemination
// calls with one seed yield byte-identical metrics for both protocols.
func TestDisseminationResultDeterministicPerSeed(t *testing.T) {
	for _, v := range []Variant{VariantOriginal, VariantEnhanced} {
		v := v
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			a, err := RunDissemination(smallParams(v, 17))
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunDissemination(smallParams(v, 17))
			if err != nil {
				t.Fatal(err)
			}
			da, db := resultDigest(a), resultDigest(b)
			if da != db {
				t.Fatalf("same-seed digests differ:\n%s\n---\n%s", da, db)
			}
			c, err := RunDissemination(smallParams(v, 18))
			if err != nil {
				t.Fatal(err)
			}
			if resultDigest(c) == da {
				t.Fatal("different seeds produced identical digests")
			}
		})
	}
}

// A dissemination run's network draws its delays ahead on another goroutine
// when it has a second core, and inline on one: the results are the same.
// The runs cross several of the lookahead's buffers.
func TestDisseminationDelayAheadMatchesInline(t *testing.T) {
	for _, v := range []Variant{VariantOriginal, VariantEnhanced} {
		var digests [2]string
		for i, procs := range []int{1, 2} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				res, err := RunDissemination(QuickScale(DefaultParams(v, 17), 40, 80))
				if err != nil {
					t.Fatal(err)
				}
				var msgs uint64
				for mt := wire.TypeData; mt <= wire.TypeDeliverBlock; mt++ {
					msgs += res.Traffic.CountOf(mt)
				}
				if msgs < 3*8192 {
					t.Fatalf("%s: %d messages sent, too few to cross three lookahead buffers", v, msgs)
				}
				digests[i] = resultDigest(res)
			}()
		}
		if digests[0] != digests[1] {
			t.Fatalf("%s: GOMAXPROCS 1 and 2 differ:\n%s\n---\n%s", v, digests[0], digests[1])
		}
	}
}
