package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestDistributionQuantiles(t *testing.T) {
	d := NewDistribution([]time.Duration{ms(50), ms(10), ms(30), ms(20), ms(40)})
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.2, ms(10)},
		{0.5, ms(30)},
		{1.0, ms(50)},
		{0.0, ms(10)},  // clamps low
		{-0.5, ms(10)}, // clamps low
		{2.0, ms(50)},  // clamps high
	}
	for _, c := range cases {
		if got := d.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%g) = %v, want %v", c.p, got, c.want)
		}
	}
	if s := Summarize(d); s.Min != ms(10) || d.Max() != ms(50) || d.Mean() != ms(30) {
		t.Errorf("min/max/mean = %v/%v/%v", s.Min, d.Max(), d.Mean())
	}
}

func TestDistributionEmpty(t *testing.T) {
	d := NewDistribution(nil)
	if d.Quantile(0.5) != 0 || d.Mean() != 0 || d.Max() != 0 || Summarize(d) != (Summary{}) {
		t.Fatal("empty distribution should return zeros")
	}
}

func TestDistributionDoesNotAliasInput(t *testing.T) {
	in := []time.Duration{ms(3), ms(1), ms(2)}
	d := NewDistribution(in)
	in[0] = ms(999)
	if d.Max() != ms(3) {
		t.Fatal("distribution aliases caller slice")
	}
}

func TestLogit(t *testing.T) {
	if Logit(0.5) != 0 {
		t.Errorf("Logit(0.5) = %g", Logit(0.5))
	}
	if math.Abs(Logit(0.9)+Logit(0.1)) > 1e-12 {
		t.Error("Logit not antisymmetric")
	}
	if Logit(0.9999) <= Logit(0.99) {
		t.Error("Logit not increasing")
	}
}

func TestProbPlot(t *testing.T) {
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	d := NewDistribution(samples)
	rows := ProbPlot(d, PeerLevelTicks)
	if len(rows) != len(PeerLevelTicks) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Latency < rows[i-1].Latency {
			t.Fatal("probability plot not monotone")
		}
		if rows[i].LogitP <= rows[i-1].LogitP {
			t.Fatal("logit ticks not increasing")
		}
	}
	// Median of 1..1000 ms is 500 ms.
	var mid ProbPlotRow
	for _, r := range rows {
		if r.P == 0.5 {
			mid = r
		}
	}
	if mid.Latency != ms(500) {
		t.Fatalf("median row = %v, want 500ms", mid.Latency)
	}
}

func TestLatencyRecorderExtremes(t *testing.T) {
	r := NewLatencyRecorder()
	// Peer 0 fast (10ms), peer 1 medium (50ms), peer 2 slow (900ms), over 4 blocks.
	for b := uint64(0); b < 4; b++ {
		r.Record(b, 0, ms(10))
		r.Record(b, 1, ms(50))
		r.Record(b, 2, ms(900))
	}
	if r.Count() != 12 || r.Peers() != 3 || r.Blocks() != 4 {
		t.Fatalf("count/peers/blocks = %d/%d/%d", r.Count(), r.Peers(), r.Blocks())
	}
	pe, err := r.PeerExtremes()
	if err != nil {
		t.Fatal(err)
	}
	if pe.Fastest.Mean() != ms(10) || pe.Median.Mean() != ms(50) || pe.Slowest.Mean() != ms(900) {
		t.Fatalf("peer extremes = %v/%v/%v", pe.Fastest.Mean(), pe.Median.Mean(), pe.Slowest.Mean())
	}

	// Block extremes: make block 3 slow to finish.
	r2 := NewLatencyRecorder()
	for b := uint64(0); b < 3; b++ {
		r2.Record(b, 0, ms(10))
		r2.Record(b, 1, ms(20+int(b)))
	}
	r2.Record(3, 0, ms(10))
	r2.Record(3, 1, ms(5000))
	be, err := r2.BlockExtremes()
	if err != nil {
		t.Fatal(err)
	}
	if be.Slowest.Max() != ms(5000) {
		t.Fatalf("slowest block max = %v", be.Slowest.Max())
	}
	if be.Fastest.Max() != ms(20) {
		t.Fatalf("fastest block max = %v", be.Fastest.Max())
	}
}

func TestLatencyRecorderEmptyErrors(t *testing.T) {
	r := NewLatencyRecorder()
	if _, err := r.PeerExtremes(); err == nil {
		t.Error("PeerExtremes on empty recorder succeeded")
	}
	if _, err := r.BlockExtremes(); err == nil {
		t.Error("BlockExtremes on empty recorder succeeded")
	}
}

func TestAllPoolsEverything(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(0, 0, ms(1))
	r.Record(0, 1, ms(2))
	r.Record(1, 0, ms(3))
	if s := Summarize(r.All()); s.N != 3 || s.Max != ms(3) {
		t.Fatalf("All() n=%d max=%v", s.N, s.Max)
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	s := Summarize(NewDistribution(samples))
	if s.N != 100 || s.Min != ms(1) || s.Max != ms(100) || s.P50 != ms(50) || s.P95 != ms(95) || s.P99 != ms(99) {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

// Property: quantiles are monotone in p for any sample set.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v)
		}
		d := NewDistribution(samples)
		prev := time.Duration(-1)
		for p := 0.05; p <= 1.0; p += 0.05 {
			q := d.Quantile(p)
			if q < prev {
				return false
			}
			prev = q
		}
		return d.Quantile(1.0) == d.Max() && d.Quantile(0) <= d.Mean() && d.Mean() <= d.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOverheadRatio(t *testing.T) {
	// 10 blocks of 1000 bytes to 99 receivers, transmitted at 1.5x ideal.
	ideal := uint64(1000 * 99 * 10)
	if got := OverheadRatio(ideal*3/2, 1000, 99, 10); got < 1.49 || got > 1.51 {
		t.Fatalf("overhead = %v, want 1.5", got)
	}
	if got := OverheadRatio(123, 0, 99, 10); got != 0 {
		t.Fatalf("zero-ideal overhead = %v, want 0", got)
	}
}

// Summarize (a copy, sorted) and SummarizeSamples (the caller's slice,
// sorted in place) are two doors onto one quantile routine. They must agree
// with each other, and that routine with the definition it implements — the
// smallest sample with at least a p share of the samples at or below it —
// across sizes (empty and singleton included) and heavy duplication.
func TestSummarizeSamplesMatchesDistributionPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 7, 100, 999} {
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Int63n(int64(n)/2 + 1))
		}
		want := Summarize(NewDistribution(samples))
		got := SummarizeSamples(append([]time.Duration(nil), samples...))
		if got != want {
			t.Errorf("n=%d: SummarizeSamples = %+v\nwant %+v", n, got, want)
		}
		if got.N != n {
			t.Errorf("n=%d: summary counts %d samples", n, got.N)
		}
		for _, q := range []struct {
			p   float64
			got time.Duration
		}{{0.50, got.P50}, {0.95, got.P95}, {0.99, got.P99}, {0.999, got.P999}, {1, got.Max}} {
			if ref := quantileByDefinition(samples, q.p); q.got != ref {
				t.Errorf("n=%d p=%g: quantile %v, definition gives %v", n, q.p, q.got, ref)
			}
		}
	}
}

// quantileByDefinition scans for the smallest sample v with
// #{s <= v} >= p*n, without sorting: O(n^2), test only.
func quantileByDefinition(samples []time.Duration, p float64) time.Duration {
	var best time.Duration
	found := false
	for _, v := range samples {
		atOrBelow := 0
		for _, s := range samples {
			if s <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= p*float64(len(samples)) && (!found || v < best) {
			best, found = v, true
		}
	}
	return best
}
