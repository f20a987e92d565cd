package netmodel

import (
	"testing"
	"time"

	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

func TestDelayComponents(t *testing.T) {
	rng := sim.NewRand(1)
	m := Model{
		BandwidthBytesPerSec: 125e6,
		PropMin:              100 * time.Microsecond,
		PropMax:              200 * time.Microsecond,
	}
	// Without processing jitter, delay = prop + size/bw.
	for i := 0; i < 1000; i++ {
		d := m.Delay(rng, 125_000) // 1 ms of serialization at 1 Gbps
		lo := 100*time.Microsecond + time.Millisecond
		hi := 200*time.Microsecond + time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("delay %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestDelayGrowsWithSize(t *testing.T) {
	rng := sim.NewRand(2)
	m := Model{BandwidthBytesPerSec: 125e6, PropMin: time.Millisecond, PropMax: time.Millisecond}
	small := m.Delay(rng, 100)
	large := m.Delay(rng, 10_000_000)
	if large <= small {
		t.Fatalf("large message (%v) not slower than small (%v)", large, small)
	}
}

func TestDelayProcessingClamp(t *testing.T) {
	rng := sim.NewRand(3)
	m := Model{
		ProcMedian: time.Millisecond,
		ProcSigma:  3.0, // extreme tail
		ProcMax:    5 * time.Millisecond,
	}
	for i := 0; i < 5000; i++ {
		if d := m.Delay(rng, 0); d > 5*time.Millisecond {
			t.Fatalf("delay %v exceeds clamp", d)
		}
	}
}

func TestLANModelSane(t *testing.T) {
	m := LAN()
	rng := sim.NewRand(4)
	var sum time.Duration
	const trials = 10_000
	for i := 0; i < trials; i++ {
		sum += m.Delay(rng, 160_000) // one 160 KB block
	}
	mean := sum / trials
	// A block hop on the calibrated LAN should take single-digit
	// milliseconds on average — fast push phase, as in the paper.
	if mean < time.Millisecond || mean > 20*time.Millisecond {
		t.Fatalf("mean block-hop delay %v outside sane range", mean)
	}
}

func TestTrafficBucketsAndSeries(t *testing.T) {
	tr := NewTraffic(10 * time.Second)
	// 1 MB from node 0 to node 1 in bucket 0, 2 MB in bucket 2.
	tr.Record(0, 1, wire.TypeData, 1_000_000, 5*time.Second)
	tr.Record(0, 1, wire.TypeData, 2_000_000, 25*time.Second)

	s0 := tr.NodeSeries(0, 3)
	s1 := tr.NodeSeries(1, 3)
	want := []float64{0.1, 0, 0.2} // MB/s over 10 s buckets
	for i := range want {
		if s0[i] != want[i] || s1[i] != want[i] {
			t.Fatalf("series = %v / %v, want %v", s0, s1, want)
		}
	}
	if avg := tr.NodeAverage(0, 3); avg < 0.099 || avg > 0.101 {
		t.Fatalf("average = %v, want 0.1", avg)
	}
	if tr.TotalBytes() != 3_000_000 {
		t.Fatalf("total = %d", tr.TotalBytes())
	}
}

func TestTrafficPerTypeAccounting(t *testing.T) {
	tr := NewTraffic(time.Second)
	tr.Record(0, 1, wire.TypeData, 100, 0)
	tr.Record(1, 2, wire.TypeData, 100, 0)
	tr.Record(2, 0, wire.TypePushDigest, 10, 0)
	if tr.CountOf(wire.TypeData) != 2 {
		t.Fatalf("CountOf(Data) = %d, want 2", tr.CountOf(wire.TypeData))
	}
	if tr.BytesOf(wire.TypeData) != 200 {
		t.Fatalf("BytesOf(Data) = %d, want 200", tr.BytesOf(wire.TypeData))
	}
	bd := tr.Breakdown()
	if bd[wire.TypePushDigest] != [2]uint64{1, 10} {
		t.Fatalf("Breakdown = %v", bd)
	}
}

func TestTrafficZeroBucketDefaults(t *testing.T) {
	// 10 s buckets: sends at 9 s and 11 s land in buckets 0 and 1, each
	// 10 MB over 10 s = 1 MB/s at the sender.
	tr := NewTraffic(0)
	tr.Record(0, 1, wire.TypeData, 10e6, 9*time.Second)
	tr.Record(0, 1, wire.TypeData, 10e6, 11*time.Second)
	if s := tr.NodeSeries(0, 3); s[0] != 1 || s[1] != 1 || s[2] != 0 {
		t.Fatalf("default-bucket series = %v, want [1 1 0]", s)
	}
}

func TestNodeSeriesUnknownNodeIsZero(t *testing.T) {
	tr := NewTraffic(time.Second)
	s := tr.NodeSeries(42, 3)
	for _, v := range s {
		if v != 0 {
			t.Fatalf("unknown node series = %v", s)
		}
	}
}

func TestTrafficWindowedMergeMatchesFullAccounting(t *testing.T) {
	// Two windowed shard accountants (ids 0-1 and 2-3) plus cross-window
	// traffic, merged into one full-window view, must agree with a single
	// accountant that saw every Record directly.
	full := NewSimTraffic(time.Second)
	s0 := NewSimTrafficWindow(time.Second, 0, 2)
	s1 := NewSimTrafficWindow(time.Second, 2, 2)
	rec := func(tr *Traffic, from, to wire.NodeID, size int) {
		tr.Record(from, to, wire.TypeData, size, 500*time.Millisecond)
	}
	rec(full, 0, 1, 100)
	rec(s0, 0, 1, 100)
	rec(full, 2, 3, 40)
	rec(s1, 2, 3, 40)
	// Cross-shard: shard 0's accountant sees id 3 through its sparse path.
	rec(full, 1, 3, 7)
	rec(s0, 1, 3, 7)

	merged := NewSimTraffic(time.Second)
	merged.Merge(s0)
	merged.Merge(s1)
	for id := wire.NodeID(0); id < 4; id++ {
		wantIn, wantOut := full.NodeTotals(id)
		gotIn, gotOut := merged.NodeTotals(id)
		if gotIn != wantIn || gotOut != wantOut {
			t.Fatalf("node %d totals = %d/%d, want %d/%d", id, gotIn, gotOut, wantIn, wantOut)
		}
	}
	if merged.TotalBytes() != full.TotalBytes() {
		t.Fatalf("total = %d, want %d", merged.TotalBytes(), full.TotalBytes())
	}
}

func TestTrafficTotalsOnlyMatchesSeriesTotals(t *testing.T) {
	// A totals-only accountant must report the same NodeTotals and
	// aggregates as a series accountant fed the same records; its series
	// read as zero (never allocated).
	series := NewSimTraffic(time.Second)
	totals := NewSimTrafficWindow(time.Second, 0, 2).TotalsOnly()
	for _, r := range []struct {
		from, to wire.NodeID
		size     int
	}{{0, 1, 100}, {1, 0, 30}, {0, 5, 9}, {5, 1, 4}} {
		series.Record(r.from, r.to, wire.TypeData, r.size, 3*time.Second)
		totals.Record(r.from, r.to, wire.TypeData, r.size, 3*time.Second)
	}
	for _, id := range []wire.NodeID{0, 1, 5} {
		wantIn, wantOut := series.NodeTotals(id)
		gotIn, gotOut := totals.NodeTotals(id)
		if gotIn != wantIn || gotOut != wantOut {
			t.Fatalf("node %d totals = %d/%d, want %d/%d", id, gotIn, gotOut, wantIn, wantOut)
		}
	}
	if totals.TotalBytes() != series.TotalBytes() ||
		totals.CountOf(wire.TypeData) != series.CountOf(wire.TypeData) {
		t.Fatalf("aggregates diverge: %d/%d vs %d/%d", totals.TotalBytes(),
			totals.CountOf(wire.TypeData), series.TotalBytes(), series.CountOf(wire.TypeData))
	}
	for _, v := range totals.NodeSeries(0, 4) {
		if v != 0 {
			t.Fatalf("totals-only series must read zero, got %v", totals.NodeSeries(0, 4))
		}
	}

	// Merging totals-only shards into a totals-only view preserves totals.
	merged := NewSimTraffic(time.Second).TotalsOnly()
	merged.Merge(totals)
	in, out := merged.NodeTotals(1)
	wantIn, wantOut := series.NodeTotals(1)
	if in != wantIn || out != wantOut {
		t.Fatalf("merged totals = %d/%d, want %d/%d", in, out, wantIn, wantOut)
	}
}
